import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from nillat.cli import main
from nillat import jsonio
from nillat.liealg import six_dim_quadratic_structure


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_anosov_example(capsys):
    code, doc = run_cli(capsys, "anosov", "--matrix", "1,5,2;2,-1,-1;3,2,0")
    assert code == 0
    assert doc == {"anosov": True, "charpoly": [-1, -15, 0, 1]}


def test_anosov_false_exit_code(capsys):
    code, doc = run_cli(capsys, "anosov", "--matrix", "1,0,0;0,1,0;0,0,1")
    assert code == 1
    assert doc["anosov"] is False


def test_anosov_reads_the_charpoly_once(capsys):
    from nillat import anosov

    with mock.patch.object(anosov, "char_poly_pair", wraps=anosov.char_poly_pair) as spy:
        code, doc = run_cli(capsys, "anosov", "--matrix", "1,5,2;2,-1,-1;3,2,0")
    assert (code, doc) == (0, {"anosov": True, "charpoly": [-1, -15, 0, 1]})
    assert spy.call_count == 1
    code, doc = run_cli(capsys, "anosov", "--matrix", "2,0,0;0,1,0;0,0,1")
    assert (code, doc) == (3, {"error": "precondition", "message": "matrix must be unimodular"})


def test_units(capsys):
    code, doc = run_cli(capsys, "units", "-m", "2")
    assert code == 0
    assert doc["fundamental"] == "1+sqrt2"
    code, doc = run_cli(capsys, "units", "-m", "5")
    assert doc["fundamental"] == "(1+sqrt5)/2"
    code, doc = run_cli(capsys, "units", "-m", "-3")
    assert doc["torsion"] == "C6"


def test_units_input_error(capsys):
    code, doc = run_cli(capsys, "units", "-m", "12")
    assert code == 2
    assert doc["error"] == "input"


def test_filiform_isom_example(capsys):
    code, doc = run_cli(
        capsys,
        "filiform", "isom",
        "--a", '{"n":3,"g":[[1,0,0],[6,1,0],[1,9,1]]}',
        "--b", '{"n":3,"g":[[1,0,0],[6,1,0],[2,9,1]]}',
    )
    assert code == 1
    assert doc["isomorphic"] is False


@pytest.mark.parametrize("entry", ["6.7", "true", '"6"', "Infinity"])
def test_filiform_non_integer_entry_rejected(capsys, entry):
    """A non-integer entry is an input error, not truncated to an integer."""
    code, doc = run_cli(
        capsys,
        "filiform", "isom",
        "--a", '{"n":3,"g":[[1,0,0],[%s,1,0],[1,9,1]]}' % entry,
        "--b", '{"n":3,"g":[[1,0,0],[6,1,0],[1,9,1]]}',
    )
    assert code == 2
    assert doc["error"] == "input"
    assert "isomorphic" not in doc


H1_OVER_Q = '{"dim":1,"unit":[1],"products":[[1,1,[[1,1]]]]}'
TRID = '{"kind":"TriD","params":{"d":[1,1,1]}}'


@pytest.mark.parametrize("argv", [
    ("cocycles", '{"dim":3.5,"brackets":[[1,2,[[3,1]]]]}'),
    ("cocycles", '{"dim":"3","brackets":[[1,2,[[3,1]]]]}'),
    ("cocycles", '{"dim":true,"brackets":[]}'),
    ("cocycles", '{"dim":Infinity,"brackets":[[1,2,[[3,1]]]]}'),
    ("cocycles", '{"dim":NaN,"brackets":[[1,2,[[3,1]]]]}'),
    ("cocycles", '{"dim":3,"brackets":[[1,2.5,[[3,1]]]]}'),
    ("cocycles", '{"dim":3,"brackets":[[1,2,[[3.2,1]]]]}'),
    ("symplectic", "decide", '{"dim":1.5,"unit":[1],"products":[[1,1,[[1,1]]]]}'),
    ("symplectic", "decide", '{"dim":1,"unit":[1],"products":[[1,"1",[[1,1]]]]}'),
    ("symplectic", "hk-check", '{"algebra":%s,"k":2.9}' % H1_OVER_Q),
    ("symplectic", "hk-check", '{"algebra":%s,"k":"2"}' % H1_OVER_Q),
    ("filiform", "theta", '{"n":3.7,"g":[[1,0,0],[6,1,0],[1,9,1]]}'),
    ("filiform", "theta", '{"n":"3","g":[[1,0,0],[6,1,0],[1,9,1]]}'),
    ("filiform", "aut", '{"n":3.2,"y_images":[[["y1",1]],[["y2",1]],[["y3",1]]],"z_image":[["z",1]]}'),
    ("filiform", "aut", '{"n":3,"y_images":[[["y1",1.5]],[["y2",1]],[["y3",1]]],"z_image":[["z",1]]}'),
    ("filiform", "aut", '{"n":3,"y_images":[[["y1",1]],[["y2",1]],[["y3",1]]],"z_image":[["z",true]]}'),
    ("phi-aut", '{"m":2.5,"alpha":[1,1],"beta":[1,1]}'),
    ("phi-aut", '{"m":2,"alpha":[1.5,1],"beta":[1,1]}'),
    ("phi-aut", '{"m":2,"alpha":[1,1],"beta":[1,"1"]}'),
    ("gamma111-aut", '{"matrix":[[1,5,2],[2,-1,-1.5],[3,2,0]]}'),
    ("gamma111-aut", '{"matrix":[[1,"5",2],[2,-1,-1],[3,2,0]]}'),
    ("gamma111-aut", '{"matrix":[[1,"10/2",2],[2,-1,-1],[3,2,0]]}'),
    ("gamma111-aut", '{"matrix":[[1,0,0],[0,1,0],[0,0,1]],"central":[[0,0,"1"],[0,0,0],[0,0,0]]}'),
    ("multiply", '{"model":{"kind":"HeisQuad","params":{"d":2.5}},"a":{"coords":[0,0,0,0,0,0]},'
                 '"b":{"coords":[0,0,0,0,0,0]}}'),
    ("multiply", '{"model":{"kind":"TriD","params":{"d":[1,1,1.5]}},"a":{"coords":[0,0,0,0,0,0]},'
                 '"b":{"coords":[0,0,0,0,0,0]}}'),
    ("multiply", '{"model":{"kind":"Filiform","params":{"n":3,"g":[[1,0,0],[6.5,1,0],[1,9,1]]}},'
                 '"a":{"coords":[0,0,0,0]},"b":{"coords":[0,0,0,0]}}'),
    ("relations", '{"model":%s,"assignment":{"y1":{"coords":[0,0,0,1,0,0]}},'
                  '"presentation":{"gens":["y1"],"relations":[{"lhs":[["y1",0.5]],"rhs":[]}]}}' % TRID),
])
def test_non_integer_json_field_rejected(capsys, argv):
    """An integer field of a JSON document that is not an integer is an input error."""
    *command, doc_text = argv
    code, doc = run_cli(capsys, *command, "--json", doc_text)
    assert code == 2
    assert doc["error"] == "input"


def test_integral_float_json_field_accepted(capsys):
    """Like the action-matrix entries, a float equal to an integer is read as that integer."""
    code, doc = run_cli(capsys, "symplectic", "hk-check", "--json", '{"algebra":%s,"k":2.0}' % H1_OVER_Q)
    assert code == 0 and doc["degenerate"]
    code, doc = run_cli(capsys, "gamma111-aut", "--json", '{"matrix":[[1,5,2],[2,-1,-1],[3,2,0]]}')
    code_f, doc_f = run_cli(capsys, "gamma111-aut", "--json",
                            '{"matrix":[[1,5.0,2],[2,-1,-1],[3,2,0]],"central":[[0,0,0.0],[0,0,0],[0,0,0]]}')
    assert code == code_f == 0 and doc == doc_f


def test_filiform_normalize_and_quotients(capsys):
    spec = '{"n":3,"g":[[1,0,0],[6,1,0],[14,9,1]]}'
    code, doc = run_cli(capsys, "filiform", "normalize", "--json", spec)
    assert code == 0
    assert doc["spec"]["g"] == [[1, 0, 0], [6, 1, 0], [2, 9, 1]]
    code, doc = run_cli(capsys, "filiform", "quotients", "--json", spec)
    assert code == 0
    assert doc["quotients"] == [[54], [1, 54]]
    code, doc = run_cli(capsys, "filiform", "theta", "--json", spec)
    assert doc["theta"] == [6, 9]


def test_validate_and_series(capsys):
    lie = '{"dim":3,"brackets":[[1,2,[[3,"1"]]]]}'
    code, doc = run_cli(capsys, "validate-lie", "--json", lie)
    assert code == 0 and doc["ok"]
    code, doc = run_cli(capsys, "central-series", "--json", lie)
    assert doc["ascending_dims"] == [1, 3]
    assert doc["descending_dims"] == [1, 0]


def test_validate_reports_violation(capsys):
    bad = '{"dim":3,"brackets":[[1,2,[[3,1]]],[2,3,[[1,1]]],[1,3,[[1,-1]]]]}'
    code, doc = run_cli(capsys, "validate-lie", "--json", bad)
    assert code == 0
    assert not doc["ok"]
    assert doc["violations"][0][0] == [1, 2, 3]


def test_classify6_and_commensurable(capsys):
    eq2 = jsonio.dump_lie_algebra(six_dim_quadratic_structure(2))
    code, doc = run_cli(capsys, "classify6", "--json", json.dumps(eq2))
    assert code == 0
    assert (doc["family"], doc["d"]) == ("H1_COMPLEX", 2)
    both = json.dumps({"a": eq2, "b": jsonio.dump_lie_algebra(six_dim_quadratic_structure(3))})
    code, doc = run_cli(capsys, "commensurable", "--json", both)
    assert code == 1
    assert doc["commensurable"] is False


def test_multiply_and_relations(capsys):
    req = json.dumps({
        "model": {"kind": "TriD", "params": {"d": [2, 2, 6]}},
        "a": {"coords": [0, 0, 0, 0, 1, 0]},
        "b": {"coords": [0, 0, 0, 0, 0, 1]},
    })
    code, doc = run_cli(capsys, "multiply", "--json", req)
    assert code == 0
    assert doc["product"]["coords"] == [2, 0, 0, 0, 1, 1]

    rel = json.dumps({
        "model": {"kind": "TriD", "params": {"d": [1, 1, 1]}},
        "assignment": {
            "y1": {"coords": [0, 0, 0, 1, 0, 0]},
            "y2": {"coords": [0, 0, 0, 0, 1, 0]},
            "y3": {"coords": [0, 0, 0, 0, 0, 1]},
            "z1": {"coords": [1, 0, 0, 0, 0, 0]},
        },
        "presentation": {
            "gens": ["y1", "y2", "y3", "z1"],
            "relations": [
                {"lhs": [["y2", 1], ["y3", 1]], "rhs": [["y3", 1], ["y2", 1], ["z1", 1]]}
            ],
        },
    })
    code, doc = run_cli(capsys, "relations", "--json", rel)
    assert code == 0 and doc["ok"]


def test_symplectic_commands(capsys):
    dual = '{"dim":2,"unit":[1,0],"products":[[1,1,[[1,1]]],[1,2,[[2,1]]]]}'
    code, doc = run_cli(capsys, "symplectic", "decide", "--json", dual)
    assert code == 0 and doc["symplectic"] and doc["reason"] == "local-criterion"
    code, doc = run_cli(capsys, "symplectic", "construct", "--json", dual)
    assert code == 0 and doc["dim"] == 6
    code, doc = run_cli(capsys, "symplectic", "hk-check", "--json",
                        json.dumps({"algebra": json.loads(dual), "k": 2}))
    assert code == 0 and doc["degenerate"]


def test_symplectic_construct_precondition_exit(capsys):
    odd = '{"dim":3,"unit":[1,0,0],"products":[[1,1,[[1,1]]],[1,2,[[2,1]]],[1,3,[[3,1]]],[2,2,[[3,1]]]]}'
    code, doc = run_cli(capsys, "symplectic", "construct", "--json", odd)
    assert code == 3
    assert doc["error"] == "precondition"


def test_failed_self_check_answers_internal(capsys, monkeypatch):
    # a broken witness construction is a library bug, not a precondition of the input
    from nillat import heisenberg

    dual = '{"dim":2,"unit":[1,0],"products":[[1,1,[[1,1]]],[1,2,[[2,1]]]]}'
    monkeypatch.setattr(heisenberg, "_dual_pairing", lambda base, s: [[0] * base.dim for _ in range(base.dim)])
    code, doc = run_cli(capsys, "symplectic", "construct", "--json", dual)
    assert (code, doc) == (3, {"error": "internal", "message": "constructed form is degenerate"})


def test_example5_and_cybe(capsys):
    code, doc = run_cli(capsys, "example5", "--json", '{"rows":[[1],[1],[1]]}')
    assert code == 0 and doc["is_lattice"] and doc["form"] == [1, 1, 1]
    code, doc = run_cli(capsys, "example5", "--json", '{"exp":[1,1,1,0,0,0]}')
    assert doc["element"]["coords"] == [1, 1, 1, "1/2", "1/2", "1/2"]

    lie = '{"dim":4,"brackets":[[1,2,[[3,1]]],[1,3,[[4,1]]]]}'
    r = '[[0,0,0,1],[0,0,-1,0],[0,1,0,0],[-1,0,0,0]]'
    code, doc = run_cli(capsys, "cybe", "--json", json.dumps({"algebra": json.loads(lie), "r": json.loads(r)}))
    assert code == 0 and doc["solution"]


def test_moment_map_cli(capsys):
    lie = {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]}
    form = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    code, doc = run_cli(capsys, "moment-map", "--verify", "--json",
                        json.dumps({"algebra": lie, "form": form}))
    assert code == 0
    assert doc["identity_verified"] is True
    assert len(doc["components"]) == 4


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_json_exits_two(capsys):
    code, doc = run_cli(capsys, "validate-lie", "--json", "{nope")
    assert code == 2
    assert doc["error"] == "input"


def test_output_idempotent(capsys):
    code1, doc1 = run_cli(capsys, "charpoly", "--matrix", "1,5,2;2,-1,-1;3,2,0")
    code2, doc2 = run_cli(capsys, "charpoly", "--matrix", "1,5,2;2,-1,-1;3,2,0")
    assert code1 == code2 == 0 and doc1 == doc2


def test_json_round_trip():
    L = six_dim_quadratic_structure(-2, variant=2)
    doc = jsonio.dump_lie_algebra(L)
    again = jsonio.parse_lie_algebra(json.loads(json.dumps(doc)))
    assert again.dim == L.dim and again.brackets == L.brackets


def test_file_input(tmp_path, capsys):
    path = tmp_path / "alg.json"
    path.write_text('{"dim":3,"brackets":[[1,2,[[3,"1"]]]]}', encoding="utf-8")
    code, doc = run_cli(capsys, "validate-lie", "--input", str(path))
    assert code == 0 and doc["ok"]


def test_cocycles_cli(capsys):
    code, doc = run_cli(capsys, "cocycles", "--json", '{"dim":3,"brackets":[[1,2,[[3,1]]]]}')
    assert code == 0 and doc["z2_dim"] == 3 and doc["b2_dim"] == 1


def test_trid_invariants_cli(capsys):
    code, doc = run_cli(
        capsys, "trid-invariants", "--json",
        '{"model":{"kind":"TriD","params":{"d":[2,2,6]}}}',
    )
    assert code == 0 and doc["divisors"] == [2, 2, 6]
    code, doc = run_cli(
        capsys, "trid-invariants", "--json",
        '{"center":[[1,0,0],[0,1,0],[0,0,1]],"derived":[[6,1,0],[0,9,0],[0,0,1]]}',
    )
    assert doc["divisors"] == [1, 1, 54]


def test_theorem6_and_orthogonal_cli(capsys):
    lie = {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]}
    form = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    code, doc = run_cli(capsys, "theorem6", "--json", json.dumps({
        "algebra": lie, "form": form,
        "ideal": [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], "e": [1, 0, 0, 0],
    }))
    assert code == 0 and doc["curvature_zero"]
    code, doc = run_cli(capsys, "orthogonal", "--json", json.dumps({
        "algebra": lie, "form": form, "subspace": [[0, 0, 0, 1]],
    }))
    assert code == 0
    assert doc["basis"] == [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


def test_double_theta_cli(capsys):
    lie = {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]}
    r = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    code, doc = run_cli(capsys, "double-theta", "--json", json.dumps({
        "algebra": lie, "r": r,
        "lattice_log": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    }))
    assert code == 0
    assert doc["double"]["dim"] == 8
    assert "rational_structure" in doc


@pytest.mark.parametrize("length", [3, 5])
def test_double_theta_lattice_vectors_of_wrong_length_exit_two(capsys, length):
    lie = {"dim": 4, "brackets": [[1, 2, [[3, 1]]], [1, 3, [[4, 1]]]]}
    r = [[0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]]
    basis = [[int(i == j) for j in range(length)] for i in range(4)]
    code, doc = run_cli(capsys, "double-theta", "--json", json.dumps({"algebra": lie, "r": r, "lattice_log": basis}))
    assert code == 2 and doc["error"] == "input"
    assert "must have length 4" in doc["message"]


def test_phi_aut_cli(capsys):
    code, doc = run_cli(capsys, "phi-aut", "--json", '{"m":2,"alpha":[1,1],"beta":[1,1]}')
    assert code == 0
    assert doc["anosov"] is True and doc["exponents"] == [1, 1]
    assert doc["gamma"] == "3+2sqrt2"


def test_gamma111_aut_cli(capsys):
    code, doc = run_cli(capsys, "gamma111-aut", "--json",
                        '{"matrix":[[1,5,2],[2,-1,-1],[3,2,0]]}')
    assert code == 0
    assert doc["b"] == [[1, 5, 2], [2, -1, -1], [3, 2, 0]]


def test_filiform_aut_cli(capsys):
    code, doc = run_cli(capsys, "filiform", "aut", "--json", json.dumps({
        "n": 3,
        "y_images": [[["y1", 1]], [["y2", -1]], [["y3", 1]]],
        "z_image": [["z", 1]],
    }))
    assert code == 0
    assert doc["ok"] is False and "propagation" in doc["diagnosis"]


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"dim":3,"brackets":[[1,2,[[3,"1"]]]]}'))
    code = main(["validate-lie"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0 and doc["ok"]


def test_bad_rational_rejected(capsys):
    code, doc = run_cli(capsys, "validate-lie", "--json",
                        '{"dim":3,"brackets":[[1,2,[[3,"1/0"]]]]}')
    assert code == 2 and doc["error"] == "input"


def test_classify6_with_explicit_complement(capsys):
    eq2 = jsonio.dump_lie_algebra(six_dim_quadratic_structure(3))
    req = json.dumps({
        "algebra": eq2,
        "complement": [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0],
                       [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]],
    })
    code, doc = run_cli(capsys, "classify6", "--json", req)
    assert code == 0 and doc["d"] == 3
    # emitted witness re-parses to an invertible exact matrix
    w = jsonio.parse_matrix(doc["witness"])
    assert w.det() != 0


def test_emitted_spec_reparses(capsys):
    code, doc = run_cli(capsys, "filiform", "normalize", "--json",
                        '{"n":3,"g":[[1,0,0],[-6,1,0],[1,-9,1]]}')
    assert code == 0
    spec = jsonio.parse_filiform_spec(doc["spec"])
    assert spec.g[1][0] == 6 and spec.g[2][1] == 9


# Which nillat modules one fresh interpreter holds after importing the package,
# importing the CLI, or running one subcommand in process.  A module-level
# import added to the package, the CLI, jsonio or anosov shows up here.
# Every subcommand below answers (exit 0 or 1), so it ran to the end.
_IMPORT_PROBE = """
import contextlib, io, json, sys
argv, code = json.loads(sys.argv[1]), 0
if argv is None:
    import nillat
else:
    import nillat.cli
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = nillat.cli.main(argv)
print(json.dumps([code, sorted(m[len("nillat."):] for m in sys.modules if m.startswith("nillat."))]))
"""

_LOCAL_DIM3 = {"dim": 3, "unit": [1, 0, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]],
                                                        [1, 3, [[3, 1]]], [2, 2, [[3, 1]]]]}
_SIX = {"dim": 6, "brackets": [[1, 2, [[5, 1]]], [1, 3, [[6, 1]]], [2, 4, [[6, 1]]], [3, 4, [[5, -2]]]]}
_ANOSOV = {"anosov", "intlattice", "matrix", "unipoly"}


def _product_doc(model) -> str:
    return json.dumps({"model": model, "a": {"coords": [1, 2, 3, 4, 5, 6]}, "b": {"coords": [0] * 6}})


@pytest.mark.parametrize("argv, expected", [
    (None, set()),
    ([], {"cli", "errors"}),
    (["units", "-m", "7"], {"cli", "errors", "quadratic"}),
    (["anosov", "--matrix", "1,5,2;2,-1,-1;3,2,0"], {"cli", "errors"} | _ANOSOV),
    (["charpoly", "--matrix", "1,5,2;2,-1,-1;3,2,0"], {"cli", "errors"} | _ANOSOV),
    (["symplectic", "decide", "--json", json.dumps(_LOCAL_DIM3)],
     {"cli", "errors", "jsonio", "matrix", "commalg", "heisenberg", "cocycles", "liealg"}),
    (["filiform", "isom", "--a", '{"n":3,"g":[[1,0,0],[6,1,0],[1,9,1]]}',
      "--b", '{"n":3,"g":[[1,0,0],[6,1,0],[2,9,1]]}'],
     {"cli", "errors", "jsonio", "matrix", "classify", "intlattice", "liealg", "quadratic"}),
    (["classify6", "--json", json.dumps({"algebra": _SIX})],
     {"cli", "errors", "jsonio", "matrix", "classify", "intlattice", "liealg", "quadratic"}),
    (["multiply", "--json", _product_doc({"kind": "TriD", "params": {"d": [1, 1, 1]}})],
     {"cli", "errors", "jsonio", "matrix", "groups", "intlattice"}),
    (["multiply", "--json", _product_doc({"kind": "HeisQuad", "params": {"d": 2}})],
     {"cli", "errors", "jsonio", "matrix", "groups", "intlattice", "quadratic"}),
], ids=["import nillat", "import nillat.cli", "units", "anosov", "charpoly", "symplectic decide",
        "filiform isom", "classify6", "multiply TriD", "multiply HeisQuad"])
def test_subcommand_imports_only_its_modules(argv, expected):
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(argv)],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code in (0, 1)
    assert set(modules) == expected
