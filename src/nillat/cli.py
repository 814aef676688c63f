"""Command-line interface: every library operation behind JSON input/output.

Exit codes: 0 success; 1 mathematical answer "no" where the answer is the
point (filiform isom, anosov, commensurable); 2 input error; 3 precondition
or structural error, or "error": "internal" when a self-check of an answer
fails (a library bug).  Output is a single JSON document on stdout.

Each subcommand imports the library modules it runs inside its own
function (or branch), so one `nillat <cmd>` process loads only those;
tests/test_cli.py pins the module sets.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InputError, NillatError, PreconditionError

ANSWER_FALSE = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


def _load_doc(args) -> dict:
    if getattr(args, "json", None):
        text = args.json
    elif getattr(args, "input", None):
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad JSON input: {exc}") from exc


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc, sort_keys=True) + "\n")


def _parse_semicolon_matrix(text: str) -> list[list[int]]:
    try:
        return [[int(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise InputError(f"bad matrix literal {text!r}") from exc


def _dump_basis(basis) -> list:
    from . import jsonio

    return [jsonio.dump_vector(v) for v in basis]


def _dump_poly(p) -> list:
    from . import jsonio

    return [[jsonio.dump_rational(c), list(e)] for e, c in sorted(p.terms.items())]


# -- subcommand implementations ----------------------------------------------------------


def cmd_validate_lie(args) -> int:
    from . import jsonio
    from .liealg import validate_lie

    L = jsonio.parse_lie_algebra(_load_doc(args))
    rep = validate_lie(L)
    _emit({
        "ok": rep["ok"],
        "violations": [
            [[i + 1, j + 1, k + 1], jsonio.dump_vector(defect)]
            for (i, j, k), defect in rep["violations"]
        ],
    })
    return 0


def cmd_central_series(args) -> int:
    from . import jsonio
    from .liealg import central_series

    L = jsonio.parse_lie_algebra(_load_doc(args))
    rep = central_series(L)
    _emit({
        "ascending_dims": rep["ascending_dims"],
        "descending_dims": rep["descending_dims"],
        "ascending": [_dump_basis(b) for b in rep["ascending"]],
        "descending": [_dump_basis(b) for b in rep["descending"]],
    })
    return 0


def cmd_cocycles(args) -> int:
    from . import jsonio
    from .cocycles import cocycle_space

    L = jsonio.parse_lie_algebra(_load_doc(args))
    z2, b2 = cocycle_space(L)
    _emit({
        "z2_dim": len(z2),
        "b2_dim": len(b2),
        "z2": [jsonio.dump_matrix(f.matrix) for f in z2],
        "b2": [jsonio.dump_matrix(f.matrix) for f in b2],
    })
    return 0


def cmd_classify6(args) -> int:
    from . import jsonio
    from .classify import classify_six_dim

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"] if "algebra" in doc else doc)
    comp = doc.get("complement") if isinstance(doc, dict) else None
    comp_parsed = None
    if comp is not None:
        comp_parsed = [[jsonio.parse_rational(x) for x in row] for row in comp]
    c = classify_six_dim(L, complement=comp_parsed)
    _emit({
        "family": c.family,
        "d": c.d,
        "witness": jsonio.dump_matrix(c.witness_basis),
    })
    return 0


def cmd_commensurable(args) -> int:
    from . import jsonio
    from .classify import classify_six_dim, commensurable

    doc = _load_doc(args)
    ca = classify_six_dim(jsonio.parse_lie_algebra(doc["a"]))
    cb = classify_six_dim(jsonio.parse_lie_algebra(doc["b"]))
    ans = commensurable(ca, cb)
    _emit({
        "commensurable": ans,
        "a": {"family": ca.family, "d": ca.d},
        "b": {"family": cb.family, "d": cb.d},
    })
    return 0 if ans else ANSWER_FALSE


def cmd_trid_invariants(args) -> int:
    from . import jsonio
    from .classify import trid_invariants, trid_invariants_from_model

    doc = _load_doc(args)
    if "model" in doc:
        model = jsonio.parse_group_model(doc["model"])
        inv = trid_invariants_from_model(model)
    else:
        inv = trid_invariants(
            jsonio.parse_int_matrix(doc["center"]), jsonio.parse_int_matrix(doc["derived"])
        )
    _emit({"divisors": inv})
    return 0


def cmd_filiform(args) -> int:
    from . import jsonio

    doc = _load_doc(args) if args.action not in ("isom",) else None
    if args.action == "normalize":
        from .classify import filiform_normalize

        spec = jsonio.parse_filiform_spec(doc)
        norm, witness = filiform_normalize(spec)
        _emit({"spec": jsonio.dump_filiform_spec(norm), "witness": witness})
        return 0
    if args.action == "theta":
        from .classify import theta_invariant

        spec = jsonio.parse_filiform_spec(doc)
        _emit({"theta": list(theta_invariant(spec))})
        return 0
    if args.action == "quotients":
        from .classify import central_quotients

        spec = jsonio.parse_filiform_spec(doc)
        _emit({"quotients": central_quotients(spec)})
        return 0
    if args.action == "isom":
        from .classify import filiform_isomorphic

        if not (args.a and args.b):
            raise InputError("isom needs --a and --b")
        s1 = jsonio.parse_filiform_spec(json.loads(args.a))
        s2 = jsonio.parse_filiform_spec(json.loads(args.b))
        ans, witness = filiform_isomorphic(s1, s2)
        _emit({"isomorphic": ans, "witness": witness})
        return 0 if ans else ANSWER_FALSE
    if args.action == "aut":
        from .anosov import filiform_aut_constraints

        n = jsonio.parse_int(doc["n"], "n")
        y_images = [[(g, jsonio.parse_int(e, "exponent")) for g, e in w] for w in doc["y_images"]]
        z_image = [(g, jsonio.parse_int(e, "exponent")) for g, e in doc["z_image"]]
        rep = filiform_aut_constraints(n, y_images, z_image)
        _emit({"ok": rep.ok, "diagnosis": rep.diagnosis})
        return 0
    raise InputError(f"unknown filiform action {args.action!r}")


def cmd_multiply(args) -> int:
    from . import jsonio
    from .groups import inverse, multiply

    doc = _load_doc(args)
    model = jsonio.parse_group_model(doc["model"])
    a = jsonio.parse_group_element(model, doc["a"])
    b = jsonio.parse_group_element(model, doc["b"])
    if doc.get("inverse"):
        _emit({"inverse": jsonio.dump_group_element(inverse(model, a))})
    else:
        _emit({"product": jsonio.dump_group_element(multiply(model, a, b))})
    return 0


def cmd_relations(args) -> int:
    from . import jsonio
    from .groups import check_relations

    doc = _load_doc(args)
    model = jsonio.parse_group_model(doc["model"])
    pres = jsonio.parse_presentation(doc["presentation"])
    assignment = {
        name: jsonio.parse_group_element(model, el) for name, el in doc["assignment"].items()
    }
    ok, failing = check_relations(model, assignment, pres)
    _emit({"ok": ok, "failing": failing})
    return 0


def cmd_symplectic(args) -> int:
    from . import jsonio
    from .heisenberg import h1_cocycle_construct, h1_symplectic_decision, hk_degeneracy_check

    doc = _load_doc(args)
    if args.action == "decide":
        A = jsonio.parse_comm_algebra(doc)
        d = h1_symplectic_decision(A)
        _emit({
            "symplectic": d.symplectic,
            "reason": d.reason,
            "radical_dim": len(d.report.radical),
            "socle_dim": len(d.report.socle),
            "local": d.report.is_local,
        })
        return 0
    if args.action == "construct":
        A = jsonio.parse_comm_algebra(doc)
        form = h1_cocycle_construct(A)
        _emit({"dim": form.algebra.dim, "matrix": jsonio.dump_matrix(form.matrix)})
        return 0
    if args.action == "hk-check":
        A = jsonio.parse_comm_algebra(doc["algebra"])
        cert = hk_degeneracy_check(A, jsonio.parse_int(doc["k"], "k"))
        _emit({
            "degenerate": cert.degenerate,
            "kind": cert.kind,
            "kernel": _dump_basis(cert.kernel_basis or []),
        })
        return 0
    raise InputError(f"unknown symplectic action {args.action!r}")


def cmd_moment_map(args) -> int:
    from . import jsonio
    from .symplectic import moment_cocycle_identity_holds, moment_map

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"])
    form = jsonio.parse_alternating_form(L, doc["form"])
    q = moment_map(L, form)
    out = {"components": [_dump_poly(p) for p in q.components]}
    if doc.get("verify_identity") or args.verify:
        out["identity_verified"] = moment_cocycle_identity_holds(L, form)
    _emit(out)
    return 0


def cmd_theorem6(args) -> int:
    from . import jsonio
    from .symplectic import curvature_vanishes, flat_symplectic_structure

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"])
    form = jsonio.parse_alternating_form(L, doc["form"])
    ideal = [[jsonio.parse_rational(x) for x in row] for row in doc["ideal"]]
    evec = [jsonio.parse_rational(x) for x in doc["e"]]
    table = flat_symplectic_structure(L, ideal, evec, form)
    _emit({
        "table": [[jsonio.dump_vector(v) for v in row] for row in table],
        "curvature_zero": curvature_vanishes(L, table),
    })
    return 0


def cmd_orthogonal(args) -> int:
    from . import jsonio
    from .symplectic import orthogonal_subalgebra

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"])
    form = jsonio.parse_alternating_form(L, doc["form"])
    sub = [[jsonio.parse_rational(x) for x in row] for row in doc["subspace"]]
    _emit({"basis": _dump_basis(orthogonal_subalgebra(L, form, sub))})
    return 0


def cmd_example5(args) -> int:
    from . import jsonio

    doc = _load_doc(args)
    if "exp" in doc:
        from .groups import example5_exp

        el = example5_exp([jsonio.parse_rational(x) for x in doc["exp"]])
        _emit({"element": jsonio.dump_group_element(el)})
        return 0
    if "log" in doc:
        from .groups import example5_log, example5_model

        model = example5_model()
        el = jsonio.parse_group_element(model, {"coords": doc["log"]})
        _emit({"coordinates": jsonio.dump_vector(example5_log(el))})
        return 0
    from .symplectic import example5_gamma_prime

    rows = [[jsonio.parse_rational(x) for x in row] for row in doc["rows"]]
    rep = example5_gamma_prime(rows)
    _emit({
        "w_dim": rep.w_dim,
        "rank": rep.gamma_prime_rank,
        "is_lattice": rep.is_lattice,
        "form": rep.integer_form,
    })
    return 0


def cmd_cybe(args) -> int:
    from . import jsonio
    from .symplectic import cybe_check

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"])
    r = jsonio.parse_matrix(doc["r"])
    _emit({"solution": cybe_check(L, r)})
    return 0


def cmd_double_theta(args) -> int:
    from . import jsonio
    from .symplectic import double_theta_check, rational_structure_for_double

    doc = _load_doc(args)
    L = jsonio.parse_lie_algebra(doc["algebra"])
    r = jsonio.parse_matrix(doc["r"])
    ds = double_theta_check(L, r)
    out = {
        "double": jsonio.dump_lie_algebra(ds.double),
        "semidirect": jsonio.dump_lie_algebra(ds.semidirect),
        "theta": jsonio.dump_matrix(ds.theta_matrix),
    }
    if "lattice_log" in doc:
        basis = [[jsonio.parse_rational(x) for x in row] for row in doc["lattice_log"]]
        P, alg = rational_structure_for_double(L, r, basis)
        out["rational_basis"] = jsonio.dump_matrix(P)
        out["rational_structure"] = jsonio.dump_lie_algebra(alg)
    _emit(out)
    return 0


def cmd_units(args) -> int:
    from .quadratic import format_element, unit_group

    m = args.m
    desc = unit_group(m)
    out = {"m": m, "torsion": desc.torsion}
    if desc.fundamental is not None:
        out["fundamental"] = format_element(desc.fundamental)
        out["coordinates"] = [desc.fundamental.a, desc.fundamental.b]
    _emit(out)
    return 0


def cmd_anosov(args) -> int:
    from .anosov import char_poly_pair, has_unit_circle_root

    mat = _matrix_arg(args)
    p_b, _ = char_poly_pair(mat)
    ans = not has_unit_circle_root(p_b)
    _emit({"charpoly": p_b, "anosov": ans})
    return 0 if ans else ANSWER_FALSE


def cmd_charpoly(args) -> int:
    from .anosov import char_poly_pair, has_unit_circle_root

    mat = _matrix_arg(args)
    p_b, q_a = char_poly_pair(mat)
    _emit({
        "p_b": p_b,
        "q_a": q_a,
        "unit_circle_root": has_unit_circle_root(p_b),
    })
    return 0


def cmd_phi_aut(args) -> int:
    from . import jsonio
    from .anosov import eigenvalue_moduli_report, phi_automorphism
    from .quadratic import element as ring_element
    from .quadratic import format_element, ring_of_integers

    doc = _load_doc(args)
    ring = ring_of_integers(jsonio.parse_int(doc["m"], "m"))
    alpha = ring_element(ring, *[jsonio.parse_int(x, "alpha") for x in doc["alpha"]])
    beta = ring_element(ring, *[jsonio.parse_int(x, "beta") for x in doc["beta"]])
    phi = phi_automorphism(ring, alpha, beta)
    _emit({
        "matrix": jsonio.dump_matrix(phi.matrix),
        "gamma": format_element(phi.gamma),
        "eigenvalues": [
            {"element": format_element(e), "embedding": s} for e, s in phi.eigen
        ],
        "moduli_vs_one": eigenvalue_moduli_report(phi),
        "exponents": list(phi.exponents) if phi.exponents else None,
        "anosov": phi.anosov,
    })
    return 0


def cmd_gamma111_aut(args) -> int:
    from . import jsonio
    from .anosov import gamma111_automorphism

    doc = _load_doc(args)
    central = doc.get("central")
    aut = gamma111_automorphism(
        [[jsonio.parse_int(x, "matrix entry") for x in row] for row in doc["matrix"]],
        None if central is None else [[jsonio.parse_int(x, "central entry") for x in row] for row in central],
    )
    _emit({"b": aut.b_matrix, "a": aut.a_matrix})
    return 0


def _matrix_arg(args) -> list[list[int]]:
    if getattr(args, "matrix", None):
        return _parse_semicolon_matrix(args.matrix)
    from . import jsonio

    doc = _load_doc(args)
    if isinstance(doc, dict):
        doc = doc.get("matrix", doc)
    return jsonio.parse_int_matrix(doc)


# -- argument wiring --------------------------------------------------------------------


def _add_io(sp) -> None:
    sp.add_argument("--input", help="path of the JSON input document")
    sp.add_argument("--json", help="inline JSON input document")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nillat",
        description="exact computations with nilpotent Lie groups, lattices and symplectic forms",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    simple = {
        "validate-lie": cmd_validate_lie,
        "central-series": cmd_central_series,
        "cocycles": cmd_cocycles,
        "classify6": cmd_classify6,
        "commensurable": cmd_commensurable,
        "trid-invariants": cmd_trid_invariants,
        "multiply": cmd_multiply,
        "relations": cmd_relations,
        "theorem6": cmd_theorem6,
        "orthogonal": cmd_orthogonal,
        "example5": cmd_example5,
        "cybe": cmd_cybe,
        "double-theta": cmd_double_theta,
        "gamma111-aut": cmd_gamma111_aut,
        "phi-aut": cmd_phi_aut,
    }
    for name, fn in simple.items():
        sp = sub.add_parser(name)
        _add_io(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("filiform")
    sp.add_argument("action", choices=["normalize", "isom", "theta", "quotients", "aut"])
    sp.add_argument("--a", help="first lattice spec (isom)")
    sp.add_argument("--b", help="second lattice spec (isom)")
    _add_io(sp)
    sp.set_defaults(fn=cmd_filiform)

    sp = sub.add_parser("symplectic")
    sp.add_argument("action", choices=["decide", "construct", "hk-check"])
    _add_io(sp)
    sp.set_defaults(fn=cmd_symplectic)

    sp = sub.add_parser("moment-map")
    sp.add_argument("--verify", action="store_true", help="also verify the group cocycle identity")
    _add_io(sp)
    sp.set_defaults(fn=cmd_moment_map)

    sp = sub.add_parser("units")
    sp.add_argument("-m", type=int, required=True, help="squarefree field parameter")
    sp.set_defaults(fn=cmd_units)

    for name, fn in (("anosov", cmd_anosov), ("charpoly", cmd_charpoly)):
        sp = sub.add_parser(name)
        sp.add_argument("--matrix", help='semicolon/comma matrix literal, e.g. "1,5,2;2,-1,-1;3,2,0"')
        _add_io(sp)
        sp.set_defaults(fn=fn)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        _emit({"error": "input", "message": str(exc)})
        return EXIT_INPUT
    except PreconditionError as exc:
        _emit({"error": "precondition", "message": str(exc)})
        return EXIT_PRECONDITION
    except NillatError as exc:  # InternalError
        _emit({"error": "internal", "message": str(exc)})
        return EXIT_PRECONDITION
    except (KeyError, TypeError, ValueError) as exc:
        _emit({"error": "input", "message": f"malformed input: {exc}"})
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
