"""Exact outputs of the commutative-algebra, Heisenberg and centre paths, on one checkout or a pair.

    python3 tools/outputs.py [CHECKOUT]
    python3 tools/outputs.py PARENT CHANGE

With one checkout (default: the checkout this script sits in), imports
`nillat` from CHECKOUT/src and prints one JSON document of what the
library answers on a fixed, seeded corpus:

- `radical_and_socle`, `h1_symplectic_decision`, `h1_cocycle_construct`
  (the form, or the error), the `generic_degeneracy_search` certificate
  with `h1_blocks_for_search` for every "no", and
  `hk_degeneracy_check(A, 2)` up to dim 4, on every stock commutative
  algebra, three non-local ones and 60 seeded monomial quotients of
  dim 1-12;
- `center_basis`, the ascending central series and the centralizer of
  the derived algebra of the stock Lie algebras and of H_1(A) for the
  stock A, and `classify_six_dim` on the six-dimensional normal forms and
  on 12 seeded integer changes of basis of them;
- the `nillat symplectic decide|construct|hk-check` documents and exit
  codes (run in-process through `cli.main`);
- the `StructuralError` messages for broken unit and associativity inputs.

With two checkouts, runs each in its own process and exits 0 if the two
documents are equal, otherwise prints the first differing entry and
exits 1.  Standard library only; nothing is written to disk.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path


def _canon(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if hasattr(x, "data") and hasattr(x, "rows"):  # Matrix
        return _canon(x.data)
    return x


def monomial_quotients(count: int, seed: int = 11) -> list[list[tuple[int, ...]]]:
    """Distinct order ideals of monomials (1 first), dims 1..12, in 1-3 variables."""
    rng = random.Random(seed)
    seen, out = set(), []
    while len(out) < count:
        nv = rng.randint(1, 3)
        gens = [tuple(rng.randint(0, 4) for _ in range(nv)) for _ in range(rng.randint(1, 3))]
        ideal = {e for g in gens for e in _box(g)}
        basis = sorted(ideal, key=lambda e: (sum(e), e))
        if len(basis) <= 12 and tuple(basis) not in seen:
            seen.add(tuple(basis))
            out.append(basis)
    return out


def _box(g):
    if not g:
        return [()]
    return [(a,) + rest for a in range(g[0] + 1) for rest in _box(g[1:])]


def _commalg_section() -> list[dict]:
    from nillat import commalg, heisenberg
    from nillat.errors import NillatError

    algebras = [
        ("Q", commalg.rationals()),
        ("dual", commalg.dual_numbers()),
        ("example6", commalg.example6_algebra()),
        ("socle3", commalg.socle3_algebra()),
        ("QxQ", commalg.CommAlgebra(2, {(0, 0): {0: 1}, (1, 1): {1: 1}}, [1, 1])),
        ("Q(sqrt2)", commalg.CommAlgebra(2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 1): {0: 2}}, [1, 0])),
        ("QxQ[x]/x^2", commalg.CommAlgebra(3, {(0, 0): {0: 1}, (1, 1): {1: 1}, (1, 2): {2: 1}}, [1, 1, 0])),
    ]
    algebras += [(f"Q[x]/x^{k}", commalg.truncated_polynomials(k)) for k in range(1, 13)]
    algebras += [(f"frobenius{d}", commalg.frobenius_quadratic_algebra(d))
                 for d in ([1], [1, -1], [2, 3], [1, 1, 1], [1, -2, 3, -5])]
    algebras += [(f"monomial{b}", commalg.monomial_quotient(b)) for b in monomial_quotients(60)]
    out = []
    for name, A in algebras:
        rep = commalg.radical_and_socle(A)
        d = heisenberg.h1_symplectic_decision(A)
        row = {"algebra": name, "dim": A.dim, "report": _canon(vars(rep)),
               "decision": [d.symplectic, d.reason, _canon(vars(d.report))]}
        try:
            row["construct"] = _canon(heisenberg.h1_cocycle_construct(A).matrix)
        except NillatError as exc:
            row["construct"] = f"{type(exc).__name__}: {exc}"
        if not d.symplectic:
            H = heisenberg.heisenberg_over(A, 1)
            cert = heisenberg.generic_degeneracy_search(H.algebra, blocks=heisenberg.h1_blocks_for_search(A))
            row["search"] = [cert.degenerate, cert.kind, _canon(cert.kernel_basis)]
        if A.dim <= 4:
            cert = heisenberg.hk_degeneracy_check(A, 2)
            row["hk2"] = [cert.degenerate, cert.kind, _canon(cert.kernel_basis)]
        out.append(row)
    return out


def _lie_section() -> list[dict]:
    from nillat import classify, commalg, heisenberg, liealg
    from nillat.matrix import Matrix

    algebras = [(f"heisenberg{k}", liealg.heisenberg_algebra(k)) for k in (1, 2, 3)]
    algebras += [(f"filiform{n}", liealg.filiform_algebra(n)) for n in range(2, 7)]
    algebras += [("h1_dual", liealg.h1_dual_structure()), ("free2step", liealg.free_two_step_algebra()),
                 ("tstar_h1", liealg.semidirect_coadjoint(liealg.heisenberg_algebra(1)))]
    sixes = [(f"six{d},{v}", liealg.six_dim_quadratic_structure(d, v)) for d in (-2, -1, 2, 3, 5) for v in (1, 2)]
    algebras += sixes
    algebras += [(f"H1({name})", heisenberg.heisenberg_over(A, 1).algebra)
                 for name, A in (("dual", commalg.dual_numbers()), ("example6", commalg.example6_algebra()),
                                 ("Q[x]/x^4", commalg.truncated_polynomials(4)))]
    rng = random.Random(5)
    for t in range(12):
        name, L = sixes[t % len(sixes)]
        while True:
            P = Matrix([[rng.randint(-2, 2) for _ in range(6)] for _ in range(6)])
            if P.det() != 0:
                break
        Pinv = P.inverse()
        table = {}
        for i in range(6):
            for j in range(i + 1, 6):
                comp = {k: c for k, c in enumerate(Pinv.apply(L.bracket(P.column(i), P.column(j)))) if c}
                if comp:
                    table[(i, j)] = comp
        algebras.append((f"{name} conjugated {t}", liealg.LieAlgebra(6, table)))
    out = []
    for name, L in algebras:
        row = {"algebra": name, "center": _canon(L.center_basis()),
               "ascending": _canon(L.ascending_central_series()),
               "centralizer_of_derived": _canon(L.centralizer_basis(L.derived_basis()))}
        if L.dim == 6 and name.startswith(("six", "h1_dual")):
            c = classify.classify_six_dim(L)
            row["classify"] = [c.family, c.d, _canon(c.witness_basis)]
        out.append(row)
    return out


def _cli_section() -> list[dict]:
    from nillat import cli

    docs = [
        {"dim": 1, "unit": [1], "products": [[1, 1, [[1, 1]]]]},
        {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]]]},
        {"dim": 2, "unit": [1, 1], "products": [[1, 1, [[1, 1]]], [2, 2, [[2, 1]]]]},
        {"dim": 4, "unit": [1, 0, 0, 0],
         "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]], [2, 2, [[3, 1]]]]},
        {"dim": 4, "unit": [1, 0, 0, 0],
         "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]]]},
        {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 2]]]]},
        {"dim": 2, "unit": [1, 0], "products": [[1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [2, 2, [[1, 1]]]]},
    ]
    out = []
    for doc in docs:
        for action in ("decide", "construct", "hk-check"):
            arg = {"algebra": doc, "k": 2} if action == "hk-check" else doc
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["symplectic", action, "--json", json.dumps(arg)])
            out.append({"action": action, "input": doc, "exit": code, "stdout": buf.getvalue()})
    return out


def _error_section() -> list[str]:
    from nillat.commalg import CommAlgebra
    from nillat.errors import StructuralError

    broken = [
        (2, {(0, 0): {0: 1}, (0, 1): {1: 1}}, [0, 1]),                     # unit is not a unit
        (2, {(0, 0): {0: 1}, (0, 1): {1: 2}}, [1, 0]),                     # e_0 e_1 = 2 e_1
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {2: 1}, (1, 2): {1: 1}}, [1, 0, 0]),
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 1): {1: 1}, (2, 2): {1: 1}}, [1, 0, 0]),
        (3, {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1}, (1, 2): {2: 1}}, [1, 0, 0]),
    ]
    out = []
    for dim, products, unit in broken:
        try:
            CommAlgebra(dim, products, unit)
            out.append("accepted")
        except StructuralError as exc:
            out.append(str(exc))
    return out


def _one(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    import nillat

    return {"commalg": _commalg_section(), "lie": _lie_section(),
            "cli": _cli_section(), "errors": _error_section()}


def _compare(parent: Path, change: Path) -> int:
    docs = []
    for checkout in (parent, change):
        proc = subprocess.run([sys.executable, __file__, str(checkout)], capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"outputs failed on {checkout}:\n{proc.stderr}")
        docs.append(json.loads(proc.stdout))
    p, c = docs
    for section in p:
        if p[section] != c[section]:
            for a, b in zip(p[section], c[section]):
                if a != b:
                    print(f"{section} differs:\n  parent {a}\n  change {b}")
                    return 1
            print(f"{section}: different lengths {len(p[section])} vs {len(c[section])}")
            return 1
        print(f"{section}: {len(p[section])} entries identical")
    return 0


def main() -> int:
    args = [Path(a).resolve() for a in sys.argv[1:]] or [Path(__file__).resolve().parents[1]]
    if len(args) > 2 or not all((a / "src" / "nillat").is_dir() for a in args):
        print(__doc__, file=sys.stderr)
        return 2
    if len(args) == 2:
        return _compare(*args)
    print(json.dumps(_one(args[0]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
