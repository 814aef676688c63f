"""Layer ladder for the cocycle-space solve, the socle computation, the filiform integer layer, the Lie kernels, exact elimination, the subspace layer and the moment map.

    python3 tools/ladder.py [CHECKOUT]
    python3 tools/ladder.py PARENT CHANGE > BENCH_filiform.json
    python3 tools/ladder.py --spawn PARENT CHANGE > BENCH_cli_import.json

With one checkout (default: the checkout this script sits in), imports
`nillat` from CHECKOUT/src and prints one JSON document.  Each rung times
one call five times and reports the minimum and the spread (max - min) / min
of the wall time in ms:

- `cocycle_space` on H_1(Q[x]/x^j), j = 2..8 (dim 6..24);
- `cocycle_space` on H_2(Q[x]/x^j), j = 2..6 (dim 10..30);
- `hk_degeneracy_check(Q[x]/x^j, 2)`, j = 2..6, which solves the same
  H_2 system and reads every Z^2 form on the g-copy;
- `Matrix.kernel_basis` on the rows of every Z^2 form of H_1(Q[x]/x^j),
  j = 2..8, stacked: the common-kernel system of
  `generic_degeneracy_search`;
- `radical_and_socle(Q[x]/x^j)`, j = 2..12;
- `truncated_polynomials(j)`, j = 2..12: building Q[x]/x^j, which checks
  the unit axiom and associativity on every basis triple;
- `solve_diophantine` on the Sylvester system that `filiform_isomorphic`
  solves for a fixed seeded conjugated pair, n = 4..8;
- `filiform_isomorphic` on a fixed seeded conjugated pair ("yes") and on a
  fixed seeded one-entry change of a lattice that it answers "no" for,
  n = 3..8 (seeded as in `tools/outputs.py`);
- `LieAlgebra.ascending_central_series` on `filiform_algebra(n)`,
  n = 3..12 (dim 4..13): one centre modulo a subspace per term;
- `classify_six_dim` on `six_dim_quadratic_structure(d)`, d = -5, -2, -1,
  2, 3, 5, 7, each with a fixed seeded complement of its centre: the
  brackets of the complement, the witness construction and its check;
- `LieAlgebra.descending_central_series` on `filiform_algebra(n)`,
  n = 3..16 (dim 4..17): one bracket span per term;
- `flat_symplectic_structure` on the 2-dim affine algebra and the
  filiform algebras of dim 4, 6 and 8 with their canonical forms (the
  unscaled cases of `tools/outputs.py`);
- `double_theta_check` on the filiform algebra of dim 2n = 4, 6, 8 with
  the inverse of its canonical form: the double, t*G, both Jacobi checks
  and the theta isomorphism check;
- `Matrix.inverse` and `Matrix.solve` (with a seeded integer right-hand
  side) on a seeded invertible integer matrix, n = 2..12, entries in
  [-9, 9];
- `anosov.char_poly_pair` and `anosov.is_anosov` on seeded unimodular
  3 x 3 integer matrices, the product of 2, 4, 8 and 16 seeded elementary
  matrices: the trace formulas, and for `is_anosov` the unit-circle test
  of p_B as well;
- `complement_basis` of a seeded basis of n // 2 rational vectors in Q^n,
  n = 2..12;
- `moment_cocycle_identity_holds` on the filiform algebra of dim 4 with
  its canonical form, on t*H_1 with the form of its grading derivation
  and on a dim-6 algebra of class 4 (the algebras of the tests): three
  moment maps and one coadjoint series over the degree-4 group product;
- `left_symmetric_product` on the filiform algebra of dim 2n with its
  canonical form, n = 2..6 (dim 4..12);
- `fundamental_unit` on 4 seeded squarefree m of 3, 6, 9 and 10 digits
  (10 digits: m < 2*10^9, the exact-decisions range) in each residue
  class m = 1, 2, 3 (mod 4), one call per m.

dim Z^2 (or the certificate kind, the kernel dimension, the radical and
socle dimensions, the series dimensions, or a digest of the system, of the
table or of the answer) is reported beside each rung, so two ladders can be checked to
have computed the same thing.

With two checkouts, runs ROUNDS rounds.  Each round starts one child
process per checkout, each of which imports its own `nillat`, builds every
rung and runs it once untimed.  Then, rung by rung, parent and change take
one timed sample each, alternating which goes first, until each side has
SAMPLES samples, so a change of the host's speed hits both sides alike; a
fresh pair of children per round spreads whatever one process's memory
layout does to a rung over three processes per side.  The merged document
has one row per rung, over all rounds: `parent_min_ms`, `parent_median_ms`,
`change_min_ms`, `change_median_ms`, the speedup parent median / change
median, and `change_faster`, the number of the ROUNDS x SAMPLES sample
pairs in which the change was faster.

With `--spawn` and two checkouts, times CLI start-up instead: one rung per
`python -m nillat.cli <argv>` request kind of the benchmark's cli workload
(anosov, charpoly, units, symplectic decide, classify6, multiply,
filiform isom) plus `python -c pass`.  Parent and change spawn
alternately inside one timing loop in the same way, and each rung checks
that both sides printed the same stdout and exit code.  Each rung reports
the min and median ms per side in two columns: `host_env`, the environment
as inherited, and `bytecode`, with bytecode caching on
(PYTHONDONTWRITEBYTECODE unset and PYTHONPYCACHEPREFIX a temporary
directory, warmed by one untimed spawn per side, so nothing is written into
either checkout).

Standard library only.  The layer ladder writes nothing to disk; the
spawn ladder writes only its temporary bytecode cache, which it removes,
and whatever bytecode the inherited environment lets the `host_env`
spawns write (none under PYTHONDONTWRITEBYTECODE=1).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

from outputs import filiform_pairs, flat_cases, seeded_squarefree, six_dim_complement

REPEATS = 5
ROUNDS = 3
SAMPLES = 7
SPAWN_REPEATS = 21
WHAT = ("layer ladder of the Z^2 solve: cocycle_space on H_1(Q[x]/x^j), j=2..8, and H_2(Q[x]/x^j), "
        "j=2..6; hk_degeneracy_check(Q[x]/x^j, 2), j=2..6; Matrix.kernel_basis on the stacked Z^2 rows "
        "of H_1(Q[x]/x^j), j=2..8; of the socle computation: radical_and_socle(Q[x]/x^j) and the "
        "construction truncated_polynomials(j), j=2..12; and of the filiform integer layer: "
        "solve_diophantine on the Sylvester system of a seeded conjugated pair, n=4..8, and "
        "filiform_isomorphic on a seeded yes-pair and no-pair, n=3..8; of the Lie kernels: "
        "ascending_central_series of filiform_algebra(n), n=3..12, and classify_six_dim of "
        "six_dim_quadratic_structure(d) with a seeded complement, d=-5,-2,-1,2,3,5,7; of the bracket "
        "kernel: descending_central_series of filiform_algebra(n), n=3..16, flat_symplectic_structure on "
        "the affine algebra and the filiform algebras of dim 4, 6, 8, and double_theta_check on the "
        "filiform algebra of dim 2n=4, 6, 8 with the inverse canonical bivector; of exact elimination: "
        "Matrix.inverse and Matrix.solve on a seeded invertible integer matrix, n=2..12, and "
        "anosov.char_poly_pair and anosov.is_anosov on seeded unimodular 3x3 matrices; of the subspace layer: complement_basis of a "
        "seeded basis of n//2 vectors in Q^n, n=2..12; of the moment map: moment_cocycle_identity_holds on the "
        "filiform algebra of dim 4, t*H_1 and a class-4 algebra of dim 6; and left_symmetric_product on the "
        "filiform algebra of dim 2n with its canonical form, n=2..6; of the unit group: fundamental_unit on 4 seeded "
        "squarefree m of 3, 6, 9 and 10 digits in each class mod 4; wall time in ms")


def _time(fn):
    samples, out = [], None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        out = fn()
        samples.append(1000 * (time.perf_counter() - t0))
    lo = min(samples)
    return out, {"min_ms": round(lo, 4), "spread": round((max(samples) - lo) / lo, 3)}


def _digest(x) -> str:
    return hashlib.sha1(json.dumps(x).encode()).hexdigest()[:12]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def _revision(checkout: Path) -> str:
    """`git describe --always --dirty` of the checkout, or its directory name outside git."""
    try:
        proc = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return checkout.name
    return proc.stdout.strip() if proc.returncode == 0 else checkout.name


def _sylvester_system(classify, s1, s2) -> tuple[list, list]:
    """The (rows, rhs) that filiform_isomorphic(s1, s2) hands to solve_diophantine."""
    seen = []
    solve = classify.solve_diophantine
    classify.solve_diophantine = lambda rows, rhs: seen.append((rows, rhs)) or solve(rows, rhs)
    try:
        classify.filiform_isomorphic(s1, s2)
    finally:
        classify.solve_diophantine = solve
    return seen[0]


def rungs() -> list[tuple[dict, object, object]]:
    """(label, call, describe): describe(call()) says what the call computed."""
    from nillat import classify
    from nillat.anosov import char_poly_pair, is_anosov
    from nillat.cocycles import AlternatingForm, cocycle_space, left_symmetric_product
    from nillat.commalg import radical_and_socle, truncated_polynomials
    from nillat.heisenberg import heisenberg_over, hk_degeneracy_check
    from nillat.intlattice import solve_diophantine
    from nillat.liealg import (LieAlgebra, filiform_algebra, heisenberg_algebra, semidirect_coadjoint,
                               six_dim_quadratic_structure)
    from nillat.matrix import Matrix, complement_basis
    from nillat.quadratic import fundamental_unit
    from nillat.symplectic import (double_theta_check, filiform_cocycle, flat_symplectic_structure, inverse_bivector,
                                   moment_cocycle_identity_holds)

    out = []
    for k, top in ((1, 8), (2, 6)):
        for j in range(2, top + 1):
            L = heisenberg_over(truncated_polynomials(j), k).algebra
            out.append(({"op": "cocycle_space", "algebra": f"H_{k}(Q[x]/x^{j})", "dim": L.dim},
                        lambda L=L: cocycle_space(L), lambda res: {"z2_dim": len(res[0])}))
    for j in range(2, 7):
        out.append(({"op": "hk_degeneracy_check", "algebra": f"H_2(Q[x]/x^{j})", "dim": 5 * j},
                    lambda j=j: hk_degeneracy_check(truncated_polynomials(j), 2), lambda cert: {"kind": cert.kind}))
    for j in range(2, 9):
        L = heisenberg_over(truncated_polynomials(j), 1).algebra
        stack = Matrix([row for form in cocycle_space(L)[0] for row in form.matrix.data])
        out.append(({"op": "Matrix.kernel_basis", "algebra": f"Z^2 rows of H_1(Q[x]/x^{j})", "dim": L.dim,
                     "rows": stack.rows}, stack.kernel_basis, lambda kernel: {"kernel_dim": len(kernel)}))
    for j in range(2, 13):
        A = truncated_polynomials(j)
        out.append(({"op": "radical_and_socle", "algebra": f"Q[x]/x^{j}", "dim": j}, lambda A=A: radical_and_socle(A),
                    lambda rep: {"radical_dim": len(rep.radical), "socle_dim": len(rep.socle)}))
    for j in range(2, 13):
        out.append(({"op": "truncated_polynomials", "algebra": f"Q[x]/x^{j}"},
                    lambda j=j: truncated_polynomials(j), lambda A: {"dim": A.dim}))
    pairs, spec = {}, classify.FiliformLatticeSpec
    for n in range(3, 9):
        _, g, h = filiform_pairs(random.Random(n), n, 1)[0]
        pairs[n, "yes"] = spec(n, g), spec(n, h)
        for seed in itertools.count():  # the first seeded no-candidate answered "no"
            _, g, h = filiform_pairs(random.Random(1000 * n + seed), n, 1)[1]
            if not classify.filiform_isomorphic(spec(n, g), spec(n, h))[0]:
                pairs[n, "no"] = spec(n, g), spec(n, h)
                break
    for n in range(4, 9):
        rows, rhs = _sylvester_system(classify, *pairs[n, "yes"])
        out.append(({"op": "solve_diophantine", "algebra": f"Sylvester system of a filiform yes-pair, n={n}",
                     "dim": n, "rows": len(rows), "cols": len(rows[0]), "system": _digest([rows, rhs])},
                    lambda rows=rows, rhs=rhs: solve_diophantine(rows, rhs), lambda sol: {"answer": _digest(sol)}))
    for n in range(3, 9):
        for kind in ("yes", "no"):
            s1, s2 = pairs[n, kind]
            out.append(({"op": "filiform_isomorphic", "algebra": f"filiform {kind}-pair, n={n}", "dim": n,
                         "pair": _digest([s1.g, s2.g])},
                        lambda s1=s1, s2=s2: classify.filiform_isomorphic(s1, s2),
                        lambda res: {"isomorphic": res[0], "answer": _digest(res)}))
    for n in range(3, 13):
        L = filiform_algebra(n)
        out.append(({"op": "LieAlgebra.ascending_central_series", "algebra": f"filiform_algebra({n})", "dim": L.dim},
                    L.ascending_central_series, lambda series: {"dims": [len(b) for b in series]}))
    for d in (-5, -2, -1, 2, 3, 5, 7):
        L, comp = six_dim_quadratic_structure(d), six_dim_complement(random.Random(100 + d))
        out.append(({"op": "classify_six_dim", "algebra": f"six_dim_quadratic_structure({d})", "dim": 6,
                     "complement": _digest(comp)},
                    lambda L=L, comp=comp: classify.classify_six_dim(L, comp),
                    lambda c: {"family": c.family, "d": c.d,
                               "answer": _digest([[str(x) for x in row] for row in c.witness_basis.data])}))
    for n in range(3, 17):
        L = filiform_algebra(n)
        out.append(({"op": "LieAlgebra.descending_central_series", "algebra": f"filiform_algebra({n})", "dim": L.dim},
                    L.descending_central_series, lambda series: {"dims": [len(b) for b in series]}))
    for name, L, ideal, e, form in flat_cases()[::3]:  # scale 1
        out.append(({"op": "flat_symplectic_structure", "algebra": name.split()[0], "dim": L.dim},
                    lambda L=L, ideal=ideal, e=e, form=form: flat_symplectic_structure(L, ideal, e, form),
                    lambda table: {"table": _digest([[[str(x) for x in v] for v in row] for row in table])}))
    for half in (2, 3, 4):
        L, r = filiform_algebra(2 * half - 1), inverse_bivector(filiform_cocycle(half))
        out.append(({"op": "double_theta_check", "algebra": f"filiform_algebra({2 * half - 1}), inverse canonical r",
                     "dim": 2 * half},
                    lambda L=L, r=r: double_theta_check(L, r),
                    lambda ds: {"double": _digest(sorted((list(p), sorted((k, str(c)) for k, c in comp.items()))
                                                         for p, comp in ds.double.brackets.items()))}))
    for n in range(2, 13):
        rng = random.Random(700 + n)
        while True:
            M = Matrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)])
            if M.det() != 0:
                break
        rhs = [rng.randint(-9, 9) for _ in range(n)]
        label = {"algebra": f"seeded invertible integer {n}x{n}", "dim": n, "matrix": _digest(M.to_int_rows())}
        out.append(({"op": "Matrix.inverse", **label}, M.inverse,
                    lambda inv: {"answer": _digest([[str(x) for x in row] for row in inv.data])}))
        out.append(({"op": "Matrix.solve", **label}, lambda M=M, rhs=rhs: M.solve(rhs),
                    lambda x: {"answer": _digest([str(c) for c in x])}))
    for steps in (2, 4, 8, 16):
        rng, b = random.Random(800 + steps), [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(steps):  # b <- b (I + q E_ij), i != j
            i, j = rng.sample(range(3), 2)
            q = rng.choice((1, -1, 2, -2))
            for row in b:
                row[j] += q * row[i]
        label = {"algebra": f"unimodular 3x3, {steps} elementary factors", "dim": 3, "matrix": _digest(b)}
        out.append(({"op": "char_poly_pair", **label}, lambda b=b: char_poly_pair(b),
                    lambda pq: {"answer": _digest(pq)}))
        out.append(({"op": "is_anosov", **label}, lambda b=b: is_anosov(b), lambda ok: {"anosov": ok}))
    for n in range(2, 13):
        rng = random.Random(900 + n)
        basis = [[Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(n)] for _ in range(n // 2)]
        out.append(({"op": "complement_basis", "algebra": f"{n // 2} seeded rational vectors in Q^{n}", "dim": n,
                     "basis": _digest([[str(x) for x in v] for v in basis])},
                    lambda basis=basis, n=n: complement_basis(basis, n),
                    lambda comp: {"answer": _digest([[str(x) for x in v] for v in comp])}))
    ts = semidirect_coadjoint(heisenberg_algebra(1))
    class4 = LieAlgebra(6, {(0, i): {i + 1: 1} for i in range(1, 4)})
    for name, L, form in (
        ("filiform_algebra(3), canonical form", filiform_algebra(3), filiform_cocycle(2)),
        ("t*H_1, grading-derivation form", ts,
         AlternatingForm.from_upper_entries(ts, {(0, 3): -1, (1, 4): -1, (2, 5): -2})),
        ("class-4 dim 6", class4, AlternatingForm.from_upper_entries(class4, {
            (0, 1): -1, (0, 2): -1, (0, 3): -1, (0, 4): -1, (0, 5): -1, (1, 2): -1, (1, 4): 1, (1, 5): -1,
            (2, 3): -1})),
    ):
        out.append(({"op": "moment_cocycle_identity_holds", "algebra": name, "dim": L.dim},
                    lambda L=L, form=form: moment_cocycle_identity_holds(L, form), lambda ok: {"holds": ok}))
    for half in range(2, 7):
        L, form = filiform_algebra(2 * half - 1), filiform_cocycle(half)
        out.append(({"op": "left_symmetric_product", "algebra": f"filiform_algebra({2 * half - 1}), canonical form",
                     "dim": 2 * half},
                    lambda L=L, form=form: left_symmetric_product(L, form),
                    lambda table: {"table": _digest([[[str(x) for x in v] for v in row] for row in table])}))
    for digits in (3, 6, 9, 10):
        for residue in (1, 2, 3):
            ms = seeded_squarefree(random.Random(100 * digits + residue), 10 ** (digits - 1),
                                   min(10 ** digits, 2 * 10 ** 9), 4, residue)
            out.append(({"op": "fundamental_unit", "algebra": f"{digits}-digit m = {residue} (mod 4)", "m": ms},
                        lambda ms=ms: [fundamental_unit(m) for m in ms],
                        lambda units: {"answer": _digest([[f"{u.a:x}", f"{u.b:x}"] for u in units])}))
    return out


def _header(checkout: Path) -> dict:
    return {"revision": _revision(checkout), "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model()}


def _one(checkout: Path) -> dict:
    sys.path.insert(0, str(checkout / "src"))
    rows = []
    for label, call, describe in rungs():
        res, t = _time(call)
        rows.append({**label, **describe(res), **t})
    return {**_header(checkout), "repeats": REPEATS, "what": WHAT, "rungs": rows}


def _serve(checkout: Path) -> int:
    """Child of a merged run: print the header and the rung labels, then time rung i for each line i on stdin."""
    sys.path.insert(0, str(checkout / "src"))
    table = rungs()
    labels = [{**label, **describe(call())} for label, call, describe in table]
    print(json.dumps({**_header(checkout), "rungs": labels}), flush=True)
    for line in sys.stdin:
        call = table[int(line)][1]
        t0 = time.perf_counter()
        call()
        print(1000 * (time.perf_counter() - t0), flush=True)
    return 0


def _round(parent: Path, change: Path) -> tuple[dict, dict, list[dict]]:
    """A fresh child per checkout; SAMPLES alternating samples per side of every rung."""
    children = {side: subprocess.Popen([sys.executable, __file__, "--serve", str(side)], stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE, text=True, bufsize=1)
                for side in (parent, change)}
    try:
        p, c = (json.loads(children[side].stdout.readline() or "null") for side in (parent, change))
        if p is None or c is None:
            raise SystemExit("a ladder child failed to start")
        if p["rungs"] != c["rungs"]:
            diff = next((a, b) for a, b in zip(p["rungs"], c["rungs"]) if a != b) if len(p["rungs"]) == len(
                c["rungs"]) else "different rung counts"
            raise SystemExit(f"the ladders computed different things: {diff}")
        samples = []
        for i in range(len(p["rungs"])):
            rung = {parent: [], change: []}
            for r in range(SAMPLES):
                for side in (parent, change) if r % 2 == 0 else (change, parent):
                    children[side].stdin.write(f"{i}\n")
                    rung[side].append(float(children[side].stdout.readline()))
            samples.append(rung)
    finally:
        for child in children.values():
            child.stdin.close()
            child.wait(timeout=60)
    return p, c, samples


def _merged(parent: Path, change: Path) -> dict:
    rounds = [_round(parent, change) for _ in range(ROUNDS)]
    p, c, _ = rounds[0]
    if any(other["rungs"] != p["rungs"] for other, _, _ in rounds):
        raise SystemExit("the rounds computed different things")
    rows = []
    for i, label in enumerate(p["rungs"]):
        ps, cs = ([x for _, _, samples in rounds for x in samples[i][side]] for side in (parent, change))
        pm, cm = statistics.median(ps), statistics.median(cs)
        rows.append({**label,
                     "parent_min_ms": round(min(ps), 4), "parent_median_ms": round(pm, 4),
                     "change_min_ms": round(min(cs), 4), "change_median_ms": round(cm, 4),
                     "median_speedup": round(pm / cm, 2), "change_faster": sum(b < a for a, b in zip(ps, cs))})
    return {
        "what": WHAT,
        "command": "python3 tools/ladder.py PARENT CHANGE",
        "parent": p["revision"],
        "change": c["revision"],
        "host": {k: p[k] for k in ("python", "nproc", "cpu_model")},
        "rounds": ROUNDS,
        "samples_per_round": SAMPLES,
        "rungs": rows,
    }


SPAWN_WHAT = ("CLI start-up: wall ms of one `python -m nillat.cli <argv>` subprocess per request kind of the "
              "cli workload, and of `python -c pass`; parent and change spawn alternately in one timing "
              "loop, %d spawns per side, min and median; column host_env inherits the environment, column "
              "bytecode turns bytecode caching on into a temporary PYTHONPYCACHEPREFIX" % SPAWN_REPEATS)

_LOCAL_DIM4 = {"dim": 4, "unit": [1, 0, 0, 0], "products": [
    [1, 1, [[1, 1]]], [1, 2, [[2, 1]]], [1, 3, [[3, 1]]], [1, 4, [[4, 1]]], [2, 2, [[3, 1]]], [2, 3, [[4, 1]]]]}
_SIX_D2 = {"dim": 6, "brackets": [[1, 3, [[5, 1]]], [1, 4, [[6, 1]]], [2, 3, [[6, 1]]], [2, 4, [[5, 2]]]]}
SPAWN_RUNGS = [
    ("pass", ["-c", "pass"]),
    ("anosov", ["-m", "nillat.cli", "anosov", "--matrix=1,5,2;2,-1,-1;3,2,0"]),
    ("charpoly", ["-m", "nillat.cli", "charpoly", "--matrix=1,1,0;1,2,1;0,1,2"]),
    ("units", ["-m", "nillat.cli", "units", "-m", "94"]),
    ("symplectic decide", ["-m", "nillat.cli", "symplectic", "decide", "--json", json.dumps(_LOCAL_DIM4)]),
    ("classify6", ["-m", "nillat.cli", "classify6", "--json", json.dumps(_SIX_D2)]),
    ("multiply", ["-m", "nillat.cli", "multiply", "--json", json.dumps({
        "model": {"kind": "HeisQuad", "params": {"d": 5}},
        "a": {"coords": [1, -2, 3, 0, 4, 1]}, "b": {"coords": [2, 5, -1, 3, 0, -4]}})]),
    ("filiform isom", ["-m", "nillat.cli", "filiform", "isom", "--a", '{"n":3,"g":[[1,0,0],[6,1,0],[1,9,1]]}',
                       "--b", '{"n":3,"g":[[1,0,0],[6,1,0],[2,9,1]]}']),
]


def _spawn(checkout: Path, argv: list[str], env: dict) -> tuple[float, tuple]:
    env = dict(env, PYTHONPATH=str(checkout / "src"))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=120)
    ms = 1000 * (time.perf_counter() - t0)
    return ms, (proc.returncode, proc.stdout, proc.stderr)


def _spawn_rung(name: str, parent: Path, change: Path, argv: list[str], env: dict, warm: bool) -> tuple[int, dict]:
    """(exit code, min and median ms per side) of SPAWN_REPEATS alternating spawns per side."""
    if warm:
        for checkout in (parent, change):
            _spawn(checkout, argv, env)
    samples: dict[Path, list[float]] = {parent: [], change: []}
    results = set()
    for r in range(SPAWN_REPEATS):
        for checkout in (parent, change) if r % 2 == 0 else (change, parent):
            ms, result = _spawn(checkout, argv, env)
            samples[checkout].append(ms)
            results.add(result)
    if len(results) != 1:
        raise SystemExit(f"spawn rung {name!r} answered differently: {sorted(results)}")
    code, _, stderr = results.pop()
    if stderr:
        raise SystemExit(f"spawn rung {name!r} wrote to stderr: {stderr}")
    pm, cm = (statistics.median(samples[side]) for side in (parent, change))
    return code, {"parent_min_ms": round(min(samples[parent]), 2), "parent_median_ms": round(pm, 2),
                  "change_min_ms": round(min(samples[change]), 2), "change_median_ms": round(cm, 2),
                  "median_speedup": round(pm / cm, 2)}


def _spawn_merged(parent: Path, change: Path) -> dict:
    rungs = []
    with tempfile.TemporaryDirectory(prefix="nillat-pycache-") as prefix:
        bytecode = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        bytecode["PYTHONPYCACHEPREFIX"] = prefix
        for name, argv in SPAWN_RUNGS:
            code, host = _spawn_rung(name, parent, change, argv, dict(os.environ), warm=False)
            _, cached = _spawn_rung(name, parent, change, argv, bytecode, warm=True)
            rungs.append({"rung": name, "argv": argv, "exit": code, "host_env": host, "bytecode": cached})
    return {
        "what": SPAWN_WHAT,
        "command": "python3 tools/ladder.py --spawn PARENT CHANGE",
        "parent": _revision(parent),
        "change": _revision(change),
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
                 "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")},
        "repeats": SPAWN_REPEATS,
        "rungs": rungs,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="*", default=[str(Path(__file__).resolve().parents[1])],
                    help="one checkout, or PARENT CHANGE for a merged comparison")
    ap.add_argument("--spawn", action="store_true", help="time CLI start-up of PARENT CHANGE instead")
    ap.add_argument("--serve", action="store_true", help=argparse.SUPPRESS)  # child of a merged run
    args = ap.parse_args()
    paths = [Path(c).resolve() for c in args.checkouts]
    if len(paths) > 2:
        ap.error("give one checkout or two")
    if args.spawn and len(paths) != 2:
        ap.error("--spawn needs PARENT CHANGE")
    for path in paths:
        if not (path / "src" / "nillat").is_dir():
            print(f"no src/nillat under {path}", file=sys.stderr)
            return 1
    if args.serve:
        return _serve(paths[0])
    if args.spawn:
        doc = _spawn_merged(*paths)
    else:
        doc = _one(paths[0]) if len(paths) == 1 else _merged(*paths)
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
