"""The benchmark's four workloads: seeded inputs, the timed calls, and their checks.

A workload is a stream of cycles.  Cycle `k` of seed `s` is generated from
its own `random.Random(f"{name}:{s}:{k}")`, so the same seed always gives
the same inputs, and every cycle holds the same mix of request kinds (the
seed draws the parameters inside each kind).  Fixed mixes keep the
percentiles and rates of one run comparable with another's.

The library receives only the generated inputs.  Every timed call reaches
the library through a module attribute (`heisenberg.h1_symplectic_decision`,
not a name imported here), so the tracer's wrappers see it.

Checks run after each cycle, outside the timed calls and with the tracer
removed.  They use the construction of each input and the independent code
in `oracles`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from nillat import anosov, classify, cli, commalg, groups, heisenberg, jsonio, liealg, quadratic, symplectic
from nillat.cocycles import AlternatingForm

from . import oracles


@dataclass
class Request:
    rid: int
    kind: str
    dim: int                                  # input dimension, for the trace's ladder
    call: Callable[[], object]
    expect: dict = field(default_factory=dict)
    call_in_process: Callable[[], object] | None = None   # cli only: cli.main in this process


@dataclass
class Record:
    req: Request
    result: object
    error: str | None
    latency_s: float
    cpu_s: float


def _rows(matrix_like) -> list[list[str]]:
    return [[str(x) for x in row] for row in matrix_like]


class Workload:
    name = ""
    why = ""
    mix = ""
    # Layers the trace must show busy / idle on this workload (metric names).
    stresses: tuple[str, ...] = ()
    bypasses: tuple[str, ...] = ()
    # Traced runs execute a fixed number of cycles, so their counts repeat
    # exactly for a seed; this many per 10 s of --seconds.
    trace_cycles_per_10s = 1.0

    def cycle(self, seed: int, index: int) -> list[Request]:
        rng = random.Random(f"{self.name}:{seed}:{index}")
        reqs = self._cycle(rng)
        rng.shuffle(reqs)
        for pos, req in enumerate(reqs):
            req.rid = index * 1000 + pos
        return reqs

    def _cycle(self, rng: random.Random) -> list[Request]:
        raise NotImplementedError

    def canon(self, rec: Record):
        """A JSON-able form of one output, for comparing traced and untraced runs."""
        raise NotImplementedError

    def check(self, records: list[Record], bad: dict[int, str], circle: oracles.CircleOracle) -> None:
        """Put {request id: reason} into `bad` for every wrong output among `records`.

        `records` are one or more whole cycles of answered requests.  A check
        that needs the unit-circle oracle files its verdict through `circle`,
        which may answer only at `circle.resolve()`.
        """
        raise NotImplementedError


def _record_into(bad: dict[int, str], rid: int, check: Callable[[bool], str | None]):
    """A `CircleOracle` answer that files check(label) into `bad`."""
    def answer(label: bool) -> None:
        reason = check(label)
        if reason:
            bad[rid] = reason
    return answer


# -- symplectic-h1 ---------------------------------------------------------------------


def _bump(m: tuple[int, ...], v: int) -> tuple[int, ...]:
    return tuple(e + (1 if i == v else 0) for i, e in enumerate(m))


def random_order_ideal(rng: random.Random, size: int, nvars: int) -> list[tuple[int, ...]]:
    """A random order ideal of `size` monomials in `nvars` variables, 1 first."""
    ideal = [(0,) * nvars]
    members = set(ideal)
    while len(ideal) < size:
        frontier = sorted({
            up for m in ideal for v in range(nvars)
            for up in [_bump(m, v)]
            if up not in members
            and all(tuple(e - (1 if i == w else 0) for i, e in enumerate(up)) in members
                    for w in range(nvars) if up[w] > 0)
        })
        pick = rng.choice(frontier)
        ideal.append(pick)
        members.add(pick)
    return ideal


SOCLE3_IDEAL = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
EXAMPLE6_IDEAL = [(0, 0), (1, 0), (2, 0), (0, 1)]


def local_algebra(rng: random.Random, dim: int, want: bool | None = None):
    """(algebra, description, expected verdict) for a random local algebra of `dim`.

    Families: truncated polynomials, 2-3 variable monomial quotients,
    Frobenius quadratic algebras, and the stock socle3/example6 algebras.
    `want` restricts the draw to algebras with that expected verdict.
    """
    while True:
        family = rng.choice(["truncated", "monomial", "frobenius", "stock"])
        if family == "truncated":
            ideal = [(i,) for i in range(dim)]
            algebra, desc = commalg.truncated_polynomials(dim), f"Q[x]/x^{dim}"
            expect = oracles.expected_h1_symplectic(ideal)
        elif family == "monomial":
            ideal = random_order_ideal(rng, dim, rng.choice((2, 3)))
            algebra, desc = commalg.monomial_quotient(ideal), f"monomial {ideal}"
            expect = oracles.expected_h1_symplectic(ideal)
        elif family == "frobenius":
            if dim < 3:
                continue
            diag = [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(dim - 2)]
            algebra, desc = commalg.frobenius_quadratic_algebra(diag), f"frobenius {diag}"
            expect = dim % 2 == 0              # socle of dimension one
        else:
            if dim != 4:
                continue
            if rng.random() < 0.5:
                algebra, desc, expect = commalg.socle3_algebra(), "socle3", oracles.expected_h1_symplectic(SOCLE3_IDEAL)
            else:
                algebra, desc, expect = commalg.example6_algebra(), "example6", oracles.expected_h1_symplectic(EXAMPLE6_IDEAL)
        if want is None or expect == want:
            return algebra, desc, expect


def _decide_and_answer(algebra):
    decision = heisenberg.h1_symplectic_decision(algebra)
    if decision.symplectic:
        return decision, heisenberg.h1_cocycle_construct(algebra)
    H = heisenberg.heisenberg_over(algebra, 1)
    return decision, heisenberg.generic_degeneracy_search(
        H.algebra, blocks=heisenberg.h1_blocks_for_search(algebra)
    )


class SymplecticH1(Workload):
    name = "symplectic-h1"
    why = ("Heisenberg-over-A decision, then verified cocycle or degeneracy search; local algebras "
           "dim 1-5 (H1 dim 3-15) + H_k checks; dense Fraction forms and Z^2 elimination")
    mix = ("per cycle of 17: dim 1 x1, dim 2 x5, dim 3 x2, dim 4 with a cocycle x2, dim 4 without x1, "
           "dim 5 x2, hk_degeneracy_check for k in {2,3} over Q and the dual numbers x4")
    stresses = (
        "heisenberg.h1_symplectic_decision", "heisenberg.h1_cocycle_construct",
        "heisenberg.generic_degeneracy_search", "heisenberg.hk_degeneracy_check",
        "cocycles.AlternatingForm.call", "cocycles.AlternatingForm.is_cocycle", "cocycles.cocycle_space",
        "matrix.Matrix.apply", "matrix.Matrix.rref", "liealg.LieAlgebra.bracket", "commalg.radical_and_socle",
    )
    bypasses = ("intlattice.solve_diophantine", "classify.filiform_isomorphic", "cli.main")
    trace_cycles_per_10s = 2.0
    # dim, expected verdict (None: any), count.  Five dim-2 requests put p50
    # in the middle of one group rather than on the edge between two.
    STRATA = ((1, None, 1), (2, None, 5), (3, None, 2), (4, True, 2), (4, False, 1), (5, None, 2))

    def _cycle(self, rng):
        reqs = []
        for dim, want, count in self.STRATA:
            for _ in range(count):
                algebra, desc, expect = local_algebra(rng, dim, want)
                reqs.append(Request(
                    0, "decide", 3 * dim, (lambda a=algebra: _decide_and_answer(a)),
                    {"symplectic": expect, "base_dim": dim, "algebra": desc},
                ))
        for base_name, base in (("Q", commalg.rationals()), ("dual", commalg.dual_numbers())):
            for k in (2, 3):
                reqs.append(Request(
                    0, "hk", (2 * k + 1) * base.dim,
                    (lambda b=base, k=k: heisenberg.hk_degeneracy_check(b, k)),
                    {"k": k, "base_dim": base.dim, "algebra": base_name},
                ))
        return reqs

    def canon(self, rec):
        if rec.req.kind == "hk":
            cert = rec.result
            return {"kind": cert.kind, "degenerate": cert.degenerate, "kernel": _rows(cert.kernel_basis or [])}
        decision, answer = rec.result
        out = {"symplectic": decision.symplectic, "reason": decision.reason,
               "socle_dim": len(decision.report.socle)}
        if isinstance(answer, AlternatingForm):
            out["form"] = _rows(answer.matrix.data)
        else:
            out.update(kind=answer.kind, degenerate=answer.degenerate,
                       kernel=_rows(answer.kernel_basis or []))
        return out

    def check(self, records, bad, circle):
        for rec in records:
            reason = self._check_hk(rec) if rec.req.kind == "hk" else self._check_decide(rec)
            if reason:
                bad[rec.req.rid] = reason

    @staticmethod
    def _check_decide(rec):
        decision, answer = rec.result
        exp = rec.req.expect
        l = exp["base_dim"]
        if decision.symplectic != exp["symplectic"]:
            return f"verdict {decision.symplectic} for {exp['algebra']}"
        if decision.symplectic:
            m = answer.matrix.data
            if answer.algebra.dim != 3 * l or len(m) != 3 * l:
                return "form has the wrong size"
            if not oracles.is_skew(m):
                return "form is not alternating"
            defect = oracles.cocycle_defect(3 * l, answer.algebra.brackets, m)
            if defect is not None:
                return f"form is not a cocycle at {defect}"
            if oracles.det(m) == 0:
                return "form is degenerate"
            return None
        if not answer.degenerate:
            return "no-answer without a degeneracy certificate"
        if (answer.kind == "parity") != (l % 2 == 1):
            return f"certificate kind {answer.kind} for H1 dim {3 * l}"
        if answer.kind in ("common-kernel", "orthogonality") and not answer.kernel_basis:
            return "certificate without kernel vectors"
        return None

    @staticmethod
    def _check_hk(rec):
        cert = rec.result
        k, l = rec.req.expect["k"], rec.req.expect["base_dim"]
        if not cert.degenerate or cert.kind != "common-kernel":
            return f"H_{k} certificate {cert.kind}"
        kernel = cert.kernel_basis or []
        g_block = range(2 * k * l, (2 * k + 1) * l)
        if len(kernel) != l or oracles.rank(kernel) != l:
            return "kernel is not the g-copy of A"
        if any(c != 0 for v in kernel for i, c in enumerate(v) if i not in g_block):
            return "kernel leaves the g-copy of A"
        return None


# -- filiform-isom ---------------------------------------------------------------------


def random_filiform_rows(rng: random.Random, n: int) -> list[list[int]]:
    """Lower-unitriangular g: subdiagonal in 1..9, deeper entries in [-20, 20]."""
    g = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(1, n):
        g[i][i - 1] = rng.randint(1, 9)
        for j in range(i - 1):
            g[i][j] = rng.randint(-20, 20)
    return g


def unitriangular_inverse(u: list[list[int]]) -> list[list[int]]:
    """Inverse of an integer lower-unitriangular matrix by forward substitution."""
    n = len(u)
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i):
            inv[i][j] = -sum(u[i][k] * inv[k][j] for k in range(j, i))
    return inv


def conjugate_by_known(rng: random.Random, g: list[list[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """(phi^-1 g phi, phi) for phi = D U: D a +-1 diagonal, U integer lower-unitriangular."""
    n = len(g)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    u = [[1 if i == j else (rng.randint(-3, 3) if j < i else 0) for j in range(n)] for i in range(n)]
    u_inv = unitriangular_inverse(u)
    phi = [[signs[i] * u[i][j] for j in range(n)] for i in range(n)]
    phi_inv = [[u_inv[i][j] * signs[j] for j in range(n)] for i in range(n)]
    return oracles.int_matmul(oracles.int_matmul(phi_inv, g), phi), phi


def perturb_deep_entry(rng: random.Random, g: list[list[int]]) -> list[list[int]]:
    n = len(g)
    i = rng.randint(2, n - 1)
    j = rng.randint(0, i - 2)
    out = [row[:] for row in g]
    out[i][j] += rng.choice((1, -1)) * rng.randint(1, 3)
    return out


def witness_problem(s1_rows, s2_rows, phi) -> str | None:
    """None if phi is a unimodular integer matrix with phi^-1 g2 phi = g1."""
    if not all(isinstance(x, int) for row in phi for x in row):
        return "witness is not integral"
    if abs(oracles.det(phi)) != 1:
        return "witness is not unimodular"
    if oracles.int_matmul(s2_rows, phi) != oracles.int_matmul(phi, s1_rows):
        return "witness does not conjugate"
    return None


class FiliformIsom(Workload):
    name = "filiform-isom"
    why = ("filiform_isomorphic on seeded lattices: conjugated yes-pairs n=3-8, one-entry no-candidates "
           "n=3-7 (sign loop); normalization, integer Sylvester solves, Fraction inverses; no cocycle code")
    mix = ("per cycle of 26: per n, yes-pairs / no-candidates (each with a conjugated-base companion): "
           "n=3 1/1, n=4 1/1, n=5 2/1, n=6 1/3, n=7 1/2, n=8 4/0")
    stresses = (
        "classify.filiform_isomorphic", "classify.filiform_normalize", "intlattice.solve_diophantine",
        "matrix.Matrix.inverse", "matrix.Matrix.rref", "matrix.Matrix.init",
    )
    bypasses = ("cocycles.AlternatingForm.call", "cocycles.AlternatingForm.is_cocycle",
                "cocycles.cocycle_space", "cocycles.left_symmetric_product", "cli.main")
    trace_cycles_per_10s = 1.6
    # n, yes-pairs, no-candidates.  No-candidates at n = 8 (0.5-1.5 s each, 128
    # Sylvester solves) are left out: a 25 s run holds too few of them for a
    # steady rate.  The counts put p50 inside the n = 6 group and p90 inside
    # the n = 7/8 group rather than on a boundary between cost groups.
    STRATA = ((3, 1, 1), (4, 1, 1), (5, 2, 1), (6, 1, 3), (7, 1, 2), (8, 4, 0))

    def _cycle(self, rng):
        reqs = []
        spec = classify.FiliformLatticeSpec
        for n, yes, no in self.STRATA:
            for _ in range(yes):
                g = random_filiform_rows(rng, n)
                h, _ = conjugate_by_known(rng, g)
                reqs.append(self._request("yes", n, spec(n, g), spec(n, h), {"iso": True}))
            for _ in range(no):
                g = random_filiform_rows(rng, n)
                cand = perturb_deep_entry(rng, g)
                g2, _ = conjugate_by_known(rng, g)
                pair = rng.getrandbits(48)
                reqs.append(self._request("no-candidate", n, spec(n, g), spec(n, cand), {"pair": pair}))
                reqs.append(self._request("companion", n, spec(n, g2), spec(n, cand), {"pair": pair}))
        return reqs

    @staticmethod
    def _request(kind, n, s1, s2, expect):
        expect = dict(expect, s1=s1, s2=s2)
        return Request(0, kind, n, lambda: classify.filiform_isomorphic(s1, s2), expect)

    def canon(self, rec):
        ans, witness = rec.result
        return {"iso": ans, "witness": witness}

    def check(self, records, bad, circle):
        pairs = defaultdict(list)
        for rec in records:
            exp = rec.req.expect
            ans, witness = rec.result
            s1, s2 = exp["s1"], exp["s2"]
            if exp.get("iso") and not ans:
                bad[rec.req.rid] = "conjugated pair reported non-isomorphic"
            elif ans:
                reason = witness_problem(s1.g_rows(), s2.g_rows(), witness)
                if reason:
                    bad[rec.req.rid] = reason
            elif witness is not None:
                bad[rec.req.rid] = "no-answer carries a witness"
            if "pair" in exp:
                pairs[exp["pair"]].append(rec)
        for group in pairs.values():
            answers = {r.result[0] for r in group}
            if len(answers) > 1:
                for r in group:
                    bad[r.req.rid] = "answer differs from the conjugated-base companion"
                continue
            base, cand = group[0].req.expect["s1"], group[0].req.expect["s2"]
            if answers == {True} and classify.central_quotients(base) != classify.central_quotients(cand):
                for r in group:
                    bad[r.req.rid] = "central quotients differ but the answer is yes"


# -- exact-decisions -------------------------------------------------------------------

_PRIMES: list[int] = []


def _small_primes(limit: int = 44722) -> list[int]:
    if not _PRIMES:
        sieve = bytearray([1]) * (limit + 1)
        sieve[0:2] = b"\x00\x00"
        for p in range(2, int(limit ** 0.5) + 1):
            if sieve[p]:
                sieve[p * p::p] = bytearray(len(sieve[p * p::p]))
        _PRIMES.extend(p for p in range(limit + 1) if sieve[p])
    return _PRIMES


def random_squarefree(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform squarefree m in [lo, hi), hi <= 2e9 (trial division by p^2)."""
    while True:
        m = rng.randrange(lo, hi)
        if all(m % (p * p) for p in _small_primes() if p * p <= m):
            return m


def random_unimodular3(rng: random.Random) -> list[list[int]]:
    """A 3x3 integer matrix of determinant +-1 from random elementary moves."""
    b = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    for _ in range(rng.randint(3, 6)):
        i, j = rng.sample(range(3), 2)
        c = rng.choice((-2, -1, 1, 2))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    if rng.random() < 0.5:
        b[0] = [-x for x in b[0]]
    rng.shuffle(b)
    return b


def random_int_poly(rng: random.Random, degree: int) -> list[int]:
    p = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice((-1, 1)) * rng.randint(1, 9)]
    return p


def random_complement(rng: random.Random) -> list[list[int]]:
    """Four vectors spanning Q^6 together with e5, e6 (the center of the structures)."""
    while True:
        comp = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        if oracles.det([row[:4] for row in comp]) != 0:
            return comp


SQUAREFREE_D = tuple(d for d in range(-15, 16) if d not in (0, 1) and d % 4 and d % 9)


GROUP_MODELS = (
    lambda: groups.HeisenbergDual(),
    lambda: groups.HeisQuad(2),
    lambda: groups.HeisQuad(5),
    lambda: groups.TStarH1(),
    lambda: groups.TriD(2, 2, 6),
    lambda: groups.Example5G(),
    lambda: groups.Filiform(3, [[1, 0, 0], [6, 1, 0], [1, 9, 1]]),
)


def flat_cases(rng: random.Random):
    """The three algebras of acceptance criterion 10, with the form scaled by c != 0."""
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    L3 = liealg.filiform_algebra(3)
    L5 = liealg.filiform_algebra(5)
    aff = liealg.LieAlgebra(2, {(0, 1): {1: 1}})
    return [
        (L3, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [1, 0, 0, 0], symplectic.filiform_cocycle(2).scale(c)),
        (L5, [[0 if j != i + 1 else 1 for j in range(6)] for i in range(5)], [1, 0, 0, 0, 0, 0],
         symplectic.filiform_cocycle(3).scale(c)),
        (aff, [[0, 1]], [1, 0], AlternatingForm.from_upper_entries(aff, {(0, 1): c})),
    ]


def moment_cases(rng: random.Random):
    """The two algebras of acceptance criterion 08, with seeded coefficients."""
    c = rng.choice((-3, -2, -1, 1, 2, 3))
    ts = liealg.semidirect_coadjoint(liealg.heisenberg_algebra(1))
    lam = [rng.choice((1, 2, 3)), rng.choice((-3, -2, -1, 1, 2, 3))]
    lam.append(lam[0] + lam[1])              # the form is a cocycle iff lam3 = lam1 + lam2
    if lam[2] == 0:
        lam[1] = -2 * lam[1]
        lam[2] = lam[0] + lam[1]
    form = AlternatingForm.from_upper_entries(ts, {(i, 3 + i): -lam[i] for i in range(3)})
    return [(liealg.filiform_algebra(3), symplectic.filiform_cocycle(2).scale(c)), (ts, form)]


def flat_problem(algebra, form, table) -> str | None:
    """Torsion-free (e_i e_j - e_j e_i = [e_i, e_j]) and omega-parallel on basis triples."""
    n = algebra.dim
    brackets = oracles.bracket_table(algebra.brackets)
    w = form.matrix.data
    for i in range(n):
        for j in range(n):
            bracket = brackets.get((i, j), {})
            for k in range(n):
                if table[i][j][k] - table[j][i][k] != bracket.get(k, 0):
                    return f"torsion at ({i},{j})"
            for k in range(n):
                # omega(e_i e_j, e_k) + omega(e_j, e_i e_k) = 0
                lhs = sum(table[i][j][a] * w[a][k] for a in range(n))
                lhs += sum(w[j][a] * table[i][k][a] for a in range(n))
                if lhs != 0:
                    return f"form not parallel at ({i},{j},{k})"
    return None


class ExactDecisions(Workload):
    name = "exact-decisions"
    why = ("many small exact calls on 3x3-6x6 matrices and integer polynomials: anosov, unit-circle "
           "roots, fundamental units m<=2e9, classify6, group models, moment and flat structures")
    mix = ("per cycle of 49: is_anosov x4, has_unit_circle_root deg<=8 x4 (2 with a cyclotomic factor), "
           "fundamental_unit x3 (m below 1e3, 1e6, 2e9), classify_six_dim x5, multiply x14 and inverse x14 "
           "(two each per criterion-09 model), moment_cocycle_identity_holds x2, flat_symplectic_structure x3")
    # The counts put p50 inside the group-model calls and p90 inside the
    # classify_six_dim calls rather than on a boundary between cost groups.
    stresses = (
        "anosov.char_poly_pair", "anosov.has_unit_circle_root", "quadratic.fundamental_unit",
        "classify.classify_six_dim", "groups.multiply", "groups.inverse",
        "symplectic.moment_cocycle_identity_holds", "symplectic.flat_symplectic_structure",
        "unipoly.poly_gcd", "multipoly.Poly.mul", "matrix.Matrix.init",
    )
    bypasses = ("intlattice.solve_diophantine", "heisenberg.h1_cocycle_construct", "cli.main")
    trace_cycles_per_10s = 20.0

    def _cycle(self, rng):
        reqs = []
        for _ in range(4):
            b = random_unimodular3(rng)
            reqs.append(Request(0, "anosov", 3, lambda b=b: anosov.is_anosov(b), {"matrix": b}))
        for cyclotomic in (True, True, False, False):
            if cyclotomic:
                phi = oracles.CYCLOTOMIC[rng.choice(sorted(oracles.CYCLOTOMIC))]
                p = oracles.poly_mul(phi, random_int_poly(rng, rng.randint(0, 9 - len(phi))))
            else:
                p = random_int_poly(rng, rng.randint(1, 8))
            reqs.append(Request(0, "unit-circle", len(p) - 1, lambda p=p: anosov.has_unit_circle_root(p),
                                {"poly": p, "by_construction": cyclotomic}))
        for lo, hi in ((2, 10 ** 3), (10 ** 3, 10 ** 6), (10 ** 6, 2 * 10 ** 9)):
            m = random_squarefree(rng, lo, hi)
            reqs.append(Request(0, "unit", len(str(m)), lambda m=m: quadratic.fundamental_unit(m), {"m": m}))
        for _ in range(5):
            d = rng.choice(SQUAREFREE_D)
            L = liealg.six_dim_quadratic_structure(d)
            comp = random_complement(rng)
            reqs.append(Request(0, "classify6", 6,
                                lambda L=L, comp=comp: classify.classify_six_dim(L, complement=comp), {"d": d}))
        for make in GROUP_MODELS + GROUP_MODELS:
            model = make()
            a, b, c = (groups.element(model, [rng.randint(-5, 5) for _ in range(model.dim)]) for _ in range(3))
            reqs.append(Request(0, "multiply", model.dim,
                                lambda model=model, a=a, b=b: groups.multiply(model, a, b),
                                {"model": model, "a": a, "b": b, "c": c}))
            reqs.append(Request(0, "inverse", model.dim, lambda model=model, a=a: groups.inverse(model, a),
                                {"model": model, "a": a}))
        for L, form in moment_cases(rng):
            reqs.append(Request(0, "moment", L.dim,
                                lambda L=L, form=form: symplectic.moment_cocycle_identity_holds(L, form), {}))
        for L, ideal, e, form in flat_cases(rng):
            reqs.append(Request(0, "flat", L.dim,
                                lambda L=L, i=ideal, e=e, f=form: symplectic.flat_symplectic_structure(L, i, e, f),
                                {"algebra": L, "form": form}))
        return reqs

    def canon(self, rec):
        r = rec.result
        kind = rec.req.kind
        if kind == "unit":
            return [r.a, r.b]
        if kind == "classify6":
            return [r.family, r.d, _rows(r.witness_basis.data)]
        if kind in ("multiply", "inverse"):
            return [str(x) for x in r.coords]
        if kind == "flat":
            return [[[str(x) for x in v] for v in row] for row in r]
        return r

    def check(self, records, bad, circle):
        for rec in records:
            exp, rid, answer = rec.req.expect, rec.req.rid, rec.result
            if rec.req.kind == "anosov":
                circle.ask(oracles.charpoly3(exp["matrix"]),
                           _record_into(bad, rid, lambda on, a=answer: None if a != on else f"anosov answered {a}"))
            elif rec.req.kind == "unit-circle" and not exp["by_construction"]:
                circle.ask(exp["poly"],
                           _record_into(bad, rid, lambda on, a=answer: None if a == on else f"unit-circle answered {a}"))
            else:
                reason = self._check_one(rec)
                if reason:
                    bad[rid] = reason

    @staticmethod
    def _check_one(rec) -> str | None:
        kind, exp, r = rec.req.kind, rec.req.expect, rec.result
        if kind == "unit-circle":              # built with a cyclotomic factor
            return None if r is True else "unit-circle answered False"
        if kind == "unit":
            half = exp["m"] % 4 == 1
            ok = oracles.plausible_fundamental_unit(exp["m"], r.a, r.b, half) and r.ring.half == half
            return None if ok else f"not a fundamental unit for m={exp['m']}"
        if kind == "classify6":
            family = "H1_COMPLEX" if exp["d"] > 0 else "H1_RxR"
            return None if (r.d, r.family) == (exp["d"], family) else f"classified as {r.family} {r.d}"
        if kind == "multiply":
            model, a, b, c = exp["model"], exp["a"], exp["b"], exp["c"]
            if groups.multiply(model, r, c) != groups.multiply(model, a, groups.multiply(model, b, c)):
                return "(ab)c != a(bc)"
            return None
        if kind == "inverse":
            model, a = exp["model"], exp["a"]
            one = groups.identity(model)
            ok = groups.multiply(model, a, r) == one and groups.multiply(model, r, a) == one
            return None if ok else "inverse does not cancel"
        if kind == "moment":
            return None if r is True else "moment identity reported false"
        if kind == "flat":
            return flat_problem(exp["algebra"], exp["form"], r)
        return f"unknown request kind {kind}"


# -- cli -------------------------------------------------------------------------------


def _matrix_literal(b) -> str:
    return ";".join(",".join(str(x) for x in row) for row in b)


def comm_algebra_doc(algebra) -> dict:
    """The CLI's CommAlgebra document (1-based indices)."""
    return {
        "dim": algebra.dim,
        "unit": [jsonio.dump_rational(c) for c in algebra.unit],
        "products": [
            [i + 1, j + 1, [[k + 1, jsonio.dump_rational(c)] for k, c in sorted(comp.items())]]
            for (i, j), comp in sorted(algebra.products.items())
        ],
    }


class Cli(Workload):
    name = "cli"
    why = ("one `python -m nillat.cli` subprocess per request on small inputs: interpreter start, "
           "import, argparse, jsonio; exit code and the JSON answer are checked")
    mix = ("per cycle of 14, two each of: anosov, charpoly, units -m (m < 1e6), filiform isom (n=3, one "
           "conjugated pair, one one-entry candidate), symplectic decide (dim 1-6), classify6, multiply")
    stresses = ("cli.main", "jsonio.parse", "jsonio.dump")
    bypasses = ("cocycles.cocycle_space", "intlattice.smith_normal_form")
    trace_cycles_per_10s = 40.0

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))

    def _request(self, kind, dim, argv, expect):
        def in_subprocess():
            proc = subprocess.run([sys.executable, "-m", "nillat.cli", *argv], cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=120)
            return proc.returncode, proc.stdout, proc.stderr

        def in_process():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue(), ""

        return Request(0, kind, dim, in_subprocess, dict(expect, argv=argv), in_process)

    def _cycle(self, rng):
        reqs = []
        for _ in range(2):
            b = random_unimodular3(rng)
            reqs.append(self._request("anosov", 3, ["anosov", "--matrix=" + _matrix_literal(b)], {"matrix": b}))
            b = random_unimodular3(rng)
            reqs.append(self._request("charpoly", 3, ["charpoly", "--matrix=" + _matrix_literal(b)], {"matrix": b}))
            m = random_squarefree(rng, 2, 10 ** 6)
            reqs.append(self._request("units", len(str(m)), ["units", "-m", str(m)], {"m": m}))
            dim = rng.randint(1, 6)
            algebra, desc, expect = local_algebra(rng, dim)
            reqs.append(self._request("decide", dim, ["symplectic", "decide", "--json",
                                                      json.dumps(comm_algebra_doc(algebra))],
                                      {"symplectic": expect, "dim": dim, "algebra": desc}))
            d = rng.choice(SQUAREFREE_D)
            comp = random_complement(rng)
            doc = {"algebra": jsonio.dump_lie_algebra(liealg.six_dim_quadratic_structure(d)), "complement": comp}
            reqs.append(self._request("classify6", 6, ["classify6", "--json", json.dumps(doc)], {"d": d}))
            model = GROUP_MODELS[rng.randrange(len(GROUP_MODELS))]()
            a, b2 = ([rng.randint(-5, 5) for _ in range(model.dim)] for _ in range(2))
            doc = {"model": jsonio.dump_group_model(model), "a": {"coords": a}, "b": {"coords": b2}}
            reqs.append(self._request("multiply", model.dim, ["multiply", "--json", json.dumps(doc)],
                                      {"model": model, "a": a, "b": b2}))
        g = random_filiform_rows(rng, 3)
        h, _ = conjugate_by_known(rng, g)
        cand = perturb_deep_entry(rng, g)
        for kind, other in (("isom-yes", h), ("isom-candidate", cand)):
            argv = ["filiform", "isom", "--a", json.dumps({"n": 3, "g": g}), "--b", json.dumps({"n": 3, "g": other})]
            reqs.append(self._request(kind, 3, argv, {"g": g, "h": other}))
        return reqs

    def canon(self, rec):
        code, stdout, _ = rec.result
        return [code, stdout]

    def check(self, records, bad, circle):
        for rec in records:
            code, stdout, stderr = rec.result
            try:
                doc = json.loads(stdout)
            except json.JSONDecodeError:
                bad[rec.req.rid] = f"stdout is not one JSON document (exit {code}): {stderr[-200:]!r}"
                continue
            check = (lambda on, req=rec.req, code=code, doc=doc: self._check_one(req, code, doc, on))
            if rec.req.kind in ("anosov", "charpoly"):
                circle.ask(oracles.charpoly3(rec.req.expect["matrix"]), _record_into(bad, rec.req.rid, check))
            else:
                reason = check(None)
                if reason:
                    bad[rec.req.rid] = reason

    @staticmethod
    def _check_one(req, code, doc, on_circle) -> str | None:
        exp, kind = req.expect, req.kind
        if kind == "anosov":
            want = not on_circle
            ok = doc == {"anosov": want, "charpoly": oracles.charpoly3(exp["matrix"])} and code == (0 if want else 1)
            return None if ok else f"anosov answer {doc} exit {code}"
        if kind == "charpoly":
            p = oracles.charpoly3(exp["matrix"])
            q = [-1, p[0] * p[2], -p[1], 1]          # det(B) tr(B), -tr(wedge^2 B)
            ok = code == 0 and doc == {"p_b": p, "q_a": q, "unit_circle_root": on_circle}
            return None if ok else f"charpoly answer {doc} exit {code}"
        if kind == "units":
            m = exp["m"]
            a, b = doc.get("coordinates", (0, 0))
            ok = code == 0 and doc.get("torsion") == "C2" and oracles.plausible_fundamental_unit(m, a, b, m % 4 == 1)
            return None if ok else f"units answer {doc} exit {code}"
        if kind == "decide":
            ok = (code == 0 and doc.get("symplectic") == exp["symplectic"] and doc.get("local") is True
                  and doc.get("radical_dim") == exp["dim"] - 1)
            return None if ok else f"decide answer {doc} for {exp['algebra']}"
        if kind == "classify6":
            family = "H1_COMPLEX" if exp["d"] > 0 else "H1_RxR"
            ok = code == 0 and doc.get("d") == exp["d"] and doc.get("family") == family
            return None if ok else f"classify6 answer {doc}"
        if kind == "multiply":
            model = exp["model"]
            want = groups.multiply(model, groups.element(model, exp["a"]), groups.element(model, exp["b"]))
            ok = code == 0 and doc == {"product": jsonio.dump_group_element(want)}
            return None if ok else f"multiply answer {doc}"
        if kind in ("isom-yes", "isom-candidate"):
            iso = doc.get("isomorphic")
            if code != (0 if iso else 1):
                return f"isom exit {code} for answer {iso}"
            if iso:
                return witness_problem(exp["g"], exp["h"], doc.get("witness"))
            if kind == "isom-yes":
                return "conjugated pair reported non-isomorphic"
            spec = classify.FiliformLatticeSpec
            if classify.filiform_isomorphic(spec(3, exp["g"]), spec(3, exp["h"]))[0]:
                return "CLI says no where the library says yes"
            return None
        return f"unknown request kind {kind}"


def get(name: str, root: str) -> Workload:
    workloads = {w.name: w for w in (SymplecticH1(), FiliformIsom(), ExactDecisions(), Cli(root))}
    return workloads[name]

