"""Heisenberg algebras over commutative algebras and their symplectic cocycles.

H_k(A) lives on basis e_i (x) a, f_i (x) a, g (x) a with the single bracket
family [e_i (x) a, f_i (x) b] = g (x) ab.  For k = 1 and local A the
existence of a symplectic (nondegenerate) scalar 2-cocycle is decided by
parity and the socle dimension, with a fully verified constructive witness
on the positive side; for k >= 2 every cocycle is degenerate, with the
common kernel direction returned as a certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .cocycles import AlternatingForm, cocycle_space
from .commalg import CommAlgebra, SocleReport, radical_and_socle
from .errors import InputError, InternalError, PreconditionError
from .liealg import LieAlgebra
from .matrix import Matrix, Q, span_dim, sparse_kernel_basis, _rref, _sparse, _subtract, _unit


@dataclass
class HeisenbergOverA:
    """H_k(A) with its index bookkeeping: e-block, f-block, then g-block."""

    base: CommAlgebra
    k: int
    algebra: LieAlgebra

    def e_index(self, i: int, t: int) -> int:
        return i * self.base.dim + t

    def f_index(self, i: int, t: int) -> int:
        return (self.k + i) * self.base.dim + t

    def g_index(self, t: int) -> int:
        return 2 * self.k * self.base.dim + t


def heisenberg_over(base: CommAlgebra, k: int = 1) -> HeisenbergOverA:
    if k < 1:
        raise InputError("need k >= 1")
    l = base.dim
    dim = (2 * k + 1) * l
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(k):
        for s in range(l):
            for t in range(l):
                comp = {2 * k * l + m: c for m, c in base._product(s, t).items()}
                if comp:
                    table[(i * l + s, (k + i) * l + t)] = comp
    return HeisenbergOverA(base, k, LieAlgebra(dim, table))


@dataclass
class SymplecticDecision:
    symplectic: bool
    reason: str          # "local-criterion" | "parity" | "socle-dim" | "generic-search"
    report: SocleReport


def h1_symplectic_decision(base: CommAlgebra) -> SymplecticDecision:
    """Existence of a symplectic cocycle on H_1(A).

    For local A: yes iff dim A is even and dim socle <= 2.  Non-local input
    falls back to an explicit search over the cocycle space and is labeled
    "generic-search".
    """
    return _h1_decision(base)[0]


def _h1_decision(base: CommAlgebra) -> tuple[SymplecticDecision, DegeneracyCertificate | None]:
    """The decision, with the search certificate when the generic search made it."""
    report = radical_and_socle(base)
    if report.is_local:
        if base.dim % 2 != 0:
            return SymplecticDecision(False, "parity", report), None
        if len(report.socle) > 2:
            return SymplecticDecision(False, "socle-dim", report), None
        return SymplecticDecision(True, "local-criterion", report), None
    cert = generic_degeneracy_search(heisenberg_over(base, 1).algebra)
    return SymplecticDecision(not cert.degenerate, "generic-search", report), cert


def h1_cocycle_construct(base: CommAlgebra) -> AlternatingForm:
    """Constructive symplectic cocycle on H_1(A), verified exactly.

    Socle dimension 1: w(e a, g c) = mu(ac), mu dual to a socle generator,
    plus a standard symplectic pairing on the f-copy.  Socle dimension 2:
    two functionals with independent socle restrictions feed the e-g and
    f-g pairings; a complement F of a duality partner E of the g-copy
    carries a standard symplectic form.  Non-local A: the search witness.
    """
    decision, cert = _h1_decision(base)
    if not decision.symplectic:
        raise PreconditionError("no symplectic cocycle exists")
    if cert is not None:  # a "not degenerate" search certificate carries its witness
        return cert.witness
    H = heisenberg_over(base, 1)
    l = base.dim
    socle = decision.report.socle
    entries: dict[tuple[int, int], Fraction] = {}

    pairings = [_dual_pairing(base, s) for s in socle]

    def put(i: int, j: int, c: Fraction) -> None:
        if c == 0 or i == j:
            return
        if i < j:
            entries[(i, j)] = entries.get((i, j), Q(0)) + c
        else:
            entries[(j, i)] = entries.get((j, i), Q(0)) - c

    if len(socle) == 1:
        for s, row in enumerate(pairings[0]):
            for t, val in enumerate(row):
                put(H.e_index(0, s), H.g_index(t), val)
        for s in range(0, l, 2):
            put(H.f_index(0, s), H.f_index(0, s + 1), Q(1))
    else:
        p1, p2 = pairings
        pair_rows = []
        for s in range(l):
            pair_rows.append((H.e_index(0, s), p1[s]))
            pair_rows.append((H.f_index(0, s), p2[s]))
        for idx, row in pair_rows:
            for t, val in enumerate(row):
                put(idx, H.g_index(t), val)
        # choose E: l rows of the 2l x l pairing matrix forming an invertible block.  The
        # matrix has rank l: a nonzero ideal A c meets the socle, where mu_1, mu_2 are independent
        chosen: list[int] = []
        for r in range(2 * l):
            if len(chosen) == l:
                break
            trial = chosen + [r]
            if Matrix([pair_rows[t][1] for t in trial]).rank() == len(trial):
                chosen.append(r)
        rest = [r for r in range(2 * l) if r not in chosen]
        for a in range(0, l, 2):
            put(pair_rows[rest[a]][0], pair_rows[rest[a + 1]][0], Q(1))

    form = AlternatingForm.from_upper_entries(H.algebra, entries)
    if not form.is_cocycle():
        raise InternalError("constructed form is not a cocycle")  # pragma: no cover
    if not form.is_nondegenerate():
        raise InternalError("constructed form is degenerate")  # pragma: no cover
    return form


def _dual_pairing(base: CommAlgebra, socle_vec: Sequence[Fraction]) -> list[list[Fraction]]:
    """mu(e_s e_t) in row s, column t; mu is 1 on the socle vector and 0 on the other coordinates."""
    piv = next(i for i, c in enumerate(socle_vec) if c != 0)
    inv = 1 / socle_vec[piv]
    return [[base._product(s, t).get(piv, 0) * inv for t in range(base.dim)] for s in range(base.dim)]


@dataclass
class DegeneracyCertificate:
    degenerate: bool
    kind: str                      # "parity" | "common-kernel" | "orthogonality" | "witness"
    kernel_basis: list[list[Fraction]] | None = None
    witness: AlternatingForm | None = None


def hk_degeneracy_check(base: CommAlgebra, k: int) -> DegeneracyCertificate:
    """Certificate that every scalar 2-cocycle of H_k(A), k >= 2, is degenerate.

    Computes the cocycle space and checks that the g-copy of A pairs to zero
    with everything, for every basis cocycle; that common kernel kills every
    linear combination at once.
    """
    if k < 2:
        raise PreconditionError("degeneracy statement needs k >= 2")
    H = heisenberg_over(base, k)
    z2, _ = cocycle_space(H.algebra)
    # the g-block is the last one, so a form pairing it nontrivially has an entry (i, j), j >= g_0
    if any(j >= H.g_index(0) for form in z2 for _, j in form.entries):
        raise InternalError("a cocycle pairs the g-copy nontrivially")  # pragma: no cover
    # unit vectors at increasing indices: already an RREF basis
    g_block = [_unit(H.algebra.dim, H.g_index(t)) for t in range(base.dim)]
    return DegeneracyCertificate(True, "common-kernel", kernel_basis=g_block)


def generic_degeneracy_search(
    algebra: LieAlgebra,
    blocks: tuple[list[list[Fraction]], list[list[Fraction]]] | None = None,
    budget: int = 200000,
) -> DegeneracyCertificate:
    """Deterministic certificate that no cocycle on `algebra` is nondegenerate.

    Tiers: odd dimension; a common kernel vector of all basis cocycles; a
    subspace pair (U, W) with dim U > codim W and w(U, W) = 0 for every basis
    cocycle (then any combination kills part of U); finally a budgeted exact
    grid evaluation of the determinant polynomial.
    """
    n = algebra.dim
    if n % 2 == 1:
        return DegeneracyCertificate(True, "parity")
    z2, _ = cocycle_space(algebra)
    if not z2:
        return DegeneracyCertificate(True, "common-kernel", kernel_basis=[_unit(n, 0)])
    # common kernel of all basis cocycles
    common = sparse_kernel_basis([row for form in z2 for row in form.rows()], n)
    if common:
        return DegeneracyCertificate(True, "common-kernel", kernel_basis=_rref(common, n))
    if blocks is not None:
        u_basis, w_basis = blocks
        if span_dim(u_basis) > n - span_dim(w_basis):
            us, ws = ([_sparse(v, n) for v in basis] for basis in blocks)
            if all(_pairs_to_zero(form, us, ws) for form in z2):
                return DegeneracyCertificate(True, "orthogonality", kernel_basis=_rref(us, n))
    # witness search: simple combinations first
    for form in z2:
        if form.is_nondegenerate():
            return DegeneracyCertificate(False, "witness", witness=form)
    acc = z2[0]
    for form in z2[1:]:
        acc = acc.add(form)
    if acc.is_nondegenerate():
        return DegeneracyCertificate(False, "witness", witness=acc)
    # exact grid evaluation of det(sum t_i w_i): identically zero iff zero on
    # a grid exceeding the per-variable degree
    grid = range(n + 1)
    count = 0
    from itertools import product as iproduct

    for point in iproduct(grid, repeat=len(z2)):
        count += 1
        if count > budget:
            raise PreconditionError("evaluation budget exhausted; no certificate found")
        combo = AlternatingForm.from_upper_entries(algebra, {})
        for c, form in zip(point, z2):
            if c:
                combo = combo.add(form.scale(c))
        if combo.is_nondegenerate():
            return DegeneracyCertificate(False, "witness", witness=combo)
    return DegeneracyCertificate(True, "grid")


def _pairs_to_zero(form: AlternatingForm, us: list[dict[int, Fraction]], ws: list[dict[int, Fraction]]) -> bool:
    """w(u, v) = 0 for every sparse u in us and v in ws, read off the rows w(e_i, .)."""
    rows = form.rows()
    for u in us:
        fu: dict[int, Fraction] = {}  # w(u, .) = sum_i u_i w(e_i, .)
        for i, a in u.items():
            _subtract(fu, -a, rows[i])
        if any(sum(c * v[j] for j, c in fu.items() if j in v) for v in ws):
            return False
    return True


def h1_blocks_for_search(base: CommAlgebra) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """(U, W) = (S g, N e + N f + A g) used by the orthogonality certificate."""
    H = heisenberg_over(base, 1)
    rep = radical_and_socle(base)
    l = base.dim
    e0, f0, g0 = H.e_index(0, 0), H.f_index(0, 0), H.g_index(0)
    u_rows = [{g0 + t: c for t, c in _sparse(s, l).items()} for s in rep.socle]
    w_rows = [{off + t: c for t, c in _sparse(r, l).items()} for r in rep.radical for off in (e0, f0)]
    w_rows += [{g0 + t: Q(1)} for t in range(l)]
    return _rref(u_rows, H.algebra.dim), _rref(w_rows, H.algebra.dim)
