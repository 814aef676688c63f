"""Lie algebras over Q given by sparse structure constants.

Brackets are stored for i < j only, so antisymmetry is structural.  The
Jacobi identity is a checkable property (`validate`), not an assumption.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, StructuralError
from .matrix import Matrix, Q, sparse_kernel_basis, _dense, _frac, _reduced_rows, _rref, _sparse, _subtract


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q, basis-indexed from 0."""

    __slots__ = ("dim", "brackets")

    def __init__(self, dim: int, brackets: Mapping[tuple[int, int], Mapping[int, object]]):
        if dim <= 0:
            raise InputError("dimension must be positive")
        self.dim = dim
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise InputError(f"bracket index ({i},{j}) out of range for dim {dim}")
            if i >= j:
                raise InputError("structure constants must be stored with i < j")
            entry = {}
            for k, c in comp.items():
                if not 0 <= k < dim:
                    raise InputError(f"bracket target index {k} out of range")
                c = _frac(c)
                if c != 0:
                    entry[k] = c
            if entry:
                table[(i, j)] = entry
        self.brackets = table

    # -- bracket -----------------------------------------------------------

    def basis_bracket(self, i: int, j: int) -> list[Fraction]:
        out = [Q(0)] * self.dim
        if i == j:
            return out
        sign = 1
        if i > j:
            i, j, sign = j, i, -1
        for k, c in self.brackets.get((i, j), {}).items():
            out[k] = sign * c
        return out

    def bracket(self, x: Sequence, y: Sequence) -> list[Fraction]:
        return _dense(self._sparse_bracket()(_sparse(x, self.dim), _sparse(y, self.dim)), self.dim)

    def _sparse_bracket(self):
        """The bracket on {index: Fraction} vectors, zeros left out.

        For each nonzero x_i it walks the stored brackets [e_i, e_j] and looks
        up y_j.  The per-index view of `brackets` is built on each call of
        this method; the returned function reuses it.
        """
        by_index: dict[int, dict[int, dict[int, Fraction]]] = {}
        for (i, j), comp in self.brackets.items():
            by_index.setdefault(i, {})[j] = comp
            by_index.setdefault(j, {})[i] = {k: -c for k, c in comp.items()}

        def br(x: Mapping[int, Fraction], y: Mapping[int, Fraction]) -> dict[int, Fraction]:
            out: dict[int, Fraction] = {}
            for i, xi in x.items():
                for j, comp in by_index.get(i, {}).items():
                    yj = y.get(j)
                    if yj:
                        xy = xi * yj
                        for k, c in comp.items():
                            out[k] = out.get(k, 0) + xy * c
            return {k: c for k, c in out.items() if c}

        return br

    def ad(self, x: Sequence) -> Matrix:
        """Column j is [x, e_j] = sum_i x_i [e_i, e_j], read off the stored brackets."""
        xv = [_frac(a) for a in x]
        if len(xv) != self.dim:
            raise InputError("vector length does not match algebra dimension")
        m = [[Q(0)] * self.dim for _ in range(self.dim)]
        for (i, j), comp in self.brackets.items():
            for k, c in comp.items():
                m[k][j] += xv[i] * c
                m[k][i] -= xv[j] * c
        return Matrix(m)

    def in_basis(self, cols: Matrix) -> dict[tuple[int, int], dict[int, Fraction]]:
        """The bracket table in the basis formed by the columns of `cols`.

        Entry (i, j), i < j, holds the nonzero coordinates of [c_i, c_j] in
        that basis: one inverse of `cols`, applied to the nonzero
        coordinates of each bracket only.
        """
        if cols.rows != self.dim or cols.cols != self.dim:
            raise InputError("basis matrix must be dim x dim")
        inv = cols.inverse().data
        vecs = [_sparse(v, self.dim) for v in cols.transpose().data]
        br = self._sparse_bracket()
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                b_ij = br(vecs[i], vecs[j]).items()
                comp = {}
                for k, row in enumerate(inv):
                    c = sum(row[m] * b for m, b in b_ij)
                    if c:
                        comp[k] = c
                if comp:
                    table[(i, j)] = comp
        return table

    # -- validation ----------------------------------------------------------

    def cyclic_terms(self) -> dict[tuple[int, int, int], dict[tuple[int, int], Fraction]]:
        """The cyclic sums [e_i,e_j] (x) e_k + [e_j,e_k] (x) e_i + [e_k,e_i] (x) e_j.

        For every basis triple i < j < k with a nonzero sum, its terms as
        {(a, b): c} with a < b, so that (dw)(e_i, e_j, e_k) = sum c w(e_a, e_b)
        and the Jacobiator of the triple is sum c [e_a, e_b].  Built from the
        stored brackets: [e_p, e_q] (x) e_z lands on the sorted triple with
        sign -1 exactly when p < z < q.
        """
        rows: dict[tuple[int, int, int], dict[tuple[int, int], Fraction]] = {}
        for (p, q), comp in self.brackets.items():
            for z in range(self.dim):
                if z == p or z == q:
                    continue
                sign = -1 if p < z < q else 1
                row = rows.setdefault(tuple(sorted((p, q, z))), {})
                for m, c in comp.items():
                    if m < z:
                        row[(m, z)] = row.get((m, z), 0) + sign * c
                    elif m > z:
                        row[(z, m)] = row.get((z, m), 0) - sign * c
        out = {}
        for triple, row in rows.items():
            terms = {ab: c for ab, c in row.items() if c != 0}
            if terms:
                out[triple] = terms
        return out

    def jacobi_violations(self) -> list[tuple[tuple[int, int, int], list[Fraction]]]:
        bad = []
        for triple, terms in sorted(self.cyclic_terms().items()):
            s = [Q(0)] * self.dim
            for ab, c in terms.items():
                for m, d in self.brackets.get(ab, {}).items():
                    s[m] += c * d
            if any(c != 0 for c in s):
                bad.append((triple, s))
        return bad

    def validate(self) -> None:
        bad = self.jacobi_violations()
        if bad:
            (i, j, k), defect = bad[0]
            raise StructuralError(
                f"Jacobi identity fails at basis triple ({i},{j},{k}); defect {defect}"
            )

    # -- distinguished subspaces ------------------------------------------------

    def derived_basis(self) -> list[list[Fraction]]:
        return _rref(self.brackets.values(), self.dim)

    def center_basis(self) -> list[list[Fraction]]:
        return [_dense(v, self.dim) for v in self._center_modulo([])]

    def _center_modulo(self, cur: Sequence[Sequence]) -> list[dict[int, Fraction]]:
        """{x : [x, e_j] in span(cur) for all j}: the centre of L modulo span(cur)."""
        # rows[j][k] is the coefficient of e_k in [x, e_j] = sum_i x_i [e_i, e_j]
        rows: dict[int, dict[int, dict[int, Fraction]]] = {}
        for (i, j), comp in self.brackets.items():
            for k, c in comp.items():
                rows.setdefault(j, {}).setdefault(k, {})[i] = c
                rows.setdefault(i, {}).setdefault(k, {})[j] = -c
        # v mod span(cur) is v - sum_p v_p R_p over the reduced pivot rows R_p:
        # coordinate k of it is v_k - sum_p R_p[k] v_p, and 0 on the pivots
        pivots = _reduced_rows(_sparse(v, self.dim) for v in cur)
        reduced = []
        for by_k in rows.values():
            out = {k: dict(row) for k, row in by_k.items() if k not in pivots}
            for p in pivots.keys() & by_k.keys():
                for k, r in pivots[p].items():
                    if k != p:
                        _subtract(out.setdefault(k, {}), r, by_k[p])
            reduced.extend(out.values())
        return sparse_kernel_basis(reduced, self.dim)

    def centralizer_basis(self, subspace: Sequence[Sequence]) -> list[list[Fraction]]:
        """{x : [x, s] = 0 for all s in subspace}: row k of s holds the coefficients [e_i, s]_k."""
        rows = []
        for s in (_sparse(v, self.dim) for v in subspace):
            by_k: dict[int, dict[int, Fraction]] = {}
            for i, col in enumerate(self._brackets_with_basis([s])):
                for k, c in col.items():
                    by_k.setdefault(k, {})[i] = c
            rows.extend(by_k.values())
        return _rref(sparse_kernel_basis(rows, self.dim), self.dim)

    def bracket_span(self, basis_a: Sequence[Sequence], basis_b: Sequence[Sequence]) -> list[list[Fraction]]:
        br = self._sparse_bracket()
        xs, ys = ([_sparse(v, self.dim) for v in basis] for basis in (basis_a, basis_b))
        return _rref((br(x, y) for x in xs for y in ys), self.dim)

    def _brackets_with_basis(self, subspace: Sequence[Mapping[int, Fraction]]) -> list[dict[int, Fraction]]:
        """[e_i, s] for every basis index i and every s in the subspace."""
        br = self._sparse_bracket()
        return [br({i: Q(1)}, s) for i in range(self.dim) for s in subspace]

    def is_ideal(self, subspace: Sequence[Sequence]) -> bool:
        sub = [_sparse(v, self.dim) for v in subspace]
        return len(_rref(sub + self._brackets_with_basis(sub), self.dim)) == len(_rref(sub, self.dim))

    def is_abelian_subspace(self, subspace: Sequence[Sequence]) -> bool:
        br = self._sparse_bracket()
        sub = [_sparse(v, self.dim) for v in subspace]
        return not any(br(x, y) for x in sub for y in sub)

    # -- central series -----------------------------------------------------------

    def descending_central_series(self) -> list[list[list[Fraction]]]:
        """C^1 = [L, L], C^{r+1} = [L, C^r]; stops when stable (ends with [] iff nilpotent)."""
        series = [self.derived_basis()]
        while True:
            nxt = _rref(self._brackets_with_basis([_sparse(v, self.dim) for v in series[-1]]), self.dim)
            if len(nxt) == len(series[-1]):
                return series
            series.append(nxt)

    def ascending_central_series(self) -> list[list[list[Fraction]]]:
        """C_1 = Z(L), C_{r+1}/C_r = Z(L/C_r); stops when stable."""
        series = [_rref(self._center_modulo([]), self.dim)]
        while True:
            nxt = _rref(self._center_modulo(series[-1]), self.dim)
            if len(nxt) == len(series[-1]):
                return series
            series.append(nxt)

    def nilpotency_class(self) -> int:
        series = self.descending_central_series()
        if series[-1]:
            raise StructuralError("algebra is not nilpotent")
        return len(series)

    def is_nilpotent(self) -> bool:
        return not self.descending_central_series()[-1]


# -- reports and the public operations -------------------------------------------


def validate_lie(algebra: LieAlgebra) -> dict:
    """Jacobi report: {"ok": bool, "violations": [((i,j,k), defect), ...]}."""
    bad = algebra.jacobi_violations()
    return {"ok": not bad, "violations": bad}


def central_series(algebra: LieAlgebra) -> dict:
    """Ascending and descending central series with dimensions."""
    algebra.validate()
    asc = algebra.ascending_central_series()
    desc = algebra.descending_central_series()
    return {
        "ascending": asc,
        "descending": desc,
        "ascending_dims": [len(b) for b in asc],
        "descending_dims": [len(b) for b in desc],
    }


# -- standard constructions -------------------------------------------------------


def abelian_algebra(dim: int) -> LieAlgebra:
    return LieAlgebra(dim, {})


def heisenberg_algebra(k: int = 1) -> LieAlgebra:
    """H_k over Q: basis e_1..e_k, f_1..f_k, g with [e_i, f_i] = g."""
    dim = 2 * k + 1
    table = {}
    for i in range(k):
        table[(i, k + i)] = {2 * k: 1}
    return LieAlgebra(dim, table)


def filiform_algebra(n: int) -> LieAlgebra:
    """L_n over Q: dim n+1, basis e_0..e_n, [e_0, e_i] = e_{i+1} for 1 <= i <= n-1."""
    if n < 2:
        raise InputError("filiform type needs n >= 2")
    table = {(0, i): {i + 1: 1} for i in range(1, n)}
    return LieAlgebra(n + 1, table)


def six_dim_quadratic_structure(d: int, variant: int = 1) -> LieAlgebra:
    """The dim-6 rational structures with parameter d (squarefree, nonzero).

    variant 1: [e1,e4]=[e2,e3]=e5, [e1,e3]=e6, [e2,e4]=-d e6
    variant 2: [e1,e2]=[e3,e4]=e5, [e1,e3]=e6, [e2,e4]=-d e6
    (0-based internally: e1..e6 -> indices 0..5)
    """
    if variant == 1:
        table = {(0, 3): {4: 1}, (1, 2): {4: 1}, (0, 2): {5: 1}, (1, 3): {5: -d}}
    elif variant == 2:
        table = {(0, 1): {4: 1}, (2, 3): {4: 1}, (0, 2): {5: 1}, (1, 3): {5: -d}}
    else:
        raise InputError("variant must be 1 or 2")
    return LieAlgebra(6, table)


def h1_dual_structure() -> LieAlgebra:
    """Rank-one normal form: [e1,e3]=[e2,e4]=e5, [e1,e2]=e6 (0-based indices)."""
    return LieAlgebra(6, {(0, 2): {4: 1}, (1, 3): {4: 1}, (0, 1): {5: 1}})


def free_two_step_algebra() -> LieAlgebra:
    """Q^3 + wedge^2 Q^3 with [(x,u),(y,v)] = (0, x wedge y); basis f1,f2,f3,u23,u31,u12.

    Wedge components follow the cyclic convention: [f2,f3]=u23, [f3,f1]=u31,
    [f1,f2]=u12.
    """
    return LieAlgebra(6, {(1, 2): {3: 1}, (0, 2): {4: -1}, (0, 1): {5: 1}})


def semidirect_coadjoint(algebra: LieAlgebra) -> LieAlgebra:
    """t*G = G* x| G via the coadjoint action, basis (dual basis, basis).

    Indices 0..n-1 carry the dual copy, n..2n-1 the algebra itself;
    [x, alpha] = ad*_x alpha with (ad*_x a)(y) = -a([x, y]).
    """
    n = algebra.dim
    table: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, k), comp in algebra.brackets.items():
        table[(n + i, n + k)] = {n + j: c for j, c in comp.items()}
        # [e_{n+i}, eps_j] = -sum_k eps_j([e_i, e_k]) eps_k, stored as [eps_j, e_{n+i}]
        for j, c in comp.items():
            table.setdefault((j, n + i), {})[k] = c
            table.setdefault((j, n + k), {})[i] = -c
    return LieAlgebra(2 * n, table)
