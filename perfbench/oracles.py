"""Independent output checks, written without calling the library.

Everything here is plain integer or `Fraction` arithmetic over the raw
structure constants, so a check does not share code with the path it
checks.  The one floating-point oracle (`numpy.roots`, as in acceptance
criterion 11) runs in a child process after the timed loop, so numpy never
enters the measured process.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import isqrt

# -- order ideals -------------------------------------------------------------------


def maximal_monomials(ideal: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Monomials m of the order ideal with x_i * m outside it for every i.

    In Q[x]/I with I monomial, these span the socle of the quotient.
    """
    members = set(ideal)
    nvars = len(ideal[0])
    out = []
    for m in ideal:
        ups = (tuple(e + (1 if i == v else 0) for i, e in enumerate(m)) for v in range(nvars))
        if not any(u in members for u in ups):
            out.append(m)
    return out


def expected_h1_symplectic(ideal: list[tuple[int, ...]]) -> bool:
    """The paper's local criterion, read off the order ideal alone."""
    return len(ideal) % 2 == 0 and len(maximal_monomials(ideal)) <= 2


# -- exact linear algebra over Fractions --------------------------------------------


def rank(rows: list[list]) -> int:
    m = [[Fraction(x) for x in row] for row in rows if any(row)]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        for i in range(r + 1, len(m)):
            if m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows: list[list]) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def int_matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


# -- Lie structure constants --------------------------------------------------------


def bracket_table(brackets: dict) -> dict:
    """{(i, j): {k: c}} for i < j, extended to both orders."""
    out = {}
    for (i, j), comp in brackets.items():
        out[(i, j)] = comp
        out[(j, i)] = {k: -c for k, c in comp.items()}
    return out


def cocycle_defect(dim: int, brackets: dict, form: list[list]) -> tuple[int, int, int] | None:
    """First basis triple with d(omega)(e_a, e_b, e_c) != 0, or None.

    d(omega)(x, y, z) = omega([x,y], z) + omega([y,z], x) + omega([z,x], y),
    evaluated sparsely from the bracket table.
    """
    table = bracket_table(brackets)
    for a, b, c in combinations(range(dim), 3):
        total = Fraction(0)
        for (p, q), r in (((a, b), c), ((b, c), a), ((c, a), b)):
            for k, coef in table.get((p, q), {}).items():
                total += coef * form[k][r]
        if total != 0:
            return a, b, c
    return None


def is_skew(form: list[list]) -> bool:
    n = len(form)
    return all(form[i][j] == -form[j][i] for i in range(n) for j in range(n))


# -- integer polynomials and quadratic units ----------------------------------------

CYCLOTOMIC = {  # low-to-high integer coefficients of Phi_k
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}


def poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def charpoly3(b: list[list[int]]) -> list[int]:
    """det(X - B) for a 3x3 integer matrix, low-to-high."""
    tr = b[0][0] + b[1][1] + b[2][2]
    minors = sum(
        b[i][i] * b[j][j] - b[i][j] * b[j][i] for i, j in ((0, 1), (0, 2), (1, 2))
    )
    d = (
        b[0][0] * (b[1][1] * b[2][2] - b[1][2] * b[2][1])
        - b[0][1] * (b[1][0] * b[2][2] - b[1][2] * b[2][0])
        + b[0][2] * (b[1][0] * b[2][1] - b[1][1] * b[2][0])
    )
    return [-d, minors, -tr, 1]


def plausible_fundamental_unit(m: int, a: int, b: int, half: bool) -> bool:
    """a + b*omega is a unit > 1 and not the square of a unit.

    Unit > 1: x^2 - m y^2 = +-1 (or +-4 in the half basis) with x, y > 0.
    A norm-one unit e is the square of a unit eta exactly when tr(e) + 2 N(eta)
    is a perfect square, since tr(eta)^2 = tr(e) + 2 N(eta).
    """
    x, y = (2 * a + b, b) if half else (a, b)
    norm = x * x - m * y * y
    if not (x > 0 and y > 0 and norm in ((-4, 4) if half else (-1, 1))):
        return False
    trace = x if half else 2 * x
    return norm < 0 or all(isqrt(t) ** 2 != t for t in (trace + 2, trace - 2))


_NUMPY_ORACLE = """
import json, sys
import numpy as np
polys = json.load(sys.stdin)
out = []
for p in polys:
    roots = np.roots(list(reversed(p)))
    out.append(bool(np.any(np.abs(np.abs(roots) - 1.0) < 1e-9)))
json.dump(out, sys.stdout)
"""


class CircleOracle:
    """Has an integer polynomial a root of modulus one?

    A root at +-1 is found exactly, at once (this covers every unimodular
    cubic: a complex pair on the circle forces the real root to be +-1).
    The rest wait for `resolve()`, which runs acceptance criterion 11's float
    oracle on all of them in one child process, after the timed loop.
    """

    def __init__(self):
        self.pending: list[tuple[list[int], object]] = []

    def ask(self, poly: list[int], answer) -> None:
        """Call `answer(label)` now or at `resolve()`."""
        if _value(poly, 1) == 0 or _value(poly, -1) == 0:
            answer(True)
        else:
            self.pending.append((poly, answer))

    def resolve(self) -> None:
        if not self.pending:
            return
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_ORACLE],
            input=json.dumps([p for p, _ in self.pending]),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        for (_, answer), label in zip(self.pending, json.loads(proc.stdout)):
            answer(label)
        self.pending.clear()


def _value(p: list[int], x: int) -> int:
    return sum(c * x ** i for i, c in enumerate(p))
