"""Rings of integers of quadratic fields Q(sqrt(m)) and their unit groups.

Elements are integer pairs (a, b) meaning a + b*omega with omega = sqrt(m)
for m = 2, 3 (mod 4) and omega = (1 + sqrt(m))/2 for m = 1 (mod 4).
Fundamental units of real fields come from the continued fraction of a
reduced shift of omega.  After its first quotient the period is a
palindrome (Perron, Die Lehre von den Kettenbruechen, 1913; Cohen, A Course
in Computational Algebraic Number Theory, GTM 138, 5.7), so the walk stops
halfway and the continuants of the whole period come from one balanced
product of the first half's 2x2 matrices, whose large multiplications have
operands of equal size (Bernstein, "Fast multiplication and its
applications", 2008).  Each unit is checked exactly (norm +-1, > 1) before
it is returned.  All embedding comparisons are exact (sign analysis plus
squaring, no floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import InputError, InternalError, PreconditionError

SQRT = "SQRT"
HALF = "HALF"


def squarefree_part(n: int) -> int:
    """Squarefree integer of the same sign with n / result a perfect square.

    Trial division stops once p^3 exceeds what is left, r.  Then every prime factor of r is
    above p, so r is 1, a prime q, q1 q2 or q^2, and it is a square only in the last case.
    """
    if n == 0:
        raise InputError("squarefree part of 0 is undefined")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    p = 2
    while p * p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            if e % 2:
                out *= p
        p += 1 if p == 2 else 2
    return sign * out * (1 if isqrt(n) ** 2 == n else n)


@dataclass(frozen=True)
class QuadraticRing:
    m: int
    basis_kind: str

    @property
    def half(self) -> bool:
        return self.basis_kind == HALF


def ring_of_integers(m: int) -> QuadraticRing:
    """The maximal order of Q(sqrt(m)): HALF basis iff m = 1 (mod 4)."""
    if m in (0, 1):
        raise InputError("m must differ from 0 and 1")
    if squarefree_part(m) != m:
        raise InputError("m must be squarefree")
    return QuadraticRing(m, HALF if m % 4 == 1 else SQRT)


@dataclass(frozen=True)
class RingElement:
    ring: QuadraticRing
    a: int
    b: int

    def __add__(self, o: "RingElement") -> "RingElement":
        self._same(o)
        return RingElement(self.ring, self.a + o.a, self.b + o.b)

    def __sub__(self, o: "RingElement") -> "RingElement":
        self._same(o)
        return RingElement(self.ring, self.a - o.a, self.b - o.b)

    def __neg__(self) -> "RingElement":
        return RingElement(self.ring, -self.a, -self.b)

    def __mul__(self, o: "RingElement") -> "RingElement":
        self._same(o)
        m = self.ring.m
        a, b, c, d = self.a, self.b, o.a, o.b
        if self.ring.half:
            # omega^2 = omega + (m - 1)/4
            return RingElement(self.ring, a * c + b * d * (m - 1) // 4, a * d + b * c + b * d)
        return RingElement(self.ring, a * c + m * b * d, a * d + b * c)

    def _same(self, o: "RingElement") -> None:
        if o.ring != self.ring:
            raise InputError("elements of different rings")

    def conjugate(self) -> "RingElement":
        if self.ring.half:
            return RingElement(self.ring, self.a + self.b, -self.b)
        return RingElement(self.ring, self.a, -self.b)

    def norm(self) -> int:
        m = self.ring.m
        if self.ring.half:
            return self.a * self.a + self.a * self.b - (m - 1) // 4 * self.b * self.b
        return self.a * self.a - m * self.b * self.b

    def trace(self) -> int:
        return 2 * self.a + (self.b if self.ring.half else 0)

    def is_unit(self) -> bool:
        return abs(self.norm()) == 1

    def inverse(self) -> "RingElement":
        n = self.norm()
        if abs(n) != 1:
            raise PreconditionError("element is not a unit")
        conj = self.conjugate()
        return conj if n == 1 else -conj

    def sqrt_coords(self) -> tuple[Fraction, Fraction]:
        """(p, q) with the element equal to p + q sqrt(m)."""
        if self.ring.half:
            return Fraction(2 * self.a + self.b, 2), Fraction(self.b, 2)
        return Fraction(self.a), Fraction(self.b)

    def __repr__(self) -> str:
        return format_element(self)


def element(ring: QuadraticRing, a: int, b: int) -> RingElement:
    return RingElement(ring, int(a), int(b))


def one(ring: QuadraticRing) -> RingElement:
    return RingElement(ring, 1, 0)


def format_element(x: RingElement) -> str:
    """Human form: "1+sqrt2", "2+sqrt3", "(1+sqrt5)/2", "-1", "i"-free."""
    m = x.ring.m
    p, q = x.sqrt_coords()
    tag = f"sqrt{m}" if m > 0 else f"sqrt(-{-m})"
    if q == 0:
        return str(p.numerator) if p.denominator == 1 else str(p)
    if p.denominator == 1 and q.denominator == 1:
        pa, qa = p.numerator, q.numerator
        qs = tag if abs(qa) == 1 else f"{abs(qa)}{tag}"
        sign = "-" if qa < 0 else "+"
        if pa == 0:
            return f"-{qs}" if qa < 0 else qs
        return f"{pa}{sign}{qs}"
    # halves: (p' + q' sqrt m)/2 with odd integers p', q'
    pa, qa = 2 * p, 2 * q
    qs = tag if abs(qa) == 1 else f"{abs(int(qa))}{tag}"
    sign = "-" if qa < 0 else "+"
    return f"({int(pa)}{sign}{qs})/2"


# -- exact embedding comparisons ------------------------------------------------------


def _cmp_sqrt_combination(p: Fraction, q: Fraction, m: int) -> int:
    """Sign of p + q sqrt(m) for m > 0 (exact)."""
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return 1 if q > 0 else -1
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: compare p^2 vs q^2 m
    lhs = p * p
    rhs = q * q * m
    if lhs == rhs:
        return 0  # impossible for squarefree m > 1, defensive
    bigger_abs_p = lhs > rhs
    if p > 0:
        return 1 if bigger_abs_p else -1
    return -1 if bigger_abs_p else 1


def embedding_sign(x: RingElement, positive_root: bool = True) -> int:
    """Sign of the image of x under sqrt(m) -> +sqrt(m) (or its conjugate)."""
    if x.ring.m < 0:
        raise PreconditionError("real embedding needs m > 0")
    p, q = x.sqrt_coords()
    if not positive_root:
        q = -q
    return _cmp_sqrt_combination(p, q, x.ring.m)


def embedding_greater_than(x: RingElement, bound: Fraction, positive_root: bool = True) -> bool:
    p, q = x.sqrt_coords()
    if not positive_root:
        q = -q
    return _cmp_sqrt_combination(p - Fraction(bound), q, x.ring.m) > 0


def abs_embedding_vs_one(x: RingElement, positive_root: bool = True) -> int:
    """-1, 0, 1 as |embedding of x| is <, =, > 1; exact."""
    m = x.ring.m
    if m < 0:
        # modulus^2 equals the norm
        n = x.norm()
        return (n > 1) - (n < 1)
    p, q = x.sqrt_coords()
    if not positive_root:
        q = -q
    # |p + q sqrt m|^2 - 1 = p^2 + q^2 m - 1 + 2pq sqrt m
    return _cmp_sqrt_combination(p * p + q * q * m - 1, 2 * p * q, m)


# -- fundamental units -----------------------------------------------------------------


def _reduced_start(m: int, half: bool) -> tuple[int, int]:
    """(P, Q) for a reduced quadratic irrational (P + sqrt m)/Q equivalent to omega."""
    a0 = isqrt(m)
    if half:
        t = (a0 - 1) // 2  # shift making (1 + sqrt m)/2 + t reduced
        return 2 * t + 1, 2
    return a0, 1


def _mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """Product of 2x2 integer matrices stored row by row as (A, B, C, D)."""
    a, b, c, d = x
    e, f, g, h = y
    return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h


_LEAF = 16  # quotients multiplied one at a time into a leaf before it enters the binary counter


def _period_continuants(m: int, p0: int, q0: int) -> tuple[int, int]:
    """(q_{l-1}, q_{l-2}) for the period a_0, ..., a_{l-1} of the reduced (p0 + sqrt m)/q0 with trace a_0.

    They are the bottom row of Z(a_0) ... Z(a_{l-1}), Z(a) = [[a, 1], [1, 0]].  As a_0 is the trace,
    a_1 ... a_{l-1} is a palindrome (see the module docstring), and the (P, Q) walk turns
    round at its middle: P_{k+1} = P_k when a_k is the middle term, Q_{k+1} = Q_k when a_k closes the
    first half.  With H = Z(a_1) ... Z(a_h) over the first half, the period is Z(a_0) H [Z(mid)] H^T,
    each Z being symmetric, and the bottom row of Z(a_0) X is the top row of X.  H comes from a
    binary counter of partial products of _LEAF quotients each, in which two products of equal
    level merge, so that the large multiplications have operands of equal size and no list of
    quotients is kept.
    """
    r = isqrt(m)
    p, q = p0, (m - p0 * p0) // q0  # state 1; a_0 = 2 p0 / q0 only sets it
    stack: list[tuple[int, tuple[int, int, int, int]]] = []  # (level, product of 2^level leaves)
    leaf, size, mid = (1, 0, 0, 1), 0, 0
    turned = q == q0  # the period is a_0 alone
    while not turned:
        a = (p + r) // q
        p_next = a * q - p
        if p_next == p:
            mid = a
            break
        x, y, z, w = leaf
        leaf, size = (x * a + y, x, z * a + w, z), size + 1  # leaf <- leaf Z(a)
        if size == _LEAF:
            level, node = 0, leaf
            while stack and stack[-1][0] == level:
                level, node = level + 1, _mul(stack.pop()[1], node)
            stack.append((level, node))
            leaf, size = (1, 0, 0, 1), 0
        q_next = (m - p_next * p_next) // q
        turned = q_next == q
        p, q = p_next, q_next
    a, b, c, d = leaf
    for _, node in reversed(stack):
        a, b, c, d = _mul(node, (a, b, c, d))
    t0, t1 = (a * mid + b, a) if mid else (a, b)  # top row of H [Z(mid)]
    return t0 * a + t1 * b, t0 * c + t1 * d


def fundamental_unit(m: int) -> RingElement:
    """The fundamental unit (> 1, norm +-1) of the real quadratic ring, m > 1."""
    if m <= 1:
        raise InputError("need m > 1")
    ring = ring_of_integers(m)
    p0, q0 = _reduced_start(m, ring.half)
    # continuants over one full period: eps = q_{l-1} alpha + q_{l-2}
    q_cur, q_prev = _period_continuants(m, p0, q0)
    # alpha = (p0 + sqrt m)/q0 in ring coordinates
    if ring.half:
        t = (p0 - 1) // 2
        alpha = RingElement(ring, t, 1)
    else:
        alpha = RingElement(ring, p0, 1)
    eps = RingElement(ring, q_cur, 0) * alpha + RingElement(ring, q_prev, 0)
    if not eps.is_unit():
        raise InternalError("continued-fraction unit failed norm check")  # pragma: no cover
    if not embedding_greater_than(eps, Fraction(1)):
        raise InternalError("continued-fraction unit is not > 1")  # pragma: no cover
    return eps


@dataclass
class UnitGroupDesc:
    torsion: str                      # "C2" | "C4" | "C6"
    fundamental: RingElement | None   # present iff m > 1


def unit_torsion(m: int) -> UnitGroupDesc:
    """Torsion subgroup of the unit group for imaginary m (bounded enumeration)."""
    if m >= 0:
        raise InputError("torsion classification is for m < 0")
    ring = ring_of_integers(m)
    # the units are the roots of unity of Q(sqrt m): 4 for m = -1, 6 for m = -3 and 2
    # otherwise, all with coordinates in [-1, 1]
    count = sum(RingElement(ring, a, b).norm() == 1 for a in range(-2, 3) for b in range(-2, 3))
    return UnitGroupDesc(f"C{count}", None)


def unit_group(m: int) -> UnitGroupDesc:
    """Full description: torsion always C2 for real m with the fundamental unit attached."""
    if m > 1:
        return UnitGroupDesc("C2", fundamental_unit(m))
    return unit_torsion(m)


_MAX_EXPONENT = 10 ** 6  # each step of unit_exponent is one multiplication by eps^+-1


def unit_exponent(ring: QuadraticRing, x: RingElement) -> int | None:
    """n with x = +- eps^n for a real ring; None when x is not a unit."""
    if ring.m <= 1:
        raise PreconditionError("exponent decomposition needs a real ring")
    if not x.is_unit():
        return None
    u = x if embedding_sign(x) > 0 else -x
    eps = fundamental_unit(ring.m)
    n = 0
    cmp = abs_embedding_vs_one(u)
    while cmp != 0 and not (u.a == 1 and u.b == 0):
        if cmp > 0:
            u = u * eps.inverse()
            n += 1
        else:
            u = u * eps
            n -= 1
        cmp = abs_embedding_vs_one(u)
        if abs(n) > _MAX_EXPONENT:
            raise PreconditionError("unit exponent runaway")
    return n
