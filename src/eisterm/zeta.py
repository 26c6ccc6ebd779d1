"""Exact zeta oracles: Bernoulli polynomials, rank-1 twisted zeta values, and
Shintani cone / Siegel partial zeta values at negative integers for real
quadratic fields.  Everything here is independent of the lattice-sum pipeline
and returns exact rationals.

The cone evaluation: for the half-open simplicial cone spanned by 1 and a
totally positive unit eps, with fractional shifts x in (0,1], y in [0,1),

    Z(-n) = (n!)^2/2 * sum over the two simplex sectors of
            sum_{r+q=2n+2} B_r(1-x) B_q(1-y) / (r! q!) *
            [u^n] (1+u)^(r-1) (e1 + u e2)^(q-1),

with (e1, e2) the embeddings of eps taken in both orders (the sector swap),
so the sector sum is Galois-stable and exactly rational.  The derivation is
the usual two-sector split of the double Mellin integral; the formula is
pinned by the classical value zeta_{Q(sqrt 5)}(-1) = 1/30 in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .field import FieldElement, NumberField, unit_subgroup_generator, totally_positive_unit
from .classfield import narrow_class_group


class ZetaError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Bernoulli numbers and polynomials (B_1 = -1/2 convention)


@lru_cache(maxsize=None)
def bernoulli_number(k: int) -> Fraction:
    if k < 0:
        raise ZetaError("negative Bernoulli index")
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(-1, 2)
    if k % 2 == 1:
        return Fraction(0)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    s = Fraction(0)
    for j in range(k):
        s += math.comb(k + 1, j) * bernoulli_number(j)
    return -s / (k + 1)


def bernoulli_poly(k: int, x) -> Fraction:
    """B_k(x) = sum_j C(k,j) B_j x^(k-j), exact."""
    if k < 0:
        raise ZetaError("negative Bernoulli index")
    x = Fraction(x)
    return sum(math.comb(k, j) * bernoulli_number(j) * x ** (k - j) for j in range(k + 1))


def twisted_zeta_rank1(a, k: int) -> Fraction:
    """B_k({a}): the closed form of -k!/(2 pi i)^k * sum_{n != 0} e(na)/n^k."""
    if k < 2:
        raise ZetaError("need k >= 2 for absolute convergence")
    return bernoulli_poly(k, Fraction(a) % 1)


# ---------------------------------------------------------------------------
# cone zeta values


def _binom(m: int, i: int) -> int:
    """C(m, i) for m >= -1, with C(-1, i) = (-1)^i."""
    return math.comb(m, i) if m >= 0 else (-1) ** i


def _sector_taylor_coeff(e1: FieldElement, e2: FieldElement, r: int, q: int,
                         n: int) -> FieldElement:
    """[u^n] (1+u)^(r-1) (e1 + u e2)^(q-1)
    = sum_{i+j=n} C(r-1, i) C(q-1, j) e1^(q-1-j) e2^j in the field."""
    total = e1.field.zero
    for j in range(n + 1):
        c = _binom(r - 1, n - j) * _binom(q - 1, j)
        if c:
            total = total + e1.field.elt(c) * e1 ** (q - 1 - j) * e2 ** j
    return total


def cone_zeta_value(field: NumberField, eps: FieldElement, n: int,
                    x: Fraction, y: Fraction) -> Fraction:
    """Z(-n) for the half-open cone {a*1 + b*eps : a > 0, b >= 0} with
    lattice offsets a in x + Z_{>=0} (x in (0,1]), b in y + Z_{>=0} (y in [0,1))."""
    if field.degree != 2:
        raise ZetaError("cone zeta implemented for real quadratic fields")
    if not eps.is_totally_positive():
        raise ZetaError("cone generator must be totally positive")
    if eps == field.one:
        raise ZetaError("degenerate cone: generator parallel to 1")
    x, y = Fraction(x), Fraction(y)
    if not (0 < x <= 1 and 0 <= y < 1):
        raise ZetaError("shift out of normalization window")
    total = field.zero
    e1, e2 = eps, eps.conj()
    K = 2 * n + 2
    for (f1, f2) in ((e1, e2), (e2, e1)):
        for r in range(K + 1):
            q = K - r
            br = bernoulli_poly(r, 1 - x)
            bq = bernoulli_poly(q, 1 - y)
            if br == 0 or bq == 0:
                continue
            coeff = Fraction(br, 1) * bq / (math.factorial(r) * math.factorial(q))
            tc = _sector_taylor_coeff(f1, f2, r, q, n)
            total = total + field.elt(coeff) * tc
    fact = Fraction(math.factorial(n) ** 2, 2)
    total = field.elt(fact) * total
    if total.b != 0:
        raise ZetaError("sector sum failed to be rational")
    return total.a


# ---------------------------------------------------------------------------
# Shintani cones and shifted partial zetas


class ShintaniCone:
    """Half-open cone spanned by (1, eps) with an affine lattice of summation.

    The point set is (shift + step*lattice) intersected with the cone; the
    union of eps-translates of the cone tiles the totally positive quadrant.
    """

    def __init__(self, field: NumberField, eps: FieldElement, level: int = 1,
                 shift: FieldElement | None = None):
        self.field = field
        self.eps = eps
        self.level = level
        self.shift = shift if shift is not None else field.zero
        # coordinate map l = x*1 + y*eps: y = lb/eps_b, x = la - y*eps_a
        if eps.b == 0:
            raise ZetaError("degenerate cone (rational generator)")

    def coordinates(self, l: FieldElement) -> tuple[Fraction, Fraction]:
        yy = l.b / self.eps.b
        xx = l.a - yy * self.eps.a
        return (xx, yy)

    def contains(self, l: FieldElement) -> bool:
        xx, yy = self.coordinates(l)
        return xx > 0 and yy >= 0

    def reduce_to_cone(self, l: FieldElement, max_iter: int = 10_000) -> tuple[FieldElement, int]:
        """The unique eps-power translate of a totally positive l inside the cone."""
        if not l.is_totally_positive():
            raise ZetaError("reduction requires a totally positive element")
        k = 0
        cur = l
        inv = self.eps.inverse()
        for _ in range(max_iter):
            xx, yy = self.coordinates(cur)
            if xx > 0 and yy >= 0:
                return cur, k
            # y < 0 means the ray sits below the cone window: multiply up
            if yy < 0:
                cur = cur * self.eps
                k += 1
            else:
                cur = cur * inv
                k -= 1
        raise ZetaError("cone reduction did not terminate")


def _lattice_xy_pieces(field, eps, lattice_cols, offset_xy):
    """Decompose an affine lattice in cone coordinates into square grids.

    lattice_cols: two (Fraction, Fraction) columns spanning the lattice in
    (x, y)-coordinates; offset_xy: the affine offset.  Returns (d, pieces)
    with pieces a list of shifts (x, y) normalized to (0,1] x [0,1) for the
    scaled generators (d, d*eps).
    """
    (w11, w21), (w12, w22) = lattice_cols
    det = w11 * w22 - w12 * w21
    if det == 0:
        raise ZetaError("degenerate summation lattice")
    inv = [[w22 / det, -w12 / det], [-w21 / det, w11 / det]]
    d = 1
    for row in inv:
        for ent in row:
            d = d * ent.denominator // math.gcd(d, ent.denominator)
    # cosets of dZ^2 inside the lattice: BFS over the generators mod d
    start = (Fraction(0), Fraction(0))
    seen = {start}
    frontier = [start]
    gens = [(w11 % d, w21 % d), (w12 % d, w22 % d), ((-w11) % d, (-w21) % d), ((-w12) % d, (-w22) % d)]
    while frontier:
        u, v = frontier.pop()
        for (gu, gv) in gens:
            w = ((u + gu) % d, (v + gv) % d)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    expected = Fraction(d * d) / abs(det)
    if expected.denominator != 1 or len(seen) != expected.numerator:
        raise ZetaError("coset enumeration mismatch")
    x0, y0 = offset_xy
    pieces = []
    for (u, v) in sorted(seen):
        xx = (x0 + u) % d
        if xx == 0:
            xx = Fraction(d)  # x normalized into (0, d]
        yy = (y0 + v) % d  # y in [0, d)
        pieces.append((xx / d, yy / d))
    return d, pieces


def shintani_partial_zeta(field: NumberField, N: int, shift: FieldElement, n: int,
                          lattice=None, eps: FieldElement | None = None) -> Fraction:
    """Exact zeta(-n) of sum over totally positive l = shift mod N*lattice,
    modulo the action of eps (default: the level-N totally positive unit).

    lattice defaults to O (columns 1, w); a FractionalIdeal is accepted.
    """
    if field.degree != 2:
        raise ZetaError("implemented for real quadratic fields")
    if n < 0:
        raise ZetaError("n must be >= 0")
    if eps is None:
        eps, _ = unit_subgroup_generator(field, N)
    cone = ShintaniCone(field, eps, N, shift)
    if lattice is None:
        cols_elts = [field.one, field.omega]
    else:
        cols_elts = list(lattice.basis_elements())
    # columns of the (x,y)-lattice: coordinates of N*basis under the cone map
    cols = []
    for e in cols_elts:
        scaled = field.elt(N) * e
        cols.append(cone.coordinates(scaled))
    offset = cone.coordinates(shift)
    d, pieces = _lattice_xy_pieces(field, eps, cols, offset)
    total = Fraction(0)
    for (xx, yy) in pieces:
        total += Fraction(d) ** (2 * n) * cone_zeta_value(field, eps, n, xx, yy)
    return total


def siegel_sigma1(field: NumberField) -> Fraction:
    """zeta_F(-1) by the divisor-sum formula:
    (1/60) * sum over t^2 < d_F, t^2 = d_F mod 4, of sigma_1((d_F - t^2)/4)."""
    if field.degree != 2:
        raise ZetaError("Siegel formula needs a real quadratic field")
    dF = field.discriminant
    total = 0
    t = 0
    while t * t < dF:
        if (dF - t * t) % 4 == 0:
            m = (dF - t * t) // 4
            s1 = sum(d for d in range(1, m + 1) if m % d == 0)
            total += s1 if t == 0 else 2 * s1
        t += 1
    return Fraction(total, 60)


def dedekind_zeta_neg(field: NumberField, n: int) -> Fraction:
    """zeta_F(-n) as the sum of narrow-class partial zetas (Shintani cones)."""
    narrow = narrow_class_group(field)
    eps_p = totally_positive_unit(field)
    total = Fraction(0)
    for ideal in narrow.class_ideals:
        inv = ideal.inverse()
        nrm = ideal.norm()
        total += nrm ** n * shintani_partial_zeta(field, 1, field.zero, n,
                                                  lattice=inv, eps=eps_p)
    return total
