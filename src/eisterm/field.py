"""Exact arithmetic in real quadratic fields Q(sqrt(D)) and the degenerate case Q.

Elements are stored as rational coordinates (a, b) with respect to the integral
basis {1, w}, where w = (1+sqrt(D))/2 if D = 1 mod 4 and w = sqrt(D) otherwise.
All structural comparisons (signs of embeddings, slab membership downstream)
are decided in exact rational arithmetic; floating embeddings carry an explicit
error bound and are only used for bulk numerics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from sympy import isprime
from sympy.ntheory.residue_ntheory import sqrt_mod


class FieldError(ValueError):
    """Invalid input to a field-level operation."""


class DegenerateFieldError(FieldError):
    """Operation requires degree 2 but the field is Q."""


def _is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


class FieldElement:
    """a + b*w with rational a, b; immutable."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: "NumberField", a, b=0):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b) if field.degree == 2 else Fraction(0))

    def __setattr__(self, *args):
        raise AttributeError("FieldElement is immutable")

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements of different fields")
            return other
        return FieldElement(self.field, other)

    def __add__(self, other):
        o = self._coerce(other)
        return FieldElement(self.field, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a, -self.b)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = self._coerce(other)
        K = self.field
        if K.degree == 1:
            return FieldElement(K, self.a * o.a)
        # w^2 = w_tr*w - w_nm  with w_tr = Tr(w), w_nm = N(w)
        cross = self.a * o.b + self.b * o.a
        ww = self.b * o.b
        return FieldElement(K, self.a * o.a - ww * K.w_norm, cross + ww * K.w_trace)

    __rmul__ = __mul__

    def conj(self) -> "FieldElement":
        """Galois conjugate a + b*wbar, wbar = Tr(w) - w."""
        K = self.field
        if K.degree == 1:
            return self
        return FieldElement(K, self.a + self.b * K.w_trace, -self.b)

    def trace(self) -> Fraction:
        return 2 * self.a + self.b * self.field.w_trace

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return self.a
        return (self * self.conj()).a

    def inverse(self) -> "FieldElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.field.degree == 1:
            return FieldElement(self.field, 1 / self.a)
        c = self.conj()
        return FieldElement(self.field, c.a / n, c.b / n)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except (TypeError, ValueError):
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b, self.field.D))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.field.degree == 1:
            return f"FieldElement({self.a})"
        return f"FieldElement({self.a} + {self.b}*w)"

    # -- order and embeddings ----------------------------------------------

    def sqrtD_coords(self) -> tuple[Fraction, Fraction]:
        """Coordinates (x, y) with self = x + y*sqrt(D)."""
        K = self.field
        if K.degree == 1:
            return (self.a, Fraction(0))
        if K.D % 4 == 1:
            return (self.a + self.b / 2, self.b / 2)
        return (self.a, self.b)

    def sign_embedding(self, which: int) -> int:
        """Exact sign of sigma_i(self); which=0 sends sqrt(D) to +sqrt(D)."""
        x, y = self.sqrtD_coords()
        if which == 1:
            y = -y
        # sign of x + y*sqrt(D), decided rationally
        if y == 0:
            return (x > 0) - (x < 0)
        if x == 0:
            return 1 if y > 0 else -1
        if x > 0 and y > 0:
            return 1
        if x < 0 and y < 0:
            return -1
        # opposite signs: compare x^2 with D y^2
        lhs, rhs = x * x, self.field.D * y * y
        if lhs == rhs:
            return 0
        bigger_x = lhs > rhs
        return (1 if x > 0 else -1) if bigger_x else (1 if y > 0 else -1)

    def is_totally_positive(self) -> bool:
        if self.field.degree == 1:
            return self.a > 0
        return self.sign_embedding(0) > 0 and self.sign_embedding(1) > 0

    def embed(self, prec: int = 128):
        """(sigma_1, sigma_2) as mpmath floats at `prec` bits, plus error bound."""
        K = self.field
        with mpmath.workprec(prec + 10):
            if K.degree == 1:
                v = mpmath.mpf(self.a.numerator) / self.a.denominator
                return (v, v, mpmath.mpf(2) ** (1 - prec) * (abs(v) + 1))
            x, y = self.sqrtD_coords()
            sq = mpmath.sqrt(K.D)
            xv = mpmath.mpf(x.numerator) / x.denominator
            yv = mpmath.mpf(y.numerator) / y.denominator
            s1 = xv + yv * sq
            s2 = xv - yv * sq
            err = mpmath.mpf(2) ** (1 - prec) * (abs(xv) + abs(yv) * sq + 1)
        return (s1, s2, err)

    def embed_float(self) -> tuple[float, float]:
        x, y = self.sqrtD_coords()
        sq = math.sqrt(self.field.D)
        return (float(x) + float(y) * sq, float(x) - float(y) * sq)


class NumberField:
    """Q(sqrt(D)) with integral basis {1, w}, or Q when D is None."""

    def __init__(self, D: int | None):
        if D is None:
            self.D = 1
            self.degree = 1
            self.discriminant = 1
            self.w_trace = Fraction(0)
            self.w_norm = Fraction(0)
        else:
            if D <= 1 or not _is_squarefree(D):
                raise FieldError(f"D={D} must be a squarefree integer >= 2")
            self.D = D
            self.degree = 2
            if D % 4 == 1:
                self.discriminant = D
                # w = (1+sqrt(D))/2 : w^2 = w + (D-1)/4
                self.w_trace = Fraction(1)
                self.w_norm = Fraction(1 - D, 4)
            else:
                self.discriminant = 4 * D
                self.w_trace = Fraction(0)
                self.w_norm = Fraction(-D)
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self._unit_cache: dict = {}

    def __repr__(self):
        return "NumberField(Q)" if self.degree == 1 else f"NumberField(Q(sqrt({self.D})))"

    def __eq__(self, other):
        return isinstance(other, NumberField) and other.degree == self.degree and other.D == self.D

    def __hash__(self):
        return hash(("NumberField", self.degree, self.D))

    def elt(self, a, b=0) -> FieldElement:
        return FieldElement(self, a, b)

    @property
    def omega(self) -> FieldElement:
        return self.elt(0, 1) if self.degree == 2 else self.one

    @property
    def different_generator(self) -> FieldElement:
        """Fixed generator of the different: 2w-1 (D=1 mod 4), 2w otherwise, 1 for Q."""
        if self.degree == 1:
            return self.one
        if self.D % 4 == 1:
            return self.elt(-1, 2)
        return self.elt(0, 2)

    def serialize(self) -> dict:
        return {"D": None if self.degree == 1 else self.D, "discriminant": self.discriminant}


@lru_cache(maxsize=None)
def construct_field(D: int | None) -> NumberField:
    """Build Q(sqrt(D)) for squarefree D >= 2, or Q for D=None."""
    return NumberField(D)


# ---------------------------------------------------------------------------
# units


def fundamental_unit(field: NumberField) -> tuple[FieldElement, int]:
    """Fundamental unit eps > 1 of O and the sign of its norm.

    Continued-fraction expansion of the basis generator w itself (PQa
    iteration), so the maximal order Z[(1+sqrt(D))/2] is handled correctly:
    the first convergent p/q with |N(p - q*conj(w))| = 1 is fundamental.
    """
    if field.degree == 1:
        raise DegenerateFieldError("unit group of Q is finite")
    if "fu" in field._unit_cache:
        return field._unit_cache["fu"]
    D = field.D
    if D % 4 == 1:
        P, Q = 1, 2  # w = (1+sqrt(D))/2
    else:
        P, Q = 0, 1  # w = sqrt(D)
    sqrtD = math.isqrt(D)
    p_prev, p_cur = 0, 1  # (p_{-2}, p_{-1})
    q_prev, q_cur = 1, 0  # (q_{-2}, q_{-1})
    unit = None
    for _ in range(100_000):
        a = (P + sqrtD) // Q
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        # candidate p - q*conj(w) in O-coordinates
        if D % 4 == 1:
            cand = field.elt(p_cur - q_cur, q_cur)  # conj(w) = 1 - w
        else:
            cand = field.elt(p_cur, q_cur)  # conj(w) = -w
        if cand.norm() in (1, -1):
            unit = cand
            break
        P = a * Q - P
        Q = (D - P * P) // Q
    if unit is None:
        raise FieldError(f"continued fraction did not find a unit for D={D}")
    # normalize to sigma_1 > 1
    if unit.sign_embedding(0) < 0:
        unit = -unit
    if (unit - 1).sign_embedding(0) < 0:
        unit = unit.inverse()
        if unit.sign_embedding(0) < 0:
            unit = -unit
    result = (unit, 1 if unit.norm() == 1 else -1)
    field._unit_cache["fu"] = result
    return result


def totally_positive_unit(field: NumberField) -> FieldElement:
    """eps_+ : generator of the totally positive units modulo torsion."""
    eps, nsign = fundamental_unit(field)
    return eps * eps if nsign < 0 else eps


def unit_subgroup_generator(field: NumberField, N: int) -> tuple[FieldElement, int]:
    """Generator eps_N of the totally positive units congruent to 1 mod N,
    returned with the exponent k such that eps_N = eps_+^k (k minimal).
    """
    if N < 1:
        raise FieldError("N must be >= 1")
    if field.degree == 1:
        return (field.one, 1)
    key = ("eN", N)
    if key in field._unit_cache:
        return field._unit_cache[key]
    eps_p = totally_positive_unit(field)
    if N == 1:
        field._unit_cache[key] = (eps_p, 1)
        return (eps_p, 1)
    # order of eps_+ in (O/N)^x
    k = 1
    power = eps_p
    bound = N * N * 8  # |(O/N)^x| < N^2; generous guard
    while not (power.a % N == 1 and power.b % N == 0):
        power = power * eps_p
        k += 1
        if k > bound:
            raise FieldError("unit order search exceeded bound")
    result = (power, k)
    field._unit_cache[key] = result
    return result


# ---------------------------------------------------------------------------
# fractional ideals


class FractionalIdeal:
    """Fractional ideal as den^{-1} * (HNF Z-module in the basis {1, w}).

    The HNF is [[a, b], [0, d]]: Z-basis {a, b + d*w} with 0 <= b < a, d | a,
    d | b for O-module closure. Equality of ideals is coordinate equality.
    """

    __slots__ = ("field", "a", "b", "d", "den")

    def __init__(self, field: NumberField, a: int, b: int, d: int, den: int = 1):
        if a <= 0 or d <= 0 or den <= 0:
            raise FieldError("invalid HNF data")
        g = math.gcd(math.gcd(a, b), math.gcd(d, den))
        a, b, d, den = a // g, b // g, d // g, den // g
        b %= a
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *args):
        raise AttributeError("FractionalIdeal is immutable")

    # construction helpers

    @staticmethod
    def from_generators(field: NumberField, gens: list[FieldElement]) -> "FractionalIdeal":
        """O-module generated by gens: close under multiplication by w, then HNF."""
        vecs = []
        den = 1
        for g in gens:
            for x in (g, g * field.omega):
                den = den * (x.a.denominator * x.b.denominator) // math.gcd(
                    den, x.a.denominator * x.b.denominator
                )
        if field.degree == 1:
            a = 0
            for g in gens:
                a = math.gcd(a, int(g.a * den))
            if a == 0:
                raise FieldError("zero ideal")
            return FractionalIdeal(field, a, 0, 1, den)
        for g in gens:
            for x in (g, g * field.omega):
                vecs.append((int(x.a * den), int(x.b * den)))
        a, b, d = _hnf_2xk(vecs)
        if a == 0:
            raise FieldError("zero ideal")
        return FractionalIdeal(field, a, b, d, den)

    @staticmethod
    def principal(field: NumberField, g: FieldElement) -> "FractionalIdeal":
        if not g:
            raise FieldError("zero ideal")
        return FractionalIdeal.from_generators(field, [g])

    @staticmethod
    def unit_ideal(field: NumberField) -> "FractionalIdeal":
        return FractionalIdeal(field, 1, 0, 1, 1)

    # basic data

    def basis_elements(self) -> tuple[FieldElement, FieldElement]:
        K = self.field
        return (
            K.elt(Fraction(self.a, self.den)),
            K.elt(Fraction(self.b, self.den), Fraction(self.d, self.den)),
        )

    def norm(self) -> Fraction:
        if self.field.degree == 1:
            return Fraction(self.a, self.den)
        return Fraction(self.a * self.d, self.den * self.den)

    def __mul__(self, other: "FractionalIdeal") -> "FractionalIdeal":
        g1 = self.basis_elements()
        g2 = other.basis_elements()
        return FractionalIdeal.from_generators(self.field, [x * y for x in g1 for y in g2])

    def inverse(self) -> "FractionalIdeal":
        # a^-1 = conj(a) / N(a) for quadratic fields
        K = self.field
        if K.degree == 1:
            return FractionalIdeal(K, self.den, 0, 1, self.a)
        b1, b2 = self.basis_elements()
        conj = FractionalIdeal.from_generators(K, [b1.conj(), b2.conj()])
        n = self.norm()
        scaled = [x / K.elt(n) for x in conj.basis_elements()]
        return FractionalIdeal.from_generators(K, scaled)

    def contains(self, x: FieldElement) -> bool:
        # solve  x = (m*a + n*b)/den + n*d/den * w
        xa = x.a * self.den
        xb = x.b * self.den
        if xa.denominator != 1 or xb.denominator != 1:
            return False
        xa, xb = int(xa), int(xb)
        if self.field.degree == 1:
            return xa % self.a == 0
        if xb % self.d != 0:
            return False
        n = xb // self.d
        return (xa - n * self.b) % self.a == 0

    def __eq__(self, other):
        return (
            isinstance(other, FractionalIdeal)
            and self.field == other.field
            and (self.a, self.b, self.d, self.den) == (other.a, other.b, other.d, other.den)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.d, self.den, self.field.D))

    def __repr__(self):
        return f"FractionalIdeal(a={self.a}, b={self.b}, d={self.d}, den={self.den})"

    def principal_generator(self) -> FieldElement | None:
        """Shortest-vector search for a generator; succeeds iff principal.

        Lagrange-Gauss reduction on the rank-2 lattice under the positive
        form |sigma_1 x|^2 + |sigma_2 x|^2, then check the norm.
        """
        K = self.field
        if K.degree == 1:
            return K.elt(Fraction(self.a, self.den))
        target = abs(self.norm())
        v1, v2 = self.basis_elements()

        def q(x: FieldElement) -> Fraction:
            s, t = x.sqrtD_coords()
            return 2 * (s * s + K.D * t * t)  # sigma1^2 + sigma2^2

        def bil(x, y) -> Fraction:
            return (q(x + y) - q(x) - q(y)) / 2

        # Lagrange reduction
        for _ in range(200):
            if q(v2) < q(v1):
                v1, v2 = v2, v1
            m = bil(v1, v2) / q(v1)
            r = Fraction(round(m))
            v2n = v2 - K.elt(r) * v1
            if q(v2n) >= q(v2):
                break
            v2 = v2n
        for cand in (v1, v2, v1 + v2, v1 - v2):
            if cand and abs(cand.norm()) == target:
                return cand
        # small combination sweep
        for i in range(-3, 4):
            for j in range(-3, 4):
                cand = K.elt(i) * v1 + K.elt(j) * v2
                if cand and abs(cand.norm()) == target:
                    return cand
        return None


def _hnf_2xk(vecs: list[tuple[int, int]]) -> tuple[int, int, int]:
    """Column HNF of span{(x_i, y_i)}: returns (a, b, d) with basis (a,0),(b,d)."""
    pairs = [(x, y) for (x, y) in vecs if x or y]
    if not pairs:
        return (0, 0, 0)
    # combine columns to a single vector (b, d) with d = gcd of y-components
    b, d = pairs[0]
    rest = []
    for (x, y) in pairs[1:]:
        # column gcd steps on the second coordinate
        while y:
            q = d // y
            b, d, x, y = x, y, b - q * x, d - q * y
        rest.append((x, 0))
    if d < 0:
        b, d = -b, -d
    if d == 0:
        raise FieldError("degenerate module (rank < 2)")
    a = 0
    for (x, _) in rest:
        a = math.gcd(a, x)
    if a == 0:
        raise FieldError("degenerate module (rank < 2)")
    return (a, b % a, d)


# ---------------------------------------------------------------------------
# prime splitting


def kronecker_symbol(d: int, p: int) -> int:
    from sympy.functions.combinatorial.numbers import jacobi_symbol

    if p == 2:
        if d % 2 == 0:
            return 0
        return 1 if d % 8 == 1 else -1
    return int(jacobi_symbol(d % p, p))


def split_prime(field: NumberField, p: int) -> dict:
    """Splitting of p in O: type, prime ideals in HNF, residue norms."""
    if not isprime(p):
        raise FieldError(f"{p} is not prime")
    if field.degree == 1:
        return {
            "type": "split",
            "primes": [FractionalIdeal(field, p, 0, 1)],
            "norms": [p],
        }
    dF = field.discriminant
    sym = kronecker_symbol(dF, p)
    if sym == -1:
        return {
            "type": "inert",
            "primes": [FractionalIdeal(field, p, 0, p)],
            "norms": [p * p],
        }
    # w satisfies x^2 - tr*x + nm = 0; factor mod p
    tr, nm = int(field.w_trace), int(field.w_norm)
    if sym == 0:
        if p == 2:
            # D = 2,3 mod 4: w = sqrt(D), w^2 = D; ramified root of x^2 - D
            r = field.D % 2
        else:
            r = (tr * pow(2, -1, p)) % p
        ideal = FractionalIdeal.from_generators(field, [field.elt(p), field.elt(-r, 1)])
        return {"type": "ramified", "primes": [ideal], "norms": [p]}
    # split: two roots of x^2 - tr x + nm mod p
    if p == 2:
        roots = [r for r in (0, 1) if (r * r - tr * r + nm) % 2 == 0]
    else:
        disc = (tr * tr - 4 * nm) % p
        s = sqrt_mod(disc, p)
        inv2 = pow(2, -1, p)
        roots = sorted({(tr + s) * inv2 % p, (tr - s) * inv2 % p})
    primes = [
        FractionalIdeal.from_generators(field, [field.elt(p), field.elt(-r, 1)]) for r in roots
    ]
    return {"type": "split", "primes": primes, "norms": [p, p]}


def prime_ideals_up_to(field: NumberField, bound: int):
    """(norm, ideal, generator-if-found) for prime ideals of norm <= bound."""
    from sympy import primerange

    out = []
    for p in primerange(2, bound + 1):
        rec = split_prime(field, p)
        for ideal, n in zip(rec["primes"], rec["norms"]):
            if n <= bound:
                out.append((n, ideal))
    out.sort(key=lambda t: t[0])
    return out
