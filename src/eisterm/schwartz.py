"""Schwartz-Bruhat functions on V(A_f) at finite level and their Fourier analysis.

A function is stored as (scale s, modulus C, table): f(v) = table((v/s) mod C)
for v in s*V(Zhat), zero outside.  Table values live in Z[zeta_M] (coefficient
vectors over a common root-of-unity order M) with a single rational prefactor,
so the transform

    fhat(x) = |N(s)|^-2 C^-2xi d_F^-1 * sum_u table(u) e(-<x, s u>)

is computed in exact integer arithmetic: the additive character exponent of a
pair of table indices y, u is (omega-coefficient of det(y, u))/C, an integer
(A y) . u mod C, so fhat(y) = F(A y mod C) with F the plain DFT over
(Z/C)^2xi, done one axis at a time by shifting and adding coefficient vectors.
The complex tables of the preimage path use the same factorization through
numpy's FFT.  The transform sends scale s to 1/(s*C*delta) and keeps the
modulus.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from sympy import Poly, cyclotomic_poly, factorint, symbols

from .classfield import ResidueRing
from .field import FieldElement, NumberField

_X = symbols("x")


class SchwartzError(ValueError):
    pass


# n * M bound on a level table's int64 coefficients (32 MB), checked before
# anything of that size is allocated
MAX_TABLE_ENTRIES = 4_000_000


# ---------------------------------------------------------------------------
# exact cyclotomic scalars


@lru_cache(maxsize=None)
def _phi_reduction_matrix(M: int) -> np.ndarray:
    """R[j] = coefficient vector of x^j mod Phi_M(x), shape (M, deg Phi_M)."""
    coeffs = [int(c) for c in Poly(cyclotomic_poly(M, _X), _X).all_coeffs()]  # leading first
    deg = len(coeffs) - 1
    tail = [-c for c in coeffs[1:]][::-1]  # x^deg = sum tail[i] x^i, constant first
    rows = []
    cur = [0] * deg
    cur[0] = 1
    rows.append(cur[:])
    for _ in range(1, M):
        top = cur[-1]
        cur = [0] + cur[:-1]
        if top:
            cur = [c + top * t for c, t in zip(cur, tail)]
        rows.append(cur[:])
    return np.array(rows, dtype=np.int64)


def reduce_mod_cyclotomic(vec: np.ndarray, M: int) -> np.ndarray:
    """Canonical coefficients of sum_j vec[j] zeta_M^j in the power basis."""
    R = _phi_reduction_matrix(M)
    return np.asarray(vec, dtype=np.int64) @ R


class CyclotomicValue:
    """Exact element sum c_q e^(2 pi i q), q in Q/Z, c_q in Q."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for q, c in (terms.items() if isinstance(terms, dict) else terms):
                q = Fraction(q) % 1
                c = Fraction(c)
                if c:
                    t[q] = t.get(q, Fraction(0)) + c
        self.terms = {q: c for q, c in t.items() if c}

    @staticmethod
    def rational(c) -> "CyclotomicValue":
        return CyclotomicValue({Fraction(0): Fraction(c)})

    @staticmethod
    def root_of_unity(q, c=1) -> "CyclotomicValue":
        return CyclotomicValue({Fraction(q) % 1: Fraction(c)})

    def __add__(self, other):
        o = other if isinstance(other, CyclotomicValue) else CyclotomicValue.rational(other)
        t = dict(self.terms)
        for q, c in o.terms.items():
            t[q] = t.get(q, Fraction(0)) + c
        return CyclotomicValue(t)

    __radd__ = __add__

    def __neg__(self):
        return CyclotomicValue({q: -c for q, c in self.terms.items()})

    def __sub__(self, other):
        o = other if isinstance(other, CyclotomicValue) else CyclotomicValue.rational(other)
        return self + (-o)

    def __mul__(self, other):
        if not isinstance(other, CyclotomicValue):
            return CyclotomicValue({q: c * Fraction(other) for q, c in self.terms.items()})
        t = {}
        for q1, c1 in self.terms.items():
            for q2, c2 in other.terms.items():
                q = (q1 + q2) % 1
                t[q] = t.get(q, Fraction(0)) + c1 * c2
        return CyclotomicValue(t)

    __rmul__ = __mul__

    def conj(self) -> "CyclotomicValue":
        return CyclotomicValue({(-q) % 1: c for q, c in self.terms.items()})

    def common_order(self) -> int:
        M = 1
        for q in self.terms:
            M = M * q.denominator // math.gcd(M, q.denominator)
        return M

    def canonical_vector(self, M: int | None = None):
        """(M, integer vector over the power basis of Z[zeta_M], denominator)."""
        M = M or self.common_order()
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // math.gcd(den, c.denominator)
        vec = np.zeros(M, dtype=np.int64)
        for q, c in self.terms.items():
            j = int(q * M)
            vec[j % M] += int(c * den)
        return M, reduce_mod_cyclotomic(vec, M), den

    def is_zero(self) -> bool:
        M, vec, _ = self.canonical_vector()
        return not vec.any()

    def is_rational(self) -> bool:
        M, vec, _ = self.canonical_vector()
        return not vec[1:].any()

    def rational_part(self) -> Fraction:
        if not self.is_rational():
            raise SchwartzError("value is not rational")
        M, vec, den = self.canonical_vector()
        return Fraction(int(vec[0]), den)

    def __eq__(self, other):
        o = other if isinstance(other, CyclotomicValue) else CyclotomicValue.rational(other)
        return (self - o).is_zero()

    def __hash__(self):
        M, vec, den = self.canonical_vector()
        return hash((M, tuple(int(v) for v in vec), den))

    def __repr__(self):
        if not self.terms:
            return "CyclotomicValue(0)"
        return "CyclotomicValue(" + " + ".join(f"{c}*e({q})" for q, c in sorted(self.terms.items())) + ")"

    def complex_value(self, prec_bits: int = 53) -> complex:
        if prec_bits <= 53:
            z = 0j
            for q, c in self.terms.items():
                z += float(c) * complex(math.cos(2 * math.pi * q), math.sin(2 * math.pi * q))
            return z
        import mpmath

        with mpmath.workprec(prec_bits):
            z = mpmath.mpc(0)
            for q, c in self.terms.items():
                coef = mpmath.mpf(c.numerator) / c.denominator
                phase = 2 * mpmath.mpf(q.numerator) / q.denominator
                z += coef * mpmath.expjpi(phase)
            return complex(z)


# ---------------------------------------------------------------------------
# symplectic trace pairing


def trace_pairing(x: tuple[FieldElement, FieldElement],
                  y: tuple[FieldElement, FieldElement]) -> Fraction:
    """<x,y> = Tr_{F/Q}(x1 y2 - x2 y1) as an exact rational; skew-symmetric and
    bilinear."""
    d = x[0] * y[1] - x[1] * y[0]
    return Fraction(d.trace())


# ---------------------------------------------------------------------------
# index bookkeeping for V(Z/C) = (O/C)^2


class _IndexGrid:
    def __init__(self, field: NumberField, C: int):
        self.field = field
        self.C = C
        self.ring = ResidueRing(field, C)
        self.xi = 1 if field.degree == 1 else 2
        if self.xi == 1:
            self.n = C * C
            a = np.arange(self.n)
            self.A1 = a // C
            self.A2 = a % C
            self.B1 = np.zeros(self.n, dtype=np.int64)
            self.B2 = np.zeros(self.n, dtype=np.int64)
        else:
            self.n = C ** 4
            a = np.arange(self.n)
            self.B2 = a % C
            a = a // C
            self.A2 = a % C
            a = a // C
            self.B1 = a % C
            self.A1 = a // C
        for arr in (self.A1, self.B1, self.A2, self.B2):  # shared by every table
            arr.flags.writeable = False
        self.coords = ((self.A1, self.B1), (self.A2, self.B2))

    def index_of(self, v):
        """Flat index of v = ((a1,b1),(a2,b2)) mod C (b's ignored for Q); the
        coordinates may be integers or numpy arrays (broadcast)."""
        C = self.C
        (a1, b1), (a2, b2) = v
        if self.xi == 1:
            return (a1 % C) * C + (a2 % C)
        return (((a1 % C) * C + (b1 % C)) * C + (a2 % C)) * C + (b2 % C)

    def coords_of(self, idx: int):
        return tuple((int(a[idx]), int(b[idx])) for a, b in self.coords)

    def image_indices(self, mat) -> np.ndarray:
        """Index of g v for every table index v, g = (a, b, c, d) over O/C."""
        ring = self.ring
        a, b, c, d = mat
        v1, v2 = self.coords
        w1 = ring.add(ring.mul(a, v1), ring.mul(b, v2))
        w2 = ring.add(ring.mul(c, v1), ring.mul(d, v2))
        return self.index_of((w1, w2))

    @cached_property
    def dual_index(self) -> np.ndarray:
        """Flat index of A y mod C for every table index y.

        A is the pairing in coordinates: the additive-character exponent of a
        pair of table indices, det(y,u) mod C for Q and the omega-coefficient of
        det(y,u) mod C for quadratic fields (exactly Tr(det(y,u)/(C*delta))
        cleared of C), equals (A y) . u mod C.  So the transform at y is the plain
        DFT over (Z/C)^2xi at A y, also where A is singular mod C.
        """
        A1, B1, A2, B2 = self.A1, self.B1, self.A2, self.B2
        if self.xi == 1:
            return self.index_of(((-A2, 0), (A1, 0)))
        tr = int(self.field.w_trace)
        return self.index_of(((-B2, -A2 - tr * B2), (B1, A1 + tr * B1)))


@lru_cache(maxsize=None)
def _index_grid(field: NumberField, C: int) -> _IndexGrid:
    """The one read-only grid of (field, C), shared by every table there."""
    return _IndexGrid(field, C)


# ---------------------------------------------------------------------------
# the Schwartz function model


class FractionalSchwartz:
    """Level-structured function on V(A_f) with exact cyclotomic values.

    coeffs: int64 array [n_idx, M]; value(idx) = prefactor * sum_j coeffs[idx,j] zeta_M^j.
    """

    def __init__(self, field: NumberField, scale: FieldElement, C: int,
                 coeffs: np.ndarray, prefactor: Fraction = Fraction(1), M: int | None = None):
        if C < 1:
            raise SchwartzError("modulus must be >= 1")
        if not scale:
            raise SchwartzError("scale must be nonzero")
        self.field = field
        self.scale = scale
        self.C = C
        self.grid = _index_grid(field, C)
        self.M = M if M is not None else (coeffs.shape[1] if coeffs.ndim == 2 else C)
        if self.M % C != 0:
            raise SchwartzError("root order M must be divisible by the modulus C")
        coeffs = np.asarray(coeffs, dtype=np.int64)
        if coeffs.shape != (self.grid.n, self.M):
            raise SchwartzError(f"coefficient tensor must be {(self.grid.n, self.M)}")
        self.coeffs = coeffs
        self.prefactor = Fraction(prefactor)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zeros(field, C: int, scale: FieldElement | int = 1, M: int | None = None):
        M = M or C
        n = C ** (2 * field.degree)
        if n * M > MAX_TABLE_ENTRIES:
            raise SchwartzError(f"level table of {n} x {M} entries exceeds {MAX_TABLE_ENTRIES}")
        s = scale if isinstance(scale, FieldElement) else field.elt(scale)
        return FractionalSchwartz(field, s, C, np.zeros((n, M), dtype=np.int64), Fraction(1), M)

    @staticmethod
    def from_rational_table(field, C: int, table: dict, scale=1):
        """table: {((a1,b1),(a2,b2)) or flat index: Fraction-like}; values of
        keys that are equal mod C add up."""
        f = FractionalSchwartz.zeros(field, C, scale)
        vals = {}
        for k, v in table.items():
            idx = k if isinstance(k, int) else f.grid.index_of(k)
            vals[idx] = vals.get(idx, 0) + Fraction(v)
        den = math.lcm(*(v.denominator for v in vals.values()))
        for idx, v in vals.items():
            f.coeffs[idx, 0] = int(v * den)
        f.prefactor = Fraction(1, den)
        return f

    @staticmethod
    def delta(field, C: int, at, value=1, scale=1):
        return FractionalSchwartz.from_rational_table(field, C, {at: value}, scale)

    def copy(self) -> "FractionalSchwartz":
        return FractionalSchwartz(self.field, self.scale, self.C, self.coeffs.copy(),
                                  self.prefactor, self.M)

    # -- values ---------------------------------------------------------------

    def value_at_index(self, idx: int) -> CyclotomicValue:
        terms = {}
        for j in range(self.M):
            c = int(self.coeffs[idx, j])
            if c:
                terms[Fraction(j, self.M)] = self.prefactor * c
        return CyclotomicValue(terms)

    def value_at(self, v) -> CyclotomicValue:
        return self.value_at_index(self.grid.index_of(v))

    def complex_table(self) -> np.ndarray:
        """Dense complex128 values, prefactor included."""
        roots = np.exp(2j * np.pi * np.arange(self.M) / self.M)
        return (self.coeffs @ roots) * float(self.prefactor)

    def support_indices(self) -> np.ndarray:
        return np.nonzero(self.coeffs.any(axis=1))[0]

    # -- structure ------------------------------------------------------------

    def equals(self, other: "FractionalSchwartz") -> bool:
        if self.field != other.field or self.C != other.C or self.scale != other.scale:
            return False
        M = self.M * other.M // math.gcd(self.M, other.M)
        a = self._embed_order(M)
        b = other._embed_order(M)
        ra = a.coeffs @ _phi_reduction_matrix(M)
        rb = b.coeffs @ _phi_reduction_matrix(M)
        pa, pb = a.prefactor, b.prefactor
        return np.array_equal(ra * (pa.numerator * pb.denominator),
                              rb * (pb.numerator * pa.denominator))

    def _embed_order(self, M: int) -> "FractionalSchwartz":
        if M == self.M:
            return self
        out = FractionalSchwartz.zeros(self.field, self.C, self.scale, M)
        out.coeffs[:, ::M // self.M] = self.coeffs
        out.prefactor = self.prefactor
        return out

    def refine(self, k: int) -> "FractionalSchwartz":
        """Present the same function at modulus k*C (table constant on cosets)."""
        C2 = self.C * k
        out = FractionalSchwartz.zeros(self.field, C2, self.scale, self.M * k)
        out.coeffs[:, ::k] = self.coeffs[self.grid.index_of(out.grid.coords)]
        out.prefactor = self.prefactor
        return out

    # -- linear ops -------------------------------------------------------

    def _aligned(self, other: "FractionalSchwartz"):
        if self.field != other.field or self.C != other.C or self.scale != other.scale:
            raise SchwartzError("incompatible Schwartz functions")
        M = self.M * other.M // math.gcd(self.M, other.M)
        return self._embed_order(M), other._embed_order(M)

    def __add__(self, other):
        a, b = self._aligned(other)
        pa, pb = a.prefactor, b.prefactor
        den = pa.denominator * pb.denominator // math.gcd(pa.denominator, pb.denominator)
        ca = a.coeffs * (pa.numerator * (den // pa.denominator))
        cb = b.coeffs * (pb.numerator * (den // pb.denominator))
        return FractionalSchwartz(self.field, self.scale, self.C, ca + cb,
                                  Fraction(1, den), a.M)

    def __sub__(self, other):
        return self + other.scaled(-1)

    def scaled(self, c) -> "FractionalSchwartz":
        out = self.copy()
        out.prefactor = self.prefactor * Fraction(c)
        return out


@lru_cache(maxsize=None)
def _dual_scale(field: NumberField, scale: FieldElement, C: int):
    """(kappa, s') for the transform of a table at scale s and modulus C:
    kappa = |N(s)|^-2 C^-2xi d_F^-1 is the volume of s*C*V(Zhat), and
    s' = 1/(s*C*delta) the scale of the transform."""
    ns = scale.norm()
    kappa = Fraction(ns.denominator ** 2, ns.numerator ** 2) \
        * Fraction(1, C ** (2 * field.degree) * field.discriminant)
    return kappa, (scale * field.elt(C) * field.different_generator).inverse()


@lru_cache(maxsize=None)
def _shift_table(C: int, M: int) -> np.ndarray:
    """S[x, j, k] = (j + (k x mod C) M/C) mod M: coefficient j of
    zeta_C^(-k x) times a vector over Z[zeta_M] is the vector's coefficient
    S[x, j, k]."""
    x = np.arange(C).reshape(-1, 1, 1)
    j = np.arange(M).reshape(1, -1, 1)
    k = np.arange(C).reshape(1, 1, -1)
    return (j + (k * x % C) * (M // C)) % M


def fourier_transform(f: FractionalSchwartz) -> FractionalSchwartz:
    """Finite adelic Fourier transform; self-inverse on this family.

    Output scale 1/(s*C*delta); same modulus and root order M.  The table is
    the plain DFT over (Z/C)^2xi, one axis at a time on the int64 coefficient
    vectors, read at the dual index A y; every step is exact integer addition
    (the entries are bounded up front so that no sum can overflow).
    """
    field = f.field
    C, M = f.C, f.M
    n = f.grid.n
    if int(np.abs(f.coeffs).max(initial=0)) * n >= 2 ** 63:
        raise SchwartzError("transform coefficients too large for int64")
    S = _shift_table(C, M)
    # a[x, r, j]: x the leading axis, r the others; each pass replaces the
    # leading axis by its frequency and rotates it to the back, so after 2xi
    # passes the axes are back in order
    a = f.coeffs.reshape(C, -1, M)
    for _ in range(2 * f.grid.xi):
        acc = a[0][:, S[0]]
        for x in range(1, C):
            acc += a[x][:, S[x]]
        a = acc.transpose(0, 2, 1).reshape(C, -1, M)
    coeffs = a.reshape(n, M)[f.grid.dual_index]
    kappa, new_scale = _dual_scale(field, f.scale, C)
    return FractionalSchwartz(field, new_scale, C, coeffs, f.prefactor * kappa, M)


class ComplexSchwartz:
    """Complex-valued level table with the same transform semantics.

    Used on the preimage path where character values are genuinely complex;
    carries a dense complex table plus the scale/modulus bookkeeping of the
    exact model.
    """

    def __init__(self, field, scale, C, values: np.ndarray):
        self.field = field
        self.scale = scale
        self.C = C
        self.grid = _index_grid(field, C)
        self.values = values


def complex_fourier_transform(f: ComplexSchwartz) -> ComplexSchwartz:
    """Transform of a dense complex table: the same DFT at the dual index as
    the exact model, in floating point."""
    field = f.field
    C = f.C
    F = np.fft.fftn(f.values.reshape((C,) * (2 * f.grid.xi))).ravel()
    kappa, new_scale = _dual_scale(field, f.scale, C)
    return ComplexSchwartz(field, new_scale, C,
                           float(kappa) * F[f.grid.dual_index])


def act_group(g, f: FractionalSchwartz, det_inverse: bool = False) -> FractionalSchwartz:
    """(f.g)(v) = f(g v) for a 2x2 matrix over O (entries FieldElement or int),
    with det(g) invertible modulo C.  det_inverse applies g/det(g) instead
    (the adjoint-inverse action used by the equivariance law)."""
    ring = f.grid.ring

    def as_res(x):
        if isinstance(x, FieldElement):
            return ring.reduce(x)
        return (int(x) % f.C, 0)

    mat = (as_res(g[0][0]), as_res(g[0][1]), as_res(g[1][0]), as_res(g[1][1]))
    a, b, c, d = mat
    det = ring.sub(ring.mul(a, d), ring.mul(b, c))
    if not ring.is_unit(det):
        raise SchwartzError("matrix determinant not invertible at the level")
    if det_inverse:
        mat = tuple(ring.mul(ring.inv(det), x) for x in mat)
    out = f.copy()
    out.coeffs = f.coeffs[f.grid.image_indices(mat)]
    return out


def det_norm_factor(g, f: FractionalSchwartz) -> Fraction:
    """||det g||_f^-1 for the level-local action: the part of |N(det g)|
    supported on primes dividing the modulus (1 whenever the action is
    admissible, since det must be a unit at those primes)."""
    field = f.field
    a, b, c, d = g[0][0], g[0][1], g[1][0], g[1][1]
    to_elt = lambda x: x if isinstance(x, FieldElement) else field.elt(x)
    det = to_elt(a) * to_elt(d) - to_elt(b) * to_elt(c)
    n = abs(det.norm())
    num = n.numerator
    part = 1
    for p in factorint(f.C):
        while num % p == 0:
            num //= p
            part *= p
    return Fraction(part)


def scale_by_residue(r, f: FractionalSchwartz) -> FractionalSchwartz:
    """f(r v) for a unit residue r in (O/C)^x: scalar idele action on the table."""
    ring = f.grid.ring
    rr = r if isinstance(r, tuple) else (int(r) % f.C, 0)
    if not ring.is_unit(rr):
        raise SchwartzError("residue not invertible at the level")
    out = f.copy()
    out.coeffs = f.coeffs[f.grid.image_indices((rr, (0, 0), (0, 0), rr))]
    return out


# ---------------------------------------------------------------------------
# the twisted family and the trace-zero condition


class TwistedSchwartz:
    """phi(v, g) = f(v) * eta(det g) * (||det g||_f sgn(N det g))^n."""

    def __init__(self, base: FractionalSchwartz, eta=None, n: int = 0):
        self.base = base
        self.eta = eta
        self.n = n


def is_S0(phi) -> bool:
    """f(0) = 0 and sum over the table = 0 (the total-integral condition)."""
    f = phi.base if isinstance(phi, TwistedSchwartz) else phi
    zero_idx = f.grid.index_of(((0, 0), (0, 0)))
    at0 = reduce_mod_cyclotomic(f.coeffs[zero_idx], f.M)
    if at0.any():
        return False
    total = reduce_mod_cyclotomic(f.coeffs.sum(axis=0), f.M)
    return not total.any()


# ---------------------------------------------------------------------------
# text serialization (CLI and cache)


def serialize_schwartz(f: FractionalSchwartz) -> str:
    lines = []
    D = "Q" if f.field.degree == 1 else str(f.field.D)
    s = f.scale
    scoord = f"{s.a.numerator}:{s.a.denominator}:{s.b.numerator}:{s.b.denominator}"
    lines.append(f"schwartz v1 D={D} s={scoord} C={f.C} M={f.M} "
                 f"pref={f.prefactor.numerator}/{f.prefactor.denominator}")
    for idx in f.support_indices():
        row = f.coeffs[idx]
        ent = " ".join(f"{j}:{int(row[j])}" for j in range(f.M) if row[j])
        lines.append(f"{int(idx)} {ent}")
    return "\n".join(lines) + "\n"


def parse_schwartz(text: str) -> FractionalSchwartz:
    """Read the serialize_schwartz format; a malformed table raises SchwartzError."""
    from .field import construct_field

    rows = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not rows or rows[0][:2] != ["schwartz", "v1"]:
        raise SchwartzError("bad serialization header")
    try:
        kv = dict(part.split("=", 1) for part in rows[0][2:])
        D = None if kv["D"] == "Q" else int(kv["D"])
        an, ad, bn, bd = (int(t) for t in kv["s"].split(":"))
        sa, sb = Fraction(an, ad), Fraction(bn, bd)
        C, M = int(kv["C"]), int(kv["M"])
        pn, pd = kv["pref"].split("/")
        prefactor = Fraction(int(pn), int(pd))
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise SchwartzError(f"bad serialization header ({type(exc).__name__}: {exc})") from None
    if M < 1:
        raise SchwartzError("root order M must be positive")
    field = construct_field(D)
    f = FractionalSchwartz.zeros(field, C, field.elt(sa, sb), M)
    f.prefactor = prefactor
    for row in rows[1:]:
        idx = _table_int(row[0], 0, f.grid.n, "row index")
        for ent in row[1:]:
            j, _, c = ent.partition(":")
            f.coeffs[idx, _table_int(j, 0, M, "root exponent")] = _table_int(
                c, -2 ** 63, 2 ** 63, "coefficient")
    return f


def _table_int(token: str, lo: int, hi: int, what: str) -> int:
    """int(token), required to lie in [lo, hi)."""
    try:
        value = int(token)
    except ValueError:
        raise SchwartzError(f"{what} {token!r} is not an integer") from None
    if not lo <= value < hi:
        raise SchwartzError(f"{what} {value} outside [{lo}, {hi})")
    return value
