"""Numeric pipeline: the unit slab, Eisenstein lattice sums, the
constant-term orbit sum, rational reconstruction, and the boundary quadrature
cross-check.

The constant term of weight k = m+2 at the identity cusp is

  (-1)^xi sqrt(d_F) Gamma(k)^xi / ((-2 pi i)^(xi k) sgn(N t2)^k ||t2||_f^k)
      * sum over l in F^x / O^x(N)+ of fhat(l e1) / N(l)^k,

computed through per-residue-class norm-power sums Z[lam] so that a single
lattice enumeration serves every table at the level (and every group
translate downstream).  Rank-1 class sums are Hurwitz zeta values at working
precision; rank-2 sums are plain float64 sums (np.add.at) over the unit slab
enumeration, with an exact-geometry mean-tail correction.

The orbit sum runs over the slab of eps_N = eps_+^r, the generator of the
totally positive units congruent to 1 mod N.  That slab is r copies
eps_+^j slab(eps_+), j < r, and multiplication by eps_+ keeps the norm and
both signs and permutes O/C, so only the slab of eps_+ is enumerated and its
residue bins are folded r times (`_slab_class_sums`, which also serves
Lambda_N).  The row guard therefore sees the size of eps_+: Q(sqrt17) at
N = 3 (eps_N ~ 1.9e7, eps_+ ~ 66) computes, while Q(sqrt94) (eps_+ ~ 4.3e6)
is refused at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np

from .classfield import ResidueRing
from .field import (
    FieldElement,
    NumberField,
    construct_field,
    totally_positive_unit,
    unit_subgroup_generator,
)
from .schwartz import FractionalSchwartz, TwistedSchwartz, fourier_transform, is_S0


class EisensteinError(ValueError):
    pass


class PreconditionError(EisensteinError):
    pass


# eisenstein_value refuses a box of more lattice points than this, and
# _slab_coordinates a slab of more rows, before they allocate: at xi = 2 the
# box holds several complex arrays of that size
MAX_BOX_POINTS = 4_000_000


# ---------------------------------------------------------------------------
# the unit slab (xi = 2)


def _slab_filter(field: NumberField, eps: FieldElement, B: float):
    """The exact slab predicate on int64 coordinate arrays (a, b) of
    l = a + b*omega: 0 < |N(l)| <= int(B) and l in the half-open slab of eps.

    With (u, v) the scaled sqrt(D)-coordinates (u = 2x, v = 2y for
    l = x + y sqrt(D)),  |s1| >= |s2|  iff  u*v >= 0, and the strict upper
    edge |s1(l)| < s1(eps)^2 |s2(l)| is |s1(l/eps)| < |s2(l/eps)|, i.e.
    u'*v' < 0 on the coordinates of l*eps^-1 (an integral element).
    """
    tr, nm = int(field.w_trace), int(field.w_norm)
    inv = eps.inverse()
    ia, ib = int(inv.a), int(inv.b)  # multiplication-by-eps^-1 on (1, w)
    half = field.D % 4 == 1
    Bint = int(B)

    def exact_filter(a, bb):
        nrm = a * a + a * bb * tr + bb * bb * nm
        ok = (np.abs(nrm) <= Bint) & (nrm != 0)
        if half:
            u, v = 2 * a + bb, bb
        else:
            u, v = a, bb
        ok &= (u * v) >= 0
        ap = ia * a - ib * bb * nm
        bp = a * ib + bb * ia + bb * ib * tr
        if half:
            up, vp = 2 * ap + bp, bp
        else:
            up, vp = ap, bp
        ok &= (up * vp) < 0
        return ok

    return exact_filter


# candidates run through the slab predicate at once; bounds the working memory
_SLAB_CHUNK = 1 << 18


def _slab_coordinates(field: NumberField, eps: FieldElement, B: float):
    """Integer coordinates (a, b) of slab points with 0 < |N| <= B, streamed
    as per-chunk arrays ordered by b, then a; membership is decided by
    `_slab_filter` alone.  The row guard raises before any chunk is built.

    Candidates come from one closed-form interval per row.  With s1, s2 the
    embeddings of l = a + b*omega, Delta = (s1 - s2) / b = sqrt(d_F) and
    e1 = s1(eps), the slab |s2| <= |s1| < e1^2 |s2| with |s1 s2| <= B gives
    |s2| <= sqrt(B), |s1| < e1 sqrt(B) and |s1| >= |b| Delta / 2.  So the
    rows are |b| < (e1 + 1) sqrt(B) / Delta, and row b needs only
    |a + b w2| = |s2| <= R_b = min(sqrt(B), 2B / (|b| Delta)), widened by
    one integer on each side against float rounding.
    """
    e1 = eps.embed_float()[0]
    w1, w2 = field.omega.embed_float()
    delta = abs(w1 - w2)
    root = math.sqrt(B)
    bmax = int((e1 + 1) * root / delta) + 2
    if 2 * bmax + 1 > MAX_BOX_POINTS:
        raise EisensteinError(
            f"unit slab of {2 * bmax + 1} rows (s1(eps_+) = {e1:.4g}, B = {B:g}) "
            f"exceeds {MAX_BOX_POINTS}")
    b = np.arange(-bmax, bmax + 1, dtype=np.int64)
    with np.errstate(divide="ignore"):
        R = np.minimum(root, 2.0 * B / (np.abs(b) * delta))
    centre = -b * w2
    lo = np.floor(centre - R).astype(np.int64) - 1
    count = np.ceil(centre + R).astype(np.int64) + 2 - lo
    start = np.cumsum(count) - count
    # rows whose first candidate falls in the same _SLAB_CHUNK block go together
    cuts = np.unique(np.append(
        np.searchsorted(start, np.arange(0, start[-1] + count[-1], _SLAB_CHUNK)), b.size))
    exact_filter = _slab_filter(field, eps, B)

    def chunk(r0, r1):
        n = count[r0:r1]
        offset = np.repeat(lo[r0:r1] - (start[r0:r1] - start[r0]), n)
        a = offset + np.arange(offset.size, dtype=np.int64)
        bb = np.repeat(b[r0:r1], n)
        ok = exact_filter(a, bb)
        return a[ok], bb[ok]

    return (chunk(r0, r1) for r0, r1 in zip(cuts[:-1].tolist(), cuts[1:].tolist()))


def _slab_class_sums(field: NumberField, N: int, C: int, k: int, B, signs: bool = False):
    """(S, count, r): N(l)^-k over the slab of eps_N = eps_+^r, 0 < |N(l)| <= B, summed into
    S[a*C + b][0] for l = a + b*omega mod C; with signs, S[a*C + b][2i + j] splits the bin by
    the signs ((-1)^i, (-1)^j) of s1(l), s2(l).  count is the number of slab(eps_N) points.

    Only the slab of eps_+ is enumerated.  slab(eps_N) is the disjoint union of
    eps_+^j slab(eps_+) over j < r, and multiplication by the totally positive eps_+ keeps
    the norm and both signs and permutes O/C, so the eps_+ bins are folded r times:
    S_N[eps_+^j lam] += S_+[lam].  Summing per chunk with np.add.at holds one chunk at a
    time.  In the slab s1(l) has the sign of a + b, and sgn s2(l) = sgn N(l) sgn s1(l).
    """
    eps = totally_positive_unit(field)
    _, r = unit_subgroup_generator(field, N)
    tr, nm = int(field.w_trace), int(field.w_norm)
    S = np.zeros((C * C, 4 if signs else 1), dtype=np.float64)
    count = 0
    for a, b in _slab_coordinates(field, eps, float(B)):
        norm = a * a + a * b * tr + b * b * nm
        bins = np.mod(a, C) * C + np.mod(b, C)
        if signs:
            neg1 = a + b < 0
            bins = bins * 4 + 2 * neg1 + ((norm < 0) != neg1)
        np.add.at(S.reshape(-1), bins, norm.astype(np.float64) ** (-k))
        count += a.size
    ring = ResidueRing(field, C)
    unit = ring.reduce(eps)
    lam = np.divmod(np.arange(C * C), C)
    folded = S.copy()
    for _ in range(r - 1):
        lam = ring.mul(lam, unit)
        folded[lam[0] * C + lam[1]] += S
    return folded, r * count, r


# ---------------------------------------------------------------------------
# per-class norm-power sums


@lru_cache(maxsize=None)
def rank1_class_sums(C: int, k: int, prec: int) -> tuple:
    """Z[lam] = sum over w = lam mod C, w != 0, of w^-k, at prec bits (mpmath).

    Returned as a tuple of mpmath mpf values (exact symmetric lattice sums via
    Hurwitz zeta; absolutely convergent for k >= 2, zero for odd k at lam and
    C-lam paired -- the Hurwitz form keeps everything explicit).
    """
    if k < 2:
        raise PreconditionError("need k >= 2 for the rank-1 class sums")
    out = []
    with mpmath.workprec(prec + 20):
        for lam in range(C):
            apos = mpmath.mpf(lam) / C if lam else mpmath.mpf(1)
            aneg = mpmath.mpf(C - lam) / C if lam else mpmath.mpf(1)
            pos = mpmath.zeta(k, apos)
            neg = mpmath.zeta(k, aneg)
            val = (pos + (-1) ** k * neg) / mpmath.mpf(C) ** k
            out.append(val)
    return tuple(out)


@lru_cache(maxsize=None)
def rank2_class_sums(D: int, N: int, C: int, k: int, B: int) -> tuple:
    """Z[lam], lam in O/C flattened as a*C+b: slab-restricted sums of N(w)^-k
    over w in O \\ 0, w = lam mod C, |N(w)| <= B, with the exact-density mean
    tail correction (k even; odd-k tails cancel by the sign split).

    The slab is that of eps_N = eps_+^r, summed as r folded copies of the
    slab of eps_+ (`_slab_class_sums`): a field is refused only when the
    slab of eps_+ itself is too large (Q(sqrt94), eps_+ ~ 4.3e6), and
    Q(sqrt17) at N = 3 (eps_N ~ 1.9e7, eps_+ ~ 66) computes.

    Returns (Z complex ndarray flattened, count, tail_estimate).
    """
    field = construct_field(D)
    S, count, r = _slab_class_sums(field, N, C, k, B)
    Z = S[:, 0]
    # exact-geometry mean tail per class: density 4 log s1(eps_N) / (C^2 sqrt(dF))
    # points per unit norm, log s1(eps_N) = r log s1(eps_+); the mean tail
    # integrates the power weight, the residual fluctuation scales like B^(1/2 - k)
    e1 = totally_positive_unit(field).embed_float()[0]
    dens = 4.0 * r * math.log(e1) / (C * C * math.sqrt(field.discriminant))
    if k % 2 == 0:
        Z = Z + dens * float(B) ** (1 - k) / (k - 1)
    tail_est = 10.0 * dens * float(B) ** (0.5 - k) + 1e-15
    return (tuple(Z.tolist()), count, tail_est)


# ---------------------------------------------------------------------------
# results and torus data


@dataclass(frozen=True)
class TorusData:
    """Restricted torus component: ||t2||_f and the archimedean sign vector."""

    norm_f: Fraction = Fraction(1)
    signs: tuple = (1,)

    def __post_init__(self):
        if not self.norm_f > 0:
            raise PreconditionError("the torus norm ||t2||_f must be positive")
        if any(t not in (1, -1) for t in self.signs):
            raise PreconditionError("the torus signs must be +1 or -1")

    @staticmethod
    def identity(field: NumberField) -> "TorusData":
        return TorusData(Fraction(1), tuple([1] * (1 if field.degree == 1 else 2)))

    @property
    def norm_sign(self) -> int:
        s = 1
        for t in self.signs:
            s *= t
        return s


@dataclass
class LatticeSumResult:
    value: complex
    bound: float
    tail_estimate: float
    term_count: int
    precision: int

    def serialize(self) -> dict:
        return {
            "value_re": repr(self.value.real),
            "value_im": repr(self.value.imag),
            "bound": self.bound,
            "tail_estimate": repr(self.tail_estimate),
            "term_count": self.term_count,
            "precision_bits": self.precision,
        }


# ---------------------------------------------------------------------------
# the constant term


def _line_values(fh: FractionalSchwartz) -> np.ndarray:
    """Complex values of fhat on the highest-weight line: entry lam -> (lam, 0),
    lam over O/C in ResidueRing order."""
    roots = np.exp(2j * np.pi * np.arange(fh.M) / fh.M)
    lam = tuple(np.array(fh.grid.ring.elements()).T)
    idx = fh.grid.index_of((lam, (0, 0)))
    return (fh.coeffs[idx] @ roots) * float(fh.prefactor)


def _unit_invariance_check(fh: FractionalSchwartz, N: int) -> None:
    """The orbit sum needs the line values to be eps_N-invariant mod C."""
    field = fh.field
    if field.degree == 1:
        return
    eps, _ = unit_subgroup_generator(field, N)
    ring = fh.grid.ring
    if ring.reduce(eps) != ring.one:
        raise PreconditionError(
            f"table modulus {fh.C} is not invariant under the level-{N} unit group"
        )


def constant_term(phi, m: int, torus: TorusData | None = None,
                  B: float = 1e4, precision: int = 128) -> LatticeSumResult:
    """Constant term of the weight-(m+2) Eisenstein class at the identity cusp.

    phi: TwistedSchwartz (or bare FractionalSchwartz) with the trace-zero
    property; the sum runs over fhat on the highest-weight line modulo the
    totally positive units congruent to 1 at the level.
    """
    f = phi.base if isinstance(phi, TwistedSchwartz) else phi
    if not is_S0(f):
        raise PreconditionError("constant term requires a trace-zero function (S^0)")
    if m < 0:
        raise PreconditionError("m must be >= 0")
    if not B >= 1:
        raise PreconditionError("the lattice bound B must be at least 1")
    field = f.field
    k = m + 2
    torus = torus or TorusData.identity(field)
    fh = fourier_transform(f)
    sprime = fh.scale
    line = _line_values(fh)
    xi = field.degree
    if xi == 1:
        prec = precision
        Z = rank1_class_sums(fh.C, k, prec)
        with mpmath.workprec(prec + 20):
            acc = mpmath.mpc(0)
            for lam in range(fh.C):
                v = fh.value_at(((lam, 0), (0, 0)))
                if not v.terms:
                    continue
                vc = mpmath.mpc(0)
                for q, c in v.terms.items():
                    coef = mpmath.mpf(c.numerator) / c.denominator
                    vc += coef * mpmath.expjpi(2 * mpmath.mpf(q.numerator) / q.denominator)
                acc += vc * Z[lam]
            # l = s' w: 1/l^k = s'^-k w^-k (s' rational, signed)
            sp = mpmath.mpf(sprime.a.numerator) / sprime.a.denominator
            acc = acc / sp ** k
            pref = _prefactor_mp(field, k, torus, prec)
            val = pref * acc
            value = complex(val)
        tail = float(2.0 / max(B, 2.0) ** (k - 1) * (np.abs(line).max() + 1))
        count = fh.C * 4
        return LatticeSumResult(value, float(B), tail, count, precision)
    # xi = 2
    _unit_invariance_check(fh, f.C)
    Zt, count, tail0 = rank2_class_sums(field.D, f.C, fh.C, k, int(B))
    Z = np.array(Zt)
    acc = complex(np.dot(line, Z))
    nsp = sprime.norm()
    acc /= float(nsp) ** k
    pref = complex(_prefactor_mp(field, k, torus, 64))
    value = pref * acc
    tail = abs(pref) * float(np.abs(line).max()) / abs(float(nsp)) ** k * tail0
    return LatticeSumResult(value, float(B), tail, count, precision)


def _prefactor_mp(field: NumberField, k: int, torus: TorusData, prec: int):
    """(-1)^xi sqrt(dF) Gamma(k)^xi / ((-2 pi i)^(xi k) sgn(N t2)^k ||t2||_f^k)."""
    xi = field.degree
    with mpmath.workprec(prec + 20):
        num = (-1) ** xi * mpmath.sqrt(field.discriminant) * mpmath.gamma(k) ** xi
        den = (-2j * mpmath.pi) ** (xi * k)
        den *= torus.norm_sign ** k
        den *= (mpmath.mpf(torus.norm_f.numerator) / torus.norm_f.denominator) ** k
        return num / den


# ---------------------------------------------------------------------------
# rational certification


@dataclass
class RationalCertificate:
    rational: Fraction
    denominator_factorization: dict
    runs: list
    residual: float
    ok: bool = True

    def serialize(self) -> dict:
        return {
            "rational": f"{self.rational.numerator}/{self.rational.denominator}",
            "denominator_factorization": {str(p): e for p, e in
                                          self.denominator_factorization.items()},
            "residual": repr(self.residual),
            "runs": self.runs,
            "ok": self.ok,
        }


@dataclass
class CertificationFailure:
    reason: str
    diagnostics: dict
    ok: bool = False

    def serialize(self) -> dict:
        return {"ok": False, "reason": self.reason, "diagnostics": self.diagnostics}


def _reconstruct_rational(x: float, threshold: float, max_den: int):
    """Smallest-denominator fraction within threshold of x, walking the
    continued-fraction convergents; None if no convergent with denominator
    at most max_den comes close enough."""
    if abs(x - round(x)) <= threshold:
        return Fraction(round(x))
    a = math.floor(x)
    h_prev, h = 1, a
    k_prev, k = 0, 1
    frac = x - a
    for _ in range(128):
        if abs(x - h / k) <= threshold:
            return Fraction(h, k)
        if frac == 0:
            break
        rec = 1.0 / frac
        a = math.floor(rec)
        frac = rec - a
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev
        if k > max_den:
            break
    return None


def certify_rational(run1: LatticeSumResult, run2: LatticeSumResult,
                     denom_primes, max_exp: int = 8):
    """Continued-fraction reconstruction with a denominator supported on the
    given primes; success requires both runs to reconstruct the same rational
    with residuals below 10^-(precision/8)."""
    primes = sorted(set(int(p) for p in denom_primes))
    max_den = 1
    for p in primes:
        max_den *= p ** max_exp
    results = []
    for run in (run1, run2):
        v = run.value
        if abs(v.imag) > 1e-6:
            return CertificationFailure("value has a non-negligible imaginary part",
                                        {"imag": v.imag})
        thresh = 10.0 ** (-(run.precision / 8))
        r = _reconstruct_rational(v.real, thresh, max_den)
        if r is None:
            return CertificationFailure(
                "no rational with bounded denominator within the threshold",
                {"value": v.real, "threshold": thresh})
        residual = abs(v.real - float(r))
        results.append((r, residual, thresh, run))
    (r1, res1, t1, _), (r2, res2, t2, _) = results
    if r1 != r2:
        return CertificationFailure("runs reconstruct different rationals",
                                    {"r1": str(r1), "r2": str(r2),
                                     "residuals": [res1, res2]})
    if res1 > t1 or res2 > t2:
        return CertificationFailure("residual exceeds the precision threshold",
                                    {"residuals": [res1, res2],
                                     "thresholds": [t1, t2]})
    q = r1.denominator
    fact = {}
    for p in primes:
        while q % p == 0:
            q //= p
            fact[p] = fact.get(p, 0) + 1
    if q != 1:
        return CertificationFailure("denominator has a prime outside the allowed set",
                                    {"rational": str(r1), "stray": q})
    if any(e > max_exp for e in fact.values()):
        return CertificationFailure("denominator exponent exceeds the bound",
                                    {"rational": str(r1)})
    runs_meta = [{"bound": run.bound, "precision": run.precision,
                  "value_re": repr(run.value.real)} for run in (run1, run2)]
    return RationalCertificate(r1, fact, runs_meta, max(res1, res2))


# ---------------------------------------------------------------------------
# Eisenstein lattice sums at a point of the symmetric space


# eisenstein_value sums in float64; its results record that mantissa width
_FLOAT64_BITS = 53


def eisenstein_value(phi, chi, m: int, s: float, point, B: int = 40) -> LatticeSumResult:
    """Scalar Eisenstein lattice sum at tau (upper half plane per embedding),
    scale r:

        Gamma(m+2+s)^xi * sum_{l != 0} fhat(l) N((l1+l2 tau)/(r (taubar-tau)))^m
                            / || sqrt(pi) (l1+l2 tau) / sqrt(r Im tau) ||^(2(m+2+s))

    chi must be None or trivial (the full character-summed series); the
    per-character components are not separated at this tier.
    """
    f = phi.base if isinstance(phi, TwistedSchwartz) else phi
    field = f.field
    xi = field.degree
    if 2 * (m + 2 + s) <= 2 * xi:
        raise PreconditionError("outside the absolute convergence range")
    if chi is not None and not chi.is_trivial():
        raise EisensteinError("nontrivial character components not implemented")
    if B < 1:
        raise PreconditionError("the lattice bound B must be at least 1")
    if (2 * B + 1) ** (2 * xi) > MAX_BOX_POINTS:
        raise EisensteinError(
            f"lattice box of (2B+1)^{2 * xi} = {(2 * B + 1) ** (2 * xi)} points exceeds "
            f"{MAX_BOX_POINTS}")
    fh = fourier_transform(f)
    tau, r = point
    taus = tau if isinstance(tau, (tuple, list)) else (tau,) * xi
    rs = r if isinstance(r, (tuple, list)) else (float(r),) * xi
    sp1, sp2 = (fh.scale.embed_float() if xi == 2 else (float(fh.scale.a), float(fh.scale.a)))
    k = m + 2 + s
    if xi == 1:
        C = fh.C
        tbl = fh.complex_table().reshape(C, C)
        n = np.arange(-B, B + 1)
        w1, w2 = np.meshgrid(n, n, indexing="ij")
        mask = (w1 != 0) | (w2 != 0)
        lam1 = np.mod(w1, C)
        lam2 = np.mod(w2, C)
        fv = tbl[lam1, lam2]
        z = sp1 * (w1 + w2 * complex(taus[0]))
        y = float(taus[0].imag) * rs[0]
        weight = (z / (rs[0] * (np.conj(complex(taus[0])) - complex(taus[0])))) ** m
        denom = (np.pi * np.abs(z) ** 2 / y) ** k
        with np.errstate(invalid="ignore", divide="ignore"):
            terms = np.where(mask, fv * weight / denom, 0)
        val = complex(terms.sum()) * math.gamma(m + 2 + s)
        count = int(mask.sum())
        tail = abs(val) * 0 + float(np.abs(fv).max()) * (B ** (-(2 * k - 2)) + 1e-300)
        return LatticeSumResult(val, B, tail, count, _FLOAT64_BITS)
    # xi = 2: direct small-box sum over 4 integer coordinates
    w1e, w2e = field.omega.embed_float()
    rng = np.arange(-B, B + 1)
    A1, B1, A2, B2 = np.meshgrid(rng, rng, rng, rng, indexing="ij")
    mask = (A1 != 0) | (B1 != 0) | (A2 != 0) | (B2 != 0)
    fv = fh.complex_table()[fh.grid.index_of(((A1, B1), (A2, B2)))]
    total = np.ones_like(A1, dtype=np.complex128) * math.gamma(m + 2 + s) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        for (i, (we, spi)) in enumerate(((w1e, sp1), (w2e, sp2))):
            l1 = (A1 + B1 * we) * spi
            l2 = (A2 + B2 * we) * spi
            z = l1 + l2 * complex(taus[i])
            y = float(taus[i].imag) * rs[i]
            weight = (z / (rs[i] * (np.conj(complex(taus[i])) - complex(taus[i])))) ** m
            total = total * weight / ((np.pi * np.abs(z) ** 2 / y) ** k)
        terms = np.where(mask, fv * total, 0)
    val = complex(terms.sum())
    tail = float(np.abs(fv).max()) * float(B) ** (2 * xi - 2 * (m + 2 + s))
    return LatticeSumResult(val, B, tail, int(mask.sum()), _FLOAT64_BITS)


# ---------------------------------------------------------------------------
# boundary quadrature cross-check (xi = 1 tier)


def constant_term_quadrature(phi, m: int, fiber=(1.0, 1.0), Q: int = 64,
                             B: int = 4000) -> complex:
    """Trapezoidal x-average over one period of the boundary-weight Eisenstein
    series (termwise phase z^(m+2)/|z|^(2(m+2)), the zero Fourier coefficient
    of the restricted class); converges to constant_term as Q grows.

    Row truncation is Richardson-extrapolated over two period-aligned widths,
    which removes the leading 1/width edge term of the conditionally summed
    rows; rows beyond the exponential-decay horizon are dropped.
    """
    f = phi.base if isinstance(phi, TwistedSchwartz) else phi
    field = f.field
    if field.degree != 1:
        raise PreconditionError("quadrature cross-check is the rank-1 tier")
    if not is_S0(f):
        raise PreconditionError("quadrature requires a trace-zero function")
    y = float(fiber[0])
    k = m + 2
    fh = fourier_transform(f)
    C = fh.C
    sp = float(fh.scale.a)
    tbl = fh.complex_table().reshape(C, C)
    # x-period of the series is C: z = s'(w1 + w2 tau) and the table has
    # period C in w1, so tau -> tau + C relabels w1 -> w1 + C*w2
    xs = (np.arange(Q) + 0.5) / Q * C
    # rows die like exp(-2 pi |w2| y / C)
    row_bound = max(10, int(3.5 * C / max(y, 1e-3)) + 2)
    base_width = (int(B) // C + 1) * C  # complete residue blocks
    avgs = []
    for width in (base_width, 2 * base_width):
        w1 = np.arange(-width, width)
        acc = 0.0 + 0.0j
        for w2 in range(-row_bound, row_bound + 1):
            fv_row = tbl[np.mod(w1, C), w2 % C]
            if not np.abs(fv_row).max() > 0:
                continue
            if w2 == 0:
                nz = w1 != 0
                zrow = np.zeros(w1.size, dtype=np.complex128)
                zrow[nz] = (sp * w1[nz].astype(np.complex128)) ** (-k)
                acc += (fv_row * zrow).sum()
            else:
                # z = sp*(w1 + w2*(x + i y)) at the Q trapezoid nodes
                zz = sp * (w1[None, :] + w2 * (xs[:, None] + 1j * y))
                acc += (fv_row[None, :] * np.conj(zz) ** (-k)).sum() / Q
        avgs.append(acc)
    extrap = 2 * avgs[1] - avgs[0]
    pref = complex(_prefactor_mp(field, k, TorusData.identity(field), 64))
    return complex(pref * extrap)
