import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eisterm.field import construct_field, fundamental_unit, unit_subgroup_generator
from eisterm.schwartz import FractionalSchwartz, fourier_transform, is_S0
from eisterm import eisenstein
from eisterm.zeta import twisted_zeta_rank1
from eisterm.eisenstein import (
    MAX_BOX_POINTS,
    CertificationFailure,
    EisensteinError,
    LatticeSumResult,
    PreconditionError,
    RationalCertificate,
    TorusData,
    _slab_class_sums,
    _slab_coordinates,
    _slab_filter,
    certify_rational,
    constant_term,
    constant_term_quadrature,
    eisenstein_value,
    rank2_class_sums,
)

Q = construct_field(None)
K5 = construct_field(5)
K2 = construct_field(2)


def rand_s0(field, C, rng, lo=-5, hi=5):
    f = FractionalSchwartz.zeros(field, C)
    for idx in range(1, f.grid.n):
        f.coeffs[idx, 0] = rng.randint(lo, hi)
    tot = int(f.coeffs[:, 0].sum())
    f.coeffs[1, 0] -= tot
    assert is_S0(f)
    return f


def expected_ct_rank1(f, m):
    """Bernoulli-oracle closed form for the rank-1 constant term:
    (1/k)(-1)^k s'^-k kappa sum_u T(u) B_k({-u2/C}) with k = m+2,
    for tables presented at scale 1 and modulus C."""
    C = f.C
    k = m + 2
    kappa = Fraction(1, C * C)
    sprime_inv_k = Fraction(C) ** k
    total = Fraction(0)
    for idx in range(f.grid.n):
        val = f.value_at_index(idx).rational_part() if f.coeffs[idx].any() else Fraction(0)
        if not val:
            continue
        (u1, _), (u2, _) = f.grid.coords_of(idx)
        total += val * twisted_zeta_rank1(Fraction(-u2, C), k)
    return Fraction(1, k) * (-1) ** k * sprime_inv_k * kappa * total


# -- references: the slab of eps_N and its orbit representatives ---------------


class UnitFundamentalDomain:
    """Half-open logarithmic slab 0 <= log|s1(l)/s2(l)| < 2 log s1(eps_N).

    Membership is decided exactly: with l = x + y sqrt(D),
    |s1(l)| >= |s2(l)|  iff  x*y >= 0, and the upper bound compares
    s1(l)^2 against s1(eps)^4 s2(l)^2 through an exact sign evaluation.
    """

    def __init__(self, field, N):
        self.field = field
        self.eps = field.one if field.degree == 1 else unit_subgroup_generator(field, N)[0]
        self._eps4 = self.eps ** 4

    def contains(self, l) -> bool:
        if self.field.degree == 1:
            return bool(l)
        if not l:
            return False
        x, y = l.sqrtD_coords()
        if x * y < 0:
            return False
        # s1(l)^2 < s1(eps)^4 s2(l)^2  <=>  sign_1(l^2 - eps^4 conj(l)^2) < 0
        diff = l * l - self._eps4 * (l.conj() * l.conj())
        return diff.sign_embedding(0) < 0

    def reduce(self, l, max_iter: int = 4000):
        """The unique slab representative eps^j * l, with j."""
        if self.field.degree == 1:
            return l, 0
        if not l:
            raise EisensteinError("zero element has no representative")
        cur, j = l, 0
        inv = self.eps.inverse()
        for _ in range(max_iter):
            if self.contains(cur):
                return cur, j
            x, y = cur.sqrtD_coords()
            if x * y < 0:  # ratio below window
                cur, j = cur * self.eps, j + 1
            else:
                cur, j = cur * inv, j - 1
        raise EisensteinError("slab reduction did not terminate")


def enumerate_orbit_reps(field, N, B):
    """Orbit representatives l of (O \\ 0) / O^x(N)+ with |N(l)| <= B, in the
    order of the slab(eps_N) stream (by b, then a)."""
    if field.degree == 1:
        return [field.elt(s * w) for w in range(1, int(B) + 1) for s in (1, -1)]
    chunks = _slab_coordinates(field, UnitFundamentalDomain(field, N).eps, float(B))
    return [field.elt(a, b) for aa, bb in chunks for a, b in zip(aa.tolist(), bb.tolist())]


def rank2_class_sums_eps_N(field, N, C, k, B):
    """rank2_class_sums from one pass over the slab of eps_N itself: N(l)^-k
    accumulated with np.add.at into the bins l mod C, plus the mean tail."""
    eps = UnitFundamentalDomain(field, N).eps
    tr, nm = int(field.w_trace), int(field.w_norm)
    Z = np.zeros(C * C)
    count = 0
    for a, b in _slab_coordinates(field, eps, float(B)):
        norm = a * a + a * b * tr + b * b * nm
        np.add.at(Z, np.mod(a, C) * C + np.mod(b, C), norm.astype(np.float64) ** (-k))
        count += a.size
    dens = 4.0 * math.log(eps.embed_float()[0]) / (C * C * math.sqrt(field.discriminant))
    if k % 2 == 0:
        Z = Z + dens * float(B) ** (1 - k) / (k - 1)
    return Z, count


# (D, N): r = 4, 4, 6, 3, 2, 4 and 1; N(eps) = -1 at D = 5, 2 and 13
FOLD_LEVELS = [(5, 3), (2, 3), (3, 3), (5, 4), (2, 4), (3, 4), (13, 3)]


@pytest.mark.parametrize("D,N", FOLD_LEVELS)
def test_rank2_fold_matches_eps_N_slab(D, N):
    """The r-fold of the eps_+ slab reproduces the sums over the slab of
    eps_N = eps_+^r: the same point count and Z to 1e-12 relative, at both
    parities of k and at C = N, 2N.  A slab of the fundamental unit (norm -1
    at D = 5, 2, 13) would flip N(l)^-3 and halve the count."""
    K = construct_field(D)
    for k in (2, 3):
        for C in (N, 2 * N):
            Z, count, _ = rank2_class_sums(D, N, C, k, 20_000)
            ref, ref_count = rank2_class_sums_eps_N(K, N, C, k, 20_000)
            assert count == ref_count, (k, C)
            assert np.abs(np.array(Z) - ref).max() <= 1e-12 * np.abs(ref).max(), (k, C)


def test_slab_sums_enumerate_the_eps_plus_slab(monkeypatch):
    """Only the slab of eps_+ is enumerated; the count is r times its points."""
    seen = []
    real = eisenstein._slab_coordinates
    monkeypatch.setattr(eisenstein, "_slab_coordinates",
                        lambda K, eps, B: seen.append(eps) or real(K, eps, B))
    K = construct_field(5)
    _, count, r = _slab_class_sums(K, 3, 3, 2, 2_000)
    eps_plus = fundamental_unit(K)[0] ** 2
    assert seen == [eps_plus] and r == 4
    points = sum(a.size for a, _ in real(K, eps_plus, 2_000.0))
    assert count == r * points


# -- fundamental domain and orbit enumeration ---------------------------------


def test_orbit_reps_rational():
    reps = enumerate_orbit_reps(Q, 1, 3)
    vals = sorted(x.a for x in reps)
    assert vals == [-3, -2, -1, 1, 2, 3]


def test_orbit_reps_units_d5():
    reps = enumerate_orbit_reps(K5, 1, 1)
    assert len(reps) == 4  # {1, -1, w, -w} orbits under eps_+ = w^2
    for x in reps:
        assert abs(x.norm()) == 1


@pytest.mark.parametrize("D,N,B", [(5, 1, 50), (5, 3, 40), (2, 4, 40)])
def test_orbit_reps_vs_brute_force(D, N, B):
    """Box enumeration reduced by explicit unit powers matches the slab."""
    K = construct_field(D)
    dom = UnitFundamentalDomain(K, N)
    eps = dom.eps
    reps = enumerate_orbit_reps(K, N, B)
    rep_set = {(x.a, x.b) for x in reps}
    assert len(rep_set) == len(reps)
    # ordered by b, then a: np.add.at accumulates the class sums in this order
    order = [(x.b, x.a) for x in reps]
    assert order == sorted(order)
    # brute force: all lattice points with |N| <= B in a large box, reduced
    e1 = eps.embed_float()[0]
    bound = int(math.sqrt(B * e1)) + 2
    a, b = np.meshgrid(np.arange(-6 * bound, 6 * bound + 1),
                       np.arange(-3 * bound, 3 * bound + 1), indexing="ij")
    norm = a * a + a * b * int(K.w_trace) + b * b * int(K.w_norm)  # exact in int64
    ok = (norm != 0) & (np.abs(norm) <= B)
    seen = set()
    for x in (K.elt(a, b) for a, b in zip(a[ok].tolist(), b[ok].tolist())):
        assert x and abs(x.norm()) <= B
        red, _ = dom.reduce(x)
        seen.add((red.a, red.b))
    assert seen == rep_set


@pytest.mark.parametrize("D,N,B", [(5, 3, 60), (2, 3, 30), (3, 3, 20), (2, 4, 60)])
def test_slab_rows_hold_the_slab(D, N, B, monkeypatch):
    """The per-row candidate intervals lose no slab point: a box scan through
    the same exact predicate gives the same arrays, in the same order.  The
    box holds every point with |s2| <= sqrt(B) and |s1| < e1 sqrt(B), twice
    over in b; (2, 3) and (3, 3) are the large-unit levels (e1 ~ 1154, 2702).
    A 16-candidate chunk makes rows straddle chunks and outgrow them."""
    monkeypatch.setattr(eisenstein, "_SLAB_CHUNK", 16)
    K = construct_field(D)
    eps = UnitFundamentalDomain(K, N).eps
    e1 = eps.embed_float()[0]
    w1, w2 = K.omega.embed_float()
    # |b| (w1 - w2) = |s1 - s2| < (e1 + 1) sqrt(B) and a = s2 - b w2
    bbox = 2 * int((e1 + 1) * math.sqrt(B) / (w1 - w2)) + 2
    half_width = int(math.sqrt(B)) + 2
    b = np.arange(-bbox, bbox + 1, dtype=np.int64)[:, None]
    a = np.round(-b * w2).astype(np.int64) + np.arange(-half_width, half_width + 1)
    b = np.broadcast_to(b, a.shape)
    ok = _slab_filter(K, eps, float(B))(a, b)
    aa, bb = map(np.concatenate, zip(*_slab_coordinates(K, eps, float(B))))
    assert aa.size > 0
    assert np.array_equal(aa, a[ok]) and np.array_equal(bb, b[ok])


def test_orbit_disjointness():
    K = construct_field(5)
    dom = UnitFundamentalDomain(K, 3)
    for x in enumerate_orbit_reps(K, 3, 30):
        assert dom.contains(x)
        assert not dom.contains(x * dom.eps)
        assert not dom.contains(x * dom.eps.inverse())


# -- constant term, rank 1 -----------------------------------------------------


def test_constant_term_one_eighth():
    f = FractionalSchwartz.from_rational_table(Q, 2, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    r = constant_term(f, 0, B=1e6, precision=128)
    assert abs(r.value - 0.125) < 1e-9
    assert abs(r.value.imag) < 1e-15


def test_constant_term_sign_flip():
    f = FractionalSchwartz.from_rational_table(Q, 2, {((1, 0), (0, 0)): -1, ((0, 0), (1, 0)): 1})
    r = constant_term(f, 0, B=1e5, precision=128)
    assert abs(r.value + 0.125) < 1e-9


def test_constant_term_requires_s0():
    d0 = FractionalSchwartz.delta(Q, 3, ((0, 0), (0, 0)))
    with pytest.raises(PreconditionError):
        constant_term(d0, 0)


@pytest.mark.parametrize("field", [Q, K2])
@pytest.mark.parametrize("B", [0, -5])
def test_constant_term_requires_positive_bound(field, B):
    f = FractionalSchwartz.from_rational_table(
        field, 3, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    with pytest.raises(PreconditionError):
        constant_term(f, 0, B=B)


def test_constant_term_bernoulli_grid():
    """Rank-1 pipeline against the exact Bernoulli oracle on a grid."""
    rng = random.Random(1234)
    cases = [(2, 0), (3, 0), (4, 0), (5, 0), (3, 1), (4, 1), (5, 1), (3, 2), (4, 2), (6, 0)]
    for C, m in cases:
        f = rand_s0(Q, C, rng)
        expected = expected_ct_rank1(f, m)
        r = constant_term(f, m, B=1e6, precision=128)
        assert abs(r.value.imag) < 1e-12, (C, m)
        assert abs(r.value.real - float(expected)) < 1e-12, (C, m, expected)


def test_constant_term_deterministic():
    f = rand_s0(Q, 4, random.Random(5))
    r1 = constant_term(f, 1, B=1e5, precision=96)
    r2 = constant_term(f, 1, B=1e5, precision=96)
    assert r1.value == r2.value


# -- constant term, rank 2 -----------------------------------------------------


def test_constant_term_rank2_stability_and_rationality():
    rng = random.Random(42)
    f = rand_s0(K5, 3, rng)
    r1 = constant_term(f, 0, B=1e5, precision=64)
    r2 = constant_term(f, 0, B=2e5, precision=64)
    assert abs(r1.value - r2.value) < 1e-8
    # the known value for this seed's table: -4/27 (denominator 3^3 | (3*5)^e)
    assert abs(r1.value.real - float(Fraction(-4, 27))) < 1e-9
    cert = certify_rational(r1, r2, (3, 5), 6)
    assert isinstance(cert, RationalCertificate)
    assert cert.rational == Fraction(-4, 27)
    assert set(cert.denominator_factorization) <= {3, 5}


def test_constant_term_d17_level3_certifies():
    """Q(sqrt17) at N = 3, whose eps_N ~ 1.9e7 slab was once refused, certifies
    a random table in Z[1/51] from the folded slab of eps_+ ~ 66."""
    K17 = construct_field(17)
    f = rand_s0(K17, 3, random.Random(1))
    r1 = constant_term(f, 0, B=1e5, precision=64)
    r2 = constant_term(f, 0, B=2e5, precision=64)
    assert r1.term_count == 1_625_632
    cert = certify_rational(r1, r2, (3, 17), 6)
    assert isinstance(cert, RationalCertificate)
    assert cert.rational == Fraction(-80, 27)


def test_constant_term_rank2_linearity():
    rng = random.Random(7)
    f = rand_s0(K5, 3, rng)
    g = rand_s0(K5, 3, rng)
    h = f + g
    rf = constant_term(f, 0, B=5e4, precision=64)
    rg = constant_term(g, 0, B=5e4, precision=64)
    rh = constant_term(h, 0, B=5e4, precision=64)
    assert abs(rh.value - (rf.value + rg.value)) < 1e-12


def test_constant_term_rank2_parity_imag():
    """Real even tables at odd weight mismatch: imaginary part vanishes."""
    rng = random.Random(11)
    f = FractionalSchwartz.zeros(K5, 3)
    # even table: f(-v) = f(v)
    for idx in range(1, f.grid.n):
        (a1, b1), (a2, b2) = f.grid.coords_of(idx)
        neg = f.grid.index_of((((-a1) % 3, (-b1) % 3), ((-a2) % 3, (-b2) % 3)))
        if f.coeffs[neg, 0]:
            f.coeffs[idx, 0] = f.coeffs[neg, 0]
        else:
            f.coeffs[idx, 0] = rng.randint(-4, 4)
    f.coeffs[0, 0] = 0
    tot = int(f.coeffs[:, 0].sum())
    # symmetric correction to keep evenness
    i1 = f.grid.index_of(((1, 0), (0, 0)))
    i2 = f.grid.index_of(((2, 0), (0, 0)))
    f.coeffs[i1, 0] -= tot // 2 + tot % 2
    f.coeffs[i2, 0] -= tot // 2
    if not is_S0(f):
        pytest.skip("evenness correction failed for this seed")
    r = constant_term(f, 1, B=5e4, precision=64)
    assert abs(r.value.imag) < 1e-8


def test_torus_twist_scales_prefactor():
    f = rand_s0(Q, 3, random.Random(2))
    base = constant_term(f, 0, B=1e5, precision=96)
    tw = constant_term(f, 0, torus=TorusData(Fraction(2), (1,)), B=1e5, precision=96)
    assert abs(tw.value * 4 - base.value) < 1e-12
    neg = constant_term(f, 1, torus=TorusData(Fraction(1), (-1,)), B=1e5, precision=96)
    # sgn(N t2)^(m+2) = (-1)^3 flips the sign for m = 1
    base1 = constant_term(f, 1, B=1e5, precision=96)
    assert abs(neg.value + base1.value) < 1e-12


# -- certification -------------------------------------------------------------


def _mk_result(v, prec=96, B=1e5):
    return LatticeSumResult(complex(v), B, 1e-12, 100, prec)


def test_certify_dyadic():
    r1 = _mk_result(0.125 + 1e-13)
    r2 = _mk_result(0.125 - 1e-13)
    cert = certify_rational(r1, r2, (2,), 8)
    assert isinstance(cert, RationalCertificate)
    assert cert.rational == Fraction(1, 8)
    assert cert.denominator_factorization == {2: 3}


def test_certify_rejects_pi():
    r1 = _mk_result(math.pi, prec=128)
    r2 = _mk_result(math.pi + 1e-14, prec=128)
    out = certify_rational(r1, r2, (2, 3, 5, 7), 6)
    assert isinstance(out, CertificationFailure)


def test_certify_one_thirtieth():
    v = 1.0 / 30.0
    cert = certify_rational(_mk_result(v), _mk_result(v + 2e-13), (2, 3, 5), 3)
    assert isinstance(cert, RationalCertificate)
    assert cert.rational == Fraction(1, 30)


def test_certify_disagreeing_runs():
    out = certify_rational(_mk_result(0.125), _mk_result(0.25), (2,), 8)
    assert isinstance(out, CertificationFailure)
    assert "different rationals" in out.reason
    # a value with no admissible rational nearby also fails, with diagnostics
    out2 = certify_rational(_mk_result(0.126), _mk_result(0.126), (2,), 8)
    assert isinstance(out2, CertificationFailure)


def test_certify_stray_denominator():
    v = 1.0 / 7.0
    out = certify_rational(_mk_result(v), _mk_result(v), (2, 3), 4)
    assert isinstance(out, CertificationFailure)


# -- eisenstein_value ----------------------------------------------------------


def test_eisenstein_value_zero_function():
    f = FractionalSchwartz.zeros(Q, 3)
    r = eisenstein_value(f, None, 2, 0.0, (complex(0, 1), 1.0), B=20)
    assert r.value == 0


def test_eisenstein_value_brute_force():
    """Independent double-sum oracle at m=2, tau=i."""
    rng = random.Random(3)
    f = rand_s0(Q, 3, rng)
    m, B = 2, 30
    r = eisenstein_value(f, None, m, 0.0, (complex(0, 1), 1.0), B=B)
    fh = fourier_transform(f)
    C = fh.C
    sp = float(fh.scale.a)
    tau = complex(0, 1)
    acc = 0j
    for w1 in range(-B, B + 1):
        for w2 in range(-B, B + 1):
            if w1 == 0 and w2 == 0:
                continue
            fv = fh.value_at(((w1 % C, 0), (w2 % C, 0))).complex_value()
            if fv == 0:
                continue
            z = sp * (w1 + w2 * tau)
            weight = (z / (1.0 * (tau.conjugate() - tau))) ** m
            denom = (math.pi * abs(z) ** 2 / 1.0) ** (m + 2)
            acc += fv * weight / denom
    acc *= math.gamma(m + 2)
    assert abs(r.value - acc) < 1e-12 * (1 + abs(acc))


def test_eisenstein_value_conjugation():
    rng = random.Random(8)
    f = rand_s0(Q, 4, rng)
    tau = complex(0.3, 1.2)
    r1 = eisenstein_value(f, None, 2, 0.0, (tau, 1.0), B=25)
    r2 = eisenstein_value(f, None, 2, 0.0, (tau.conjugate().conjugate(), 1.0), B=25)
    assert r1.value == r2.value
    # conjugating tau and the table conjugates the value
    fc = FractionalSchwartz(Q, f.scale, f.C, f.coeffs[:, ::1].copy(), f.prefactor, f.M)
    # rational table: conjugation is trivial; tau -> taubar flips the weight phase
    rbar = eisenstein_value(f, None, 2, 0.0, (tau.conjugate(), 1.0), B=25)
    assert abs(rbar.value - r1.value.conjugate()) < 1e-9 * (1 + abs(r1.value))


def test_eisenstein_value_linearity():
    rng = random.Random(21)
    f = rand_s0(Q, 3, rng)
    g = rand_s0(Q, 3, rng)
    tau = complex(0.1, 0.9)
    rf = eisenstein_value(f, None, 1, 0.5, (tau, 1.0), B=20)
    rg = eisenstein_value(g, None, 1, 0.5, (tau, 1.0), B=20)
    rs = eisenstein_value(f + g, None, 1, 0.5, (tau, 1.0), B=20)
    assert abs(rs.value - rf.value - rg.value) < 1e-12 * (1 + abs(rf.value) + abs(rg.value))


def test_eisenstein_value_convergence_precondition():
    f = rand_s0(K5, 3, random.Random(2))
    with pytest.raises(PreconditionError):
        eisenstein_value(f, None, 0, 0.0, ((complex(0, 1), complex(0, 1)), (1.0, 1.0)), B=4)


def test_eisenstein_value_quadratic_runs():
    f = rand_s0(K5, 3, random.Random(2))
    r = eisenstein_value(f, None, 1, 0.0, ((complex(0, 1), complex(0.2, 0.8)), (1.0, 1.0)), B=6)
    assert np.isfinite(r.value.real) and np.isfinite(r.value.imag)


def test_eisenstein_value_box_guard():
    """The guard refuses (2B+1)^(2 xi) > MAX_BOX_POINTS before allocating,
    and admits the largest box below it."""
    import time

    f = rand_s0(K5, 2, random.Random(5))
    point = ((complex(0, 1), complex(0, 1)), (1.0, 1.0))
    t0 = time.perf_counter()
    with pytest.raises(EisensteinError):
        eisenstein_value(f, None, 1, 0.0, point, B=40)
    assert time.perf_counter() - t0 < 5
    assert 81 ** 4 > MAX_BOX_POINTS >= 13 ** 4  # refuses B = 40, admits the CLI's B = 6
    with pytest.raises(EisensteinError):
        eisenstein_value(rand_s0(Q, 3, random.Random(5)), None, 1, 0.0,
                         (complex(0, 1), 1.0), B=1001)


# -- quadrature cross-check ----------------------------------------------------


def test_quadrature_one_eighth():
    f = FractionalSchwartz.from_rational_table(Q, 2, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    v = constant_term_quadrature(f, 0, fiber=(1.0, 1.0), Q=64, B=4000)
    assert abs(v - 0.125) < 1e-6


def test_quadrature_zero_and_linearity():
    z = FractionalSchwartz.from_rational_table(
        Q, 3, {((1, 0), (0, 0)): 1, ((2, 0), (0, 0)): -1})
    assert is_S0(z)
    v = constant_term_quadrature(z, 0, fiber=(1.0, 1.0), Q=32, B=1500)
    v2 = constant_term_quadrature(z.scaled(2), 0, fiber=(1.0, 1.0), Q=32, B=1500)
    assert abs(v2 - 2 * v) < 1e-12


def test_quadrature_matches_constant_term_grid():
    rng = random.Random(77)
    for C, m, y in [(2, 0, 1.0), (3, 0, 1.0), (3, 1, 0.8), (4, 0, 1.2), (4, 1, 1.0)]:
        f = rand_s0(Q, C, rng)
        ct = constant_term(f, m, B=1e5, precision=96).value
        qv = constant_term_quadrature(f, m, fiber=(y, 1.0), Q=64, B=4000)
        assert abs(qv - ct) < 1e-6, (C, m, y, qv, ct)
