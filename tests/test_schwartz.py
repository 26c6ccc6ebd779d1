import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eisterm.field import construct_field
from eisterm.schwartz import (
    MAX_TABLE_ENTRIES,
    det_norm_factor,
    ComplexSchwartz,
    CyclotomicValue,
    FractionalSchwartz,
    SchwartzError,
    TwistedSchwartz,
    _IndexGrid,
    act_group,
    complex_fourier_transform,
    fourier_transform,
    is_S0,
    parse_schwartz,
    scale_by_residue,
    serialize_schwartz,
    trace_pairing,
)

Q = construct_field(None)
K5 = construct_field(5)


def rand_table(field, C, rng, lo=-9, hi=9):
    f = FractionalSchwartz.zeros(field, C)
    n = f.grid.n
    vals = {}
    for idx in range(n):
        v = rng.randint(lo, hi)
        if v:
            vals[idx] = v
    return FractionalSchwartz.from_rational_table(field, C, vals)


def rand_s0_table(field, C, rng, lo=-9, hi=9):
    """Random integer table with value 0 at 0 and total sum 0."""
    f = rand_table(field, C, rng, lo, hi)
    zero = f.grid.index_of(((0, 0), (0, 0)))
    f.coeffs[zero] = 0
    total = int(f.coeffs[:, 0].sum())
    # cancel the total on a nonzero index
    fix = 1 if zero != 1 else 2
    f.coeffs[fix, 0] -= total
    assert is_S0(f)
    return f


# -- cyclotomic scalars ------------------------------------------------------


def test_cyclotomic_arithmetic():
    i = CyclotomicValue.root_of_unity(Fraction(1, 4))
    assert (i * i) == CyclotomicValue.rational(-1)
    z3 = CyclotomicValue.root_of_unity(Fraction(1, 3))
    s = z3 + z3 * z3 + CyclotomicValue.rational(1)
    assert s.is_zero()  # 1 + z + z^2 = 0
    assert (z3 * z3.conj()) == CyclotomicValue.rational(1)
    assert not z3.is_rational()
    v = CyclotomicValue.rational(Fraction(3, 7))
    assert v.is_rational() and v.rational_part() == Fraction(3, 7)


def test_cyclotomic_complex_eval():
    z8 = CyclotomicValue.root_of_unity(Fraction(1, 8))
    z = z8.complex_value(128)
    assert abs(z - complex(math.sqrt(2) / 2, math.sqrt(2) / 2)) < 1e-15


# -- trace pairing -----------------------------------------------------------


def test_trace_pairing_examples():
    e1 = (K5.one, K5.zero)
    e2 = (K5.zero, K5.one)
    assert trace_pairing(e1, e2) == 2  # Tr(1) = 2
    assert isinstance(trace_pairing(e1, e2), Fraction)
    assert trace_pairing(e1, e1) == 0  # skew
    x = (K5.omega, K5.zero)
    y = (K5.zero, K5.one)
    assert trace_pairing(x, y) == 1  # Tr(w) = 1


def test_trace_pairing_bilinear_skew():
    rng = random.Random(5)
    for _ in range(50):
        pts = [(K5.elt(rng.randint(-5, 5), rng.randint(-5, 5)),
                K5.elt(rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(3)]
        x, y, z = pts
        assert trace_pairing(x, y) == -trace_pairing(y, x)
        xz = (x[0] + z[0], x[1] + z[1])
        assert trace_pairing(xz, y) == trace_pairing(x, y) + trace_pairing(z, y)


# -- Fourier transform -------------------------------------------------------


def test_transform_indicator_rational_field():
    """Indicator of N V(Zhat) presented at scale N: transform is
    N^-2 * indicator of N^-1 V(Zhat)."""
    N = 3
    f = FractionalSchwartz.delta(Q, 1, ((0, 0), (0, 0)), value=1, scale=N)
    fh = fourier_transform(f)
    assert fh.scale == Q.elt(Fraction(1, N))
    vals = fh.complex_table()
    assert np.allclose(vals, float(Fraction(1, N * N)))


def test_transform_half_integer_example():
    """Level-2 table delta_(1,0) - delta_(0,1) over Q: transform values
    (1/4)(e(x2) - e(-x1)) on (1/2)Zhat^2: 1/2 on ((half-int),0), 0 on (int,0)."""
    f = FractionalSchwartz.from_rational_table(Q, 2, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    fh = fourier_transform(f)
    assert fh.scale == Q.elt(Fraction(1, 2))
    # index (w1, w2) mod 2: actual point (w1/2, w2/2)
    v_int = fh.value_at(((0, 0), (0, 0)))  # point (0,0): integer line
    v_half = fh.value_at(((1, 0), (0, 0)))  # point (1/2, 0)
    assert v_int.rational_part() == 0
    assert v_half.rational_part() == Fraction(1, 2)


def test_transform_inversion_exact_random():
    rng = random.Random(2024)
    cases = [(Q, 2), (Q, 3), (Q, 4), (Q, 5), (K5, 2), (K5, 3), (K5, 4), (K5, 5)]
    for field, C in cases:
        for _ in range(4):
            f = rand_table(field, C, rng)
            fhh = fourier_transform(fourier_transform(f))
            assert fhh.scale == f.scale
            assert fhh.equals(f), (field, C)


def _pairing_exponent_matrix(field, C):
    """Q[y,u] = numerator mod C of the additive-character exponent <s'y, s u>:
    det(y,u) mod C for Q, the omega-coefficient of det(y,u) mod C for
    quadratic fields."""
    g = _IndexGrid(field, C)
    tr = int(field.w_trace)
    A1y, B1y, A2y, B2y = (v.reshape(-1, 1) for v in (g.A1, g.B1, g.A2, g.B2))
    A1u, B1u, A2u, B2u = (v.reshape(1, -1) for v in (g.A1, g.B1, g.A2, g.B2))
    if field.degree == 1:
        Q = A1y * A2u - A2y * A1u
    else:
        w_y1u2 = A1y * B2u + B1y * A2u + B1y * B2u * tr
        w_y2u1 = A2y * B1u + B2y * A1u + B2y * B1u * tr
        Q = w_y1u2 - w_y2u1
    return np.mod(Q, C)


def _dense_transform(f):
    """Reference kernel: the character sum as one dense n x n matrix per
    residue c of the exponent, (coeffs, prefactor, scale)."""
    C, M = f.C, f.M
    Q = _pairing_exponent_matrix(f.field, C)
    out = np.zeros_like(f.coeffs)
    for c in range(C):
        # multiply by zeta_C^(-c): coefficient j of the result reads j + c*M/C
        out += (Q == c).astype(np.int64) @ np.roll(f.coeffs, -c * (M // C), axis=1)
    K, ns = f.field, f.scale.norm()
    kappa = Fraction(ns.denominator ** 2, ns.numerator ** 2) \
        * Fraction(1, C ** (2 * K.degree) * K.discriminant)
    return out, f.prefactor * kappa, (f.scale * K.elt(C) * K.different_generator).inverse()


_KERNEL_CASES = ([(None, C) for C in (1, 2, 3, 6, 12, 24)] + [(5, C) for C in range(1, 7)]
                 + [(2, 4), (3, 4), (13, 3)])


@pytest.mark.parametrize("D,C", _KERNEL_CASES)
def test_transform_matches_dense_kernel(D, C):
    """The separable transform gives the dense kernel's integer table exactly,
    at root order M = C and M = 2C, and the complex transform its values."""
    K = construct_field(D)
    rng = random.Random(C * 97 + (D or 0))
    n = C ** (2 * K.degree)
    for k, scale in ((1, K.one), (2, K.elt(2) + K.omega)):
        coeffs = np.array([[rng.randint(-9, 9) for _ in range(k * C)] for _ in range(n)],
                          dtype=np.int64)
        f = FractionalSchwartz(K, scale, C, coeffs, Fraction(3, 7), k * C)
        fh = fourier_transform(f)
        want, prefactor, new_scale = _dense_transform(f)
        assert fh.coeffs.dtype == np.int64
        assert np.array_equal(fh.coeffs, want)
        assert fh.prefactor == prefactor and fh.scale == new_scale and fh.M == k * C
        values = np.array([complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)])
        gh = complex_fourier_transform(ComplexSchwartz(K, scale, C, values))
        W = np.exp(-2j * np.pi * _pairing_exponent_matrix(K, C) / C)
        want_c = float(prefactor / f.prefactor) * (W @ values)
        assert gh.scale == new_scale
        assert np.abs(gh.values - want_c).max() <= 1e-12 * np.abs(want_c).max()


def test_transform_inversion_quadratic_level_16():
    """Double transform identity at Q(sqrt5), C = 16: n = 65,536 table
    indices, where a dense pairing matrix would take 34 GB."""
    f = rand_table(K5, 16, random.Random(16))
    assert f.grid.n * f.M <= MAX_TABLE_ENTRIES
    fhh = fourier_transform(fourier_transform(f))
    assert fhh.scale == f.scale
    assert fhh.equals(f)


def test_rational_table_keys_equal_mod_C_add_up():
    demo = {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1}
    f = FractionalSchwartz.from_rational_table(Q, 1, demo)
    assert not f.coeffs.any()
    assert not fourier_transform(f).coeffs.any()
    g = FractionalSchwartz.from_rational_table(
        Q, 2, {((1, 0), (0, 0)): Fraction(1, 2), ((3, 0), (2, 0)): Fraction(1, 2)})
    assert g.value_at(((1, 0), (0, 0))) == 1
    h = FractionalSchwartz.from_rational_table(K5, 3, {((1, 2), (0, 0)): 2, ((4, -1), (3, 0)): 5})
    assert h.value_at(((1, 2), (0, 0))) == 7
    assert len(h.support_indices()) == 1


def test_oversized_table_is_refused():
    """n * M beyond MAX_TABLE_ENTRIES is refused before the table exists."""
    assert 24 ** 4 * 24 > MAX_TABLE_ENTRIES >= 16 ** 4 * 16
    with pytest.raises(SchwartzError):
        FractionalSchwartz.zeros(K5, 24)
    with pytest.raises(SchwartzError):
        FractionalSchwartz.zeros(K5, 16, M=64)
    with pytest.raises(SchwartzError):
        parse_schwartz("schwartz v1 D=5 s=1:1:0:1 C=24 M=24 pref=1/1\n")


def test_transform_translation_phase():
    """Shifting the table by u0 multiplies the transform by e(-<x, u0>)."""
    rng = random.Random(9)
    C = 4
    f = rand_table(Q, C, rng)
    # translate: g(v) = f(v - u0) with u0 = (1, 2) (table-index shift)
    u0 = (1, 2)
    g = FractionalSchwartz.zeros(Q, C)
    for idx in range(f.grid.n):
        (a1, _), (a2, _) = f.grid.coords_of(idx)
        src = f.grid.index_of((((a1 - u0[0]) % C, 0), ((a2 - u0[1]) % C, 0)))
        g.coeffs[idx] = f.coeffs[src]
    g.prefactor = f.prefactor
    fh, gh = fourier_transform(f), fourier_transform(g)
    # gh(x) = e(-<x, u0>) fh(x); check on every index of the support lattice
    for idx in range(fh.grid.n):
        (w1, _), (w2, _) = fh.grid.coords_of(idx)
        # x = scale*(w1, w2); <x, u0> = x1 u0_2 - x2 u0_1 = (w1 u0_2 - w2 u0_1)/C
        q = Fraction(-(w1 * u0[1] - w2 * u0[0]), C)
        lhs = gh.value_at_index(idx)
        rhs = fh.value_at_index(idx) * CyclotomicValue.root_of_unity(q)
        assert lhs == rhs


def test_equivariance_exact():
    """(f.g)^ = ||det g||_f^-1 fhat o ghat^-1 as exact tables."""
    rng = random.Random(77)
    for field, C in [(Q, 3), (Q, 4), (K5, 3)]:
        for _ in range(8):
            f = rand_table(field, C, rng)
            # random integral matrix with det invertible mod C
            while True:
                g = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
                det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
                if math.gcd(det, C) == 1 and det != 0:
                    break
            fg = act_group(g, f)
            lhs = fourier_transform(fg)
            fh = fourier_transform(f)
            # ghat = det g * g^-1 = adj(g); ghat^-1 = g / det g
            rhs = act_group(g, fh, det_inverse=True)
            # the action is local at primes dividing C, where det is a unit,
            # so ||det g||_f^-1 = 1 here
            factor = det_norm_factor(g, f)
            assert factor == 1
            rhs = rhs.scaled(factor)
            assert lhs.equals(rhs), (field, C, g)


def test_weyl_element_equivariance_quadratic():
    f = rand_table(K5, 3, random.Random(123))
    w = [[0, -1], [1, 0]]
    lhs = fourier_transform(act_group(w, f))
    rhs = act_group(w, fourier_transform(f), det_inverse=True)
    assert lhs.equals(rhs)


def test_act_group_identity_and_permutation():
    rng = random.Random(4)
    f = rand_table(Q, 5, rng)
    g = act_group([[1, 0], [0, 1]], f)
    assert g.equals(f)
    sl = [[1, 1], [0, 1]]
    h = act_group(sl, f)
    assert sorted(h.coeffs[:, 0]) == sorted(f.coeffs[:, 0])
    with pytest.raises(SchwartzError):
        act_group([[1, 0], [0, 5]], f)  # det = 5 not invertible mod 5


def test_is_S0_examples():
    f = FractionalSchwartz.from_rational_table(Q, 3, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    assert is_S0(f)
    d0 = FractionalSchwartz.delta(Q, 3, ((0, 0), (0, 0)))
    assert not is_S0(d0)
    ind = FractionalSchwartz.delta(Q, 1, ((0, 0), (0, 0)), scale=3)
    assert not is_S0(ind)


def test_S0_stable_under_group_action():
    rng = random.Random(31)
    for field, C in [(Q, 4), (K5, 3)]:
        f = rand_s0_table(field, C, rng)
        for _ in range(10):
            while True:
                g = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
                if det != 0 and math.gcd(det, C) == 1:
                    break
            assert is_S0(act_group(g, f))


def test_refinement_consistency():
    rng = random.Random(8)
    f = rand_table(Q, 3, rng)
    f2 = f.refine(2)
    assert f2.C == 6
    # transforms agree as functions: compare on the coarse support
    fh = fourier_transform(f)
    f2h = fourier_transform(f2)
    # scales: 1/(3 delta) vs 1/(6 delta): f2h index (w1,w2) mod 6 is the point
    # (w1,w2)/6; fh index (v1,v2) mod 3 is (v1,v2)/3 = (2w1,2w2)/6
    for v1 in range(3):
        for v2 in range(3):
            a = fh.value_at(((v1, 0), (v2, 0)))
            b = f2h.value_at(((2 * v1, 0), (2 * v2, 0)))
            assert a == b


def test_plancherel_constant():
    """sum |f|^2 = |N(s)|^2 C^(2 xi) d_F * kappa^2-normalized sum |fhat|^2:
    with the self-dual measure, sum_v |f(v)|^2 * vol = sum_x |fhat(x)|^2 * vol'."""
    rng = random.Random(555)
    for field, C in [(Q, 3), (K5, 2)]:
        f = rand_table(field, C, rng)
        fh = fourier_transform(f)
        tf = f.complex_table()
        th = fh.complex_table()
        # vol of one coset of s C V(Zhat): |N(s)|^-2 C^-2xi /d_F ; for fhat the
        # scale is 1/(sC delta): vol' = |N(s)|^2 C^2xi d_F / (C^2xi d_F^2) ...
        ns = abs(float(f.scale.norm()))
        xi = field.degree
        vol_f = ns ** -2 * C ** (-2 * xi) / field.discriminant
        nsh = abs(float(fh.scale.norm()))
        vol_h = nsh ** -2 * C ** (-2 * xi) / field.discriminant
        lhs = (np.abs(tf) ** 2).sum() * vol_f
        rhs = (np.abs(th) ** 2).sum() * vol_h
        assert abs(lhs - rhs) < 1e-10 * (1 + abs(lhs))


def test_scale_by_residue():
    f = rand_table(Q, 5, random.Random(1))
    g = scale_by_residue(2, f)
    for idx in range(f.grid.n):
        (a1, _), (a2, _) = f.grid.coords_of(idx)
        assert g.value_at_index(idx) == f.value_at(((2 * a1 % 5, 0), (2 * a2 % 5, 0)))


def _image_reference(field, C, mat, scalar=(1, 0)):
    """Index of scalar * (a v1 + b v2, c v1 + d v2) for every table index v:
    a per-index ResidueRing loop with the flat index written out by hand."""
    from eisterm.classfield import ResidueRing

    ring = ResidueRing(field, C)
    a, b, c, d = mat
    xi = 1 if field.degree == 1 else 2
    perm = []
    for coords in itertools.product(range(C), repeat=2 * xi):
        v1, v2 = ((coords[0], 0), (coords[1], 0)) if xi == 1 else (coords[:2], coords[2:])
        w1 = ring.mul(scalar, ring.add(ring.mul(a, v1), ring.mul(b, v2)))
        w2 = ring.mul(scalar, ring.add(ring.mul(c, v1), ring.mul(d, v2)))
        if xi == 1:
            perm.append(w1[0] * C + w2[0])
        else:
            perm.append(((w1[0] * C + w1[1]) * C + w2[0]) * C + w2[1])
    return np.array(perm)


@pytest.mark.parametrize("D,C", [(None, 3), (None, 4), (None, 6), (5, 2), (5, 3), (2, 3)])
def test_permutations_match_per_index_loop(D, C):
    """scale_by_residue and act_group move table entries by exactly the
    permutation of the per-index loop (a table of distinct entries shows it)."""
    from eisterm.classfield import ResidueRing

    K = construct_field(D)
    ring = ResidueRing(K, C)
    n = C ** (2 * K.degree)
    coeffs = np.zeros((n, C), dtype=np.int64)
    coeffs[:, 0] = np.arange(n)
    f = FractionalSchwartz(K, K.one, C, coeffs)
    rng = random.Random(C * 31 + (D or 0))
    for _ in range(4):
        r = rng.choice(ring.units())
        zero = (0, 0)
        got = scale_by_residue(r, f).coeffs[:, 0]
        assert np.array_equal(got, _image_reference(K, C, (r, zero, zero, r)))
        while True:
            mat = tuple(rng.choice(ring.elements()) for _ in range(4))
            det = ring.sub(ring.mul(mat[0], mat[3]), ring.mul(mat[1], mat[2]))
            if ring.is_unit(det):
                break
        g = [[K.elt(*mat[0]), K.elt(*mat[1])], [K.elt(*mat[2]), K.elt(*mat[3])]]
        assert np.array_equal(act_group(g, f).coeffs[:, 0], _image_reference(K, C, mat))
        assert np.array_equal(act_group(g, f, det_inverse=True).coeffs[:, 0],
                              _image_reference(K, C, mat, ring.inv(det)))


def test_serialization_roundtrip():
    rng = random.Random(6)
    f = rand_table(K5, 3, rng)
    fh = fourier_transform(f)
    text = serialize_schwartz(fh)
    g = parse_schwartz(text)
    assert g.equals(fh)
    assert g.scale == fh.scale


def test_twisted_wrapper():
    f = rand_s0_table(Q, 4, random.Random(3))
    tw = TwistedSchwartz(f, eta=None, n=1)
    assert is_S0(tw)
