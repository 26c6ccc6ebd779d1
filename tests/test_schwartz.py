import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eisterm.field import construct_field
from eisterm.schwartz import (
    det_norm_factor,
    CyclotomicValue,
    FractionalSchwartz,
    SchwartzError,
    TwistedSchwartz,
    act_group,
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
    assert trace_pairing(e1, e2).value == 2  # Tr(1) = 2
    assert trace_pairing(e1, e1).value == 0  # skew
    x = (K5.omega, K5.zero)
    y = (K5.zero, K5.one)
    assert trace_pairing(x, y).value == 1  # Tr(w) = 1


def test_trace_pairing_bilinear_skew():
    rng = random.Random(5)
    for _ in range(50):
        pts = [(K5.elt(rng.randint(-5, 5), rng.randint(-5, 5)),
                K5.elt(rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(3)]
        x, y, z = pts
        assert trace_pairing(x, y).value == -trace_pairing(y, x).value
        xz = (x[0] + z[0], x[1] + z[1])
        assert trace_pairing(xz, y).value == trace_pairing(x, y).value + trace_pairing(z, y).value


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
