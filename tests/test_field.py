import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eisterm.field import (
    FieldError,
    DegenerateFieldError,
    FractionalIdeal,
    construct_field,
    fundamental_unit,
    split_prime,
    totally_positive_unit,
    unit_subgroup_generator,
)


def test_construct_field_d5():
    K = construct_field(5)
    assert K.discriminant == 5
    w = K.omega
    # w = (1+sqrt5)/2 satisfies w^2 = w + 1
    assert w * w == w + 1
    delta = K.different_generator
    assert delta == 2 * w - 1
    assert delta * delta == K.elt(5)


def test_construct_field_d2():
    K = construct_field(2)
    assert K.discriminant == 8
    delta = K.different_generator
    assert delta * delta == K.elt(8)
    assert abs(delta.norm()) == 8


def test_construct_field_rejects_non_squarefree():
    with pytest.raises(FieldError):
        construct_field(12)
    with pytest.raises(FieldError):
        construct_field(1)


def test_rational_field_degenerate():
    Q = construct_field(None)
    assert Q.degree == 1
    assert Q.discriminant == 1
    assert Q.different_generator == Q.one
    with pytest.raises(DegenerateFieldError):
        fundamental_unit(Q)


@pytest.mark.parametrize(
    "D,coords,nsign",
    [
        (2, (1, 1), -1),   # 1 + sqrt2
        (5, (0, 1), -1),   # (1+sqrt5)/2 = w
        (3, (2, 1), 1),    # 2 + sqrt3
    ],
)
def test_fundamental_unit_examples(D, coords, nsign):
    K = construct_field(D)
    u, s = fundamental_unit(K)
    assert (u.a, u.b) == (Fraction(coords[0]), Fraction(coords[1]))
    assert s == nsign


@pytest.mark.parametrize("D", [d for d in range(2, 51) if all(d % (p * p) for p in range(2, 8))])
def test_fundamental_unit_pell_minimality(D):
    """No unit strictly between 1 and eps in the first embedding (box search).

    Enumerates x = a + b*w with 1 < sigma_1(x) <= sigma_1(eps); any unit in
    that box must be eps itself.  Boxes are capped so the quadratic sweep
    stays at desk scale (all D <= 50 with moderate units are fully covered).
    """
    K = construct_field(D)
    u, _ = fundamental_unit(K)
    assert abs(u.norm()) == 1
    s1 = u.embed_float()[0]
    assert s1 > 1
    if s1 > 600:
        pytest.skip(f"unit too large for box enumeration at D={D}")
    bound_b = int(s1) + 2
    # the box b in [0, bound_b], a in [-bound_b - 2, bound_b + 2] as int64
    # grids; x = a + b*w has norm a^2 + a b Tr(w) + b^2 N(w) and first
    # embedding (a + b wx) + b wy sqrt(D) for w = wx + wy sqrt(D)
    b, a = np.meshgrid(np.arange(0, bound_b + 1), np.arange(-bound_b - 2, bound_b + 3),
                       indexing="ij")
    norm = a * a + a * b * int(K.w_trace) + b * b * int(K.w_norm)
    wx, wy = K.omega.sqrtD_coords()
    e1 = (a + b * float(wx)) + (b * float(wy)) * math.sqrt(D)
    hit = (np.abs(norm) == 1) & (1 + 1e-9 < e1) & (e1 <= s1 + 1e-9)
    assert list(zip(a[hit].tolist(), b[hit].tolist())) == [(int(u.a), int(u.b))]


def test_totally_positive_unit():
    K5 = construct_field(5)
    ep = totally_positive_unit(K5)
    w = K5.omega
    assert ep == w * w
    assert ep.is_totally_positive()
    K3 = construct_field(3)
    assert totally_positive_unit(K3) == fundamental_unit(K3)[0]


def test_unit_subgroup_generator_d5():
    K = construct_field(5)
    w = K.omega
    eN, k = unit_subgroup_generator(K, 1)
    assert eN == w * w and k == 1
    eN3, k3 = unit_subgroup_generator(K, 3)
    assert eN3 == w ** 8
    assert k3 == 4
    assert eN3.a % 3 == 1 and eN3.b % 3 == 0
    assert eN3.is_totally_positive()


def test_unit_subgroup_rational():
    Q = construct_field(None)
    eN, k = unit_subgroup_generator(Q, 7)
    assert eN == Q.one and k == 1


def test_split_prime_examples():
    K = construct_field(5)
    rec = split_prime(K, 3)
    assert rec["type"] == "inert"
    assert rec["norms"] == [9]
    rec = split_prime(K, 5)
    assert rec["type"] == "ramified"
    assert rec["norms"] == [5]
    rec = split_prime(K, 11)
    assert rec["type"] == "split"
    assert rec["norms"] == [11, 11]
    assert rec["primes"][0] != rec["primes"][1]
    with pytest.raises(FieldError):
        split_prime(K, 12)


def brute_force_split_type(D, p):
    """Factor pO by counting roots of the minimal polynomial of w mod p."""
    K = construct_field(D)
    tr, nm = int(K.w_trace), int(K.w_norm)
    roots = [r for r in range(p) if (r * r - tr * r + nm) % p == 0]
    disc = K.discriminant
    if disc % p == 0:
        return "ramified"
    return "split" if roots else "inert"


def test_split_prime_brute_force_agreement():
    from sympy import primerange

    for D in [d for d in range(2, 51) if all(d % (q * q) for q in range(2, 8))]:
        K = construct_field(D)
        for p in primerange(2, 101):
            rec = split_prime(K, p)
            assert rec["type"] == brute_force_split_type(D, p), (D, p)
            for ideal, n in zip(rec["primes"], rec["norms"]):
                assert ideal.norm() == n
                # p*O contained in each prime above p
                assert ideal.contains(K.elt(p))


def test_ideal_norm_examples():
    K = construct_field(5)
    one = FractionalIdeal.unit_ideal(K)
    assert one.norm() == 1
    delta_ideal = FractionalIdeal.principal(K, K.different_generator)
    assert delta_ideal.norm() == 5
    inert3 = split_prime(K, 3)["primes"][0]
    assert inert3.norm() == 9


def test_ideal_norm_multiplicative_random():
    rng = random.Random(20240811)
    K = construct_field(5)
    primes = [split_prime(K, p)["primes"][0] for p in (3, 7, 11, 13, 19, 29)]
    for _ in range(100):
        i1 = rng.choice(primes) * rng.choice(primes)
        i2 = rng.choice(primes)
        assert (i1 * i2).norm() == i1.norm() * i2.norm()


def test_ideal_inverse_and_membership():
    K = construct_field(5)
    g = K.elt(3, 1)
    I = FractionalIdeal.principal(K, g)
    J = I.inverse()
    assert I * J == FractionalIdeal.unit_ideal(K)
    assert I.contains(g)
    assert I.contains(g * K.omega)
    assert not I.contains(K.one) or abs(g.norm()) == 1


def test_principal_generator_recovery():
    K = construct_field(5)
    for coords in [(3, 1), (2, 5), (7, -2)]:
        g = K.elt(*coords)
        I = FractionalIdeal.principal(K, g)
        h = I.principal_generator()
        assert h is not None
        # h differs from g by a unit
        assert FractionalIdeal.principal(K, h) == I


def test_trace_norm_vs_embeddings_random():
    rng = random.Random(7)
    for D in (2, 3, 5, 13):
        K = construct_field(D)
        for _ in range(200):
            x = K.elt(Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                      Fraction(rng.randint(-50, 50), rng.randint(1, 9)))
            y = K.elt(rng.randint(-20, 20), rng.randint(-20, 20))
            s1, s2, err = (x * y).embed(96)
            assert abs(float(s1 + s2) - float((x * y).trace())) < 1e-20 + float(err) * 4
            t1, t2, _ = x.embed(96)
            assert abs(float(t1 * t2) - float(x.norm())) < 1e-18 * (1 + abs(float(x.norm())))


def test_exact_sign_embedding():
    K = construct_field(5)
    w = K.omega
    assert w.sign_embedding(0) == 1
    assert w.sign_embedding(1) == -1  # (1-sqrt5)/2 < 0
    assert (w - 2).sign_embedding(0) == -1
    assert (2 * w - 1).sign_embedding(1) == -1  # -sqrt5
    assert K.zero.sign_embedding(0) == 0
