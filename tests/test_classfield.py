import math
import random
from fractions import Fraction

import pytest

from eisterm.classfield import (
    ClassGroupError,
    HeckeCharacterData,
    ResidueRing,
    abelian_structure,
    all_characters,
    brute_force_ray_class_count,
    characters_with_sign,
    narrow_class_group,
    ray_class_group,
)
from eisterm.field import construct_field


def test_abelian_structure_cyclic():
    elems = list(range(12))
    inv, gens, dlog = abelian_structure(elems, lambda a, b: (a + b) % 12, 0)
    assert inv == [12]
    assert sorted(dlog[g][0] for g in elems) == list(range(12))


def test_abelian_structure_product():
    elems = [(a, b) for a in range(4) for b in range(6)]
    inv, gens, dlog = abelian_structure(
        elems, lambda x, y: ((x[0] + y[0]) % 4, (x[1] + y[1]) % 6), (0, 0)
    )
    assert inv == [2, 12]
    assert math.prod(inv) == 24


def test_residue_ring_f9():
    K = construct_field(5)
    R = ResidueRing(K, 3)
    units = R.units()
    assert len(units) == 8  # F_9^x
    w = R.reduce(K.omega)
    # order of w in F_9^x is 8
    x, k = w, 1
    while x != R.one:
        x = R.mul(x, w)
        k += 1
    assert k == 8
    for u in units:
        assert R.mul(u, R.inv(u)) == R.one


@pytest.mark.parametrize("D,expected", [(5, 1), (2, 1), (3, 2)])
def test_narrow_class_group_examples(D, expected):
    K = construct_field(D)
    g = narrow_class_group(K)
    assert g.order == expected


def test_narrow_class_numbers_more():
    # classical narrow class numbers for small discs
    expected = {6: 2, 7: 2, 10: 2, 11: 2, 13: 1, 15: 4, 14: 2, 17: 1}
    for D, h in expected.items():
        assert narrow_class_group(construct_field(D)).order == h, D


def test_ray_class_group_rational():
    Q = construct_field(None)
    for N in range(3, 13):
        rc = ray_class_group(Q, N)
        phi = sum(1 for a in range(1, N) if math.gcd(a, N) == 1)
        assert rc.order == phi, N
    rc5 = ray_class_group(Q, 5)
    assert rc5.group.invariants == [4]


def test_ray_class_group_d5():
    K = construct_field(5)
    assert ray_class_group(K, 1).order == 1
    rc = ray_class_group(K, 3)
    assert rc.order == 2
    assert brute_force_ray_class_count(K, 3) == 2


def test_ray_class_group_brute_force_more():
    Q = construct_field(None)
    for N in (3, 4, 5, 8):
        assert brute_force_ray_class_count(Q, N) == ray_class_group(Q, N).order
    K2 = construct_field(2)
    for N in (3, 4):
        assert brute_force_ray_class_count(K2, N, 80) == ray_class_group(K2, N).order


def test_ray_class_units_map_to_identity():
    K = construct_field(5)
    rc = ray_class_group(K, 3)
    from eisterm.field import fundamental_unit, totally_positive_unit

    eps, _ = fundamental_unit(K)
    for u in (eps, totally_positive_unit(K), K.elt(-1)):
        assert rc.class_of_element(u) == rc.group.zero()


def test_class_map_is_homomorphism_random():
    rng = random.Random(11)
    K = construct_field(5)
    rc = ray_class_group(K, 3)
    pool = []
    while len(pool) < 40:
        x = K.elt(rng.randint(-9, 9), rng.randint(-9, 9))
        if x and math.gcd(int(abs(x.norm())), 3) == 1:
            pool.append(x)
    for _ in range(200):
        x, y = rng.choice(pool), rng.choice(pool)
        cx = rc.class_of_element(x)
        cy = rc.class_of_element(y)
        assert rc.class_of_element(x * y) == rc.group.add(cx, cy)


def test_character_duality_and_orthogonality():
    K = construct_field(5)
    for rc in (ray_class_group(K, 3), ray_class_group(construct_field(None), 8)):
        chars = all_characters(rc.group)
        assert len(chars) == rc.order
        for chi in chars:
            for chip in chars:
                s = Fraction(0)
                total = 0
                acc = {}
                for g in rc.group.all_coords():
                    q = (chi.exponent_at(g) - chip.exponent_at(g)) % 1
                    acc[q] = acc.get(q, 0) + 1
                # sum of roots of unity is |G| iff chi == chip, else exactly 0
                if chi == chip:
                    assert acc == {Fraction(0): rc.order}
                else:
                    # grouped exponents must cancel: full orbits of a nontrivial root
                    assert _cyclotomic_sum_is_zero(acc)


def _cyclotomic_sum_is_zero(acc):
    import cmath

    z = sum(cnt * cmath.exp(2j * cmath.pi * float(q)) for q, cnt in acc.items())
    return abs(z) < 1e-9


def test_characters_with_sign_examples():
    Q = construct_field(None)
    rc1 = ray_class_group(Q, 1)
    assert len(characters_with_sign(rc1, 0)) == 1
    assert characters_with_sign(rc1, 0)[0].is_trivial()
    assert characters_with_sign(rc1, 1) == []
    rc3 = ray_class_group(Q, 3)
    odd = characters_with_sign(rc3, 1)
    assert len(odd) == 1
    even = characters_with_sign(rc3, 0)
    assert len(even) == 1 and even[0].is_trivial()


def test_sign_partition():
    """Every character satisfies exactly one sign-restriction pattern: the
    diagonal conditions m in {0,1} for xi = 1, the four per-place patterns
    for xi = 2 (of which sgn(Norm)^m picks the two diagonal ones)."""
    for field, N in [(construct_field(None), 12), (construct_field(5), 3),
                     (construct_field(5), 4), (construct_field(2), 4)]:
        rc = ray_class_group(field, N)
        even = set(characters_with_sign(rc, 0))
        odd = set(characters_with_sign(rc, 1))
        allc = set(all_characters(rc.group))
        assert not (even & odd)
        if rc.sign_count == 1:
            assert even | odd == allc
        else:
            # classify by the value pattern on the two place flips
            flips = [rc.class_of_residue(rc.ring.one, s) for s in ((-1, 1), (1, -1))]
            buckets = {}
            for chi in allc:
                key = tuple(chi.exponent_at(f) for f in flips)
                buckets.setdefault(key, set()).add(chi)
            # every character lies in exactly one of the four patterns
            assert sum(len(v) for v in buckets.values()) == len(allc)
            assert len(buckets) <= 4
            assert buckets.get((Fraction(0), Fraction(0)), set()) == even
            assert buckets.get((Fraction(1, 2), Fraction(1, 2)), set()) == odd


def test_hecke_character_type_constraint():
    """phi(t1,t2) = eta(t1 t2) chi'(t2) ||t2||^(m+2) has type gamma_{m,1} at
    totally positive real points: value = N(t2)^(m+2)."""
    rng = random.Random(3)
    K = construct_field(5)
    rc = ray_class_group(K, 3)
    chars = all_characters(rc.group)
    for m in (0, 1, 2):
        data = HeckeCharacterData(rc, chars[-1], chars[0], m)
        for _ in range(20):
            # totally positive real torus points: finite part trivial
            t2n = Fraction(rng.randint(1, 50), rng.randint(1, 50))
            v = data.phi_tilde_value(rc.group.zero(), rc.group.zero(), t2n, 1)
            assert abs(v - float(t2n) ** (m + 2)) < 1e-9


def test_ray_class_group_rejects_zero_level():
    with pytest.raises(ClassGroupError):
        ray_class_group(construct_field(None), 0)


def test_class_of_ideal_principal():
    K = construct_field(5)
    rc = ray_class_group(K, 3)
    from eisterm.field import FractionalIdeal, split_prime

    # (11) splits; classes of its primes must multiply to the class of (11)
    rec = split_prime(K, 11)
    p1, p2 = rec["primes"]
    c1 = rc.class_of_ideal(p1)
    c2 = rc.class_of_ideal(p2)
    c11 = rc.class_of_ideal(FractionalIdeal.principal(K, K.elt(11)))
    assert rc.group.add(c1, c2) == c11


def test_coords_of_triple_with_principal_ideal_part():
    """A triple with a principal ideal part reduces to the residue/sign data
    of the idele divided by a generator."""
    K = construct_field(5)
    rc = ray_class_group(K, 3)
    from eisterm.field import FractionalIdeal

    g = K.elt(4, 1)  # norm 19, coprime to 3
    ideal = FractionalIdeal.principal(K, g)
    one = rc.ring.one
    plus = (1, 1)
    via_triple = rc.coords_of_triple(ideal, one, plus)
    # class of the idele (ideal, 1, +) equals the class computed directly
    assert via_triple == rc.class_of_ideal(ideal)
    # homomorphism in the residue slot
    r = rc.ring.reduce(K.elt(2, 0))
    c1 = rc.coords_of_triple(None, r, plus)
    c2 = rc.coords_of_triple(ideal, r, plus)
    assert c2 == rc.group.add(via_triple, c1)


def test_class_of_ideal_not_coprime_to_level():
    """The prime above 3 of Q(sqrt5) (inert, norm 9) has no class mod 3: a
    ClassGroupError, where ResidueRing.inv used to raise a bare ValueError."""
    from eisterm.field import prime_ideals_up_to

    K = construct_field(5)
    rc = ray_class_group(K, 3)
    primes = prime_ideals_up_to(K, 100)
    above3 = [(n, ideal) for n, ideal in primes if ideal.contains(K.elt(3))]
    assert [n for n, _ in above3] == [9]
    with pytest.raises(ClassGroupError, match="coprime"):
        rc.class_of_ideal(above3[0][1])
    with pytest.raises(ClassGroupError, match="coprime"):
        rc.coords_of_triple(above3[0][1], rc.ring.one, (1, 1))
    classes = set(rc.group.all_coords())
    for n, ideal in primes:
        if (n, ideal) not in above3:
            assert rc.class_of_ideal(ideal) in classes


@pytest.mark.parametrize("D,N", [(None, 8), (5, 3), (2, 4)])
def test_class_of_residue_and_representatives(D, N):
    """One representative per class, in coordinate order, and class_of_residue
    agrees with the triple and element lookups it serves."""
    K = construct_field(D)
    rc = ray_class_group(K, N)
    reps = rc.representatives()
    assert [rc.class_of_residue(u, s) for u, s in reps] == rc.group.all_coords()
    plus = (1,) * rc.sign_count
    for u in rc.ring.units():
        assert rc.class_of_residue(u) == rc.class_of_residue(u, plus)
        assert rc.class_of_residue(u) == rc.coords_of_triple(None, u, plus)
    for a in range(1, 30):
        if math.gcd(a, N) == 1:
            x = K.elt(a)
            assert rc.class_of_element(x) == rc.class_of_residue(rc.ring.reduce(x))
