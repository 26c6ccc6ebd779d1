"""Finite abelian groups, narrow and ray class groups, and their characters.

Ray class groups are realized through the exact sequence

    1 -> ((O/N)^x x {+-1}^xi) / im(O^x) -> Cl^(N) -> Cl^+ -> 1

at the narrow-class-number-one tier (the acceptance fields), built from the
explicit multiplication table and reduced to invariant factors.  Characters
are root-of-unity exponent vectors on the invariant-factor generators, so
enumeration and sign restriction are products over cyclic factors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .field import (
    FieldElement,
    FractionalIdeal,
    NumberField,
    fundamental_unit,
)


class ClassGroupError(ValueError):
    pass


# ---------------------------------------------------------------------------
# residue ring O/N


class ResidueRing:
    """O/N as pairs (a, b) mod N in the basis {1, w}; N >= 1."""

    def __init__(self, field: NumberField, N: int):
        if N < 1:
            raise ClassGroupError("N must be >= 1")
        self.field = field
        self.N = N
        self.tr = int(field.w_trace)
        self.nm = int(field.w_norm)

    @property
    def one(self):
        return (1 % self.N, 0)

    def reduce(self, x: FieldElement) -> tuple[int, int]:
        if x.a.denominator != 1 or x.b.denominator != 1:
            raise ClassGroupError("element not integral")
        return (int(x.a) % self.N, int(x.b) % self.N)

    def add(self, u, v):
        return ((u[0] + v[0]) % self.N, (u[1] + v[1]) % self.N)

    def sub(self, u, v):
        return ((u[0] - v[0]) % self.N, (u[1] - v[1]) % self.N)

    def mul(self, u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        """Product in O/N; the coordinates may be numpy arrays (broadcast)."""
        N = self.N
        a, b = u
        c, d = v
        bd = b * d
        return ((a * c - bd * self.nm) % N, (a * d + b * c + bd * self.tr) % N)

    def elements(self):
        if self.field.degree == 1:
            return [(a, 0) for a in range(self.N)]
        return [(a, b) for a in range(self.N) for b in range(self.N)]

    def norm(self, u: tuple[int, int]) -> int:
        a, b = u
        return (a * a + a * b * self.tr + b * b * self.nm) % self.N

    def is_unit(self, u) -> bool:
        return math.gcd(self.norm(u), self.N) == 1

    def units(self) -> list[tuple[int, int]]:
        return [u for u in self.elements() if self.is_unit(u)]

    def inv(self, u):
        a, b = u
        n = self.norm(u)
        ninv = pow(n, -1, self.N)
        conj = ((a + b * self.tr) % self.N, (-b) % self.N)
        return (conj[0] * ninv % self.N, conj[1] * ninv % self.N)

    def pow(self, u, k: int):
        if k < 0:
            return self.pow(self.inv(u), -k)
        r = self.one
        base = u
        while k:
            if k & 1:
                r = self.mul(r, base)
            base = self.mul(base, base)
            k >>= 1
        return r


# ---------------------------------------------------------------------------
# generic finite abelian structure (desk scale, order <= a few thousand)


def abelian_structure(elements, op, identity):
    """Invariant factors, generators and discrete logs of a finite abelian group.

    Greedy peeling: an element of maximal order generates a direct cyclic
    factor whose order is the group exponent; quotient generators lift to
    elements of the same order after correction inside the cyclic factor.
    Returns (invariants ascending, generators, dlog) with dlog[e] the exponent
    vector of e on the generators (same order as invariants).
    """
    elems = list(elements)
    if len(elems) == 1:
        return [], [], {elems[0]: ()}

    def pow_op(e, k):
        r, b = identity, e
        while k:
            if k & 1:
                r = op(r, b)
            b = op(b, b)
            k >>= 1
        return r

    def order_of(e):
        k, x = 1, e
        while x != identity:
            x = op(x, e)
            k += 1
        return k

    g1 = max(elems, key=order_of)
    m1 = order_of(g1)
    # cyclic subgroup and its dlog table
    cyc = {}
    x = identity
    for k in range(m1):
        cyc[x] = k
        x = op(x, g1)
    if m1 == len(elems):
        return [m1], [g1], {e: (cyc[e],) for e in elems}
    # quotient by <g1>: canonical coset labels
    coset_label = {}
    reps = []
    for e in elems:
        if e in coset_label:
            continue
        lab = len(reps)
        for k in range(m1):
            coset_label[op(e, pow_op(g1, k))] = lab
        reps.append(e)
    labels = list(range(len(reps)))

    def qop(i, j):
        return coset_label[op(reps[i], reps[j])]

    qid = coset_label[identity]
    # relabel so identity participates as a plain element
    sub_inv, sub_gens_labels, sub_dlog = abelian_structure(labels, qop, qid)
    # lift quotient generators: for each coset generator of order m, pick the
    # representative and correct by g1-powers so the lift has exact order m
    lifted = []
    for lab, m in zip(sub_gens_labels, [*sub_inv]):
        g = reps[lab]
        gm = pow_op(g, m)
        t = cyc[gm]  # g^m = g1^t, and m | t
        if t % m != 0:
            raise ClassGroupError("generator lift failed")
        g = op(g, pow_op(g1, (m1 - t // m) % m1))
        if order_of(g) != m:
            raise ClassGroupError("lifted generator has wrong order")
        lifted.append(g)
    # dlog of every element: quotient exponents, then residual in <g1>
    dlog = {}
    for e in elems:
        qexps = sub_dlog[coset_label[e]]
        r = e
        for g, k, m in zip(lifted, qexps, sub_inv):
            r = op(r, pow_op(g, (m - k) % m))
        dlog[e] = tuple(qexps) + (cyc[r],)
    invariants = list(sub_inv) + [m1]  # ascending divisibility: each divides next
    generators = lifted + [g1]
    return invariants, generators, dlog


class FiniteAbelianGroup:
    """Finite abelian group in invariant-factor form (ascending divisibility)."""

    def __init__(self, invariants: list[int], generators=None, dlog=None):
        self.invariants = [int(m) for m in invariants]
        self.generators = generators
        self.dlog = dlog or {}

    @property
    def order(self) -> int:
        return math.prod(self.invariants) if self.invariants else 1

    def coords(self, element) -> tuple[int, ...]:
        return self.dlog[element]

    def add(self, x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % m for a, b, m in zip(x, y, self.invariants))

    def zero(self):
        return tuple(0 for _ in self.invariants)

    def all_coords(self):
        if not self.invariants:
            return [()]
        return list(itertools.product(*(range(m) for m in self.invariants)))

    def serialize(self) -> dict:
        return {"invariants": self.invariants, "order": self.order}


# ---------------------------------------------------------------------------
# characters


class GroupCharacter:
    """Character of a FiniteAbelianGroup: exponent q_i in Q/Z per generator."""

    def __init__(self, group: FiniteAbelianGroup, exponents):
        self.group = group
        exps = []
        for q, m in zip(exponents, group.invariants):
            q = Fraction(q) % 1
            if (q * m).denominator != 1:
                raise ClassGroupError("character exponent incompatible with generator order")
            exps.append(q)
        self.exponents = tuple(exps)

    def exponent_at(self, coords) -> Fraction:
        q = Fraction(0)
        for c, e in zip(coords, self.exponents):
            q += c * e
        return q % 1

    def value(self, coords) -> complex:
        q = self.exponent_at(coords)
        return complex(math.cos(2 * math.pi * q), math.sin(2 * math.pi * q))

    def is_trivial(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def __mul__(self, other):
        return GroupCharacter(
            self.group, tuple((a + b) % 1 for a, b in zip(self.exponents, other.exponents))
        )

    def conj(self):
        return GroupCharacter(self.group, tuple((-a) % 1 for a in self.exponents))

    def __eq__(self, other):
        return isinstance(other, GroupCharacter) and self.exponents == other.exponents

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"GroupCharacter{self.exponents}"

    def serialize(self) -> dict:
        return {"exponents": [[e.numerator, e.denominator] for e in self.exponents]}


def all_characters(group: FiniteAbelianGroup) -> list[GroupCharacter]:
    if not group.invariants:
        return [GroupCharacter(group, ())]
    out = []
    for exps in itertools.product(*(range(m) for m in group.invariants)):
        out.append(
            GroupCharacter(group, tuple(Fraction(e, m) for e, m in zip(exps, group.invariants)))
        )
    return out


# ---------------------------------------------------------------------------
# narrow class group via reduced indefinite binary quadratic forms


def _reduced_indefinite_forms(disc: int):
    """Reduced primitive forms (a,b,c), b^2-4ac = disc > 0, exact comparisons."""
    forms = []
    s = math.isqrt(disc)
    for b in range(1, s + 1):
        if (disc - b * b) % 4 != 0:
            continue
        prod = (disc - b * b) // 4
        if prod <= 0:
            continue
        for a in range(1, prod + 1):
            if prod % a:
                continue
            for sa in (a, -a):
                c = -prod // sa
                ta = 2 * abs(sa)
                # reduced: sqrt(disc) - b < 2|a| < sqrt(disc) + b
                if disc < (ta + b) ** 2 and (ta - b) ** 2 < disc:
                    if math.gcd(math.gcd(sa, b), c) == 1:
                        forms.append((sa, b, c))
    return forms


def _rho_step(form):
    """Reduction operator rho(a,b,c) = (c, b', *); orbits = proper classes."""
    a, b, c = form
    disc = b * b - 4 * a * c
    s = math.isqrt(disc)
    ac = abs(c)
    best = None
    window = (s + ac) // (2 * ac) + abs(b) // (2 * ac) + 3
    for delta in range(-window, window + 1):
        bp = -b + 2 * c * delta
        ok = (-ac < bp <= ac) if ac > s else (s - 2 * ac < bp <= s)
        if ok:
            best = bp
            break
    if best is None:
        raise ClassGroupError(f"no reduction step for {form}")
    a2 = c
    c2 = (best * best - disc) // (4 * a2)
    return (a2, best, c2)


def narrow_class_group(field: NumberField) -> FiniteAbelianGroup:
    """Narrow class group Cl^+ from cycles of reduced indefinite forms.

    The cycle count is the narrow class number; small groups are reported as
    cyclic (sufficient for the desk-scale fields; every h+ <= 3 group is
    cyclic).  Ideal representatives, one per cycle, are attached for the
    partial-zeta assembly.
    """
    if field.degree == 1:
        g = FiniteAbelianGroup([], [], {(): ()})
        g.class_ideals = [FractionalIdeal.unit_ideal(field)]
        return g
    disc = field.discriminant
    forms = _reduced_indefinite_forms(disc)
    remaining = set(forms)
    cycles = []
    while remaining:
        f = min(remaining)
        cyc = [f]
        g = _rho_step(f)
        guard = 0
        while g != f:
            cyc.append(g)
            g = _rho_step(g)
            guard += 1
            if guard > 100000:
                raise ClassGroupError("form reduction cycle did not close")
        for x in cyc:
            remaining.discard(x)
        cycles.append(cyc)
    h_plus = len(cycles)
    ideals = [_form_to_ideal(field, cyc[0]) for cyc in cycles]
    group = FiniteAbelianGroup([] if h_plus == 1 else [h_plus])
    group.class_ideals = ideals
    return group


def _form_to_ideal(field: NumberField, form) -> FractionalIdeal:
    """Z-module a*Z + ((-b + sqrt(disc))/2) Z attached to the form (a,b,c)."""
    a, b, c = form
    if field.D % 4 == 1:
        beta = field.elt(Fraction(-b - 1, 2), 1)  # (-b + (2w-1))/2, b odd here
    else:
        beta = field.elt(Fraction(-b, 2), 1)  # (-b + 2w)/2, b even here
    return FractionalIdeal.from_generators(field, [field.elt(abs(a)), beta])


# ---------------------------------------------------------------------------
# ray class groups


class RayClassGroup:
    """Cl_F^(N) with idele-triple representatives (ideal, residue unit, signs)."""

    def __init__(self, field, N, group, ring, sign_count):
        self.field = field
        self.N = N
        self.group = group
        self.ring = ring
        self.sign_count = sign_count

    @property
    def order(self):
        return self.group.order

    def invariants(self):
        return self.group.invariants

    def coords_of_triple(self, ideal, residue, signs) -> tuple[int, ...]:
        """Class of an idele triple; the ideal part must be principal here."""
        signs = tuple(signs)
        if len(signs) != self.sign_count:
            raise ClassGroupError("sign vector has wrong length")
        if ideal is not None and ideal != FractionalIdeal.unit_ideal(self.field):
            g = ideal.principal_generator()
            if g is None:
                raise ClassGroupError("nonprincipal ideal at narrow-class-number-one tier")
            gres = self.ring.reduce(g)
            if not self.ring.is_unit(gres):
                raise ClassGroupError("ideal not coprime to N")
            # divide the idele by the global element g
            residue = self.ring.mul(residue, self.ring.inv(gres))
            gsigns = self._signs_of(g)
            signs = tuple(s * t for s, t in zip(signs, gsigns))
        return self.class_of_residue(residue, signs)

    def class_of_residue(self, residue, signs=None) -> tuple[int, ...]:
        """Class of the idele with trivial ideal part, unit residue mod N and
        the given signs at the real places (all positive by default)."""
        if signs is None:
            signs = (1,) * self.sign_count
        return self.group.dlog[(residue, tuple(signs))]

    def representatives(self) -> list:
        """One (residue, signs) pair per ray class, in coordinate order."""
        reps = {}
        for key, coords in self.group.dlog.items():
            reps.setdefault(coords, key)
        return [reps[c] for c in sorted(reps)]

    def _signs_of(self, x: FieldElement):
        if self.field.degree == 1:
            return (1 if x.a > 0 else -1,)
        return (x.sign_embedding(0), x.sign_embedding(1))

    def class_of_element(self, x: FieldElement) -> tuple[int, ...]:
        """Class of the principal idele x embedded at the finite places."""
        res = self.ring.reduce(x)
        if not self.ring.is_unit(res):
            raise ClassGroupError("element not coprime to N")
        return self.class_of_residue(res, self._signs_of(x))

    def class_of_ideal(self, ideal: FractionalIdeal) -> tuple[int, ...]:
        """Ray class of an ideal coprime to N: the class of the triple (ideal, 1, +)."""
        return self.coords_of_triple(ideal, self.ring.one, (1,) * self.sign_count)

    def serialize(self) -> dict:
        return {
            "invariants": self.group.invariants,
            "order": self.order,
            "N": self.N,
            "D": None if self.field.degree == 1 else self.field.D,
        }


def ray_class_group(field: NumberField, N: int) -> RayClassGroup:
    """Construct Cl_F^(N); requires narrow class number 1 (the acceptance tier)."""
    if N < 1:
        raise ClassGroupError("invalid level N")
    narrow = narrow_class_group(field)
    if narrow.order != 1:
        raise ClassGroupError(
            f"ray class groups implemented for narrow class number 1 (got h+={narrow.order})"
        )
    ring = ResidueRing(field, N)
    xi = 1 if field.degree == 1 else 2
    sign_vectors = list(itertools.product(*([[1, -1]] * xi)))
    elements = [(u, s) for u in ring.units() for s in sign_vectors]

    def op(x, y):
        return (ring.mul(x[0], y[0]), tuple(a * b for a, b in zip(x[1], y[1])))

    identity = (ring.one, tuple([1] * xi))
    unit_gens = [(ring.reduce(field.elt(-1)), tuple([-1] * xi))]
    if field.degree == 2:
        eps, _ = fundamental_unit(field)
        unit_gens.append((ring.reduce(eps), (eps.sign_embedding(0), eps.sign_embedding(1))))
    subgroup = {identity}
    frontier = [identity]
    while frontier:
        x = frontier.pop()
        for g in unit_gens:
            y = op(x, g)
            if y not in subgroup:
                subgroup.add(y)
                frontier.append(y)
    coset_of = {}
    reps = []
    for e in elements:
        if e in coset_of:
            continue
        lab = len(reps)
        for s in subgroup:
            coset_of[op(e, s)] = lab
        reps.append(e)
    labels = list(range(len(reps)))

    def qop(i, j):
        return coset_of[op(reps[i], reps[j])]

    factors, qgen_labels, dlog = abelian_structure(labels, qop, coset_of[identity])
    group = FiniteAbelianGroup(factors, [reps[l] for l in qgen_labels],
                               {e: dlog[coset_of[e]] for e in elements})
    rc = RayClassGroup(field, N, group, ring, xi)
    rc.generator_triples = [
        (FractionalIdeal.unit_ideal(field), reps[l][0], reps[l][1]) for l in qgen_labels
    ]
    return rc


def characters_with_sign(rc: RayClassGroup, m: int) -> list[GroupCharacter]:
    """Characters with restriction to the sign component equal to sgn(Norm)^m."""
    xi = rc.sign_count
    flips = []
    for i in range(xi):
        s = tuple(-1 if j == i else 1 for j in range(xi))
        flips.append(rc.class_of_residue(rc.ring.one, s))
    target = Fraction(m, 2) % 1
    return [
        chi for chi in all_characters(rc.group)
        if all(chi.exponent_at(f) == target for f in flips)
    ]


# ---------------------------------------------------------------------------
# Hecke character data


class HeckeCharacterData:
    """(eta, chi', m, n): torus character data with finite part
    phi~_f(t1,t2) = eta(t1 t2) chi'(t2) ||t2||_f^(m+2) sgn(N t2)^(m+2)."""

    def __init__(self, rc: RayClassGroup, eta: GroupCharacter, chi_prime: GroupCharacter,
                 m: int, n: int = 0):
        self.rc = rc
        self.eta = eta
        self.chi_prime = chi_prime
        self.m = m
        self.n = n

    def is_spherical_type(self) -> bool:
        """Restriction to the norm-one torus is ||.||^2: m = 0 and chi' trivial."""
        return self.m == 0 and self.chi_prime.is_trivial()

    def phi_tilde_exponent(self, t1_class, t2_class) -> Fraction:
        g = self.rc.group
        return (self.eta.exponent_at(g.add(t1_class, t2_class))
                + self.chi_prime.exponent_at(t2_class)) % 1

    def phi_tilde_value(self, t1_class, t2_class, t2_norm_f=Fraction(1),
                        t2_norm_sign: int = 1) -> complex:
        q = self.phi_tilde_exponent(t1_class, t2_class)
        root = complex(math.cos(2 * math.pi * q), math.sin(2 * math.pi * q))
        k = self.m + 2
        return root * (float(t2_norm_f) ** k) * (t2_norm_sign ** k)

    def serialize(self) -> dict:
        return {
            "eta": self.eta.serialize(),
            "chi_prime": self.chi_prime.serialize(),
            "m": self.m,
            "n": self.n,
        }


# ---------------------------------------------------------------------------
# brute-force oracle: ray classes by ideal enumeration (tests, small fields)


def brute_force_ray_class_count(field: NumberField, N: int, norm_bound: int = 120) -> int:
    """Count ray classes by enumerating principal ideals coprime to N and
    grouping generators by their unit-orbit invariant (h+ = 1 fields)."""
    ring = ResidueRing(field, N)
    if field.degree == 1:
        reps = set()
        for a in range(1, norm_bound):
            if math.gcd(a, N) == 1:
                reps.add(a % N)  # positive generator normalizes the sign
        return len(reps)
    eps, _ = fundamental_unit(field)
    unit_orbit = []
    for k in range(-6, 7):
        for sgn in (1, -1):
            unit_orbit.append(field.elt(sgn) * eps ** k)
    seen = set()
    for a in range(-norm_bound, norm_bound + 1):
        for b in range(-norm_bound, norm_bound + 1):
            x = field.elt(a, b)
            if not x:
                continue
            n = abs(x.norm())
            if n > norm_bound or math.gcd(int(n), N) != 1:
                continue
            orbit_keys = set()
            for u in unit_orbit:
                y = x * u
                key = (ring.reduce(y), (y.sign_embedding(0), y.sign_embedding(1)))
                orbit_keys.add(key)
            seen.add(frozenset(orbit_keys))
    return len(seen)
