"""The horospherical map, Lambda_N, spherical functions and the averaging
projector over SL2(O/N), and the constructive preimage.

The map is evaluated through the unfolded orbit sum

    rho(phi)(g) = c_N * sum_{l in F^x/O^x(N)+} fhat(ghat l e1) / N(l)^(m+2),
    c_N = h_N Gamma(m+2)^xi / ((-2 pi i)^(xi(m+2)) 2^xi sqrt(d_F) Phi(N)),

with Phi(N) = |(O/N)^x| (the multiplicative volume of the level subgroup),
which agrees with the sum over sign-constrained ray characters of the finite
Tate integrals.  ghat e1 only moves the highest-weight line, so one vector of
per-class norm-power sums serves every group translate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from sympy import factorint

from .field import NumberField, construct_field, fundamental_unit, totally_positive_unit
from .classfield import (
    GroupCharacter,
    HeckeCharacterData,
    RayClassGroup,
    ResidueRing,
    all_characters,
)
from .schwartz import (
    ComplexSchwartz,
    TwistedSchwartz,
    _index_grid,
    complex_fourier_transform,
    fourier_transform,
    is_S0,
)
from .eisenstein import PreconditionError, _slab_class_sums, rank1_class_sums, rank2_class_sums


class HorosphericalError(ValueError):
    pass


class ResourceError(HorosphericalError):
    pass


# ---------------------------------------------------------------------------
# finite matrix groups over O/N


class MatrixGroup:
    """GL2(O/N) with its SL2 subgroup, enumerated at desk scale."""

    SL2_BUDGET = 200_000  # matrices scanned: |O/N|^4 = N^(4 degree)

    def __init__(self, field: NumberField, N: int):
        self.field = field
        self.N = N
        self.ring = ResidueRing(field, N)
        scanned = N ** (4 * field.degree)
        if scanned > self.SL2_BUDGET:
            raise ResourceError(
                f"SL2(O/{N}) enumeration beyond the desk budget "
                f"(|O/N|^4 = {scanned} > {self.SL2_BUDGET})"
            )
        self._enumerate()

    def _enumerate(self):
        ring = self.ring
        elems = ring.elements()
        gl, sl = [], []
        self._completions = {}  # first column -> first gl2 element with it
        for a in elems:
            for b in elems:
                for c in elems:
                    for d in elems:
                        det = ring.sub(ring.mul(a, d), ring.mul(b, c))
                        if not ring.is_unit(det):
                            continue
                        mat = (a, b, c, d)
                        gl.append(mat)
                        self._completions.setdefault((a, c), mat)
                        if det == ring.one:
                            sl.append(mat)
        self.gl2 = gl
        self.sl2 = sl

    def det(self, mat):
        ring = self.ring
        a, b, c, d = mat
        return ring.sub(ring.mul(a, d), ring.mul(b, c))

    def mul(self, m1, m2):
        ring = self.ring
        a, b, c, d = m1
        e, f, g, h = m2
        return (
            ring.add(ring.mul(a, e), ring.mul(b, g)),
            ring.add(ring.mul(a, f), ring.mul(b, h)),
            ring.add(ring.mul(c, e), ring.mul(d, g)),
            ring.add(ring.mul(c, f), ring.mul(d, h)),
        )

    def inv(self, mat):
        ring = self.ring
        a, b, c, d = mat
        di = ring.inv(self.det(mat))
        return (ring.mul(di, d), ring.sub((0, 0), ring.mul(di, b)),
                ring.sub((0, 0), ring.mul(di, c)), ring.mul(di, a))

    def hat_inverse_column(self, mat, ring=None):
        """ghat^-1 e1 = det(g)^-1 (first column of g): the direction moved
        along the highest-weight line by the group element.  ring selects the
        modulus (defaults to the group's own); mat entries are taken as the
        canonical integral lift."""
        ring = ring or self.ring
        a, b, c, d = mat
        di = ring.inv(ring.sub(ring.mul(a, d), ring.mul(b, c)))
        return (ring.mul(di, a), ring.mul(di, c))

    def primitive_vectors(self):
        """Columns (v1, v2) extendable to GL2, sorted: one per G/P coset."""
        return sorted(self._completions)

    def completion_matrix(self, v):
        """The first element of gl2 with first column v."""
        mat = self._completions.get(v)
        if mat is None:
            raise HorosphericalError("vector is not primitive")
        return mat


@lru_cache(maxsize=None)
def matrix_group(degree: int, D: int, N: int) -> MatrixGroup:
    return MatrixGroup(construct_field(None if degree == 1 else D), N)


def _lift_matrix(mat, N: int, C: int):
    """Lift a mod-N matrix to a mod-C matrix invertible at every prime of C:
    the canonical entries where the primes of C divide N, the identity at the
    new primes (CRT coordinatewise on the omega-basis)."""
    if C == N:
        return mat
    # split C into the part sharing primes with N and the rest
    Npart = math.prod(p ** e for p, e in factorint(C).items() if N % p == 0)
    R = C // Npart
    if R == 1:
        return mat  # same primes: unit determinants lift to units
    ident = ((1, 0), (0, 0), (0, 0), (1, 0))
    # x = u mod Npart, x = v mod R, coordinatewise
    eR = R * pow(R, -1, Npart)
    eN = Npart * pow(Npart, -1, R)
    return tuple(tuple((u % Npart * eR + v * eN) % C for u, v in zip(entry, ide))
                 for entry, ide in zip(mat, ident))


def sl2_order(field: NumberField, N: int) -> int:
    return len(matrix_group(field.degree, field.D, N).sl2)


# ---------------------------------------------------------------------------
# induced functions and the spherical projector


class IndFunction:
    """Function on G(O/N) with the right Borel transformation law
    psi(x b) = psi(x) * eta(t1 t2) chi'(t2) for b upper triangular."""

    def __init__(self, group: MatrixGroup, data: HeckeCharacterData, table: dict):
        self.group = group
        self.data = data
        self.table = table

    def value(self, mat) -> complex:
        return self.table[mat]

    def check_law(self, samples: int = 50, seed: int = 0) -> bool:
        import random

        rng = random.Random(seed)
        ring = self.group.ring
        units = ring.units()
        mats = self.group.gl2
        for _ in range(samples):
            x = rng.choice(mats)
            t1, t2 = rng.choice(units), rng.choice(units)
            u = rng.choice(ring.elements())
            b = (t1, ring.mul(t1, u), (0, 0), t2)
            xb = self.group.mul(x, b)
            lhs = self.table[xb]
            rhs = self.table[x] * _borel_factor(self.data, t1, t2)
            if abs(lhs - rhs) > 1e-9 * (1 + abs(lhs)):
                return False
        return True


def _borel_factor(data: HeckeCharacterData, t1, t2) -> complex:
    """phi~_f(t1, t2) = eta(t1 t2) chi'(t2) at unit residues with positive signs."""
    rc = data.rc
    return data.phi_tilde_value(rc.class_of_residue(t1), rc.class_of_residue(t2))


def spherical_function(group: MatrixGroup, data: HeckeCharacterData) -> IndFunction:
    """S(phi): 1 on SL2, extended by the Borel law; needs spherical type."""
    if not data.is_spherical_type():
        raise HorosphericalError("S(phi) requires m = 0 and trivial chi'")
    ring = group.ring
    table = {}
    for mat in group.gl2:
        det = group.det(mat)
        # mat = x * diag(1, det) with x in SL2: S = eta(det) chi'(det)
        table[mat] = _borel_factor(data, ring.one, det)
    return IndFunction(group, data, table)


def induced_from_coset_values(group: MatrixGroup, data: HeckeCharacterData,
                              coset_values) -> IndFunction:
    """Build psi from free values on G/B cosets, extended by the law.

    coset_values: list of complex, one per projective primitive column class
    (deterministic enumeration order).
    """
    cosets = _borel_cosets(group)
    keys = sorted(cosets)
    if len(coset_values) != len(keys):
        raise HorosphericalError(f"need {len(keys)} coset values")
    table = {}
    for key, val in zip(keys, coset_values):
        rep = min(cosets[key])
        rep_inv = group.inv(rep)
        for mat in cosets[key]:
            b = group.mul(rep_inv, mat)  # upper triangular
            if b[2] != (0, 0):
                raise HorosphericalError("coset decomposition failed")
            t1, t2 = b[0], b[3]
            table[mat] = val * _borel_factor(data, t1, t2)
    return IndFunction(group, data, table)


def _borel_cosets(group: MatrixGroup) -> dict:
    """G/B cosets of gl2 (in gl2 order), keyed by the projective class of the
    first column: its least multiple by a unit."""
    ring = group.ring
    units = ring.units()
    cosets = {}
    for mat in group.gl2:
        key = min((ring.mul(t, mat[0]), ring.mul(t, mat[2])) for t in units)
        cosets.setdefault(key, []).append(mat)
    return cosets


def coset_count(group: MatrixGroup) -> int:
    return len(_borel_cosets(group))


def psi_project(psi: IndFunction):
    """Averaging projector onto the spherical line: the exact mean of the
    table over SL2(O/N); idempotent on spherical inputs."""
    group = psi.group
    n = len(group.sl2)
    acc = 0j
    for s in group.sl2:
        acc += psi.table[s]
    coeff = acc / n
    return coeff, psi.data


# ---------------------------------------------------------------------------
# Lambda_N from ray-class partial zeta values


@lru_cache(maxsize=None)
def _slab_ideal_sums(D: int, N: int, k: int, P) -> tuple:
    """S[a*N + b][2i + j]: |N(l)|^-k over the slab(eps_N) points l = a + b*omega mod N with
    |N(l)| <= P and signs ((-1)^i, (-1)^j), plus the bin's exact-density tail, over the
    [O^x : <eps_N>] generators of an ideal in the slab.  The slab of eps_N = eps_+^r is
    summed as r folded copies of the slab of eps_+ (`_slab_class_sums`), whose
    multiplication keeps both signs and permutes the residues mod N."""
    field = construct_field(D)
    S, _, r = _slab_class_sums(field, N, N, k, P, signs=True)
    log_eps_N = r * math.log(totally_positive_unit(field).embed_float()[0])
    tail = log_eps_N / (N * N * math.sqrt(field.discriminant)) * float(P) ** (1 - k) / (k - 1)
    # N(l)^-k = sgn(N l)^k |N(l)|^-k, and sgn N(l) = sgn s1(l) sgn s2(l)
    S = S * [1, (-1) ** k, (-1) ** k, 1] + tail
    index = 2 * r * (2 if fundamental_unit(field)[1] < 0 else 1)
    return tuple(map(tuple, (S / index).tolist()))


def lambda_constant(rc: RayClassGroup, chi_prime: GroupCharacter, m: int,
                    P: int = 10_000) -> complex:
    """Lambda_N(chi, k) = |Cl^(N)| Gamma(k)^xi / (-2 pi i)^(xi k) * L_N(chi, k) / sqrt(d_F)
    at k = m+2.  L_N sums chi(c) N(a)^-k over the ideals a coprime to N: Hurwitz values over
    Q, slab sums of norm <= P over Q(sqrt D); (l) is in the class of (l^-1 mod N, signs of l)."""
    if m < 0:
        raise PreconditionError("Lambda_N needs m >= 0")
    field, ring, N = rc.field, rc.ring, rc.N
    xi, k = field.degree, m + 2
    if xi == 1:
        terms = [(u, (1,), float(mpmath.zeta(k, mpmath.mpf(u[0] or N) / N)) / N ** k)
                 for u in ring.units()]
    elif not P >= 1:
        raise PreconditionError("the norm bound P must be at least 1")
    else:
        S = _slab_ideal_sums(field.D, N, k, P)
        terms = [(u, (1 - 2 * (j >> 1), 1 - 2 * (j & 1)), S[u[0] * N + u[1]][j])
                 for u in ring.units() for j in range(4)]
    L = sum(chi_prime.value(rc.class_of_residue(ring.inv(u), signs)) * z
            for u, signs, z in terms)
    pref = rc.order * math.gamma(k) ** xi / ((-2j * math.pi) ** (xi * k))
    return pref * L / math.sqrt(field.discriminant)


# ---------------------------------------------------------------------------
# the horospherical map


def _unfold_constant(field: NumberField, rc: RayClassGroup, m: int) -> complex:
    """c_N = h_N Gamma(k)^xi / ((-2 pi i)^(xi k) 2^xi sqrt(d_F) Phi(N))."""
    xi = field.degree
    k = m + 2
    phiN = len(rc.ring.units())
    return (rc.order * math.gamma(k) ** xi
            / ((-2j * math.pi) ** (xi * k) * 2 ** xi
               * math.sqrt(field.discriminant) * phiN))


def _line_sums(field: NumberField, N: int, C: int, k: int, B):
    """Z[lam] = sum over orbit reps of the lam-class of N(w)^-k (w-lattice);
    rank 1 at 64 bits, rank 2 in float64."""
    if field.degree == 1:
        Z = rank1_class_sums(C, k, 64)
        return np.array([complex(z) for z in Z])
    Zt, _, _ = rank2_class_sums(field.D, N, C, k, int(B))
    return np.array(Zt, dtype=np.complex128)


def _rho(tbl: np.ndarray, scale, C: int, eta, m: int, rc: RayClassGroup, mats,
         B) -> list[complex]:
    """rho at the matrices mats, from the dense complex table tbl of fhat
    (scale s', modulus C); eta, when given, twists by eta(det g)."""
    field = scale.field
    if rc.N != C and C % rc.N != 0:
        raise HorosphericalError("level of phi incompatible with the group level")
    if field.degree == 2 and not B >= 1:
        raise PreconditionError("the lattice bound B must be at least 1")
    k = m + 2
    group = matrix_group(field.degree, field.D, rc.N)
    Z = _line_sums(field, rc.N, C, k, B)
    cN = _unfold_constant(field, rc, m)
    sprime_nk = float(scale.norm()) ** k if field.degree == 2 else float(scale.a) ** k
    grid = _index_grid(field, C)
    ring = grid.ring
    lam = tuple(np.array(ring.elements()).T)  # O/C in the order of Z
    # w0 = ghat^-1 e1 per matrix; w0[:, i, j] is coordinate j of entry i
    w0 = np.array([group.hat_inverse_column(_lift_matrix(mat, rc.N, C), ring)
                   for mat in mats], dtype=np.int64).reshape(-1, 2, 2, 1)
    # row r holds the indices of lam * w0 of matrix r, lam over O/C
    idx = grid.index_of(tuple(ring.mul(lam, (w0[:, i, 0], w0[:, i, 1])) for i in range(2)))
    vals = cN * (tbl[idx] @ Z) / sprime_nk
    if eta is not None:
        vals *= [eta.value(rc.class_of_residue(group.det(mat))) for mat in mats]
    return [complex(v) for v in vals]


def horospherical_map(phi, m: int, rc: RayClassGroup, mats, B=2e4) -> list[complex]:
    """rho(phi) sampled at integral matrix representatives (mod N).

    phi: TwistedSchwartz or FractionalSchwartz with the trace-zero property.
    Returns one complex value per matrix in mats.
    """
    f = phi.base if isinstance(phi, TwistedSchwartz) else phi
    eta = phi.eta if isinstance(phi, TwistedSchwartz) else None
    if not is_S0(f):
        raise PreconditionError("the horospherical map is defined on S^0")
    fh = fourier_transform(f)
    return _rho(fh.complex_table(), fh.scale, fh.C, eta, m, rc, mats, B)


def kernel_coefficient(phi, m: int, rc: RayClassGroup, B=2e4) -> complex:
    """Average of rho(phi) over SL2(O/N): the spherical projector coefficient
    of the image (zero on the image of the trace-zero space)."""
    group = matrix_group(rc.field.degree, rc.field.D, rc.N)
    vals = horospherical_map(phi, m, rc, group.sl2, B)
    return complex(sum(vals) / len(vals))


# ---------------------------------------------------------------------------
# the constructive preimage


def s_psi_bar(psi: IndFunction) -> ComplexSchwartz:
    """The zero-extension Schwartz function of the det-untwisted psi:
    supported on primitive-vector cosets x e1 + N V(Zhat), value psibar(x)."""
    group = psi.group
    field = group.field
    N = group.N
    one = group.ring.one
    grid = _index_grid(field, N)
    values = np.zeros(grid.n, dtype=np.complex128)
    for v in group.primitive_vectors():
        x = group.completion_matrix(v)
        # psibar(x) = eta(det x)^-1 chi'(det x)^-1 psi(x) = psi(x) conj phi~_f(1, det x)
        twist = _borel_factor(psi.data, one, group.det(x)).conjugate()
        values[grid.index_of(v)] = psi.value(x) * twist
    return ComplexSchwartz(field, field.one, N, values)


def preimage(psi: IndFunction, lam_P: int = 200_000):
    """A Schwartz-Bruhat preimage of psi under the horospherical map:
    built from its Fourier transform Lambda^-1 sum_u chi'(u) s_psibar(u v),
    u over ray class representatives.  If psi is in the kernel of the
    projector the result is trace-zero."""
    data = psi.data
    rc = data.rc
    field = psi.group.field
    lam = lambda_constant(rc, data.chi_prime, data.m, lam_P)
    if abs(lam) < 1e-12:
        raise HorosphericalError(
            "Lambda_N vanished numerically; the L-value must be nonzero")
    base = s_psi_bar(psi)
    grid = base.grid
    total = np.zeros(grid.n, dtype=np.complex128)
    for (residue, signs) in rc.representatives():
        # chi'_f sees only the finite part of the representative idele
        chi_val = data.chi_prime.value(rc.class_of_residue(residue))
        # scale the argument: s_psibar(u v) with u acting by its residue
        perm = grid.image_indices((residue, (0, 0), (0, 0), residue))
        total += chi_val * base.values[perm]
    total /= lam
    fhat = ComplexSchwartz(field, field.one, base.C, total)
    # invert: the transform is self-inverse on this family
    phi_c = complex_fourier_transform(fhat)
    return PreimageFunction(phi_c, fhat, data)


@dataclass
class PreimageFunction:
    """Preimage data: the function, its transform, and the Hecke data."""

    function: ComplexSchwartz
    transform: ComplexSchwartz
    data: HeckeCharacterData

    def is_trace_zero(self, tol: float = 1e-10) -> bool:
        v0 = self.function.values[0]
        return abs(v0) < tol and abs(self.function.values.sum()) < tol


def horospherical_map_complex(phi: PreimageFunction, m: int, rc: RayClassGroup, mats,
                              B=2e4) -> list[complex]:
    """rho on the complex-table family (the preimage path)."""
    fhat = phi.transform
    return _rho(fhat.values, fhat.scale, fhat.C, phi.data.eta, m, rc, mats, B)


# ---------------------------------------------------------------------------
# spherical family census (the boundary codimension count)


def spherical_family_count(rc: RayClassGroup) -> int:
    """Number of distinct character families (eta, chi' trivial, m = 0) whose
    restriction to the norm-one torus is the square norm: one per eta."""
    seen = set()
    for eta in all_characters(rc.group):
        trivial = GroupCharacter(rc.group, tuple(Fraction(0) for _ in rc.group.invariants))
        data = HeckeCharacterData(rc, eta, trivial, 0)
        # canonicalize on the phi~_f values over the group
        key = tuple(
            data.phi_tilde_exponent(c, rc.group.zero()) for c in rc.group.all_coords()
        ) + tuple(
            data.phi_tilde_exponent(rc.group.zero(), c) for c in rc.group.all_coords()
        )
        seen.add(key)
    return len(seen)
