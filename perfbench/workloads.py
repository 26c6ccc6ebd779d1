"""The benchmark's workloads: inputs drawn from a seeded generator, the calls
into eisterm that are timed, and an independent check of every result.

An operation is (name, key, run, check).  ``run`` is the timed call into the
program; ``check`` verifies its result outside the timed region and returns
(status, rational, detail) with status "ok", "refused" or "failed".  A
certification that the program declines (a CertificationFailure record) is
"refused" only at the rank-2 keys where the seed declines some too, and only
up to a limit there (see RANK2_REFUSING); anywhere else it is "failed".
``key`` is the (field, level, m) the operation works at; the first operation
at a key is its cold start.

Nothing here imports eisterm at module level: the workload functions run in a
fresh interpreter, after the modules are imported (and, in traced runs, after
spans are installed).
"""

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from fractions import Fraction


class Op:
    __slots__ = ("name", "key", "run", "check")

    def __init__(self, name, key, run, check):
        self.name, self.key, self.run, self.check = name, key, run, check


def prime_factors(n):
    n, out, d = abs(int(n)), set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    if n > 1:
        out.add(n)
    return sorted(out)


def spread(*streams):
    """Merge op lists so each is spread evenly over the round, keeping the
    order within each list.  The machine's speed drifts over seconds, so a
    metric whose samples all sit in one short stretch of the round would
    follow the drift rather than the program."""
    keyed = [((i + 0.5) / len(ops), n, op) for n, ops in enumerate(streams)
             for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


def _field(D):
    from eisterm.field import construct_field

    return construct_field(D)


def rand_s0(field, C, rng):
    """Random trace-zero level table: zero at the origin, values summing to 0."""
    from eisterm.schwartz import FractionalSchwartz

    f = FractionalSchwartz.zeros(field, C)
    for idx in range(1, f.grid.n):
        f.coeffs[idx, 0] = rng.randint(-5, 5)
    f.coeffs[1, 0] -= int(f.coeffs[:, 0].sum())
    return f


def rand_table(field, C, rng):
    from eisterm.schwartz import FractionalSchwartz

    f = FractionalSchwartz.zeros(field, C)
    vals = {idx: v for idx in range(f.grid.n) if (v := rng.randint(-9, 9))}
    return FractionalSchwartz.from_rational_table(field, C, vals)


def _structures(levels):
    """Fields, ray class groups and SL2/GL2(O/N) for the given (D, N) levels.

    A field of narrow class number > 1 has no ray class group in eisterm; the
    refusal is part of the program's contract, so it is skipped here."""
    from eisterm.classfield import ClassGroupError, ray_class_group
    from eisterm.horospherical import matrix_group

    for D, N in levels:
        K = _field(D)
        try:
            ray_class_group(K, N)
        except ClassGroupError:
            continue
        matrix_group(K.degree, K.D, N)


# ---------------------------------------------------------------------------
# rank2-grid: certified rank-2 constant terms over Q(sqrt D)

RANK2_LEVELS = [  # (D, N, B, m values); the second run of each pair is at 2B
    (5, 3, 100_000, (0, 1)), (13, 3, 100_000, (0, 1)), (5, 4, 100_000, (0, 1)),
    (2, 4, 100_000, (0, 1)), (3, 4, 100_000, (0, 1)),
    # the large-unit level: eps_N ~ 1154, so few points cost many slab rows
    (2, 3, 5_000, (1,)),
]
RANK2_TABLES = 12
# At m = 0 over Q(sqrt2) and Q(sqrt3) with N = 4, B = 1e5 and 2e5 do not pin
# the rational down for some tables: the seed declined 103 of the 260
# operations at these two keys over seeds 1 to 10, and at most 8 of the 13 at
# one key in a round over seeds 1 to 16.  Declining is a correct answer
# there, up to RANK2_MAX_REFUSED operations per key and round, so at least
# one of them must certify; at the seed's rate of 0.4 all 13 decline by
# chance about once in 50,000 key-rounds.  Every other key must certify every
# table: a refusal there is a failure.
RANK2_REFUSING = {(2, 4, 0), (3, 4, 0)}
RANK2_MAX_REFUSED = RANK2_TABLES


def _certify(f, m, B, primes, precision):
    from eisterm.eisenstein import certify_rational, constant_term

    r1 = constant_term(f, m, B=B, precision=precision)
    r2 = constant_term(f, m, B=2 * B, precision=precision)
    return r1, r2, certify_rational(r1, r2, primes, 8)


def _check_certificate(primes, tol):
    """A certified rational must have its denominator in Z[1/(N d_F)] and lie
    within tol of both runs."""
    from eisterm.eisenstein import RationalCertificate

    def check(out):
        r1, r2, cert = out
        if not isinstance(cert, RationalCertificate):
            if getattr(cert, "ok", True) is False and hasattr(cert, "reason"):
                return "refused", None, cert.reason
            return "failed", None, f"unexpected certificate {cert!r}"
        q = cert.rational
        if not set(prime_factors(q.denominator)) <= set(primes):
            return "failed", q, f"denominator {q.denominator} outside Z[1/{primes}]"
        for run in (r1, r2):
            if abs(run.value.real - float(q)) > tol or abs(run.value.imag) > tol:
                return "failed", q, f"run value {run.value} is not {q}"
        return "ok", q, ""

    return check


def _gate_refusals(key):
    """Turns a refusal into a failure where the seed certifies, or past
    RANK2_MAX_REFUSED refusals at a key where it may decline."""
    refused = 0

    def gate(status, q, detail):
        nonlocal refused
        if status != "refused":
            return status, q, detail
        refused += 1
        if key not in RANK2_REFUSING:
            return "failed", q, f"not certified at {key}: {detail}"
        if refused > RANK2_MAX_REFUSED:
            return "failed", q, f"refusal {refused} at {key}: {detail}"
        return status, q, detail

    return gate


def rank2_grid(rng):
    ops = []
    for D, N, B, ms in RANK2_LEVELS:
        K = _field(D)
        primes = prime_factors(N * K.discriminant)
        for m in ms:
            key = (D, N, m)
            gate = _gate_refusals(key)
            tables = [rand_s0(K, N, rng) for _ in range(RANK2_TABLES)]
            rationals = {}
            for i, f in enumerate(tables):
                base = _check_certificate(primes, 1e-6)

                def check(out, base=base, i=i, rationals=rationals, gate=gate):
                    status, q, detail = gate(*base(out))
                    rationals[i] = q if status == "ok" else None
                    return status, q, detail

                ops.append(Op("certify", key,
                              lambda f=f, m=m, B=B, p=primes: _certify(f, m, B, p, 64),
                              check))
            base = _check_certificate(primes, 1e-6)

            def linear(out, base=base, rationals=rationals, gate=gate):
                status, q, detail = base(out)
                if status == "ok" and (rationals.get(0) is None or rationals.get(1) is None):
                    status, detail = "refused", "a summand was not certified"
                status, q, detail = gate(status, q, detail)
                if status != "ok":
                    return status, q, detail
                if q != rationals[0] + rationals[1]:
                    return "failed", q, f"{q} != {rationals[0]} + {rationals[1]}"
                return "ok", q, ""

            f_plus_g = tables[0] + tables[1]
            ops.append(Op("linearity", key,
                          lambda f=f_plus_g, m=m, B=B, p=primes: _certify(f, m, B, p, 64),
                          linear))
    return ops


def rank2_grid_setup():
    _structures([(D, N) for D, N, _, _ in RANK2_LEVELS])


# ---------------------------------------------------------------------------
# horo-roundtrip: kernel membership, Lambda_N and the constructive preimage

HORO_LEVELS = [  # (D, N, bound B of the kernel coefficient, prime bound of the preimage)
    (5, 3, 50_000, 150_000), (None, 3, 20_000, 400_000), (None, 4, 20_000, 400_000),
    (None, 5, 20_000, 400_000),
]
HORO_LAMBDA_P = 400_000
HORO_NONZERO_P = 100_000
HORO_POINTS = 10
ABSOLUTE_RESIDUAL = "round-trip residual at or above 1e-6 absolute"


def _trivial(rc):
    from eisterm.classfield import GroupCharacter

    return GroupCharacter(rc.group, tuple(Fraction(0) for _ in rc.group.invariants))


def _kernel_psi(rc, group, rng):
    """A random induced function with its spherical component removed."""
    from eisterm.classfield import HeckeCharacterData
    from eisterm.horospherical import (IndFunction, coset_count, induced_from_coset_values,
                                       psi_project, spherical_function)

    data = HeckeCharacterData(rc, _trivial(rc), _trivial(rc), 0)
    vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(coset_count(group))]
    psi = induced_from_coset_values(group, data, vals)
    coeff, _ = psi_project(psi)
    S = spherical_function(group, data)
    return IndFunction(group, data, {k: v - coeff * S.table[k] for k, v in psi.table.items()})


def _roundtrip(field, N, lam_P, rng):
    """Preimage of a random kernel function, mapped back at HORO_POINTS points.

    The operation fails when its residual reaches 1e-6 relative to max |psi|
    at the points: the truncated Euler product for Lambda_N scales the whole
    preimage, so its error is proportional to psi.  An absolute residual at or
    above 1e-6 is a known shortfall of the program, not a failure: over
    Q(sqrt5) at lam_P = 1.5e5 it happened on 3 of 10 random inputs (seeds 1
    to 10; residuals up to 1.16e-6), while the relative residual stayed below
    5.2e-7.  The check reports it in its detail, and run.py counts it as a
    known defect."""
    from eisterm.classfield import ray_class_group
    from eisterm.horospherical import horospherical_map_complex, matrix_group, preimage

    rc = ray_class_group(field, N)
    group = matrix_group(field.degree, field.D, N)
    psi = _kernel_psi(rc, group, rng)
    mats = group.sl2[:HORO_POINTS]

    def run():
        pre = preimage(psi, lam_P=lam_P)
        return pre, horospherical_map_complex(pre, 0, rc, mats, B=1e5)

    def check(out):
        pre, got = out
        if not pre.is_trace_zero(1e-8):
            return "failed", None, "preimage is not trace-zero"
        worst = max(abs(v - psi.value(mat)) for mat, v in zip(mats, got))
        scale = max(abs(psi.value(mat)) for mat in mats)
        if len(got) != len(mats) or not worst < 1e-6 * scale:
            return "failed", None, f"round-trip residual {worst} at max |psi| {scale}"
        if not worst < 1e-6:
            return "ok", None, f"{ABSOLUTE_RESIDUAL}: {worst:.3g} at max |psi| {scale:.3g}"
        return "ok", None, ""

    return run, check


def horo_roundtrip(rng):
    """Each level starts with its round trip, so the cold start of a level is
    building Lambda_N there; a kernel coefficient and the Lambda != 0 checks
    of the level follow.  The Q(sqrt5) round trip takes most of the round, so
    it runs after the levels over Q, and half of their Lambda != 0 checks run
    after it: the short operations are timed both before and after it."""
    from eisterm.classfield import all_characters, ray_class_group
    from eisterm.horospherical import kernel_coefficient, lambda_constant

    Q = _field(None)
    rc1 = ray_class_group(Q, 1)
    before = [Op("lambda", (None, 1, 0),
                 lambda: lambda_constant(rc1, _trivial(rc1), 0, P=HORO_LAMBDA_P),
                 lambda lam: ("ok", None, "") if abs(lam + 1 / 24) < 1e-6
                 else ("failed", None, f"Lambda_1 = {lam}, not -1/24"))]
    after = []
    for D, N, B, lam_P in HORO_LEVELS:
        K = _field(D)
        rc = ray_class_group(K, N)
        run, check = _roundtrip(K, N, lam_P, rng)
        level = before if D is None else after
        level.append(Op("roundtrip", (D, N, 0), run, check))
        f = rand_s0(K, N, rng)
        level.append(Op("kernel", (D, N, 0),
                        lambda f=f, rc=rc, B=B: kernel_coefficient(f, 0, rc, B=B),
                        lambda c: ("ok", None, "") if abs(c) < 1e-8
                        else ("failed", None, f"kernel coefficient {c}")))
        if D is None:
            chars = all_characters(rc.group)
            for i, chi in enumerate(chars):
                (before if i < len(chars) // 2 else after).append(Op(
                    "lambda-nonzero", (D, N, 0),
                    lambda rc=rc, chi=chi: lambda_constant(rc, chi, 0, P=HORO_NONZERO_P),
                    lambda lam: ("ok", None, "") if abs(lam) > 1e-6
                    else ("failed", None, f"Lambda vanishes: {lam}")))
    return before + after


def horo_roundtrip_setup():
    _structures([(None, 1)] + [(D, N) for D, N, _, _ in HORO_LEVELS])


# ---------------------------------------------------------------------------
# exact-transforms: exact Fourier identities, cone zeta values, rank-1 terms

TRANSFORM_LEVELS = [(None, 24), (None, 40), (5, 6), (5, 7), (5, 8), (2, 7)]
SHINTANI_FIELDS = [d for d in range(2, 31) if all(d % (p * p) for p in range(2, 6))]
RANK1_LEVELS = [(C, m) for C in range(2, 13) for m in (0, 1, 2)]
RANK1_TABLES = 2


def _bernoulli_numbers(n):
    """B_0..B_n (B_1 = -1/2), from the recurrence sum_j C(k+1, j) B_j = 0."""
    B = [Fraction(1)]
    for k in range(1, n + 1):
        B.append(-sum(math.comb(k + 1, j) * B[j] for j in range(k)) / (k + 1))
    return B


def _bernoulli_poly(k, x, B):
    return sum(math.comb(k, j) * B[j] * x ** (k - j) for j in range(k + 1))


def rank1_oracle(f, values, m):
    """Exact rank-1 constant term: (-1)^k C^(k-2)/k * sum_v f(v) B_k({-v_2/C})."""
    C, k = f.C, m + 2
    B = _bernoulli_numbers(k)
    total = Fraction(0)
    for idx, val in values.items():
        (_, _), (u2, _) = f.grid.coords_of(idx)
        total += val * _bernoulli_poly(k, Fraction(-u2, C) % 1, B)
    return Fraction((-1) ** k * Fraction(C) ** k, k * C * C) * total


def _rank1_case(C, m, rng, demo):
    from eisterm.schwartz import FractionalSchwartz

    Q = _field(None)
    if demo:  # the closed-form case: two deltas at level 2, constant term 1/8
        values = {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1}
        f = FractionalSchwartz.from_rational_table(Q, C, values)
        values = {f.grid.index_of(v): c for v, c in values.items()}
    else:
        f = rand_s0(Q, C, rng)
        values = {idx: int(f.coeffs[idx, 0]) for idx in range(f.grid.n) if f.coeffs[idx, 0]}
    expected = rank1_oracle(f, values, m)
    primes = prime_factors(C)

    def check(out):
        _, _, cert = out
        rational = getattr(cert, "rational", None)
        if rational != expected:
            return "failed", rational, f"certified {rational}, Bernoulli oracle {expected}"
        if not set(prime_factors(expected.denominator)) <= set(primes):
            return "failed", rational, f"denominator {expected.denominator} outside Z[1/{C}]"
        if demo and (rational != Fraction(1, 8) or cert.denominator_factorization != {2: 3}):
            return "failed", rational, f"1/8 case: {rational}, {cert.denominator_factorization}"
        return "ok", rational, ""

    return Op("rank1", (None, C, m), lambda: _rank1_run(f, m, primes), check)


def _rank1_run(f, m, primes):
    from eisterm.eisenstein import certify_rational, constant_term

    r1 = constant_term(f, m, B=1e6, precision=128)
    r2 = constant_term(f, m, B=2e6, precision=128)
    return r1, r2, certify_rational(r1, r2, primes, 8)


def _equivariance(f, rng):
    from eisterm.schwartz import act_group, det_norm_factor, fourier_transform

    C = f.C
    while True:
        g = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if det != 0 and math.gcd(det, C) == 1:
            break

    def run():
        lhs = fourier_transform(act_group(g, f))
        rhs = act_group(g, fourier_transform(f), det_inverse=True).scaled(det_norm_factor(g, f))
        return lhs, rhs

    return run, lambda out: ("ok", None, "") if out[0].equals(out[1]) \
        else ("failed", None, f"equivariance fails for g = {g}")


def exact_transforms(rng):
    from eisterm.schwartz import fourier_transform
    from eisterm.zeta import dedekind_zeta_neg

    transforms, shintani, rank1 = [], [], []
    for D, C in TRANSFORM_LEVELS:
        K = _field(D)
        f = rand_table(K, C, rng)
        transforms.append(Op("double-transform", (D, C, None),
                             lambda f=f: fourier_transform(fourier_transform(f)),
                             lambda out, f=f: ("ok", None, "") if out.equals(f)
                             else ("failed", None, "transform is not self-inverse")))
        run, check = _equivariance(rand_table(K, C, rng), rng)
        transforms.append(Op("equivariance", (D, C, None), run, check))
    for D in SHINTANI_FIELDS:
        K = _field(D)
        shintani.append(Op("shintani", (D, 1, 1), lambda K=K: dedekind_zeta_neg(K, 1),
                           lambda z, K=K: _check_siegel(K, z)))
    for C, m in RANK1_LEVELS:
        for i in range(RANK1_TABLES):
            rank1.append(_rank1_case(C, m, rng, demo=(C, m, i) == (2, 0, 0)))
    return spread(transforms, shintani, rank1)


def siegel_oracle(dF):
    """Siegel: zeta_F(-1) = (1/60) * sum of sigma_1((d_F - t^2)/4) over the
    integers t with t^2 < d_F and t^2 = d_F mod 4."""
    total = 0
    for t in range(int(math.isqrt(dF)) + 1):
        if t * t < dF and (dF - t * t) % 4 == 0:
            n = (dF - t * t) // 4
            s1 = sum(d for d in range(1, n + 1) if n % d == 0)
            total += s1 if t == 0 else 2 * s1
    return Fraction(total, 60)


def _check_siegel(K, z):
    from eisterm.zeta import siegel_sigma1

    want = siegel_oracle(K.discriminant)
    if z != want or siegel_sigma1(K) != want:
        return "failed", z, f"zeta_F(-1) = {z}, Siegel {want}"
    return "ok", z, ""


def exact_transforms_setup():
    for D in [None, 5, 2] + SHINTANI_FIELDS:
        _field(D)


# ---------------------------------------------------------------------------
# cli-session: one process per command against a fresh cache directory

USAGE_ERRORS = [["zeta", "--D", "5", "--bogus"], ["classgroup", "--N", "3"],
                ["frobnicate"], ["certify", "--D", "Q", "--m", "x"]]


def _record(stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def _expect(cond, detail):
    return ("ok", None, "") if cond else ("failed", None, detail)


def _rows_value(text):
    """(value at index 0, sum of all values) of a serialized table."""
    import cmath

    lines = text.strip().splitlines()
    M = int(next(t for t in lines[0].split() if t.startswith("M="))[2:])
    at0, total = 0j, 0j
    for line in lines[1:]:
        idx, *terms = line.split()
        v = sum(int(c) * cmath.exp(2j * cmath.pi * int(e) / M)
                for e, c in (t.split(":") for t in terms))
        total += v
        at0 += v if int(idx) == 0 else 0
    return at0, total


def cli_commands(rng, cache_dir):
    """(argv, expected exit code, check of the JSON record) per command.

    The structure commands are read back from the cache three times each,
    spread over the session, so that the cache reads do not sit in one short
    stretch of it."""
    cache = ["--cache-dir", cache_dir]
    seed = str(rng.randrange(1_000_000))

    def field_ok(r):
        p = r["payload"]
        return _expect(p["fundamental_unit_sqrtD_coords"] == ["1/2", "1/2"]
                       and p["fundamental_unit_norm"] == -1, f"field payload {p}")

    def hit(expected, inner):
        return lambda r: inner(r) if r.get("cache_hit") is expected \
            else ("failed", None, f"cache_hit is {r.get('cache_hit')}, expected {expected}")

    def classgroup_ok(r):
        return _expect(r["payload"].get("order") == 2, f"|Cl^(3)| of Q(sqrt5): {r['payload']}")

    def fourier_ok(r):
        at0, total = _rows_value(r["payload"]["transform"])
        return _expect(abs(at0) < 1e-12 and abs(total) < 1e-12,
                       "transform of a trace-zero table is not trace-zero")

    def constant_term_ok(r):
        v = float(r["payload"]["result"]["value_re"])
        q = float(r["payload"]["quadrature"]["re"])
        return _expect(abs(v - 0.125) < 1e-9 and abs(q - v) < 1e-6,
                       f"constant term {v}, quadrature {q}")

    def certify_ok(r):
        p = r["payload"]
        return _expect(p.get("ok") is True and p.get("rational") == "1/8"
                       and p.get("denominator_factorization") == {"2": 3}, f"certify {p}")

    def eisenstein_ok(r):
        res = r["payload"]["result"]
        return _expect(math.isfinite(float(res["value_re"])) and abs(float(res["value_im"])) < 1e-8,
                       f"eisenstein value {res}")

    def zeta_partial_ok(r):
        p = r["payload"]
        return _expect(p["kind"] == "partial" and Fraction(p["value"]) is not None,
                       f"zeta payload {p}")

    def error_record(r):
        return _expect("error" in r, "refusal without an error record")

    field = (["field", "--D", "5"] + cache, 0, hit(True, field_ok))
    classgroup = (["classgroup", "--D", "5", "--N", "3"] + cache, 0, hit(True, classgroup_ok))
    return [
        (["field", "--D", "5"] + cache, 0, hit(False, field_ok)),
        (["classgroup", "--D", "5", "--N", "3"] + cache, 0, hit(False, classgroup_ok)),
        (["zeta", "--D", "5", "--neg", "1"], 0,
         lambda r: _expect(r["payload"]["value"] == "1/30", f"zeta_F(-1) {r['payload']}")),
        (["zeta", "--D", "5", "--neg", "1", "--N", "3", "--shift", "1,0"], 0, zeta_partial_ok),
        field,
        (["fourier", "--demo", "2"], 0, fourier_ok),
        (["constant-term", "--D", "Q", "--N", "2", "--m", "0", "--bound", "1e6", "--quadrature"],
         0, constant_term_ok),
        classgroup,
        (["certify", "--D", "Q", "--N", "2", "--m", "0", "--bound", "1e5", "--prec", "96"],
         0, certify_ok),
        (["eisenstein", "--D", "Q", "--N", "2", "--m", "2", "--tau-im", "1.0", "--bound", "30"],
         0, eisenstein_ok),
        field,
        (["horospherical", "--D", "Q", "--N", "3", "--check", "kernel", "--seed", seed], 0,
         lambda r: _expect(float(r["payload"]["max_abs"]) < 1e-8, f"kernel {r['payload']}")),
        (["horospherical", "--D", "Q", "--N", "4", "--check", "roundtrip", "--seed", seed], 0,
         lambda r: _expect(float(r["payload"]["max_residual"]) < 1e-6,
                           f"round trip residual {r['payload'].get('max_residual')}")),
        (["classgroup", "--D", "3", "--N", "4"] + cache, 1, error_record),
        classgroup,
        (rng.choice(USAGE_ERRORS), 2, None),
        field,
        classgroup,
    ]


# Defects known at the seed (ROADMAP item 2).  They are run and reported on
# every cli-session run, but not counted as workload operations, since the
# benchmark's workloads must be ones on which no operation fails.
KNOWN_DEFECTS = [
    ("certify --prec 0 asserts a wrong rational",
     ["certify", "--D", "Q", "--N", "2", "--prec", "0"],
     lambda code, r, err: code == 1 or (r is not None and r["payload"].get("rational") == "1/8")),
    ("constant-term --bound 0 ends in a traceback",
     ["constant-term", "--D", "2", "--N", "3", "--bound", "0"],
     lambda code, r, err: r is not None and "Traceback" not in err and code in (0, 1, 2)),
]


def run_cli(argv, env, traced, timeout):
    """One CLI process: (seconds, exit code, record or None, stderr, trace or None)."""
    if traced:
        cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "worker.py"), "cli"]
    else:
        cmd = [sys.executable, "-m", "eisterm.cli"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd + argv, env=env, capture_output=True, text=True, timeout=timeout)
    dt = time.perf_counter() - t0
    trace, lines = None, []
    for line in proc.stderr.splitlines():
        if traced and line.startswith("SPANS "):
            trace = json.loads(line[len("SPANS "):])
        else:
            lines.append(line)
    return dt, proc.returncode, _record(proc.stdout), "\n".join(lines), trace


def cli_session(rng, scratch, env, traced):
    """Runs the session; returns (op records, span snapshots of the commands)."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    ops, traces = [], []
    try:
        for argv, code, check in cli_commands(rng, cache_dir):
            dt, got, record, err, trace = run_cli(argv, env, traced, timeout=120)
            if trace:
                traces.append(trace)
            if "Traceback" in err:
                status, detail = "failed", "traceback: " + err.strip().splitlines()[-1]
            elif got != code:
                status, detail = "failed", f"exit {got}, expected {code}"
            elif code != 2 and record is None:
                status, detail = "failed", "no JSON record"
            elif check is None:
                status, detail = "ok", ""
            else:
                try:
                    status, _, detail = check(record)
                except (KeyError, TypeError, ValueError) as exc:
                    status, detail = "failed", f"malformed record: {exc!r}"
            hit = bool(record and record.get("cache_hit"))
            compute = record.get("wall_time_s", 0.0) if record else 0.0
            ops.append({"name": argv[0], "key": f"{len(ops)}: {' '.join(argv)}",
                        "cold": not hit, "s": dt,
                        "status": status, "rational": None, "detail": detail,
                        "compute_s": compute, "cache": argv[0] in ("field", "classgroup")
                        and code == 0, "cache_hit": hit})
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return ops, traces


def known_defects(env):
    """'present' or 'fixed' for each of KNOWN_DEFECTS."""
    out = {}
    for name, argv, fixed in KNOWN_DEFECTS:
        _, code, record, err, _ = run_cli(argv, env, False, timeout=120)
        out[name] = "fixed" if fixed(code, record, err) else "present"
    return out


def cli_session_setup():
    pass


WORKLOADS = {
    "rank2-grid": (rank2_grid_setup, rank2_grid),
    "horo-roundtrip": (horo_roundtrip_setup, horo_roundtrip),
    "exact-transforms": (exact_transforms_setup, exact_transforms),
    "cli-session": (cli_session_setup, None),
}
