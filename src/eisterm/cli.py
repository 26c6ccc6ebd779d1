"""Command-line front end: structure queries, exact zeta oracles, Fourier
transforms of level tables, Eisenstein lattice sums, constant terms with
rational certification, and horospherical checks.

Machine output is canonical JSON with numeric payloads as decimal strings;
identical configurations produce byte-identical payloads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from sympy import factorint

from .cache import ARTIFACT_VERSION, CacheError, cache_get_or_compute
from .field import (
    DegenerateFieldError,
    FieldError,
    construct_field,
    fundamental_unit,
    unit_subgroup_generator,
)
from .classfield import ClassGroupError, ray_class_group, narrow_class_group
from .schwartz import (
    FractionalSchwartz,
    SchwartzError,
    fourier_transform,
    parse_schwartz,
    serialize_schwartz,
)
from .zeta import ZetaError, dedekind_zeta_neg, shintani_partial_zeta, siegel_sigma1
from .eisenstein import (
    EisensteinError,
    TorusData,
    certify_rational,
    constant_term,
    constant_term_quadrature,
    eisenstein_value,
)


def _parse_D(value: str):
    if value in ("Q", "q", "0", "1"):
        return None
    return int(value)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="eisterm", description=__doc__)
    p.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p.add_argument("--cache-dir", default=None,
                   help="cache directory (or $EISTERM_CACHE_DIR); default: no persistence")
    p.add_argument("--no-cache", action="store_true", help="bypass the cache entirely")
    # the same flags are accepted after the subcommand as well
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
    shared.add_argument("--cache-dir", default=argparse.SUPPRESS)
    shared.add_argument("--no-cache", action="store_true", default=argparse.SUPPRESS)
    sub = p.add_subparsers(dest="command", required=True, parser_class=argparse.ArgumentParser)
    sub_kwargs = {"parents": [shared]}

    def common(sp, D=True, N=False):
        if D:
            sp.add_argument("--D", required=True, help="squarefree D >= 2, or Q")
        if N:
            sp.add_argument("--N", type=int, default=1)

    sp = sub.add_parser("field", help="field invariants and unit data", **sub_kwargs)
    common(sp, N=True)

    sp = sub.add_parser("classgroup", help="ray class group structure", **sub_kwargs)
    common(sp, N=True)

    sp = sub.add_parser("zeta", help="exact partial/Dedekind zeta values", **sub_kwargs)
    common(sp, N=True)
    sp.add_argument("--neg", type=int, default=1, help="evaluate at s = -neg")
    sp.add_argument("--shift", default=None, help="shift class a,b for the partial value")

    sp = sub.add_parser("fourier", help="transform of a serialized level table", **sub_kwargs)
    sp.add_argument("--in", dest="infile", default=None, help="path or - for stdin")
    sp.add_argument("--demo", type=int, default=None, metavar="N",
                    help="use the level-N two-delta demo table over Q")
    sp.add_argument("--demo-D", default="Q")

    sp = sub.add_parser("eisenstein", help="lattice sum at a point tau", **sub_kwargs)
    common(sp, N=True)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--s", type=float, default=0.0)
    sp.add_argument("--tau-re", type=float, default=0.0)
    sp.add_argument("--tau-im", type=float, default=1.0)
    sp.add_argument("--scale-r", type=float, default=1.0)
    sp.add_argument("--bound", type=float, default=None)

    sp = sub.add_parser("constant-term", help="constant term of the Eisenstein class", **sub_kwargs)
    common(sp, N=True)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--bound", type=float, default=1e4)
    sp.add_argument("--prec", type=int, default=128)
    sp.add_argument("--t2-norm", default="1")
    sp.add_argument("--t2-sign", type=int, default=1)
    sp.add_argument("--quadrature", action="store_true",
                    help="also report the boundary quadrature cross-check (rank 1)")
    sp.add_argument("--quad", type=int, default=64, help="quadrature points per axis")
    sp.add_argument("--fiber-y", type=float, default=1.0)

    sp = sub.add_parser("certify", help="dual-run rational certification", **sub_kwargs)
    common(sp, N=True)
    sp.add_argument("--in", dest="infile", default=None)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--bound", type=float, default=1e4)
    sp.add_argument("--prec", type=int, default=128)
    sp.add_argument("--max-exp", type=int, default=6)

    sp = sub.add_parser("horospherical", help="kernel and round-trip reports", **sub_kwargs)
    common(sp, N=True)
    sp.add_argument("--check", choices=("kernel", "roundtrip"), default="kernel")
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--bound", type=float, default=2e4)
    sp.add_argument("--prime-bound", type=int, default=10_000)
    sp.add_argument("--samples", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    return p


# ---------------------------------------------------------------------------
# payload builders


def _field_payload(args) -> dict:
    D = _parse_D(args.D)
    K = construct_field(D)
    payload = {
        "D": "Q" if D is None else D,
        "degree": K.degree,
        "d_F": K.discriminant,
        "omega": _frac_pair(K.omega.a, K.omega.b),
        "different_generator": _frac_pair(K.different_generator.a, K.different_generator.b),
    }
    if K.degree == 2:
        u, sgn = fundamental_unit(K)
        x, y = u.sqrtD_coords()
        payload["fundamental_unit_sqrtD_coords"] = [_frac(x), _frac(y)]
        payload["fundamental_unit_norm"] = sgn
        eN, k = unit_subgroup_generator(K, args.N)
        payload["unit_level"] = args.N
        payload["unit_subgroup_generator"] = _frac_pair(eN.a, eN.b)
        payload["unit_subgroup_exponent"] = k
    return payload


def _frac(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def _frac_pair(a, b):
    return [_frac(a), _frac(b)]


def _classgroup_payload(args) -> dict:
    D = _parse_D(args.D)
    K = construct_field(D)
    rc = ray_class_group(K, args.N)
    payload = rc.serialize()
    payload["D"] = "Q" if D is None else D
    if K.degree == 2:
        payload["narrow_class_number"] = narrow_class_group(K).order
    gens = []
    for (_, residue, signs) in getattr(rc, "generator_triples", []):
        gens.append({"residue": list(residue), "signs": list(signs)})
    payload["generator_representatives"] = gens
    return payload


def _zeta_payload(args) -> dict:
    D = _parse_D(args.D)
    if D is None:
        raise ZetaError("exact zeta oracles need a real quadratic field")
    K = construct_field(D)
    if args.shift is None:
        val = dedekind_zeta_neg(K, args.neg)
        kind = "dedekind"
    else:
        a, b = (int(t) for t in args.shift.split(","))
        val = shintani_partial_zeta(K, args.N, K.elt(a, b), args.neg)
        kind = "partial"
    payload = {
        "D": D,
        "N": args.N,
        "at": -args.neg,
        "kind": kind,
        "value": _frac(val),
    }
    if args.neg == 1 and args.shift is None:
        payload["siegel_sigma1"] = _frac(siegel_sigma1(K))
    return payload


def _load_table(args, default_demo_level=2):
    if getattr(args, "infile", None):
        text = sys.stdin.read() if args.infile == "-" else open(args.infile).read()
        return parse_schwartz(text)
    # deterministic demo: the two-delta trace-zero table at the given level
    D = _parse_D(getattr(args, "D", "Q")) if hasattr(args, "D") else None
    N = getattr(args, "N", default_demo_level) or default_demo_level
    K = construct_field(D)
    return FractionalSchwartz.from_rational_table(
        K, max(N, 2), {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})


def _fourier_payload(args) -> dict:
    if args.infile:
        text = sys.stdin.read() if args.infile == "-" else open(args.infile).read()
        f = parse_schwartz(text)
    else:
        N = args.demo or 2
        K = construct_field(_parse_D(args.demo_D))
        f = FractionalSchwartz.from_rational_table(
            K, N, {((1, 0), (0, 0)): 1, ((0, 0), (1, 0)): -1})
    fh = fourier_transform(f)
    return {"transform": serialize_schwartz(fh)}


def _eisenstein_payload(args) -> dict:
    f = _load_table(args)
    xi = f.field.degree
    tau = complex(args.tau_re, args.tau_im)
    B = int(args.bound) if args.bound else (30 if xi == 1 else 6)
    point = (tau, args.scale_r) if xi == 1 else ((tau, tau), (args.scale_r, args.scale_r))
    res = eisenstein_value(f, None, args.m, args.s, point, B=B)
    return {"m": args.m, "s": args.s, "tau": [repr(tau.real), repr(tau.imag)],
            "result": res.serialize()}


def _constant_term_payload(args) -> dict:
    f = _load_table(args)
    torus = TorusData(Fraction(args.t2_norm),
                      tuple([args.t2_sign] * (1 if f.field.degree == 1 else 2)))
    res = constant_term(f, args.m, torus=torus, B=args.bound, precision=args.prec)
    payload = {"m": args.m, "result": res.serialize()}
    if args.quadrature and f.field.degree == 1:
        qv = constant_term_quadrature(f, args.m, fiber=(args.fiber_y, 1.0),
                                      Q=args.quad, B=4000)
        payload["quadrature"] = {"re": repr(qv.real), "im": repr(qv.imag),
                                 "points": args.quad}
    return payload


def _certify_payload(args):
    f = _load_table(args)
    field = f.field
    run1 = constant_term(f, args.m, B=args.bound, precision=args.prec)
    run2 = constant_term(f, args.m, B=2 * args.bound, precision=args.prec)
    primes = sorted(factorint(f.C * field.discriminant))
    out = certify_rational(run1, run2, primes, args.max_exp)
    payload = out.serialize()
    payload["denominator_primes"] = primes
    return payload, out.ok


def _horospherical_payload(args) -> dict:
    import random

    from eisterm.horospherical import (
        horospherical_map_complex,
        kernel_coefficient,
        matrix_group,
        preimage,
        sl2_order,
    )
    from eisterm.classfield import GroupCharacter, HeckeCharacterData

    D = _parse_D(args.D)
    K = construct_field(D)
    rc = ray_class_group(K, args.N)
    group = matrix_group(K.degree, K.D, args.N)
    payload = {"D": "Q" if D is None else D, "N": args.N,
               "sl2_order": sl2_order(K, args.N), "ray_class_order": rc.order}
    rng = random.Random(args.seed)
    if args.check == "kernel":
        results = []
        for i in range(max(1, args.samples // 2)):
            f = _random_s0(K, args.N, rng)
            c = kernel_coefficient(f, args.m, rc, B=args.bound)
            results.append({"sample": i, "coefficient_abs": repr(abs(c))})
        payload["kernel_coefficients"] = results
        payload["max_abs"] = repr(max(float(r["coefficient_abs"]) for r in results))
        return payload
    # round trip
    from eisterm.horospherical import (
        coset_count,
        induced_from_coset_values,
        psi_project,
        spherical_function,
        IndFunction,
    )

    triv = GroupCharacter(rc.group, tuple(Fraction(0) for _ in rc.group.invariants))
    data = HeckeCharacterData(rc, triv, triv, 0)
    vals = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            for _ in range(coset_count(group))]
    psi = induced_from_coset_values(group, data, vals)
    coeff, _ = psi_project(psi)
    S = spherical_function(group, data)
    psi = IndFunction(group, data, {k: v - coeff * S.table[k] for k, v in psi.table.items()})
    pre = preimage(psi, lam_P=args.prime_bound * 30)
    mats = group.sl2[: args.samples]
    got = horospherical_map_complex(pre, 0, rc, mats, B=args.bound)
    rows = []
    worst = 0.0
    for mat, v in zip(mats, got):
        want = psi.value(mat)
        resid = abs(v - want)
        worst = max(worst, resid)
        rows.append({"value_re": repr(v.real), "value_im": repr(v.imag),
                     "target_re": repr(want.real), "target_im": repr(want.imag),
                     "residual": repr(resid)})
    payload["roundtrip"] = rows
    payload["max_residual"] = repr(worst)
    return payload


def _random_s0(K, N, rng):
    f = FractionalSchwartz.zeros(K, N)
    for idx in range(1, f.grid.n):
        f.coeffs[idx, 0] = rng.randint(-5, 5)
    f.coeffs[1, 0] -= int(f.coeffs[:, 0].sum())
    return f


# ---------------------------------------------------------------------------
# record envelope and output


def emit(record: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(record, sort_keys=True, indent=1)
    if fmt == "csv":
        lines = ["key,value"]

        def flatten(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    flatten(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, list):
                for i, v in enumerate(obj):
                    flatten(f"{prefix}{i}.", v)
            else:
                lines.append(f"{prefix[:-1]},{obj}")

        flatten("", record)
        return "\n".join(lines)
    # text
    return "\n".join(f"{k}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(record.items()))


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0,) else 0
    cache_dir = args.cache_dir or os.environ.get("EISTERM_CACHE_DIR")
    t0 = time.time()
    ok = True
    cache_hit = False
    warning = None
    try:
        if args.command == "field":
            D = _parse_D(args.D)
            payload, cache_hit, warning = cache_get_or_compute(
                cache_dir, "field", D, args.N, lambda: _field_payload(args),
                bypass=args.no_cache)
        elif args.command == "classgroup":
            D = _parse_D(args.D)
            payload, cache_hit, warning = cache_get_or_compute(
                cache_dir, "classgroup", D, args.N, lambda: _classgroup_payload(args),
                bypass=args.no_cache)
        elif args.command == "zeta":
            payload = _zeta_payload(args)
        elif args.command == "fourier":
            payload = _fourier_payload(args)
        elif args.command == "eisenstein":
            payload = _eisenstein_payload(args)
        elif args.command == "constant-term":
            payload = _constant_term_payload(args)
        elif args.command == "certify":
            payload, ok = _certify_payload(args)
        elif args.command == "horospherical":
            payload = _horospherical_payload(args)
        else:  # pragma: no cover
            return 2
    except (FieldError, ClassGroupError, SchwartzError, ZetaError,
            EisensteinError, CacheError, DegenerateFieldError, OSError,
            ValueError) as exc:
        record = {"command": args.command, "error": str(exc),
                  "artifact_version": ARTIFACT_VERSION}
        print(emit(record, args.format))
        return 1
    record = {
        "command": args.command,
        "artifact_version": ARTIFACT_VERSION,
        "config": {k: v for k, v in sorted(vars(args).items())
                   if k not in ("command",) and v is not None},
        "payload": payload,
        "cache_hit": cache_hit,
        "wall_time_s": round(time.time() - t0, 6),
    }
    if warning:
        record["warning"] = warning
    print(emit(record, args.format))
    return 0 if ok else 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
