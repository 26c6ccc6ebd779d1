"""One fresh interpreter of the benchmark; started by run.py, never imported.

    worker.py setup <workload>
        import eisterm, build the workload's structures, print "ready".
    worker.py round <workload> <seed> <round> <trace> <scratch-dir>
        run one round of the workload and print its result as one JSON line.
    worker.py cli <eisterm arguments...>
        the eisterm command line with spans installed; the spans go to stderr
        as one line starting with "SPANS ".
"""

import json
import os
import random
import resource
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402


def setup(workload):
    import eisterm  # noqa: F401

    workloads.WORKLOADS[workload][0]()
    print("ready", flush=True)


def _run_ops(ops):
    seen, records = set(), []
    for op in ops:
        cold = op.key not in seen
        seen.add(op.key)
        t0 = time.perf_counter()
        try:
            out = op.run()
            dt = time.perf_counter() - t0
            status, rational, detail = op.check(out)
        except Exception:  # an operation that raises is a failed operation
            dt = time.perf_counter() - t0
            status, rational, detail = "failed", None, traceback.format_exc().strip()
        records.append({"name": op.name, "key": repr(op.key), "cold": cold, "s": dt,
                        "status": status, "detail": detail,
                        "rational": None if rational is None else str(rational)})
    return records


def run_round(workload, seed, rnd, traced, scratch):
    rng = random.Random(f"{workload}/{seed}/{rnd}")
    setup_fn, make_ops = workloads.WORKLOADS[workload]
    result = {"defects": {}}
    if make_ops is None:  # cli-session: every operation is its own process
        t0 = time.perf_counter()
        ops, traces = workloads.cli_session(rng, scratch, dict(os.environ), traced)
        result["wall_s"] = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["defects"] = workloads.known_defects(dict(os.environ))
        snap = spans.merge(traces) if traced else None
    else:
        import eisterm  # noqa: F401

        rec = spans.install(spans.Recorder()) if traced else None
        t0 = time.perf_counter()
        setup_fn()
        result["setup_in_round_s"] = time.perf_counter() - t0
        op_list = make_ops(rng)
        t0 = time.perf_counter()
        ops = _run_ops(op_list)
        result["wall_s"] = time.perf_counter() - t0
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        snap = rec.snapshot() if traced else None
    result.update(ops=ops, peak_rss_mb=rss_kb / 1024.0, spans=snap)
    print(json.dumps(result), flush=True)


def traced_cli(argv):
    t0 = time.perf_counter()
    import eisterm.cli

    import_s = time.perf_counter() - t0
    rec = spans.install(spans.Recorder())
    try:
        code = eisterm.cli.run_command(argv)
    finally:
        snap = rec.snapshot()
        snap["seconds"]["cli.import"] = import_s
        print("SPANS " + json.dumps(snap), file=sys.stderr, flush=True)
    sys.exit(code)


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        setup(rest[0])
    elif mode == "round":
        run_round(rest[0], int(rest[1]), int(rest[2]), rest[3] == "1", rest[4])
    elif mode == "cli":
        traced_cli(rest)
    else:
        sys.exit(f"unknown mode {mode!r}")
