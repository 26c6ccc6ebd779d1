"""eisterm benchmark: time to a verified result on four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout (the directory holding src/eisterm).
Nothing is installed: workers import eisterm from src/ through PYTHONPATH.

A run starts SETUP_REPS fresh interpreters that import eisterm and build the
workload's fields, ray class groups and matrix groups, half before and half
after the rounds; setup_s is their median.  It runs rounds until --seconds
have passed, at least one.  A round is the workload's whole operation list,
drawn from (workload, seed, round), in a fresh interpreter, so every
lru_cache starts empty; cli-session also gets a fresh cache directory.  Every
operation's result is checked.

With --trace 0 the last line reports the end-to-end metrics; with --trace 1
spans are installed around eisterm's public functions (spans.py) and the last
line reports the per-layer metrics.  Lines before it give the environment,
operation counts, known defects and, when traced, self-time shares.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("rank2-grid", "horo-roundtrip", "exact-transforms", "cli-session")
SETUP_REPS = 4
BLAS_THREADS = 1
ROUND_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # start no round that the previous one says would end later
COUNTED = ("eisenstein.class_sums.points", "field.prime_ideals.count",
           "classfield.class_of_ideal.calls", "horospherical.matrix_group.gl2",
           "schwartz.fourier.entries")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_worker(args, env, timeout, wait_for=None):
    """Run worker.py in its own session; kill the whole group on timeout.

    With wait_for, also return the seconds from start until the worker printed
    that line."""
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    ready = None
    try:
        if wait_for is not None:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            if line.strip() != wait_for:
                ready = None
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out, err, ready


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "eisterm").glob("*.py")))
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "python": sys.version.split()[0],
            "numpy": version("numpy"), "mpmath": version("mpmath"),
            "sympy": version("sympy"), "commit": git_commit(), "src_lines": src_lines}


def run_round(workload, seed, rnd, traced, scratch, env):
    code, out, err, _ = run_worker(
        ["round", workload, str(seed), str(rnd), "1" if traced else "0", scratch],
        env, ROUND_TIMEOUT_S)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"round {rnd} of {workload} exited {code}:\n{err[-2000:]}")
    return json.loads(lines[-1])


def measure_setup(workload, env, reps):
    times = []
    for _ in range(reps):
        code, _, err, ready = run_worker(["setup", workload], env, ROUND_TIMEOUT_S,
                                         wait_for="ready")
        if code != 0 or ready is None:
            raise RuntimeError(f"setup of {workload} exited {code}:\n{err[-2000:]}")
        times.append(ready)
    return times


def cli_layers(ops, snap):
    """cli and cache metrics of one cli-session round."""
    out = spans.layer_metrics(snap)
    out["cli.import_s"] = snap["seconds"].get("cli.import", 0.0)
    out["cli.compute_s"] = sum(op["compute_s"] for op in ops)
    out["cli.overhead_s"] = sum(op["s"] - op["compute_s"] for op in ops)
    out["cache.hits"] = sum(1 for op in ops if op["cache"] and op["cache_hit"])
    out["cache.misses"] = sum(1 for op in ops if op["cache"] and not op["cache_hit"])
    return out


def layer_metrics(workload, rnd):
    if workload == "cli-session":
        out = cli_layers(rnd["ops"], rnd["spans"])
    else:
        out = spans.layer_metrics(rnd["spans"])
        out.update({"cli.import_s": 0.0, "cli.compute_s": 0.0, "cli.overhead_s": 0.0,
                    "cache.hits": 0, "cache.misses": 0})
    out["trace.wall_s"] = rnd["wall_s"]
    return out


def unit(name):
    if name.endswith(("_s", ".s")):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "eisterm" / "__init__.py").is_file():
        print(f"perfbench: no eisterm sources at {ROOT / 'src' / 'eisterm'}", file=sys.stderr)
        return 2
    env = child_env()
    traced = bool(args.trace)
    print("env: " + json.dumps(environment()))
    (ROOT / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_tmp")
    try:
        # half the set-ups before the rounds and half after, so that their
        # median does not follow one short stretch of the machine's speed
        setup_times = [] if traced else measure_setup(args.workload, env, SETUP_REPS // 2)
        rounds, start = [], time.perf_counter()
        while True:
            t0 = time.perf_counter()
            rounds.append(run_round(args.workload, args.seed, len(rounds), traced, scratch, env))
            elapsed, last = time.perf_counter() - start, time.perf_counter() - t0
            if elapsed >= args.seconds or elapsed + last > RUN_BUDGET_S:
                break
        if not traced:
            setup_times += measure_setup(args.workload, env, SETUP_REPS - SETUP_REPS // 2)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ops = [op for rnd in rounds for op in rnd["ops"]]
    by_status = {s: sum(op["status"] == s for op in ops) for s in ("ok", "refused", "failed")}
    print(f"workload: {args.workload} seed {args.seed} rounds {len(rounds)} "
          f"operations {len(ops)} ok {by_status['ok']} refused {by_status['refused']} "
          f"failed {by_status['failed']} fail_ratio {by_status['failed'] / len(ops):.4g}")
    for op in ops:
        if op["detail"]:
            print(f"{op['status']} {op['name']} {op['key']}: {op['detail']}")
    for name, state in rounds[0]["defects"].items():
        print(f"known defect ({state}): {name}")
    if args.workload == "horo-roundtrip":
        trips = [op for op in ops if op["name"] == "roundtrip"]
        short = sum(op["detail"].startswith(workloads.ABSOLUTE_RESIDUAL) for op in trips)
        print(f"known defect ({'present' if short else 'not seen'} in {short} of {len(trips)} "
              f"round trips): {workloads.ABSOLUTE_RESIDUAL}")

    if traced:
        per_round = [layer_metrics(args.workload, rnd) for rnd in rounds]
        metrics = {k: statistics.median(r[k] for r in per_round) for k in per_round[0]}
        first = rounds[0]
        total = first["wall_s"] + first.get("setup_in_round_s", 0.0)
        print("absent: " + json.dumps(first["spans"]["absent"]))
        print(f"shares of {total:.3f} s (setup + operations, round 0): "
              + json.dumps({k: round(v, 4)
                            for k, v in spans.self_shares(first["spans"], total).items()}))
        counts = {k: per_round[0][k] for k in COUNTED}
        counts["failed"] = sum(op["status"] == "failed" for op in first["ops"])
        counts["rationals"] = [op["rational"] for op in first["ops"]]
        print("counts: " + json.dumps(counts, sort_keys=True))
    else:
        # Latencies are arithmetic means: the total time of the operations
        # over their number.  The operations at different keys differ in
        # latency by up to 1000x, so a median is one operation at the edge of
        # a cluster, timed at one moment of the machine's drifting speed; a
        # mean follows the time spent, spread over the round.  cmd_p50_s is
        # the median CLI process in cli-session.  The other workloads run no
        # CLI; there it is wall_s over the number of keys, which carries no
        # information beyond wall_s.
        cold = [op["s"] for op in ops if op["cold"]]
        warm = [op["s"] for op in ops if not op["cold"]]
        keys = len({op["key"] for op in rounds[0]["ops"]})
        wall_s = statistics.median(rnd["wall_s"] for rnd in rounds)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "cold_op_s": statistics.fmean(cold),
            "warm_op_ms": 1000.0 * statistics.fmean(warm),
            "cmd_p50_s": statistics.median(op["s"] for op in ops)
            if args.workload == "cli-session" else wall_s / keys,
            "peak_rss_mb": statistics.median(rnd["peak_rss_mb"] for rnd in rounds),
        }
        print(f"samples: setup {len(setup_times)} cold {len(cold)} warm {len(warm)} "
              f"operations {len(ops)} keys {keys}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit(name) if traced else UNITS[name]}")
    print(json.dumps({
        "correct": by_status["failed"] == 0,
        "attempted": len(ops),
        "failed": by_status["failed"],
        "metrics": {name: {"value": value, "unit": unit(name) if traced else UNITS[name]}
                    for name, value in metrics.items()},
    }))
    return 0


UNITS = {"setup_s": "s", "wall_s": "s", "cold_op_s": "s", "warm_op_ms": "ms",
         "cmd_p50_s": "s", "peak_rss_mb": "MB"}

if __name__ == "__main__":
    sys.exit(main())
