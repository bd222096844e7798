"""Layered benchmark for kummercover.  Run from the root of a checkout:

    python3 perfbench/run.py --workload report_mix --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every op
untraced and then traced, back to back, and reports the per-layer metrics of
the traced runs and the tracing overhead.  The metric names and units are those of
BENCHMARK.json; the last line of stdout is the result as one JSON object.

The workload runs in a child process (``worker.py``) with single-threaded BLAS
and a 1 GiB address-space cap, so that its peak RSS is its own and a
MemoryError fails one op instead of the machine.  Set-up is measured in
``SETUP_REPS`` fresh processes and reported as the median.  Every op's output
is checked against ``reference.py``; a disagreement, an exception or the cap
counts the op as failed.  Exit status is 0 with a result, 1 if the benchmark
itself broke, 2 if there is no kummercover source under ./src, and 3 if the
references fail their self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402

WORKLOADS = ("report_mix", "homology_large_n", "exponent_queries",
             "exponent_queries_1e4")
SETUP_REPS = 5
MEM_CAP_MB = 1024
DEADLINE_S = 170


def fail(code: int, message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def git_sha() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def parse_worker(stdout: str):
    setup, ops, result = None, [], None
    for line in stdout.splitlines():
        tag, _, rest = line.partition(" ")
        if tag == "S":
            setup = json.loads(rest)
        elif tag == "O":
            name, kind, seconds, status = rest.split(" ", 3)
            ops.append((name, kind, float(seconds), status))
        elif tag == "R":
            result = json.loads(rest)
    return setup, ops, result


def tail(lat: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it."""
    xs = sorted(lat)
    if len(xs) <= 10:
        return xs[-1], 100.0, 0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs), 10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    try:
        reference.self_test()
    except reference.Mismatch as exc:
        return fail(3, f"reference self-test failed: {exc}")
    if not os.path.isfile(os.path.join("src", "kummercover", "__init__.py")):
        return fail(2, "no kummercover source under ./src; run from the root of a checkout")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)

    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mem-cap-mb", str(MEM_CAP_MB)]

    def worker(extra):
        left = DEADLINE_S - (time.monotonic() - started)
        return subprocess.run(cmd + extra, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(left, 1))

    setup_samples = []
    try:
        if not args.trace:
            for _ in range(SETUP_REPS - 1):
                proc = worker(["--setup-only"])
                setup, _, _ = parse_worker(proc.stdout)
                if proc.returncode or setup is None:
                    return fail(1, f"set-up failed (exit {proc.returncode})")
                setup_samples.append(setup["setup_s"])
        proc = worker([])
    except subprocess.TimeoutExpired:
        return fail(1, f"no result within {DEADLINE_S} s")
    setup, ops, result = parse_worker(proc.stdout)
    if setup is None:
        return fail(1, f"worker exited {proc.returncode} during set-up")
    killed = proc.returncode < 0
    if proc.returncode > 0 or (result is None and not killed):
        return fail(1, f"worker exited {proc.returncode}")
    if killed:
        # the op in flight when the child died is a failed op, like a MemoryError
        ops.append(("timed", "killed", 0.0, f"killed_by_signal_{-proc.returncode}"))
    setup_samples.append(setup["setup_s"])

    timed = [o for o in ops if o[0] == "timed"]
    if not timed:
        return fail(1, "no timed op completed")
    failed = sum(1 for o in ops if o[3] != "ok")
    lat = [o[2] for o in timed]
    tail_s, tail_pct, beyond = tail(lat)
    if result is not None:
        ops_per_s = result["timed"]["ops_per_s"]
        rss = result["peak_rss_mb"]
    else:
        ops_per_s = sum(1 for o in timed if o[3] == "ok") / sum(lat)
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    e2e = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_samples),
    }
    problems = list(result.get("design_problems", [])) if result else ["worker was killed"]

    env_info = {"nproc": len(os.sched_getaffinity(0)), "python": setup["python"],
                "numpy": setup["numpy"], "kummercover": setup["kummercover"],
                "git_sha": git_sha(), "blas_threads": 1, "mem_cap_mb": MEM_CAP_MB}
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env_info)}")
    print(f"# inputs {json.dumps(setup['inputs'])}")
    print(f"ops_per_s = {e2e['ops_per_s']:.4f} 1/s  (timed pass: {len(timed)} ops, "
          "closed loop, one client)")
    print(f"op_p50_ms = {e2e['op_p50_ms']:.4f} ms")
    print(f"op_tail_ms = {e2e['op_tail_ms']:.4f} ms  (p{tail_pct:.1f}: {beyond} of "
          f"{len(lat)} samples beyond)")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.1f} MiB")
    print(f"setup_s = {e2e['setup_s']:.4f} s  (median of {len(setup_samples)} set-ups)")
    print(f"fail_frac = {failed / len(ops):.4f}  ({failed} of {len(ops)} ops failed)")
    for o in ops:
        if o[3] != "ok":
            print(f"# failed {o[0]} {o[1]}: {o[3]}")

    if args.trace:
        layers = result["layers"] if result else {}
        for name in sorted(layers):
            print(f"# layer {name} = {layers[name]:.6g}")
        if result and result["errors"]:
            print(f"# errors by module and exception type {json.dumps(result['errors'])}")
        wanted, source = spec["per_layer"], layers
    else:
        wanted, source = spec["end_to_end"], e2e
    for p in problems:
        print(f"# design check failed: {p}")
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        return fail(1, f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    os.makedirs(".perfbench", exist_ok=True)
    record = os.path.join(".perfbench", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "env": env_info, "inputs": setup["inputs"],
                   "end_to_end": e2e, "tail_percentile": tail_pct,
                   "setup_samples": setup_samples, "worker": result,
                   "ops": ops}, fh, indent=1)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
