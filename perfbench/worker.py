"""One workload in one process: set-up, warm-up, then a timed pass (traced or not).

``run.py`` starts this with PYTHONPATH pointing at the checkout's ``src`` and
single-threaded BLAS.  It writes line records to stdout, flushed as it goes,
so that the parent keeps the finished ops even if this process is killed:

    S <json>                         set-up time and environment
    O <pass> <kind> <seconds> <status>   one op; status is "ok" or the failure
    R <json>                         pass results and, when traced, per-layer metrics
"""

from __future__ import annotations

import time

T0 = time.perf_counter()     # set-up time starts before the heavy imports

import argparse
import gc
import json
import os
import platform
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing as tr  # noqa: E402  (no kummercover import; set-up is timed from T0)


_last_flush = 0.0


def emit(tag: str, text: str) -> None:
    # flush at most every 0.2 s: the parent then wakes a few times a second,
    # not once per op, and a kill loses at most that much of the record
    global _last_flush
    sys.stdout.write(f"{tag} {text}\n")
    now = time.perf_counter()
    if tag != "O" or now - _last_flush > 0.2:
        sys.stdout.flush()
        _last_flush = now


def run_op(op, tracer=None, op_id=None) -> tuple[float, float, str]:
    """One op: (latency of the library call, wall time with the check, status)."""
    start = time.perf_counter()
    if tracer is not None:
        tracer.begin_op(op_id)
    status = "ok"
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:    # MemoryError included: a failed op, not a crash
        result, status = None, type(exc).__name__
    t1 = time.perf_counter()
    if status == "ok":
        try:
            op.check(result)
        except Exception as exc:
            status = f"mismatch:{type(exc).__name__}:{exc}"
    del result
    if tracer is not None:
        tracer.end_op()
    if status != "ok" and hasattr(op.curve, "dead"):
        op.curve.dead = True
    return t1 - t0, time.perf_counter() - start, status


def run_traced(op, tracer, op_id) -> tuple[float, float, str]:
    tracer.install()
    try:
        return run_op(op, tracer, op_id)
    finally:
        tracer.uninstall()


def run_pass(name, cycles, seconds, tracer=None) -> dict:
    """Closed loop: each op starts when the previous one has returned.

    ``cycles`` yields groups of ops; each group holds the same mix of input
    sizes.  With ``seconds``, the pass ends at the group boundary nearest to
    ``seconds``, so that every pass measures whole groups and the same mix;
    without, it runs every group.

    With a tracer, each op also runs traced, right before or after its untraced
    run, so that both see the same machine and the overhead compares like with
    like.
    """
    count = failed = 0
    walls = [0.0, 0.0]                  # untraced, traced wall time of paired ops
    traced_ops = 0
    curves = set()
    done = 0                            # whole groups completed
    start = time.perf_counter()
    op_id = 0
    for group in cycles:
        for op in group:
            # odd ops run traced first, so that neither side always finds the
            # caches warm from the other
            traced_first = tracer is not None and op_id % 2 == 1
            if traced_first:
                tlat, twall, tstatus = run_traced(op, tracer, op_id)
            lat, wall, status = run_op(op)
            count += 1
            failed += status != "ok"
            emit("O", f"{name} {op.kind} {lat!r} {status.replace(' ', '_')[:300]}")
            if tracer is not None and status == "ok":
                if not traced_first:
                    tlat, twall, tstatus = run_traced(op, tracer, op_id)
                emit("O", f"traced {op.kind} {tlat!r} {tstatus.replace(' ', '_')[:300]}")
                traced_ops += 1
                walls[0] += wall
                walls[1] += twall
                curves.add(op.curve)
            op_id += 1
        done += 1
        elapsed = time.perf_counter() - start
        if seconds is not None and elapsed + elapsed / done / 2 >= seconds:
            break
    elapsed = time.perf_counter() - start
    out = {"ops": count, "failed": failed, "groups": done, "elapsed_s": elapsed,
           "ops_per_s": (count - failed) / elapsed if elapsed > 0 else 0.0}
    if tracer is not None:
        out.update(traced_ops=traced_ops, traced_curves=len(curves),
                   overhead_frac=1.0 - walls[0] / walls[1] if walls[1] else 0.0)
    return out


def layer_metrics(tracer, setup_tracer, timed: dict) -> tuple[dict, list]:
    """Per-layer metrics of the traced ops, and the accounting check if it failed."""
    ops = max(timed["traced_ops"], 1)
    by_name, per_op = tracer.self_times()
    calls = tracer.calls()
    m = {}
    for module, names in tr.TRACED.items():
        for name in names:
            m[f"{module}.{name}.self_s"] = by_name.get(f"{module}.{name}", 0.0) / ops
    m["bench.op.self_s"] = by_name.get(tr.ROOT, 0.0) / ops
    m["trace.hook.self_s"] = by_name.get(tr.HOOK, 0.0) / ops
    setup_self, _ = setup_tracer.self_times()
    m["cover.validate.self_s"] = setup_self.get("cover.validate", 0.0)
    m["schreier.gen_letters"] = tracer.counters["schreier.gen_letters"] / ops
    fin, fout = tracer.counters["folding.fold_in_letters"], tracer.counters["folding.fold_out_vertices"]
    m["folding.fold_in_letters"] = fin / ops
    m["folding.fold_out_vertices"] = fout / ops
    m["folding.fold_yield"] = fout / fin if fin else 0.0
    m["schreier.y_basis.calls_per_curve"] = calls["schreier.y_basis"] / max(timed["traced_curves"], 1)
    m["homology.multiplicity_rank_oracle.calls"] = calls["homology.multiplicity_rank_oracle"] / ops
    m["exactlin.smith_row.calls"] = calls["exactlin.smith_row"] / ops
    root_total = sum(root for root, _ in per_op) or 1.0
    share = {mod: 0.0 for mod in tr.MODULES}
    for key, own in by_name.items():
        mod = key.split(".")[0]
        if mod in share:
            share[mod] += own
    for mod in tr.MODULES:
        m[f"{mod}.share"] = share[mod] / root_total
        m[f"{mod}.errors"] = sum(c for (em, _), c in tracer.errors.items() if em == mod)
    m["homology.calls"] = sum(c for k, c in calls.items() if k.startswith("homology."))
    m["trace.overhead_frac"] = timed["overhead_frac"]

    problems = []
    worst = max((abs(total - root) / max(root, 1e-12) for root, total in per_op), default=0.0)
    m["trace.accounting_error"] = worst
    if worst > 1e-6:
        problems.append(f"layer self times miss their op's root span by {worst:.2e}")
    return m, problems


def design_problems(workload: str, m: dict) -> list[str]:
    """The layer shares each workload was chosen for; a change that breaks one
    has turned the workload into a different one."""
    if workload == "report_mix":
        top = max(tr.MODULES, key=lambda mod: m[f"{mod}.share"])
        if top != "folding":
            return [f"{top}, not folding, has the largest self-time share in report_mix"]
    elif workload == "homology_large_n":
        if m["homology.share"] < 0.9:
            return [f"homology has {m['homology.share']:.1%} of op time, predicted >= 90%"]
    elif m["homology.calls"]:
        return [f"homology was called {m['homology.calls']} times in {workload}"]
    return []


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--mem-cap-mb", type=int, required=True)
    args = ap.parse_args()

    cap = args.mem_cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    import numpy
    import kummercover
    import kummercover.cli  # noqa: F401  (the tracer patches it)
    import workloads

    setup_tracer = tr.Tracer()
    if args.trace:
        setup_tracer.install()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed)
    finally:
        setup_tracer.uninstall()
    setup_s = time.perf_counter() - T0
    emit("S", json.dumps({
        "setup_s": setup_s, "python": platform.python_version(),
        "numpy": numpy.__version__, "kummercover": kummercover.__version__,
        "inputs": wl.info}))
    if args.setup_only:
        return 0

    warm = run_pass("warmup", [wl.warmup()], None)
    # what set-up and warm-up left alive (inputs, prebuilt graphs) belongs to
    # the benchmark, not to the ops: keep the collector from re-traversing it
    gc.collect()
    gc.freeze()
    tracer = tr.Tracer() if args.trace else None
    timed = run_pass("timed", wl.stream(args.seconds),
                     args.seconds if wl.cut_by_time else None, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {"warmup": warm, "timed": timed, "peak_rss_mb": peak_rss_mb}
    if tracer is not None:
        metrics, problems = layer_metrics(tracer, setup_tracer, timed)
        problems += design_problems(args.workload, metrics)
        out.update(layers=metrics, design_problems=problems,
                   errors={f"{mod}.{exc}": c for (mod, exc), c in tracer.errors.items()})
        os.makedirs(".perfbench", exist_ok=True)
        path = os.path.join(".perfbench", f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    emit("R", json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
