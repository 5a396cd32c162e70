"""Performance benchmark of the decycle library.

Usage, from the root of a checkout (stdlib only, nothing installed):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 50 --trace 0

One process, one thread, a closed loop: the ops of a run go back to
back. The run builds the workload's instances from ``--seed``, then runs
passes over them while the next pass is expected to end within
``--seconds`` (at least one pass), checks every output with the
independent checker, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace
0`` the metrics are the end-to-end ones; with ``--trace 1`` passes
alternate untraced and traced, and the metrics are per layer. A
record of the run, with its environment, goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import check
import spans

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
try:
    import decycle
    import workloads
except ModuleNotFoundError as exc:
    if exc.name != "decycle":
        raise
    decycle = workloads = None  # no library sources here; main() says so
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 7
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and build the instances, then print 'ready'")
    return p.parse_args(argv)


# -- set-up -------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes: interpreter start, ``import
    decycle`` and building every instance, up to the first op."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=120) != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        times.append(t1 - t0)
    return times


# -- timed passes ---------------------------------------------------------------


class Pass:
    """One pass over every instance: op latencies, errors and output
    digests. Only a run's first pass keeps the outputs themselves, for the
    checker, so memory does not grow with the number of passes."""

    def __init__(self):
        self.latencies: list[float] = []
        self.results: list = []
        self.errors: list = []
        self.digests: list = []
        self.trace = None
        self.layer = None

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def run_pass(kind, instances, tracer=None, keep_results=False) -> Pass:
    """One pass; ``layer`` holds its per-layer metrics when traced."""
    gc.collect()
    ps = Pass()
    if tracer is not None:
        tracer.install()
    try:
        for inst in instances:
            t0 = perf_counter()
            try:
                result = workloads.run_op(kind, inst)
                error = None
            except Exception:  # counted as a failed op; the run goes on
                result, error = None, traceback.format_exc()
            ps.latencies.append(perf_counter() - t0)
            ps.results.append(result)
            ps.errors.append(error)
    finally:
        if tracer is not None:
            tracer.restore()
            ps.trace = tracer.take()
    ps.digests = [None if r is None else workloads.digest([r.to_json_obj()])
                  for r in ps.results]
    if not keep_results:
        ps.results = None
    if tracer is not None:
        ps.layer = spans.layer_metrics(ps.trace)
        ps.layer["trace.coverage"] = spans.root_time(ps.trace) / ps.wall
    return ps


def run_passes(kind, instances, budget_s: float, tracer=None) -> list[Pass]:
    """Passes while the next one is expected to end within ``budget_s``,
    at least one. With a tracer, passes alternate untraced and traced, so
    both see the same machine conditions; there is at least one of each,
    and only the last traced pass keeps its spans."""
    passes = []
    start = perf_counter()
    while True:
        p0 = perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            for done in passes:
                done.trace = None
        passes.append(run_pass(kind, instances, tracer if traced else None, not passes))
        last = perf_counter() - p0
        enough = tracer is None or len(passes) >= 2
        if enough and perf_counter() - start + last > budget_s:
            return passes


# -- outputs ---------------------------------------------------------------


def check_outputs(kind, instances, passes) -> tuple[list[bool], list[dict], list[str]]:
    """Per instance: whether it failed, its summary, and problems found.

    An instance fails when an op on it raised, when its output differs
    between passes, or when the checker rejects its first output.
    """
    failed, summaries, notes = [], [], []
    for i, inst in enumerate(instances):
        errors = [p.errors[i] for p in passes if p.errors[i] is not None]
        if errors:
            failed.append(True)
            summaries.append(None)
            notes.append(f"instance {i} raised:\n{errors[0]}")
            continue
        first = passes[0].results[i]
        summary = first.to_json_obj()
        summaries.append(summary)
        edges = {eid: (u, v) for eid, u, v in inst.graph.edges()}
        if kind == "analyze":
            problems = check.check_analyze(edges, summary)
        else:
            witness = decycle.decycle_general(
                inst.graph, first.best_decomposition,
                decycle.build_ci(inst.graph, first.best_decomposition),
            ).sorted_vertices()
            problems = check.check_local_search(
                edges, summary, witness, workloads.LOCAL_SEARCH_BUDGET)
        if len({p.digests[i] for p in passes}) > 1:
            problems.append("output differs between passes (or traced and untraced)")
        failed.append(bool(problems))
        notes.extend(f"instance {i}: {p}" for p in problems)
    return failed, summaries, notes


def per_op_median(passes) -> list[float]:
    """Each op's median latency over the passes. A run spreads several
    passes over its time, so bursts of interference from other tenants of
    a shared machine move few of an op's samples."""
    return [statistics.median(p.latencies[i] for p in passes)
            for i in range(len(passes[0].latencies))]


def bound_of(summary: dict) -> int:
    return summary["bounds"]["general"] if "bounds" in summary else summary["best_bound"]


def tail(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least 10 samples beyond it, and
    its value (nearest-rank)."""
    n = len(values)
    ordered = sorted(values)
    for pct in TAIL_LADDER:
        rank = -(-n * pct // 100)  # ceil
        if n - rank >= 10:
            return pct, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


# -- environment ---------------------------------------------------------------


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30, check=True).stdout.strip()
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=ROOT, capture_output=True, text=True, timeout=30,
                                        check=True).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {"seed": seed, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "dirty": dirty}


def write_record(name: str, record: dict) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def write_spans(name: str, trace: spans.Trace) -> None:
    OUT.mkdir(exist_ok=True)
    obj = {"names": spans.NAMES, "name": trace.name.tolist(), "parent": trace.parent.tolist(),
           "start": trace.start.tolist(), "end": trace.end.tolist()}
    with gzip.open(OUT / name, "wt") as f:
        json.dump(obj, f, separators=(",", ":"))


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if workloads is None:
        print(f"perfbench: no decycle sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build_instances(args.workload, args.seed)
        print("ready", flush=True)
        return 0

    kind = workloads.WORKLOADS[args.workload].kind
    env = environment(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    tracer = spans.Tracer() if args.trace else None
    record = {"workload": args.workload, "env": env, "seconds": args.seconds}

    if tracer is None:
        setup_times = measure_setup(args.workload, args.seed)
        instances = workloads.build_instances(args.workload, args.seed)
        passes = run_passes(kind, instances, args.seconds)
    else:
        with tracer:
            instances = workloads.build_instances(args.workload, args.seed)
        setup_metrics = spans.layer_metrics(tracer.take())
        passes = run_passes(kind, instances, args.seconds, tracer)
        traced = [p for p in passes if p.layer is not None]
        untraced = [p for p in passes if p.layer is None]

    failed, summaries, notes = check_outputs(kind, instances, passes)
    attempted = len(instances) * len(passes)
    n_failed = sum(failed) * len(passes)
    good = [s for s in summaries if s is not None]
    out_digest = workloads.digest(summaries)
    record.update(digest=out_digest, instances=len(instances), passes=len(passes),
                  attempted=attempted, failed=n_failed, failed_frac=n_failed / attempted,
                  problems=notes[:50])

    print(f"perfbench {args.workload} seed {args.seed}: {len(instances)} instances, "
          f"{len(passes)} passes, {attempted} ops, {n_failed} failed "
          f"(failed_frac {n_failed / attempted:g})")
    print(f"digest {out_digest}")
    print("env " + json.dumps(env, sort_keys=True))
    for note in notes[:5]:
        print("problem: " + note.splitlines()[0], file=sys.stderr)

    if tracer is None:
        typical = per_op_median(passes)
        pct, tail_s = tail(typical)
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (sum(typical), "s"),
            "op_p50_s": (statistics.median(typical), "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "bound_sum": (sum(bound_of(s) for s in good), "count"),
        }
        record.update(setup_samples=setup_times, latencies=[p.latencies for p in passes],
                      op_tail_percentile=pct, op_tail_samples=len(typical))
        print(f"op_tail_s is p{pct:g} of {len(typical)} instance latencies "
              f"(median of {len(passes)} passes each)")
    else:
        layer = {k: statistics.median_low(p.layer[k] for p in traced) for k in traced[0].layer}
        for k in ("families.build_family.calls", "families.build_family.self_s"):
            layer[k] = setup_metrics[k]
        layer["optimize.rank_sum"] = sum(s["best_rank"] for s in good if "best_rank" in s)
        layer["trace.overhead"] = sum(per_op_median(traced)) / sum(per_op_median(untraced))
        units = {"self_s": "s", "true_ratio": "ratio", "evaluations_per_s": "1/s",
                 "overhead": "ratio", "coverage": "ratio"}
        metrics = {k: (v, units.get(k.rsplit(".", 1)[1], "count")) for k, v in layer.items()}
        record.update(untraced_walls=[p.wall for p in untraced],
                      traced_walls=[p.wall for p in traced])
        write_spans(f"{tag}.spans.json.gz", traced[-1].trace)

    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    write_record(f"{tag}.json", record)
    print(json.dumps({"correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
