#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for drifttune.

Run from the repository root:

    python3 e2ebench/run.py --workload sea-ddm-continual --seed 0 --seconds 30 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; the reason
for each workload and the per-layer predictions are in
``e2ebench/predictions.json``.

With ``--trace 0`` the run sets up the workload several times (reporting
the median as ``setup_s``), then repeats the workload's job for
``--seconds`` and prints every end-to-end metric. With ``--trace 1`` it
does the same untraced loop, then one more job with the tracer patched in,
and prints every per-layer metric instead. Each job's outputs are hashed;
every repetition must reproduce the first, and at the default seed the
first must match ``e2ebench/reference.json``. A mismatching job counts all
its runs as failed. Every run prints its first job's ``digest``; when a
change to the traces is intended, run the workload at ``--seed 0`` (and at
``--profile tiny`` for the smoke test) and paste the printed digest into
``reference.json`` by hand.

Timings are scaled to one machine speed. The machine this was written on
is shared, and its speed swings by up to 3x within seconds and by 2x for
minutes at a time, which no run length averages out. So a fixed speed
probe (``workloads.SpeedProbe``, a few ms of the program's own mix of
small numpy operations and Python arithmetic) is timed right before and
right after every timed call, and the call's time is multiplied by
``probe_ms`` from ``reference.json`` over the mean of those two probes. A program change
moves the scaled times; a change in machine speed moves the probe too and
cancels. ``probe_ms`` is the median probe measured on the host that
recorded the digests, so a scaled time is the wall time that host shows
at its usual speed. Every run prints its own median probe; paste it into
``reference.json`` together with the digests when re-recording on another
host. The unscaled figures are printed on the ``raw`` line and stored in
the full record. Per-layer self times are not scaled.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record,
with the environment, goes to ``.bench_out/`` under the repository root,
next to the span file of a traced run.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import tracer as tracer_mod
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 7
METHODS = ("baseline", "dtd")
RUNNER_SPANS = ("harness.run_experiment", "harness.run_single",
                "harness.baseline_trace", "harness.dtd_trace")
TIMED_SPANS = ("stream.chunk", "kernels.class_stats", "kernels.predict_indices",
               "classifier.predict", "classifier.train", "classifier.copy",
               "detectors.update", "dtd.create_candidates", "dtd.eval_candidates",
               "harness.write_result")
SELF_MS_SPANS = ("classifier.evaluate", "dtd.dtd_step", "harness.trace_append",
                 "harness.summarize", "harness.summarize_stored",
                 "harness.load_config_dir", "cli.main")
COUNTED_SPANS = ("classifier.adapt", "detectors.clone", "detectors.fresh",
                 "detectors.reset", "dtd.dtd_step")


def load_package():
    """Import drifttune from this checkout's ``src/``, never from elsewhere."""
    init = ROOT / "src" / "drifttune" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"e2ebench: no drifttune sources at {init.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import drifttune
    import drifttune.cli  # noqa: F401  (the CLI is not imported by the package)
    if Path(drifttune.__file__).resolve() != init.resolve():
        raise SystemExit(f"e2ebench: imported drifttune from {drifttune.__file__}, not {init}")
    return drifttune


def time_import() -> float:
    """Seconds for a fresh interpreter to import the package and its CLI."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import drifttune.cli"], cwd=ROOT, env=env,
                   check=True, timeout=60)
    return time.perf_counter() - start


def environment(dt, recorded_pair: str | None) -> dict:
    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, timeout=30)
        commit = probe.stdout.strip() or None
    pair = "numba" if dt.kernels.NUMBA_ENABLED else "numpy"
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_imports": numba_imports,
        "numba_enabled": bool(dt.kernels.NUMBA_ENABLED),
        "DRIFTTUNE_NUMBA": os.environ.get("DRIFTTUNE_NUMBA"),
        "kernel_pair": pair,
        "kernel_pair_recorded": recorded_pair,
        "kernel_pair_differs": recorded_pair is not None and pair != recorded_pair,
        "git_commit": commit,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in (ROOT / "src").rglob("*.py")),
    }


def call_figures(jobs, weight) -> dict:
    """Throughput and per-run percentiles from the jobs' timed calls, each
    call's time multiplied by ``weight(call)``."""
    calls = [c for j in jobs for c in j.calls]
    timed_ms = sum(c.ms * weight(c) for c in calls)
    instances = sum(j.instances for j in jobs)
    out = {"instances_per_s": 1000.0 * instances / timed_ms if timed_ms else 0.0}
    for method in METHODS:
        per_run = [c.ms * weight(c) / c.runs for c in calls if c.method == method]
        out[f"{method}.run_ms.samples"] = len(per_run)
        for q in (50, 90):
            out[f"{method}.run_ms.p{q}"] = float(np.percentile(per_run, q)) if per_run else 0.0
    return out


class RaceProbe:
    """Counts instance work per ``dtd_step`` from ``classifier.op_counts``.

    ``op_counts`` is process-global, so this is only meaningful on the
    serial workloads, and it is reset before every run.
    """

    def __init__(self, op_counts):
        self.op_counts = op_counts
        self.runs: list[dict] = []
        self.winners: Counter = Counter()

    def start_run(self) -> None:
        self.op_counts.reset()
        self.runs.append({"comparison": [], "quiet": [], "alarm": []})

    def wrap(self, step):
        def probed(state, chunk):
            before = self.op_counts.snapshot()
            outcome = step(state, chunk)
            after = self.op_counts.snapshot()
            cost = (after[0] - before[0]) + (after[1] - before[1])
            kind = ("comparison" if outcome.phase == "comparison"
                    else "alarm" if outcome.alarm else "quiet")
            self.runs[-1][kind].append(cost)
            if outcome.winner is not None:
                self.winners[outcome.winner.name] += 1
            return outcome
        return probed

    def cost_ratio(self) -> float:
        """Worst per-run ratio of the costliest comparison chunk to the
        costliest quiet chunk (the paper bounds it by 3)."""
        ratios = [max(r["comparison"]) / max(r["quiet"]) for r in self.runs
                  if r["comparison"] and r["quiet"] and max(r["quiet"]) > 0]
        return max(ratios, default=0.0)

    def race_share(self) -> float:
        """Percent of dtd_step instance work spent on alarm and comparison chunks."""
        race = sum(sum(r["comparison"]) + sum(r["alarm"]) for r in self.runs)
        total = race + sum(sum(r["quiet"]) for r in self.runs)
        return 100.0 * race / total if total else 0.0


def traced_job(dt, workload):
    """One job with spans recorded; returns (job, per-layer metrics, tracer)."""
    op_counts = dt.classifier.op_counts
    race = RaceProbe(op_counts)
    written = [0]
    counts = Counter()

    def probe_write(write_result):
        def probed(result, out_root):
            cell_dir = write_result(result, out_root)
            written[0] += sum(p.stat().st_size for p in Path(cell_dir).iterdir())
            return cell_dir
        return probed

    tracer = tracer_mod.Tracer(dt, probes={"dtd.dtd_step": race.wrap,
                                           "harness.write_result": probe_write})

    def before_run(method):
        tracer.tag = method
        race.start_run()

    def after_run(method, trace):
        predicted, trained = op_counts.snapshot()
        counts["predict"] += predicted
        counts["train"] += trained
        counts["alarms"] += sum(trace.alarm)

    with tracer:
        job = workload.job(before_run, after_run)
    tracer.tag = ""

    self_ns, calls, covered_ns = tracer_mod.totals(tracer)
    timed_ns = job.timed_s * 1e9

    def ms(name):
        return self_ns.get(name, 0) / 1e6

    m: dict[str, float] = {}
    for name in TIMED_SPANS:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_ms"] = ms(name)
    for name in SELF_MS_SPANS:
        m[f"{name}.self_ms"] = ms(name)
    for name in COUNTED_SPANS:
        m[f"{name}.calls"] = calls.get(name, 0)
    m["classifier.predict.instances"] = counts["predict"]
    m["classifier.train.instances"] = counts["train"]
    m["detectors.alarms"] = counts["alarms"]
    for kind in ("EDM", "RDM", "PM"):
        m[f"dtd.winner.{kind}"] = race.winners.get(kind, 0)
    m["dtd.race_cost_ratio"] = race.cost_ratio()
    m["dtd.race_instance_share"] = race.race_share()
    m["harness.runner_self_ms"] = sum(ms(n) for n in RUNNER_SPANS)
    m["harness.fanout_wait_ms"] = ms("harness.run_suite")
    m["harness.write_result.bytes"] = written[0]

    dtd_self, dtd_calls, dtd_wall = tracer_mod.totals(tracer, "dtd")
    steps = dtd_calls.get("dtd.dtd_step", 0)
    m["kernels.class_stats.calls_per_chunk"] = (
        dtd_calls.get("kernels.class_stats", 0) / steps if steps else 0.0)
    model_ns = sum(t for n, t in dtd_self.items() if n.split(".")[0] in ("classifier", "kernels"))
    m["dtd_runs.classifier_kernels_share"] = 100.0 * model_ns / dtd_wall if dtd_wall else 0.0
    fixed = sum(t for n, t in self_ns.items() if n.split(".")[0] in ("stream", "detectors", "dtd"))
    fixed += self_ns.get("classifier.copy", 0)
    train = self_ns.get("classifier.train", 0) + self_ns.get("kernels.class_stats", 0)
    m["fixed_over_train"] = fixed / train if train else 0.0

    for layer in tracer_mod.LAYERS:
        layer_ns = sum(t for n, t in self_ns.items() if n.split(".")[0] == layer)
        m[f"share.{layer}"] = 100.0 * layer_ns / timed_ns if timed_ns else 0.0
    m["share.uncovered"] = 100.0 * (timed_ns - covered_ns) / timed_ns if timed_ns else 0.0
    return job, m, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="drifttune end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", default="full", choices=workloads.PROFILES,
                        help="'tiny' shrinks every input, for the smoke test")
    args = parser.parse_args(argv)

    dt = load_package()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    env = environment(dt, reference.get("recorded_on", {}).get("kernel_pair"))
    OUT_DIR.mkdir(exist_ok=True)

    setup_s, setup_probe_ms, workload = [], [], None
    probe = workloads.SpeedProbe()
    try:
        for _ in range(SETUP_REPEATS):
            if workload is not None:
                workload.close()
            before_ms = probe.ms()
            start = time.perf_counter()
            time_import()
            workload = workloads.make_workload(dt, args.workload, args.profile, args.seed)
            workload.setup(OUT_DIR)
            workload.warm_up()
            setup_s.append(time.perf_counter() - start)
            setup_probe_ms.append((before_ms + probe.ms()) / 2)

        jobs = []
        start = time.perf_counter()
        while not jobs or time.perf_counter() - start < args.seconds:
            jobs.append(workload.job())

        layer_metrics, tracer = {}, None
        if args.trace:
            traced, layer_metrics, tracer = traced_job(dt, workload)
    finally:
        if workload is not None:
            workload.close()

    first = jobs[0].digest
    attempted = sum(j.attempted for j in jobs)
    failed = sum(j.attempted if j.digest != first else j.failed for j in jobs)
    errors = [e for j in jobs for e in j.errors]
    if args.trace:
        attempted += traced.attempted
        failed += traced.attempted if traced.digest != first else traced.failed
        errors += traced.errors
    key = f"{args.workload}/{args.profile}"
    expected = reference.get("digests", {}).get(key)
    if args.seed != DEFAULT_SEED:
        reference_status = "not checked (not the default seed)"
    elif expected is None:
        reference_status = "missing"
    elif expected != first:
        reference_status = "mismatch"
        failed = attempted
    else:
        reference_status = "match"
    correct = failed == 0 and reference_status not in ("missing", "mismatch")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = getattr(workload, "parallel", 0)
    if workers:
        rss_mb += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    ref_probe_ms = reference["probe_ms"]
    run_probe_ms = statistics.median([c.probe_ms for j in jobs for c in j.calls] + setup_probe_ms)
    raw = call_figures(jobs, lambda c: 1.0)
    raw["setup_s"] = statistics.median(setup_s)
    calibrated = call_figures(jobs, lambda c: ref_probe_ms / c.probe_ms)
    calibrated["setup_s"] = statistics.median(
        t * ref_probe_ms / p for t, p in zip(setup_s, setup_probe_ms))
    e2e = {**calibrated, "peak_rss_mb": rss_mb}
    if args.trace:
        def ips(job):
            return call_figures([job], lambda c: ref_probe_ms / c.probe_ms)["instances_per_s"]
        traced_ips = ips(traced)
        layer_metrics["trace_overhead"] = (
            100.0 * (statistics.median(ips(j) for j in jobs) / traced_ips - 1.0)
            if traced_ips else 0.0)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layer_metrics if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in chosen}

    print(f"workload {args.workload}  seed {args.seed}  profile {args.profile}  "
          f"seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if env["kernel_pair_differs"]:
        print(f"FLAG: active kernel pair {env['kernel_pair']} differs from the recorded "
              f"{env['kernel_pair_recorded']}")
    print(f"jobs {len(jobs)}  timed {sum(j.timed_s for j in jobs):.3f} s  "
          f"setup runs {len(setup_s)}  speed probe median {run_probe_ms:.4f} ms, "
          f"reference {ref_probe_ms:.4f} ms")
    for method in METHODS:
        unit = ("ms per run, suite wall time over its runs" if workers else "ms")
        print(f"{method}.run_ms  samples {e2e[method + '.run_ms.samples']}  ({unit})")
    print("raw " + json.dumps(raw, sort_keys=True))
    print(f"error_rate {failed / attempted if attempted else 0.0}  "
          f"({failed} failed of {attempted} runs)")
    print(f"digest {first}  reference {reference_status}")
    for line in errors[:10]:
        print(f"error: {line}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, value in {**e2e, **layer_metrics}.items():
        if name in units:
            print(f"{name} {value} {units[name]}")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.profile}"
    record = {
        "workload": args.workload, "seed": args.seed, "profile": args.profile,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "jobs": len(jobs), "setup_s_all": setup_s, "setup_probe_ms": setup_probe_ms,
        "probe_ms_reference": ref_probe_ms, "probe_ms_median": run_probe_ms,
        "raw": raw, "digest": first, "reference": reference_status,
        "error_rate": failed / attempted if attempted else 0.0, "errors": errors,
        "end_to_end": e2e, "per_layer": layer_metrics,
        "calls": [[dataclasses.astuple(c) for c in j.calls] for j in jobs],
    }
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write_csv(OUT_DIR / f"spans-{stem}.csv")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
