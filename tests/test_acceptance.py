"""End-to-end acceptance gate: one test per numbered criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line with its key
measurements before asserting, so a verbose run reads as a checklist.
Criterion 4 is a known failure and is kept faithful rather than loosened:
its targets require a sliding-window KS monitor to catch a label reversal
within one chunk, but a 100-chunk window never fills on a 100-chunk
stream, so the mixed/kswin cell never alarms and both methods tie far
below the target band. The other nine criteria pass.
"""

import dataclasses
import time

import numpy as np
import pytest

from drifttune.classifier import GaussianNB, op_counts
from drifttune.cli import main
from drifttune.detectors import make_monitor
from drifttune.dtd import DtdState, dtd_step
from drifttune.harness import ExperimentConfig, detector_for_run, run_experiment, run_suite
from drifttune.stream import StreamConfig, make_stream

DETECTORS = ("ddm", "ph", "kswin", "hddm_a", "hddm_w")
SEEDS = tuple(range(20))

# monitor warm-up lengths for the responsiveness probe; kswin needs a
# full window and hddm_a a tight bound before a step can register
WARM_UPDATES = {"ddm": 50, "ph": 50, "kswin": 100, "hddm_a": 100, "hddm_w": 50}


def report(number: int, ok: bool, detail: str) -> str:
    line = f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def warm_kernels():
    """Absorb one-time kernel setup before any timed budget."""
    stream = make_stream(StreamConfig(kind="sea", seed=0, n_chunks=2, chunk_size=64))
    model = GaussianNB().train(stream.chunk(0))
    model.predict(stream.chunk(1).X)
    op_counts.reset()


@pytest.fixture(scope="module")
def sea_ddm_cell(warm_kernels):
    """The headline cell: default sea stream, ddm, continual, 20 seeds."""
    config = ExperimentConfig(name="sea_ddm", stream=StreamConfig(kind="sea"),
                              detector="ddm", seeds=SEEDS)
    start = time.perf_counter()
    baseline = run_experiment(config, "baseline", write=False)["baseline"]
    elapsed = time.perf_counter() - start
    dtd = run_experiment(config, "dtd", write=False)["dtd"]
    return baseline, dtd, elapsed


@pytest.fixture(scope="module")
def synthetic_grid(warm_kernels, tmp_path_factory):
    """Five stream families x five monitors x both training modes."""
    streams = {
        "sea0": StreamConfig(kind="sea"),
        "sea10": StreamConfig(kind="sea", noise=0.10),
        "sea20": StreamConfig(kind="sea", noise=0.20),
        "sine": StreamConfig(kind="sine"),
        "mixed": StreamConfig(kind="mixed"),
    }
    configs = [
        ExperimentConfig(name=f"{stream_name}_{detector}_{mode}", stream=stream,
                         detector=detector, mode=mode, seeds=SEEDS)
        for stream_name, stream in streams.items()
        for detector in DETECTORS
        for mode in ("continual", "sporadic")
    ]
    out = tmp_path_factory.mktemp("grid")
    start = time.perf_counter()
    _, summary = run_suite(configs, out=out, parallel=4)
    return summary, time.perf_counter() - start


def test_criterion_01_sea_baseline_accuracy(sea_ddm_cell):
    baseline, _, elapsed = sea_ddm_cell
    mean = 100.0 * baseline.mean_accuracy
    ok = abs(mean - 94.03) <= 1.5 and elapsed < 30.0
    line = report(1, ok, f"sea/ddm baseline mean {mean:.2f} (target 94.03 +/- 1.5), "
                         f"{elapsed:.1f}s of 30s budget")
    assert ok, line


def test_criterion_02_threshold_race_improves_sea_cell(sea_ddm_cell):
    baseline, dtd, _ = sea_ddm_cell
    delta = 100.0 * (dtd.mean_accuracy - baseline.mean_accuracy)
    seed_wins = sum(1 for d, b in zip(dtd.per_seed_accuracy, baseline.per_seed_accuracy)
                    if d > b)
    ok = delta >= 0.2
    line = report(2, ok, f"paired delta {delta:+.3f} points (bar +0.2), "
                         f"{seed_wins}/{len(SEEDS)} seed wins")
    assert ok, line


def test_criterion_03_grid_win_rate(synthetic_grid):
    summary, elapsed = synthetic_grid
    satisfied = summary["wins"] + summary["ties"]
    rate = satisfied / summary["n_pairs"]
    ok = summary["n_pairs"] == 50 and rate >= 0.70 and elapsed < 600.0
    line = report(3, ok, f"dtd >= baseline in {satisfied}/{summary['n_pairs']} cells "
                         f"({summary['wins']} wins, {summary['ties']} ties), "
                         f"{elapsed:.0f}s of 600s budget")
    assert ok, line


def test_criterion_04_mixed_kswin_targets(warm_kernels):
    """Known failure: a 100-chunk KS window cannot fill on this stream.

    Every other monitor lands mixed/continual inside the target band by
    catching each reversal on its first drifted chunk; kswin never emits
    a nonzero statistic here, so both methods tie at the no-detector
    accuracy. The targets are asserted as stated instead of being bent
    around that limitation.
    """
    config = ExperimentConfig(name="mixed_kswin", stream=StreamConfig(kind="mixed"),
                              detector="kswin", seeds=SEEDS)
    results = run_experiment(config, write=False)
    baseline = 100.0 * results["baseline"].mean_accuracy
    dtd = 100.0 * results["dtd"].mean_accuracy
    ok = abs(baseline - 83.87) <= 1.5 and abs(dtd - 84.23) <= 1.5 and dtd >= baseline
    line = report(4, ok, f"mixed/kswin baseline {baseline:.2f} (target 83.87 +/- 1.5), "
                         f"dtd {dtd:.2f} (target 84.23 +/- 1.5)")
    assert ok, line


def test_criterion_05_race_length_stability(warm_kernels):
    means = {}
    for race_len in range(1, 11):
        config = ExperimentConfig(name=f"race{race_len}", stream=StreamConfig(kind="sea"),
                                  detector="ddm", race_len=race_len, seeds=SEEDS)
        result = run_experiment(config, "dtd", parallel=4, write=False)["dtd"]
        means[race_len] = 100.0 * result.mean_accuracy
    spread = max(means.values()) - min(means.values())
    ok = spread <= 2.0
    line = report(5, ok, f"race length 1..10 accuracy spread {spread:.3f} points (bar 2.0)")
    assert ok, line


def test_criterion_06_comparison_cost_bound(warm_kernels):
    """Instance counters: racing three candidates costs at most 3x a
    quiet chunk (one predict plus one train) on every comparison chunk."""
    config = ExperimentConfig(name="cost", stream=StreamConfig(kind="sea"),
                              detector="ddm", seeds=SEEDS)
    worst_ratio = 0.0
    comparison_chunks = 0
    for seed in range(5):
        stream = make_stream(dataclasses.replace(config.stream, seed=seed))
        state = DtdState(GaussianNB().train(stream.chunk(0)),
                         detector_for_run(config, seed))
        op_counts.reset()
        quiet, racing = [], []
        before = op_counts.snapshot()
        for i in range(1, len(stream)):
            outcome = dtd_step(state, stream.chunk(i))
            after = op_counts.snapshot()
            cost = (after[0] - before[0]) + (after[1] - before[1])
            before = after
            if outcome.phase == "comparison":
                racing.append(cost)
            elif not outcome.alarm:
                quiet.append(cost)
        assert quiet and racing
        comparison_chunks += len(racing)
        worst_ratio = max(worst_ratio, max(racing) / max(quiet))
    ok = worst_ratio <= 3.0
    line = report(6, ok, f"worst comparison/normal cost ratio {worst_ratio:.2f} "
                         f"over {comparison_chunks} comparison chunks (bar 3.0)")
    assert ok, line


def test_criterion_07_missed_detection_advantage(warm_kernels):
    from drifttune.theory import validate_theorem1
    start = time.perf_counter()
    result = validate_theorem1()
    elapsed = time.perf_counter() - start
    sim = result["simulation"]["sim"]
    ok = result["pass"] and elapsed < 10.0
    line = report(7, ok, f"analytic A_M {result['analytic_example']['A_M']:.3f} > "
                         f"A_P {result['analytic_example']['A_P']:.3f}, simulated "
                         f"A_M {sim['A_M']:.3f} > A_P {sim['A_P']:.3f}, "
                         f"{elapsed:.1f}s of 10s budget")
    assert ok, line


def test_criterion_08_dynamic_threshold_dominance(warm_kernels):
    from drifttune.theory import validate_theorem3_analytic
    start = time.perf_counter()
    result = validate_theorem3_analytic(n_configs=100)
    elapsed = time.perf_counter() - start
    ok = (result["n_configs"] == 100 and result["min_margin"] >= -1e-12
          and elapsed < 10.0)
    line = report(8, ok, f"min margin {result['min_margin']:.3e} over 100 configs "
                         f"(bar -1e-12), {elapsed:.1f}s of 10s budget")
    assert ok, line


def test_criterion_09_detector_properties(warm_kernels):
    """Stationary binomial error rates must stay quiet; a 0.1 to 0.6
    step must alarm within 20 updates, for every monitor at defaults."""
    start = time.perf_counter()
    false_alarm_means = {}
    step_hits = {}
    for kind in DETECTORS:
        total = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((0, seed))))
            monitor = make_monitor(kind)
            for _ in range(100):
                if monitor.update(rng.binomial(1000, 0.1) / 1000) > monitor.threshold:
                    total += 1
                    monitor.reset()
        false_alarm_means[kind] = total / 100

        hits = 0
        for seed in range(100):
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((1, seed))))
            monitor = make_monitor(kind)
            for _ in range(WARM_UPDATES[kind]):
                monitor.update(rng.binomial(1000, 0.1) / 1000)
            for _ in range(20):
                if monitor.update(rng.binomial(1000, 0.6) / 1000) > monitor.threshold:
                    hits += 1
                    break
        step_hits[kind] = hits
    elapsed = time.perf_counter() - start
    quiet_ok = all(mean <= 1.0 for mean in false_alarm_means.values())
    step_ok = all(hits >= 95 for hits in step_hits.values())
    ok = quiet_ok and step_ok and elapsed < 60.0
    worst_quiet = max(false_alarm_means, key=false_alarm_means.get)
    worst_step = min(step_hits, key=step_hits.get)
    line = report(9, ok, f"false alarms/100 updates worst {worst_quiet} "
                         f"{false_alarm_means[worst_quiet]:.2f} (bar 1.0), step caught "
                         f"worst {worst_step} {step_hits[worst_step]}/100 (bar 95), "
                         f"{elapsed:.1f}s of 60s budget")
    assert ok, line


def test_criterion_10_suite_determinism(warm_kernels, tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    (config_dir / "alpha.yaml").write_text(
        "stream:\n  kind: sea\n  n_chunks: 30\n  chunk_size: 200\n"
        "detector:\n  kind: ddm\nseeds: 3\n")
    (config_dir / "beta.yaml").write_text(
        "stream:\n  kind: sine\n  n_chunks: 30\n  chunk_size: 200\n"
        "detector:\n  kind: ph\nmode: sporadic\nseeds: 3\n")
    outs = []
    for label, workers in (("first", "4"), ("second", "1")):
        out = tmp_path / label
        code = main(["suite", "--config", str(config_dir), "--out", str(out),
                     "--parallel", workers])
        assert code == 0
        outs.append(out)
    names = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.json"))
    assert names, "suite wrote no JSON summaries"
    identical = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                    for n in names)
    ok = identical and len(names) >= 5
    line = report(10, ok, f"{len(names)} JSON summaries byte-identical across "
                          f"repeated runs at parallel 4 and 1")
    assert ok, line
