"""The package names that the benchmark's tracer patches must exist, the
classifier must call the kernels it counts, and a race step must return
what the benchmark's race probe reads.

``e2ebench/tracer.py`` wraps package functions and methods by name, and its
own smoke test is not part of this suite; this test loads the tracer
(read-only) and checks every entry point it would patch. A kernel span
counts only calls made through the ``kernels`` module attribute, so the
classifier must keep calling ``kernels.predict_indices`` and
``kernels.class_stats`` that way, or those spans go silently empty; a
sporadic model scores a window ahead through the same attribute.
``RaceProbe`` in ``e2ebench/run.py`` wraps ``dtd_step``: it brackets each
call with ``classifier.op_counts.snapshot()``, sorts the step by its
outcome's ``phase`` and ``alarm``, and counts ``winner.name``.
"""

import importlib.util
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import drifttune
import drifttune.cli  # noqa: F401  (entry_points reads drifttune.cli)
from drifttune import classifier, dtd, kernels
from drifttune.classifier import GaussianNB, evaluate
from drifttune.detectors import make_monitor
from drifttune.dtd import DtdState, baseline_step, dtd_step
from drifttune.harness import (ExperimentConfig, detector_for_run, run_experiment, run_policies,
                               run_suite)
from drifttune.stream import Stream, StreamConfig, make_stream

TRACER = Path(__file__).resolve().parent.parent / "e2ebench" / "tracer.py"


def test_every_traced_entry_point_exists():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    points = tracer.entry_points(drifttune)
    assert points
    for name, owner, attr in points:
        # the tracer reads owner.__dict__[attr], so an inherited name would not do
        assert attr in vars(owner), f"{name}: {owner.__name__} has no {attr}"


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of the calls that reach the two counted kernels."""
    calls = Counter()
    for name in ("predict_indices", "class_stats"):
        def counting(*args, _name=name, _kernel=getattr(kernels, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(kernels, name, counting)
    return calls


def test_one_kernel_call_per_predict_and_per_trained_chunk(kernel_calls):
    chunks = list(make_stream(StreamConfig(kind="sea", n_chunks=8, chunk_size=200)))
    model = GaussianNB().train(chunks[0])
    for chunk in chunks[1:]:
        model.predict(chunk.X)
        model.train(chunk)
    assert kernel_calls == {"predict_indices": 7, "class_stats": 8}
    # a second model over the same chunks reads the statistics cached on them
    twin = GaussianNB()
    for chunk in chunks:
        twin.train(chunk)
    twin.predict(chunks[0].X)
    assert kernel_calls == {"predict_indices": 8, "class_stats": 8}


def test_a_run_computes_each_chunks_statistics_once(kernel_calls):
    stream = StreamConfig(kind="sea", n_chunks=30, chunk_size=200, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", seeds=(0, 1))
    run_experiment(config, method="baseline", write=False)
    # the baseline predicts every chunk after the warm-up with the primary model
    assert kernel_calls == {"predict_indices": 2 * 29, "class_stats": 2 * 30}
    kernel_calls.clear()
    run_experiment(config, method="dtd", write=False)
    assert kernel_calls["class_stats"] == 2 * 30


def test_suite_configs_on_one_stream_share_each_seeds_pass(kernel_calls, monkeypatch, tmp_path):
    """Three continual cells that read one stream run one pass per seed: each
    chunk is built once per seed and its statistics are computed at most once."""
    built = Counter()

    def counting_window(self, first, stop, _window=Stream.window):
        built.update((self.config.seed, i) for i in range(first, stop))
        return _window(self, first, stop)

    monkeypatch.setattr(Stream, "window", counting_window)
    stream = StreamConfig(kind="sea", n_chunks=12, chunk_size=100, drift_period=4)
    configs = [ExperimentConfig(name=detector, stream=stream, detector=detector, seeds=(0, 1),
                                out=str(tmp_path))
               for detector in ("ddm", "ph", "hddm_a")]
    run_suite(configs, parallel=1)
    assert built == {(seed, i): 1 for seed in (0, 1) for i in range(12)}
    assert 0 < kernel_calls["class_stats"] <= 2 * 12


def test_a_sine_pass_draws_each_chunk_once_and_scores_ahead_on_views(monkeypatch):
    """A pass builds each window as one feature block: each chunk's rows are
    drawn once, straight into the block, and the rows a stopped model scores
    ahead are a view of that block, not a copy of its chunks."""
    seeded = Counter()

    def counting(self, first, stop, _seeded=Stream._seeded):
        for index, rng in zip(range(first, stop), _seeded(self, first, stop)):
            seeded[index] += 1
            yield rng

    current = []  # the window of the chunk being stepped
    ahead = []  # per kernel call over more than one chunk: whether it reads the block

    def scoring(X, params, _kernel=kernels.predict_indices):
        if X.shape[0] > 100:
            ahead.append(np.shares_memory(X, current[-1].X))
        return _kernel(X, params)

    def recorded(state, chunk):
        window, position = chunk.window, chunk.position
        current.append(window)
        assert np.shares_memory(chunk.X, window.X)
        assert np.shares_memory(window.rows_from(position, len(window.starts) - 1), window.X)
        return baseline_step(state, chunk)

    monkeypatch.setattr(Stream, "_seeded", counting)
    monkeypatch.setattr(kernels, "predict_indices", scoring)
    stream = make_stream(StreamConfig(kind="sine", n_chunks=60, chunk_size=100, drift_period=10))
    state = DtdState(GaussianNB(), make_monitor("ddm"), training_mode="sporadic")
    run_policies(stream, [(recorded, state)])
    assert seeded == {i: 1 for i in range(60)}
    assert len(current) == 59 and len({id(w) for w in current}) == 3  # windows of 20 chunks
    assert ahead and all(ahead)


def test_continual_cells_that_never_alarm_make_the_kernel_calls_of_one(kernel_rows, tmp_path):
    """Continual models that never alarm all train on the same chunks in the
    same order, so they hold one state per chunk: three such cells in one
    pass, both methods each, make exactly the calls and rows of one cell."""
    stream = StreamConfig(kind="sea", n_chunks=12, chunk_size=100, drift_period=4)
    configs = [ExperimentConfig(name=detector, stream=stream, detector=detector,
                                detector_overrides={"threshold": math.inf}, seeds=(0,),
                                out=str(tmp_path))
               for detector in ("ddm", "ph", "hddm_a")]
    run_suite(configs[:1], parallel=1)
    alone = list(kernel_rows)
    kernel_rows.clear()
    results, _ = run_suite(configs, parallel=1)
    assert not any(t.alarm_chunks for result in results for t in result.traces)
    assert kernel_rows == alone
    assert len(alone) == 11  # one call per evaluated chunk


def test_baseline_cells_that_alarm_at_the_same_chunks_share_their_adapted_models(kernel_rows,
                                                                                 tmp_path):
    """After an alarm each baseline adapts a fresh model on the alarming
    chunk; two cells that alarm at the same chunks get the same state there,
    so the pair makes the kernel calls and rows of one cell."""
    stream = StreamConfig(kind="sine", n_chunks=30, chunk_size=200, drift_period=10)
    configs = [ExperimentConfig(name=detector, stream=stream, detector=detector,
                                method="baseline", seeds=(0,), out=str(tmp_path))
               for detector in ("ddm", "ph")]
    run_suite(configs[:1], parallel=1)
    alone = list(kernel_rows)
    kernel_rows.clear()
    results, _ = run_suite(configs, parallel=1)
    alarms = [result.traces[0].alarm_chunks for result in results]
    assert alarms[0] == alarms[1] == [10, 20]
    assert kernel_rows == alone


def test_a_sporadic_run_scores_ahead_and_trains_each_chunk_once(kernel_calls):
    stream = StreamConfig(kind="sine", n_chunks=60, chunk_size=100, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", mode="sporadic",
                              seeds=(0, 1))
    traces = run_experiment(config, method="baseline", write=False)["baseline"].traces
    scored = 2 * 59
    # a frozen model scores a window of 20 chunks with about one kernel call
    assert kernel_calls["predict_indices"] < scored // 4
    # a sporadic baseline trains on the warm-up chunk and on each alarming chunk
    assert kernel_calls["class_stats"] == sum(1 + len(t.alarm_chunks) for t in traces)
    kernel_calls.clear()
    run_experiment(config, method="dtd", write=False)
    # every kernel evaluation, the races' included, goes through predict_indices;
    # a sporadic race candidate scores its race's chunks in a window in one call,
    # 45 calls here, where scoring to the window's end from its second score made 53
    assert kernel_calls["predict_indices"] <= 45
    assert kernel_calls["class_stats"] <= 2 * 60


def test_a_continual_pass_computes_no_rows_ahead(kernel_rows):
    """Continual models train after every chunk, so a pass in windows scores
    exactly the rows it reports, races included."""
    stream = StreamConfig(kind="sea", n_chunks=30, chunk_size=200, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", seeds=(0,))
    for method in ("baseline", "dtd"):
        kernel_rows.clear()
        classifier.op_counts.reset()
        trace = run_experiment(config, method=method, write=False)[method].traces[0]
        assert sum(kernel_rows) == classifier.op_counts.predict_instances > 0
    assert "comparison" in trace.phase


def test_a_sporadic_primary_scores_to_the_windows_end_from_its_first_score(kernel_rows):
    """A sporadic primary scores unchanged until it alarms, so its first
    score after the warm-up or an adapt computes the rest of the window in
    one kernel call, and the chunks after it are served."""
    stream = StreamConfig(kind="sine", n_chunks=60, chunk_size=100, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", mode="sporadic", seeds=(0,))
    state = DtdState(GaussianNB(), detector_for_run(config, 0), training_mode="sporadic")
    firsts = []  # per first score of a new state: (rows computed, rows to the window's end)
    new_state = [True]

    def step(state, chunk):
        before = len(kernel_rows)
        out = baseline_step(state, chunk)
        if new_state[0]:
            window, position = chunk.window, chunk.position
            firsts.append((kernel_rows[before:], [window.starts[-1] - window.starts[position]]))
        new_state[0] = out.alarm
        return out

    trace = run_policies(make_stream(stream), [(step, state)])[0]
    assert len(firsts) == 1 + len(trace.alarm_chunks) >= 3
    assert [rows for rows, _ in firsts] == [to_end for _, to_end in firsts]


def test_a_sporadic_baseline_under_a_negative_threshold_computes_no_rows_ahead(kernel_rows):
    """Statistics are never negative, so under a negative threshold the
    monitor alarms on every chunk and the model adapts on each: it scores
    exactly the rows it reports."""
    stream = StreamConfig(kind="sine", n_chunks=30, chunk_size=100, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", mode="sporadic",
                              detector_overrides={"threshold": -1.0}, seeds=(0,))
    classifier.op_counts.reset()
    trace = run_experiment(config, method="baseline", write=False)["baseline"].traces[0]
    assert trace.alarm_chunks == list(range(1, 30))
    assert sum(kernel_rows) == classifier.op_counts.predict_instances == 29 * 100


def test_a_sporadic_race_candidate_scores_its_race_in_one_call_per_window(kernel_rows,
                                                                         monkeypatch):
    """Each race candidate state makes at most one kernel call per window,
    and that call covers its race's chunks in the window and no more."""
    # the ph entry of ALARMING_OVERRIDES in test_harness.py
    config = ExperimentConfig(name="cell", detector="ph", detector_overrides={"threshold": 0.02},
                              mode="sporadic", seeds=(0,),
                              stream=StreamConfig(kind="sine", n_chunks=60, chunk_size=100,
                                                  drift_period=10))
    state = DtdState(GaussianNB(), detector_for_run(config, 0), config.race_len, config.eta,
                     config.mode)
    calls = []  # (candidate model, window, rows computed, rows its race has left in the window)
    opened = []  # the index of each race's alarm chunk

    def scoring(model, chunk, *args, **kwargs):
        before = len(kernel_rows)
        accuracy = evaluate(model, chunk, *args, **kwargs)
        if model is not state.primary_model:
            window, position = chunk.window, chunk.position
            if not state.in_comparison:  # EDM scores the alarm chunk before the race opens
                opened.append(chunk.index)
            left = state.race_len - (chunk.index - opened[-1])
            stop = min(position + 1 + left, len(window.starts) - 1)
            race_rows = window.starts[stop] - window.starts[position]
            calls.extend((model, window, rows, race_rows) for rows in kernel_rows[before:])
        return accuracy

    monkeypatch.setattr(dtd, "evaluate", scoring)
    trace = run_policies(make_stream(config.stream), [(dtd_step, state)])[0]
    assert trace.phase.count("comparison") >= 9
    assert max(Counter((model, window) for model, window, _, _ in calls).values()) == 1
    assert [rows for *_, rows, _ in calls] == [race_rows for *_, race_rows in calls]
    assert max(rows for *_, rows, _ in calls) > config.stream.chunk_size


def test_a_race_step_returns_what_the_race_probe_reads():
    counts = classifier.op_counts
    assert callable(counts.reset) and callable(counts.snapshot)
    counts.reset()
    assert counts.snapshot() == (0, 0)
    config = ExperimentConfig(name="cell", detector="ddm", seeds=(0,),
                              stream=StreamConfig(kind="sea", n_chunks=30, chunk_size=200,
                                                  drift_period=10))
    outcomes = []

    def probed(state, chunk):
        outcomes.append(dtd_step(state, chunk))
        return outcomes[-1]

    state = DtdState(GaussianNB(), detector_for_run(config, 0))
    run_policies(make_stream(config.stream), [(probed, state)])
    predicted, trained = counts.snapshot()
    assert predicted > 0 and trained > 0
    assert {o.phase for o in outcomes} == {"normal", "comparison"}
    assert all(type(o.alarm) is bool for o in outcomes)
    winners = [o.winner for o in outcomes if o.winner is not None]
    assert winners
    assert {w.name for w in winners} <= {"EDM", "RDM", "PM"}
