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
from collections import Counter
from pathlib import Path

import pytest

import drifttune
import drifttune.cli  # noqa: F401  (entry_points reads drifttune.cli)
from drifttune import classifier, kernels
from drifttune.classifier import GaussianNB
from drifttune.dtd import DtdState, dtd_step
from drifttune.harness import ExperimentConfig, detector_for_run, run_experiment, run_policies
from drifttune.stream import StreamConfig, make_stream

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
    # scoring each race chunk's three candidates in one stacked call made 54 here
    # (24 through predict_indices and 30 stacked)
    assert kernel_calls["predict_indices"] <= 54
    assert kernel_calls["class_stats"] <= 2 * 60


def test_a_continual_pass_computes_no_rows_ahead(monkeypatch):
    """Continual models train after every chunk, so a pass in windows scores
    exactly the rows it reports, races included."""
    rows = []

    def counting(X, params, _kernel=kernels.predict_indices):
        rows.append(X.shape[0])
        return _kernel(X, params)

    monkeypatch.setattr(kernels, "predict_indices", counting)
    stream = StreamConfig(kind="sea", n_chunks=30, chunk_size=200, drift_period=10)
    config = ExperimentConfig(name="cell", stream=stream, detector="ddm", seeds=(0,))
    for method in ("baseline", "dtd"):
        rows.clear()
        classifier.op_counts.reset()
        trace = run_experiment(config, method=method, write=False)[method].traces[0]
        assert sum(rows) == classifier.op_counts.predict_instances > 0
    assert "comparison" in trace.phase


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
