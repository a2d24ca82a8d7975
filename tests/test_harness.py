"""Prequential harness: runs, traces, result files, summaries, config files."""

import dataclasses
import json
import math
import multiprocessing
import os
import statistics
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttune.detectors import DETECTOR_KINDS, KswinParams, make_monitor, params_from_dict
from drifttune.classifier import GaussianNB, op_counts
from drifttune import harness
from drifttune.dtd import TRAINING_MODES, DtdState, baseline_step, dtd_step
from drifttune.errors import ConfigError, DriftTuneError, ModelError, ReportError
from drifttune.harness import (
    METHODS,
    ExperimentConfig,
    ExperimentResult,
    RunTrace,
    baseline_trace,
    config_from_mapping,
    detector_for_run,
    dtd_trace,
    load_config,
    load_config_dir,
    render_table,
    run_experiment,
    run_policies,
    run_single,
    run_suite,
    summarize,
    summarize_stored,
    write_result,
)
from drifttune.stream import StreamConfig, make_stream
from drifttune.theory import ThresholdStrategy, _FlippedStream, policy_trace, policy_traces


def small_config(name="cell", detector="ddm", seeds=(0, 1), **kw):
    stream = StreamConfig(kind="sea", n_chunks=kw.pop("n_chunks", 25),
                          chunk_size=kw.pop("chunk_size", 300),
                          drift_period=kw.pop("drift_period", 10))
    return ExperimentConfig(name=name, stream=stream, detector=detector,
                            seeds=tuple(seeds), **kw)


def fake_trace(seed, accuracies, alarm_at=(), phase=None):
    trace = RunTrace(seed=seed)
    trace.append(0, math.nan, math.nan, 3.0, False, "warmup")
    for i, acc in enumerate(accuracies, start=1):
        trace.append(i, acc, 0.5, 3.0, i in alarm_at, phase or "normal")
    return trace


def fake_result(name, method, per_seed_accuracies, config=None):
    config = config or small_config(name=name, seeds=tuple(range(len(per_seed_accuracies))))
    traces = [fake_trace(seed, accs) for seed, accs in enumerate(per_seed_accuracies)]
    return ExperimentResult(method=method, config=config, traces=traces)


class TestExperimentConfig:
    def test_methods_property(self):
        assert small_config(method="both").methods == METHODS
        assert small_config(method="dtd").methods == ("dtd",)
        assert small_config(method="baseline").methods == ("baseline",)

    @pytest.mark.parametrize("kw,match", [
        ({"name": ""}, "path-safe"),
        ({"name": "a/b"}, "path-safe"),
        ({"detector": "adwin"}, "unknown detector"),
        ({"method": "compare"}, "method"),
        ({"mode": "sometimes"}, "mode"),
        ({"race_len": 0}, "race_len"),
        ({"eta": 0.0}, "eta"),
        ({"seeds": ()}, "non-empty"),
        ({"seeds": (0, 0)}, "unique"),
        ({"seeds": (-1,)}, "non-negative"),
        ({"detector_overrides": {"bogus": 1}}, "unknown DdmParams keys"),
        ({"detector_overrides": {"min_samples": 0}}, "positive"),
    ])
    def test_validation(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            small_config(**kw)

    @pytest.mark.parametrize("kw,match", [
        ({"race_len": 2.5}, "race_len"),
        ({"race_len": "3"}, "race_len"),
        ({"race_len": True}, "race_len"),
        ({"eta": None}, "eta"),
        ({"eta": True}, "eta"),
        ({"eta": "1e-6"}, "eta"),
        ({"seeds": (True, 2)}, "seeds"),
        ({"seeds": (1.0,)}, "seeds"),
    ])
    def test_badly_typed_fields_rejected(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            small_config(**kw)

    def test_seed_count_is_stored_as_a_tuple(self):
        config = ExperimentConfig(name="cell", stream=StreamConfig(kind="sea"), detector="ddm",
                                  seeds=3)
        assert config.seeds == (0, 1, 2)

    @pytest.mark.parametrize("seeds", [range(3), [0, 1, 2]])
    def test_seed_sequences_accepted(self, seeds):
        config = ExperimentConfig(name="cell", stream=StreamConfig(kind="sea"), detector="ddm",
                                  seeds=seeds)
        assert list(config.seeds) == [0, 1, 2]

    @pytest.mark.parametrize("kw,match", [
        ({"name": 5}, "path-safe"),
        ({"name": {"x": 1}}, "path-safe"),
        ({"name": "a\0b"}, "path-safe"),  # mkdir raises ValueError on a NUL byte
        ({"out": 5}, "out"),
        ({"out": ["a", "b"]}, "out"),
        ({"out": "a\0b"}, "out"),
    ])
    def test_non_string_name_or_out_rejected(self, kw, match):
        stream = StreamConfig(kind="sea")
        kw = {"name": "cell", **kw}
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(stream=stream, detector="ddm", **kw)

    def test_eta_is_stored_as_a_float(self):
        eta = small_config(eta=1).eta
        assert eta == 1.0 and type(eta) is float

    @pytest.mark.parametrize("kw,match", [
        ({"stream": {"kind": "sea"}}, "stream must be a StreamConfig"),
        ({"stream": None}, "stream must be a StreamConfig"),
        ({"detector_overrides": None}, "detector_overrides must be a dict"),
        ({"detector_overrides": [("threshold", 2.0)]}, "detector_overrides must be a dict"),
    ])
    def test_wrongly_typed_stream_or_overrides_rejected(self, kw, match):
        kw = {"name": "cell", "stream": StreamConfig(kind="sea"), "detector": "ddm", **kw}
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig(**kw)


class TestDetectorForRun:
    def test_sample_count_defaults_to_chunk_size(self):
        det = detector_for_run(small_config(detector="ddm", chunk_size=300), seed=0)
        assert det.params.samples_per_update == 300

    def test_sample_count_override_wins(self):
        config = small_config(detector="hddm_a", detector_overrides={"samples_per_update": 7})
        assert detector_for_run(config, seed=0).params.samples_per_update == 7

    def test_subsample_seed_defaults_to_run_seed(self):
        config = small_config(detector="kswin")
        assert detector_for_run(config, seed=13).params.seed == 13

    def test_subsample_seed_override_wins(self):
        config = small_config(detector="kswin", detector_overrides={"seed": 2})
        assert detector_for_run(config, seed=13).params.seed == 2

    def test_detector_without_those_fields(self):
        det = detector_for_run(small_config(detector="ph"), seed=5)
        assert det.kind == "ph"


class TestRunTrace:
    def test_mean_accuracy_skips_warmup(self):
        trace = fake_trace(0, [0.5, 0.7])
        assert trace.mean_accuracy == statistics.fmean([0.5, 0.7])

    def test_mean_accuracy_needs_evaluated_rows(self):
        trace = RunTrace(seed=0)
        trace.append(0, math.nan, math.nan, 1.0, False, "warmup")
        with pytest.raises(ReportError, match="no evaluated chunks"):
            trace.mean_accuracy

    def test_alarm_chunks(self):
        trace = fake_trace(0, [0.5, 0.4, 0.6], alarm_at=(2,))
        assert trace.alarm_chunks == [2]

    def test_csv_round_trip(self):
        trace = fake_trace(3, [0.512345678901234, 0.7], alarm_at=(1,))
        text = trace.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "chunk_index,accuracy,statistic,threshold,alarm,phase"
        assert len(lines) == 4
        cells = lines[2].split(",")
        assert int(cells[0]) == 1
        assert float(cells[1]) == 0.512345678901234  # repr keeps full precision
        assert cells[4] == "True" and cells[5] == "normal"


class TestBaselineTrace:
    def stream(self, n_chunks=30):
        return make_stream(StreamConfig(kind="sea", seed=0, n_chunks=n_chunks,
                                        chunk_size=400, drift_period=10))

    def make(self, mode="continual", n_chunks=30, detector=None):
        detector = detector or make_monitor(
            "ddm", params_from_dict("ddm", {"samples_per_update": 400}))
        return baseline_trace(self.stream(n_chunks), detector, mode=mode)

    def test_shape_and_warmup_row(self):
        trace = self.make()
        assert len(trace) == 30
        assert trace.chunk_index == list(range(30))
        assert math.isnan(trace.accuracy[0]) and math.isnan(trace.statistic[0])
        assert trace.phase[0] == "warmup" and not trace.alarm[0]
        assert trace.phase[1:] == ["normal"] * 29

    def test_threshold_never_moves(self):
        trace = self.make()
        assert set(trace.threshold) == {3.0}

    def test_alarms_fire_on_drifting_stream_and_reset_history(self):
        trace = self.make()
        alarms = trace.alarm_chunks
        assert alarms  # boundary moves every 10 chunks must trip the monitor
        for i in alarms:
            if i + 1 < len(trace):
                # the monitor restarts after an adaptation; with fewer than
                # two post-reset updates its statistic is pinned at zero
                assert trace.statistic[i + 1] == 0.0

    def test_modes_differ(self):
        cont = self.make(mode="continual")
        spor = self.make(mode="sporadic")
        assert cont.accuracy[1:] != spor.accuracy[1:]

    def test_rejects_single_chunk_stream(self):
        stream = make_stream(StreamConfig(kind="sea", n_chunks=1, chunk_size=50))
        with pytest.raises(ConfigError, match="at least two chunks"):
            baseline_trace(stream, make_monitor("ddm"))

    def test_rejects_unknown_mode(self):
        stream = make_stream(StreamConfig(kind="sea", n_chunks=3, chunk_size=50))
        with pytest.raises(ConfigError, match="mode"):
            baseline_trace(stream, make_monitor("ddm"), mode="never")

    def test_threshold_schedule_applies_per_chunk(self):
        schedule = lambda i: 2.0 if i < 15 else 5.0
        # the scheduled policy runs the baseline step with a per-chunk threshold
        trace = policy_trace(self.stream(), ThresholdStrategy(((0, 2.0), (15, 5.0))), "ddm")
        assert trace.threshold == [schedule(i) for i in range(30)]


class TestDtdTrace:
    def make(self, race_len=3, n_chunks=40):
        stream = make_stream(StreamConfig(kind="sea", seed=1, n_chunks=n_chunks,
                                          chunk_size=400, drift_period=10))
        detector = make_monitor("ddm", params_from_dict("ddm", {"samples_per_update": 400}))
        return dtd_trace(stream, detector, race_len=race_len)

    def test_shape_and_phases(self):
        trace = self.make()
        assert len(trace) == 40
        assert trace.phase[0] == "warmup"
        assert set(trace.phase[1:]) <= {"normal", "comparison"}
        assert "comparison" in trace.phase  # drift must open at least one race

    def test_each_alarm_opens_a_full_race(self):
        trace = self.make(race_len=3)
        for i in trace.alarm_chunks:
            window = trace.phase[i + 1 : i + 4]
            if len(window) == 3:  # races truncated by stream end are exempt
                assert window == ["comparison"] * 3

    def test_no_alarms_inside_comparison(self):
        trace = self.make()
        for alarm, phase in zip(trace.alarm, trace.phase):
            if phase == "comparison":
                assert not alarm

    def test_threshold_can_move_after_race(self):
        trace = self.make()
        assert len(set(trace.threshold)) >= 1  # schedule is data-dependent
        # threshold column reflects the installed monitor each chunk
        assert all(not math.isnan(t) for t in trace.threshold)


class TestRunPolicies:
    def test_trace_seed_is_the_stream_seed(self):
        config = StreamConfig(kind="sea", seed=5, n_chunks=4, chunk_size=50)
        for stream in (make_stream(config), _FlippedStream(config, 2)):
            policies = [(step, DtdState(GaussianNB(), make_monitor("ddm")))
                        for step in (baseline_step, dtd_step)]
            assert [t.seed for t in run_policies(stream, policies)] == [5, 5]
            strategy = ThresholdStrategy.constant(3.0)
            assert [t.seed for t in policy_traces(stream, [strategy])] == [5]


class TestExactFloats:
    @pytest.mark.parametrize("mode", TRAINING_MODES)
    def test_every_accuracy_and_race_log_entry_is_an_exact_float(self, mode):
        stream = make_stream(StreamConfig(kind="sine", n_chunks=200, chunk_size=100))
        state, races, outcomes = DtdState(GaussianNB(), make_monitor("ph"), training_mode=mode), [], []

        def step(state, chunk):
            outcomes.append(dtd_step(state, chunk))
            if state.candidates is not None and (not races or races[-1] is not state.candidates):
                races.append(state.candidates)  # its logs fill as the race goes on
            return outcomes[-1]

        trace = run_policies(stream, [(step, state)])[0]
        logged = [a for race in races for c in race for a in c.accuracy_log]
        assert len(races) >= 3 and len(logged) >= 3 * len(races) * (state.race_len + 1) - 9
        accuracies = trace.accuracy + [out.accuracy for out in outcomes] + logged
        assert {type(a) for a in accuracies} == {float}


class TestInertCells:
    def test_criterion_4_cell_is_named_with_its_window_and_its_updates(self):
        config = ExperimentConfig(name="mixed_kswin", stream=StreamConfig(kind="mixed"),
                                  detector="kswin")
        [line] = harness.inert_cells([config])
        assert line == ("inert cell mixed_kswin: its kswin monitor needs 100 updates before "
                        "its statistic can leave 0, and its stream gives 99, so it can never alarm")

    def test_shipped_configs_are_not_inert(self):
        assert harness.inert_cells([load_config(ROOT / "configs" / "sea_kswin_tuned.yaml")]) == []
        assert harness.inert_cells(load_config_dir(ROOT / "configs")) == []

    @pytest.mark.parametrize("detector, overrides, needed", [
        ("kswin", {"window": 40, "recent": 10}, 40), ("ddm", {"min_samples": 30}, 30),
        ("ddm", {"min_samples": 1}, 2), ("ph", {}, 2), ("hddm_a", {}, 2), ("hddm_w", {}, 2)])
    def test_a_cell_is_inert_exactly_below_its_monitors_need(self, detector, overrides, needed):
        names = []
        for n_chunks in (needed, needed + 1):
            config = small_config(name=f"c{n_chunks}", detector=detector, n_chunks=n_chunks,
                                  detector_overrides=overrides)
            names += [line.split(":")[0] for line in harness.inert_cells([config])]
        assert names == [f"inert cell c{needed}"]

    def test_a_threshold_at_the_statistics_bound_is_named(self):
        lines = [line for threshold in (1.0, 0.99) for line in harness.inert_cells([
            small_config(name=f"t{threshold}", detector="kswin", n_chunks=50,
                         detector_overrides={"window": 40, "recent": 10, "threshold": threshold})])]
        assert lines == ["inert cell t1.0: its kswin monitor's threshold 1.0 is at or above 1.0, "
                         "the largest value its statistic takes, so it can never alarm"]

    def test_csv_cells_are_not_checked(self):
        config = ExperimentConfig(name="csv_kswin", detector="kswin",
                                  stream=StreamConfig(kind="csv", csv_path="never_read.csv"))
        assert harness.inert_cells([config]) == []


class TestRowsAhead:
    def test_a_sporadic_race_under_a_negative_threshold_computes_no_rows_ahead(self, kernel_rows):
        """Statistics are never negative, so under a negative threshold RDM,
        which keeps the primary's threshold, alarms and adapts on every race
        chunk as the primary does: dtd scores exactly the rows it reports."""
        config = small_config(n_chunks=30, chunk_size=100, mode="sporadic", seeds=(0,),
                              detector_overrides={"threshold": -1.0})
        config = dataclasses.replace(config, stream=dataclasses.replace(config.stream, kind="sine"))
        op_counts.reset()
        trace = run_experiment(config, method="dtd", write=False)["dtd"].traces[0]
        assert "comparison" in trace.phase
        assert sum(kernel_rows) == op_counts.predict_instances > 0


class TestRunSingle:
    def test_seed_replaces_stream_seed(self):
        config = small_config(seeds=(0, 7), method="baseline")
        manual_stream = make_stream(StreamConfig(kind="sea", seed=7, n_chunks=25,
                                                 chunk_size=300, drift_period=10))
        manual = baseline_trace(manual_stream, detector_for_run(config, 7))
        got = run_single(config, 7)["baseline"]
        assert got.accuracy == manual.accuracy
        assert got.alarm == manual.alarm
        assert got.seed == manual.seed == 7

    def test_methods_share_the_stream(self):
        config = small_config()
        traces = run_single(config, 3)
        base, dtd = traces["baseline"], traces["dtd"]
        # same warm-up chunk, same first evaluated chunk: identical first row
        assert base.accuracy[1] == dtd.accuracy[1]

    def test_one_text_for_the_method_rule(self):
        with pytest.raises(ConfigError) as config_error:
            small_config(method="x")
        assert str(config_error.value) == "method must be one of ('baseline', 'dtd', 'both'), got 'x'"


# monitor settings that alarm on short streams of small chunks, so races happen
ALARMING_OVERRIDES = {
    "ddm": [{}, {"threshold": 1.0}],
    "ph": [{}, {"threshold": 0.02}],
    "kswin": [{"window": 6, "recent": 2, "threshold": 0.4}, {"window": 8, "recent": 3, "threshold": 0.3}],
    "hddm_a": [{}, {"threshold": 0.2}],
    "hddm_w": [{}, {"threshold": 0.2}],
}


@st.composite
def small_configs(draw, detector, mode, min_seeds=1):
    """A random small experiment cell for one monitor and training mode."""
    kind = draw(st.sampled_from(("sea", "sine", "mixed")))
    stream = StreamConfig(kind=kind, n_chunks=draw(st.integers(2, 14)),
                          chunk_size=draw(st.integers(10, 60)),
                          drift_period=draw(st.integers(2, 5)),
                          noise=draw(st.sampled_from((0.0, 0.1))) if kind == "sea" else 0.0)
    seeds = draw(st.lists(st.integers(0, 99), min_size=min_seeds, max_size=3, unique=True))
    return ExperimentConfig(name="prop", stream=stream, detector=detector,
                            detector_overrides=draw(st.sampled_from(ALARMING_OVERRIDES[detector])),
                            mode=mode, race_len=draw(st.integers(1, 4)), seeds=tuple(seeds))


@st.composite
def configs_on_one_stream(draw, detector, mode, max_seeds=3):
    """2-4 random cells that read one drawn stream, the first with the given
    monitor and mode, each on its own subset of the first's seeds."""
    first = draw(small_configs(detector, mode))
    seeds = first.seeds[:max_seeds]
    configs = []
    for k in range(draw(st.integers(2, 4))):
        kind = detector if k == 0 else draw(st.sampled_from(DETECTOR_KINDS))
        configs.append(dataclasses.replace(
            first, name=f"cell{k}", detector=kind,
            detector_overrides=draw(st.sampled_from(ALARMING_OVERRIDES[kind])),
            mode=mode if k == 0 else draw(st.sampled_from(TRAINING_MODES)),
            method=draw(st.sampled_from(METHODS + ("both",))), race_len=draw(st.integers(1, 4)),
            seeds=tuple(draw(st.lists(st.sampled_from(seeds), min_size=1, unique=True)))))
    return configs


def csv_texts(result):
    return [t.to_csv_text() for t in result.traces]


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(Path(root).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("mode", TRAINING_MODES)
@pytest.mark.parametrize("detector", DETECTOR_KINDS)
class TestOnePassProperties:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_both_methods_match_single_method_runs(self, detector, mode, data):
        config = data.draw(small_configs(detector, mode))
        both = run_experiment(config, method="both", write=False)
        for method in METHODS:
            single = run_experiment(config, method=method, write=False)
            assert csv_texts(both[method]) == csv_texts(single[method])

    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_parallel_suite_matches_serial_bytes(self, detector, mode, data):
        config = data.draw(small_configs(detector, mode, min_seeds=2))
        other = TRAINING_MODES[1 - TRAINING_MODES.index(mode)]
        configs = [config, dataclasses.replace(config, name="other", mode=other)]
        with tempfile.TemporaryDirectory() as serial, tempfile.TemporaryDirectory() as parallel:
            run_suite([dataclasses.replace(c, out=serial) for c in configs], parallel=1)
            run_suite([dataclasses.replace(c, out=parallel) for c in configs], parallel=2)
            assert tree_bytes(serial) == tree_bytes(parallel)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_a_shared_pass_matches_each_config_alone(self, detector, mode, data):
        configs = data.draw(configs_on_one_stream(detector, mode))
        seed = data.draw(st.sampled_from(configs[0].seeds))
        shared = harness._run_pass(configs, seed)
        for config, traces in zip(configs, shared, strict=True):
            alone = run_experiment(dataclasses.replace(config, seeds=(seed,)), write=False)
            assert {m: t.to_csv_text() for m, t in traces.items()} == \
                {m: csv_texts(result)[0] for m, result in alone.items()}

    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_split_passes_write_the_same_bytes_at_any_parallelism(self, detector, mode, data):
        # at most two seeds, so at parallel 2 or 3 there are fewer passes than
        # processes, and at most eight calls of at most four cells each, so
        # parallel 8 starts one child per call but the first
        configs = data.draw(configs_on_one_stream(detector, mode, max_seeds=2))
        trees = []
        for parallel in (1, 2, 3, 8):
            with tempfile.TemporaryDirectory() as out:
                run_suite([dataclasses.replace(c, out=out) for c in configs], parallel=parallel)
                trees.append(tree_bytes(out))
            assert multiprocessing.active_children() == []
        assert trees[0] == trees[1] == trees[2] == trees[3]


def window_traces(window_rows, config, seed, flip):
    """CSV text of both methods' traces and of two threshold oracles (adapt
    on every chunk from ``flip`` on, never adapt) in the config's mode, over
    the stream with chunk ``flip`` label-reversed, with the runner's windows
    set to ``window_rows`` rows."""
    stream_config = dataclasses.replace(config.stream, seed=seed)
    policies = [(step, DtdState(GaussianNB(), detector_for_run(config, seed),
                                config.race_len, config.eta, config.mode))
                for step in (baseline_step, dtd_step)]
    oracles = [ThresholdStrategy(((0, math.inf), (flip, -math.inf))),
               ThresholdStrategy.constant(math.inf)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "WINDOW_ROWS", window_rows)
        traces = run_policies(_FlippedStream(stream_config, flip), policies)
        traces += policy_traces(_FlippedStream(stream_config, flip), oracles,
                                detector=config.detector, mode=config.mode,
                                overrides=config.detector_overrides)
    return [trace.to_csv_text() for trace in traces]


@pytest.mark.parametrize("mode", TRAINING_MODES)
@pytest.mark.parametrize("detector", DETECTOR_KINDS)
class TestWindows:
    """Scoring a window ahead changes no byte: one-row windows (one chunk
    each, so nothing is scored ahead), three-chunk windows and the default
    agree."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_window_size_changes_no_trace_byte(self, detector, mode, data):
        config = data.draw(small_configs(detector, mode))
        seed = config.seeds[0]
        flip = data.draw(st.integers(1, config.stream.n_chunks - 1), label="flip")
        sizes = (1, 3 * config.stream.chunk_size, harness.WINDOW_ROWS)
        texts = [window_traces(rows, config, seed, flip) for rows in sizes]
        assert texts[0] == texts[1] == texts[2]


class TestRaceCostBound:
    """Instance work (predicted plus trained rows) of a race chunk over a
    quiet chunk, counted around ``dtd_step`` as criterion 6 does. A race
    chunk predicts with three candidates and trains or re-adapts each at
    most once; a quiet chunk predicts and trains in continual mode but
    only predicts in sporadic mode, so the bound is 3 there and 6 here."""

    BOUND = {"continual": 3.0, "sporadic": 6.0}

    @pytest.mark.parametrize("mode", TRAINING_MODES)
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_race_chunk_costs_at_most_bound_times_quiet_chunk(self, mode, data):
        config = data.draw(small_configs(data.draw(st.sampled_from(DETECTOR_KINDS)), mode))
        seed = config.seeds[0]
        stream = make_stream(dataclasses.replace(config.stream, seed=seed))
        state = DtdState(GaussianNB().train(stream.chunk(0)), detector_for_run(config, seed),
                         config.race_len, config.eta, mode)
        quiet, racing = [], []
        op_counts.reset()
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
        if racing and quiet:
            assert max(racing) <= self.BOUND[mode] * max(quiet)


class TestRunExperimentAndSuite:
    def test_both_methods_by_default(self, tmp_path):
        results = run_experiment(small_config(out=str(tmp_path)))
        assert set(results) == {"baseline", "dtd"}
        for method, result in results.items():
            assert len(result.traces) == 2
            assert (tmp_path / f"cell__{method}" / "summary.json").exists()
            assert (tmp_path / f"cell__{method}" / "seed0.csv").exists()
            assert (tmp_path / f"cell__{method}" / "seed1.csv").exists()

    def test_method_narrowing(self, tmp_path):
        # ``method`` replaces the config's methods; left out, the config's stand
        results = run_experiment(small_config(method="both", out=str(tmp_path)), method="dtd",
                                 write=False)
        assert set(results) == {"dtd"}
        assert results["dtd"].config.method == "dtd"
        assert not (tmp_path / "cell__dtd").exists()
        both = run_experiment(small_config(method="dtd"), method="both", write=False)
        assert set(both) == set(METHODS)
        assert set(run_experiment(small_config(method="dtd"), write=False)) == {"dtd"}

    @pytest.mark.parametrize("parallel", [0, -3, 1.5, True, "2"])
    def test_parallel_must_be_a_positive_count(self, tmp_path, parallel):
        with pytest.raises(ConfigError, match="parallel"):
            run_experiment(small_config(), parallel=parallel, write=False)
        with pytest.raises(ConfigError, match="parallel"):
            run_suite([small_config(out=str(tmp_path / "out"))], parallel=parallel)
        assert not (tmp_path / "out").exists()

    def test_parallel_matches_serial(self, tmp_path):
        config = small_config(seeds=(0, 1, 2))
        serial = run_experiment(config, parallel=1, write=False)
        parallel = run_experiment(config, parallel=2, write=False)
        for method in METHODS:
            a = [t.to_csv_text() for t in serial[method].traces]
            b = [t.to_csv_text() for t in parallel[method].traces]
            assert a == b

    def test_summary_json_content(self, tmp_path):
        result = run_experiment(small_config(out=str(tmp_path)), method="baseline")["baseline"]
        stored = json.loads((tmp_path / "cell__baseline" / "summary.json").read_text())
        assert stored["name"] == "cell"
        assert stored["method"] == "baseline"
        assert stored["stream"]["kind"] == "sea"
        assert stored["seeds"] == [0, 1]
        assert stored["n_chunks"] == 25
        assert stored["per_seed_accuracy"] == [float(a) for a in result.per_seed_accuracy]
        assert stored["mean_accuracy"] == pytest.approx(result.mean_accuracy)
        assert len(stored["per_seed_alarm_chunks"]) == 2
        assert len(stored["per_seed_final_threshold"]) == 2

    def test_suite_writes_summaries_and_report(self, tmp_path):
        configs = [small_config(name="one", out=str(tmp_path)),
                   small_config(name="two", detector="ph", out=str(tmp_path))]
        results, report = run_suite(configs)
        assert len(results) == 4  # two cells, two methods each
        assert (tmp_path / "suite_summary.json").exists()
        assert (tmp_path / "suite_summary.txt").exists()
        stored = json.loads((tmp_path / "suite_summary.json").read_text())
        assert stored == json.loads(json.dumps(report))
        assert stored["n_pairs"] == 2

    def test_suite_without_out_writes_to_the_configs_out(self, tmp_path):
        configs = [small_config(name=n, out=str(tmp_path / "mine"), method="baseline")
                   for n in ("one", "two")]
        run_suite(configs)
        assert (tmp_path / "mine" / "suite_summary.json").exists()
        assert (tmp_path / "mine" / "two__baseline" / "summary.json").exists()

    def test_suite_without_out_rejects_configs_that_disagree(self, tmp_path):
        configs = [small_config(name="one", out=str(tmp_path / "a")),
                   small_config(name="two", out=str(tmp_path / "b"))]
        with pytest.raises(ConfigError, match="different out directories"):
            run_suite(configs)
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()

    def test_suite_rejects_duplicate_names(self, tmp_path):
        with pytest.raises(ConfigError, match="unique"):
            run_suite([small_config(out=str(tmp_path)), small_config(out=str(tmp_path))])

    def test_suite_requires_configs(self, tmp_path):
        with pytest.raises(ConfigError, match="at least one"):
            run_suite([])

    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = small_config()
        run_suite([dataclasses.replace(config, out=str(tmp_path / "a"))])
        run_suite([dataclasses.replace(config, out=str(tmp_path / "b"))])
        for rel in ("cell__baseline/summary.json", "cell__dtd/summary.json",
                    "cell__baseline/seed0.csv", "suite_summary.json", "suite_summary.txt"):
            assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def one_pass_cells(seeds=(0,)):
    """Three baseline cells on one stream: at one seed, one pass, which
    parallel 2 splits into the calls (ddm, hddm_a) and (ph), and parallel 3
    into one call per cell; this process runs the first."""
    return [small_config(name=f"cell{k}", detector=kind, seeds=seeds, method="baseline",
                         n_chunks=8, chunk_size=50)
            for k, kind in enumerate(("ddm", "ph", "hddm_a"))]


def failing_step(kind, error):
    """baseline_step, except that it raises ``error`` on chunk 3 of a ``kind`` monitor."""
    def step(state, chunk):
        if state.primary_detector.kind == kind and chunk.index == 3:
            raise error
        return baseline_step(state, chunk)
    return step


class TestFanOut:
    """The calling process runs share 0 of the passes and one child runs each
    other share; a failure anywhere surfaces as the package's own error, and
    no child outlives the call."""

    @pytest.mark.parametrize("kind", ["ddm", "ph", "hddm_a"])
    def test_a_failing_step_raises_the_same_error_at_any_parallelism(self, monkeypatch, kind):
        monkeypatch.setattr(harness, "baseline_step",
                            failing_step(kind, ModelError(f"{kind} cannot score chunk 3")))
        for parallel in (1, 2, 3):
            with pytest.raises(ModelError) as raised:
                harness._run_all(one_pass_cells(), parallel)
            assert type(raised.value) is ModelError
            assert str(raised.value) == f"{kind} cannot score chunk 3"
            assert multiprocessing.active_children() == []

    def test_an_unpicklable_child_error_arrives_as_its_type_and_message(self, monkeypatch):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        monkeypatch.setattr(harness, "baseline_step", failing_step("ph", LocalError("no pickle")))
        with pytest.raises(LocalError):
            harness._run_all(one_pass_cells(), 1)
        with pytest.raises(DriftTuneError, match="^LocalError: no pickle$"):
            harness._run_all(one_pass_cells(), 2)
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_raises_a_package_error_naming_its_exit_code(self, monkeypatch):
        caller = os.getpid()

        def dying(config):
            if os.getpid() != caller:
                os._exit(3)
            return make_stream(config)

        monkeypatch.setattr(harness, "make_stream", dying)
        with pytest.raises(DriftTuneError, match="exit code 3"):
            harness._run_all(one_pass_cells(), 2)
        assert multiprocessing.active_children() == []

    def test_a_failing_caller_share_stops_the_children(self, monkeypatch):
        caller = os.getpid()
        fail_here = failing_step("ddm", ModelError("caller share failed"))

        def step(state, chunk):
            if os.getpid() != caller and chunk.index == 1:
                time.sleep(60)
            return fail_here(state, chunk)

        monkeypatch.setattr(harness, "baseline_step", step)
        start = time.perf_counter()
        with pytest.raises(ModelError, match="caller share failed"):
            harness._run_all(one_pass_cells(), 3)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("parallel,here", [(1, 2), (2, 1), (3, 2), (8, 1)])
    def test_this_process_runs_share_zero(self, monkeypatch, parallel, here):
        # two passes, split into ceil(parallel / 2) parts of at most three cells:
        # 2, 2, 4 and 6 calls in n = min(parallel, calls) shares, and share 0
        # (calls 0, n, 2n, ...) runs here
        caller, pids, run_pass = os.getpid(), [], harness._run_pass

        def recording(configs, seed):
            pids.append(os.getpid())
            return run_pass(configs, seed)

        monkeypatch.setattr(harness, "_run_pass", recording)
        results = harness._run_all(one_pass_cells(seeds=(0, 1)), parallel)
        assert pids == [caller] * here
        assert [r.name for r in results] == ["cell0", "cell1", "cell2"]
        assert [[t.seed for t in r.traces] for r in results] == [[0, 1]] * 3
        assert multiprocessing.active_children() == []


class TestSummarize:
    def test_recomputes_means_exactly(self):
        accs = [[0.9, 0.8], [0.7, 0.6], [0.5, 0.9]]
        report = summarize([fake_result("cell", "baseline", accs)])
        row = report["cells"]["cell"]["baseline"]
        per_seed = [statistics.fmean(a) for a in accs]
        assert row["per_seed_accuracy"] == pytest.approx(per_seed, abs=1e-15)
        assert row["mean_accuracy"] == pytest.approx(statistics.fmean(per_seed), abs=1e-15)
        assert row["std_accuracy"] == pytest.approx(statistics.pstdev(per_seed), abs=1e-15)

    def test_pair_deltas_and_strict_wins(self):
        cfg_a = small_config(name="a", seeds=(0,))
        cfg_b = small_config(name="b", seeds=(0,))
        cfg_c = small_config(name="c", seeds=(0,))
        results = [
            fake_result("a", "baseline", [[0.5, 0.5]], cfg_a),
            fake_result("a", "dtd", [[0.6, 0.6]], cfg_a),       # win
            fake_result("b", "baseline", [[0.5, 0.5]], cfg_b),
            fake_result("b", "dtd", [[0.5, 0.5]], cfg_b),       # exact tie
            fake_result("c", "baseline", [[0.7, 0.7]], cfg_c),
            fake_result("c", "dtd", [[0.6, 0.6]], cfg_c),       # loss
        ]
        report = summarize(results)
        assert report["n_pairs"] == 3
        assert (report["wins"], report["ties"], report["losses"]) == (1, 1, 1)
        assert report["win_rate"] == pytest.approx(1 / 3)
        assert report["win_or_tie_rate"] == pytest.approx(2 / 3)
        assert report["pairs"]["a"]["delta"] == pytest.approx(0.1)
        assert report["pairs"]["a"]["seed_wins"] == 1
        assert report["pairs"]["c"]["seed_losses"] == 1

    def test_unpaired_cells_reported_but_not_paired(self):
        report = summarize([fake_result("solo", "baseline", [[0.5]])])
        assert "solo" in report["cells"]
        assert report["n_pairs"] == 0
        assert report["win_rate"] is None

    def test_empty_results_rejected(self):
        with pytest.raises(ReportError, match="zero results"):
            summarize([])

    def test_duplicate_cell_rejected(self):
        results = [fake_result("x", "baseline", [[0.5]]), fake_result("x", "baseline", [[0.6]])]
        with pytest.raises(ReportError, match="duplicate cell"):
            summarize(results)

    def test_mismatched_trace_lengths_rejected(self):
        bad = fake_result("x", "baseline", [[0.5, 0.6], [0.7]])
        with pytest.raises(ReportError, match="mismatched chunk counts"):
            summarize([bad])

    def test_write_result_refuses_mismatched_trace_lengths(self, tmp_path):
        bad = fake_result("x", "baseline", [[0.5, 0.6], [0.7]])
        with pytest.raises(ReportError, match="mismatched chunk counts"):
            write_result(bad, tmp_path)
        assert not any(tmp_path.iterdir())

    def test_pair_with_different_seeds_rejected(self):
        a = fake_result("x", "baseline", [[0.5]], small_config(name="x", seeds=(0,)))
        b = fake_result("x", "dtd", [[0.5], [0.6]], small_config(name="x", seeds=(0, 1)))
        with pytest.raises(ReportError, match="different seeds"):
            summarize([a, b])

    def test_pair_with_different_chunk_counts_rejected(self):
        a = fake_result("x", "baseline", [[0.5, 0.6]], small_config(name="x", seeds=(0,)))
        b = fake_result("x", "dtd", [[0.5]], small_config(name="x", seeds=(0,)))
        with pytest.raises(ReportError, match="different chunk counts"):
            summarize([a, b])

    def test_stored_report_matches_in_memory(self, tmp_path):
        results, report = run_suite([small_config(out=str(tmp_path))])
        assert summarize_stored(tmp_path) == json.loads(json.dumps(report))

    def test_stored_report_requires_files(self, tmp_path):
        with pytest.raises(ReportError, match="no summary.json files"):
            summarize_stored(tmp_path)

    @pytest.mark.parametrize("damage,match", [
        ("{not json", "summary is not JSON"),
        ("[1, 2]", "summary is not a JSON object"),
        ("name", "summary has no key 'name'"),
        ("seeds", "summary has no key 'seeds'"),
        ("std_accuracy", "summary has no key 'std_accuracy'"),
        ({"per_seed_accuracy": []}, "seeds and per_seed_accuracy differ in length \\(1 and 0\\)"),
    ])
    def test_stored_report_names_a_bad_summary(self, tmp_path, damage, match):
        cfg = small_config(name="a", seeds=(0,))
        for method in METHODS:
            write_result(fake_result("a", method, [[0.5, 0.6]], cfg), tmp_path)
        path = tmp_path / "a__dtd" / "summary.json"
        if isinstance(damage, dict):
            damage = json.dumps({**json.loads(path.read_text()), **damage})
        elif damage.isidentifier():
            stored = json.loads(path.read_text())
            del stored[damage]
            damage = json.dumps(stored)
        path.write_text(damage)
        with pytest.raises(ReportError, match=match) as caught:
            summarize_stored(tmp_path)
        assert str(caught.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("key,value", [
        ("mean_accuracy", "high"),
        ("mean_accuracy", True),
        ("std_accuracy", None),
        ("per_seed_accuracy", 0.5),
        ("per_seed_accuracy", ["0.5"]),
        ("n_chunks", "2"),
        ("seeds", 0),
        ("name", ["a"]),
        ("method", None),
        # json reads NaN and Infinity as floats; a NaN mean would compare as a tie
        ("mean_accuracy", math.nan),
        ("mean_accuracy", -math.inf),
        ("std_accuracy", math.inf),
        ("per_seed_accuracy", [math.nan]),
        pytest.param("mean_accuracy", 10**400, id="mean_accuracy-huge-int"),  # no float holds it
    ])
    def test_stored_report_names_a_wrongly_typed_value(self, tmp_path, key, value):
        cfg = small_config(name="a", seeds=(0,))
        for method in METHODS:
            write_result(fake_result("a", method, [[0.5, 0.6]], cfg), tmp_path)
        path = tmp_path / "a__dtd" / "summary.json"
        stored = json.loads(path.read_text())
        stored[key] = value
        path.write_text(json.dumps(stored))
        with pytest.raises(ReportError, match=f"key '{key}'") as caught:
            summarize_stored(tmp_path)
        assert str(caught.value).startswith(f"{path}: ")

    def test_render_table(self):
        cfg = small_config(name="a", seeds=(0,))
        report = summarize([
            fake_result("a", "baseline", [[0.5, 0.5]], cfg),
            fake_result("a", "dtd", [[0.6, 0.6]], cfg),
        ])
        text = render_table(report)
        assert "experiment" in text and "a" in text
        assert "50.00" in text and "60.00" in text and "+10.000" in text
        assert "win_rate" in text

    def test_render_table_reads_the_pair_delta(self):
        cfg = small_config(name="a", seeds=(0,))
        report = summarize([
            fake_result("a", "baseline", [[0.5, 0.5]], cfg),
            fake_result("a", "dtd", [[0.6, 0.6]], cfg),
            fake_result("b", "baseline", [[0.5, 0.5]], small_config(name="b", seeds=(0,))),
        ])
        report["pairs"]["a"]["delta"] = 0.25  # the report's one delta is what is shown
        rows = dict(line.split(maxsplit=1) for line in render_table(report).splitlines()[2:4])
        assert rows["a"].split() == ["50.00", "60.00", "+25.000"]
        assert rows["b"].split() == ["50.00", "-", "-"]


ROOT = Path(__file__).resolve().parents[1]


def readme_config_block():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Experiment configs\n", 1)[1]
    return section.split("```yaml\n", 1)[1].split("```", 1)[0]


def config_texts():
    """(name, YAML text) of every shipped config, README's example, a cell
    as the grid-suite benchmark writes it (yaml.safe_dump, sorted keys) and
    a set of scalars that YAML 1.1 resolves in surprising ways."""
    grid_cell = {"stream": {"kind": "sea", "n_chunks": 100, "chunk_size": 1000,
                            "drift_period": 10, "noise": 0.1},
                 "detector": {"kind": "hddm_w", "threshold": 0.2, "ewma_weight": 0.05},
                 "mode": "sporadic", "method": "dtd", "eta": 1e-6, "seeds": [0, 1, 2]}
    scalars = ("eta: 1e-6\nnoise: 1.0e-6\nthreshold: .nan\nbig: 1" + "0" * 30 + "\n"
               "flags: [yes, no, on, off, ~, null, True]\nints: [0o17, 0x1F, 1_000, 017, 1:30]\n"
               "when: 2001-12-14\ntext: 'quoted'\nempty:\n")
    return ([(p.name, p.read_text()) for p in sorted((ROOT / "configs").glob("*.yaml"))]
            + [("README", readme_config_block()),
               ("grid-cell", yaml.safe_dump(grid_cell, sort_keys=True)),
               ("scalars", scalars)])


class TestConfigFiles:
    GOOD = """\
name: demo
stream:
  kind: sea
  n_chunks: 30
  chunk_size: 200
detector:
  kind: kswin
  window: 50
  recent: 20
mode: sporadic
method: dtd
K: 4
eta: 0.001
seeds: [0, 2, 5]
out: elsewhere
"""

    def test_full_mapping(self, tmp_path):
        path = tmp_path / "demo.yaml"
        path.write_text(self.GOOD)
        config = load_config(path)
        assert config.name == "demo"
        assert config.stream.kind == "sea" and config.stream.n_chunks == 30
        assert config.detector == "kswin"
        assert config.detector_overrides == {"window": 50, "recent": 20}
        assert config.mode == "sporadic" and config.method == "dtd"
        assert config.race_len == 4
        assert config.eta == 0.001
        assert config.seeds == (0, 2, 5)
        assert config.out == "elsewhere"

    def test_readme_config_example_builds(self):
        # README's example is the config reference, so a renamed or dropped key fails here
        mapping = yaml.safe_load(readme_config_block())
        assert set(mapping) <= harness._TOP_KEYS
        config = config_from_mapping(mapping)
        assert (config.name, config.stream.kind, config.detector) == (
            mapping["name"], mapping["stream"]["kind"], mapping["detector"]["kind"])

    def test_defaults(self):
        config = config_from_mapping(
            {"stream": {"kind": "sine"}, "detector": {"kind": "ph"}}, default_name="fallback")
        assert config.name == "fallback"
        assert config.seeds == tuple(range(20))
        assert config.race_len == 3 and config.method == "both" and config.mode == "continual"

    def test_seed_count_shorthand(self):
        config = config_from_mapping(
            {"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "seeds": 5})
        assert config.seeds == (0, 1, 2, 3, 4)

    @pytest.mark.parametrize("mapping,match", [
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "extra": 1}, "unknown config keys"),
        ({"detector": {"kind": "ddm"}}, "needs a stream mapping"),
        ({"stream": "sea", "detector": {"kind": "ddm"}}, "needs a stream mapping"),
        ({"stream": {"kind": "sea", "seed": 1}, "detector": {"kind": "ddm"}}, "per-run seeds"),
        ({"stream": {"kind": "sea", "bogus": 1}, "detector": {"kind": "ddm"}}, "unknown stream keys"),
        ({"stream": {"kind": "sea"}}, "needs a detector mapping"),
        ({"stream": {"kind": "sea"}, "detector": {"window": 5}}, "needs a detector mapping"),
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "seeds": True}, "seeds must be"),
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "seeds": 0}, "seed count"),
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "seeds": "many"}, "seeds must be"),
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "K": 2, "race_len": 2}, "not both"),
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "eta": "small"}, "eta must be a number"),
        # YAML's .inf: PM would install an infinite threshold
        ({"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, "eta": yaml.safe_load(".inf")},
         "eta must be positive and finite"),
        ("just a string", "must be a mapping"),
    ])
    def test_rejections(self, mapping, match):
        with pytest.raises(ConfigError, match=match):
            config_from_mapping(mapping)

    @pytest.mark.parametrize("stream,unread", [
        ({"kind": "sea", "csv_path": "x.csv"}, "csv_path"),
        ({"kind": "sea", "csv_has_header": True}, "csv_has_header"),
        ({"kind": "sine", "csv_has_header": False}, "csv_has_header"),
        ({"kind": "mixed", "noise": 0.0}, "noise"),
        ({"kind": "csv", "csv_path": "x.csv", "n_chunks": 7}, "n_chunks"),
        ({"kind": "csv", "csv_path": "x.csv", "drift_period": 5}, "drift_period"),
        ({"kind": "csv", "csv_path": "x.csv", "noise": 0.0}, "noise"),
    ])
    def test_stream_keys_the_kind_does_not_read_are_rejected(self, stream, unread):
        with pytest.raises(ConfigError, match=unread):
            config_from_mapping({"stream": stream, "detector": {"kind": "ddm"}})

    def test_a_csv_stream_runs_and_refuses_a_chunk_count(self, tmp_path):
        path = tmp_path / "four.csv"
        path.write_text("".join(f"{i}.0,{i % 2}\n" for i in range(4)))
        stream = {"kind": "csv", "csv_path": str(path), "csv_has_header": False, "chunk_size": 2}
        config = config_from_mapping({"stream": stream, "detector": {"kind": "ddm"}, "seeds": 1})
        assert run_experiment(config, method="baseline", write=False)["baseline"].traces[0].chunk_index == [0, 1]
        with pytest.raises(ConfigError, match="n_chunks"):
            config_from_mapping({"stream": {**stream, "n_chunks": 7}, "detector": {"kind": "ddm"}})

    @pytest.mark.parametrize("text,match", [
        ("race_len: 2.5", "race_len"),
        ("race_len: '3'", "race_len"),
        ("K: 2.5", "race_len"),
        ("eta: null", "eta"),
        ("eta: true", "eta"),
        ("seeds: [true, 2]", "seeds"),
        ("stream: {kind: sea, n_chunks: '4'}", "n_chunks"),
        ("stream: {kind: sea, chunk_size: true}", "chunk_size"),
        ("stream: {kind: sea, noise: '0.1'}", "noise"),
        ("detector: {kind: ddm, threshold: abc}", "DdmParams.threshold"),
        ("detector: {kind: ddm, threshold: null}", "DdmParams.threshold"),
        ("detector: {kind: ddm, threshold: '3'}", "DdmParams.threshold"),
        ("detector: {kind: ddm, threshold: true}", "DdmParams.threshold"),
        ("detector: {kind: ddm, min_samples: 2.5}", "DdmParams.min_samples"),
        ("detector: {kind: ddm, samples_per_update: true}", "DdmParams.samples_per_update"),
        ("detector: {kind: kswin, window: 100.5}", "KswinParams.window"),
        ("detector: {kind: kswin, seed: true}", "KswinParams.seed"),
        ("detector: {kind: hddm_w, alpha: 1e-3}", "HddmWParams.alpha"),  # YAML 1.1: a string
        ("detector: {kind: [ddm]}", "unknown detector kind"),
        ("detector: {kind: {a: 1}}", "unknown detector kind"),
        ("stream: {kind: csv, csv_path: x.csv, csv_has_header: 'no'}", "csv_has_header"),
        ("stream: {kind: csv, csv_path: 5}", "csv_path"),
        ("1: 2\nfoo: 3", "unknown config keys"),  # keys that do not sort together
        ("stream: {kind: sea, 1: 2, a: 3}", "unknown stream keys"),
        ("detector: {kind: ddm, 1: 2, a: 3}", "unknown DdmParams keys"),
    ])
    def test_badly_typed_yaml_values_rejected(self, tmp_path, text, match):
        body = "".join(f"{line}\n" for line in ("stream: {kind: sea}", "detector: {kind: ddm}")
                       if not text.startswith(line.split(":")[0]))
        path = tmp_path / "cell.yaml"
        path.write_text(body + text + "\n")
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    @pytest.mark.parametrize("detector,threshold", [
        ("{kind: ddm, threshold: 3}", 3),
        ("{kind: ph, threshold: .inf}", math.inf),
        ("{kind: kswin, threshold: null}", None),
        ("{kind: hddm_a, alpha: 1.0e-3}", None),
    ])
    def test_legal_detector_values_accepted(self, tmp_path, detector, threshold):
        path = tmp_path / "cell.yaml"
        path.write_text(f"stream: {{kind: sea}}\ndetector: {detector}\n")
        config = load_config(path)
        assert config.detector_overrides.get("threshold") == threshold

    def test_load_config_reports_path(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("stream: {kind: sea}\ndetector: {kind: nope}\n")
        with pytest.raises(ConfigError, match="bad.yaml"):
            load_config(path)

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config"):
            load_config(tmp_path / "absent.yaml")

    @pytest.mark.parametrize("text", ["stream: [unclosed\n", "a: b: c\n", "\tx: 1\n",
                                      "key: \x07\n", "&a x: *b\n", "a: 1\n---\nb: 2\n",
                                      "a: !!python/object:os.system x\n"])
    def test_load_config_invalid_yaml(self, tmp_path, text):
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match="invalid YAML in .*broken.yaml"):
            load_config(path)

    @pytest.mark.parametrize("text,key", [
        ("stream: {kind: sea}\ndetector: {kind: ddm}\nrace_len: 3\nrace_len: 5\n", "'race_len'"),
        ("stream:\n  kind: sea\n  noise: 0.1\n  noise: 0.2\ndetector: {kind: ddm}\n", "'noise'"),
        ("stream: {kind: sea}\ndetector: {kind: ddm, threshold: 1.0, threshold: 2.0}\n",
         "'threshold'"),
        ("stream: {kind: sea}\ndetector: {kind: ddm}\nseeds: 1\n0x1: a\n1: b\n", "1"),
    ])
    def test_a_repeated_key_is_rejected(self, tmp_path, text, key):
        # yaml.safe_load keeps the last value of a repeated key
        path = tmp_path / "cell.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"(?s)invalid YAML in .*cell.yaml.*repeated key {key}"):
            load_config(path)

    def test_merged_keys_are_not_repeats(self):
        # YAML merge keys: the first merged mapping wins, and the mapping's own keys win over both
        text = "a: &a {x: 1, y: 2}\nb: &b {x: 3, z: 4}\nc: {<<: [*a, *b], y: 5}\n"
        merged = yaml.load(text, Loader=harness._ConfigLoader)
        assert merged == yaml.safe_load(text)
        assert merged["c"] == {"x": 1, "y": 5, "z": 4}

    @pytest.mark.parametrize("name,text", config_texts(), ids=[n for n, _ in config_texts()])
    def test_the_loader_maps_a_config_as_safe_load_does(self, tmp_path, name, text):
        # repr tells 1 from 1.0 and True, which == does not
        assert repr(yaml.load(text, Loader=harness._ConfigLoader)) == repr(yaml.safe_load(text))
        if name != "scalars":
            path = tmp_path / "cell.yaml"
            path.write_text(text)
            assert load_config(path) == config_from_mapping(yaml.safe_load(text), "cell")

    def test_name_defaults_to_stem(self, tmp_path):
        path = tmp_path / "my_cell.yaml"
        path.write_text("stream: {kind: sea}\ndetector: {kind: ddm}\n")
        assert load_config(path).name == "my_cell"

    def test_load_config_dir_sorted(self, tmp_path):
        (tmp_path / "b.yaml").write_text("stream: {kind: sea}\ndetector: {kind: ddm}\n")
        (tmp_path / "a.yml").write_text("stream: {kind: sine}\ndetector: {kind: ph}\n")
        (tmp_path / "ignored.txt").write_text("not yaml")
        configs = load_config_dir(tmp_path)
        assert [c.name for c in configs] == ["a", "b"]

    def test_load_config_dir_accepts_single_file(self, tmp_path):
        path = tmp_path / "only.yaml"
        path.write_text("stream: {kind: sea}\ndetector: {kind: ddm}\n")
        assert [c.name for c in load_config_dir(path)] == ["only"]

    def test_load_config_dir_rejects_empty(self, tmp_path):
        with pytest.raises(ConfigError, match="no YAML configs"):
            load_config_dir(tmp_path)

    def test_load_config_dir_rejects_missing(self, tmp_path):
        with pytest.raises(ConfigError, match="neither a file nor a directory"):
            load_config_dir(tmp_path / "void")


    @pytest.mark.parametrize("text", ["name: {x: 1}", "name:", "out: [a, b]"])
    def test_non_string_name_or_out_rejected(self, tmp_path, text):
        path = tmp_path / "cell.yaml"
        path.write_text(f"stream: {{kind: sea}}\ndetector: {{kind: ddm}}\n{text}\n")
        with pytest.raises(ConfigError, match="cell.yaml"):
            load_config(path)

    @pytest.mark.parametrize("text,match", [
        (f"eta: 1{'0' * 400}", "eta must fit in a float"),
        (f"stream: {{kind: sea, noise: 1{'0' * 400}}}", "noise must fit in a float"),
        (f"detector: {{kind: ddm, threshold: 1{'0' * 400}}}",
         "DdmParams.threshold must fit in a float"),
    ])
    def test_yaml_number_too_large_for_a_float_rejected(self, text, match):
        mapping = {"stream": {"kind": "sea"}, "detector": {"kind": "ddm"}, **yaml.safe_load(text)}
        with pytest.raises(ConfigError, match=match):
            config_from_mapping(mapping)

    def test_int_eta_writes_the_same_summary_from_yaml_and_api(self, tmp_path):
        path = tmp_path / "cell.yaml"
        path.write_text("stream: {kind: sea, n_chunks: 6, chunk_size: 50}\n"
                        "detector: {kind: ddm}\nseeds: 1\neta: 1\n")
        api = ExperimentConfig(name="cell", stream=StreamConfig(kind="sea", n_chunks=6, chunk_size=50),
                               detector="ddm", seeds=1, eta=1)
        run_experiment(dataclasses.replace(load_config(path), out=str(tmp_path / "yaml")), method="dtd")
        run_experiment(dataclasses.replace(api, out=str(tmp_path / "api")), method="dtd")
        stored = [(tmp_path / root / "cell__dtd" / "summary.json").read_bytes()
                  for root in ("yaml", "api")]
        assert stored[0] == stored[1]
        assert json.loads(stored[0])["eta"] == 1.0


# the keys and values README documents for a config file
_SIZES = {"n_chunks": st.integers(2, 50), "chunk_size": st.integers(1, 500),
          "drift_period": st.integers(1, 20)}
_STREAMS = st.one_of(  # label noise is sea's alone
    st.fixed_dictionaries({"kind": st.just("sea")},
                          optional={**_SIZES, "noise": st.floats(0.0, 0.5)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["sine", "mixed"])}, optional=_SIZES))
_DETECTORS = st.fixed_dictionaries({"kind": st.sampled_from(sorted(DETECTOR_KINDS))})
_TOP_VALUES = {
    "name": st.text("abc_-.0123456789", min_size=1, max_size=8),
    "mode": st.sampled_from(TRAINING_MODES),
    "method": st.sampled_from(METHODS + ("both",)),
    "race_len": st.integers(1, 10),
    "K": st.integers(1, 10),
    "eta": st.one_of(st.integers(1, 5), st.floats(1e-9, 10.0)),
    "seeds": st.one_of(st.integers(1, 30),
                       st.lists(st.integers(0, 1000), min_size=1, max_size=5, unique=True)),
    "out": st.text("abc/_.", min_size=1, max_size=8),
}
# per key, values of a type that key never takes
_JUNK = {"none": st.none(), "bool": st.booleans(), "int": st.integers(), "float": st.floats(),
         "str": st.text(max_size=5), "list": st.lists(st.integers(), max_size=3),
         "dict": st.dictionaries(st.text(max_size=3), st.integers(), max_size=2)}
_WRONG_TYPES = {
    "name": ("none", "bool", "int", "float", "list", "dict"),
    "stream": ("none", "bool", "int", "float", "str", "list"),
    "detector": ("none", "bool", "int", "float", "str", "list"),
    "mode": ("none", "bool", "int", "float", "list", "dict"),
    "method": ("none", "bool", "int", "float", "list", "dict"),
    "race_len": ("none", "bool", "float", "str", "list", "dict"),
    "K": ("none", "bool", "float", "str", "list", "dict"),
    "eta": ("none", "bool", "str", "list", "dict"),
    "seeds": ("none", "bool", "float", "str", "dict"),
    "out": ("none", "bool", "int", "float", "list", "dict"),
}


class TestTwoWaysIn:
    """A mapping and the ExperimentConfig built from the same values agree."""

    @settings(max_examples=60, deadline=None)
    @given(stream=_STREAMS, detector=_DETECTORS, data=st.data())
    def test_mapping_builds_the_direct_config(self, stream, detector, data):
        keys = data.draw(st.sets(st.sampled_from(sorted(_TOP_VALUES))))
        if {"K", "race_len"} <= keys:
            keys.discard("K")
        top = {k: data.draw(_TOP_VALUES[k], label=k) for k in sorted(keys)}
        mapping = {"stream": stream, "detector": detector, **top}
        if "K" in top:
            top["race_len"] = top.pop("K")
        top.setdefault("name", "fallback")
        direct = ExperimentConfig(stream=StreamConfig(**stream), detector=detector["kind"], **top)
        built = config_from_mapping(mapping, default_name="fallback")
        assert built == direct
        assert repr(built) == repr(direct)  # same types too: 1.0 is not 1, a tuple not a list

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_wrongly_typed_top_level_value_is_a_config_error(self, data):
        key = data.draw(st.sampled_from(sorted(_WRONG_TYPES)))
        junk = data.draw(st.sampled_from(_WRONG_TYPES[key]))
        mapping = {"stream": {"kind": "sea"}, "detector": {"kind": "ddm"},
                   key: data.draw(_JUNK[junk], label=f"{key} ({junk})")}
        with pytest.raises(ConfigError):
            config_from_mapping(mapping)


class TestWriteResult:
    def test_layout_and_determinism(self, tmp_path):
        result = fake_result("cellname", "dtd", [[0.5, 0.6], [0.7, 0.8]])
        cell_dir = write_result(result, tmp_path)
        assert cell_dir == tmp_path / "cellname__dtd"
        assert sorted(p.name for p in cell_dir.iterdir()) == [
            "seed0.csv", "seed1.csv", "summary.json"]
        text = (cell_dir / "summary.json").read_text()
        parsed = json.loads(text)
        assert text == json.dumps(parsed, sort_keys=True, indent=2) + "\n"

    def test_a_rerun_with_fewer_seeds_leaves_no_stale_trace(self, tmp_path):
        config = small_config(seeds=(0, 1, 2), method="baseline", n_chunks=6, chunk_size=50,
                              out=str(tmp_path))
        run_experiment(config)
        run_experiment(dataclasses.replace(config, seeds=1))
        cell_dir = tmp_path / "cell__baseline"
        assert sorted(p.name for p in cell_dir.iterdir()) == ["seed0.csv", "summary.json"]
        assert json.loads((cell_dir / "summary.json").read_text())["seeds"] == [0]

    def test_a_rerun_removes_only_trace_names_the_program_writes(self, tmp_path):
        cell_dir = tmp_path / "cellname__dtd"
        cell_dir.mkdir()
        kept = ["seed_notes.csv", "seedling.csv", "seed.csv", "seed1a.csv", "seed-1.csv",
                "seed007.csv", "seed\u0663.csv", "seed1.csv.bak", "notes.txt"]
        for name in kept + ["seed7.csv", "seed10.csv"]:
            (cell_dir / name).write_text("kept\n")
        write_result(fake_result("cellname", "dtd", [[0.5, 0.6]]), tmp_path)
        assert sorted(p.name for p in cell_dir.iterdir()) == sorted(kept + ["seed0.csv", "summary.json"])
