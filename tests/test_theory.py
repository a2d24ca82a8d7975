"""Closed-form accuracy decompositions and the threshold-schedule checks."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttune.classifier import GaussianNB, adapt
from drifttune.detectors import DETECTOR_KINDS
from drifttune.dtd import TRAINING_MODES
from drifttune.errors import ConfigError
from drifttune.stream import Chunk, StreamConfig, make_stream
from drifttune.theory import (
    FLOAT_SLACK,
    RECURRENT_EXAMPLE,
    SIM_TOLERANCE,
    SUDDEN_EXAMPLE,
    RecurrentDriftParams,
    SuddenDriftParams,
    ThresholdStrategy,
    analytic_recurrent,
    analytic_sudden,
    check_sudden_identity,
    policy_trace,
    policy_traces,
    random_sudden_params,
    simulate_recurrent_drift,
    sudden_gap,
    validate_theorem1,
    validate_theorem3,
    validate_theorem3_analytic,
    validate_theory,
)
from drifttune.harness import baseline_trace
from drifttune.detectors import make_monitor, params_from_dict


class TestSuddenClosedForm:
    def test_reference_example_by_hand(self):
        # T=100, t_d=40, one mismatched chunk at 0.5, 20 recovery chunks at
        # 0.6, the remaining 39 chunks at 0.9:
        expected_perfect = (40 * 0.9 + 0.5 + 20 * 0.6 + 39 * 0.9) / 100
        # delayed: 3 mismatched chunks, 5 recovery chunks at 0.8, 52 stable:
        expected_delayed = (40 * 0.9 + 3 * 0.5 + 5 * 0.8 + 52 * 0.9) / 100
        perfect, delayed = analytic_sudden(SUDDEN_EXAMPLE)
        assert math.isclose(perfect, expected_perfect, rel_tol=1e-15)
        assert math.isclose(delayed, expected_delayed, rel_tol=1e-15)
        assert math.isclose(perfect, 0.836)
        assert math.isclose(delayed, 0.883)
        assert delayed > perfect  # the slow detector wins this configuration

    def test_constant_accuracy_gives_that_constant(self):
        p = SuddenDriftParams(T=50, t_d=10, t_w=4, t_incre=8, t_incre_prime=3,
                              A_C1=0.7, A_dismatch=0.7, A_incre=0.7,
                              A_incre_prime=0.7, A_stable=0.7)
        perfect, delayed = analytic_sudden(p)
        assert math.isclose(perfect, 0.7, rel_tol=1e-12)
        assert math.isclose(delayed, 0.7, rel_tol=1e-12)

    def test_single_chunk_wait_with_equal_recovery_coincides(self):
        p = SuddenDriftParams(T=80, t_d=20, t_w=1, t_incre=12, t_incre_prime=12,
                              A_C1=0.95, A_dismatch=0.4, A_incre=0.65,
                              A_incre_prime=0.65, A_stable=0.9)
        perfect, delayed = analytic_sudden(p)
        assert perfect == delayed

    def test_gradual_phase_reduces_exactly_at_zero(self):
        base = dict(T=60, t_d=15, t_w=2, t_incre=10, t_incre_prime=6,
                    A_C1=0.9, A_dismatch=0.5, A_incre=0.6,
                    A_incre_prime=0.7, A_stable=0.85)
        plain = analytic_sudden(SuddenDriftParams(**base))
        with_zero = analytic_sudden(SuddenDriftParams(**base, t_g=0, A_g=0.3))
        assert plain == with_zero

    def test_gradual_phase_by_hand(self):
        p = SuddenDriftParams(T=10, t_d=2, t_w=1, t_incre=1, t_incre_prime=1,
                              A_C1=1.0, A_dismatch=0.0, A_incre=0.5,
                              A_incre_prime=0.5, A_stable=1.0, t_g=3, A_g=0.2)
        perfect, delayed = analytic_sudden(p)
        expected = (2 * 1.0 + 3 * 0.2 + 0.0 + 0.5 + 3 * 1.0) / 10
        assert math.isclose(perfect, expected, rel_tol=1e-15)
        assert math.isclose(delayed, expected, rel_tol=1e-15)  # t_w=1, same recovery

    @pytest.mark.parametrize("kw,match", [
        (dict(T=10, t_d=8, t_w=1, t_incre=5, t_incre_prime=0), "perfect-detection"),
        (dict(T=10, t_d=5, t_w=4, t_incre=0, t_incre_prime=3), "delayed-detection"),
        (dict(T=10, t_d=2, t_w=0, t_incre=1, t_incre_prime=1), "t_w"),
        (dict(T=0, t_d=0, t_w=1, t_incre=0, t_incre_prime=0), "T"),
        (dict(T=10, t_d=-1, t_w=1, t_incre=0, t_incre_prime=0), "t_d"),
        (dict(T=10, t_d=True, t_w=1, t_incre=0, t_incre_prime=0), "t_d"),
    ])
    def test_phase_invariants(self, kw, match):
        with pytest.raises(ConfigError, match=match):
            SuddenDriftParams(A_C1=0.9, A_dismatch=0.5, A_incre=0.6,
                              A_incre_prime=0.7, A_stable=0.9, **kw)

    @pytest.mark.parametrize("field", ["A_C1", "A_dismatch", "A_incre", "A_incre_prime", "A_stable", "A_g"])
    def test_accuracies_must_be_unit(self, field):
        kw = dict(T=10, t_d=2, t_w=1, t_incre=1, t_incre_prime=1, A_C1=0.9,
                  A_dismatch=0.5, A_incre=0.6, A_incre_prime=0.7, A_stable=0.9)
        kw[field] = 1.2
        with pytest.raises(ConfigError, match=field):
            SuddenDriftParams(**kw)

    @pytest.mark.parametrize("value", [True, "0.5", None])
    @pytest.mark.parametrize("field", ["A_C1", "A_g"])
    def test_accuracies_must_be_numbers(self, field, value):
        kw = dict(T=10, t_d=2, t_w=1, t_incre=1, t_incre_prime=1, A_C1=0.9,
                  A_dismatch=0.5, A_incre=0.6, A_incre_prime=0.7, A_stable=0.9)
        kw[field] = value
        with pytest.raises(ConfigError, match=field):
            SuddenDriftParams(**kw)

    def test_gradual_tightens_invariants(self):
        with pytest.raises(ConfigError, match="perfect-detection"):
            SuddenDriftParams(T=10, t_d=4, t_w=1, t_incre=3, t_incre_prime=0,
                              A_C1=0.9, A_dismatch=0.5, A_incre=0.6,
                              A_incre_prime=0.7, A_stable=0.9, t_g=3, A_g=0.2)


class TestSuddenIdentity:
    def test_gap_matches_difference_on_example(self):
        perfect, delayed = analytic_sudden(SUDDEN_EXAMPLE)
        assert math.isclose(sudden_gap(SUDDEN_EXAMPLE), delayed - perfect, abs_tol=1e-15)

    def test_random_draws_satisfy_invariants(self):
        rng = np.random.Generator(np.random.PCG64(0))
        for _ in range(200):
            p = random_sudden_params(rng)
            assert p.t_d + 1 + p.t_incre <= p.T
            assert p.t_d + p.t_w + p.t_incre_prime <= p.T
            assert p.t_w >= 1

    def test_identity_over_many_draws(self):
        report = check_sudden_identity()
        assert report["pass"]
        assert report["max_abs_residual"] <= FLOAT_SLACK
        assert report["sufficiency_violations"] == 0
        assert report["n_draws"] == 10_000


class TestRecurrentClosedForm:
    def test_reference_example_by_hand(self):
        expected_perfect = (50 * 0.9 + 0.5 + 0.5 + 10 * 0.6 + 38 * 0.9) / 100
        expected_missed = (50 * 0.9 + 0.5 + 49 * 0.9) / 100
        perfect, missed = analytic_recurrent(RECURRENT_EXAMPLE)
        assert math.isclose(perfect, expected_perfect, rel_tol=1e-15)
        assert math.isclose(missed, expected_missed, rel_tol=1e-15)
        assert math.isclose(perfect, 0.862)
        assert math.isclose(missed, 0.896)
        assert missed > perfect  # adapting to a one-chunk excursion hurts

    def test_constant_accuracy_gives_that_constant(self):
        p = RecurrentDriftParams(T=40, t_d=5, t_incre1=3, A_C1=0.8, A_dismatch=0.8,
                                 A_mismatch2=0.8, A_incre1=0.8, A_stable1=0.8)
        perfect, missed = analytic_recurrent(p)
        assert math.isclose(perfect, 0.8, rel_tol=1e-12)
        assert math.isclose(missed, 0.8, rel_tol=1e-12)

    def test_zero_recovery_duration_is_legal(self):
        p = RecurrentDriftParams(T=10, t_d=3, t_incre1=0, A_C1=0.9, A_dismatch=0.5,
                                 A_mismatch2=0.4, A_incre1=0.0, A_stable1=0.9)
        perfect, missed = analytic_recurrent(p)
        assert math.isclose(perfect, (3 * 0.9 + 0.5 + 0.4 + 5 * 0.9) / 10, rel_tol=1e-15)
        assert math.isclose(missed, (3 * 0.9 + 0.5 + 6 * 0.9) / 10, rel_tol=1e-15)

    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_accuracies_must_be_numbers(self, value):
        with pytest.raises(ConfigError, match="A_mismatch2"):
            RecurrentDriftParams(T=10, t_d=3, t_incre1=1, A_C1=0.9, A_dismatch=0.5,
                                 A_mismatch2=value, A_incre1=0.6, A_stable1=0.9)

    def test_phase_invariant(self):
        with pytest.raises(ConfigError, match="t_d \\+ 2 \\+ t_incre1"):
            RecurrentDriftParams(T=10, t_d=8, t_incre1=1, A_C1=0.9, A_dismatch=0.5,
                                 A_mismatch2=0.5, A_incre1=0.6, A_stable1=0.9)


class TestThresholdStrategy:
    def test_lookup(self):
        strategy = ThresholdStrategy(segments=((0, 2.0), (10, 4.0), (30, 1.0)))
        assert strategy.threshold_at(0) == 2.0
        assert strategy.threshold_at(9) == 2.0
        assert strategy.threshold_at(10) == 4.0
        assert strategy.threshold_at(29) == 4.0
        assert strategy.threshold_at(30) == 1.0
        assert strategy.threshold_at(500) == 1.0

    def test_constant(self):
        strategy = ThresholdStrategy.constant(3.5)
        assert strategy.segments == ((0, 3.5),)
        assert strategy.threshold_at(123) == 3.5

    @pytest.mark.parametrize("segments,match", [
        ((), "at least one segment"),
        (((5, 1.0),), "first segment starts at 5"),
        (((0, 1.0), (0, 2.0)), "strictly increasing"),
        (((0, 1.0), (10, 2.0), (7, 3.0)), "strictly increasing"),
        (((0, math.nan),), "NaN"),
        (((0, 1.0), (True, 2.0)), "integers"),
        (((0, True),), "number"),
        (((0, "3"),), "number"),
        (((0,),), r"\(start, threshold\) pair, got \(0,\)"),
        (((0, 1.0, 2),), r"\(start, threshold\) pair, got \(0, 1.0, 2\)"),
        ((0,), r"\(start, threshold\) pair, got 0"),
    ])
    def test_validation(self, segments, match):
        with pytest.raises(ConfigError, match=match):
            ThresholdStrategy(segments=segments)

    def test_validate_for_stream_length(self):
        strategy = ThresholdStrategy(segments=((0, 1.0), (40, 2.0)))
        strategy.validate_for(41)
        with pytest.raises(ConfigError, match="beyond the stream"):
            strategy.validate_for(40)


class TestPolicySimulation:
    def stream(self, n_chunks=30, drift_period=10, seed=0):
        return make_stream(StreamConfig(kind="sea", seed=seed, n_chunks=n_chunks,
                                        chunk_size=400, drift_period=drift_period))

    # ``filled`` is what the policy's monitor must get from the stream: the
    # chunk size for ddm, the stream seed (3, not the default 0) for kswin,
    # whose short window fills early enough for its subsample to show
    @pytest.mark.parametrize("kind, theta, overrides, filled", [
        ("ddm", 3.0, {}, {"samples_per_update": 400}),
        ("kswin", 0.6, {"window": 10, "recent": 3}, {"seed": 3}),
    ], ids=["ddm", "kswin"])
    def test_constant_schedule_equals_plain_baseline(self, kind, theta, overrides, filled):
        stream = self.stream(seed=3)
        policy = policy_trace(stream, ThresholdStrategy.constant(theta), kind, overrides=overrides)
        params = params_from_dict(kind, {**overrides, **filled, "threshold": theta})
        plain = baseline_trace(stream, make_monitor(kind, params), mode="continual")
        assert policy.seed == plain.seed == 3
        assert policy.accuracy == plain.accuracy
        assert policy.alarm == plain.alarm
        assert policy.threshold == plain.threshold
        assert policy.statistic[1:] == plain.statistic[1:]

    def test_infinite_threshold_matches_never_adapt_oracle(self):
        stream = self.stream()
        got = policy_trace(stream, ThresholdStrategy.constant(math.inf), mode="continual").mean_accuracy
        model = GaussianNB().train(stream.chunk(0))
        accs = []
        for i in range(1, len(stream)):
            chunk = stream.chunk(i)
            accs.append(float(np.mean(model.predict(chunk.X) == chunk.y)))
            model.train(chunk)
        assert got == statistics.fmean(accs)

    def test_infinite_threshold_sporadic_freezes_the_model(self):
        stream = self.stream()
        got = policy_trace(stream, ThresholdStrategy.constant(math.inf), mode="sporadic").mean_accuracy
        model = GaussianNB().train(stream.chunk(0))
        accs = [float(np.mean(model.predict(stream.chunk(i).X) == stream.chunk(i).y))
                for i in range(1, len(stream))]
        assert got == statistics.fmean(accs)

    def test_schedule_switch_takes_effect(self):
        stream = self.stream()
        trace = policy_trace(stream, ThresholdStrategy(segments=((0, math.inf), (15, 0.0))))
        assert not any(trace.alarm[:15])
        assert any(trace.alarm[15:])  # zero threshold alarms on any positive statistic
        # statistics are never negative, so -inf alarms on every evaluated chunk
        trace = policy_trace(stream, ThresholdStrategy.constant(-math.inf))
        assert all(trace.alarm[1:])


THETAS = (-math.inf, 0.0, 0.05, 0.3, 1.0, 3.0, math.inf)


@st.composite
def schedules(draw, n_chunks):
    """A random threshold schedule of 1-4 segments that fits ``n_chunks``."""
    n_starts = draw(st.integers(0, min(3, n_chunks - 1)))
    starts = sorted(draw(st.sets(st.integers(1, n_chunks - 1), min_size=n_starts, max_size=n_starts)))
    thetas = draw(st.lists(st.sampled_from(THETAS), min_size=n_starts + 1, max_size=n_starts + 1))
    return ThresholdStrategy(tuple(zip([0] + starts, thetas)))


@pytest.mark.parametrize("mode", TRAINING_MODES)
@pytest.mark.parametrize("detector", DETECTOR_KINDS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_policy_traces_equal_separate_policy_trace_calls(detector, mode, data):
    stream = make_stream(StreamConfig(kind=data.draw(st.sampled_from(("sea", "sine"))),
                                      seed=data.draw(st.integers(0, 99)),
                                      n_chunks=data.draw(st.integers(2, 12)),
                                      chunk_size=data.draw(st.integers(10, 60)),
                                      drift_period=data.draw(st.integers(2, 5))))
    overrides = {"window": 6, "recent": 2} if detector == "kswin" else {}
    strategies = data.draw(st.lists(schedules(len(stream)), min_size=1, max_size=4))
    together = policy_traces(stream, strategies, detector, mode, overrides)
    apart = [policy_trace(stream, s, detector, mode, overrides) for s in strategies]
    assert [t.to_csv_text() for t in together] == [t.to_csv_text() for t in apart]


class TestTheorem3:
    def stream(self, **kw):
        kw.setdefault("kind", "sea")
        kw.setdefault("seed", 0)
        kw.setdefault("n_chunks", 40)
        kw.setdefault("chunk_size", 400)
        kw.setdefault("drift_period", 20)
        return make_stream(StreamConfig(**kw))

    def test_analytic_margins_never_negative(self):
        report = validate_theorem3_analytic(n_configs=100, seed=11)
        assert report["pass"]
        assert report["min_margin"] >= -FLOAT_SLACK
        assert report["min_margin"] >= 0.0  # pure maxima composition, exactly
        assert report["max_margin"] > 0.0
        assert report["n_configs"] == 100

    def test_analytic_rejects_zero_configs(self):
        with pytest.raises(ConfigError, match="n_configs"):
            validate_theorem3_analytic(n_configs=0)

    def test_singleton_grid_margin_is_zero(self):
        report = validate_theorem3(self.stream(), theta_grid=(3.0,), boundaries=(0, 20))
        assert report["margin"] == 0.0
        assert report["dynamic"]["thetas"] == [3.0, 3.0]

    def test_report_shape_and_winners_from_grid(self):
        grid = (1.0, 2.0, 3.0, 4.0)
        report = validate_theorem3(self.stream(), theta_grid=grid, boundaries=(0, 20))
        assert report["best_constant"]["theta"] in grid
        assert all(t in grid for t in report["dynamic"]["thetas"])
        assert len(report["per_segment"]) == 2
        assert report["per_segment"][0]["start"] == 0
        assert report["per_segment"][1]["end"] == 40
        assert report["asserted"] is False
        assert math.isclose(report["margin"],
                            report["dynamic"]["accuracy"] - report["best_constant"]["accuracy"],
                            abs_tol=1e-15)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError, match="grid"):
            validate_theorem3(self.stream(), theta_grid=(), boundaries=(0, 20))
        with pytest.raises(ConfigError, match="grid"):
            validate_theorem3(self.stream(), theta_grid=(True,), boundaries=(0, 20))
        with pytest.raises(ConfigError, match="grid"):
            validate_theorem3(self.stream(), theta_grid=(3.0, "4"), boundaries=(0, 20))

    def test_bad_boundaries_rejected(self):
        with pytest.raises(ConfigError, match="first segment"):
            validate_theorem3(self.stream(), theta_grid=(3.0,), boundaries=(5, 20))
        with pytest.raises(ConfigError, match="beyond the stream"):
            validate_theorem3(self.stream(), theta_grid=(3.0,), boundaries=(0, 60))
        with pytest.raises(ConfigError, match="integers"):
            validate_theorem3(self.stream(), theta_grid=(3.0,), boundaries=(0, 20.7))


def oracle_accuracies(stream, flip_index, adapt_at):
    """Per-chunk accuracy of a frozen model that adapts only at ``adapt_at``;
    chunk ``flip_index`` is served with labels reversed. No monitor is involved."""
    model = GaussianNB().train(stream.chunk(0))
    accuracies = []
    for i in range(1, len(stream)):
        chunk = stream.chunk(i)
        if i == flip_index:
            chunk = Chunk(index=i, X=chunk.X.copy(), y=1 - chunk.y)
        accuracies.append(float(np.mean(model.predict(chunk.X) == chunk.y)))
        if i in adapt_at:
            model = adapt(model, chunk)
    return accuracies


class TestTheorem1Simulation:
    # the last case leaves no stable tail after the relearning phase
    @pytest.mark.parametrize("t_eval, t_d, t_incre1, chunk_size, seed", [
        (100, 50, 10, 300, 1),
        (30, 8, 0, 200, 4),
        (14, 5, 7, 150, 2),
    ])
    def test_oracle_schedules_equal_frozen_model_reference(self, t_eval, t_d, t_incre1,
                                                           chunk_size, seed):
        stream = make_stream(StreamConfig(kind="sea", seed=seed, n_chunks=t_eval + 1,
                                          chunk_size=chunk_size, drift_period=t_eval + 1))
        flip = t_d + 1
        perfect = oracle_accuracies(stream, flip, {flip, flip + 1})
        missed = oracle_accuracies(stream, flip, set())
        tail = perfect[t_d + 2 + t_incre1:]
        expected = dict(
            T=t_eval, t_d=t_d, t_incre1=t_incre1,
            A_C1=statistics.fmean(perfect[:t_d]),
            A_dismatch=perfect[t_d],
            A_mismatch2=perfect[t_d + 1],
            A_incre1=statistics.fmean(perfect[t_d + 2:t_d + 2 + t_incre1]) if t_incre1 else 0.0,
            A_stable1=statistics.fmean(tail) if tail else perfect[t_d + 1 + t_incre1],
        )
        report = simulate_recurrent_drift(t_eval, t_d, t_incre1, chunk_size, seed)
        assert report["params"] == expected
        assert report["sim"] == {"A_P": statistics.fmean(perfect), "A_M": statistics.fmean(missed)}

    def test_oracle_policies_order_and_agree(self):
        report = validate_theorem1()
        assert report["pass"]
        sim = report["simulation"]
        assert sim["ordering_ok"]
        assert sim["abs_err_P"] <= SIM_TOLERANCE
        assert sim["abs_err_M"] <= SIM_TOLERANCE
        assert sim["sim"]["A_M"] > sim["sim"]["A_P"]
        assert report["analytic_example"]["A_M"] > report["analytic_example"]["A_P"]

    def test_measured_phase_accuracies_are_unit(self):
        report = simulate_recurrent_drift(chunk_size=300, seed=1)
        for key in ("A_C1", "A_dismatch", "A_mismatch2", "A_incre1", "A_stable1"):
            assert 0.0 <= report["params"][key] <= 1.0
        # the foreign chunk must hurt the frozen model badly
        assert report["params"]["A_dismatch"] < 0.5

    def test_phase_bounds_validated(self):
        with pytest.raises(ConfigError, match="phases exceed"):
            simulate_recurrent_drift(t_eval=10, t_d=9, t_incre1=1)
        with pytest.raises(ConfigError, match="phases exceed"):
            simulate_recurrent_drift(t_eval=10, t_d=0)


def test_validate_theory_aggregates_all_checks():
    report = validate_theory()
    assert set(report) == {"theorem1", "sudden_identity", "theorem3_analytic",
                           "theorem3_stream", "pass"}
    assert report["pass"]
    assert report["theorem1"]["pass"]
    assert report["sudden_identity"]["pass"]
    assert report["theorem3_analytic"]["pass"]
    assert "margin" in report["theorem3_stream"]
