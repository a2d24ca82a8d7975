"""Drift detector statistics, thresholds, and the shared monitor contract."""

import dataclasses
import math
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttune.detectors import (
    DETECTOR_KINDS,
    Ddm,
    DdmParams,
    HddmA,
    HddmAParams,
    HddmW,
    HddmWParams,
    Kswin,
    KswinParams,
    MONITOR_TYPES,
    PageHinkley,
    PhParams,
    ks_distance,
    make_monitor,
    params_from_dict,
)
from drifttune.errors import ConfigError, DetectorError


# ---------------------------------------------------------------- oracles
# Plain-loop restatements of each statistic, kept deliberately naive so the
# implementations are checked against independently written arithmetic.

def ddm_oracle(values, m=1, min_samples=2):
    total, min_sum, min_dev, out = 0.0, math.inf, 0.0, []
    for n, v in enumerate(values, start=1):
        total += v
        p = total / n
        s = math.sqrt(p * (1.0 - p) / (n * m))
        if p + s < min_sum:
            min_sum, min_dev = p + s, s
        if n < min_samples or min_dev <= 0.0:
            out.append(0.0)
        else:
            out.append(max(0.0, (p + s - min_sum) / min_dev))
    return out


def ph_oracle(values, delta=0.005):
    mean, cum, cum_min, out = 0.0, 0.0, math.inf, []
    for n, v in enumerate(values, start=1):
        mean += (v - mean) / n
        cum += v - mean - delta
        cum_min = min(cum_min, cum)
        out.append(max(0.0, cum - cum_min))
    return out


# The two HDDM oracles recompute their constants on every update; the
# monitors compute them once, from the same expressions.

def hddm_a_oracle(values, alpha=0.001, m=1):
    total, cut_n, cut_total, cut_score, out = 0.0, 0, 0.0, math.inf, []
    for n, v in enumerate(values, start=1):
        log_term = math.log(1.0 / alpha)
        total += v
        mean = total / n
        bound = math.sqrt(log_term / (2.0 * n * m))
        if mean + bound < cut_score:
            cut_score, cut_n, cut_total = mean + bound, n, total
        n2 = n - cut_n
        if cut_n < 1 or n2 < 1:
            out.append(0.0)
            continue
        mu1 = cut_total / cut_n
        mu2 = (total - cut_total) / n2
        eps = math.sqrt((log_term / 2.0) * (1.0 / (cut_n * m) + 1.0 / (n2 * m)))
        out.append(max(0.0, (mu2 - mu1) / eps))
    return out


def hddm_w_oracle(values, lam=0.05, alpha=0.005, m=1):
    ewma, ewma_min, out = None, math.inf, []
    for v in values:
        eps = math.sqrt((lam / (2.0 - lam)) * math.log(1.0 / alpha) / (2.0 * m))
        ewma = v if ewma is None else (1.0 - lam) * ewma + lam * v
        ewma_min = min(ewma_min, ewma)
        out.append(max(0.0, (ewma - ewma_min) / eps))
    return out


def run(det, values):
    return [det.update(v) for v in values]


class TestDdm:
    def test_matches_oracle_on_step_sequence(self):
        values = [0.1] * 50 + [0.9] * 20
        got = run(Ddm(), values)
        want = ddm_oracle(values)
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want))

    def test_step_crossing_point_frozen(self):
        det = Ddm()
        for v in [0.1] * 50:
            det.update(v)
        assert not det.alarm
        crossing = None
        for k in range(1, 20):
            det.update(0.9)
            if det.alarm:
                crossing = k
                break
        assert crossing == 9
        assert math.isclose(det.statistic, 3.1517116754007364, rel_tol=1e-12)

    def test_quiet_until_min_samples(self):
        det = Ddm(DdmParams(min_samples=5))
        stats = run(det, [0.3, 0.1, 0.4, 0.2])
        assert stats == [0.0, 0.0, 0.0, 0.0]

    def test_samples_per_update_sharpens_the_bound(self):
        values = [0.1] * 50 + [0.9] * 2
        coarse = run(Ddm(DdmParams(samples_per_update=1)), values)[-1]
        fine = run(Ddm(DdmParams(samples_per_update=1000)), values)[-1]
        assert fine > coarse
        want = ddm_oracle(values, m=1000)
        got = run(Ddm(DdmParams(samples_per_update=1000)), values)
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want))

    def test_chunk_scale_alarm_is_immediate(self):
        det = Ddm(DdmParams(samples_per_update=1000))
        for v in [0.1] * 50:
            det.update(v)
        det.update(0.9)
        assert det.alarm
        assert math.isclose(det.statistic, 11.747515531431912, rel_tol=1e-12)

    def test_default_threshold(self):
        assert Ddm().threshold == 3.0


class TestPageHinkley:
    def test_matches_oracle_exactly(self):
        values = [0.1] * 30 + [0.6] * 10
        got = run(PageHinkley(), values)
        want = ph_oracle(values)
        assert got == want
        assert got[-1] == 4.203338620239774

    def test_stationary_input_stays_low(self):
        det = PageHinkley()
        stats = run(det, [0.2] * 100)
        assert max(stats) <= det.threshold

    def test_delta_discounts_small_rises(self):
        loose = run(PageHinkley(PhParams(delta=0.5)), [0.1] * 20 + [0.3] * 20)
        assert max(loose) == 0.0

    def test_default_threshold(self):
        assert PageHinkley().threshold == 0.1


class DequeKswin:
    """Kswin's update as first written, frozen as the reference: a deque
    window copied to an array on every update, a subsample drawn by
    ``rng.choice`` over the older values, and the KS distance of the sorted
    float64 samples."""

    def __init__(self, params):
        self.params = params
        self.reset()

    def reset(self):
        self.window = deque(maxlen=self.params.window)
        self.rng = np.random.Generator(np.random.PCG64(self.params.seed))

    def clone(self):
        twin = DequeKswin(self.params)
        twin.window = self.window.copy()
        twin.rng.bit_generator.state = self.rng.bit_generator.state
        return twin

    def update(self, value):
        self.window.append(value)
        if len(self.window) < self.params.window:
            return 0.0
        arr = np.asarray(self.window, dtype=np.float64)
        sample = self.rng.choice(arr[:-self.params.recent], size=self.params.recent, replace=False)
        a = np.sort(np.asarray(sample, dtype=np.float64))
        b = np.sort(np.asarray(arr[-self.params.recent:], dtype=np.float64))
        values = np.concatenate([a, b])
        cdf_a = np.searchsorted(a, values, side="right") / a.size
        cdf_b = np.searchsorted(b, values, side="right") / b.size
        return float(np.abs(cdf_a - cdf_b).max())


class TestKswin:
    def test_default_threshold_closed_form(self):
        assert KswinParams().threshold == math.sqrt(-math.log(0.005) / 30.0)
        assert KswinParams().threshold == 0.42025061437781924

    def test_silent_until_window_fills(self):
        det = Kswin()
        stats = run(det, [0.5] * 99)
        assert stats == [0.0] * 99
        det.update(0.5)
        assert det.statistic == 0.0  # identical samples: KS distance zero

    def test_disjoint_shift_gives_distance_one(self):
        det = Kswin()
        values = [0.0] * 70 + [1.0] * 30
        stats = run(det, values)
        assert stats[-1] == 1.0
        assert det.alarm

    def test_seeded_subsample_repeats_exactly(self):
        rng = np.random.default_rng(5)
        values = list(rng.uniform(0, 1, 130))
        a = run(Kswin(KswinParams(seed=9)), values)
        b = run(Kswin(KswinParams(seed=9)), values)
        assert a == b
        c = run(Kswin(KswinParams(seed=10)), values)
        assert a != c

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_statistics_match_the_deque_formulation(self, data):
        """Updates, clones and resets in random order give the statistic
        sequence of the original formulation, kept here as ``DequeKswin``."""
        window = data.draw(st.integers(2, 40), label="window")
        recent = data.draw(st.integers(1, window // 2), label="recent")
        params = KswinParams(window=window, recent=recent, seed=data.draw(st.integers(0, 2**64)))
        pairs = [(Kswin(params), DequeKswin(params))]
        # a few distinct values make ties between the two samples common
        values = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0))
        for op in data.draw(st.lists(st.sampled_from(["update"] * 8 + ["clone", "reset"]),
                                     max_size=3 * window), label="ops"):
            k = data.draw(st.integers(0, len(pairs) - 1), label="pair")
            monitor, frozen = pairs[k]
            if op == "clone":
                pairs.append((monitor.clone(), frozen.clone()))
            elif op == "reset":
                monitor.reset()
                frozen.reset()
            else:
                value = data.draw(values, label="value")
                assert monitor.update(value) == frozen.update(value)

    def test_ks_distance_against_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.normal(size=40)
            b = rng.normal(0.5, 1.3, size=25)
            assert math.isclose(ks_distance(a, b), scipy_stats.ks_2samp(a, b).statistic, rel_tol=1e-12)

    def test_ks_distance_rejects_empty(self):
        with pytest.raises(DetectorError, match="non-empty"):
            ks_distance([], [0.1])

    def test_param_validation(self):
        with pytest.raises(ConfigError, match="smaller than window"):
            KswinParams(window=30, recent=30)
        with pytest.raises(ConfigError, match="older remainder"):
            KswinParams(window=50, recent=30)
        with pytest.raises(ConfigError, match="alpha"):
            KswinParams(alpha=1.5)
        with pytest.raises(ConfigError, match="seed"):
            KswinParams(seed=-1)


class TestHddmA:
    def test_matches_oracle_on_step_sequence(self):
        values = [0.1] * 50 + [0.6] * 50
        got = run(HddmA(), values)
        want = hddm_a_oracle(values)
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want))
        assert math.isclose(got[-1], 1.3451989969010365, rel_tol=1e-12)

    def test_statistic_scaled_by_hoeffding_bound(self):
        values = [0.1] * 50 + [0.6] * 50
        final = run(HddmA(), values)[-1]
        assert final > 1.0  # the mean gap exceeds the two-sample bound

    def test_samples_per_update_matches_oracle(self):
        values = [0.1] * 20 + [0.5] * 5
        got = run(HddmA(HddmAParams(samples_per_update=200)), values)
        want = hddm_a_oracle(values, m=200)
        assert all(math.isclose(g, w, rel_tol=1e-12) for g, w in zip(got, want))

    def test_default_threshold(self):
        assert HddmA().threshold == 1.0


unit_values = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=80)
open_unit = st.floats(1e-9, 1.0, exclude_max=True)


class TestUpdatesNeeded:
    @pytest.mark.parametrize("params, needed", [
        (DdmParams(), 2), (DdmParams(min_samples=7), 7), (DdmParams(min_samples=1), 2),
        (PhParams(), 2), (KswinParams(), 100), (KswinParams(window=40, recent=10), 40),
        (HddmAParams(), 2), (HddmWParams(), 2)])
    def test_each_kind_declares_it(self, params, needed):
        assert params.updates_needed == needed
        assert "updates_needed" not in {f.name for f in dataclasses.fields(params)}

    @pytest.mark.parametrize("params, bound", [
        (DdmParams(), math.inf), (PhParams(), math.inf), (KswinParams(), 1.0),
        (HddmAParams(), math.inf), (HddmWParams(), math.inf)])
    def test_each_kind_declares_its_statistic_bound(self, params, bound):
        assert params.statistic_bound == bound
        assert "statistic_bound" not in {f.name for f in dataclasses.fields(params)}

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(0.0, 1.0), min_size=12, max_size=80))
    def test_the_kswin_statistic_stays_within_its_bound(self, values):
        params = KswinParams(window=12, recent=4)
        assert max(run(make_monitor("kswin", params), values)) <= params.statistic_bound

    @settings(max_examples=150, deadline=None)
    @given(params=st.sampled_from([DdmParams(min_samples=1), DdmParams(min_samples=5), PhParams(),
                                   KswinParams(window=12, recent=4), HddmAParams(samples_per_update=500),
                                   HddmWParams(ewma_weight=1.0)]),
           values=unit_values)
    def test_the_statistic_stays_zero_before_it(self, params, values):
        monitor = make_monitor(MONITOR_TYPES_BY_PARAMS[type(params)], params)
        head = values[:params.updates_needed - 1]
        assert run(monitor, head) == [0.0] * len(head)


MONITOR_TYPES_BY_PARAMS = {cls.Params: kind for kind, cls in MONITOR_TYPES.items()}


class TestHddmConstantsOncePerMonitor:
    @settings(max_examples=150, deadline=None)
    @given(values=unit_values, alpha=open_unit, m=st.integers(1, 5000),
           reset_at=st.integers(0, 80))
    def test_hddm_a_equals_the_per_update_oracle_bit_for_bit(self, values, alpha, m, reset_at):
        monitor = HddmA(HddmAParams(alpha=alpha, samples_per_update=m))
        assert run(monitor, values) == hddm_a_oracle(values, alpha=alpha, m=m)
        # a reset monitor and its clone replay like a fresh one
        monitor.reset()
        twin = monitor.clone()
        tail = values[reset_at:]
        assert run(monitor, tail) == run(twin, tail) == hddm_a_oracle(tail, alpha=alpha, m=m)

    @settings(max_examples=150, deadline=None)
    @given(values=unit_values, alpha=open_unit, m=st.integers(1, 5000),
           lam=st.floats(1e-6, 1.0), reset_at=st.integers(0, 80))
    def test_hddm_w_equals_the_per_update_oracle_bit_for_bit(self, values, alpha, m, lam, reset_at):
        monitor = HddmW(HddmWParams(ewma_weight=lam, alpha=alpha, samples_per_update=m))
        assert run(monitor, values) == hddm_w_oracle(values, lam=lam, alpha=alpha, m=m)
        monitor.reset()
        twin = monitor.clone()
        tail = values[reset_at:]
        assert run(monitor, tail) == run(twin, tail) == hddm_w_oracle(tail, lam, alpha, m)


class TestHddmW:
    def test_matches_oracle_and_frozen_value(self):
        values = [0.0] * 50 + [0.6] * 50
        got = run(HddmW(), values)
        want = hddm_w_oracle(values)
        assert got == want
        assert got[-1] == 2.124991308683453

    def test_bound_closed_form(self):
        eps = math.sqrt((0.05 / 1.95) * math.log(1.0 / 0.005) / 2.0)
        assert eps == 0.26062836707652304
        # one update: the EWMA equals its own minimum, statistic is zero
        det = HddmW()
        assert det.update(0.7) == 0.0

    def test_first_value_seeds_the_ewma(self):
        det = HddmW(HddmWParams(ewma_weight=0.5))
        det.update(0.4)
        det.update(0.8)
        # ewma = 0.5*0.4 + 0.5*0.8 = 0.6, min is 0.4
        eps = math.sqrt((0.5 / 1.5) * math.log(1.0 / 0.005) / 2.0)
        assert math.isclose(det.statistic, (0.6 - 0.4) / eps, rel_tol=1e-12)

    def test_param_validation(self):
        with pytest.raises(ConfigError, match="ewma_weight"):
            HddmWParams(ewma_weight=1.5)
        with pytest.raises(ConfigError, match="ewma_weight"):
            HddmWParams(ewma_weight=0.0)


# ---------------------------------------------------------- shared contract

DRIFT_INPUT = [0.1] * 60 + [0.8] * 40


@pytest.fixture(params=DETECTOR_KINDS)
def monitor(request):
    return make_monitor(request.param)


class TestMonitorContract:
    def test_kinds_registry(self):
        assert DETECTOR_KINDS == ("ddm", "ph", "kswin", "hddm_a", "hddm_w")
        for kind in DETECTOR_KINDS:
            assert make_monitor(kind).kind == kind

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan, math.inf, -math.inf])
    def test_update_rejects_out_of_range(self, monitor, bad):
        with pytest.raises(DetectorError, match="error rate"):
            monitor.update(bad)

    def test_update_accepts_bounds(self, monitor):
        monitor.update(0.0)
        monitor.update(1.0)

    @pytest.mark.parametrize("bad", ["0.5", b"0.5", "abc", True, False, np.True_, None, [0.5],
                                     pytest.param(10**400, id="int-beyond-float")])
    def test_update_rejects_what_is_not_a_real_number(self, monitor, bad):
        with pytest.raises(DetectorError, match="error rate"):
            monitor.update(bad)
        assert monitor.statistic == 0.0

    def test_update_takes_any_real_number_as_a_float(self, monitor):
        plain, other = monitor.fresh(), monitor.fresh()
        for good, value in ((np.float64(0.25), 0.25), (np.float32(0.5), 0.5),
                            (np.int64(1), 1.0), (0, 0.0), (Fraction(3, 4), 0.75)):
            assert other.update(good) == plain.update(value)

    def test_statistic_non_negative(self, monitor):
        rng = np.random.default_rng(1)
        for v in rng.uniform(0, 1, 200):
            assert monitor.update(float(v)) >= 0.0

    def test_alarm_is_strict_comparison(self, monitor):
        run(monitor, DRIFT_INPUT)
        s = monitor.statistic
        assert s > 0.0
        monitor.threshold = s
        assert not monitor.alarm
        monitor.threshold = s - 1e-12
        assert monitor.alarm
        monitor.threshold = math.nextafter(s, math.inf)
        assert not monitor.alarm

    def test_threshold_change_leaves_state_alone(self, monitor):
        plain = monitor.fresh()
        poked = monitor.fresh()
        stats_plain, stats_poked = [], []
        for i, v in enumerate(DRIFT_INPUT):
            stats_plain.append(plain.update(v))
            poked.threshold = float(i % 7)
            stats_poked.append(poked.update(v))
            poked.threshold = 1e9
        assert stats_plain == stats_poked

    def test_threshold_rejects_nan_allows_inf(self, monitor):
        with pytest.raises(DetectorError, match="NaN"):
            monitor.threshold = math.nan
        # params that slipped past their own checks still cannot install NaN
        params = dataclasses.replace(monitor.params)
        object.__setattr__(params, "threshold", math.nan)
        with pytest.raises(DetectorError, match="NaN"):
            type(monitor)(params)
        monitor.threshold = math.inf
        run(monitor, DRIFT_INPUT)
        assert not monitor.alarm
        monitor.threshold = -math.inf
        assert monitor.alarm

    @pytest.mark.parametrize("bad", ["1", "inf", True, False, np.True_, None, b"1"])
    def test_threshold_rejects_what_is_not_a_real_number(self, monitor, bad):
        monitor.threshold = 2.5
        with pytest.raises(DetectorError, match="threshold must be a number"):
            monitor.threshold = bad
        assert monitor.threshold == 2.5
        # numpy scalars and ints are real numbers and are taken as floats
        for good, want in ((np.float64(0.25), 0.25), (np.int64(3), 3.0), (2, 2.0)):
            monitor.threshold = good
            assert type(monitor.threshold) is float and monitor.threshold == want

    def test_reset_clears_state_keeps_threshold(self, monitor):
        monitor.threshold = 7.25
        run(monitor, DRIFT_INPUT)
        monitor.reset()
        assert monitor.statistic == 0.0
        assert monitor.threshold == 7.25
        # a reset detector replays like a fresh one
        fresh = monitor.fresh()
        fresh.threshold = 7.25
        assert run(monitor, DRIFT_INPUT) == run(fresh, DRIFT_INPUT)

    def test_clone_is_deep_and_in_sync(self, monitor):
        run(monitor, DRIFT_INPUT[:60])
        twin = monitor.clone()
        assert twin.statistic == monitor.statistic
        # the pair stays in lockstep on shared future input
        tail_a = run(monitor, DRIFT_INPUT[60:])
        tail_b = run(twin, DRIFT_INPUT[60:])
        assert tail_a == tail_b

    def test_clone_is_independent(self, monitor):
        run(monitor, DRIFT_INPUT[:60])
        twin = monitor.clone()
        before = twin.statistic
        run(monitor, DRIFT_INPUT[60:])
        assert twin.statistic == before

    def test_fresh_reuses_params(self, monitor):
        run(monitor, DRIFT_INPUT[:30])
        fresh = monitor.fresh()
        assert fresh.params is monitor.params
        assert fresh.statistic == 0.0
        assert type(fresh) is type(monitor)

    def test_update_returns_statistic(self, monitor):
        for v in DRIFT_INPUT[:10]:
            assert monitor.update(v) == monitor.statistic


# --------------------------------------------- contract on degenerate feeds

def make_feed(shape, length, seed, value):
    rng = np.random.default_rng(seed)
    if shape == "zeros":
        return [0.0] * length
    if shape == "constant":
        return [value] * length
    if shape == "binary":  # raw per-instance outcomes
        return rng.integers(0, 2, size=length).astype(float).tolist()
    if shape == "step":  # a quiet stretch, then a jump
        cut = length // 2
        return (rng.uniform(0.0, 0.2, size=cut).tolist()
                + rng.uniform(0.5, 1.0, size=length - cut).tolist())
    return rng.uniform(0.0, 1.0, size=length).tolist()


# all-zero error rates, constant input, raw 0/1 outcomes, a step and
# arbitrary rates; up to 250 long, which fills a default KSWIN window
FEEDS = st.builds(make_feed, st.sampled_from(["zeros", "constant", "binary", "step", "uniform"]),
                  st.integers(1, 250), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))

PARAM_VARIANTS = {
    "ddm": [DdmParams(), DdmParams(samples_per_update=1000)],
    "ph": [PhParams(), PhParams(delta=1e-9)],
    "kswin": [KswinParams(), KswinParams(window=10, recent=3)],
    "hddm_a": [HddmAParams(), HddmAParams(samples_per_update=1000)],
    "hddm_w": [HddmWParams(), HddmWParams(ewma_weight=1.0, samples_per_update=1000)],
}


def monitors():
    return st.sampled_from(DETECTOR_KINDS).flatmap(
        lambda kind: st.sampled_from(PARAM_VARIANTS[kind]).map(
            lambda params: make_monitor(kind, params)))


class TestMonitorContractProperties:
    @pytest.mark.parametrize("kind,params", [(kind, params) for kind in DETECTOR_KINDS
                                             for params in PARAM_VARIANTS[kind]])
    @settings(max_examples=50, deadline=None)
    @given(feed=FEEDS, v=st.floats(0.0, 1.0))
    def test_first_statistic_after_reset_or_fresh_is_zero(self, kind, params, feed, v):
        # a policy's monitor is new, fresh or just reset whenever its model
        # state is new, so the model's first score never alarms under a
        # non-negative threshold
        monitor = make_monitor(kind, params)
        assert monitor.update(v) == 0.0
        run(monitor, feed)
        fresh = monitor.fresh()
        monitor.reset()
        assert monitor.update(v) == 0.0
        assert fresh.update(v) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(monitor=monitors(), feed=FEEDS)
    def test_statistic_finite_and_non_negative(self, monitor, feed):
        for v in feed:
            stat = monitor.update(v)
            assert math.isfinite(stat) and stat >= 0.0
            assert stat == monitor.statistic

    @settings(max_examples=100, deadline=None)
    @given(monitor=monitors(), feed=FEEDS, share=st.floats(0.0, 1.0),
           threshold=st.one_of(st.floats(0.0, 100.0), st.just(math.inf)))
    def test_reset_keeps_threshold(self, monitor, feed, share, threshold):
        monitor.threshold = threshold
        run(monitor, feed[:int(share * len(feed))])
        monitor.reset()
        assert monitor.threshold == threshold
        assert monitor.statistic == 0.0
        fresh = monitor.fresh()
        fresh.threshold = threshold
        assert run(monitor, feed) == run(fresh, feed)

    @settings(max_examples=100, deadline=None)
    @given(monitor=monitors(), feed=FEEDS, share=st.floats(0.0, 1.0))
    def test_clone_is_independent(self, monitor, feed, share):
        cut = int(share * len(feed))
        head, tail = feed[:cut], feed[cut:]
        run(monitor, head)
        twin = monitor.clone()
        frozen = twin.statistic
        original_tail = run(monitor, tail)
        assert twin.statistic == frozen
        # the other way round: the clone's threshold and updates leave the
        # original alone, and the clone replays the original's tail exactly
        threshold, statistic = monitor.threshold, monitor.statistic
        twin.threshold = threshold + 1.0
        assert run(twin, tail) == original_tail
        assert (monitor.threshold, monitor.statistic) == (threshold, statistic)


class TestFactories:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown detector kind"):
            make_monitor("adwin")
        with pytest.raises(ConfigError, match="unknown detector kind"):
            params_from_dict("adwin", {})

    def test_params_type_mismatch(self):
        with pytest.raises(ConfigError, match="expects DdmParams"):
            make_monitor("ddm", PhParams())

    def test_params_from_dict_round_trip(self):
        params = params_from_dict("kswin", {"window": 60, "recent": 20, "seed": 4})
        assert isinstance(params, KswinParams)
        assert params.window == 60 and params.recent == 20 and params.seed == 4
        round_tripped = dataclasses.asdict(params)
        assert round_tripped["window"] == 60
        assert params_from_dict("kswin", round_tripped) == params

    def test_params_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown DdmParams keys.*warmup"):
            params_from_dict("ddm", {"warmup": 5})

    def test_defaults_when_mapping_empty(self):
        assert params_from_dict("ph", None) == PhParams()

    @pytest.mark.parametrize("kind,bad", [
        ("ddm", {"min_samples": 0}),
        ("ddm", {"samples_per_update": 0}),
        ("ph", {"delta": 0.0}),
        ("kswin", {"window": 0}),
        ("hddm_a", {"alpha": 0.0}),
        ("hddm_w", {"samples_per_update": -3}),
    ])
    def test_positivity_validation(self, kind, bad):
        with pytest.raises(ConfigError):
            params_from_dict(kind, bad)

    def test_one_table_of_kinds(self):
        assert DETECTOR_KINDS == tuple(MONITOR_TYPES)
        for kind, cls in MONITOR_TYPES.items():
            monitor = make_monitor(kind)
            assert cls.kind == kind and type(monitor) is cls
            assert monitor.params == cls.Params() == params_from_dict(kind)
            assert cls().params == cls.Params()

    @pytest.mark.parametrize("cls,bad", [
        (DdmParams, {"threshold": "abc"}),
        (DdmParams, {"threshold": None}),
        (DdmParams, {"threshold": "3"}),
        (DdmParams, {"threshold": True}),
        (DdmParams, {"min_samples": 2.5}),
        (DdmParams, {"samples_per_update": True}),
        (PhParams, {"delta": "0.005"}),
        (KswinParams, {"window": 100.5}),
        (KswinParams, {"seed": True}),
        (KswinParams, {"threshold": "0.3"}),
        (HddmAParams, {"alpha": None}),
        (HddmWParams, {"ewma_weight": [0.1]}),
        # NaN is a float, but no threshold or rate can be NaN
        (DdmParams, {"threshold": math.nan}),
        (PhParams, {"delta": math.nan}),
        (KswinParams, {"threshold": math.nan}),
        (HddmWParams, {"threshold": math.nan}),
        # an int no float can hold
        (DdmParams, {"threshold": 10**400}),
        (HddmAParams, {"alpha": -(10**400)}),
    ])
    def test_badly_typed_params_rejected(self, cls, bad):
        (name,) = bad
        with pytest.raises(ConfigError, match=f"{cls.__name__}.{name}"):
            cls(**bad)

    @pytest.mark.parametrize("cls,kw", [
        (DdmParams, {"threshold": 3}),
        (DdmParams, {"threshold": math.inf}),
        (PhParams, {"threshold": np.float64(0.2)}),
        (KswinParams, {"threshold": None}),
        (KswinParams, {"threshold": math.inf, "seed": 0}),
        (HddmAParams, {"threshold": 0}),
        (HddmWParams, {"samples_per_update": 1000}),
    ])
    def test_legal_param_types_accepted(self, cls, kw):
        params = cls(**kw)
        assert all(getattr(params, k) == v for k, v in kw.items() if v is not None)
        assert params.threshold is not None
