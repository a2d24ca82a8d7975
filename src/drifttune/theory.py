"""Closed-form accuracy models and the experiments that check them.

Two families of results are validated here. First, piecewise accuracy
formulas for a stream that drifts once: a perfect detector pays one
mismatched chunk plus an adaptation dip, a delayed detector pays the
mismatch for longer, and a detector that fires on a single foreign chunk
can lose to one that misses it entirely. Second, a composition argument:
on a segmented stream, picking the best threshold per segment can never
do worse than the best single constant threshold, provided segment
accuracies compose independently.

Every stream check runs threshold schedules through one
:func:`~drifttune.harness.run_policies` pass (:func:`policy_traces`),
oracles included: a -inf threshold adapts on every chunk it covers, since
monitor statistics are non-negative, and +inf never does.

Accuracies everywhere in this module are fractions in [0, 1].
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from functools import partial

import numpy as np

from .classifier import GaussianNB
from .dtd import DtdState, StepOutcome, baseline_step
from .errors import ConfigError, check_count, check_real
from .harness import ExperimentConfig, RunTrace, detector_for_run, run_policies
from .stream import Chunk, Stream, StreamConfig, make_stream

FLOAT_SLACK = 1e-12


def _check_unit(name: str, value: float) -> None:
    check_real(name, value)
    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


@dataclass(frozen=True)
class SuddenDriftParams:
    """One sudden drift: T chunks total, drift after chunk t_d.

    A perfect detector mismatches for exactly one chunk, then relearns for
    t_incre chunks at accuracy A_incre. A delayed detector mismatches for
    t_w chunks, then relearns for t_incre_prime chunks at A_incre_prime.
    The optional gradual phase (t_g chunks at A_g) sits between the old
    concept and the mismatch for both detectors; at t_g = 0 it vanishes.
    """

    T: int
    t_d: int
    t_w: int
    t_incre: int
    t_incre_prime: int
    A_C1: float
    A_dismatch: float
    A_incre: float
    A_incre_prime: float
    A_stable: float
    t_g: int = 0
    A_g: float = 0.0

    def __post_init__(self):
        check_count("T", self.T, minimum=1)
        check_count("t_d", self.t_d)
        # zero wait would mean the drift was detected before it happened
        check_count("t_w", self.t_w, minimum=1)
        check_count("t_incre", self.t_incre)
        check_count("t_incre_prime", self.t_incre_prime)
        check_count("t_g", self.t_g)
        for name in ("A_C1", "A_dismatch", "A_incre", "A_incre_prime", "A_stable", "A_g"):
            _check_unit(name, getattr(self, name))
        if self.t_d + self.t_g + 1 + self.t_incre > self.T:
            raise ConfigError("perfect-detection phases exceed the stream: t_d + t_g + 1 + t_incre must be <= T")
        if self.t_d + self.t_g + self.t_w + self.t_incre_prime > self.T:
            raise ConfigError("delayed-detection phases exceed the stream: t_d + t_g + t_w + t_incre_prime must be <= T")


def analytic_sudden(p: SuddenDriftParams) -> tuple[float, float]:
    """Mean accuracies (A_P, A_D) for perfect and delayed detection."""
    gradual = p.t_g * p.A_g
    perfect = (p.t_d * p.A_C1 + gradual + p.A_dismatch + p.t_incre * p.A_incre
               + (p.T - p.t_d - p.t_g - 1 - p.t_incre) * p.A_stable) / p.T
    delayed = (p.t_d * p.A_C1 + gradual + p.t_w * p.A_dismatch
               + p.t_incre_prime * p.A_incre_prime
               + (p.T - p.t_d - p.t_g - p.t_w - p.t_incre_prime) * p.A_stable) / p.T
    return perfect, delayed


def sudden_gap(p: SuddenDriftParams) -> float:
    """Closed-form A_D - A_P; positive means the delay helped.

    Written independently of :func:`analytic_sudden` so the two can be
    checked against each other.
    """
    return ((p.t_w - 1) * p.A_dismatch
            + (p.t_incre_prime * p.A_incre_prime - p.t_incre * p.A_incre)
            + (1 + p.t_incre - p.t_w - p.t_incre_prime) * p.A_stable) / p.T


@dataclass(frozen=True)
class RecurrentDriftParams:
    """One foreign chunk inside an otherwise stationary stream.

    Perfect detection adapts to the foreign chunk, mismatches on the
    return chunk (A_mismatch2), and relearns for t_incre1 chunks; missing
    the drift entirely costs only the one mismatched foreign chunk.
    """

    T: int
    t_d: int
    t_incre1: int
    A_C1: float
    A_dismatch: float
    A_mismatch2: float
    A_incre1: float
    A_stable1: float

    def __post_init__(self):
        check_count("T", self.T, minimum=1)
        check_count("t_d", self.t_d)
        check_count("t_incre1", self.t_incre1)
        for name in ("A_C1", "A_dismatch", "A_mismatch2", "A_incre1", "A_stable1"):
            _check_unit(name, getattr(self, name))
        if self.t_d + 2 + self.t_incre1 > self.T:
            raise ConfigError("phases exceed the stream: t_d + 2 + t_incre1 must be <= T")


def analytic_recurrent(p: RecurrentDriftParams) -> tuple[float, float]:
    """Mean accuracies (A_P, A_M) for perfect and missed detection."""
    perfect = (p.t_d * p.A_C1 + p.A_dismatch + p.A_mismatch2 + p.t_incre1 * p.A_incre1
               + (p.T - p.t_d - 2 - p.t_incre1) * p.A_stable1) / p.T
    missed = (p.t_d * p.A_C1 + p.A_dismatch + (p.T - p.t_d - 1) * p.A_stable1) / p.T
    return perfect, missed


def random_sudden_params(rng: np.random.Generator) -> SuddenDriftParams:
    """Uniform draw with T in [2, 200] that satisfies the phase invariants."""
    T = int(rng.integers(2, 201))
    t_d = int(rng.integers(0, T))
    t_incre = int(rng.integers(0, T - t_d))
    t_w = int(rng.integers(1, T - t_d + 1))
    t_incre_prime = int(rng.integers(0, T - t_d - t_w + 1))
    a = rng.uniform(0.0, 1.0, size=5)
    return SuddenDriftParams(T=T, t_d=t_d, t_w=t_w, t_incre=t_incre,
                             t_incre_prime=t_incre_prime,
                             A_C1=float(a[0]), A_dismatch=float(a[1]),
                             A_incre=float(a[2]), A_incre_prime=float(a[3]),
                             A_stable=float(a[4]))


def check_sudden_identity() -> dict:
    """Cross-check A_D - A_P against :func:`sudden_gap` on 10,000 random draws.

    Also counts violations of the sufficiency direction: whenever the gap
    is positive, the delayed average must be strictly larger.
    """
    n_draws = 10_000
    rng = np.random.Generator(np.random.PCG64(7))
    max_residual = 0.0
    violations = 0
    for _ in range(n_draws):
        p = random_sudden_params(rng)
        perfect, delayed = analytic_sudden(p)
        gap = sudden_gap(p)
        max_residual = max(max_residual, abs((delayed - perfect) - gap))
        if gap > 0.0 and not delayed > perfect:
            violations += 1
    return {
        "n_draws": n_draws,
        "max_abs_residual": max_residual,
        "sufficiency_violations": violations,
        "pass": max_residual <= FLOAT_SLACK and violations == 0,
    }


@dataclass(frozen=True)
class ThresholdStrategy:
    """Piecewise-constant threshold schedule over chunk indices.

    ``segments`` holds (start_chunk, threshold) pairs; each threshold
    applies from its start up to the next start. The first start must be
    0 so the schedule covers the stream from the beginning.
    """

    segments: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if not self.segments:
            raise ConfigError("threshold strategy needs at least one segment")
        for segment in self.segments:
            if not isinstance(segment, (tuple, list)) or len(segment) != 2:
                raise ConfigError(f"each segment must be a (start, threshold) pair, got {segment!r}")
        starts = [s for s, _ in self.segments]
        if starts[0] != 0:
            raise ConfigError(f"threshold strategy leaves a gap: first segment starts at {starts[0]}, not 0")
        if any(not isinstance(s, int) or isinstance(s, bool) for s in starts):
            raise ConfigError("segment starts must be integers")
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ConfigError("segment starts must be strictly increasing")
        for _, theta in self.segments:
            check_real("segment thresholds", theta)

    @classmethod
    def constant(cls, theta: float) -> "ThresholdStrategy":
        return cls(segments=((0, float(theta)),))

    def validate_for(self, n_chunks: int) -> None:
        last_start = self.segments[-1][0]
        if last_start >= n_chunks:
            raise ConfigError(f"segment starting at {last_start} lies beyond the stream of {n_chunks} chunks")

    def threshold_at(self, chunk_index: int) -> float:
        theta = self.segments[0][1]
        for start, value in self.segments:
            if start > chunk_index:
                break
            theta = value
        return theta


def _scheduled_step(strategy: ThresholdStrategy, state: DtdState, chunk: Chunk) -> StepOutcome:
    state.primary_detector.threshold = strategy.threshold_at(chunk.index)
    return baseline_step(state, chunk)


def policy_traces(stream: Stream, strategies, detector: str = "ddm",
                  mode: str = "continual", overrides: dict | None = None) -> list[RunTrace]:
    """Baseline prequential runs, one per strategy, with the threshold looked
    up per segment; all of them share one pass over the stream."""
    config = ExperimentConfig(name="policy", stream=stream.config, detector=detector,
                              detector_overrides=dict(overrides or {}), mode=mode)
    policies = []
    for strategy in strategies:
        strategy.validate_for(len(stream))
        monitor = detector_for_run(config, stream.config.seed)
        monitor.threshold = strategy.threshold_at(0)
        policies.append((partial(_scheduled_step, strategy),
                         DtdState(GaussianNB(), monitor, training_mode=mode)))
    return run_policies(stream, policies)


def policy_trace(stream: Stream, strategy: ThresholdStrategy, detector: str = "ddm",
                 mode: str = "continual", overrides: dict | None = None) -> RunTrace:
    """:func:`policy_traces` for one strategy."""
    return policy_traces(stream, [strategy], detector, mode, overrides)[0]


def _segment_spans(boundaries: tuple[int, ...], n_chunks: int) -> list[tuple[int, int]]:
    starts = list(boundaries)
    return [(s, e) for s, e in zip(starts, starts[1:] + [n_chunks])]


def _segment_accuracy(trace: RunTrace, start: int, end: int) -> float:
    values = [a for i, a, p in zip(trace.chunk_index, trace.accuracy, trace.phase)
              if start <= i < end and p != "warmup"]
    if not values:
        raise ConfigError(f"segment [{start}, {end}) contains no evaluated chunks")
    return statistics.fmean(values)


def validate_theorem3(stream: Stream, theta_grid, boundaries) -> dict:
    """Best constant threshold versus the composed per-segment winners, on
    continual DDM runs.

    The whole grid runs as constant schedules in one pass; each segment
    picks its winner by segment-restricted accuracy from those runs, and
    the composed schedule is replayed. Because the model carries state
    across segments during the replay, the margin is reported here but
    only the separable analytic mode asserts on it.
    """
    theta_grid = list(theta_grid)
    if not theta_grid:
        raise ConfigError("threshold grid must be non-empty")
    for k, theta in enumerate(theta_grid):
        check_real(f"theta_grid[{k}]", theta)
    theta_grid = [float(t) for t in theta_grid]
    boundaries = tuple(boundaries)
    # reuse the schedule validation for the segment starts
    ThresholdStrategy(segments=tuple((b, 0.0) for b in boundaries)).validate_for(len(stream))
    spans = _segment_spans(boundaries, len(stream))

    traces = policy_traces(stream, [ThresholdStrategy.constant(t) for t in theta_grid])
    constant_acc = {theta: trace.mean_accuracy for theta, trace in zip(theta_grid, traces)}
    segment_acc = {theta: [_segment_accuracy(trace, s, e) for s, e in spans]
                   for theta, trace in zip(theta_grid, traces)}

    # max keeps the first of equal scores, so ties go to the earlier grid entry
    best_theta = max(theta_grid, key=constant_acc.__getitem__)
    winners = [max(theta_grid, key=lambda theta: segment_acc[theta][k]) for k in range(len(spans))]

    dynamic = ThresholdStrategy(segments=tuple(zip(boundaries, winners)))
    dynamic_acc = policy_trace(stream, dynamic).mean_accuracy
    return {
        "best_constant": {"theta": best_theta, "accuracy": constant_acc[best_theta]},
        "dynamic": {"thetas": winners, "accuracy": dynamic_acc},
        "margin": dynamic_acc - constant_acc[best_theta],
        "per_segment": [
            {"start": s, "end": e, "theta": winners[k],
             "accuracy": segment_acc[winners[k]][k]}
            for k, (s, e) in enumerate(spans)
        ],
        "asserted": False,
    }


def validate_theorem3_analytic(n_configs: int = 100, seed: int = 11) -> dict:
    """Separable mode: random per-segment accuracy tables, exact composition.

    With no cross-segment coupling, the composed schedule's accuracy is
    the length-weighted sum of per-segment optima, so it can never fall
    below any constant threshold's accuracy. The margin is asserted to
    survive float rounding.
    """
    if n_configs < 1:
        raise ConfigError("n_configs must be positive")
    rng = np.random.Generator(np.random.PCG64(seed))
    min_margin = math.inf
    max_margin = -math.inf
    for _ in range(n_configs):
        n_segments = int(rng.integers(2, 9))
        lengths = rng.integers(5, 51, size=n_segments).astype(np.float64)
        n_thetas = int(rng.integers(1, 13))
        table = rng.uniform(0.0, 1.0, size=(n_segments, n_thetas))
        total = float(lengths.sum())
        constant = [float((lengths * table[:, j]).sum()) / total for j in range(n_thetas)]
        dynamic = float((lengths * table.max(axis=1)).sum()) / total
        margin = dynamic - max(constant)
        min_margin = min(min_margin, margin)
        max_margin = max(max_margin, margin)
    return {
        "n_configs": n_configs,
        "min_margin": min_margin,
        "max_margin": max_margin,
        "pass": min_margin >= -FLOAT_SLACK,
    }


class _FlippedStream(Stream):
    """The stream with chunk ``flip_index`` served with labels reversed.

    The labels are reversed in the window's label block, so the chunk's
    labels stay a view of the block a window score counts against."""

    def __init__(self, config: StreamConfig, flip_index: int):
        super().__init__(config)
        self.flip_index = flip_index

    def _block(self, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        X, y, starts = super()._block(first, stop)
        if first <= self.flip_index < stop:
            rows = slice(starts[self.flip_index - first], starts[self.flip_index - first + 1])
            y = y.copy()
            y[rows] = 1 - y[rows]
        return X, y, starts


def simulate_recurrent_drift(t_eval: int = 100, t_d: int = 50, t_incre1: int = 10,
                             chunk_size: int = 500, seed: int = 0) -> dict:
    """One label-reversed chunk inside a stationary stream, two policies.

    Both policies are sporadic schedules: the perfect one adapts (-inf) at
    the foreign chunk and again at the return chunk, the missed one (+inf)
    never adapts. Phase accuracies measured from the traces feed
    :func:`analytic_recurrent`, so the closed forms can be compared against
    the simulated averages they claim to describe.
    """
    if t_d < 1 or t_d + 2 + t_incre1 > t_eval:
        raise ConfigError("phases exceed the stream: need 1 <= t_d and t_d + 2 + t_incre1 <= t_eval")
    config = StreamConfig(kind="sea", seed=seed, n_chunks=t_eval + 1,
                          chunk_size=chunk_size, drift_period=t_eval + 1)
    flip_index = t_d + 1
    oracles = [ThresholdStrategy(((0, math.inf), (flip_index, -math.inf), (flip_index + 2, math.inf))),
               ThresholdStrategy.constant(math.inf)]
    perfect, missed = (trace.accuracy[1:] for trace in
                       policy_traces(_FlippedStream(config, flip_index), oracles, mode="sporadic"))

    # accuracies[k] scores chunk k + 1, so the foreign chunk sits at t_d
    stable_tail = perfect[t_d + 2 + t_incre1:]
    params = RecurrentDriftParams(
        T=t_eval,
        t_d=t_d,
        t_incre1=t_incre1,
        A_C1=statistics.fmean(perfect[:t_d]),
        A_dismatch=perfect[t_d],
        A_mismatch2=perfect[t_d + 1],
        A_incre1=statistics.fmean(perfect[t_d + 2:t_d + 2 + t_incre1]) if t_incre1 else 0.0,
        A_stable1=statistics.fmean(stable_tail) if stable_tail else perfect[t_d + 1 + t_incre1],
    )
    analytic_perfect, analytic_missed = analytic_recurrent(params)
    return {
        "params": dataclasses.asdict(params),
        "sim": {"A_P": statistics.fmean(perfect), "A_M": statistics.fmean(missed)},
        "analytic": {"A_P": analytic_perfect, "A_M": analytic_missed},
    }


RECURRENT_EXAMPLE = RecurrentDriftParams(T=100, t_d=50, t_incre1=10, A_C1=0.9,
                                         A_dismatch=0.5, A_mismatch2=0.5,
                                         A_incre1=0.6, A_stable1=0.9)

SUDDEN_EXAMPLE = SuddenDriftParams(T=100, t_d=40, t_w=3, t_incre=20, t_incre_prime=5,
                                   A_C1=0.9, A_dismatch=0.5, A_incre=0.6,
                                   A_incre_prime=0.8, A_stable=0.9)

SIM_TOLERANCE = 0.005


def validate_theorem1() -> dict:
    """Missed detection can beat perfect detection: closed form and stream.

    The fixed example must order A_M above A_P; the stream simulation must
    agree with the closed forms evaluated at its own measured phase
    accuracies to within half a percentage point, on both policies.
    """
    analytic_perfect, analytic_missed = analytic_recurrent(RECURRENT_EXAMPLE)
    sim = simulate_recurrent_drift()
    err_perfect = abs(sim["sim"]["A_P"] - sim["analytic"]["A_P"])
    err_missed = abs(sim["sim"]["A_M"] - sim["analytic"]["A_M"])
    example_ok = analytic_missed > analytic_perfect
    sim_ordering_ok = (sim["sim"]["A_M"] > sim["sim"]["A_P"]
                       and sim["analytic"]["A_M"] > sim["analytic"]["A_P"])
    return {
        "analytic_example": {"A_P": analytic_perfect, "A_M": analytic_missed,
                             "ordering_ok": example_ok},
        "simulation": {**sim, "abs_err_P": err_perfect, "abs_err_M": err_missed,
                       "ordering_ok": sim_ordering_ok},
        "tolerance": SIM_TOLERANCE,
        "pass": (example_ok and sim_ordering_ok
                 and err_perfect <= SIM_TOLERANCE and err_missed <= SIM_TOLERANCE),
    }


def validate_theory() -> dict:
    """Full report for every check; stream-mode margin is informational."""
    theorem1 = validate_theorem1()
    identity = check_sudden_identity()
    analytic3 = validate_theorem3_analytic()
    stream = make_stream(StreamConfig(kind="sea", n_chunks=50, chunk_size=500, drift_period=25))
    stream3 = validate_theorem3(stream, theta_grid=(1.0, 2.0, 3.0, 4.0, 6.0), boundaries=(0, 25))
    return {
        "theorem1": theorem1,
        "sudden_identity": identity,
        "theorem3_analytic": analytic3,
        "theorem3_stream": stream3,
        "pass": bool(theorem1["pass"] and identity["pass"] and analytic3["pass"]),
    }
