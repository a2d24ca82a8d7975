"""Dynamic threshold determination for streaming drift detectors.

A primary model and detector run normally until an alarm. The alarm spawns
three candidate hypotheses about what just happened:

* EDM assumes the drift actually began one chunk earlier, so it retrains on
  the previous chunk and carries a fresh detector whose threshold is the
  previous chunk's statistic (so the next drift is caught earlier). The
  previous chunk is the last normal-phase one: for an alarm right after a
  race, that is the chunk which opened that race, not the chunk before.
* RDM assumes the alarm timing was right: it retrains on the current chunk
  and keeps the old threshold.
* PM assumes the alarm was false: it keeps the old model and raises the
  threshold just above the alarming statistic.

The three race for ``race_len`` chunks, each with its own detector, and the
one with the best mean accuracy over the race (seed entry included) becomes
the new primary model and detector. The installed threshold is therefore one
of {previous statistic, unchanged, alarm statistic + eta}. A race chunk
reports the accuracy of the candidate that led on the chunk before (RDM on
the first); the race's place and leader are read from the candidates' logs.

A threshold policy is a step ``step(state, chunk) -> StepOutcome`` over one
:class:`DtdState`: :func:`baseline_step` keeps its threshold, :func:`dtd_step`
races. Both, and every race candidate, react to a chunk through :func:`respond`.
A step reads each fact of its monitor once, after scoring the chunk, and
reports those values: reacting resets a monitor but keeps its threshold, and
building candidates only clones the primary's.

Every evaluation passes the model the number of chunks after this one that
it scores unchanged, from one rule, :func:`_ahead`: none for a continual
model, which trains after every chunk. A sporadic race candidate scores its
race's chunks left, ``race_len`` less the length of its log (EDM's first score
also covers the alarm chunk), and a sporadic primary scores to the window's
end; but a model whose monitor threshold is negative, a primary or the RDM
candidate that keeps its threshold, scores its chunk alone: statistics are
never negative, so it adapts on each chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import IntEnum

from .classifier import GaussianNB, adapt, evaluate
from .detectors import DriftMonitor
from .errors import ConfigError, PhaseError, check_count, check_real
from .stream import Chunk

TRAINING_MODES = ("continual", "sporadic")


class CandidateKind(IntEnum):
    EDM = 0
    RDM = 1
    PM = 2


# leader/winner ties resolve RDM first, then PM, then EDM: max keeps the first
_TIE_ORDER = (CandidateKind.RDM, CandidateKind.PM, CandidateKind.EDM)


def _best(scores: list[float]) -> CandidateKind:
    return max(_TIE_ORDER, key=scores.__getitem__)


def check_policy(race_len: int, eta: float, training_mode: str) -> None:
    """Raise ConfigError unless the race length, threshold bump and training
    mode are valid; every policy state and experiment config checks here."""
    check_count("race_len", race_len, minimum=1)
    check_real("eta", eta)
    # PM would set the primary's threshold to infinity, and it would never alarm again
    if not 0.0 < eta < math.inf:
        raise ConfigError(f"eta must be positive and finite, got {eta!r}")
    if training_mode not in TRAINING_MODES:
        raise ConfigError(f"training_mode must be one of {TRAINING_MODES}, got {training_mode!r}")


@dataclass(slots=True)
class Candidate:
    """One race hypothesis; a race holds three, in ``CandidateKind`` order."""

    model: GaussianNB
    detector: DriftMonitor
    accuracy_log: list[float]


@dataclass(slots=True)
class StepOutcome:
    """What one chunk contributed to the run trace."""

    accuracy: float
    statistic: float
    threshold: float
    alarm: bool
    phase: str
    winner: CandidateKind | None = None


@dataclass
class DtdState:
    """One run's policy state; the baseline uses only the primary pair and mode."""

    primary_model: GaussianNB
    primary_detector: DriftMonitor
    race_len: int = 3
    eta: float = 1e-6
    training_mode: str = "continual"
    candidates: list[Candidate] | None = field(default=None, init=False)
    prev_statistic: float = field(default=0.0, init=False)  # of the last normal-phase chunk
    prev_chunk: Chunk | None = field(default=None, init=False)

    def __post_init__(self):
        check_policy(self.race_len, self.eta, self.training_mode)

    @property
    def continual(self) -> bool:
        return self.training_mode == "continual"

    @property
    def in_comparison(self) -> bool:
        return self.candidates is not None


def _ahead(state: DtdState, candidate: Candidate | None = None) -> int | None:
    """The chunks after the next one that the primary, or ``candidate``,
    scores unchanged; None: to the window's end."""
    detector = state.primary_detector if candidate is None else candidate.detector
    if state.continual or detector.threshold < 0:
        return 0
    return None if candidate is None else state.race_len - len(candidate.accuracy_log)


def respond(model: GaussianNB, chunk: Chunk, detector: DriftMonitor,
            continual: bool) -> GaussianNB:
    """React to an evaluated chunk: if the detector alarms, reset it and return
    a model adapted to the chunk, else train in place in continual mode."""
    if detector.alarm:
        detector.reset()
        return adapt(model, chunk)
    if continual:
        model.train(chunk)
    return model


def create_candidates(state: DtdState, chunk: Chunk, accuracy: float) -> list[Candidate]:
    """Build the three candidates for an alarm on ``chunk`` that the primary
    model scored ``accuracy`` on, then move each through :func:`respond`.

    EDM, a fresh model of the primary's type trained on ``state.prev_chunk``
    only, scores ``chunk`` first. RDM's monitor is a clone of the alarming
    one, so it resets and adapts; PM's is fresh, so it trains only in
    continual mode. The primary monitor is only cloned, never touched, so
    it stays silent for the whole comparison phase.
    """
    if state.prev_chunk is None:
        raise PhaseError("cannot build candidates without a previous chunk")
    model, detector = state.primary_model, state.primary_detector
    if not detector.alarm:
        raise PhaseError("cannot build candidates without a primary alarm")

    edm = Candidate(adapt(model, state.prev_chunk), detector.fresh(), [])
    edm.detector.threshold = state.prev_statistic
    edm.accuracy_log.append(evaluate(edm.model, chunk, edm.detector, _ahead(state, edm)))
    pm = Candidate(model.copy(), detector.fresh(), [accuracy])
    pm.detector.threshold = detector.statistic + state.eta
    candidates = [edm, Candidate(model, detector.clone(), [accuracy]), pm]
    for candidate in candidates:
        candidate.model = respond(candidate.model, chunk, candidate.detector, state.continual)
    return candidates


def eval_candidates(state: DtdState, chunk: Chunk) -> list[float]:
    """One comparison chunk: each candidate, in EDM, RDM, PM order, scores
    it, logs the accuracy and reacts through :func:`respond`. A sporadic
    candidate scores the race's later chunks in the same kernel call."""
    if state.candidates is None:
        raise PhaseError("no comparison phase is active")
    continual, accuracies = state.continual, []
    for c in state.candidates:
        accuracy = evaluate(c.model, chunk, c.detector, _ahead(state, c))
        c.accuracy_log.append(accuracy)
        c.model = respond(c.model, chunk, c.detector, continual)
        accuracies.append(accuracy)
    return accuracies


def _mean(log: list[float]) -> float:
    # summed left to right: from Python 3.12 on, sum() compensates the
    # rounding of exact floats, which would make the winner depend on the interpreter
    total = 0.0
    for accuracy in log:
        total += accuracy
    return total / len(log)


def finalize_comparison(candidates: list[Candidate] | None) -> CandidateKind:
    """Pick the race winner by mean logged accuracy (seed entry included)."""
    if candidates is None or not all(c.accuracy_log for c in candidates):
        raise PhaseError("finalize called without complete candidate logs")
    return _best([_mean(c.accuracy_log) for c in candidates])


def baseline_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Fixed threshold: an alarm adapts on the chunk and resets the monitor."""
    detector = state.primary_detector
    accuracy = evaluate(state.primary_model, chunk, detector, _ahead(state))
    # a reset keeps the threshold, so respond leaves all three facts as read
    statistic, threshold, alarm = detector.statistic, detector.threshold, detector.alarm
    state.primary_model = respond(state.primary_model, chunk, detector, state.continual)
    return StepOutcome(accuracy, statistic, threshold, alarm, "normal")


def dtd_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Process one chunk; returns the reported accuracy and trace fields."""
    candidates = state.candidates
    if candidates is not None:
        first = candidates[0].accuracy_log  # the three logs grow together
        leader = (CandidateKind.RDM if len(first) == 1
                  else _best([c.accuracy_log[-1] for c in candidates]))
        reported = eval_candidates(state, chunk)[leader]
        winner = None
        if len(first) > state.race_len:
            winner = finalize_comparison(candidates)
            chosen = candidates[winner]
            state.primary_model, state.primary_detector = chosen.model, chosen.detector
            state.candidates = None
        detector = state.primary_detector
        return StepOutcome(reported, detector.statistic, detector.threshold, False,
                           "comparison", winner)

    detector = state.primary_detector
    accuracy = evaluate(state.primary_model, chunk, detector, _ahead(state))
    # building candidates only clones the primary monitor, and a reset keeps
    # the threshold, so all three facts hold as read
    statistic, threshold, alarm = detector.statistic, detector.threshold, detector.alarm
    if alarm and state.prev_chunk is not None:
        # the primary model is not trained: the race winner replaces it
        state.candidates = create_candidates(state, chunk, accuracy)
    else:
        # quiet, or an alarm before any history, where no race is possible
        state.primary_model = respond(state.primary_model, chunk, detector, state.continual)
    state.prev_statistic = statistic
    state.prev_chunk = chunk
    return StepOutcome(accuracy, statistic, threshold, alarm, "normal")
