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
of {previous statistic, unchanged, alarm statistic + eta}.

A threshold policy is a step ``step(state, chunk) -> StepOutcome`` over one
:class:`DtdState`: :func:`baseline_step` keeps its threshold, :func:`dtd_step`
races. Both, and every race candidate, react to a chunk through :func:`respond`.
"""

from __future__ import annotations

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
    if not eta > 0.0:
        raise ConfigError("eta must be positive")
    if training_mode not in TRAINING_MODES:
        raise ConfigError(f"training_mode must be one of {TRAINING_MODES}, got {training_mode!r}")


@dataclass
class Candidate:
    """One race hypothesis; a race holds three, in ``CandidateKind`` order."""

    model: GaussianNB
    detector: DriftMonitor
    accuracy_log: list[float]


@dataclass
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
    countdown: int = field(default=0, init=False)
    leader: CandidateKind = field(default=CandidateKind.RDM, init=False)  # leads when a race opens
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
    model scored ``accuracy`` on; PM's threshold starts just above the
    primary detector's alarming statistic.

    EDM starts as a fresh model of the primary's type trained only on
    ``state.prev_chunk``; ``adapt`` reads nothing of the model but its type.
    The primary detector is only cloned, never touched, so it stays silent
    for the whole comparison phase.
    """
    if state.prev_chunk is None:
        raise PhaseError("cannot build candidates without a previous chunk")
    model, detector = state.primary_model, state.primary_detector

    rdm = Candidate(adapt(model, chunk), detector.clone(), [accuracy])
    rdm.detector.reset()

    edm = Candidate(adapt(model, state.prev_chunk), detector.fresh(), [])
    edm.detector.threshold = state.prev_statistic
    edm.accuracy_log.append(evaluate(edm.model, chunk, edm.detector))
    # the earlier hypothesis may alarm on the current chunk too: then re-adapt
    edm.model = respond(edm.model, chunk, edm.detector, state.continual)

    pm = Candidate(model.copy(), detector.fresh(), [accuracy])
    pm.detector.threshold = detector.statistic + state.eta
    if state.continual:
        pm.model.train(chunk)
    return [edm, rdm, pm]


def eval_candidates(candidates: list[Candidate] | None, chunk: Chunk, *,
                    continual: bool) -> list[float]:
    """One comparison chunk: evaluate every candidate, then log and update
    each, in EDM, RDM, PM order."""
    if candidates is None:
        raise PhaseError("no comparison phase is active")
    accuracies = [evaluate(c.model, chunk, c.detector) for c in candidates]
    for candidate, accuracy in zip(candidates, accuracies):
        candidate.accuracy_log.append(accuracy)
        candidate.model = respond(candidate.model, chunk, candidate.detector, continual)
    return accuracies


def finalize_comparison(candidates: list[Candidate] | None) -> CandidateKind:
    """Pick the race winner by mean logged accuracy (seed entry included)."""
    if candidates is None or not all(c.accuracy_log for c in candidates):
        raise PhaseError("finalize called without complete candidate logs")
    return _best([sum(c.accuracy_log) / len(c.accuracy_log) for c in candidates])


def baseline_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Fixed threshold: an alarm adapts on the chunk and resets the monitor."""
    accuracy = evaluate(state.primary_model, chunk, state.primary_detector)
    statistic, alarm = state.primary_detector.statistic, state.primary_detector.alarm
    state.primary_model = respond(state.primary_model, chunk, state.primary_detector,
                                  state.continual)
    return StepOutcome(accuracy=accuracy, statistic=statistic,
                       threshold=state.primary_detector.threshold, alarm=alarm, phase="normal")


def dtd_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Process one chunk; returns the reported accuracy and trace fields."""
    if state.in_comparison:
        accuracies = eval_candidates(state.candidates, chunk, continual=state.continual)
        state.countdown -= 1
        reported = accuracies[state.leader]
        state.leader = _best(accuracies)
        winner = None
        if state.countdown == 0:
            winner = finalize_comparison(state.candidates)
            chosen = state.candidates[winner]
            state.primary_model, state.primary_detector = chosen.model, chosen.detector
            state.candidates = None
            state.leader = CandidateKind.RDM
        return StepOutcome(accuracy=reported, statistic=state.primary_detector.statistic,
                           threshold=state.primary_detector.threshold, alarm=False,
                           phase="comparison", winner=winner)

    accuracy = evaluate(state.primary_model, chunk, state.primary_detector)
    statistic, alarm = state.primary_detector.statistic, state.primary_detector.alarm
    if alarm and state.prev_chunk is not None:
        # the primary model is not trained: the race winner replaces it
        state.candidates = create_candidates(state, chunk, accuracy)
        state.countdown = state.race_len
    else:
        # quiet, or an alarm before any history, where no race is possible
        state.primary_model = respond(state.primary_model, chunk, state.primary_detector,
                                      state.continual)
    state.prev_statistic = statistic
    state.prev_chunk = chunk
    return StepOutcome(accuracy=accuracy, statistic=statistic,
                       threshold=state.primary_detector.threshold, alarm=alarm, phase="normal")
