"""Dynamic threshold determination for streaming drift detectors.

A primary model and detector run normally until an alarm. The alarm spawns
three candidate hypotheses about what just happened:

* EDM assumes the drift actually began one chunk earlier, so it retrains on
  the previous chunk and carries a fresh detector whose threshold is the
  previous chunk's statistic (so the next drift is caught earlier).
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

from dataclasses import dataclass
from enum import IntEnum

from .classifier import GaussianNB, adapt, evaluate, evaluate_all
from .detectors import DriftMonitor
from .errors import ConfigError, PhaseError, check_count, check_real
from .stream import Chunk

TRAINING_MODES = ("continual", "sporadic")


class CandidateKind(IntEnum):
    EDM = 0
    RDM = 1
    PM = 2


# leader/winner ties resolve RDM first, then PM, then EDM
_TIE_RANK = {CandidateKind.RDM: 0, CandidateKind.PM: 1, CandidateKind.EDM: 2}


def _best(scores: dict[CandidateKind, float]) -> CandidateKind:
    return max(scores, key=lambda kind: (scores[kind], -_TIE_RANK[kind]))


@dataclass
class CandidateSet:
    models: dict[CandidateKind, GaussianNB]
    detectors: dict[CandidateKind, DriftMonitor]
    accuracy_logs: dict[CandidateKind, list[float]]


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
    countdown: int = 0
    leader: CandidateKind = CandidateKind.RDM  # RDM leads whenever a race opens
    candidates: CandidateSet | None = None
    prev_statistic: float = 0.0
    prev_chunk: Chunk | None = None

    def __post_init__(self):
        check_count("race_len", self.race_len, minimum=1)
        check_real("eta", self.eta)
        if self.eta <= 0.0:
            raise ConfigError("eta must be positive")
        if self.training_mode not in TRAINING_MODES:
            raise ConfigError(f"training_mode must be one of {TRAINING_MODES}")

    @property
    def continual(self) -> bool:
        return self.training_mode == "continual"

    @property
    def in_comparison(self) -> bool:
        return self.candidates is not None


def respond(model: GaussianNB, chunk: Chunk, detector: DriftMonitor, alarmed: bool,
            continual: bool) -> GaussianNB:
    """React to an evaluated chunk: on an alarm reset the monitor and return a
    model adapted to the chunk, else train in place in continual mode."""
    if alarmed:
        detector.reset()
        return adapt(model, chunk)
    if continual:
        model.train(chunk)
    return model


def create_candidates(model: GaussianNB, chunk_curr: Chunk, chunk_prev: Chunk | None,
                      accuracy: float, stat_curr: float, stat_prev: float,
                      detector: DriftMonitor, *, continual: bool, eta: float) -> CandidateSet:
    """Build the three candidates for an alarm on ``chunk_curr``.

    EDM starts as a fresh model of the primary's type trained only on
    ``chunk_prev``; ``adapt`` reads nothing of ``model`` but its type.
    The primary detector is only cloned, never touched, so it stays silent
    for the whole comparison phase.
    """
    if chunk_prev is None:
        raise PhaseError("cannot build candidates without a previous chunk")

    rdm_model = adapt(model, chunk_curr)
    rdm_det = detector.clone()
    rdm_det.reset()

    edm_model = adapt(model, chunk_prev)
    edm_det = detector.fresh()
    edm_det.threshold = stat_prev
    early_acc, early_stat = evaluate(edm_model, chunk_curr, edm_det)
    # the earlier hypothesis may alarm on the current chunk too: then re-adapt
    edm_model = respond(edm_model, chunk_curr, edm_det, early_stat > stat_prev, continual)

    pm_model = model.copy()
    pm_det = detector.fresh()
    pm_det.threshold = stat_curr + eta
    if continual:
        pm_model.train(chunk_curr)

    return CandidateSet(
        models={CandidateKind.EDM: edm_model, CandidateKind.RDM: rdm_model, CandidateKind.PM: pm_model},
        detectors={CandidateKind.EDM: edm_det, CandidateKind.RDM: rdm_det, CandidateKind.PM: pm_det},
        accuracy_logs={CandidateKind.EDM: [early_acc], CandidateKind.RDM: [accuracy], CandidateKind.PM: [accuracy]},
    )


def eval_candidates(candidates: CandidateSet | None, chunk: Chunk, *,
                    continual: bool) -> dict[CandidateKind, float]:
    """One comparison chunk: evaluate every candidate in one stacked kernel
    call, then log and update each in EDM, RDM, PM order."""
    if candidates is None:
        raise PhaseError("no comparison phase is active")
    models, detectors, kinds = candidates.models, candidates.detectors, list(CandidateKind)
    outcomes = evaluate_all([models[k] for k in kinds], chunk, [detectors[k] for k in kinds])
    accuracies: dict[CandidateKind, float] = {}
    for kind, (acc, stat) in zip(kinds, outcomes):
        candidates.accuracy_logs[kind].append(acc)
        accuracies[kind] = acc
        models[kind] = respond(models[kind], chunk, detectors[kind],
                               stat > detectors[kind].threshold, continual)
    return accuracies


def finalize_comparison(candidates: CandidateSet | None):
    """Pick the race winner by mean logged accuracy (seed entry included)."""
    if candidates is None or any(not log for log in candidates.accuracy_logs.values()):
        raise PhaseError("finalize called without complete candidate logs")
    means = {kind: sum(log) / len(log) for kind, log in candidates.accuracy_logs.items()}
    winner = _best(means)
    return winner, candidates.models[winner], candidates.detectors[winner]


def baseline_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Fixed threshold: an alarm adapts on the chunk and resets the monitor."""
    accuracy, statistic = evaluate(state.primary_model, chunk, state.primary_detector)
    alarmed = statistic > state.primary_detector.threshold
    state.primary_model = respond(state.primary_model, chunk, state.primary_detector,
                                  alarmed, state.continual)
    return StepOutcome(accuracy=accuracy, statistic=statistic,
                       threshold=state.primary_detector.threshold, alarm=alarmed, phase="normal")


def dtd_step(state: DtdState, chunk: Chunk) -> StepOutcome:
    """Process one chunk; returns the reported accuracy and trace fields."""
    if state.in_comparison:
        accuracies = eval_candidates(state.candidates, chunk, continual=state.continual)
        state.countdown -= 1
        reported = accuracies[state.leader]
        state.leader = _best(accuracies)
        winner = None
        if state.countdown == 0:
            winner, state.primary_model, state.primary_detector = \
                finalize_comparison(state.candidates)
            state.candidates = None
            state.leader = CandidateKind.RDM
        return StepOutcome(accuracy=reported, statistic=state.primary_detector.statistic,
                           threshold=state.primary_detector.threshold, alarm=False,
                           phase="comparison", winner=winner)

    accuracy, statistic = evaluate(state.primary_model, chunk, state.primary_detector)
    alarmed = statistic > state.primary_detector.threshold
    if alarmed and state.prev_chunk is not None:
        # the primary model is not trained: the race winner replaces it
        state.candidates = create_candidates(
            state.primary_model, chunk, state.prev_chunk, accuracy, statistic,
            state.prev_statistic, state.primary_detector, continual=state.continual,
            eta=state.eta)
        state.countdown = state.race_len
    else:
        # quiet, or an alarm before any history, where no race is possible
        state.primary_model = respond(state.primary_model, chunk, state.primary_detector,
                                      alarmed, state.continual)
    state.prev_statistic = statistic
    state.prev_chunk = chunk
    return StepOutcome(accuracy=accuracy, statistic=statistic,
                       threshold=state.primary_detector.threshold, alarm=alarmed, phase="normal")
