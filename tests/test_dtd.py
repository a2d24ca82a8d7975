"""Threshold-racing controller: candidate creation, the race, finalization.

The scenarios use two deliberately transparent stand-ins so every accuracy
and statistic is hand-computable:

- FirstLabelModel: training sets its constant prediction to the first label
  of the chunk, so a chunk's y array fully determines model behavior.
- IdentityMonitor: the statistic is exactly the last value fed, so the
  statistic after an evaluate call is exactly the chunk error rate.
"""

import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest

from drifttune import dtd as dtd_module
from drifttune.detectors import DriftMonitor
from drifttune.dtd import (
    Candidate,
    CandidateKind,
    DtdState,
    create_candidates,
    dtd_step,
    eval_candidates,
    finalize_comparison,
)
from drifttune.errors import ConfigError, ModelError, PhaseError
from drifttune.stream import Chunk


@dataclass(frozen=True)
class StubParams:
    threshold: float = 0.5


class IdentityMonitor(DriftMonitor):
    kind = "identity"

    def _init_state(self):
        pass

    def _consume(self, value):
        return value


class FirstLabelModel:
    """Predicts one constant class: the first label of the last trained chunk."""

    def __init__(self):
        self.c = None

    def train(self, chunk):
        self.c = int(chunk.y[0])
        return self

    def predict(self, X):
        if self.c is None:
            raise ModelError("predict called before any training data")
        return np.full(X.shape[0], self.c, dtype=np.int64)

    def window_hits(self, window, position, stop):
        """The number of chunk ``position``'s rows labelled right; ``stop`` is ignored."""
        labels = window.y[window.starts[position]:window.starts[position + 1]]
        return int(np.count_nonzero(self.predict(window.rows_from(position, position + 1)) == labels))

    def copy(self):
        return copy.deepcopy(self)


class RecordingModel(FirstLabelModel):
    """FirstLabelModel that also records the index of every chunk it trains on."""

    def __init__(self):
        super().__init__()
        self.trained_on = []

    def train(self, chunk):
        self.trained_on.append(chunk.index)
        return super().train(chunk)


# the index of a warm-up chunk that no later chunk of these tests takes
WARMUP_INDEX = 99


def chunk_from_labels(labels, index=0):
    y = np.asarray(labels, dtype=np.int64)
    return Chunk(index, np.zeros((y.shape[0], 1)), y)


def labels(first, ones, total=100):
    """Exactly ``ones`` one-labels out of ``total``, with y[0] == first."""
    rest_ones = ones - (1 if first == 1 else 0)
    assert 0 <= rest_ones <= total - 1
    return [first] + [1] * rest_ones + [0] * (total - 1 - rest_ones)


def fresh_state(c=1, threshold=0.5, race_len=2, eta=1e-6, mode="sporadic"):
    model = FirstLabelModel().train(chunk_from_labels([c]))
    detector = IdentityMonitor(StubParams(threshold=threshold))
    return DtdState(model, detector, race_len=race_len, eta=eta, training_mode=mode)


class TestStateConstruction:
    def test_starts_in_normal_phase_without_history(self):
        state = fresh_state()
        assert not state.in_comparison
        assert state.candidates is None and state.prev_chunk is None

    def test_validation(self):
        model = FirstLabelModel().train(chunk_from_labels([0]))
        det = IdentityMonitor(StubParams())
        with pytest.raises(ConfigError, match="race_len"):
            DtdState(model, det, race_len=0)
        with pytest.raises(ConfigError, match="eta"):
            DtdState(model, det, eta=0.0)
        with pytest.raises(ConfigError, match="training_mode"):
            DtdState(model, det, training_mode="sometimes")

    def test_race_fields_are_not_constructor_arguments(self):
        model = FirstLabelModel().train(chunk_from_labels([0]))
        for name in ("candidates", "prev_statistic", "prev_chunk"):
            with pytest.raises(TypeError):
                DtdState(model, IdentityMonitor(StubParams()), **{name: None})

    @pytest.mark.parametrize("kw,match", [
        ({"race_len": 2.5}, "race_len"),  # a race would never reach its end
        ({"race_len": "3"}, "race_len"),
        ({"race_len": True}, "race_len"),
        ({"eta": None}, "eta"),
        ({"eta": True}, "eta"),
        ({"eta": math.nan}, "eta"),
        ({"eta": math.inf}, "eta"),
        ({"eta": 10**400}, "eta must fit in a float"),  # math.isnan raises OverflowError
    ])
    def test_badly_typed_settings_rejected(self, kw, match):
        model = FirstLabelModel().train(chunk_from_labels([0]))
        with pytest.raises(ConfigError, match=match):
            DtdState(model, IdentityMonitor(StubParams()), **kw)


class TestNormalPhase:
    def test_quiet_step_reports_and_records(self):
        state = fresh_state(c=1, mode="sporadic")
        chunk = chunk_from_labels(labels(first=1, ones=90))
        out = dtd_step(state, chunk)
        assert out.phase == "normal" and not out.alarm
        assert out.accuracy == 0.9
        assert math.isclose(out.statistic, 0.1)
        assert out.threshold == 0.5
        assert state.prev_chunk is chunk
        assert math.isclose(state.prev_statistic, 0.1)
        assert not state.in_comparison

    def test_continual_trains_primary_in_place(self):
        state = fresh_state(c=1, mode="continual")
        primary = state.primary_model
        dtd_step(state, chunk_from_labels(labels(first=0, ones=60)))
        # scored before training, then trained on the chunk without a copy
        assert state.primary_model is primary
        assert primary.c == 0

    def test_sporadic_does_not_train(self):
        state = fresh_state(c=1, mode="sporadic")
        dtd_step(state, chunk_from_labels(labels(first=0, ones=60)))
        assert state.primary_model.c == 1

    def test_first_chunk_alarm_falls_back_to_plain_adaptation(self):
        state = fresh_state(c=1, mode="sporadic")
        chunk = chunk_from_labels(labels(first=0, ones=10))
        out = dtd_step(state, chunk)
        assert out.alarm and out.phase == "normal"
        assert math.isclose(out.statistic, 0.9)
        assert not state.in_comparison and state.candidates is None
        # model re-fit on the alarming chunk, detector cleared
        assert state.primary_model.c == 0
        assert state.primary_detector.statistic == 0.0
        assert state.prev_chunk is chunk
        assert math.isclose(state.prev_statistic, 0.9)


class TestCandidateCreation:
    def alarm_setup(self, mode="sporadic", eta=1e-6, threshold=0.5):
        state = fresh_state(c=1, mode=mode, eta=eta, threshold=threshold)
        # in continual mode the primary re-trains on the first chunk, so its
        # first label must keep the constant prediction at 1
        first = 1 if mode == "continual" else 0
        prev = chunk_from_labels(labels(first=first, ones=99), index=0)  # acc 0.99 -> stat 0.01
        alarm = chunk_from_labels(labels(first=1, ones=1), index=1)      # acc 0.01 -> stat 0.99
        dtd_step(state, prev)
        out = dtd_step(state, alarm)
        return state, prev, alarm, out

    def test_alarm_with_history_opens_comparison(self):
        state, _, _, out = self.alarm_setup()
        assert out.alarm and out.phase == "normal"
        assert state.in_comparison
        assert state.candidates is not None
        # each log holds the alarm chunk's entry only: no race chunk has run
        assert [len(c.accuracy_log) for c in state.candidates] == [1, 1, 1]

    def test_threshold_assignments(self):
        state, _, _, _ = self.alarm_setup(eta=0.25)
        edm, rdm, pm = (c.detector for c in state.candidates)
        assert math.isclose(edm.threshold, 0.01)        # statistic before the alarm
        assert rdm.threshold == 0.5                     # primary threshold, unchanged
        assert math.isclose(pm.threshold, 0.99 + 0.25)  # alarm statistic + margin

    def test_model_assignments(self):
        state, prev, alarm, _ = self.alarm_setup()
        edm, rdm, pm = (c.model for c in state.candidates)
        assert rdm.c == int(alarm.y[0])  # re-fit on the alarming chunk
        assert edm.c == int(prev.y[0])   # re-fit on the chunk before it
        assert pm.c == 1                 # primary carried over

    def test_accuracy_logs_seeded(self):
        state, _, _, _ = self.alarm_setup()
        # primary scored 0.01 on the alarm chunk; the early hypothesis (c=0)
        # scored 0.99 on it
        assert [c.accuracy_log for c in state.candidates] == [[0.99], [0.01], [0.01]]

    def test_early_hypothesis_kept_when_it_stays_quiet(self):
        # the pre-drift model still fits the alarm chunk (statistic 0.01 is
        # not above its 0.01 threshold), so it is not re-adapted
        state, prev, _, _ = self.alarm_setup()
        assert state.candidates[CandidateKind.EDM].model.c == int(prev.y[0])

    def test_early_hypothesis_is_fresh_model_trained_on_previous_chunk(self):
        model = RecordingModel().train(chunk_from_labels([1], index=WARMUP_INDEX))
        state = DtdState(model, IdentityMonitor(StubParams()), race_len=2,
                         training_mode="sporadic")
        prev = chunk_from_labels(labels(first=0, ones=99), index=0)
        dtd_step(state, prev)
        dtd_step(state, chunk_from_labels(labels(first=1, ones=1), index=1))
        edm = state.candidates[CandidateKind.EDM].model
        # the primary's type, but none of its state: only the previous chunk
        assert type(edm) is RecordingModel and edm is not state.primary_model
        assert edm.trained_on == [prev.index]
        assert state.primary_model.trained_on == [WARMUP_INDEX]

    def test_early_hypothesis_readapted_when_it_alarms_too(self):
        state = fresh_state(c=1, mode="sporadic")
        prev = chunk_from_labels(labels(first=1, ones=95), index=0)   # stat 0.05
        alarm = chunk_from_labels(labels(first=1, ones=2), index=1)   # both models score 0.02
        dtd_step(state, prev)
        dtd_step(state, alarm)
        # early hypothesis alarmed on the current chunk (0.98 > 0.05): re-fit
        # on the current chunk instead of the previous one
        assert state.candidates[CandidateKind.EDM].model.c == int(alarm.y[0])
        assert state.candidates[CandidateKind.EDM].detector.statistic == 0.0

    def test_primary_does_not_train_on_race_opening_chunk(self):
        # the race winner replaces the primary, so training it would be waste
        model = RecordingModel().train(chunk_from_labels([1], index=WARMUP_INDEX))
        state = DtdState(model, IdentityMonitor(StubParams()), race_len=2,
                         training_mode="continual")
        prev = chunk_from_labels(labels(first=1, ones=99), index=0)  # quiet: stat 0.01
        alarm = chunk_from_labels(labels(first=1, ones=1), index=1)  # stat 0.99 opens a race
        dtd_step(state, prev)
        out = dtd_step(state, alarm)
        assert out.alarm and state.in_comparison
        assert state.primary_model is model
        assert model.trained_on == [WARMUP_INDEX, prev.index]

    def test_pm_trains_on_alarm_chunk_in_continual(self):
        state, _, alarm, _ = self.alarm_setup(mode="continual")
        assert state.candidates[CandidateKind.PM].model.c == int(alarm.y[0])

    def test_create_candidates_requires_history(self):
        state = fresh_state()
        with pytest.raises(PhaseError, match="previous chunk"):
            create_candidates(state, chunk_from_labels([1]), 0.5)

    def test_create_candidates_requires_an_alarming_primary(self):
        state = fresh_state(c=1)
        quiet = chunk_from_labels(labels(first=1, ones=99), index=0)  # stat 0.01
        dtd_step(state, quiet)
        assert not state.primary_detector.alarm
        with pytest.raises(PhaseError, match="alarm"):
            create_candidates(state, chunk_from_labels(labels(first=1, ones=99), index=1), 0.99)

    @pytest.mark.parametrize("mode", ["sporadic", "continual"])
    def test_every_candidate_reacts_through_respond(self, monkeypatch, mode):
        # the race opening and every race chunk move each of the three
        # candidates through the one reaction rule
        calls = []

        def counting(model, chunk, detector, continual, _respond=dtd_module.respond):
            calls.append(chunk.index)
            return _respond(model, chunk, detector, continual)

        monkeypatch.setattr(dtd_module, "respond", counting)
        state, _, alarm, _ = self.alarm_setup(mode=mode)
        assert calls[-3:] == [alarm.index] * 3 and calls[:-3] == [0]
        calls.clear()
        dtd_step(state, chunk_from_labels(labels(first=1, ones=50), index=2))
        assert calls == [2, 2, 2]


class TestComparisonPhase:
    def drive_to_comparison(self, race_len=2, mode="sporadic"):
        state = fresh_state(c=1, mode=mode, race_len=race_len)
        dtd_step(state, chunk_from_labels(labels(first=0, ones=99), index=0))
        dtd_step(state, chunk_from_labels(labels(first=1, ones=1), index=1))
        assert state.in_comparison
        return state

    def test_primary_detector_untouched_during_race(self):
        state = self.drive_to_comparison(race_len=2)
        stat_at_alarm = state.primary_detector.statistic
        out = dtd_step(state, chunk_from_labels(labels(first=1, ones=50), index=2))
        assert out.phase == "comparison" and not out.alarm
        assert state.primary_detector.statistic == stat_at_alarm
        assert out.statistic == stat_at_alarm

    def test_reported_accuracy_lags_one_chunk_behind_the_leader(self):
        state = self.drive_to_comparison(race_len=3)
        # pin the candidates so accuracies are fully scripted and none of the
        # candidate detectors fires mid-race
        for kind, c in ((CandidateKind.RDM, 1), (CandidateKind.EDM, 0), (CandidateKind.PM, 1)):
            state.candidates[kind].model.c = c
            state.candidates[kind].detector.threshold = 10.0
        # chunk 2: 30 ones. RDM (c=1) scores 0.3, EDM (c=0) 0.7, PM (c=1) 0.3.
        # The first race chunk reports RDM, although EDM led on the alarm chunk.
        out2 = dtd_step(state, chunk_from_labels(labels(first=1, ones=30), index=2))
        assert out2.accuracy == 0.3
        # chunk 3: 80 ones. EDM led on chunk 2, so it reports 0.2, although RDM sees 0.8.
        out3 = dtd_step(state, chunk_from_labels(labels(first=1, ones=80), index=3))
        assert out3.accuracy == 0.2
        # chunk 4: 40 ones, and PM now predicts 0. RDM and PM tied on chunk 3
        # and RDM leads: it reports 0.4, where PM or EDM would report 0.6.
        state.candidates[CandidateKind.PM].model.c = 0
        out4 = dtd_step(state, chunk_from_labels(labels(first=1, ones=40), index=4))
        assert out4.accuracy == 0.4

    def test_countdown_and_finalization_shape(self):
        state = self.drive_to_comparison(race_len=3)
        outs = [dtd_step(state, chunk_from_labels(labels(first=1, ones=50), index=2 + i))
                for i in range(3)]
        assert [o.phase for o in outs] == ["comparison"] * 3
        assert [o.winner for o in outs[:2]] == [None, None]
        assert outs[2].winner is not None
        assert not state.in_comparison and state.candidates is None

    def test_next_race_reports_rdm_first_again(self):
        state = self.drive_to_comparison(race_len=1)
        # all-zero race chunk: EDM (c=0) leads with 1.0 and wins, so the primary predicts 0
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        assert out.winner is CandidateKind.EDM
        dtd_step(state, chunk_from_labels(labels(first=1, ones=1), index=3))  # quiet: stat 0.01
        out = dtd_step(state, chunk_from_labels(labels(first=1, ones=99), index=4))
        assert out.alarm and state.in_comparison
        # EDM, fit on chunk 3 (c=1), scored 0.99 on the alarm chunk, RDM and PM 0.01
        assert [c.accuracy_log for c in state.candidates] == [[0.99], [0.01], [0.01]]
        for kind, c in ((CandidateKind.EDM, 0), (CandidateKind.RDM, 1), (CandidateKind.PM, 0)):
            state.candidates[kind].model.c = c
            state.candidates[kind].detector.threshold = 10.0
        # 70 ones: RDM scores 0.7 and reports; EDM, which led on the alarm chunk, scores 0.3
        out = dtd_step(state, chunk_from_labels(labels(first=1, ones=70), index=5))
        assert out.accuracy == 0.7

    def test_winner_by_mean_logged_accuracy_including_seed(self):
        state = self.drive_to_comparison(race_len=2)
        captured = state.candidates
        # zero-heavy chunks: EDM (c=0) wins every comparison chunk
        dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=3))
        assert out.winner is CandidateKind.EDM
        assert state.primary_model is captured[CandidateKind.EDM].model
        assert state.primary_detector is captured[CandidateKind.EDM].detector

    def test_winner_detector_installed_without_reset(self):
        state = self.drive_to_comparison(race_len=2)
        captured = state.candidates
        dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=3))
        winner = out.winner
        # the outcome row shows the winner's own statistic and threshold,
        # exactly as they stood when the race ended
        assert state.primary_detector is captured[winner].detector
        assert out.statistic == captured[winner].detector.statistic
        assert out.threshold == captured[winner].detector.threshold

    def test_candidate_self_adapts_when_its_detector_alarms(self):
        state = self.drive_to_comparison(race_len=2)
        # all-zero chunk: RDM (c=1) scores 0.0, statistic 1.0 > threshold 0.5,
        # so it re-fits on the chunk and clears its detector
        dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        assert state.candidates[CandidateKind.RDM].model.c == 0
        assert state.candidates[CandidateKind.RDM].detector.statistic == 0.0

    def test_race_len_one_finalizes_on_first_comparison_chunk(self):
        state = self.drive_to_comparison(race_len=1)
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        assert out.winner is not None
        assert not state.in_comparison

    def test_normal_phase_resumes_after_finalization(self):
        state = self.drive_to_comparison(race_len=1)
        dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=5), index=3))
        assert out.phase == "normal"

    def test_alarm_right_after_a_race_reads_the_race_opening_chunk(self):
        # EDM takes the last normal-phase chunk and its statistic. Right after
        # a race that is the chunk which opened the race, not the chunk before
        # the new alarm (the race chunks are not normal-phase chunks).
        model = RecordingModel().train(chunk_from_labels([1], index=WARMUP_INDEX))
        state = DtdState(model, IdentityMonitor(StubParams()), race_len=1,
                         training_mode="sporadic")
        dtd_step(state, chunk_from_labels(labels(first=1, ones=99), index=0))  # quiet, stat 0.01
        opening = chunk_from_labels(labels(first=0, ones=1), index=1)           # stat 0.99
        assert dtd_step(state, opening).alarm
        # all-zero race chunk: RDM (c=0) and EDM (re-fit to c=0) tie, RDM wins
        out = dtd_step(state, chunk_from_labels(labels(first=0, ones=0), index=2))
        assert out.winner is CandidateKind.RDM
        # 60 ones: the winner (c=0) scores 0.4, stat 0.6 > 0.5, and a race opens
        out = dtd_step(state, chunk_from_labels(labels(first=1, ones=60), index=3))
        assert out.alarm and state.in_comparison
        assert state.prev_chunk.index == 3
        edm = state.candidates[CandidateKind.EDM]
        # EDM scored 0.4 too (stat 0.6, not above 0.99), so it kept its model
        assert edm.model.trained_on == [opening.index]
        assert math.isclose(edm.detector.threshold, 0.99)

    def test_rdm_wins_ties(self):
        state = self.drive_to_comparison(race_len=2)
        # 50/50 chunks: every candidate logs the same accuracies after the
        # seed entries, but RDM and EDM seeds differ; craft exact tie instead
        # by re-seeding the logs directly
        for candidate in state.candidates:
            candidate.accuracy_log[:] = [0.5]
        dtd_step(state, chunk_from_labels(labels(first=1, ones=50), index=2))
        out = dtd_step(state, chunk_from_labels(labels(first=1, ones=50), index=3))
        assert out.winner is CandidateKind.RDM

    def test_pm_beats_edm_on_tie(self):
        captured = [Candidate(FirstLabelModel().train(chunk_from_labels([0])),
                              IdentityMonitor(StubParams()), log)
                    for log in ([0.8], [0.2], [0.8])]  # EDM, RDM, PM
        assert finalize_comparison(captured) is CandidateKind.PM


class TestPhaseErrors:
    def test_eval_without_active_race(self):
        with pytest.raises(PhaseError, match="no comparison phase"):
            eval_candidates(fresh_state(), chunk_from_labels([0]))

    def test_finalize_without_candidates(self):
        with pytest.raises(PhaseError, match="finalize"):
            finalize_comparison(None)

    def test_finalize_with_empty_log(self):
        bad = [Candidate(FirstLabelModel(), IdentityMonitor(StubParams()), log)
               for log in ([], [0.5], [0.5])]  # EDM, RDM, PM
        with pytest.raises(PhaseError, match="complete candidate logs"):
            finalize_comparison(bad)


class TestWithRealComponents:
    def test_race_runs_end_to_end_on_gaussian_model(self):
        from drifttune.classifier import GaussianNB
        from drifttune.detectors import make_monitor, params_from_dict
        from drifttune.stream import StreamConfig, make_stream

        stream = make_stream(StreamConfig(kind="sea", seed=1, n_chunks=30,
                                          chunk_size=400, drift_period=10))
        detector = make_monitor("ddm", params_from_dict("ddm", {"samples_per_update": 400}))
        state = DtdState(GaussianNB().train(stream.chunk(0)), detector, race_len=3)
        phases = []
        alarms = 0
        for i in range(1, 30):
            out = dtd_step(state, stream.chunk(i))
            phases.append(out.phase)
            alarms += out.alarm
        assert alarms >= 1  # the period-10 boundary moves must trip the detector
        assert "comparison" in phases
        # every alarm with history is followed by exactly race_len comparison rows
        i = 0
        while i < len(phases):
            if phases[i] == "comparison":
                assert phases[i : i + 3] == ["comparison"] * 3
                i += 3
            else:
                i += 1
