"""A plain-loop reference of the threshold race, checked byte for byte
against ``dtd_step`` on random small streams.

The reference is written from README's candidate table. It uses only the
model (``GaussianNB``, ``adapt``, ``evaluate``) and the monitor contract
(``update`` through ``evaluate``, ``clone``, ``fresh``, ``reset``, alarm iff
statistic > threshold); it shares no code with ``drifttune.dtd``. An alarm
with history opens a race of three candidates:

- EDM: a fresh model trained on the last normal-phase chunk, with a fresh
  monitor whose threshold is that chunk's statistic. It is scored on the
  alarming chunk and reacts to it like any candidate. After a race, the
  last normal-phase chunk is the race-opening chunk.
- RDM: a fresh model trained on the alarming chunk, with the primary
  monitor's clone, reset.
- PM: the primary model, trained on the alarming chunk in continual mode,
  with a fresh monitor at the alarm statistic + eta.

RDM and PM log the primary's accuracy on the alarming chunk, EDM its own.
Each of the next ``race_len`` chunks scores every candidate, which then
reacts (an alarm resets its monitor and adapts its model on the chunk; a
quiet chunk trains it in continual mode). A race chunk reports the accuracy
of the candidate that led before it; the best mean log wins and becomes
the primary model and monitor. Ties go to RDM, then PM, then EDM.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttune.classifier import GaussianNB, adapt, evaluate
from drifttune.detectors import DETECTOR_KINDS
from drifttune.dtd import DtdState, dtd_step
from drifttune.harness import ExperimentConfig, RunTrace, detector_for_run, run_policies
from drifttune.stream import StreamConfig, make_stream

TIE_ORDER = ("RDM", "PM", "EDM")


def best(scores):
    """The highest score's name; the earlier name in TIE_ORDER wins a tie."""
    top = TIE_ORDER[0]
    for name in TIE_ORDER[1:]:
        if scores[name] > scores[top]:
            top = name
    return top


def reference_trace(stream, monitor, race_len, eta, continual):
    """The dynamic-threshold run of README's candidate table, as one loop."""

    def react(model, monitor, chunk):
        if monitor.statistic > monitor.threshold:
            monitor.reset()
            return adapt(model, chunk)
        if continual:
            model.train(chunk)
        return model

    model = GaussianNB().train(stream.chunk(0))
    trace = RunTrace(seed=0)
    trace.append(0, math.nan, math.nan, monitor.threshold, False, "warmup")
    last_chunk, last_statistic = None, 0.0  # of the last normal-phase chunk
    race, left, leader = None, 0, "RDM"     # race: name -> [model, monitor, accuracies]
    for i in range(1, len(stream)):
        chunk = stream.chunk(i)
        if race is not None:
            scores = {}
            for name in ("EDM", "RDM", "PM"):
                entry = race[name]
                scores[name] = evaluate(entry[0], chunk, entry[1]).accuracy
                entry[2].append(scores[name])
                entry[0] = react(entry[0], entry[1], chunk)
            reported, leader, left = scores[leader], best(scores), left - 1
            if left == 0:
                winner = best({name: sum(e[2]) / len(e[2]) for name, e in race.items()})
                model, monitor = race[winner][0], race[winner][1]
                race, leader = None, "RDM"
            trace.append(i, reported, monitor.statistic, monitor.threshold, False, "comparison")
            continue

        accuracy, statistic = evaluate(model, chunk, monitor)
        alarm = statistic > monitor.threshold
        if alarm and last_chunk is not None:
            edm_model, edm_monitor = adapt(model, last_chunk), monitor.fresh()
            edm_monitor.threshold = last_statistic
            edm_accuracy = evaluate(edm_model, chunk, edm_monitor).accuracy
            edm_model = react(edm_model, edm_monitor, chunk)
            rdm_monitor = monitor.clone()
            rdm_monitor.reset()
            pm_model, pm_monitor = model.copy(), monitor.fresh()
            pm_monitor.threshold = statistic + eta
            if continual:
                pm_model.train(chunk)
            race = {"EDM": [edm_model, edm_monitor, [edm_accuracy]],
                    "RDM": [adapt(model, chunk), rdm_monitor, [accuracy]],
                    "PM": [pm_model, pm_monitor, [accuracy]]}
            left, leader = race_len, "RDM"
        else:
            model = react(model, monitor, chunk)
        last_chunk, last_statistic = chunk, statistic
        trace.append(i, accuracy, statistic, monitor.threshold, alarm, "normal")
    return trace


# monitor settings that alarm often on short streams of small chunks
ALARMING = {
    "ddm": [{}, {"threshold": 1.0}],
    "ph": [{}, {"threshold": 0.02}],
    "kswin": [{"window": 6, "recent": 2, "threshold": 0.4}, {"window": 8, "recent": 3, "threshold": 0.3}],
    "hddm_a": [{}, {"threshold": 0.2}],
    "hddm_w": [{}, {"threshold": 0.2}],
}


@st.composite
def race_cells(draw, detector, mode):
    """A small experiment cell for one monitor and training mode, and a seed."""
    kind = draw(st.sampled_from(("sea", "sine", "mixed")))
    stream = StreamConfig(kind=kind, n_chunks=draw(st.integers(2, 16)),
                          chunk_size=draw(st.integers(10, 50)),
                          drift_period=draw(st.integers(2, 5)),
                          noise=draw(st.sampled_from((0.0, 0.1))) if kind == "sea" else 0.0)
    config = ExperimentConfig(name="ref", stream=stream, detector=detector,
                              detector_overrides=draw(st.sampled_from(ALARMING[detector])),
                              mode=mode, race_len=draw(st.integers(1, 4)),
                              eta=draw(st.sampled_from((1e-6, 0.05))))
    return config, draw(st.integers(0, 999))


@pytest.mark.parametrize("mode", ("continual", "sporadic"))
@pytest.mark.parametrize("detector", DETECTOR_KINDS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_dtd_step_matches_reference_race(detector, mode, data):
    config, seed = data.draw(race_cells(detector, mode))
    stream_config = dataclasses.replace(config.stream, seed=seed)
    state = DtdState(GaussianNB(), detector_for_run(config, seed),
                     config.race_len, config.eta, mode)
    [trace] = run_policies(make_stream(stream_config), [(dtd_step, state)])
    expected = reference_trace(make_stream(stream_config), detector_for_run(config, seed),
                               config.race_len, config.eta, mode == "continual")
    assert trace.to_csv_text() == expected.to_csv_text()
