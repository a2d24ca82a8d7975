"""Prequential experiment harness.

One loop, :func:`run_policies`, drives every threshold policy over a chunk
stream and records a per-chunk trace for each. A policy is a step function
over its own :class:`~drifttune.dtd.DtdState`: the "baseline" method
(:func:`~drifttune.dtd.baseline_step`) adapts on an alarming chunk and
resets the monitor with the threshold unchanged, the "dtd" method
(:func:`~drifttune.dtd.dtd_step`) hands control to the candidate race.
Chunk 0 is warm-up: every model trains on it and evaluation starts at
chunk 1, so every trace has exactly one row per chunk.

An :class:`ExperimentConfig` is the only input to its runs: its stream,
monitor, mode, methods, seeds and output directory. Runs are grouped by
the stream they read: the configs whose stream settings are equal share
one pass per seed, so a CSV file is parsed once per pass. Each chunk is
built once and fed to every method of every config in the pass in
lockstep; the policies share only the read-only chunk, its cached class
statistics and its window tag, so a trace is the same whichever configs
share its pass. The passes run in ``parallel`` processes, this one
included: this process runs one share and each other share runs in a
forked child. When processes outnumber the passes, each pass's configs
are split round-robin into ceil(parallel / passes) parts, one pass each.
Every pass walks the stream in windows of about ``WINDOW_ROWS`` rows (at
least one chunk), each built as views of one feature block and one label
block (:class:`~drifttune.stream.Window`), so a model that its policy will score
unchanged for several chunks scores them in one kernel call; the policy states
how many (:mod:`drifttune.dtd`). Run seed k replaces the stream seed, which
every trace of the pass records, and, for monitors that subsample (kswin), the
subsample seed. Monitors that scale deviations by a per-update sample
count get that count set to the chunk size unless a config override
pins it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import multiprocessing
import pickle
import re
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import yaml

from .classifier import GaussianNB
from .detectors import MONITOR_TYPES, DriftMonitor, make_monitor, params_from_dict
from .dtd import DtdState, baseline_step, check_policy, dtd_step
from .errors import ConfigError, DriftTuneError, ReportError, check_count
from .stream import Stream, StreamConfig, make_stream, unread_fields

METHODS = ("baseline", "dtd")
WINDOW_ROWS = 2048  # rows per window of chunks a stopped model scores ahead


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: a stream, a monitor, a training mode, seeds. The one
    place that defaults and checks a cell; a count N of seeds stores 0..N-1."""

    name: str
    stream: StreamConfig
    detector: str
    detector_overrides: dict = field(default_factory=dict)
    method: str = "both"
    mode: str = "continual"
    race_len: int = 3
    eta: float = 1e-6
    seeds: tuple[int, ...] = tuple(range(20))
    out: str = "results"

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name or any(c in self.name for c in "/\0"):
            raise ConfigError(f"experiment name must be a non-empty path-safe string, got {self.name!r}")
        if not isinstance(self.out, str) or "\0" in self.out:
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if not isinstance(self.stream, StreamConfig):
            raise ConfigError(f"stream must be a StreamConfig, got {type(self.stream).__name__}")
        if not isinstance(self.detector_overrides, dict):
            raise ConfigError("detector_overrides must be a dict, got "
                              f"{type(self.detector_overrides).__name__}")
        if self.method not in METHODS + ("both",):
            raise ConfigError(f"method must be one of {METHODS + ('both',)}, got {self.method!r}")
        check_policy(self.race_len, self.eta, self.mode)
        object.__setattr__(self, "eta", float(self.eta))
        seeds = self.seeds
        if isinstance(seeds, int) and not isinstance(seeds, bool):
            check_count("seed count", seeds, minimum=1)
            seeds = range(seeds)
        elif not isinstance(seeds, (tuple, list, range)):
            raise ConfigError(f"seeds must be a count or a list of integers, got {seeds!r}")
        object.__setattr__(self, "seeds", tuple(seeds))
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        if any(not isinstance(s, int) or isinstance(s, bool) or s < 0 for s in self.seeds):
            raise ConfigError("seeds must be non-negative integers")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be unique")
        # fail on an unknown kind or bad overrides at config time, not per run
        params_from_dict(self.detector, self.detector_overrides)

    @property
    def methods(self) -> tuple[str, ...]:
        return METHODS if self.method == "both" else (self.method,)


def inert_cells(configs: Sequence[ExperimentConfig]) -> list[str]:
    """One line for each config whose monitor can never alarm: its synthetic
    stream gives fewer evaluated chunks than the updates the monitor takes
    before its statistic can leave 0. A CSV stream's chunk count is known
    only once it is loaded, so CSV cells are not checked."""
    lines = []
    for config in configs:
        needed = params_from_dict(config.detector, config.detector_overrides).updates_needed
        evaluated = config.stream.n_chunks - 1
        if config.stream.kind != "csv" and evaluated < needed:
            lines.append(f"inert cell {config.name}: its {config.detector} monitor needs "
                         f"{needed} updates before its statistic can leave 0, and its stream "
                         f"gives {evaluated}, so it can never alarm")
    return lines


def detector_for_run(config: ExperimentConfig, seed: int) -> DriftMonitor:
    """Build the monitor for one run, filling the per-run fields.

    Overrides win; otherwise any per-update sample count defaults to the
    chunk size and any subsample seed defaults to the run seed.
    """
    mapping = dict(config.detector_overrides)
    names = {f.name for f in dataclasses.fields(MONITOR_TYPES[config.detector].Params)}
    if "samples_per_update" in names:
        mapping.setdefault("samples_per_update", config.stream.chunk_size)
    if "seed" in names:
        mapping.setdefault("seed", seed)
    return make_monitor(config.detector, params_from_dict(config.detector, mapping))


@dataclass
class RunTrace:
    """Per-chunk record of one run. Lists share one index per chunk."""

    seed: int
    chunk_index: list[int] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    statistic: list[float] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    alarm: list[bool] = field(default_factory=list)
    phase: list[str] = field(default_factory=list)

    def append(self, chunk_index: int, accuracy: float, statistic: float,
               threshold: float, alarm: bool, phase: str) -> None:
        self.chunk_index.append(int(chunk_index))
        self.accuracy.append(float(accuracy))
        self.statistic.append(float(statistic))
        self.threshold.append(float(threshold))
        self.alarm.append(bool(alarm))
        self.phase.append(str(phase))

    def __len__(self) -> int:
        return len(self.chunk_index)

    @property
    def mean_accuracy(self) -> float:
        evaluated = [a for a, p in zip(self.accuracy, self.phase) if p != "warmup"]
        if not evaluated:
            raise ReportError("trace has no evaluated chunks")
        return statistics.fmean(evaluated)

    @property
    def alarm_chunks(self) -> list[int]:
        return [i for i, a in zip(self.chunk_index, self.alarm) if a]

    def to_csv_text(self) -> str:
        lines = ["chunk_index,accuracy,statistic,threshold,alarm,phase"]
        for row in zip(self.chunk_index, self.accuracy, self.statistic,
                       self.threshold, self.alarm, self.phase):
            i, acc, stat, thr, alarm, phase = row
            lines.append(f"{i},{acc!r},{stat!r},{thr!r},{alarm},{phase}")
        return "\n".join(lines) + "\n"


def run_policies(stream: Stream, policies: Sequence[tuple[Callable, DtdState]]) -> list[RunTrace]:
    """Run every (step, state) policy over one pass of the stream; each
    trace's seed is the stream's.

    Each state's model trains on chunk 0, which is the warm-up row; then
    every later chunk is built once, a window of chunks at a time, and
    passed to each step in turn.
    """
    if len(stream) < 2:
        raise ConfigError("a run needs at least two chunks: one warm-up, one evaluated")
    warmup = stream.chunk(0)
    traces = []
    for _, state in policies:
        state.primary_model.train(warmup)
        traces.append(RunTrace(seed=stream.config.seed))
        traces[-1].append(0, math.nan, math.nan, state.primary_detector.threshold, False, "warmup")
    per_window = max(1, WINDOW_ROWS // len(warmup))
    for first in range(1, len(stream), per_window):
        for chunk in stream.window(first, min(first + per_window, len(stream))):
            for (step, state), trace in zip(policies, traces):
                out = step(state, chunk)
                trace.append(chunk.index, out.accuracy, out.statistic, out.threshold, out.alarm, out.phase)
    return traces


def baseline_trace(stream: Stream, detector: DriftMonitor, mode: str = "continual") -> RunTrace:
    """Fixed-threshold run: alarm means adapt on the chunk and reset history."""
    state = DtdState(GaussianNB(), detector, training_mode=mode)
    return run_policies(stream, [(baseline_step, state)])[0]


def dtd_trace(stream: Stream, detector: DriftMonitor, mode: str = "continual",
              race_len: int = 3, eta: float = 1e-6) -> RunTrace:
    """Dynamic-threshold run: alarms open a candidate race over the next chunks."""
    state = DtdState(GaussianNB(), detector, race_len, eta, mode)
    return run_policies(stream, [(dtd_step, state)])[0]


def _run_pass(configs: Sequence[ExperimentConfig], seed: int) -> list[dict[str, RunTrace]]:
    """One pass over the stream the configs share, seeded with ``seed``, that
    runs every method of every config in lockstep, each with its own model
    and monitor; returns each config's traces by method."""
    # looked up per call, so a step patched on the module is the one that runs
    steps = {"baseline": baseline_step, "dtd": dtd_step}
    stream = make_stream(dataclasses.replace(configs[0].stream, seed=seed))
    policies = [(steps[m], DtdState(GaussianNB(), detector_for_run(config, seed),
                                    config.race_len, config.eta, config.mode))
                for config in configs for m in config.methods]
    traces = iter(run_policies(stream, policies))
    return [{m: next(traces) for m in config.methods} for config in configs]


def run_single(config: ExperimentConfig, seed: int) -> dict[str, RunTrace]:
    """One pass over the config's stream seeded with ``seed`` that runs the
    config's methods in lockstep; returns traces by method. A suite runs
    the same pass for every config that reads that stream at that seed."""
    return _run_pass([config], seed)[0]


@dataclass
class ExperimentResult:
    """All traces for one experiment cell under one method."""

    method: str
    config: ExperimentConfig
    traces: list[RunTrace]

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def per_seed_accuracy(self) -> list[float]:
        return [t.mean_accuracy for t in self.traces]

    @property
    def mean_accuracy(self) -> float:
        return statistics.fmean(self.per_seed_accuracy)

    @property
    def std_accuracy(self) -> float:
        return statistics.pstdev(self.per_seed_accuracy)

    def summary_dict(self) -> dict:
        """The cell's stored summary, which is also its row in a report."""
        lengths = {len(t) for t in self.traces}
        if len(lengths) != 1:
            raise ReportError(f"{self.name}/{self.method}: traces have mismatched chunk counts {sorted(lengths)}")
        return {
            "name": self.name,
            "method": self.method,
            "stream": dataclasses.asdict(self.config.stream),
            "detector": self.config.detector,
            "detector_overrides": {k: self.config.detector_overrides[k]
                                   for k in sorted(self.config.detector_overrides)},
            "mode": self.config.mode,
            "race_len": self.config.race_len,
            "eta": self.config.eta,
            "seeds": list(self.config.seeds),
            "n_chunks": lengths.pop(),
            "per_seed_accuracy": [float(a) for a in self.per_seed_accuracy],
            "per_seed_alarm_chunks": [t.alarm_chunks for t in self.traces],
            "per_seed_final_threshold": [float(t.threshold[-1]) for t in self.traces],
            "mean_accuracy": float(self.mean_accuracy),
            "std_accuracy": float(self.std_accuracy),
        }


def _dump_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_TRACE_NAME = re.compile(r"seed(0|[1-9][0-9]*)\.csv")  # the names write_result gives traces


def write_result(result: ExperimentResult, out_root: str | Path) -> Path:
    """Write seed<k>.csv per trace plus summary.json, and remove the cell's
    other seed<k>.csv files, left by an earlier run; returns the cell directory."""
    summary = _dump_json(result.summary_dict())
    cell_dir = Path(out_root) / f"{result.name}__{result.method}"
    cell_dir.mkdir(parents=True, exist_ok=True)
    written = {f"seed{trace.seed}.csv" for trace in result.traces}
    for stale in cell_dir.glob("seed*.csv"):
        if _TRACE_NAME.fullmatch(stale.name) and stale.name not in written:
            stale.unlink()
    for trace in result.traces:
        (cell_dir / f"seed{trace.seed}.csv").write_text(trace.to_csv_text())
    (cell_dir / "summary.json").write_text(summary)
    return cell_dir


def write_suite_summary(report: dict, out_root: str | Path) -> None:
    """Write a suite report as suite_summary.json plus its rendered table."""
    out_dir = Path(out_root)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "suite_summary.json").write_text(_dump_json(report))
    (out_dir / "suite_summary.txt").write_text(render_table(report))


def run_experiment(config: ExperimentConfig, method: str | None = None,
                   parallel: int = 1, write: bool = True) -> dict[str, ExperimentResult]:
    """Run one experiment cell, with ``method`` in place of the config's when
    given, and write its results under ``config.out``; returns results by method."""
    if method is not None:
        config = dataclasses.replace(config, method=method)
    results = _run_all([config], parallel)
    if write:
        for result in results:
            write_result(result, config.out)
    return {r.method: r for r in results}


def _run_all(configs: Sequence[ExperimentConfig], parallel: int) -> list[ExperimentResult]:
    """One pass per (stream, seed) that the configs read, split into parts
    when processes outnumber passes; results per (config, method) in config
    order. The calls run in ``parallel`` processes at most, this one included:
    this process runs one share of them and each other share runs in a child."""
    check_count("parallel", parallel, minimum=1)
    passes: dict[StreamConfig, list[int]] = {}
    for i, config in enumerate(configs):
        for seed in config.seeds:
            passes.setdefault(dataclasses.replace(config.stream, seed=seed), []).append(i)
    parts = -(-parallel // len(passes))
    tasks = [(key.seed, members[j::parts]) for key, members in passes.items()
             for j in range(min(parts, len(members)))]
    calls = [([configs[i] for i in members], seed) for seed, members in tasks]
    rows = _fan_out(calls, min(parallel, len(calls)))
    traces = {(i, seed): by_method for (seed, members), row in zip(tasks, rows)
              for i, by_method in zip(members, row)}
    return [ExperimentResult(method=m, config=config,
                             traces=[traces[i, seed][m] for seed in config.seeds])
            for i, config in enumerate(configs) for m in config.methods]


def _fan_out(calls: Sequence[tuple], n: int) -> list:
    """``_run_pass`` over every call, dealt round-robin into ``n`` shares:
    this process runs share 0 and a forked child runs each other share,
    sending its rows back over a pipe. Returns the rows in call order; an
    error in any share is raised here, and no child outlives the call."""
    children = []
    try:
        for k in range(1, n):
            receiver, sender = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(target=_child_share, args=(calls[k::n], sender))
            child.start()
            sender.close()  # so a child that dies leaves its pipe at end of file
            children.append((child, receiver))
        shares = [[_run_pass(*call) for call in calls[::n]]]
        for child, receiver in children:
            try:
                kind, value = receiver.recv()  # before join: a child's send waits for this
            except EOFError:  # the child ended without sending
                kind, value = "error", None
            child.join()
            if kind == "error":
                raise value or DriftTuneError("a child process running a share of the passes "
                                              f"ended without its rows (exit code {child.exitcode})")
            shares.append(value)
    finally:
        for child, receiver in children:
            if child.is_alive():
                child.terminate()
            child.join()
            receiver.close()  # after the child is gone, so its send never meets a closed pipe
    rows = [None] * len(calls)
    for k, share in enumerate(shares):
        rows[k::n] = share
    return rows


def _child_share(calls: Sequence[tuple], sender) -> None:
    """A child's share: sends ("rows", rows), or ("error", exc) for an
    exception, replaced by a DriftTuneError of its type name and message
    when it does not survive pickling."""
    try:
        message = ("rows", [_run_pass(*call) for call in calls])
    except Exception as exc:
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            exc = DriftTuneError(f"{type(exc).__name__}: {exc}")
        message = ("error", exc)
    sender.send(message)


def run_suite(configs: Sequence[ExperimentConfig],
              parallel: int = 1) -> tuple[list[ExperimentResult], dict]:
    """Run every config, write per-cell results and a suite-level summary to
    the ``out`` the configs share, and return both."""
    if not configs:
        raise ConfigError("suite needs at least one experiment config")
    names = [c.name for c in configs]
    if len(set(names)) != len(names):
        raise ConfigError("experiment names must be unique within a suite")
    outs = sorted({c.out for c in configs})
    if len(outs) != 1:
        raise ConfigError(f"suite configs name different out directories {outs}; give them one")
    out = outs[0]
    results = _run_all(configs, parallel)
    for result in results:
        write_result(result, out)
    report = summarize(results)
    write_suite_summary(report, out)
    return results, report


def summarize(results: Sequence[ExperimentResult]) -> dict:
    """Aggregate results into a report: per-cell means plus paired deltas.

    A pair is one experiment name holding both methods; pairs must share
    seeds and chunk counts. Win counting over pair means is strict, so
    equal means land in ``ties`` and lower the win rate.
    """
    return _report_from_rows([r.summary_dict() for r in results])


def _report_from_rows(rows: list[dict]) -> dict:
    if not rows:
        raise ReportError("cannot summarize zero results")
    cells: dict[str, dict[str, dict]] = {}
    for row in rows:
        per_method = cells.setdefault(row["name"], {})
        if row["method"] in per_method:
            raise ReportError(f"duplicate cell {row['name']}/{row['method']}")
        per_method[row["method"]] = row
    pairs = {}
    wins = ties = losses = 0
    for name in sorted(cells):
        per_method = cells[name]
        if set(per_method) != set(METHODS):
            continue
        base, dtd = per_method["baseline"], per_method["dtd"]
        if base["seeds"] != dtd["seeds"]:
            raise ReportError(f"{name}: methods ran different seeds")
        if base["n_chunks"] != dtd["n_chunks"]:
            raise ReportError(f"{name}: methods ran different chunk counts")
        delta = dtd["mean_accuracy"] - base["mean_accuracy"]
        seed_deltas = [d - b for d, b in zip(dtd["per_seed_accuracy"], base["per_seed_accuracy"])]
        if delta > 0.0:
            wins += 1
        elif delta < 0.0:
            losses += 1
        else:
            ties += 1
        pairs[name] = {
            "baseline": base["mean_accuracy"],
            "dtd": dtd["mean_accuracy"],
            "delta": delta,
            "seed_wins": sum(1 for d in seed_deltas if d > 0.0),
            "seed_losses": sum(1 for d in seed_deltas if d < 0.0),
        }
    n_pairs = len(pairs)
    return {
        "cells": {name: {method: {k: row[k] for k in
                                  ("mean_accuracy", "std_accuracy", "n_chunks", "per_seed_accuracy")}
                         for method, row in sorted(per_method.items())}
                  for name, per_method in sorted(cells.items())},
        "pairs": pairs,
        "n_pairs": n_pairs,
        "wins": wins,
        "ties": ties,
        "losses": losses,
        "win_rate": (wins / n_pairs) if n_pairs else None,
        "win_or_tie_rate": ((wins + ties) / n_pairs) if n_pairs else None,
    }


def _is_number(value) -> bool:
    # finite and within a float's range: json reads NaN, Infinity and ints of any size
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# the stored summary keys a report reads, each with the test its value must pass
_STORED_KEYS = {
    "name": lambda v: isinstance(v, str),
    "method": lambda v: isinstance(v, str),
    "seeds": lambda v: isinstance(v, list),
    "n_chunks": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "mean_accuracy": _is_number,
    "std_accuracy": _is_number,
    "per_seed_accuracy": lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def summarize_stored(out_root: str | Path) -> dict:
    """Rebuild the suite report from summary.json files under ``out_root``."""
    root = Path(out_root)
    paths = sorted(root.glob("*/summary.json"))
    if not paths:
        raise ReportError(f"no summary.json files under {root}")
    rows = []
    for path in paths:
        try:
            row = json.loads(path.read_text())
        except ValueError as exc:
            raise ReportError(f"{path}: summary is not JSON: {exc}") from exc
        if not isinstance(row, dict):
            raise ReportError(f"{path}: summary is not a JSON object")
        for key, valid in _STORED_KEYS.items():
            if key not in row:
                raise ReportError(f"{path}: summary has no key {key!r}")
            if not valid(row[key]):
                raise ReportError(f"{path}: summary key {key!r} has a wrongly typed or non-finite value {row[key]!r}")
        if len(row["seeds"]) != len(row["per_seed_accuracy"]):
            raise ReportError(f"{path}: summary's seeds and per_seed_accuracy differ in length "
                              f"({len(row['seeds'])} and {len(row['per_seed_accuracy'])})")
        rows.append(row)
    return _report_from_rows(rows)


def render_table(report: dict) -> str:
    """Fixed-width text table of the report; accuracies shown as percent."""

    def pct(x: float) -> str:
        return f"{100.0 * x:.2f}"

    lines = []
    header = f"{'experiment':<28} {'baseline':>9} {'dtd':>9} {'delta':>8}"
    lines.append(header)
    lines.append("-" * len(header))
    for name, per_method in report["cells"].items():
        base, dtd = per_method.get("baseline"), per_method.get("dtd")
        pair = report["pairs"].get(name)
        base_s = pct(base["mean_accuracy"]) if base else "-"
        dtd_s = pct(dtd["mean_accuracy"]) if dtd else "-"
        delta_s = f"{100.0 * pair['delta']:+.3f}" if pair else "-"
        lines.append(f"{name:<28} {base_s:>9} {dtd_s:>9} {delta_s:>8}")
    if report["n_pairs"]:
        lines.append("")
        lines.append(f"pairs {report['n_pairs']}  wins {report['wins']}  "
                     f"ties {report['ties']}  losses {report['losses']}  "
                     f"win_rate {report['win_rate']:.3f}  "
                     f"win_or_tie_rate {report['win_or_tie_rate']:.3f}")
    return "\n".join(lines) + "\n"


_TOP_KEYS = {"name", "stream", "detector", "mode", "method", "race_len", "K", "eta", "seeds", "out"}


def config_from_mapping(mapping: dict, default_name: str = "experiment") -> ExperimentConfig:
    """Map a parsed config mapping onto an ExperimentConfig, which checks the values."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"config must be a mapping, got {type(mapping).__name__}")
    unknown = set(mapping) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown, key=str)}")
    if "race_len" in mapping and "K" in mapping:
        raise ConfigError("give race_len or K, not both")

    stream_map = mapping.get("stream")
    if not isinstance(stream_map, dict) or "kind" not in stream_map:
        raise ConfigError("config needs a stream mapping with a kind")
    if "seed" in stream_map:
        raise ConfigError("stream.seed is not configurable; per-run seeds come from 'seeds'")
    stream_fields = {f.name for f in dataclasses.fields(StreamConfig)} - {"seed"}
    unknown = set(stream_map) - stream_fields
    if unknown:
        raise ConfigError(f"unknown stream keys: {sorted(unknown, key=str)}")
    stream = StreamConfig(**stream_map)
    # StreamConfig cannot tell a key given at its default from one left out
    unread = unread_fields(stream.kind, stream_map)
    if unread:
        raise ConfigError(f"{stream.kind} streams do not read {', '.join(unread)}")

    det_map = mapping.get("detector")
    if not isinstance(det_map, dict) or "kind" not in det_map:
        raise ConfigError("config needs a detector mapping with a kind")
    kwargs = {k: mapping[k] for k in ("method", "mode", "race_len", "eta", "seeds", "out")
              if k in mapping}
    if "K" in mapping:
        kwargs["race_len"] = mapping["K"]
    return ExperimentConfig(name=mapping.get("name", default_name), stream=stream,
                            detector=det_map["kind"],
                            detector_overrides={k: v for k, v in det_map.items() if k != "kind"},
                            **kwargs)


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """libyaml's safe loader where PyYAML has it: yaml.safe_load's mappings, five
    times faster, but a key repeated in one mapping (safe_load keeps its last value) is an error."""

    def construct_mapping(self, node, deep=False):
        keys = []  # a list: == compares keys as a dict does, unhashable ones too
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # merged keys may be overridden
                key = self.construct_object(key_node, deep=deep)
                if key in keys:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found repeated key {key!r}", key_node.start_mark)
                keys.append(key)
        return super().construct_mapping(node, deep)


def load_config(path: str | Path) -> ExperimentConfig:
    """Load one YAML experiment config; the file stem is the default name."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        mapping = yaml.load(text, Loader=_ConfigLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    try:
        return config_from_mapping(mapping, default_name=path.stem)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_config_dir(path: str | Path) -> list[ExperimentConfig]:
    """Load every *.yaml / *.yml under a directory, sorted by filename."""
    root = Path(path)
    if root.is_file():
        return [load_config(root)]
    if not root.is_dir():
        raise ConfigError(f"config path {root} is neither a file nor a directory")
    files = sorted(p for p in root.iterdir() if p.suffix in (".yaml", ".yml"))
    if not files:
        raise ConfigError(f"no YAML configs under {root}")
    return [load_config(p) for p in files]
