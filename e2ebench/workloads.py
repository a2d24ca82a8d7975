"""The benchmark's workloads: closed-loop batch jobs over drifttune's public API.

One client runs one job at a time; the next job starts when the last one
ends. Every job of a run repeats the same inputs, run seeds
``seed..seed+N-1``, so every repetition must reproduce the first one's
output digest.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

# "tiny" shrinks every stream and seed count, for the smoke test
PROFILES = ("full", "tiny")


class SpeedProbe:
    """A fixed loop in the program's own mix of small numpy operations and
    Python arithmetic. Timed right before and right after each measured
    call, it tracks how fast the shared machine runs at that moment."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.X = rng.random((1000, 3))
        self.means = rng.random((2, 3))

    def ms(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for _ in range(60):
            diff = self.X[:, None, :] - self.means[None, :, :]
            total += float((diff * diff).sum(axis=2).argmin(axis=1).sum())
            for j in range(100):
                total += j * 0.5
        return 1000.0 * (time.perf_counter() - start)


@dataclass
class Call:
    """One timed call: ``runs`` runs of ``method`` (0 runs and no method for
    calls that are part of the job but not runs, such as ``report``).
    ``probe_ms`` is the mean of the speed probes just before and after it."""

    key: str
    method: str | None
    ms: float
    probe_ms: float
    runs: int


@dataclass
class JobResult:
    """What one job did: its timed calls and output digests."""

    calls: list[Call] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    instances: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def timed_s(self) -> float:
        return sum(c.ms for c in self.calls) / 1000.0

    @property
    def digest(self) -> str:
        h = hashlib.sha256()
        for key in sorted(self.digests):
            h.update(f"{key} {self.digests[key]}\n".encode())
        return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class SerialWorkload:
    """In-process runs, one ``run_experiment(..., write=False)`` call per
    (config, method, seed), timed one by one."""

    def __init__(self, dt, configs, seeds_per_job: int, seed: int):
        self.dt = dt
        self.probe = SpeedProbe()
        self.base_configs = configs
        self.seeds = tuple(range(seed, seed + seeds_per_job))
        self.tasks = []

    def setup(self, workdir: Path) -> None:
        replace = dataclasses.replace
        self.tasks = [(replace(config, seeds=(s,)), method, s)
                      for s in self.seeds
                      for config in self.base_configs
                      for method in self.dt.METHODS]

    def warm_up(self) -> None:
        config = self.tasks[0][0]
        for method in self.dt.METHODS:
            self.dt.harness.run_experiment(config, method=method, write=False)

    def job(self, before_run=None, after_run=None) -> JobResult:
        out = JobResult()
        probe_ms = self.probe.ms()
        for config, method, seed in self.tasks:
            out.attempted += 1
            if before_run is not None:
                before_run(method)
            key = f"{config.name}/{method}/seed{seed}"
            start = time.perf_counter()
            try:
                results = self.dt.harness.run_experiment(config, method=method, write=False)
            except Exception as exc:  # a failed run is counted, the job goes on
                out.failed += 1
                out.errors.append(f"{key}: {exc!r}")
                probe_ms = self.probe.ms()
                continue
            elapsed_ms = 1000.0 * (time.perf_counter() - start)
            after_ms = self.probe.ms()
            out.calls.append(Call(key, method, elapsed_ms, (probe_ms + after_ms) / 2, 1))
            probe_ms = after_ms
            trace = results[method].traces[0]
            if after_run is not None:
                after_run(method, trace)
            out.instances += config.stream.total_instances
            out.digests[key] = sha256_text(trace.to_csv_text())
        return out

    def close(self) -> None:
        pass


GRID_STREAMS = {
    "sea0": {"kind": "sea"},
    "sea10": {"kind": "sea", "noise": 0.10},
    "sea20": {"kind": "sea", "noise": 0.20},
    "sine": {"kind": "sine"},
    "mixed": {"kind": "mixed"},
}
DETECTORS = ("ddm", "ph", "kswin", "hddm_a", "hddm_w")
MODES = ("continual", "sporadic")


class GridWorkload:
    """The 50-cell grid through the CLI: ``suite`` with ``--parallel``
    workers into a fresh directory, once per (stream family, method), then
    ``report`` on it. Ten suite calls per job, not one, give the per-run
    time percentiles enough samples."""

    def __init__(self, dt, stream_size: dict, seeds_per_job: int, seed: int, parallel: int):
        self.dt = dt
        self.stream_size = stream_size
        self.seeds = list(range(seed, seed + seeds_per_job))
        self.parallel = parallel
        self.probe = SpeedProbe()
        self.workdir: Path | None = None
        self.config_dir: Path | None = None
        self.warm_dir: Path | None = None
        self.cells_per_family = len(DETECTORS) * len(MODES)

    def _cell_configs(self):
        for stream_name, stream in GRID_STREAMS.items():
            for detector in DETECTORS:
                for mode in MODES:
                    yield stream_name, f"{stream_name}_{detector}_{mode}", {
                        "stream": {**stream, **self.stream_size},
                        "detector": {"kind": detector},
                        "mode": mode,
                        "seeds": self.seeds,
                    }

    def setup(self, workdir: Path) -> None:
        self.workdir = Path(tempfile.mkdtemp(prefix="grid-", dir=workdir))
        self.config_dir = self.workdir / "configs"
        self.warm_dir = self.workdir / "warm"
        self.warm_dir.mkdir()
        for family in GRID_STREAMS:
            (self.config_dir / family).mkdir(parents=True)
        for i, (family, name, mapping) in enumerate(self._cell_configs()):
            text = yaml.safe_dump(mapping, sort_keys=True)
            (self.config_dir / family / f"{name}.yaml").write_text(text)
            if i == 0:
                (self.warm_dir / f"{name}.yaml").write_text(text)

    def cli(self, argv: list[str]) -> tuple[int, str]:
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            code = self.dt.cli.main(argv)
        return code, captured.getvalue()

    def _timed_cli(self, out: JobResult, key: str, method: str | None, runs: int,
                   argv: list[str]) -> tuple[int, str]:
        before_ms = self.probe.ms()
        start = time.perf_counter()
        code, text = self.cli(argv)
        elapsed_ms = 1000.0 * (time.perf_counter() - start)
        if code == 0:
            probe_ms = (before_ms + self.probe.ms()) / 2
            out.calls.append(Call(key, method, elapsed_ms, probe_ms, runs))
        return code, text

    def _suite_argv(self, config_dir: Path, out: Path, method: str) -> list[str]:
        return ["suite", "--config", str(config_dir), "--out", str(out),
                "--parallel", str(self.parallel), "--method", method]

    def warm_up(self) -> None:
        out = Path(tempfile.mkdtemp(prefix="warm-out-", dir=self.workdir))
        try:
            for method in self.dt.METHODS:
                code, text = self.cli(self._suite_argv(self.warm_dir, out, method))
                if code != 0:
                    raise RuntimeError(f"warm-up suite exited {code}: {text}")
        finally:
            shutil.rmtree(out)

    def job(self, before_run=None, after_run=None) -> JobResult:
        out = JobResult()
        runs = self.cells_per_family * len(self.seeds)
        instances = runs * self.stream_size["n_chunks"] * self.stream_size["chunk_size"]
        results = Path(tempfile.mkdtemp(prefix="results-", dir=self.workdir))
        try:
            for method in self.dt.METHODS:
                if before_run is not None:
                    before_run(method)
                for family in GRID_STREAMS:
                    out.attempted += runs
                    code, text = self._timed_cli(
                        out, f"suite/{family}/{method}", method, runs,
                        self._suite_argv(self.config_dir / family, results, method))
                    if code != 0:
                        out.failed += runs
                        out.errors.append(f"suite {family} --method {method} exited {code}: "
                                          f"{text.strip()}")
                        continue
                    out.instances += instances
            code, text = self._timed_cli(out, "report", None, 0,
                                         ["report", "--out", str(results)])
            if code != 0:
                out.failed = out.attempted
                out.errors.append(f"report exited {code}: {text.strip()}")
            for path in sorted(results.rglob("*")):
                if path.is_file() and path.suffix in (".csv", ".json"):
                    out.digests[path.relative_to(results).as_posix()] = \
                        hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            shutil.rmtree(results)
        return out

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def make_workload(dt, name: str, profile: str, seed: int):
    """Build a workload by name. ``profile`` "tiny" shrinks every stream."""
    tiny = profile == "tiny"
    if name == "sea-ddm-continual":
        stream = dt.StreamConfig(kind="sea", n_chunks=12 if tiny else 100,
                                 chunk_size=50 if tiny else 1000, drift_period=10)
        config = dt.ExperimentConfig(name="sea_ddm", stream=stream, detector="ddm",
                                     mode="continual")
        return SerialWorkload(dt, [config], seeds_per_job=2 if tiny else 10, seed=seed)
    if name == "sine-smallchunk-sporadic":
        stream = dt.StreamConfig(kind="sine", n_chunks=60 if tiny else 1000,
                                 chunk_size=20 if tiny else 100, drift_period=10)
        configs = [dt.ExperimentConfig(name=f"sine_{det}", stream=stream, detector=det,
                                       mode="sporadic")
                   for det in DETECTORS]
        return SerialWorkload(dt, configs, seeds_per_job=1 if tiny else 4, seed=seed)
    if name == "grid-suite":
        size = ({"n_chunks": 12, "chunk_size": 50} if tiny
                else {"n_chunks": 100, "chunk_size": 1000})
        return GridWorkload(dt, size, seeds_per_job=1, seed=seed, parallel=2)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sea-ddm-continual", "sine-smallchunk-sporadic", "grid-suite")
