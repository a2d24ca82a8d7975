"""Chunked data streams: synthetic drift generators and CSV ingestion.

A stream is a fixed-length sequence of chunks; each chunk carries a feature
matrix and integer labels. Synthetic chunk content depends only on
(config, seed, chunk index) through one PCG64 substream per chunk index, so
any chunk can be produced independently of consumption order and repeated
runs see identical data.

Drift layout: the active concept advances every ``drift_period`` chunks. SEA
cycles four boundary thresholds, Sine and Mixed alternate between a labeling
rule and its complement. With the 100 x 1000 defaults that is nine abrupt
drifts per stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import ConfigError, IngestError

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

SYNTHETIC_KINDS = ("sea", "sine", "mixed")
STREAM_KINDS = SYNTHETIC_KINDS + ("csv",)


@dataclass(frozen=True)
class Chunk:
    """One non-empty batch of instances. Arrays are read-only views.

    ``cache`` holds values derived from the arrays, such as the class
    statistics the model computes once per chunk.
    """

    index: int
    X: np.ndarray
    y: np.ndarray
    cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.X.setflags(write=False)
        self.y.setflags(write=False)

    def __len__(self) -> int:
        return self.X.shape[0]


@dataclass(frozen=True)
class StreamConfig:
    kind: str
    seed: int = 0
    n_chunks: int = 100
    chunk_size: int = 1000
    drift_period: int = 10
    noise: float = 0.0
    csv_path: str | None = None
    csv_has_header: bool = False

    def __post_init__(self):
        if self.kind not in STREAM_KINDS:
            raise ConfigError(f"unknown stream kind {self.kind!r}, expected one of {STREAM_KINDS}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        if self.n_chunks < 1:
            raise ConfigError("n_chunks must be positive")
        if self.chunk_size < 1:
            raise ConfigError("chunk_size must be positive")
        if self.drift_period < 1:
            raise ConfigError("drift_period must be positive")
        if not 0.0 <= self.noise <= 0.5:
            raise ConfigError("noise must lie in [0, 0.5]")
        if self.noise > 0.0 and self.kind != "sea":
            raise ConfigError("label noise is only supported for sea streams")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("csv streams need csv_path")

    @property
    def total_instances(self) -> int:
        return self.n_chunks * self.chunk_size


def _chunk_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def _flip_labels(y: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    # Noise draws happen after the feature draws, so noisy and clean variants
    # of the same seed share identical feature matrices and rule labels.
    if noise <= 0.0:
        return y
    flips = rng.random(y.shape[0]) < noise
    return np.where(flips, 1 - y, y)


def sea_concept(index: int, drift_period: int) -> int:
    return (index // drift_period) % len(SEA_THRESHOLDS)


def _sea_chunk(cfg: StreamConfig, index: int) -> Chunk:
    rng = _chunk_rng(cfg.seed, index)
    X = rng.uniform(0.0, 10.0, size=(cfg.chunk_size, 3))
    threshold = SEA_THRESHOLDS[sea_concept(index, cfg.drift_period)]
    y = (X[:, 0] + X[:, 1] <= threshold).astype(np.int64)
    y = _flip_labels(y, cfg.noise, rng)
    return Chunk(index, X, y)


def _sine_chunk(cfg: StreamConfig, index: int) -> Chunk:
    rng = _chunk_rng(cfg.seed, index)
    X = rng.uniform(0.0, 1.0, size=(cfg.chunk_size, 2))
    y = (X[:, 1] < np.sin(X[:, 0])).astype(np.int64)
    if (index // cfg.drift_period) % 2 == 1:
        y = 1 - y
    return Chunk(index, X, y)


def _mixed_chunk(cfg: StreamConfig, index: int) -> Chunk:
    rng = _chunk_rng(cfg.seed, index)
    booleans = rng.integers(0, 2, size=(cfg.chunk_size, 2)).astype(np.float64)
    reals = rng.uniform(0.0, 1.0, size=(cfg.chunk_size, 2))
    X = np.column_stack([booleans, reals])
    curve = 0.5 + 0.3 * np.sin(3.0 * np.pi * X[:, 2])
    votes = (X[:, 0] == 1.0).astype(np.int64) + (X[:, 1] == 1.0).astype(np.int64) + (X[:, 3] < curve)
    y = (votes >= 2).astype(np.int64)
    if (index // cfg.drift_period) % 2 == 1:
        y = 1 - y
    return Chunk(index, X, y)


_GENERATORS = {"sea": _sea_chunk, "sine": _sine_chunk, "mixed": _mixed_chunk}


def _load_csv(cfg: StreamConfig) -> list[Chunk]:
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    start = 2 if cfg.csv_has_header else 1
    try:
        with open(cfg.csv_path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IngestError(f"cannot read {cfg.csv_path}: {exc}") from exc
    if cfg.csv_has_header and lines:
        lines = lines[1:]
    for offset, line in enumerate(lines):
        lineno = start + offset
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise IngestError(f"line {lineno}: expected at least one feature and a label")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise IngestError(f"line {lineno}: expected {width} columns, found {len(parts)}")
        try:
            features = [float(p) for p in parts[:-1]]
        except ValueError:
            raise IngestError(f"line {lineno}: non-numeric feature value") from None
        if not all(map(math.isfinite, features)):
            raise IngestError(f"line {lineno}: non-finite feature value")
        try:
            label = int(parts[-1].strip())
        except ValueError:
            raise IngestError(f"line {lineno}: label {parts[-1].strip()!r} is not an integer") from None
        rows.append(features)
        labels.append(label)
    if not rows:
        raise IngestError(f"{cfg.csv_path}: no data rows")
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    chunks = []
    for i in range(0, len(rows), cfg.chunk_size):
        # The final chunk may be shorter than chunk_size; empty tails never occur.
        chunks.append(Chunk(len(chunks), X[i : i + cfg.chunk_size].copy(), y[i : i + cfg.chunk_size].copy()))
    return chunks


class Stream:
    """Immutable chunk sequence. Synthetic chunks are generated lazily."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self._csv_chunks: list[Chunk] | None = None
        if config.kind == "csv":
            self._csv_chunks = _load_csv(config)

    def __len__(self) -> int:
        if self._csv_chunks is not None:
            return len(self._csv_chunks)
        return self.config.n_chunks

    def chunk(self, index: int) -> Chunk:
        if not 0 <= index < len(self):
            raise ConfigError(f"chunk index {index} out of range [0, {len(self)})")
        if self._csv_chunks is not None:
            return self._csv_chunks[index]
        return _GENERATORS[self.config.kind](self.config, index)

    def __iter__(self) -> Iterator[Chunk]:
        for i in range(len(self)):
            yield self.chunk(i)


def make_stream(config: StreamConfig) -> Stream:
    return Stream(config)
