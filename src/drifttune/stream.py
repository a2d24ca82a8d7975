"""Chunked data streams: synthetic drift generators and CSV ingestion.

A stream is a fixed-length sequence of chunks; each chunk carries a feature
matrix and integer labels. Synthetic chunk content depends only on
(config, seed, chunk index): chunk i draws from the PCG64 generator that
``SeedSequence((seed, i))`` seeds, so any chunk can be produced
independently of consumption order and repeated runs see identical data.

Seeding builds no numpy objects per chunk: a stream runs SeedSequence's
uint32 hash steps on ``SEED_BLOCK`` indices at once and sets each chunk's
seeded PCG64 state on the one generator it owns, so do not share a stream
across threads. Memory does not grow with ``n_chunks``.

Drift layout: the active concept advances every ``drift_period`` chunks. SEA
cycles four boundary thresholds, Sine and Mixed alternate between a labeling
rule and its complement. With the 100 x 1000 defaults that is nine abrupt
drifts per stream.

Features are drawn with ``Generator.random`` and scaled in place where the
range is not [0, 1). numpy computes ``uniform(low, high)`` as
``low + (high - low) * next_double``, the double ``random`` returns, so the
bits are those of ``uniform(0, high)`` at a lower cost. A complement concept
takes the complementary comparison (``>=`` for ``<``), which on non-NaN
values is ``1 - y`` without the extra pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Iterator

import numpy as np

from .errors import ConfigError, IngestError, ModelError, check_count, check_real

SEA_THRESHOLDS = (8.0, 9.0, 7.0, 9.5)

SYNTHETIC_KINDS = ("sea", "sine", "mixed")
STREAM_KINDS = SYNTHETIC_KINDS + ("csv",)
# the StreamConfig fields each kind reads besides kind, seed and chunk_size
_SYNTHETIC_FIELDS = ("n_chunks", "drift_period")
_READ_FIELDS = {"sea": _SYNTHETIC_FIELDS + ("noise",), "sine": _SYNTHETIC_FIELDS,
                "mixed": _SYNTHETIC_FIELDS, "csv": ("csv_path", "csv_has_header")}

# Chunk indices seeded per vectorized pass (a stream keeps one block); then
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx)
# and PCG64's 128-bit LCG multiplier (pcg64.h).
SEED_BLOCK = 1024
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@dataclass(frozen=True, eq=False)
class Chunk:
    """One batch of instances: a 2-d feature matrix and one integer (or bool)
    label per row. Arrays are read-only views. An empty chunk can be built,
    but a model neither trains nor scores on one. A chunk compares and
    hashes by identity.

    ``cache`` holds values derived from the arrays, such as the class
    statistics the model computes once per chunk.
    """

    index: int
    X: np.ndarray
    y: np.ndarray
    cache: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.X.ndim != 2 or self.y.ndim != 1 or self.y.dtype.kind not in "biu" \
                or self.X.shape[0] != self.y.shape[0]:
            raise ModelError(f"chunk {self.index} needs a 2-d feature matrix and a 1-d integer "
                             f"label per row, got X {self.X.shape} and y {self.y.shape} {self.y.dtype}")
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
        check_count("seed", self.seed)
        check_count("n_chunks", self.n_chunks, minimum=1)
        if self.n_chunks >= 2**32:
            raise ConfigError(f"n_chunks must be below 2**32, got {self.n_chunks}")
        check_count("chunk_size", self.chunk_size, minimum=1)
        check_count("drift_period", self.drift_period, minimum=1)
        check_real("noise", self.noise)
        if not 0.0 <= self.noise <= 0.5:
            raise ConfigError("noise must lie in [0, 0.5]")
        if self.csv_path is not None and not isinstance(self.csv_path, str):
            raise ConfigError(f"csv_path must be a string, got {self.csv_path!r}")
        if not isinstance(self.csv_has_header, bool):
            raise ConfigError(f"csv_has_header must be true or false, got {self.csv_has_header!r}")
        if self.kind == "csv" and not self.csv_path:
            raise ConfigError("csv streams need csv_path")
        unread = unread_fields(self.kind, [f.name for f in fields(self)
                                           if getattr(self, f.name) != f.default])
        if unread:
            raise ConfigError(f"{self.kind} streams do not read {', '.join(unread)}")

    @property
    def total_instances(self) -> int:
        return self.n_chunks * self.chunk_size


def unread_fields(kind: str, names) -> list[str]:
    """The sorted ``StreamConfig`` field names among ``names`` that a stream
    of ``kind`` does not read; every kind reads its seed and chunk size."""
    return sorted(set(names) - {"kind", "seed", "chunk_size", *_READ_FIELDS[kind]})


def _hashmix(h: int, mult: int):
    """SeedSequence's hashmix, stepping its own running hash constant ``h``."""
    def step(value: np.ndarray) -> np.ndarray:
        nonlocal h
        xor, h = np.uint32(h), h * mult & 0xFFFFFFFF
        value = (value ^ xor) * np.uint32(h)
        return value ^ (value >> 16)
    return step


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * np.uint32(0xCA01F9DD) - y * np.uint32(0x4973F715)  # MIX_MULT_L, MIX_MULT_R
    return value ^ (value >> 16)


def _block_words(seed: int, start: int, n: int) -> np.ndarray:
    """Rows of ``SeedSequence((seed, i)).generate_state(4, np.uint64)``, i in [start, start + n)."""
    entropy = [np.full(n, seed >> s & 0xFFFFFFFF, np.uint32) for s in range(0, max(seed.bit_length(), 1), 32)]
    entropy.append(np.arange(start, start + n, dtype=np.uint32))
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in (entropy + [np.zeros(n, np.uint32)] * _POOL_SIZE)[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for extra in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(extra))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    words = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)], axis=1)
    return words.astype("<u4").view("<u8").astype(np.uint64)  # low word first, as numpy does


def _flip_labels(y: np.ndarray, noise: float, rng: np.random.Generator) -> np.ndarray:
    # Noise draws happen after the feature draws, so noisy and clean variants
    # of the same seed share identical feature matrices and rule labels.
    if noise <= 0.0:
        return y
    flips = rng.random(y.shape[0]) < noise
    return np.where(flips, 1 - y, y)


def sea_concept(index: int, drift_period: int) -> int:
    return (index // drift_period) % len(SEA_THRESHOLDS)


def _sea_chunk(cfg: StreamConfig, index: int, rng: np.random.Generator) -> Chunk:
    X = rng.random((cfg.chunk_size, 3))
    X *= 10.0
    threshold = SEA_THRESHOLDS[sea_concept(index, cfg.drift_period)]
    y = (X[:, 0] + X[:, 1] <= threshold).astype(np.int64)
    y = _flip_labels(y, cfg.noise, rng)
    return Chunk(index, X, y)


def _sine_chunk(cfg: StreamConfig, index: int, rng: np.random.Generator) -> Chunk:
    X = rng.random((cfg.chunk_size, 2))
    rule = np.greater_equal if (index // cfg.drift_period) % 2 == 1 else np.less
    return Chunk(index, X, rule(X[:, 1], np.sin(X[:, 0])).astype(np.int64))


def _mixed_chunk(cfg: StreamConfig, index: int, rng: np.random.Generator) -> Chunk:
    booleans = rng.integers(0, 2, size=(cfg.chunk_size, 2)).astype(np.float64)
    X = np.column_stack([booleans, rng.random((cfg.chunk_size, 2))])
    curve = 0.5 + 0.3 * np.sin(3.0 * np.pi * X[:, 2])
    votes = (X[:, 0] == 1.0).astype(np.int64) + (X[:, 1] == 1.0).astype(np.int64) + (X[:, 3] < curve)
    rule = np.less if (index // cfg.drift_period) % 2 == 1 else np.greater_equal
    return Chunk(index, X, rule(votes, 2).astype(np.int64))


_GENERATORS = {"sea": _sea_chunk, "sine": _sine_chunk, "mixed": _mixed_chunk}


def _load_csv(cfg: StreamConfig) -> list[Chunk]:
    rows: list[list[float]] = []
    labels: list[int] = []
    width: int | None = None
    start = 2 if cfg.csv_has_header else 1
    try:
        with open(cfg.csv_path, "r", encoding="utf-8-sig") as fh:
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
        if not -2**63 <= label < 2**63:
            raise IngestError(f"line {lineno}: label {label} is outside the int64 range")
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
    """Immutable chunk sequence. Synthetic chunks are generated lazily; not thread-safe."""

    def __init__(self, config: StreamConfig):
        self.config = config
        self._csv_chunks = _load_csv(config) if config.kind == "csv" else None
        self._rng = np.random.Generator(np.random.PCG64(0))  # reseeded before every chunk
        self._block_start = -1

    def __len__(self) -> int:
        if self._csv_chunks is not None:
            return len(self._csv_chunks)
        return self.config.n_chunks

    def chunk(self, index: int) -> Chunk:
        if not 0 <= index < len(self):
            raise ConfigError(f"chunk index {index} out of range [0, {len(self)})")
        if self._csv_chunks is not None:
            return self._csv_chunks[index]
        # set the state that PCG64(SeedSequence((seed, index))) starts in
        start = index - index % SEED_BLOCK
        if start != self._block_start:
            self._block = _block_words(self.config.seed, start, min(SEED_BLOCK, len(self) - start))
            self._block_start = start
        w0, w1, w2, w3 = self._block[index - start].tolist()
        inc = ((w2 << 64 | w3) << 1 | 1) % 2**128
        state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) % 2**128
        self._rng.bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        return _GENERATORS[self.config.kind](self.config, index, self._rng)

    def __iter__(self) -> Iterator[Chunk]:
        for i in range(len(self)):
            yield self.chunk(i)


def make_stream(config: StreamConfig) -> Stream:
    return Stream(config)
