"""Chunked data streams: synthetic drift generators and CSV ingestion.

A stream is a fixed-length sequence of chunks; each chunk carries a feature
matrix and integer labels. Synthetic chunk content depends only on
(config, seed, chunk index): chunk i draws from the PCG64 generator that
``SeedSequence((seed, i))`` seeds, so any chunk can be produced
independently of consumption order and repeated runs see identical data.

Seeding builds no numpy objects per chunk: a stream runs SeedSequence's
uint32 hash steps on ``SEED_BLOCK`` indices at once, turns each index's words
into its PCG64 (state, increment) pair in the same pass, and sets each chunk's
pair on the one generator it owns through one reused state mapping, so do not
share a stream across threads. Memory does not grow with ``n_chunks``.

Drift layout: the active concept advances every ``drift_period`` chunks. SEA
cycles four boundary thresholds, Sine and Mixed alternate between a labeling
rule and its complement. With the 100 x 1000 defaults that is nine abrupt
drifts per stream.

A stream builds a window of consecutive chunks at once: one feature block
that each chunk's generator state draws its own rows into, one label pass
over the block, and each chunk a read-only row view of both blocks, made
without checking again what the blocks passed. The bits stay per chunk;
only the bookkeeping around them is batched. Features are drawn with
``Generator.random(out=...)`` and scaled in place where the range is not
[0, 1). numpy computes ``uniform(low, high)`` as
``low + (high - low) * next_double``, the double ``random`` returns, so the
bits are those of ``uniform(0, high)`` at a lower cost. A complement concept
flips the rule's boolean on its chunks' rows, which is ``1 - y``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
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
_MASK_128 = 2**128 - 1


class Chunk:
    """One batch of instances: a 2-d feature matrix and one integer (or bool)
    label per row, read-only row views of chunk ``position`` of ``window``.
    A chunk built by hand is the one chunk of a window over its own arrays,
    and its ``index``, which traces record and errors name, must be an int
    (not a bool) >= 0. An empty chunk can be built, but a model neither
    trains nor scores on one. A chunk compares and hashes by identity.

    ``trained`` is the classifier's memo of the model states trained on the
    chunk, keyed by their parent state.
    """

    __slots__ = ("index", "X", "y", "window", "position", "trained", "__weakref__")

    def __init__(self, index: int, X: np.ndarray, y: np.ndarray):
        if not isinstance(index, int) or isinstance(index, bool) or index < 0:
            raise ModelError(f"a chunk index must be an int (not a bool) >= 0, got {index!r}")
        self.window = Window(X, y, [0])  # checks the rows before their count is read
        self.window.starts.append(X.shape[0])
        self.index, self.X, self.y, self.position, self.trained = index, X, y, 0, {}

    def __len__(self) -> int:
        return self.X.shape[0]

    def __repr__(self) -> str:
        return f"Chunk(index={self.index}, rows={self.X.shape[0]})"


class Window:
    """Consecutive chunks of one stream pass, built as one block of rows:
    ``X`` holds their features and ``y`` their labels, and chunk
    ``position`` of the window is rows ``starts[position]`` to
    ``starts[position + 1] - 1``, row views of both.

    Building a window is the one check of a chunk's rows: ``X`` must be a
    2-d bool, integer or float ndarray with at least one feature column and
    ``y`` a 1-d integer (or bool) ndarray with one label per row; both are
    then made read-only. A model that has stopped training scores the rows
    of several chunks of a window in one kernel call and counts each chunk's
    correct labels against ``y``. A window refers to its blocks, not to its
    chunks, so a pass's chunks make no reference cycle and are freed as soon
    as nothing uses them.
    """

    __slots__ = ("X", "y", "starts")

    def __init__(self, X: np.ndarray, y: np.ndarray, starts: list[int]):
        if not (isinstance(X, np.ndarray) and isinstance(y, np.ndarray) and X.ndim == 2 and y.ndim == 1
                and X.dtype.kind in "biuf" and X.shape[1] and y.dtype.kind in "biu"
                and X.shape[0] == y.shape[0]):
            raise ModelError("a chunk needs a 2-d real feature ndarray with at least one column and "
                             "a 1-d integer label ndarray with one label per row, got "
                             f"X {getattr(X, 'shape', type(X))} {getattr(X, 'dtype', '')} "
                             f"and y {getattr(y, 'shape', type(y))} {getattr(y, 'dtype', '')}")
        X.setflags(write=False)
        y.setflags(write=False)
        self.X, self.y, self.starts = X, y, starts

    def rows_from(self, position: int, stop: int) -> np.ndarray:
        """The features of the rows of chunks ``position`` to ``stop - 1``, a view of the block."""
        return self.X[self.starts[position]:self.starts[stop]]


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


def _block_states(seed: int, start: int, n: int) -> list[tuple[int, int]]:
    """``(state, inc)`` that ``PCG64(SeedSequence((seed, i)))`` starts in, i in [start, start + n)."""
    states = []
    for w0, w1, w2, w3 in _block_words(seed, start, n).tolist():
        inc = (w2 << 65 | w3 << 1 | 1) & _MASK_128
        states.append((((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK_128, inc))
    return states


def sea_concept(index: int, drift_period: int) -> int:
    return (index // drift_period) % len(SEA_THRESHOLDS)


def _periods(cfg: StreamConfig, first: int, stop: int) -> list[tuple[int, int, int]]:
    """``(a, b, index)`` for each run of chunks in [first, stop) that share a
    concept period: rows a to b - 1 of their block, from chunk ``index`` on."""
    runs, index = [], first
    while index < stop:
        end = min(stop, index - index % cfg.drift_period + cfg.drift_period)
        runs.append(((index - first) * cfg.chunk_size, (end - first) * cfg.chunk_size, index))
        index = end
    return runs


def _complement(cfg: StreamConfig, first: int, stop: int, holds: np.ndarray) -> np.ndarray:
    """``holds`` negated in place on the rows of chunks in an odd concept
    period, where sine and mixed take the complementary rule; as int64 labels."""
    for a, b, index in _periods(cfg, first, stop):
        if index // cfg.drift_period % 2 == 1:
            np.logical_not(holds[a:b], out=holds[a:b])
    return holds.astype(np.int64)


def _sea_block(cfg: StreamConfig, first: int, stop: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.chunk_size
    X = np.empty(((stop - first) * n, 3))
    # Noise draws follow each chunk's feature draws, so noisy and clean
    # variants of the same seed share identical feature matrices and rule labels.
    flips = np.empty(X.shape[0]) if cfg.noise > 0.0 else None
    for a, rng in zip(range(0, X.shape[0], n), rngs):
        rng.random(out=X[a:a + n])
        if flips is not None:
            rng.random(out=flips[a:a + n])
    X *= 10.0
    total = X[:, 0] + X[:, 1]
    below = np.empty(X.shape[0], dtype=bool)
    for a, b, index in _periods(cfg, first, stop):
        np.less_equal(total[a:b], SEA_THRESHOLDS[sea_concept(index, cfg.drift_period)], out=below[a:b])
    if flips is not None:
        below ^= flips < cfg.noise
    return X, below.astype(np.int64)


def _sine_block(cfg: StreamConfig, first: int, stop: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.chunk_size
    X = np.empty(((stop - first) * n, 2))
    for a, rng in zip(range(0, X.shape[0], n), rngs):
        rng.random(out=X[a:a + n])
    return X, _complement(cfg, first, stop, X[:, 1] < np.sin(X[:, 0]))


def _mixed_block(cfg: StreamConfig, first: int, stop: int, rngs) -> tuple[np.ndarray, np.ndarray]:
    n = cfg.chunk_size
    X = np.empty(((stop - first) * n, 4))
    reals = np.empty((X.shape[0], 2))
    for a, rng in zip(range(0, X.shape[0], n), rngs):
        X[a:a + n, :2] = rng.integers(0, 2, size=(n, 2))
        rng.random(out=reals[a:a + n])
    X[:, 2:] = reals
    curve = 0.5 + 0.3 * np.sin(3.0 * np.pi * X[:, 2])
    votes = (X[:, 0] == 1.0).astype(np.int64) + (X[:, 1] == 1.0).astype(np.int64) + (X[:, 3] < curve)
    return X, _complement(cfg, first, stop, votes >= 2)


# Each builds the feature block and labels of chunks [first, stop), drawing
# chunk first + k's rows from the k-th generator ``rngs`` yields.
_BLOCKS = {"sea": _sea_block, "sine": _sine_block, "mixed": _mixed_block}

# A CSV number, with optional spaces or tabs around it: ASCII digits only,
# no digit-group underscores; and the non-finite spellings float() takes.
_NUMBER = re.compile(r"[ \t]*[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?[ \t]*")
_INTEGER = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_NON_FINITE = re.compile(r"[ \t]*[+-]?(?:inf|infinity|nan)[ \t]*", re.IGNORECASE)


def _load_csv(cfg: StreamConfig) -> tuple[np.ndarray, np.ndarray]:
    """The file's feature matrix and labels, both read-only."""
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
    for lineno, line in enumerate(lines, start):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) < 2:
            raise IngestError(f"line {lineno}: expected at least one feature and a label")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise IngestError(f"line {lineno}: expected {width} columns, found {len(parts)}")
        texts, label = parts[:-1], parts[-1]
        if not all(map(_NUMBER.fullmatch, texts)):
            odd = [text for text in texts if not _NUMBER.fullmatch(text)]
            kind = "non-finite" if all(map(_NON_FINITE.fullmatch, odd)) else "non-numeric"
            raise IngestError(f"line {lineno}: {kind} feature value")
        features = [float(text) for text in texts]
        if not all(map(math.isfinite, features)):  # a finite spelling can overflow to inf
            raise IngestError(f"line {lineno}: non-finite feature value")
        if not _INTEGER.fullmatch(label):
            raise IngestError(f"line {lineno}: label {label.strip()!r} is not an integer")
        value = int(label)
        if not -2**63 <= value < 2**63:
            raise IngestError(f"line {lineno}: label {value} is outside the int64 range")
        rows.append(features)
        labels.append(value)
    if not rows:
        raise IngestError(f"{cfg.csv_path}: no data rows")
    X = np.asarray(rows, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    X.setflags(write=False)
    y.setflags(write=False)
    return X, y


class Stream:
    """Immutable chunk sequence, built a window of chunks at a time. Synthetic
    chunks are generated on request; not thread-safe.

    :meth:`window` builds consecutive chunks as row views of one feature
    block and one label block: a synthetic stream draws each chunk's rows
    into the block from that chunk's seeded generator state and labels the
    whole block in one pass; a CSV stream hands out slices of the arrays it
    loaded. A chunk from :meth:`chunk` or from iteration is a one-chunk window.
    """

    def __init__(self, config: StreamConfig):
        self.config = config
        self._csv = _load_csv(config) if config.kind == "csv" else None
        self._n_chunks = (config.n_chunks if self._csv is None
                          else -(-self._csv[1].shape[0] // config.chunk_size))
        self._rng = np.random.Generator(np.random.PCG64(0))  # reseeded before every chunk
        # the one state mapping the generator is set from, with each chunk's pair in it
        self._pcg = {"bit_generator": "PCG64", "state": {"state": 0, "inc": 0},
                     "has_uint32": 0, "uinteger": 0}
        self._seed_start = -1
        self._seed_states: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return self._n_chunks

    def _seeded(self, first: int, stop: int) -> Iterator[np.random.Generator]:
        """This stream's generator once per chunk index in [first, stop), each
        time in the state that PCG64(SeedSequence((seed, index))) starts in."""
        bit_generator, mapping = self._rng.bit_generator, self._pcg
        pair = mapping["state"]
        for index in range(first, stop):
            start = index - index % SEED_BLOCK
            if start != self._seed_start:
                self._seed_states = _block_states(self.config.seed, start,
                                                  min(SEED_BLOCK, len(self) - start))
                self._seed_start = start
            pair["state"], pair["inc"] = self._seed_states[index - start]
            bit_generator.state = mapping
            yield self._rng

    def _block(self, first: int, stop: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
        """The features and labels of chunks ``first`` to ``stop - 1``, and
        where each chunk's rows start in them, ending with the row count."""
        size = self.config.chunk_size
        if self._csv is not None:
            X, y = self._csv
            lo = first * size
            # the final chunk may be shorter than chunk_size; empty tails never occur
            starts = [min(i * size, y.shape[0]) - lo for i in range(first, stop + 1)]
            return X[lo:lo + starts[-1]], y[lo:lo + starts[-1]], starts
        X, y = _BLOCKS[self.config.kind](self.config, first, stop, self._seeded(first, stop))
        return X, y, list(range(0, X.shape[0] + 1, size))

    def window(self, first: int, stop: int) -> list[Chunk]:
        """Chunks ``first`` to ``stop - 1``: read-only row views of one
        feature block and one label block, each chunk of one :class:`Window`."""
        if not 0 <= first < stop <= len(self):
            raise ConfigError(f"window [{first}, {stop}) out of range [0, {len(self)})")
        X, y, starts = self._block(first, stop)
        window = Window(X, y, starts)
        chunks = []
        for position in range(stop - first):
            a, b = starts[position], starts[position + 1]
            # the window checked its blocks, so its row views skip Chunk.__init__
            chunk = Chunk.__new__(Chunk)
            chunk.index, chunk.X, chunk.y = first + position, X[a:b], y[a:b]
            chunk.window, chunk.position, chunk.trained = window, position, {}
            chunks.append(chunk)
        return chunks

    def chunk(self, index: int) -> Chunk:
        """Chunk ``index``, built as a one-chunk window."""
        if not 0 <= index < len(self):
            raise ConfigError(f"chunk index {index} out of range [0, {len(self)})")
        return self.window(index, index + 1)[0]

    def __iter__(self) -> Iterator[Chunk]:
        for i in range(len(self)):
            yield self.chunk(i)


def make_stream(config: StreamConfig) -> Stream:
    return Stream(config)
