"""Stream generator and CSV ingestion behavior."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drifttune import stream as stream_module
from drifttune.errors import ConfigError, IngestError, ModelError
from drifttune.stream import (
    SEA_THRESHOLDS,
    SEED_BLOCK,
    Chunk,
    StreamConfig,
    make_stream,
    sea_concept,
)


def sea(seed=0, **kw):
    kw.setdefault("n_chunks", 100)
    kw.setdefault("chunk_size", 1000)
    return make_stream(StreamConfig(kind="sea", seed=seed, **kw))


class TestSea:
    def test_label_rule_first_concept(self):
        chunk = sea().chunk(0)
        expected = (chunk.X[:, 0] + chunk.X[:, 1] <= 8.0).astype(np.int64)
        assert np.array_equal(chunk.y, expected)
        # spot example: feature sums of 7 land inside the boundary, 17 outside
        assert 7.0 <= 8.0 and not 17.0 <= 8.0

    def test_boundary_cycles_every_drift_period(self):
        stream = sea(n_chunks=50, chunk_size=200)
        cycle = (8.0, 9.0, 7.0, 9.5)
        assert SEA_THRESHOLDS == cycle
        for index in range(50):
            assert sea_concept(index, 10) == (index // 10) % 4
            chunk = stream.chunk(index)
            theta = cycle[(index // 10) % 4]
            assert np.array_equal(chunk.y, (chunk.X[:, 0] + chunk.X[:, 1] <= theta).astype(np.int64))

    def test_labeling_constant_within_period_changes_at_boundary(self):
        assert sea_concept(0, 10) == sea_concept(9, 10)
        assert sea_concept(9, 10) != sea_concept(10, 10)
        assert sea_concept(39, 10) != sea_concept(40, 10) or (39 // 10) % 4 == (40 // 10) % 4
        # full cycle returns to the first boundary
        assert sea_concept(40, 10) == sea_concept(0, 10)

    def test_feature_ranges(self):
        chunk = sea().chunk(3)
        assert chunk.X.shape == (1000, 3)
        assert chunk.X.min() >= 0.0 and chunk.X.max() <= 10.0

    def test_determinism_and_access_order(self):
        a = sea(seed=7)
        b = sea(seed=7)
        # access in different orders; content depends only on (config, index)
        a5 = a.chunk(5)
        b9 = b.chunk(9)
        b5 = b.chunk(5)
        a9 = a.chunk(9)
        assert np.array_equal(a5.X, b5.X) and np.array_equal(a5.y, b5.y)
        assert np.array_equal(a9.X, b9.X) and np.array_equal(a9.y, b9.y)

    def test_seeds_differ(self):
        x0 = sea(seed=0).chunk(0).X
        x1 = sea(seed=1).chunk(0).X
        assert not np.array_equal(x0, x1)

    def test_noise_preserves_features_and_flips_labels(self):
        clean = sea(seed=3)
        noisy = sea(seed=3, noise=0.10)
        flipped = 0
        for i in range(100):
            c, n = clean.chunk(i), noisy.chunk(i)
            assert np.array_equal(c.X, n.X)
            flipped += int((c.y != n.y).sum())
        fraction = flipped / clean.config.total_instances
        assert 0.09 <= fraction <= 0.11

    def test_noise_levels_share_features(self):
        base = sea(seed=11).chunk(4).X
        for noise in (0.10, 0.20):
            assert np.array_equal(sea(seed=11, noise=noise).chunk(4).X, base)

    def test_zero_noise_is_exact_rule(self):
        chunk = sea(seed=2, noise=0.0).chunk(17)
        theta = SEA_THRESHOLDS[sea_concept(17, 10)]
        assert np.array_equal(chunk.y, (chunk.X[:, 0] + chunk.X[:, 1] <= theta).astype(np.int64))


class TestSine:
    def test_label_rule_and_reversal(self):
        stream = make_stream(StreamConfig(kind="sine", seed=0, n_chunks=20, chunk_size=500))
        a = stream.chunk(0)
        rule = (a.X[:, 1] < np.sin(a.X[:, 0])).astype(np.int64)
        assert np.array_equal(a.y, rule)
        b = stream.chunk(10)
        rule_b = (b.X[:, 1] < np.sin(b.X[:, 0])).astype(np.int64)
        assert np.array_equal(b.y, 1 - rule_b)

    def test_point_examples(self):
        # x2=0.5 is below sin(1.0)~0.841 so the first concept labels it 1;
        # x2=0.9 is above, labeled 0
        assert 0.5 < math.sin(1.0) and not (0.9 < math.sin(1.0))

    def test_class_balance_matches_integral(self):
        stream = make_stream(StreamConfig(kind="sine", seed=0, n_chunks=100, chunk_size=1000))
        ys = np.concatenate([stream.chunk(i).y for i in range(100) if (i // 10) % 2 == 0])
        assert abs(float(ys.mean()) - (1.0 - math.cos(1.0))) <= 0.01

    def test_feature_ranges(self):
        chunk = make_stream(StreamConfig(kind="sine", seed=1, n_chunks=2, chunk_size=400)).chunk(1)
        assert chunk.X.shape == (400, 2)
        assert chunk.X.min() >= 0.0 and chunk.X.max() <= 1.0


class TestMixed:
    def test_label_rule_and_reversal(self):
        stream = make_stream(StreamConfig(kind="mixed", seed=5, n_chunks=20, chunk_size=500))
        for index, reversed_ in ((0, False), (10, True)):
            chunk = stream.chunk(index)
            curve = 0.5 + 0.3 * np.sin(3.0 * np.pi * chunk.X[:, 2])
            votes = (
                (chunk.X[:, 0] == 1.0).astype(int)
                + (chunk.X[:, 1] == 1.0).astype(int)
                + (chunk.X[:, 3] < curve).astype(int)
            )
            rule = (votes >= 2).astype(np.int64)
            assert np.array_equal(chunk.y, (1 - rule) if reversed_ else rule)

    def test_point_examples(self):
        # both booleans set: two conditions hold regardless of the reals
        assert 1 + 1 + 0 >= 2
        # no booleans set, y4 above the curve at x3=0.5 (curve=0.5+0.3*sin(1.5pi)=0.2)
        curve = 0.5 + 0.3 * math.sin(3.0 * math.pi * 0.5)
        assert math.isclose(curve, 0.2)
        assert not (0 + 0 + (0.99 < curve)) >= 2

    def test_feature_layout(self):
        chunk = make_stream(StreamConfig(kind="mixed", seed=0, n_chunks=2, chunk_size=600)).chunk(0)
        assert chunk.X.shape == (600, 4)
        assert set(np.unique(chunk.X[:, 0])) <= {0.0, 1.0}
        assert set(np.unique(chunk.X[:, 1])) <= {0.0, 1.0}
        assert chunk.X[:, 2:].min() >= 0.0 and chunk.X[:, 2:].max() <= 1.0

    def test_class_balance_matches_closed_form(self):
        # P(label=1) = P(both booleans) + P(exactly one boolean) * P(y4 < curve)
        #            = 0.25 + 0.5 * (0.5 + 0.2/pi)
        expected = 0.25 + 0.5 * (0.5 + 0.2 / math.pi)
        stream = make_stream(StreamConfig(kind="mixed", seed=0, n_chunks=100, chunk_size=1000))
        ys = np.concatenate([stream.chunk(i).y for i in range(100) if (i // 10) % 2 == 0])
        assert abs(float(ys.mean()) - expected) <= 0.01


class TestChunkObject:
    def test_arrays_read_only(self):
        chunk = sea(n_chunks=2, chunk_size=10).chunk(0)
        with pytest.raises(ValueError):
            chunk.X[0, 0] = 99.0
        with pytest.raises(ValueError):
            chunk.y[0] = 1

    def test_len(self):
        chunk = sea(n_chunks=2, chunk_size=10).chunk(1)
        assert len(chunk) == 10

    def test_iteration_and_bounds(self):
        stream = sea(n_chunks=3, chunk_size=5)
        assert len(stream) == 3
        assert [c.index for c in stream] == [0, 1, 2]
        with pytest.raises(ConfigError):
            stream.chunk(3)
        with pytest.raises(ConfigError):
            stream.chunk(-1)

    def test_total_instances(self):
        cfg = StreamConfig(kind="sea", n_chunks=7, chunk_size=11)
        assert cfg.total_instances == 77

    @pytest.mark.parametrize("X, y", [
        # one label for ten rows: a model would take their sum as a class mean
        (np.arange(20.0).reshape(10, 2), np.array([1])),
        (np.arange(20.0).reshape(10, 2), np.zeros((10, 1), dtype=np.int64)),
        (np.arange(10.0), np.zeros(10, dtype=np.int64)),
        (np.zeros((2, 2, 1)), np.zeros(2, dtype=np.int64)),
        # float labels would be truncated to classes 0 and 1
        (np.zeros((4, 1)), np.array([0.4, 0.6, 1.2, 1.9])),
        (np.zeros((2, 1)), np.array(["0", "1"])),
        # lists are not arrays, and the check converts nothing
        ([[1.0], [2.0]], [0, 1]),
        (np.zeros((2, 1)), [0, 1]),
        ([[1.0], [2.0]], np.array([0, 1])),
        # features a model cannot use: text, complex values that would lose
        # their imaginary parts, timestamps, and rows without a feature
        (np.array([["1.0"], ["2.0"]]), np.zeros(2, dtype=np.int64)),
        (np.array([[1.0 + 2.0j], [3.0]]), np.zeros(2, dtype=np.int64)),
        (np.array([["2020-01-01"], ["2020-01-02"]], dtype="datetime64[D]"), np.zeros(2, dtype=np.int64)),
        (np.zeros((2, 0)), np.zeros(2, dtype=np.int64)),
    ], ids=["rows", "2d-labels", "1d-features", "3d-features", "float-labels", "str-labels",
            "lists", "list-labels", "list-features", "str-features", "complex-features",
            "datetime-features", "no-features"])
    def test_arrays_that_do_not_fit_together_rejected(self, X, y):
        with pytest.raises(ModelError):
            Chunk(0, X, y)
        # a hand-built chunk is the one chunk of a window, and building the window makes the checks
        with pytest.raises(ModelError):
            stream_module.Window(X, y, [0, len(X)])

    @pytest.mark.parametrize("y", [np.array([0, 1, 1], dtype=np.uint8), np.array([True, False, True])],
                             ids=["uint8", "bool"])
    def test_unsigned_and_bool_labels_accepted(self, y):
        assert len(Chunk(0, np.zeros((3, 2)), y)) == 3

    @pytest.mark.parametrize("index", [1.5, "a", True, -3, None, np.int64(2)],
                             ids=["float", "str", "bool", "negative", "none", "numpy-int"])
    def test_an_index_that_is_not_a_count_rejected(self, index):
        # traces record the index and errors name it
        with pytest.raises(ModelError, match="chunk index"):
            Chunk(index, np.zeros((2, 1)), np.zeros(2, dtype=np.int64))

    @pytest.mark.parametrize("X", [np.zeros((3, 2), dtype=bool), np.zeros((3, 2), dtype=np.int32),
                                   np.zeros((3, 2), dtype=np.uint16), np.zeros((3, 2), dtype=np.float32)],
                             ids=["bool", "int32", "uint16", "float32"])
    def test_real_feature_dtypes_accepted(self, X):
        assert len(Chunk(0, X, np.zeros(3, dtype=np.int64))) == 3

    def test_an_empty_chunk_can_be_built(self):
        assert len(Chunk(0, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))) == 0

    def test_chunks_compare_and_hash_by_identity(self):
        # two chunks with equal arrays are still two chunks: a lineage keyed
        # on chunk objects must tell them apart
        a, b = (Chunk(0, np.zeros((2, 1)), np.zeros(2, dtype=np.int64)) for _ in range(2))
        assert a == a and a != b
        assert {a: 1, b: 2}[a] == 1


class TestConfigValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown stream kind"):
            StreamConfig(kind="gauss")

    @pytest.mark.parametrize("field,value", [
        ("n_chunks", 0), ("chunk_size", 0), ("drift_period", 0), ("seed", -1),
    ])
    def test_positive_counts(self, field, value):
        with pytest.raises(ConfigError):
            StreamConfig(kind="sea", **{field: value})

    @pytest.mark.parametrize("noise", [-0.1, 0.6])
    def test_noise_range(self, noise):
        with pytest.raises(ConfigError, match="noise"):
            StreamConfig(kind="sea", noise=noise)

    @pytest.mark.parametrize("kind", ["sine", "mixed"])
    def test_noise_rejected_off_sea(self, kind):
        with pytest.raises(ConfigError, match=f"{kind} streams do not read noise"):
            StreamConfig(kind=kind, noise=0.1)

    def test_csv_needs_path(self):
        with pytest.raises(ConfigError, match="csv_path"):
            StreamConfig(kind="csv")

    @pytest.mark.parametrize("field,value", [
        ("n_chunks", "4"), ("n_chunks", 4.5), ("n_chunks", True),
        ("chunk_size", 20.0), ("chunk_size", True),
        ("drift_period", 2.5), ("drift_period", "10"),
        ("seed", True), ("seed", 1.0),
        ("noise", "0.1"), ("noise", None), ("noise", False),
        # a truthy string header flag would silently drop the first data row
        ("csv_has_header", "no"), ("csv_has_header", 1), ("csv_has_header", None),
        ("csv_path", 5), ("csv_path", ["data.csv"]),
    ])
    def test_badly_typed_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            StreamConfig(kind="sea", **{field: value})

    @pytest.mark.parametrize("kind", ["sea", "sine", "mixed"])
    @pytest.mark.parametrize("field,value", [("csv_path", "x.csv"), ("csv_has_header", True)])
    def test_a_synthetic_kind_rejects_a_csv_field(self, kind, field, value):
        with pytest.raises(ConfigError, match=f"{kind} streams do not read {field}"):
            StreamConfig(kind=kind, **{field: value})

    @pytest.mark.parametrize("field,value", [("n_chunks", 7), ("drift_period", 5)])
    def test_a_csv_stream_rejects_a_synthetic_field(self, field, value):
        with pytest.raises(ConfigError, match=f"csv streams do not read {field}"):
            StreamConfig(kind="csv", csv_path="x.csv", **{field: value})

    def test_index_fits_one_word(self):
        with pytest.raises(ConfigError, match="n_chunks"):
            StreamConfig(kind="sea", n_chunks=2**32)
        assert StreamConfig(kind="sea", n_chunks=2**32 - 1).n_chunks == 2**32 - 1


def frozen_chunk(cfg: StreamConfig, index: int, rng) -> Chunk:
    """The generator formulas every recorded digest was drawn with, frozen
    here so that the generators in ``stream`` are checked against them and
    not against themselves: ``uniform`` draws, the flipped concept as
    ``1 - y``, sea noise drawn after the features, and mixed drawing
    ``integers`` before ``uniform``."""
    n = cfg.chunk_size
    if cfg.kind == "sea":
        X = rng.uniform(0.0, 10.0, size=(n, 3))
        y = (X[:, 0] + X[:, 1] <= SEA_THRESHOLDS[sea_concept(index, cfg.drift_period)]).astype(np.int64)
        if cfg.noise > 0.0:
            y = np.where(rng.random(n) < cfg.noise, 1 - y, y)
        return Chunk(index, X, y)
    if cfg.kind == "sine":
        X = rng.uniform(0.0, 1.0, size=(n, 2))
        y = (X[:, 1] < np.sin(X[:, 0])).astype(np.int64)
    else:
        booleans = rng.integers(0, 2, size=(n, 2)).astype(np.float64)
        X = np.column_stack([booleans, rng.uniform(0.0, 1.0, size=(n, 2))])
        curve = 0.5 + 0.3 * np.sin(3.0 * np.pi * X[:, 2])
        votes = (X[:, 0] == 1.0).astype(np.int64) + (X[:, 1] == 1.0).astype(np.int64) + (X[:, 3] < curve)
        y = (votes >= 2).astype(np.int64)
    if (index // cfg.drift_period) % 2 == 1:
        y = 1 - y
    return Chunk(index, X, y)


def reference_chunk(cfg: StreamConfig, index: int) -> Chunk:
    """The chunk as a freshly built per-chunk generator draws it by the frozen formulas."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((cfg.seed, index))))
    return frozen_chunk(cfg, index, rng)


class UnitDraws:
    """A generator stand-in whose doubles in [0, 1) are given: ``random``
    returns them and ``uniform`` scales them as numpy does."""

    def __init__(self, unit: np.ndarray):
        self.unit = unit

    def random(self, size=None, out=None):
        if out is None:
            return self.unit.reshape(size).copy()
        out[...] = self.unit.reshape(out.shape)
        return out

    def uniform(self, low, high, size):
        return low + (high - low) * self.unit.reshape(size)


def assert_same_bytes(chunk: Chunk, expected: Chunk):
    assert chunk.index == expected.index
    assert chunk.X.dtype == expected.X.dtype and chunk.X.tobytes() == expected.X.tobytes()
    assert chunk.y.dtype == expected.y.dtype and chunk.y.tobytes() == expected.y.tobytes()


# seeds up to 130 bits, with the 32- and 96-bit word boundaries drawn often:
# a seed of 4 or more words sends the index through SeedSequence's extra mixing
SEEDS = st.one_of(
    st.integers(0, 2**130 - 1),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128, 2**130 - 1]),
)
KINDS = st.sampled_from([("sea", 0.0), ("sea", 0.2), ("sine", 0.0), ("mixed", 0.0)])


@st.composite
def stream_configs(draw):
    kind, noise = draw(KINDS)
    return StreamConfig(kind=kind, seed=draw(SEEDS), n_chunks=draw(st.integers(1, 2 * SEED_BLOCK + 5)),
                        chunk_size=draw(st.integers(1, 12)), drift_period=draw(st.integers(1, 20)),
                        noise=noise)


@st.composite
def access_orders(draw, n_chunks):
    """Chunk indices in random order with repeats, plus the ones around each block edge."""
    edges = [i for b in range(SEED_BLOCK, n_chunks, SEED_BLOCK) for i in (b - 1, b)]
    indices = draw(st.lists(st.integers(0, n_chunks - 1), max_size=12)) + edges
    return draw(st.permutations(indices + indices[:3]))


@st.composite
def windows(draw, n_chunks):
    """``[first, stop)`` chunk ranges: random ones, plus one across each ``SEED_BLOCK`` edge."""
    ranges = []
    for _ in range(draw(st.integers(1, 4))):
        first = draw(st.integers(0, n_chunks - 1))
        ranges.append((first, draw(st.integers(first + 1, min(n_chunks, first + 25)))))
    for edge in range(SEED_BLOCK, n_chunks, SEED_BLOCK):
        ranges.append((edge - draw(st.integers(1, 3)), min(n_chunks, edge + draw(st.integers(1, 3)))))
    return draw(st.permutations(ranges))


class TestBlockSeeding:
    @settings(max_examples=200, deadline=None)
    @given(seed=SEEDS, start=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_block_words_equal_seed_sequence(self, seed, start, n):
        n = min(n, 2**32 - start)
        words = stream_module._block_words(seed, start, n)
        assert words.dtype == np.uint64 and words.shape == (n, 4)
        for offset in sorted({0, n // 2, n - 1}):
            expected = np.random.SeedSequence((seed, start + offset)).generate_state(4, np.uint64)
            assert np.array_equal(words[offset], expected)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cfg=stream_configs())
    def test_chunks_equal_per_chunk_generators(self, data, cfg):
        stream = make_stream(cfg)
        for index in data.draw(access_orders(cfg.n_chunks)):
            assert_same_bytes(stream.chunk(index), reference_chunk(cfg, index))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), cfg=stream_configs())
    def test_window_chunks_equal_per_chunk_generators(self, data, cfg):
        stream = make_stream(cfg)
        for first, stop in data.draw(windows(cfg.n_chunks)):
            chunks = stream.window(first, stop)
            window = chunks[0].window
            assert [(c.window, c.position) for c in chunks] == [(window, p) for p in range(stop - first)]
            stacked = np.vstack([c.X for c in chunks])
            assert window.X.tobytes() == stacked.tobytes() and not window.X.flags.writeable
            assert window.starts == [p * cfg.chunk_size for p in range(stop - first + 1)]
            stacked = np.concatenate([c.y for c in chunks])
            assert window.y.tobytes() == stacked.tobytes() and not window.y.flags.writeable
            for chunk in chunks:
                assert np.shares_memory(chunk.X, window.X) and np.shares_memory(chunk.y, window.y)
                assert_same_bytes(chunk, reference_chunk(cfg, chunk.index))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), first=stream_configs(), second_seed=SEEDS)
    def test_interleaved_streams_stay_independent(self, data, first, second_seed):
        second_cfg = dataclasses.replace(first, seed=second_seed)
        streams = [(make_stream(first), first), (make_stream(second_cfg), second_cfg)]
        for index in data.draw(access_orders(first.n_chunks)):
            for stream, cfg in streams:
                assert_same_bytes(stream.chunk(index), reference_chunk(cfg, index))

    def test_sine_rows_on_the_boundary_keep_the_frozen_label(self):
        # random draws almost never give x2 == sin(x1) exactly, so place rows there
        x1 = np.random.default_rng(3).random(8)
        unit = np.vstack([np.column_stack([x1, np.sin(x1)]), [[0.0, 0.0], [0.5, 0.1], [0.5, 0.9]]])
        cfg = StreamConfig(kind="sine", n_chunks=20, chunk_size=unit.shape[0])
        X, y = stream_module._sine_block(cfg, 9, 11, [UnitDraws(unit)] * 2)  # both concepts
        for position, index in enumerate((9, 10)):
            rows = slice(position * unit.shape[0], (position + 1) * unit.shape[0])
            assert_same_bytes(Chunk(index, X[rows], y[rows]), frozen_chunk(cfg, index, UnitDraws(unit)))

    def test_last_index_and_bounded_block(self):
        cfg = StreamConfig(kind="sine", seed=2**96 + 7, n_chunks=2**32 - 1, chunk_size=3)
        stream = make_stream(cfg)
        for index in (2**32 - 2, 0, 2**31, 2**32 - 2):
            assert_same_bytes(stream.chunk(index), reference_chunk(cfg, index))
            assert len(stream._seed_states) <= SEED_BLOCK


class TestCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    def test_chunking_with_partial_tail(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n7.0,8.0,1\n9.0,10.0,0\n")
        stream = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=2))
        assert len(stream) == 3
        assert [len(c) for c in stream] == [2, 2, 1]
        assert np.array_equal(stream.chunk(0).X, [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(stream.chunk(0).y, [0, 1])
        assert np.array_equal(stream.chunk(2).X, [[9.0, 10.0]])
        assert stream.chunk(1).index == 1

    def test_a_window_is_a_slice_of_the_loaded_rows(self, tmp_path):
        path = self.write(tmp_path, "".join(f"{i}.5,{i % 3}\n" for i in range(7)))
        stream = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=2))
        chunks = stream.window(1, 4)
        window = chunks[0].window
        assert window.starts == [0, 2, 4, 5]
        assert window.X.ravel().tolist() == [2.5, 3.5, 4.5, 5.5, 6.5]
        # views of the one array the stream loaded
        assert window.X.base is stream.chunk(0).X.base is not None
        for chunk in chunks:
            assert np.shares_memory(chunk.X, window.X)
            assert chunk.X.tolist() == stream.chunk(chunk.index).X.tolist()
            assert chunk.y.tolist() == stream.chunk(chunk.index).y.tolist()
        with pytest.raises(ConfigError, match="out of range"):
            stream.window(3, 5)

    def test_header_skipped(self, tmp_path):
        path = self.write(tmp_path, "f1,f2,label\n1.0,2.0,0\n3.0,4.0,1\n")
        stream = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10, csv_has_header=True))
        assert len(stream) == 1
        assert len(stream.chunk(0)) == 2

    def test_large_file_chunk_count(self, tmp_path):
        lines = "\n".join(f"{i % 7}.5,{i % 3},1" for i in range(45000))
        path = self.write(tmp_path, lines + "\n")
        stream = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=1000))
        assert len(stream) == 45
        assert all(len(stream.chunk(i)) == 1000 for i in (0, 22, 44))

    def test_non_numeric_feature_reports_line(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\n1.5,abc,0\n")
        with pytest.raises(IngestError, match="line 2: non-numeric feature"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    # Python's float() takes the first four, but none is a CSV number
    @pytest.mark.parametrize("bad", ["1_0.5", "\u0661\u0662", "\uff11.5", "1.5\u00a0", "0x1p3", "1e"])
    def test_a_feature_that_is_not_a_csv_number_reports_line(self, tmp_path, bad):
        path = self.write(tmp_path, f"1.0,2.0,0\n1.5,{bad},0\n")
        with pytest.raises(IngestError, match="line 2: non-numeric feature"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    # Python's int() takes the first three
    @pytest.mark.parametrize("label", ["1_0", "\u0663", "\uff11", "1.0", "1e3"])
    def test_a_label_that_is_not_a_csv_integer_reports_line(self, tmp_path, label):
        path = self.write(tmp_path, f"1.0,0\n2.0,{label}\n")
        with pytest.raises(IngestError, match=f"line 2: label {label!r} is not an integer"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_signs_exponents_and_padding_are_numbers(self, tmp_path):
        path = self.write(tmp_path, "+1.5, -.5 ,2.,1E-2,\t-3\n")
        chunk = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10)).chunk(0)
        assert chunk.X.tolist() == [[1.5, -0.5, 2.0, 0.01]]
        assert chunk.y.tolist() == [-3]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_feature_reports_line(self, tmp_path, bad):
        path = self.write(tmp_path, f"1.0,2.0,0\n1.5,{bad},0\n")
        with pytest.raises(IngestError, match="line 2: non-finite feature"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_non_integer_label_reports_line(self, tmp_path):
        path = self.write(tmp_path, "1.0,0\n2.0,zero\n")
        with pytest.raises(IngestError, match="line 2: label 'zero'"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    @pytest.mark.parametrize("label", ["99999999999999999999999", "-9223372036854775809"])
    def test_label_outside_int64_reports_line(self, tmp_path, label):
        path = self.write(tmp_path, f"1.0,0\n2.0,{label}\n3.0,1\n")
        with pytest.raises(IngestError, match=f"line 2: label {label} is outside"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_int64_extremes_accepted(self, tmp_path):
        path = self.write(tmp_path, f"1.0,{-2**63}\n2.0,{2**63 - 1}\n")
        chunk = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10)).chunk(0)
        assert chunk.y.tolist() == [-2**63, 2**63 - 1]

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0,2.0,0\n3.0,4.0,1\n")
        chunk = make_stream(StreamConfig(kind="csv", csv_path=str(path), chunk_size=10)).chunk(0)
        assert np.array_equal(chunk.X, [[1.0, 2.0], [3.0, 4.0]])

    def test_ragged_row_reports_line(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,0\n1.0,1\n3.0,4.0,0\n")
        with pytest.raises(IngestError, match="line 2: expected 3 columns, found 2"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_header_shifts_line_numbers(self, tmp_path):
        path = self.write(tmp_path, "a,b\n1.0,0\nbad,1\n")
        with pytest.raises(IngestError, match="line 3"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10, csv_has_header=True))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot read"):
            make_stream(StreamConfig(kind="csv", csv_path=str(tmp_path / "nope.csv"), chunk_size=10))

    def test_empty_file(self, tmp_path):
        path = self.write(tmp_path, "\n\n")
        with pytest.raises(IngestError, match="no data rows"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_single_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "42\n")
        with pytest.raises(IngestError, match="at least one feature and a label"):
            make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "1.0,0\n\n2.0,1\n")
        stream = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10))
        assert len(stream.chunk(0)) == 2

    def test_values_round_trip(self, tmp_path):
        path = self.write(tmp_path, "-1.25,3e2,7\n0.5,-0.5,2\n")
        chunk = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10)).chunk(0)
        assert np.array_equal(chunk.X, [[-1.25, 300.0], [0.5, -0.5]])
        assert np.array_equal(chunk.y, [7, 2])

    def test_csv_arrays_read_only(self, tmp_path):
        path = self.write(tmp_path, "1.0,0\n")
        chunk = make_stream(StreamConfig(kind="csv", csv_path=path, chunk_size=10)).chunk(0)
        with pytest.raises(ValueError):
            chunk.X[0, 0] = 5.0


def test_chunk_direct_construction_is_read_only():
    chunk = Chunk(0, np.ones((2, 2)), np.zeros(2, dtype=np.int64))
    with pytest.raises(ValueError):
        chunk.X[0, 0] = 2.0
