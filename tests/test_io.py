import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tokenmorph import (
    BadMagicError,
    FormatError,
    InvalidParameterError,
    InvalidWeightsError,
    TokenSet,
    TruncatedPayloadError,
    gen_synthetic,
    read_tokens,
    write_tokens,
)
from tokenmorph import _floatrepr
from tokenmorph.tokenio import (
    _KERNEL_MIN_VALUES,
    MAGIC,
    tokens_from_binary_bytes,
    tokens_from_json_bytes,
    tokens_to_binary_bytes,
    tokens_to_json_bytes,
)


@pytest.fixture
def uniform_set():
    rng = np.random.default_rng(191)
    return TokenSet(rng.normal(size=(7, 3)))


@pytest.fixture
def weighted_set():
    rng = np.random.default_rng(193)
    return TokenSet(rng.normal(size=(4, 2)), np.array([0.1, 0.2, 0.3, 0.4]))


class TestRoundTrips:
    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_bit_exact_round_trip(self, tmp_path, fmt, uniform_set, weighted_set):
        for tokens in (uniform_set, weighted_set):
            path = tmp_path / f"tokens.{fmt}"
            write_tokens(tokens, path, fmt)
            back = read_tokens(path)
            np.testing.assert_array_equal(back.points, tokens.points)
            np.testing.assert_array_equal(back.weights, tokens.weights)

    def test_formats_decode_to_equal_sets(self, weighted_set):
        via_json = tokens_from_json_bytes(tokens_to_json_bytes(weighted_set))
        via_binary = tokens_from_binary_bytes(tokens_to_binary_bytes(weighted_set))
        np.testing.assert_array_equal(via_json.points, via_binary.points)
        np.testing.assert_array_equal(via_json.weights, via_binary.weights)

    def test_awkward_doubles_survive(self, tmp_path):
        tokens = TokenSet([[1.0 / 3.0, np.nextafter(0.0, 1.0)], [1e300, -2.5e-300]])
        for fmt in ("json", "binary"):
            path = tmp_path / f"awkward.{fmt}"
            write_tokens(tokens, path, fmt)
            np.testing.assert_array_equal(read_tokens(path).points, tokens.points)

    @pytest.mark.parametrize("weights", [None, [0.5, 0.25, 0.25], [5e-324, 0.5, 0.5]])
    def test_json_bytes_equal_per_element_float_encoding(self, weights):
        # The encoder hands json the arrays' tolist(); this is the
        # per-element float() form it replaced, on edge values.
        tokens = TokenSet(
            [[-0.0, 5e-324, -5e-324], [1.0 / 3.0, 1.7976931348623157e308, -1e-300],
             [0.1, -2.5, 1e16]],
            weights,
        )
        doc = {
            "n": tokens.n,
            "d": tokens.m,
            "points": [[float(x) for x in row] for row in tokens.points],
        }
        if weights is not None:
            doc["weights"] = [float(w) for w in tokens.weights]
        reference = (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
        assert tokens_to_json_bytes(tokens) == reference

    def test_uniform_weights_are_not_serialized(self, uniform_set):
        doc = json.loads(tokens_to_json_bytes(uniform_set))
        assert "weights" not in doc
        assert tokens_to_binary_bytes(uniform_set)[12] == 0

    def test_explicit_weights_are_serialized(self, weighted_set):
        doc = json.loads(tokens_to_json_bytes(weighted_set))
        assert doc["weights"] == [0.1, 0.2, 0.3, 0.4]
        assert tokens_to_binary_bytes(weighted_set)[12] == 1

    def test_auto_detection(self, tmp_path, uniform_set):
        json_path = tmp_path / "t1"
        binary_path = tmp_path / "t2"
        write_tokens(uniform_set, json_path, "json")
        write_tokens(uniform_set, binary_path, "binary")
        np.testing.assert_array_equal(
            read_tokens(json_path).points, read_tokens(binary_path).points
        )

    def test_write_rejects_unknown_format(self, tmp_path, uniform_set):
        with pytest.raises(FormatError):
            write_tokens(uniform_set, tmp_path / "x", "csv")


class TestBinaryErrors:
    def test_bad_magic(self):
        with pytest.raises(BadMagicError):
            tokens_from_binary_bytes(b"NOPE" + b"\x00" * 32)

    def test_truncated_header(self):
        with pytest.raises(TruncatedPayloadError):
            tokens_from_binary_bytes(MAGIC + b"\x01\x00")

    def test_truncated_points_payload(self, uniform_set):
        data = tokens_to_binary_bytes(uniform_set)
        with pytest.raises(TruncatedPayloadError):
            tokens_from_binary_bytes(data[:-1])

    def test_truncated_weights_payload(self, weighted_set):
        data = tokens_to_binary_bytes(weighted_set)
        with pytest.raises(TruncatedPayloadError):
            tokens_from_binary_bytes(data[:-4])

    def test_trailing_bytes(self, tmp_path, uniform_set):
        path = tmp_path / "t.bin"
        path.write_bytes(tokens_to_binary_bytes(uniform_set) + b"\x00")
        with pytest.raises(FormatError, match="trailing bytes"):
            read_tokens(path)

    def test_weights_behind_a_zero_flag(self, tmp_path, weighted_set):
        # A weights-absent flag with n weights still in the file: the
        # weights used to be dropped silently and the set read as uniform.
        data = bytearray(tokens_to_binary_bytes(weighted_set))
        data[12] = 0
        path = tmp_path / "t.bin"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="trailing bytes"):
            read_tokens(path)

    def test_bad_flag_byte(self):
        data = MAGIC + struct.pack("<IIB", 1, 1, 7) + struct.pack("<d", 0.0)
        with pytest.raises(FormatError):
            tokens_from_binary_bytes(data)

    def test_zero_count_header(self):
        data = MAGIC + struct.pack("<IIB", 0, 1, 0)
        with pytest.raises(FormatError):
            tokens_from_binary_bytes(data)

    def test_invalid_weights_sum(self):
        payload = struct.pack("<dd", 0.0, 1.0) + struct.pack("<dd", 0.45, 0.45)
        data = MAGIC + struct.pack("<IIB", 2, 1, 1) + payload
        with pytest.raises(InvalidWeightsError):
            tokens_from_binary_bytes(data)


class TestJsonErrors:
    def test_not_json(self):
        with pytest.raises(FormatError):
            tokens_from_json_bytes(b"definitely not json")

    def test_missing_keys(self):
        with pytest.raises(FormatError):
            tokens_from_json_bytes(b'{"n": 1, "d": 1}')

    def test_wrong_payload_shape(self):
        doc = {"n": 3, "d": 2, "points": [[0.0, 0.0]]}
        with pytest.raises(TruncatedPayloadError):
            tokens_from_json_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize("doc", [
        {"n": 2, "d": 1, "points": [[1.0], [1.0, 2.0]]},                     # ragged
        {"n": 1, "d": 2, "points": "ab"},
        {"n": 1, "d": 1, "points": {"a": 1}},
        {"n": 1, "d": 1, "points": [["x"]]},
        {"n": 1, "d": 1, "points": [[10 ** 400]]},                           # beyond float64
        {"n": 2, "d": 1, "points": [[0.0], [1.0]], "weights": [[0.5], [0.25, 0.25]]},
        {"n": 2, "d": 1, "points": [[0.0], [1.0]], "weights": "ab"},
        {"n": 1, "d": 2, "points": [[True, False]]},                         # 1.0, 0.0 before
        {"n": 2, "d": 1, "points": [[0.5], [False]]},
        {"n": 1, "d": 1, "points": [[0.5]], "weights": [True]},
    ])
    def test_non_numeric_or_ragged_arrays(self, doc):
        with pytest.raises(FormatError, match="rectangular array"):
            tokens_from_json_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize("n, d", [(True, 1), (1, True), (True, True), (False, 1)])
    def test_booleans_are_not_counts(self, n, d):
        doc = {"n": n, "d": d, "points": [[1.0]]}
        with pytest.raises(FormatError, match="positive integers"):
            tokens_from_json_bytes(json.dumps(doc).encode())

    @pytest.mark.parametrize("text", [
        '{"n":1,"d":2,"points":[[0.5,NaN]]}',
        '{"n":1,"d":2,"points":[[Infinity,0.5]]}',
        '{"n":1,"d":2,"points":[[0.5,-Infinity]]}',
        '{"n":1,"d":2,"points":[[1e400,0.5]]}',                              # inf before
        '{"n":1,"d":2,"points":[[0.5,-1e400]]}',
        '{"n":2,"d":1,"points":[[0.5],[1.5]],"weights":[0.5,NaN]}',
        '{"n":2,"d":1,"points":[[0.5],[1.5]],"weights":[Infinity,0.5]}',
    ])
    def test_non_finite_values(self, tmp_path, text):
        # Python's json module reads these; none is a float64 JSON number.
        path = tmp_path / "nonfinite.json"
        path.write_text(text)
        with pytest.raises(FormatError, match="NaN, Infinity"):
            read_tokens(path)

    def test_weights_summing_to_point_nine(self):
        doc = {"n": 2, "d": 1, "points": [[0.0], [1.0]], "weights": [0.45, 0.45]}
        with pytest.raises(InvalidWeightsError):
            tokens_from_json_bytes(json.dumps(doc).encode())

    def test_nearly_normalized_weights_accepted(self):
        # A foreign file within 1e-9 of unit mass is renormalized exactly.
        doc = {
            "n": 2,
            "d": 1,
            "points": [[0.0], [1.0]],
            "weights": [0.5, 0.5 + 4e-10],
        }
        tokens = tokens_from_json_bytes(json.dumps(doc).encode())
        assert tokens.weights.sum() == pytest.approx(1.0, abs=1e-12)


def _edge_values() -> np.ndarray:
    """Finite doubles where the shortest repr or its layout changes."""
    one = np.uint64(1)
    powers_of_two = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ulps = np.concatenate([
        powers_of_two - one, powers_of_two, powers_of_two + one,
        np.array([(2047 << 52) - 1], dtype=np.uint64),           # largest finite
        np.arange(1, 5000, dtype=np.uint64),                     # small subnormals
    ]).view(np.float64)
    around = [np.nextafter(x, np.inf) for x in powers_of_ten] + [
        np.nextafter(x, 0.0) for x in powers_of_ten]
    steps = np.arange(-20, 21)
    near_switches = np.concatenate([
        c * (1.0 + steps * 2.0 ** -52) for c in (1e-5, 1e-4, 1e15, 1e16, 1e17)])
    rng = np.random.default_rng(317)
    integers = np.concatenate([
        rng.integers(0, 2 ** 53, size=2000, endpoint=True).astype(np.float64),
        [2.0 ** 53, 2.0 ** 53 - 1, 10.0 ** 15, 10.0 ** 15 - 1, 10.0 ** 16 - 2]])
    values = np.concatenate([ulps, powers_of_ten, around, near_switches, integers,
                             [0.0, -0.0, 1e-4 * 0.99999, 9.5, 0.5, 123.456]])
    return np.concatenate([values, -values])


_finite = st.floats(allow_nan=False, allow_infinity=False)


class TestJsonFloatKernel:
    """The numpy writer against ``json.dumps``, called directly so that
    arrays below the crossover go through it too, and read back bit-exactly."""

    @staticmethod
    def _check(values: np.ndarray) -> None:
        text = _floatrepr.json_float_array(values)
        assert text == json.dumps(values.tolist(), separators=(",", ":")).encode()
        back = np.array(json.loads(text), dtype=np.float64)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()

    def test_edge_values(self):
        values = _edge_values()
        self._check(values)
        self._check(values.reshape(2, -1))

    @pytest.mark.parametrize("shape", [
        (1, 1), (1,), (37, 1),
        (2, _floatrepr._BLOCK // 2 + 1),          # rows that straddle a block
        (_floatrepr._BLOCK // 3 + 1, 3),
        (1, _floatrepr._BLOCK + 5),
    ])
    @settings(max_examples=15, deadline=None)
    @given(pool=st.lists(_finite, min_size=1, max_size=64))
    def test_generated_arrays(self, shape, pool):
        self._check(np.resize(np.array(pool, dtype=np.float64), shape))

    @pytest.mark.parametrize("n, d", [(9, 3), (_KERNEL_MIN_VALUES // 2 - 1, 2),
                                      (_KERNEL_MIN_VALUES // 2, 2), (_KERNEL_MIN_VALUES + 3, 1)])
    @pytest.mark.parametrize("weighted", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(pool=st.lists(_finite, min_size=1, max_size=32),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_token_files_on_both_sides_of_the_crossover(self, n, d, weighted, pool, seed):
        points = np.resize(np.array(pool, dtype=np.float64), (n, d))
        weights = np.random.default_rng(seed).dirichlet(np.ones(n)) if weighted else None
        tokens = TokenSet(points, weights)
        doc = {"n": n, "d": d, "points": tokens.points.tolist()}
        if weighted:
            doc["weights"] = tokens.weights.tolist()
        reference = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert tokens_to_json_bytes(tokens) == reference.encode()
        back = tokens_from_json_bytes(tokens_to_json_bytes(tokens))
        assert back.points.tobytes() == tokens.points.tobytes()
        if weighted:
            assert back.weights.tobytes() == tokens.weights.tobytes()


class TestSynth:
    def test_same_seed_same_output(self):
        a = gen_synthetic("gaussian_blob", 10, 4, seed=3)
        b = gen_synthetic("gaussian_blob", 10, 4, seed=3)
        np.testing.assert_array_equal(a.points, b.points)

    def test_different_seed_different_output(self):
        a = gen_synthetic("gaussian_blob", 10, 4, seed=3)
        b = gen_synthetic("gaussian_blob", 10, 4, seed=4)
        assert not np.array_equal(a.points, b.points)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            gen_synthetic("spiral", 4, 2)

    def test_zero_tokens_rejected(self):
        with pytest.raises(InvalidParameterError):
            gen_synthetic("gaussian_blob", 0, 2)

    def test_ring_needs_two_dims(self):
        with pytest.raises(InvalidParameterError):
            gen_synthetic("ring", 8, 1)
        ring = gen_synthetic("ring", 16, 2, seed=1)
        radii = np.linalg.norm(ring.points, axis=1)
        assert np.all(np.abs(radii - 1.0) < 0.5)

    def test_pair_needs_even_count(self):
        with pytest.raises(InvalidParameterError):
            gen_synthetic("two_cluster_swap_pair", 7, 2)

    def test_pair_swaps_cluster_labels(self):
        source, target = gen_synthetic("two_cluster_swap_pair", 12, 3, seed=5)
        half = 6
        assert np.all(source.points[:half, 0] < 0)
        assert np.all(source.points[half:, 0] > 0)
        assert np.all(target.points[:half, 0] > 0)
        assert np.all(target.points[half:, 0] < 0)

    def test_pair_lerp_collapses_but_ot_stays_within_clusters(self):
        from tokenmorph import index_lerp, solve_exact_ot

        source, target = gen_synthetic("two_cluster_swap_pair", 12, 2, seed=5)
        midpoint = index_lerp(source, target, 0.5)
        assert np.abs(midpoint.points[:, 0]).max() < 1.0  # collapsed to the gap center
        plan = solve_exact_ot(source, target)
        ii, jj = np.nonzero(plan.coupling > 1e-12)
        assert np.all(np.sign(source.points[ii, 0]) == np.sign(target.points[jj, 0]))
