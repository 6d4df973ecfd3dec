import json
import re
import struct
import tracemalloc

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
from tokenmorph import _floatread, _floatrepr
from tokenmorph.tokenio import (
    _KERNEL_MIN_VALUES,
    MAGIC,
    _canonical_tokens,
    _spliced_points,
    _tokens_from_json_doc,
    tokens_from_binary_bytes,
    tokens_from_json_bytes,
    tokens_to_binary_bytes,
    tokens_to_json_bytes,
)
from sweep_float_read import midpoint_tokens, random_finite_bits
from sweep_json_fuzz import near_spellings


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

    def test_shorter_than_the_magic(self):
        with pytest.raises(TruncatedPayloadError, match="shorter than the 4-byte magic"):
            tokens_from_binary_bytes(MAGIC[:3])

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


def _outcome(read, data: bytes):
    """A read's points and weights as bytes, or the type and message it raised."""
    try:
        tokens = read(data)
    except Exception as exc:
        return type(exc), str(exc)
    return tokens.points.tobytes(), tokens.weights.tobytes()


class TestJsonFloatReader:
    """The numpy reader against the json.loads path it stands in for."""

    @pytest.mark.parametrize("shape", [(1023, 1), (341, 3), (1024, 1), (256, 4)])
    @pytest.mark.parametrize("weighted", [False, True])
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), pool=st.lists(_finite, max_size=8))
    def test_canonical_files_read_as_json_loads_reads_them(self, shape, weighted, seed, pool):
        # Random bit patterns over every exponent, with hypothesis's own
        # picks (zeros, subnormals, extremes) at random places.
        rng = np.random.default_rng(seed)
        points = random_finite_bits(rng, shape[0] * shape[1]).view(np.float64)
        points[rng.integers(0, points.size, size=len(pool))] = pool
        weights = rng.dirichlet(np.ones(shape[0])) if weighted else None
        tokens = TokenSet(points.reshape(shape), weights)
        data = tokens_to_json_bytes(tokens)
        assert (_canonical_tokens(data) is not None) == (points.size >= _KERNEL_MIN_VALUES)
        read = _outcome(tokens_from_json_bytes, data)
        assert read == _outcome(_tokens_from_json_doc, data)
        assert read == (tokens.points.tobytes(), tokens.weights.tobytes())

    @staticmethod
    def _file_with(first: bytes) -> bytes:
        """A canonical 512 x 2 file whose first number is ``first``."""
        data = tokens_to_json_bytes(gen_synthetic("gaussian_blob", 512, 2, 5))
        start = data.index(b"[[") + 2
        return data[:start] + first + data[data.index(b",", start):]

    @pytest.mark.parametrize("token, value", [
        (b"-0", 0.0), (b"-0.0", -0.0), (b"0e7", 0.0), (b"-0E-7", -0.0), (b"1e-400", 0.0),
        (b"-1e-400", -0.0), (b"1E5", 1e5), (b"5e-324", 5e-324), (b"25e-325", 5e-324),
        (b"9007199254740993", 9007199254740992.0),
        (b"1.7976931348623157e308", 1.7976931348623157e308),
        (b"0.1000000000000000055511151231257827", 0.1),
        (b"123456789012345678901234", 1.2345678901234568e23),
    ])
    def test_edge_numbers_take_the_kernel(self, token, value):
        data = self._file_with(token)
        assert _canonical_tokens(data) is not None
        read = tokens_from_json_bytes(data)
        assert read.points[0, 0].tobytes() == np.float64(value).tobytes()
        assert _outcome(tokens_from_json_bytes, data) == _outcome(_tokens_from_json_doc, data)

    @pytest.mark.parametrize("token", [
        b"1" + b"0" * 399, b"1e400", b"-1e400", b"NaN", b"Infinity", b"01", b"-01", b"1.", b".5",
        b"+1", b"1e", b"1e+", b"--1", b"1e5.0", b"1.2.3", b"1e2e3", b"0x1", b"true", b"1;2",
        b"", b" 1",
    ])
    def test_other_tokens_fail_as_before(self, token):
        data = self._file_with(token)
        assert _canonical_tokens(data) is None
        assert _outcome(tokens_from_json_bytes, data) == _outcome(_tokens_from_json_doc, data)

    @pytest.mark.parametrize("edit", [
        lambda data: data.replace(b"]]}", b"],[1.0,2.0]]}"),                     # extra row
        lambda data: data.replace(b"]]}", b",3.0]]}"),                          # long last row
        lambda data: data[:data.index(b"[[") + 2]
        + data[data.index(b",", data.index(b"[[")) + 1:],                      # short row
        lambda data: data.replace(b"],[", b",", 1),                             # rows merged
        lambda data: data.replace(b"],[", b"];[", 1),
        lambda data: data[:-1] + b"x\n",                                       # trailing bytes
        lambda data: data[:-1],                                                 # no newline
        lambda data: data.replace(b'"points":', b'"points": '),                 # whitespace
        lambda data: data.replace(b'"n":512', b'"n":0512'),
        lambda data: data.replace(b"]]}", b'],[1,2]],"weights":[1]}'),
        lambda data: data.replace(b"]]}", b']],"note":[1]}'),                  # reads
    ], ids=["extra row", "long row", "short row", "merged rows", "semicolon", "trailing bytes",
            "no newline", "whitespace", "leading zero count", "short weights", "other key"])
    def test_other_layouts_fail_or_read_as_before(self, edit):
        data = edit(tokens_to_json_bytes(gen_synthetic("gaussian_blob", 512, 2, 5)))
        assert _canonical_tokens(data) is None
        assert _outcome(tokens_from_json_bytes, data) == _outcome(_tokens_from_json_doc, data)

    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(min_value=5e-324, max_value=1.7e308), negative=st.booleans())
    def test_tokens_at_and_next_to_midpoints(self, x, negative):
        # The certified product's hardest inputs: decimals within one unit
        # in their last digit of the midpoint between two doubles.
        tokens = midpoint_tokens(int(np.float64(x).view(np.uint64)), range(15, 22))
        if negative:
            tokens = ["-" + t.lstrip("-") for t in tokens]
        text = ",".join(tokens).encode()
        values, row_ends, _ = _floatread.json_numbers(text, 0, len(text))
        assert values.tobytes() == np.array([float(t) for t in tokens]).tobytes()
        assert row_ends.tolist() == [False] * (len(tokens) - 1) + [True]

    # Tokens the writer never writes, and tokens that float() reads.
    _ODD_TOKENS = [b"-0", b"0", b"1E5", b"-2.5e-3", b"7e+300", b"-0.0", b"0e7", b"-0E-7",
                   b"0.1000000000000000055511151231257827", b"123456789012345678901234",
                   b"0.0015880317657631846", b"1e-400", b"9007199254740993", b"5e-324"]

    @classmethod
    def _rows(cls, rng: np.random.Generator, n: int, d: int) -> bytes:
        """n rows of d JSON numbers, as ``a,b],[c,d``: reprs of random
        doubles at every scale, with the odd tokens at random places."""
        values = rng.normal(size=n * d) * 10.0 ** rng.integers(-30, 30, size=n * d)
        tokens = [repr(x).encode() for x in values.tolist()]
        for k, token in zip(rng.choice(n * d, size=len(cls._ODD_TOKENS), replace=False),
                            cls._ODD_TOKENS):
            tokens[k] = token
        return b"],[".join(b",".join(tokens[i:i + d]) for i in range(0, n * d, d))

    @pytest.mark.parametrize("block", [1, 2, 25, 97])
    def test_any_block_size_reads_the_same(self, monkeypatch, block):
        # A block is cut at the first comma after _READ_BLOCK bytes that
        # does not follow a "]": at any block size, each row still ends
        # where its "]" is.
        monkeypatch.setattr(_floatread, "_READ_BLOCK", block)
        rng = np.random.default_rng(block)
        text = b"[[" + self._rows(rng, 40, 3) + b"]]"
        values, row_ends, _ = _floatread.json_numbers(text, 2, len(text) - 2)
        expected = np.array(json.loads(text), dtype=np.float64).ravel()
        assert values.tobytes() == expected.tobytes()
        assert row_ends.tolist() == [i % 3 == 2 for i in range(120)]

    @pytest.mark.parametrize("block", [1, 2, 25, 97])
    def test_any_block_size_reads_a_weighted_file_as_json_loads(self, monkeypatch, block):
        monkeypatch.setattr(_floatread, "_READ_BLOCK", block)
        rng = np.random.default_rng(block)
        weights = b",".join(repr(w).encode() for w in rng.dirichlet(np.ones(512)).tolist())
        data = (b'{"d":2,"n":512,"points":[[' + self._rows(rng, 512, 2)
                + b']],"weights":[' + weights + b"]}\n")
        assert _canonical_tokens(data) is not None
        assert _outcome(tokens_from_json_bytes, data) == _outcome(_tokens_from_json_doc, data)

    def test_rows_are_marked(self):
        text = b"[1,2],[3,4],[5,6]"
        values, row_ends, _ = _floatread.json_numbers(text, 1, len(text) - 1)
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert row_ends.tolist() == [False, True, False, True, False, True]

    def test_binary_exponents_of_the_powers_of_ten(self):
        # _scaled's r = floor(q log2 10) - 125, the table's 2**r for 10**q.
        for q in range(-_floatrepr._K_MAX, -_floatrepr._K_MIN + 1):
            r = (10 ** q).bit_length() - 126 if q >= 0 else -125 - (10 ** -q).bit_length()
            assert ((q * 217706) >> 16) - 125 == r, q


def _spelled(tokens: list[bytes]) -> bool:
    """The reader's verdict: every token is the writer's spelling."""
    text = b",".join(tokens)
    read = _floatread.json_numbers(text, 0, len(text), check_spelling=True)
    return read is not None and read[2] is not None


class TestWriterSpelling:
    """``json_numbers(..., check_spelling=True)`` against ``repr``: it must
    never pass a token that is not ``repr`` of its double, and must pass
    ``repr`` of every normal double of at most 15 digits, or of 16 or 17
    digits that is at least 1e-6 and below 1e16."""

    def test_repr_passes(self):
        rng = np.random.default_rng(241)
        values = rng.choice([-1.0, 1.0], size=4000) * rng.uniform(1.0, 10.0, size=4000) \
            * 10.0 ** rng.integers(-6, 15, size=4000)
        values = np.concatenate([values, np.round(values, 3), [0.0, -0.0, 1.0, -100.0, 1e15,
                                 9007199254740993.0, 0.1, 1e-5, 5e-5, 2.0 ** 52, 1e300, 1e-300,
                                 2.5e-300, 169544618800300.12, 123456789012345.6, 1e-6 / 3]])
        tokens = [repr(x).encode() for x in values.tolist()]
        assert _spelled(tokens)
        # Each alone, as the first, a middle and the last token of a row.
        for token in tokens[::97]:
            assert _spelled([token]) and _spelled([b"1.5", token, b"2.0"])

    @pytest.mark.parametrize("token", [
        b"1.50e+16", b"1.5e16", b"1.5E+16", b"1e+016", b"100.00", b"100", b"-0", b"0",
        b"0.00", b"0e+00", b"1.0e+16", b"15e+15", b"0.15e+17", b"0.10000000000000001",
        b"0.30000000000000004e0", b"1e-5", b"1.0E-5", b"0.00001", b"10000000000000000.0",
        b"1.2345678901234567e-30", b"5e-324", b"0.1000",
        b"169544618800300.13",  # a tie that repr breaks to the even .12
    ])
    def test_other_spellings_fail(self, token):
        assert not _spelled([b"0.5", token])

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_no_other_spelling_of_a_double_passes(self, x):
        for token in near_spellings(x):
            if _spelled([token]):
                assert repr(float(token)).encode() == token

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(min_value=1e-6, max_value=1e16, exclude_max=True), negative=st.booleans())
    def test_repr_of_a_double_in_range_passes(self, x, negative):
        assert _spelled([repr(-x if negative else x).encode()])


class TestKeptText:
    """``read_tokens(..., keep_text=True)`` and the splice: a set whose
    file text is the writer's keeps its row table, and
    ``tokens_to_json_bytes(tokens, like)`` joins any set of rows of one
    such set in ``like`` from that table, in the bytes it encodes."""

    @staticmethod
    def _kept(tmp_path, tokens: TokenSet) -> TokenSet:
        path = tmp_path / "kept.json"
        write_tokens(tokens, path)
        return read_tokens(path, keep_text=True)

    @staticmethod
    def _spliced(tokens: TokenSet, like: tuple[TokenSet, ...]) -> list[bytes] | None:
        """The row texts that the writer joins ``tokens``' points from, or
        None where it encodes them; its bytes are the encoded ones either way."""
        assert tokens_to_json_bytes(tokens, like) == tokens_to_json_bytes(tokens)
        parts = _spliced_points(tokens.points, like)
        return None if parts is None else [bytes(text) for text in parts[1::2]]

    @pytest.mark.parametrize("weighted", [False, True])
    def test_rows_in_any_order_splice_the_writer_bytes(self, tmp_path, weighted):
        rng = np.random.default_rng(251)
        weights = rng.dirichlet(np.ones(128)) if weighted else None
        kept = self._kept(tmp_path, TokenSet(rng.normal(size=(128, 8)), weights))
        assert len(self._spliced(kept, (kept,))) == 128
        for picks in (np.arange(128), rng.permutation(128), rng.integers(0, 128, size=40)):
            tokens = TokenSet(kept.points[picks], rng.dirichlet(np.ones(len(picks))))
            assert self._spliced(tokens, (kept,)) is not None
            tokens = TokenSet(kept.points[picks])
            assert self._spliced(tokens, (kept,)) is not None

    def test_rows_of_two_kept_sets_are_encoded(self, tmp_path):
        # The writer splices from the one set that holds the first row and
        # never merges two tables: no command writes rows of two kept sets.
        rng = np.random.default_rng(254)
        a = self._kept(tmp_path, TokenSet(rng.normal(size=(128, 8))))
        b = self._kept(tmp_path, TokenSet(rng.normal(size=(128, 8))))
        mixed = TokenSet(np.vstack([b.points[:64], a.points[64:]]))
        for like in ((a, b), (b, a), (a,), (b,)):
            assert self._spliced(mixed, like) is None
        assert self._spliced(TokenSet(a.points[::-1]), (b, a)) is not None

    @pytest.mark.parametrize("block", [1, 2, 25, 97, 4000])
    def test_any_block_size_keeps_each_rows_text(self, monkeypatch, tmp_path, block):
        # Blocks are cut at a comma inside a row or, after a "]", at the
        # next one: every row's text still runs from its "[" to its "]".
        monkeypatch.setattr(_floatread, "_READ_BLOCK", block)
        tokens = TokenSet(np.random.default_rng(block).normal(size=(128, 8)))
        kept = self._kept(tmp_path, tokens)
        assert self._spliced(kept, (kept,)) == [
            json.dumps(row).replace(" ", "").strip("[]").encode() for row in tokens.points.tolist()]
        assert tokens_to_json_bytes(kept, (kept,)) == tokens_to_json_bytes(tokens)

    def test_a_missing_row_writes_nothing(self, tmp_path):
        rng = np.random.default_rng(252)
        kept = self._kept(tmp_path, TokenSet(rng.normal(size=(128, 8))))
        other = kept.points.copy()
        other[-1, -1] = np.nextafter(other[-1, -1], np.inf)
        assert self._spliced(TokenSet(other), (kept,)) is None
        assert self._spliced(TokenSet(other[::-1]), (kept,)) is None
        assert self._spliced(kept, ()) is None
        # A kept set of another dimension holds none of the rows.
        wide = self._kept(tmp_path, TokenSet(rng.normal(size=(128, 9))))
        assert self._spliced(kept, (wide,)) is None

    def test_sets_that_keep_no_text(self, tmp_path):
        rng = np.random.default_rng(253)
        points = rng.normal(size=(128, 8))
        path = tmp_path / "set.json"

        def keeps(tokens):
            return self._spliced(tokens, (tokens,)) is not None

        write_tokens(TokenSet(points), path)
        assert not keeps(read_tokens(path))  # no keep_text
        assert keeps(read_tokens(path, keep_text=True))
        write_tokens(TokenSet(points), path, "binary")
        assert not keeps(read_tokens(path, keep_text=True))
        write_tokens(TokenSet(points[:100]), path)  # fewer than 1 024 values
        assert not keeps(read_tokens(path, keep_text=True))
        odd = points.copy()
        odd[5, 3] = 1.2345678901234567e-30  # 17 digits, too small to check
        write_tokens(TokenSet(odd), path)
        assert not keeps(read_tokens(path, keep_text=True))
        points[0, 0] = 0.5
        data = tokens_to_json_bytes(TokenSet(points))
        path.write_bytes(data.replace(b"[[0.5,", b"[[0.50,"))  # 0.5, but not repr's text
        tokens = read_tokens(path, keep_text=True)
        assert tokens.points.tobytes() == points.tobytes() and not keeps(tokens)


class TestReadAllocations:
    """A read allocates its n x d points array once: a reader hands its
    own arrays over, and the token set copies only views of the file."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("fmt", ["json", "binary"])
    def test_points_are_allocated_once(self, monkeypatch, copies, fmt, weighted):
        rng = np.random.default_rng(211)
        n, d = 512, 64
        tokens = TokenSet(rng.normal(size=(n, d)),
                          rng.dirichlet(np.ones(n)) if weighted else None)
        encode, read = {"json": (tokens_to_json_bytes, tokens_from_json_bytes),
                        "binary": (tokens_to_binary_bytes, tokens_from_binary_bytes)}[fmt]
        data = encode(tokens)
        copies.clear()
        kept = []  # bytes each token set still holds once built
        real = TokenSet.__post_init__

        def traced(self):
            before = tracemalloc.get_traced_memory()[0]
            real(self)
            kept.append(tracemalloc.get_traced_memory()[0] - before)

        monkeypatch.setattr(TokenSet, "__post_init__", traced)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = read(data)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got.points.tobytes() == tokens.points.tobytes()
        assert got.weights.tobytes() == tokens.weights.tobytes()
        points = 8 * n * d
        if fmt == "json":
            # The canonical reader's numbers are the points: adopted.
            assert copies == [] and kept[0] < points / 8
        else:
            # Each frombuffer view is copied once, by the set.
            assert [view.shape for view in copies] == [(n, d)] + [(n,)] * weighted
            assert points <= kept[0] < 1.1 * points
            assert peak < 1.5 * points


class TestKernelPeaks:
    """tracemalloc peaks of the numpy JSON kernels on a 512 x 64 set,
    whose points take 256 KiB. The bounds leave about 6 % over the peaks
    of an earlier version of both kernels (1 726 237 bytes to write,
    1 043 630 to read, with numpy 2.4 and Python 3.11): a peak that
    grows, as with larger blocks, shows in ``peak_rss_mb``."""

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_writer(self):
        points = np.random.default_rng(211).normal(size=(512, 64))
        assert self._peak(lambda: _floatrepr.json_float_array(points)) < 7 * points.nbytes

    def test_reader(self):
        tokens = TokenSet(np.random.default_rng(211).normal(size=(512, 64)))
        data = tokens_to_json_bytes(tokens)
        assert self._peak(lambda: tokens_from_json_bytes(data)) < 4.25 * tokens.points.nbytes


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

    @pytest.mark.parametrize("kind, n, d, message", [
        ("gaussian_blob", 3.0, 2, "n must be an integer >= 1, got 3.0"),
        ("gaussian_blob", 4, 2.0, "d must be an integer >= 1, got 2.0"),
        ("ring", True, 2, "n must be an integer >= 1, got True"),
        ("gaussian_blob", 4, 0, "d must be an integer >= 1, got 0"),
    ])
    def test_counts_must_be_integers(self, kind, n, d, message):
        # The first three raised TypeError before; d was named m.
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            gen_synthetic(kind, n, d)

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be an integer >= 0, got -1"),
        (1.5, "seed must be an integer >= 0, got 1.5"),
    ])
    def test_seed_must_be_an_integer_at_least_zero(self, seed, message):
        # numpy raised ValueError on -1 and TypeError on 1.5 before.
        with pytest.raises(InvalidParameterError, match=re.escape(message)):
            gen_synthetic("gaussian_blob", 4, 2, seed)

    def test_ring_needs_two_dims(self):
        with pytest.raises(InvalidParameterError, match="ring requires d >= 2"):
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
        assert np.all(np.sign(source.points[plan.rows, 0])
                      == np.sign(target.points[plan.cols, 0]))
