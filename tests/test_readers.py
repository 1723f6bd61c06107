"""The file readers fuzzed: whatever the bytes, only a DataError naming the file escapes.

Covered: ``load_pool``, ``read_wav``, ``read_trials``, the transcript reader
of ``evaluate``, and the ``.npz`` archive reader behind ``load_weights``,
``load_features`` and ``load_f0``.
"""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from voxanon import load_pool, read_trials, read_wav
from voxanon.cli import _read_transcripts
from voxanon.errors import DataError, write_jsonl, write_npz
from voxanon.features import FeatureMatrix, F0Contour, load_f0, load_features, save_f0, save_features
from voxanon.nnet import NsfConfig, PpgConfig, init_weights, load_weights, save_weights

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

FUZZ = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)

_JSON = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 10**400), st.text(max_size=4),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
_HEADER = st.fixed_dictionaries(
    {}, optional={"dim": st.one_of(st.integers(-1, 3), _JSON), "count": st.one_of(st.integers(-1, 3), _JSON)}
)
_RECORD = st.fixed_dictionaries(
    {},
    optional={
        "id": st.one_of(st.sampled_from(["a", "b", ""]), _JSON),
        "vec": st.one_of(st.lists(st.one_of(st.floats(-2, 2), _JSON), max_size=3), _JSON),
        "gender": _JSON,
    },
)
_POOL_TEXT = st.tuples(
    st.one_of(_HEADER, _JSON),
    st.lists(st.one_of(_RECORD, _JSON, st.text(max_size=10)), max_size=4),
).map(lambda parts: "\n".join(
    line if isinstance(line, str) else json.dumps(line) for line in [parts[0], *parts[1]]
))


def _only_data_errors(tmp_path, data: bytes, reader=load_pool, name="fuzz.jsonl"):
    path = tmp_path / name
    path.write_bytes(data)
    _read_expecting_only_data_errors(reader, path)


def _read_expecting_only_data_errors(reader, path):
    try:
        reader(path)
    except DataError as exc:
        assert str(path) in str(exc)


@FUZZ
@given(st.binary(max_size=200))
def test_arbitrary_bytes(tmp_path, data):
    _only_data_errors(tmp_path, data)


@FUZZ
@given(_POOL_TEXT)
def test_pool_shaped_text(tmp_path, text):
    _only_data_errors(tmp_path, text.encode("utf-8", "surrogatepass"))


@pytest.mark.parametrize("text, where", [
    ('{"dim": 2, "count": 1}\n{"id": "a", "vec": [1.0, {}]}\n', "line 2"),
    ('{"dim": 1, "count": 1}\n{"id": "a", "vec": [1e999999]}\n', "line 2"),
    ('{"dim": 1, "count": 1}\n{"id": "a", "vec": [' + "9" * 400 + "]}\n", "line 2"),
    ('{"dim": 2, "count": 0}\n', "line 1"),
    ('{"dim": true, "count": 1}\n{"id": "a", "vec": [1.0]}\n', "line 1"),
    ("[" * 100_000, "line 1"),
    ('{"dim": 2, "count": 1}\n{"id": "a", "vec": [true, 0.5]}\n', "line 2"),
    ('{"dim": 1, "count": 1}\n{"id": "false", "vec": [false]}\n', "line 2"),
])
def test_bad_pool_names_file_and_line(tmp_path, text, where):
    path = tmp_path / "bad.jsonl"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        load_pool(path)
    assert str(path) in str(info.value) and where in str(info.value)


def test_non_utf8_pool_names_line(tmp_path):
    path = tmp_path / "latin1.jsonl"
    path.write_bytes(b'{"dim": 1, "count": 1}\n{"id": "caf\xe9", "vec": [1.0]}\n')
    with pytest.raises(DataError, match="line 2: not UTF-8") as info:
        load_pool(path)
    assert str(path) in str(info.value)


def test_pool_id_spelling_true_still_loads(tmp_path):
    path = tmp_path / "ok.jsonl"
    path.write_text('{"dim": 2, "count": 1}\n{"id": "true", "vec": [1, 0.5]}\n')
    assert load_pool(path).entries[0].vector.tolist() == [1.0, 0.5]


# ------------------------------------------------- trials and transcripts

_TEXT_READERS = {"trials": read_trials, "transcripts": _read_transcripts}
# Tokens a trial or transcript line is made of, and the separators between
# them, including characters that split lines or words only in Unicode.
_TOKEN = st.one_of(
    st.sampled_from(["p01", "p01_001", "tar", "non", "target", "a", "\xe9", "\u2028", "#"]),
    st.text(max_size=4),
)
_SEPARATOR = st.sampled_from([" ", "  ", "\t", "\n", "\r\n", "\x0b", "\x1c", "\x85", "\u3000", ""])
_LINE_TEXT = st.lists(st.tuples(_TOKEN, _SEPARATOR), max_size=12).map(
    lambda parts: "".join(token + sep for token, sep in parts)
)


@FUZZ
@given(st.sampled_from(sorted(_TEXT_READERS)), st.binary(max_size=200))
def test_text_reader_arbitrary_bytes(tmp_path, reader, data):
    _only_data_errors(tmp_path, data, _TEXT_READERS[reader], "fuzz.txt")


@FUZZ
@given(st.sampled_from(sorted(_TEXT_READERS)), _LINE_TEXT, st.sampled_from(["utf-8", "latin-1"]))
def test_text_reader_line_shaped_text(tmp_path, reader, text, encoding):
    data = text.encode(encoding, "replace")
    _only_data_errors(tmp_path, data, _TEXT_READERS[reader], "fuzz.txt")


@pytest.mark.parametrize("reader, text, where", [
    ("trials", "p01 p01_001 tar\np01 p02_001\n", "line 2"),
    ("trials", "p01 p01_001 target\n", "line 1"),
    ("trials", "\n \n", "no trials"),
    ("transcripts", "p01_001 a b\np01_002\n", "line 2"),
    ("transcripts", "\t\n", "no transcripts"),
])
def test_bad_text_file_names_file(tmp_path, reader, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(DataError) as info:
        _TEXT_READERS[reader](path)
    assert str(path) in str(info.value) and where in str(info.value)


def test_write_jsonl_sorts_keys_one_record_a_line(tmp_path):
    # The byte format of every JSON-lines report the commands write.
    path = tmp_path / "records.jsonl"
    write_jsonl(path, iter([{"b": 1, "a": [0.1, None]}, {"c": "\xe9"}]))
    assert path.read_bytes() == b'{"a": [0.1, null], "b": 1}\n{"c": "\\u00e9"}\n'


# ---------------------------------------------------------------- read_wav

def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack("<I", len(body)) + body + b"\0" * (len(body) & 1)


_FMT_BODY = st.builds(
    lambda fmt, channels, rate, bits, extra: struct.pack(
        "<HHIIHH", fmt, channels, rate, rate * 2 % 2**32, 2, bits
    ) + extra,
    st.sampled_from([1, 3, 0xFFFE]), st.sampled_from([1, 2, 0]),
    st.one_of(st.just(0), st.just(16000), st.integers(0, 2**32 - 1)),
    st.sampled_from([16, 8, 24]), st.binary(max_size=4),
)
_CHUNKS = st.lists(st.one_of(
    st.builds(lambda body: _chunk(b"fmt ", body), st.one_of(_FMT_BODY, st.binary(max_size=20))),
    st.builds(lambda body: _chunk(b"data", body), st.binary(max_size=40)),
    st.builds(_chunk, st.binary(min_size=4, max_size=4), st.binary(max_size=10)),
    st.binary(max_size=12),
), max_size=4)
_WAV_BYTES = st.builds(
    lambda size, chunks: b"RIFF" + struct.pack("<I", size) + b"WAVE" + b"".join(chunks),
    st.integers(0, 2**32 - 1), _CHUNKS,
)


@FUZZ
@given(st.one_of(st.binary(max_size=120), _WAV_BYTES), st.sampled_from([None, 16000]))
def test_wav_shaped_bytes(tmp_path, data, expected_rate):
    _only_data_errors(
        tmp_path, data, lambda path: read_wav(path, expected_rate=expected_rate), "fuzz.wav"
    )


def test_wav_rate_zero_names_file_and_fmt_offset(tmp_path):
    body = struct.pack("<HHIIHH", 1, 1, 0, 0, 2, 16)
    path = tmp_path / "rate0.wav"
    path.write_bytes(b"RIFF" + struct.pack("<I", 40) + b"WAVE" + _chunk(b"fmt ", body)
                     + _chunk(b"data", b"\0\1"))
    with pytest.raises(DataError, match=r"sample rate of 0 Hz \(byte offset 12\)") as info:
        read_wav(path)
    assert str(path) in str(info.value)


# ------------------------------------------------------- the .npz archives

_PPG = PpgConfig(input_dim=2, context_frames=1, hidden_size=3, hidden_layers=1, n_states=2)
_READERS = {"weights": load_weights, "features": load_features, "f0": load_f0}


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    """The entries and the bytes of one valid archive per reader."""
    root = tmp_path_factory.mktemp("archives")
    save_weights(root / "weights", init_weights("ppg", _PPG, seed=1))
    save_features(root / "features", FeatureMatrix(np.full((3, 2), 0.25), hop=0.01, kind="ppg"))
    save_f0(root / "f0", F0Contour(np.array([0.0, 120.0, 0.0])))
    valid = {}
    for name in _READERS:
        with np.load(root / name, allow_pickle=False) as archive:
            valid[name] = ({key: archive[key] for key in archive.files},
                           (root / name).read_bytes())
    return valid


_READER = st.sampled_from(sorted(_READERS))


@FUZZ
@given(_READER, st.binary(max_size=300))
def test_archive_arbitrary_bytes(tmp_path, reader, data):
    _only_data_errors(tmp_path, data, _READERS[reader], "fuzz.npz")


@FUZZ
@given(_READER, st.data())
def test_archive_truncated_or_flipped(tmp_path, archives, reader, data):
    raw = bytearray(archives[reader][1])
    cut = data.draw(st.integers(0, len(raw)))
    if data.draw(st.booleans()):
        del raw[cut:]
    elif cut < len(raw):
        raw[cut] ^= data.draw(st.integers(1, 255))
    _only_data_errors(tmp_path, bytes(raw), _READERS[reader], "fuzz.npz")


# Integers are small or huge; a huge layer count is rejected at the cost of
# the stored table (test_weight_config_declaring_huge_network_is_cheap).
_SMALL = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 6), st.integers(10**6, 10**18),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=4), st.lists(st.integers(-1, 4), max_size=3), st.dictionaries(
        st.text(max_size=3), st.integers(), max_size=2),
)
# One damaged field of the weight manifest: a top-level key, a config key
# (known or unknown) or one entry of the tensor table set to another JSON
# value, a top-level key dropped, or the whole manifest replaced by text.
_MANIFEST_DAMAGE = st.one_of(
    st.tuples(st.just("top"), st.sampled_from(
        ["component", "format_version", "config", "tensors", "extra"]), _SMALL),
    st.tuples(st.just("config"), st.sampled_from(
        ["input_dim", "context_frames", "hidden_size", "hidden_layers", "n_states", "tap"]), _SMALL),
    st.tuples(st.just("table"), st.integers(0, 3), _SMALL),
    st.tuples(st.just("drop"), st.sampled_from(["component", "format_version", "config", "tensors"]),
              st.none()),
    st.tuples(st.just("text"), st.sampled_from(["", "{", "[]", "3", "null", '"x"']), st.none()),
)


def _damaged_manifest(manifest: np.ndarray, damage) -> np.ndarray:
    where, key, value = damage
    if where == "text":
        return np.array(key)
    doc = json.loads(manifest.tolist())
    if where == "top":
        doc[key] = value
    elif where == "config":
        doc["config"][key] = value
    elif where == "table":
        doc["tensors"][key] = value
    else:
        del doc[key]
    return np.array(json.dumps(doc))


def _damaged_array(values: np.ndarray, how: str, at: int) -> np.ndarray:
    if how == "dtype":
        dtype = [np.float32, np.int64, ">f8", np.complex128][at % 4]
        return values.astype(dtype) if values.dtype.kind == "f" else np.zeros(values.shape, dtype)
    if how == "size":
        return values[: at % values.size] if at % 2 else np.concatenate([values, values[:1]])
    if how == "ndim":
        return values.reshape(1, -1) if at % 2 else np.array(values.ravel()[0])
    if how == "non-finite":
        damaged = values.copy()
        damaged.ravel()[at % values.size] = [np.nan, np.inf, -np.inf][at % 3]
        return damaged
    if how == "object":
        return np.array([None, 1.0] if at % 2 else [[1.0], "x"], dtype=object)
    return np.array("text")  # how == "unicode"


_ENTRY_DAMAGE = st.one_of(
    st.tuples(st.sampled_from(["kind", "hop", "values"]), st.tuples(
        st.sampled_from(["dtype", "size", "ndim", "non-finite", "object", "unicode"]),
        st.integers(0, 50))),
    st.tuples(st.just("missing"), st.integers(0, 2)),
    st.tuples(st.just("extra"), st.sampled_from(["extra", "values2", "manifest"])),
)


@FUZZ
@given(_READER, _ENTRY_DAMAGE)
def test_archive_with_one_entry_damaged(tmp_path, archives, reader, damage):
    entries = dict(archives[reader][0])
    name, how = damage
    if name == "missing":
        del entries[sorted(entries)[how % len(entries)]]
    elif name == "extra":
        entries[how] = np.zeros(2)
    elif name in entries:
        entries[name] = _damaged_array(np.atleast_1d(entries[name]), *how)
    path = tmp_path / "damaged.npz"
    write_npz(path, **entries)
    _read_expecting_only_data_errors(_READERS[reader], path)


@FUZZ
@given(_MANIFEST_DAMAGE)
@example(damage=("config", "input_dim", 2.0))  # equals the table's 2, but sizes no slice
def test_weight_manifest_damaged(tmp_path, archives, damage):
    entries = dict(archives["weights"][0])
    entries["manifest"] = _damaged_manifest(entries["manifest"], damage)
    path = tmp_path / "damaged.weights"
    write_npz(path, **entries)
    _read_expecting_only_data_errors(load_weights, path)


@pytest.mark.parametrize("config, key", [
    (_PPG, "hidden_layers"),
    (NsfConfig(mel_dim=1, xvec_dim=1, channels=1, blocks=1, layers_per_block=1), "layers_per_block"),
    (NsfConfig(mel_dim=1, xvec_dim=1, channels=1, blocks=1, layers_per_block=1), "blocks"),
], ids=["ppg-layers", "nsf-layers", "nsf-blocks"])
def test_weight_config_declaring_huge_network_is_cheap(tmp_path, config, key):
    # A file of about a kilobyte declares 200,000 layers; the reader must
    # reject it without building a table of that size.
    path = tmp_path / "huge.weights"
    save_weights(path, init_weights(config.component, config, seed=1))
    with np.load(path, allow_pickle=False) as archive:
        entries = {name: archive[name] for name in archive.files}
    manifest = json.loads(entries["manifest"].tolist())
    manifest["config"][key] = 200_000
    entries["manifest"] = np.array(json.dumps(manifest))
    write_npz(path, **entries)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="tensor table does not match") as info:
            load_weights(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(path) in str(info.value)
    assert peak < 2e6


def _first_member_damaged(raw: bytes, method=None, flags=None, data=b"") -> bytes:
    """``raw`` with the first zip member's compression method, flags or
    leading data bytes overwritten, in both its local and central headers."""
    raw = bytearray(raw)
    central = raw.find(b"PK\x01\x02")
    for value, local, offset in ((flags, 6, 8), (method, 8, 10)):
        if value is not None:
            raw[local : local + 2] = raw[central + offset : central + offset + 2] = struct.pack(
                "<H", value
            )
    name_len, extra_len = struct.unpack_from("<HH", raw, 26)
    start = 30 + name_len + extra_len
    raw[start : start + len(data)] = data
    return bytes(raw)


@pytest.mark.parametrize("damage", [
    pytest.param(dict(method=8, data=b"\x07"), id="deflate-bad-block"),
    pytest.param(dict(method=12), id="bzip2-garbage"),
    pytest.param(dict(method=14, data=b"\0\0\5\0" + b"\xff" * 5), id="lzma-bad-options"),
    pytest.param(dict(method=99), id="unknown-method"),
    pytest.param(dict(flags=1), id="encrypted"),
])
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_archive_member_header_damage_is_named(tmp_path, archives, reader, damage):
    path = tmp_path / "damaged.npz"
    path.write_bytes(_first_member_damaged(archives[reader][1], **damage))
    with pytest.raises(DataError) as info:
        _READERS[reader](path)
    assert str(path) in str(info.value)
