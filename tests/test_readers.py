"""load_pool fuzzed: whatever the bytes, only a DataError naming the file escapes."""

import json

import pytest

from voxanon import load_pool
from voxanon.errors import DataError

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
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


def _only_data_errors(tmp_path, data: bytes):
    path = tmp_path / "fuzz.jsonl"
    path.write_bytes(data)
    try:
        load_pool(path)
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
