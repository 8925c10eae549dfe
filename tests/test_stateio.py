import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import UNREADABLE, bloch_payload, write_state

from qconc.errors import InvalidState
from qconc.qstate import bell_state, random_rank_k, werner_state
from qconc.stateio import (
    _read_stream,
    canonical_dumps,
    read_state,
    report_header,
    state_from_dict,
    state_to_dict,
)


class TestCanonicalText:
    def test_keys_sorted_and_newline_terminated(self):
        text = canonical_dumps({"b": 1, "a": 2})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')

    def test_equal_payloads_give_identical_bytes(self):
        one = canonical_dumps({"x": [1, 2], "y": {"k": 0.5}})
        two = canonical_dumps({"y": {"k": 0.5}, "x": [1, 2]})
        assert one == two

    def test_header_fields(self):
        header = report_header(seed=7, samples=100)
        assert header["tool"] == "qconc"
        assert header["seed"] == 7
        assert header["samples"] == 100
        assert "tolerance" not in header
        assert "version" in header


_EDGE_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1)
_FLOATS = st.floats() | st.sampled_from(_EDGE_FLOATS)
#: st.text draws non-ASCII and control characters as well as plain ones
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((2**70, -(2**70)))
    | _FLOATS
    | _FLOATS.map(np.float64)
    | st.text()
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda kids: (
        st.lists(kids, max_size=4)
        | st.lists(kids, max_size=4).map(tuple)
        | st.dictionaries(st.text(), kids, max_size=4)
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@example({"\u00e9\x00\n\u2028\U0001f600": ["\x1f\"\\\ud800", [], {}, ()]})
@example([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1, 2**70, True, None])
@example({"b": np.float64(0.1), "a": (np.float64(-math.inf), np.float64(math.nan))})
@given(_PAYLOADS)
def test_canonical_dumps_writes_the_bytes_of_json(payload):
    assert canonical_dumps(payload) == json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "payload",
    [{"x": np.int64(1)}, [np.zeros(2)], {"x": {1.0}}, {1: "one"}, {"x": [{2: 1}]}],
    ids=["numpy-int64", "ndarray", "set", "int-key", "nested-int-key"],
)
def test_canonical_dumps_rejects_what_json_would_not_write_under_str_keys(payload):
    with pytest.raises(TypeError):
        canonical_dumps(payload)


class TestStatePayloads:
    def test_matrix_roundtrip(self):
        for seed in range(5):
            rho = random_rank_k(1 + seed % 4, seed)
            back = state_from_dict(state_to_dict(rho))
            np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_bloch_roundtrip(self):
        rho = werner_state(0.7)
        back = state_from_dict(bloch_payload(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_json_text_is_reparseable(self):
        rho = bell_state("psi+")
        payload = json.loads(canonical_dumps(state_to_dict(rho)))
        back = state_from_dict(payload)
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-12)

    def test_rejects_non_object(self):
        with pytest.raises(InvalidState, match="JSON object"):
            state_from_dict([1, 2, 3])

    def test_rejects_missing_form(self):
        with pytest.raises(InvalidState, match="'matrix' or 'bloch'"):
            state_from_dict({"rows": []})

    def test_rejects_malformed_matrix_entries(self):
        payload = state_to_dict(bell_state("phi+"))
        del payload["matrix"][0][0]["im"]
        with pytest.raises(InvalidState, match="malformed matrix"):
            state_from_dict(payload)

    def test_rejects_malformed_bloch(self):
        with pytest.raises(InvalidState, match="malformed bloch"):
            state_from_dict({"bloch": {"p": [0, 0, 0], "s": [0, 0, 0]}})

    def test_rejects_unphysical_matrix(self):
        payload = state_to_dict(bell_state("phi+"))
        payload["matrix"][0][0]["re"] = 0.9  # breaks the unit trace
        with pytest.raises(InvalidState):
            state_from_dict(payload)

    def test_file_roundtrip(self, tmp_path):
        rho = random_rank_k(3, 11)
        path = tmp_path / "state.json"
        write_state(path, rho)
        np.testing.assert_allclose(read_state(path).matrix, rho.matrix, atol=1e-12)
        # canonical writer: a second write is byte identical
        first = path.read_bytes()
        write_state(path, rho)
        assert path.read_bytes() == first

    @pytest.mark.parametrize("kind", sorted(UNREADABLE))
    def test_unreadable_file_raises_invalid_state(self, tmp_path, kind):
        data, message = UNREADABLE[kind]
        path = tmp_path / "state.json"
        path.write_bytes(data)
        with pytest.raises(InvalidState) as caught:
            read_state(path)
        assert str(caught.value).startswith(message)


#: a state file cut off after six lines, with LF line endings
_TRUNCATED = b'{\n  "matrix": [\n    [\n      {\n        "re": 0.5,\n        "im"'

#: the InvalidState message of reading each file; the positions of a JSON
#: error are those of the text with CRLF and lone CR read as LF
_READ_MESSAGES = {
    "lf": (_TRUNCATED, "input is not valid JSON: Expecting ':' delimiter: line 6 column 13 (char 61)"),
    "crlf": (
        _TRUNCATED.replace(b"\n", b"\r\n"),
        "input is not valid JSON: Expecting ':' delimiter: line 6 column 13 (char 61)",
    ),
    "cr": (
        _TRUNCATED.replace(b"\n", b"\r"),
        "input is not valid JSON: Expecting ':' delimiter: line 6 column 13 (char 61)",
    ),
    "mixed": (
        b'{\r\n\r"matrix":\n\r\n [1, 2,\r\r\n',
        "input is not valid JSON: Expecting value: line 7 column 1 (char 23)",
    ),
    "truncated": (
        UNREADABLE["truncated"][0],
        "input is not valid JSON: Expecting ':' delimiter: line 1 column 30 (char 29)",
    ),
    "not-utf8": (
        UNREADABLE["not-utf8"][0],
        "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 12:"
        " invalid continuation byte",
    ),
    "crlf-not-utf8": (
        b'{\r\n"matrix": "\xe9\xff"}',
        "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xe9 in position 14:"
        " invalid continuation byte",
    ),
    "cut-utf8": (
        b'{"matrix": "\xc3',
        "input is not UTF-8 text: 'utf-8' codec can't decode byte 0xc3 in position 12:"
        " unexpected end of data",
    ),
}


def _message(read, *args) -> str:
    with pytest.raises(InvalidState) as caught:
        read(*args)
    return str(caught.value)


@pytest.mark.parametrize("kind", sorted(_READ_MESSAGES))
def test_read_state_messages_are_pinned(tmp_path, kind):
    data, message = _READ_MESSAGES[kind]
    path = tmp_path / "state.json"
    path.write_bytes(data)
    assert _message(read_state, path) == message


@pytest.mark.parametrize("kind", sorted(_READ_MESSAGES) + sorted(UNREADABLE))
def test_read_state_gives_the_messages_of_a_text_stream(tmp_path, kind):
    """read_state decodes the bytes itself and translates line endings as a
    text-mode read does, so each message is the one the same bytes give read
    through a UTF-8 text stream, as stdin is."""
    data = _READ_MESSAGES[kind][0] if kind in _READ_MESSAGES else UNREADABLE[kind][0]
    path = tmp_path / "state.json"
    path.write_bytes(data)
    stream = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    assert _message(read_state, path) == _message(_read_stream, stream)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_line_endings_do_not_change_the_state_read(tmp_path, newline):
    rho = random_rank_k(3, 11)
    path = tmp_path / "state.json"
    path.write_bytes(canonical_dumps(state_to_dict(rho)).replace("\n", newline).encode())
    assert read_state(path).matrix.tobytes() == rho.matrix.tobytes()


@pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
def test_overflowing_bloch_fields_end_in_entries_must_be_finite(tmp_path, where):
    """Huge finite fields pass the payload's checks and overflow the
    assembled sums; reading them ends in the message of a non-finite matrix."""
    big, zeros = 1.7e308, [0.0] * 3
    if where == "diagonal":
        bloch = {"p": [0.0, 0.0, big], "s": [0.0, 0.0, big], "pi": [zeros] * 3}
    else:
        bloch = {"p": zeros, "s": [big, 0.0, 0.0], "pi": [zeros, zeros, [big, 0.0, 0.0]]}
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"bloch": bloch}))
    assert _message(read_state, path) == "entries must be finite"
