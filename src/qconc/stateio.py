"""JSON serialization for states and report headers.

Two interchangeable state payloads are supported: an explicit complex
matrix, {"matrix": [[{"re": .., "im": ..} x4] x4]}, and a Bloch payload,
{"bloch": {"p": [..], "s": [..], "pi": [[..]]}}. Readers accept either and
turn text that is no UTF-8 JSON, and any malformed, non-finite or unphysical
payload, into InvalidState (or NotAState for Bloch data that is no state);
the writer emits the matrix form.

Every report is canonical JSON, so that a fixed seed and fixed flags give
byte-identical files: the bytes of json.dumps(payload, sort_keys=True,
indent=2) plus a newline, with str keys only. canonical_dumps writes them in
one pass; json's own indenting encoder is pure Python and slower.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii as _quote

import numpy as np

from .errors import InvalidState
from .qstate import BlochDecomposition, DensityOperator, assemble

TOOL_NAME = "qconc"
#: the package version, also qconc.__version__; pyproject.toml declares the
#: same string, and a literal spares every import a package-metadata lookup
TOOL_VERSION = "0.1.0"


_INF = float("inf")


def _encode(value, newline: str) -> str:
    """The text json.dumps(value, sort_keys=True, indent=2) gives for a value
    that starts a line after newline (a line break and the value's indent).
    Checks run in json's order; anything json would not write, and any key
    that is no str, raises TypeError."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        if value == -_INF:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_encode(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a key that is no str
        items = [_quote(k) + ": " + _encode(v, inner) for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def canonical_dumps(payload) -> str:
    """Canonical JSON text: the bytes of json.dumps(payload, sort_keys=True,
    indent=2) plus a final newline, written in one pass; str keys only."""
    return _encode(payload, "\n") + "\n"


def report_header(seed=None, tolerance=None, samples=None) -> dict:
    """Provenance block embedded in every emitted report."""
    header = {"tool": TOOL_NAME, "version": TOOL_VERSION}
    if seed is not None:
        header["seed"] = int(seed)
    if tolerance is not None:
        header["tolerance"] = float(tolerance)
    if samples is not None:
        header["samples"] = int(samples)
    return header


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


def _jsonable(value):
    """A value as JSON data: a complex number as {"re", "im"}, an array or
    tuple as a list, a dataclass as a dict of its fields, numpy scalars as
    Python ones."""
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name)) for f in fields(value)
        }
    if isinstance(value, complex):
        return {"re": float(value.real), "im": float(value.imag)}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def state_to_dict(rho: DensityOperator) -> dict:
    return {"matrix": _jsonable(rho.matrix)}


def _matrix_from_payload(payload) -> DensityOperator:
    try:
        m = np.array(
            [[complex(e["re"], e["im"]) for e in row] for row in payload],
            dtype=complex,
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InvalidState(f"malformed matrix payload: {exc}") from exc
    return DensityOperator(m)


def _bloch_from_payload(payload) -> DensityOperator:
    try:
        bloch = BlochDecomposition(
            p=np.asarray(payload["p"], dtype=float),
            s=np.asarray(payload["s"], dtype=float),
            pi=np.asarray(payload["pi"], dtype=float),
        )
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise InvalidState(f"malformed bloch payload: {exc}") from exc
    return assemble(bloch)


def state_from_dict(payload: dict) -> DensityOperator:
    """Parse either state payload form into a validated density operator."""
    if not isinstance(payload, dict):
        raise InvalidState("state payload must be a JSON object")
    if "matrix" in payload:
        return _matrix_from_payload(payload["matrix"])
    if "bloch" in payload:
        return _bloch_from_payload(payload["bloch"])
    raise InvalidState("state payload needs a 'matrix' or 'bloch' field")


def _state_from_text(text: str) -> DensityOperator:
    """The state in JSON text; text that is not JSON, or nested past the
    parser's recursion limit, raises InvalidState."""
    try:
        return state_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise InvalidState(f"input is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise InvalidState(f"input is nested too deeply: {exc}") from exc


def _not_utf8(exc: UnicodeDecodeError) -> InvalidState:
    return InvalidState(f"input is not UTF-8 text: {exc}")


def _read_stream(fh) -> DensityOperator:
    """The state in an open text stream; text that is not UTF-8 raises
    InvalidState, as does anything _state_from_text refuses."""
    try:
        text = fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from exc
    return _state_from_text(text)


def read_state(path) -> DensityOperator:
    """The state in a JSON file; unreadable text raises InvalidState.

    The file is read as bytes in one unbuffered read and decoded once. Line
    endings are then translated as a text-mode read translates them, CRLF
    and lone CR to LF, so a JSON error names the line, column and character
    that reading the file as text would name."""
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return _state_from_text(text)
