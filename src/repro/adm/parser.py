"""Parsing raw ingested bytes/text into ADM records, and serializing back.

This is the feed *parser* role from the paper: the adapter hands over raw
bytes, the parser produces typed ADM records.  JSON is the wire format; the
parser optionally coerces string-encoded extended values (datetimes, points)
into their ADM wrapper classes based on the target datatype.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Optional

from ..errors import AdmParseError
from .types import Datatype
from .values import Circle, DateTime, Duration, Point, Rectangle


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} is not allowed")


# One decoder for every call: ``json.loads(text, parse_constant=...)`` would
# build a new decoder per record.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _loads(text):
    """``json.loads`` that rejects ``NaN``, ``Infinity`` and ``-Infinity``."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    elif not isinstance(text, str) or text.startswith("\ufeff"):
        # json.loads raises its own TypeError or byte-order-mark error
        return json.loads(text)
    return _DECODER.decode(text)


def parse_json(text: str, datatype: Optional[Datatype] = None) -> dict:
    """Parse one JSON object into an ADM record.

    If ``datatype`` is given, string-encoded extended fields declared in the
    type (datetime, duration, point...) are coerced, and the record is
    validated against the type.  ``NaN`` and ``Infinity`` literals are
    rejected: a stored NaN coordinate would match every R-tree probe.
    """
    try:
        raw = _loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and over-long integer literals;
        # RecursionError, nesting deeper than the decoder can follow
        raise AdmParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise AdmParseError(
            f"expected a JSON object record, got {type(raw).__name__}"
        )
    if datatype is not None:
        # ``raw`` is fresh from json.loads, so it is coerced in place
        compiled = datatype.compiled()
        compiled.coerce(raw)
        compiled.validate(raw)
    return raw


def parse_json_lines(
    lines: Iterable[str], datatype: Optional[Datatype] = None
) -> Iterator[dict]:
    """Parse newline-delimited JSON records, skipping blank lines."""
    for line in lines:
        line = line.strip()
        if line:
            yield parse_json(line, datatype)


def coerce_record(record: dict, datatype: Datatype) -> dict:
    """Coerce string/array-encoded extended values using declared types.

    Returns a coerced copy; the caller's ``record`` is left unchanged.
    """
    out = dict(record)
    datatype.compiled().coerce(out)
    return out


class _AdmEncoder(json.JSONEncoder):
    def default(self, o):
        if isinstance(o, DateTime):
            return o.isoformat()
        if isinstance(o, Duration):
            return f"P{o.months}M" if not o.millis else repr(o)
        if isinstance(o, Point):
            return [o.x, o.y]
        if isinstance(o, Rectangle):
            return [o.x1, o.y1, o.x2, o.y2]
        if isinstance(o, Circle):
            return [o.center.x, o.center.y, o.radius]
        return super().default(o)


def serialize(record) -> str:
    """Serialize an ADM record back to JSON text."""
    return json.dumps(record, cls=_AdmEncoder, separators=(",", ":"))


def record_size_bytes(record) -> int:
    """Approximate wire size of a record (used by workload calibration)."""
    return len(serialize(record).encode("utf-8"))
