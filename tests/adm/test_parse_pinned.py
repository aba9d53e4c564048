"""Pinned parse behaviour: stored records and error messages, frozen.

The expected digests below were recorded from the interpreted
coerce-and-validate walkers, before ``Datatype`` compilation replaced them.
Any change to what ``parse_json`` stores, or to the type or message of any
:class:`~repro.errors.AdmError` it raises (including which error wins when
several fields are bad), changes a digest.

The corpus deliberately leaves out the inputs whose outcome was changed on
purpose when bool and non-numeric elements stopped being coerced: a
``double`` field given a bool, and spatial fields given bool or string
elements.  ``test_parser.py::TestCoercionKeepsTypeErrors`` covers those.
"""

import hashlib
import json
import random

import pytest

from repro.adm import (
    FieldType,
    TypeTag,
    coerce_record,
    make_type,
    parse_json,
    serialize,
)
from repro.errors import AdmError
from repro.workloads import TWEET_TYPE_FULL, TweetGenerator

TWEETS_DIGEST = "d8f026fdaa1dfd1d946ce95cb7466b565f95b3d093e4ed5089324847b1ae49ea"
PARSE_DIGEST = "bffa9f2fbf4728f33859589cca5bda27f12a54e89084a5562428ef6289daa750"
VALIDATE_DIGEST = "968c2f744a921adf8f6b33b204532bf667432d51d1cdc6e08d654a1acea9b3b0"
CORPUS_SIZE = 3000

USER = make_type(
    "UserType", {"screen_name": "string", "followers": "int64?"}, open=False
)
EVENT = make_type(
    "EventType",
    {
        "id": "int64",
        "name": "string",
        "score": "double?",
        "flag": "boolean?",
        "at": "datetime",
        "span": "duration?",
        "stamps": "[datetime]?",
        "tags": "[string]?",
        "grid": "[[int64]]?",
        "loc": "point?",
        "area": "rectangle?",
        "zone": "circle?",
        "user": FieldType(TypeTag.OBJECT, optional=True, object_type=USER),
    },
    open=False,
)
OPEN_EVENT = make_type("OpenEventType", dict(EVENT.fields), open=True)

_BASE = {
    "id": 7,
    "name": "e",
    "score": 2,
    "flag": False,
    "at": "2019-03-08T00:26:40.123Z",
    "span": "P1Y2M3DT4H5M6.5S",
    "stamps": ["2019-01-01T00:00:00Z", "2020-02-29T23:59:59Z"],
    "tags": ["a", "b"],
    "grid": [[1, 2], [3]],
    "loc": [1.5, -2],
    "area": [3, 4, 1, 2],
    "zone": [0, 0.5, 2],
    "user": {"screen_name": "u", "followers": 12},
}

_BAD_DATETIMES = (
    "2019-13-01T00:00:00Z",
    "2019-02-29T00:00:00Z",
    "2019-01-01T24:00:00Z",
    "2019-01-01 00:00:00",
    "yesterday",
    "",
)
_BAD_DURATIONS = ("P", "PT", "P1X", "2M", "PT1.5H", "")
_WRONG_VALUES = (
    "x", 1.5, True, 3, None, [], {}, [1], ["x"], {"a": 1}, 2**63, -(2**63) - 1,
)


def _mutate(rnd: random.Random, record: dict) -> None:
    """Apply one random defect to ``record`` in place."""
    field = rnd.choice(sorted(_BASE))
    kind = rnd.randrange(9)
    if kind == 0:
        record.pop(field, None)
    elif kind == 1:
        record[field] = None
    elif kind == 2:
        value = rnd.choice(_WRONG_VALUES)
        if field == "score" and isinstance(value, bool):
            value = "2.5"
        record[field] = value
    elif kind == 3:
        target = rnd.choice(("at", "stamps", "span"))
        if target == "at":
            record["at"] = rnd.choice(_BAD_DATETIMES)
        elif target == "span":
            record["span"] = rnd.choice(_BAD_DURATIONS)
        else:
            stamps = list(record.get("stamps") or ["2019-01-01T00:00:00Z"])
            stamps.insert(
                rnd.randrange(len(stamps) + 1),
                rnd.choice(_BAD_DATETIMES + (None, 5, ["2019-01-01T00:00:00Z"])),
            )
            record["stamps"] = stamps
    elif kind == 4:
        big = rnd.choice((2**63, -(2**63) - 1, 2**63 - 1, -(2**63), 2**64))
        where = rnd.randrange(3)
        if where == 0:
            record["id"] = big
        elif where == 1:
            record["grid"] = [[1], [2, big]]
        else:
            record["user"] = {"screen_name": "u", "followers": big}
    elif kind == 5:
        record[rnd.choice(("zzz", "extra", "a_b"))] = rnd.choice((1, None, "v"))
    elif kind == 6:
        user = record.get("user")
        user = dict(user) if isinstance(user, dict) else {"screen_name": "u"}
        defect = rnd.randrange(4)
        if defect == 0:
            user.pop("screen_name", None)
        elif defect == 1:
            user["screen_name"] = rnd.choice((3, None, ["u"]))
        elif defect == 2:
            user["extra"] = 1
        else:
            user["followers"] = rnd.choice(("9", 1.0, True))
        record["user"] = user
    elif kind == 7:
        record["grid"] = rnd.choice(
            ([[1, "2"]], [1, 2], [[1], None], [[True]], "grid", [[1.0]])
        )
    else:
        record["tags"] = rnd.choice((["a", 1], "a", [None], [["a"]]))


def malformed_corpus(seed: int = 11, size: int = CORPUS_SIZE):
    """Seeded raw inputs: mostly defective records, a few valid ones."""
    rnd = random.Random(seed)
    out = []
    for _ in range(size):
        roll = rnd.random()
        if roll < 0.04:
            out.append(rnd.choice(("[1, 2]", "42", '"s"', "null", "true", "[]")))
            continue
        record = json.loads(json.dumps(_BASE))
        for _ in range(rnd.choice((0, 1, 1, 1, 2, 2, 3))):
            _mutate(rnd, record)
        text = json.dumps(record)
        if roll < 0.10:
            text = text[: rnd.randrange(len(text))]
        out.append(text)
    return out


def _outcome(fn):
    try:
        result = fn()
    except AdmError as exc:
        return [type(exc).__name__, str(exc)]
    return ["ok", serialize(result)]


def _digest(items) -> str:
    return hashlib.sha256(
        json.dumps(items, separators=(",", ":")).encode("utf-8")
    ).hexdigest()


def test_tweets_parse_to_pinned_records():
    digest = hashlib.sha256()
    for raw in TweetGenerator(seed=1).raw_json(2000):
        digest.update(serialize(parse_json(raw, TWEET_TYPE_FULL)).encode())
        digest.update(b"\n")
    assert digest.hexdigest() == TWEETS_DIGEST


def test_malformed_corpus_errors_are_pinned():
    outcomes = []
    for text in malformed_corpus():
        outcomes.append(_outcome(lambda: parse_json(text, EVENT)))
        outcomes.append(_outcome(lambda: parse_json(text, OPEN_EVENT)))
    kinds = {kind for kind, _ in outcomes}
    assert kinds == {"ok", "AdmParseError", "AdmTypeError"}
    assert _digest(outcomes) == PARSE_DIGEST


def test_validate_and_coerce_record_are_pinned():
    outcomes = []
    for text in malformed_corpus():
        try:
            record = json.loads(text)
        except ValueError:
            continue
        outcomes.append(_outcome(lambda: EVENT.validate(record) or record))
        outcomes.append(EVENT.conforms(record))
        if isinstance(record, dict):
            outcomes.append(_outcome(lambda: coerce_record(record, EVENT)))
            # coerce_record copies: the caller's dict is left as it was
            assert json.dumps(record) == text
    assert _digest(outcomes) == VALIDATE_DIGEST


@pytest.mark.parametrize(
    "changes, expected",
    [
        # a coercion (parse) error in a later field beats a type error earlier
        (
            {"id": "x", "span": "P"},
            ("AdmParseError", "invalid duration literal: 'P'"),
        ),
        # type errors: the first declared field wins, in declaration order
        (
            {"tags": [1], "id": "x", "name": 5},
            ("AdmTypeError", "type EventType.id: expected int64, got str ('x')"),
        ),
        # a missing required field is reported in declaration order too
        (
            {"name": None, "score": "1"},
            ("AdmTypeError", "type EventType: missing required field 'name'"),
        ),
        # per-field checks run before the closed-type check
        (
            {"zzz": 1, "flag": "no"},
            (
                "AdmTypeError",
                "type EventType.flag: expected boolean?, got str ('no')",
            ),
        ),
        (
            {"zzz": 1, "aaa": 2},
            ("AdmTypeError", "closed type EventType: undeclared fields ['aaa', 'zzz']"),
        ),
        # nested errors carry the nested type's name or the element path
        (
            {"user": {"screen_name": "u", "x": 1}},
            ("AdmTypeError", "closed type UserType: undeclared fields ['x']"),
        ),
        (
            {"grid": [[1], [2, "3"]]},
            (
                "AdmTypeError",
                "type EventType.grid[1][1]: expected int64, got str ('3')",
            ),
        ),
        (
            {"stamps": ["2019-01-01T00:00:00Z", None]},
            (
                "AdmTypeError",
                "type EventType.stamps[1]: expected datetime, got NoneType (None)",
            ),
        ),
        (
            {"id": 2**63},
            (
                "AdmTypeError",
                "type EventType.id: int64 out of range: 9223372036854775808",
            ),
        ),
        (
            {"at": "2019-02-29T00:00:00Z", "stamps": ["bad"]},
            ("AdmParseError", "invalid day in datetime: '2019-02-29T00:00:00Z'"),
        ),
    ],
)
def test_which_error_wins(changes, expected):
    record = dict(_BASE)
    record.update(changes)
    assert tuple(_outcome(lambda: parse_json(json.dumps(record), EVENT))) == expected
