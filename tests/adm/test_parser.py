"""JSON -> ADM parsing, coercion, and serialization."""

import json

import pytest

from repro.adm import (
    Circle,
    DateTime,
    Duration,
    FieldType,
    Point,
    Rectangle,
    TypeTag,
    coerce_record,
    make_type,
    parse_json,
    parse_json_lines,
    record_size_bytes,
    serialize,
)
from repro.errors import AdmParseError, AdmTypeError


class TestParseJson:
    def test_plain_object(self):
        assert parse_json('{"id": 1, "text": "hi"}') == {"id": 1, "text": "hi"}

    def test_malformed_rejected(self):
        with pytest.raises(AdmParseError, match="malformed JSON"):
            parse_json("{nope}")

    def test_non_object_rejected(self):
        with pytest.raises(AdmParseError, match="expected a JSON object"):
            parse_json("[1, 2]")

    @pytest.mark.parametrize(
        "text, literal",
        [
            ('{"latitude": NaN}', "NaN"),
            ('{"p": [1.0, Infinity]}', "Infinity"),
            ('{"o": {"x": -Infinity}}', "-Infinity"),
            (b'{"latitude": NaN}', "NaN"),
        ],
    )
    def test_non_finite_literals_rejected(self, text, literal):
        message = f"malformed JSON: non-finite number {literal} is not allowed"
        with pytest.raises(AdmParseError, match=message):
            parse_json(text)

    def test_non_finite_words_in_strings_kept(self):
        assert parse_json('{"t": "NaN Infinity"}') == {"t": "NaN Infinity"}

    def test_bytes_and_byte_order_mark_handled_as_json_loads(self):
        assert parse_json('{"id": 1}'.encode("utf-16")) == {"id": 1}
        with pytest.raises(AdmParseError, match="malformed JSON: Unexpected UTF-8"):
            parse_json('\ufeff{"id": 1}')

    def test_datetime_coercion(self):
        t = make_type("T", {"ts": "datetime"})
        record = parse_json('{"ts": "2019-03-15T12:00:00Z"}', t)
        assert record["ts"] == DateTime.parse("2019-03-15T12:00:00Z")

    def test_point_coercion_from_pair(self):
        t = make_type("T", {"loc": "point"})
        assert parse_json('{"loc": [1.5, 2.5]}', t)["loc"] == Point(1.5, 2.5)

    def test_rectangle_and_circle_coercion(self):
        t = make_type("T", {"r": "rectangle", "c": "circle"})
        record = parse_json('{"r": [0,0,2,2], "c": [1,1,0.5]}', t)
        assert record["r"] == Rectangle(0, 0, 2, 2)
        assert record["c"] == Circle(Point(1, 1), 0.5)

    def test_duration_coercion(self):
        t = make_type("T", {"d": "duration"})
        assert parse_json('{"d": "P2M"}', t)["d"] == Duration(2, 0)

    def test_validation_applied_after_coercion(self):
        t = make_type("T", {"id": "int64"})
        with pytest.raises(Exception):
            parse_json('{"id": "oops"}', t)

    def test_nested_array_coercion(self):
        t = make_type("T", {"ds": "[datetime]"})
        record = parse_json('{"ds": ["2019-01-01T00:00:00Z"]}', t)
        assert record["ds"][0] == DateTime.parse("2019-01-01T00:00:00Z")

    def test_int_to_double_coercion(self):
        t = make_type("T", {"x": "double"})
        assert parse_json('{"x": 3}', t)["x"] == 3.0
        assert isinstance(parse_json('{"x": 3}', t)["x"], float)


_HUGE = 10**400  # a valid JSON integer that float() cannot represent


class TestCoercionKeepsTypeErrors:
    """Only non-bool numbers are coerced; anything else reaches validation."""

    T = make_type(
        "T", {"x": "double?", "p": "point?", "r": "rectangle?", "c": "circle?"}
    )

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("x", True, "type T.x: expected double?, got bool (True)"),
            ("p", ["1.5", True], "type T.p: expected point?, got list (['1.5', True])"),
            ("p", ["a", 1], "type T.p: expected point?, got list (['a', 1])"),
            ("p", [False, 1], "type T.p: expected point?, got list ([False, 1])"),
            (
                "r",
                [0, 0, "1", 1],
                "type T.r: expected rectangle?, got list ([0, 0, '1', 1])",
            ),
            (
                "r",
                [0, True, 1, 1],
                "type T.r: expected rectangle?, got list ([0, True, 1, 1])",
            ),
            ("c", [1, 1, "r"], "type T.c: expected circle?, got list ([1, 1, 'r'])"),
            ("c", [True, 1, 2], "type T.c: expected circle?, got list ([True, 1, 2])"),
            # integers beyond the double range stay ints and fail validation
            ("x", _HUGE, f"type T.x: double out of range: {_HUGE}"),
            ("p", [_HUGE, 1], f"type T.p: expected point?, got list ([{_HUGE}, 1])"),
            (
                "c",
                [0, 0, -_HUGE],
                f"type T.c: expected circle?, got list ([0, 0, {-_HUGE}])",
            ),
        ],
    )
    def test_rejected_with_type_error(self, field, value, message):
        text = json.dumps({field: value})
        with pytest.raises(AdmTypeError) as info:
            parse_json(text, self.T)
        assert str(info.value) == message
        # coercion alone leaves the value as it was
        assert coerce_record({field: value}, self.T) == {field: value}

    def test_numbers_still_coerced(self):
        record = parse_json('{"x": 2, "p": [1, 2.5], "r": [0, 0, 2, 1], '
                            '"c": [0, 1, 3]}', self.T)
        assert record == {
            "x": 2.0,
            "p": Point(1.0, 2.5),
            "r": Rectangle(0.0, 0.0, 2.0, 1.0),
            "c": Circle(Point(0.0, 1.0), 3.0),
        }
        assert all(isinstance(v, float) for v in (record["x"], record["p"].x))

    def test_double_accepts_largest_finite_integer(self):
        big = int(1.7976931348623157e308)
        assert parse_json(json.dumps({"x": big}), self.T) == {"x": float(big)}
        assert self.T.conforms({"x": big})
        assert not self.T.conforms({"x": _HUGE})

    @pytest.mark.parametrize(
        "text",
        [
            '{"x": %s}' % ("9" * 5000),  # longer than json.loads accepts
            '{"x": %s}' % ("[" * 100_000),  # deeper than the decoder recurses
        ],
    )
    def test_decoder_limits_are_parse_errors(self, text):
        with pytest.raises(AdmParseError, match="malformed JSON"):
            parse_json(text, self.T)

    def test_coerce_record_copies_nested_objects(self):
        inner = make_type("Inner", {"at": "datetime"})
        outer = make_type(
            "Outer",
            {"in": FieldType(TypeTag.OBJECT, object_type=inner), "ds": "[datetime]"},
        )
        record = {"in": {"at": "2019-01-01T00:00:00Z"}, "ds": ["2019-01-01T00:00:00Z"]}
        out = coerce_record(record, outer)
        assert out["in"]["at"] == DateTime.parse("2019-01-01T00:00:00Z")
        assert out["ds"] == [DateTime.parse("2019-01-01T00:00:00Z")]
        assert record == {
            "in": {"at": "2019-01-01T00:00:00Z"},
            "ds": ["2019-01-01T00:00:00Z"],
        }


class TestParseLines:
    def test_skips_blank_lines(self):
        lines = ['{"id": 1}', "", "  ", '{"id": 2}']
        assert [r["id"] for r in parse_json_lines(lines)] == [1, 2]


class TestSerialize:
    def test_roundtrip_extended_values(self):
        record = {
            "ts": DateTime.parse("2019-03-15T12:00:00Z"),
            "loc": Point(1.0, 2.0),
            "area": Rectangle(0, 0, 1, 1),
            "zone": Circle(Point(0, 0), 2.0),
        }
        text = serialize(record)
        t = make_type(
            "T", {"ts": "datetime", "loc": "point", "area": "rectangle", "zone": "circle"}
        )
        back = parse_json(text, t)
        assert back == record

    def test_record_size_is_positive_and_stable(self):
        record = {"id": 1, "text": "x" * 100}
        assert record_size_bytes(record) == record_size_bytes(dict(record))
        assert record_size_bytes(record) > 100
