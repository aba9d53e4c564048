"""The AsterixDB Data Model (ADM) type system.

ADM is a superset of JSON: in addition to the JSON scalar types it has
64-bit integers, datetimes, durations, and spatial primitives (point,
rectangle, circle).  A :class:`Datatype` describes the known aspects of the
records stored in a dataset; an *open* datatype only constrains the declared
fields and admits arbitrary additional ones, a *closed* datatype rejects
undeclared fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, NamedTuple, Optional

from ..errors import AdmTypeError
from .values import MISSING, Circle, DateTime, Duration, Point, Rectangle


class TypeTag(enum.Enum):
    """Tags for every primitive and structured ADM type."""

    NULL = "null"
    MISSING = "missing"
    BOOLEAN = "boolean"
    INT64 = "int64"
    DOUBLE = "double"
    STRING = "string"
    DATETIME = "datetime"
    DURATION = "duration"
    POINT = "point"
    RECTANGLE = "rectangle"
    CIRCLE = "circle"
    ARRAY = "array"
    OBJECT = "object"
    ANY = "any"


_SCALAR_TAGS = frozenset(
    {
        TypeTag.NULL,
        TypeTag.BOOLEAN,
        TypeTag.INT64,
        TypeTag.DOUBLE,
        TypeTag.STRING,
        TypeTag.DATETIME,
        TypeTag.DURATION,
        TypeTag.POINT,
        TypeTag.RECTANGLE,
        TypeTag.CIRCLE,
    }
)


@dataclass(frozen=True)
class FieldType:
    """The type of a single declared field.

    ``optional`` fields may be absent (or null) in a conforming record.
    ``item`` is the element type for arrays; ``object_type`` names a nested
    datatype for OBJECT fields.
    """

    tag: TypeTag
    optional: bool = False
    item: Optional["FieldType"] = None
    object_type: Optional["Datatype"] = None

    def describe(self) -> str:
        base = self.tag.value
        if self.tag is TypeTag.ARRAY and self.item is not None:
            base = f"[{self.item.describe()}]"
        if self.optional:
            base += "?"
        return base


@dataclass
class Datatype:
    """A named record type, open or closed.

    Mirrors ``CREATE TYPE name AS OPEN { ... }`` in AsterixDB.  ``fields``
    maps declared field names to their :class:`FieldType`.

    ``fields`` and ``is_open`` must not change after construction: the first
    use compiles the type into closures (see :meth:`compiled`) that are
    cached on the instance and never rebuilt.
    """

    name: str
    fields: Dict[str, FieldType] = field(default_factory=dict)
    is_open: bool = True
    _compiled: Optional["CompiledType"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def declared(self, field_name: str) -> bool:
        return field_name in self.fields

    def compiled(self) -> "CompiledType":
        """This type's coerce and validate closures, compiled on first use."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = _compile(self)
        return compiled

    def validate(self, record: dict) -> None:
        """Raise :class:`AdmTypeError` if ``record`` does not conform."""
        if not isinstance(record, dict):
            raise AdmTypeError(
                f"type {self.name}: expected an object, got {type(record).__name__}"
            )
        self.compiled().validate(record)

    def conforms(self, record: dict) -> bool:
        """Return True if ``record`` validates, False otherwise."""
        try:
            self.validate(record)
        except AdmTypeError:
            return False
        return True


class CompiledType(NamedTuple):
    """The closures one :class:`Datatype` compiles to.

    Both take a dict.  ``coerce`` rewrites string/array-encoded extended
    values of declared fields in place; a nested object whose type coerces
    anything is replaced by a coerced copy.  ``validate`` raises
    :class:`AdmTypeError` on the first declared field that does not conform
    (in declaration order), then on undeclared fields of a closed type.
    Parsing runs ``coerce`` before ``validate``, so a coercion error in any
    field wins over a type error in an earlier one.  ``coerces`` is False
    when no declared field ever coerces, which makes ``coerce`` a no-op.
    """

    coerce: Callable[[dict], None]
    validate: Callable[[dict], None]
    coerces: bool


def _compile(datatype: Datatype) -> CompiledType:
    type_name = datatype.name
    coercers = []
    checks = []
    for fname, ftype in datatype.fields.items():
        coerce = _coercer(ftype)
        if coerce is not None:
            coercers.append((fname, coerce))
        checks.append(
            (fname, ftype.optional, _checker(ftype), f"type {type_name}.{fname}")
        )
    coercers = tuple(coercers)
    checks = tuple(checks)
    declared = frozenset(datatype.fields)
    is_open = datatype.is_open

    def coerce(record: dict) -> None:
        get = record.get
        for fname, coerce_value in coercers:
            value = get(fname)
            if value is not None:
                record[fname] = coerce_value(value)

    def validate(record: dict) -> None:
        get = record.get
        for fname, optional, check, prefix in checks:
            value = get(fname)
            if value is None:
                if optional:
                    continue
                raise AdmTypeError(
                    f"type {type_name}: missing required field {fname!r}"
                )
            if check is not None:
                problem = check(value)
                if problem is not None:
                    raise AdmTypeError(prefix + problem)
        if not is_open and not declared.issuperset(record):
            raise AdmTypeError(
                f"closed type {type_name}: undeclared fields "
                f"{sorted(record.keys() - declared)}"
            )

    return CompiledType(coerce, validate, bool(coercers))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _coercer(ftype: FieldType) -> Optional[Callable]:
    """A value -> value coercion for ``ftype``, or None if it never coerces.

    Only strings (datetime, duration), non-bool numbers (double) and arrays
    of non-bool numbers (spatial types) are converted; any other value,
    including an integer too large for a double, is returned unchanged for
    validation to reject.
    """
    tag = ftype.tag
    if tag is TypeTag.DATETIME or tag is TypeTag.DURATION:
        parse = DateTime.parse if tag is TypeTag.DATETIME else Duration.parse

        def coerce_literal(value):
            return parse(value) if isinstance(value, str) else value

        return coerce_literal
    if tag is TypeTag.DOUBLE:

        def coerce_double(value):
            if isinstance(value, int) and not isinstance(value, bool):
                try:
                    return float(value)
                except OverflowError:
                    pass
            return value

        return coerce_double
    if tag in _SPATIAL:
        arity, build = _SPATIAL[tag]

        def coerce_spatial(value):
            if (
                isinstance(value, (list, tuple))
                and len(value) == arity
                and all(_is_number(v) for v in value)
            ):
                try:
                    return build(*(float(v) for v in value))
                except OverflowError:
                    pass
            return value

        return coerce_spatial
    if tag is TypeTag.ARRAY and ftype.item is not None:
        coerce_item = _coercer(ftype.item)
        if coerce_item is None:
            return None

        def coerce_array(value):
            if isinstance(value, list):
                return [coerce_item(v) for v in value]
            return value

        return coerce_array
    if tag is TypeTag.OBJECT and ftype.object_type is not None:
        nested_type = ftype.object_type.compiled()
        if not nested_type.coerces:
            return None
        nested = nested_type.coerce

        def coerce_object(value):
            if isinstance(value, dict):
                value = dict(value)
                nested(value)
            return value

        return coerce_object
    return None


#: spatial tag -> (number of coordinates, constructor taking floats)
_SPATIAL = {
    TypeTag.POINT: (2, Point),
    TypeTag.RECTANGLE: (4, Rectangle),
    TypeTag.CIRCLE: (3, lambda x, y, radius: Circle(Point(x, y), radius)),
}
_CLASS_OF = {
    TypeTag.NULL: type(None),
    TypeTag.STRING: str,
    TypeTag.BOOLEAN: bool,
    TypeTag.DATETIME: DateTime,
    TypeTag.DURATION: Duration,
    TypeTag.POINT: Point,
    TypeTag.RECTANGLE: Rectangle,
    TypeTag.CIRCLE: Circle,
}
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _checker(ftype: FieldType) -> Optional[Callable]:
    """A check for one non-null value of ``ftype``, or None if any value passes.

    The check returns None when the value conforms, else the rest of the
    error message after ``type <name>.<field>``.
    """
    tag = ftype.tag
    expected = f": expected {ftype.describe()}, got "

    def mismatch(value) -> str:
        return f"{expected}{type(value).__name__} ({value!r})"

    if tag is TypeTag.INT64:

        def check_int64(value):
            if not isinstance(value, int) or isinstance(value, bool):
                return mismatch(value)
            if not _INT64_MIN <= value <= _INT64_MAX:
                return f": int64 out of range: {value}"
            return None

        return check_int64
    if tag is TypeTag.DOUBLE:

        def check_double(value):
            if isinstance(value, float):
                return None
            if isinstance(value, int) and not isinstance(value, bool):
                try:
                    float(value)
                except OverflowError:
                    return f": double out of range: {value}"
                return None
            return mismatch(value)

        return check_double
    if tag in _CLASS_OF:
        cls = _CLASS_OF[tag]

        def check_class(value):
            if isinstance(value, cls):
                return None
            return mismatch(value)

        return check_class
    if tag is TypeTag.ARRAY:
        check_item = _checker(ftype.item) if ftype.item is not None else None

        def check_array(value):
            if not isinstance(value, list):
                return mismatch(value)
            if check_item is not None:
                for i, element in enumerate(value):
                    problem = check_item(element)
                    if problem is not None:
                        return f"[{i}]{problem}"
            return None

        return check_array
    if tag is TypeTag.OBJECT:
        nested = (
            ftype.object_type.compiled().validate
            if ftype.object_type is not None
            else None
        )

        def check_object(value):
            if not isinstance(value, dict):
                return mismatch(value)
            if nested is not None:
                nested(value)  # raises with the nested type's own name
            return None

        return check_object
    return None  # ANY and MISSING accept every value


def tag_of(value) -> TypeTag:
    """Return the runtime :class:`TypeTag` of a Python-represented ADM value."""
    if value is MISSING:
        return TypeTag.MISSING
    if value is None:
        return TypeTag.NULL
    if isinstance(value, bool):
        return TypeTag.BOOLEAN
    if isinstance(value, int):
        return TypeTag.INT64
    if isinstance(value, float):
        return TypeTag.DOUBLE
    if isinstance(value, str):
        return TypeTag.STRING
    if isinstance(value, DateTime):
        return TypeTag.DATETIME
    if isinstance(value, Duration):
        return TypeTag.DURATION
    if isinstance(value, Point):
        return TypeTag.POINT
    if isinstance(value, Rectangle):
        return TypeTag.RECTANGLE
    if isinstance(value, Circle):
        return TypeTag.CIRCLE
    if isinstance(value, list):
        return TypeTag.ARRAY
    if isinstance(value, dict):
        return TypeTag.OBJECT
    raise AdmTypeError(f"value {value!r} has no ADM type")


def is_scalar_tag(tag: TypeTag) -> bool:
    return tag in _SCALAR_TAGS
