"""Saving and loading datasets to/from disk.

Snapshots are a metadata header plus newline-delimited JSON records using
the ADM serializer, so extended values (datetimes, points, rectangles,
circles, durations) round-trip.  Secondary indexes are rebuilt at load
time from their recorded definitions — indexes are derived state, so
persisting the trees themselves would only risk divergence.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from ..adm.parser import _AdmEncoder, coerce_record, parse_json
from ..adm.schema import make_type
from ..adm.types import Datatype, FieldType, TypeTag
from ..errors import StorageError
from .dataset import Dataset
from .index import IndexKind

FORMAT_VERSION = 1

_TAG_SPECS = {
    TypeTag.INT64: "int64",
    TypeTag.DOUBLE: "double",
    TypeTag.STRING: "string",
    TypeTag.BOOLEAN: "boolean",
    TypeTag.DATETIME: "datetime",
    TypeTag.DURATION: "duration",
    TypeTag.POINT: "point",
    TypeTag.RECTANGLE: "rectangle",
    TypeTag.CIRCLE: "circle",
    TypeTag.NULL: "null",
    TypeTag.ANY: "any",
}


def _field_spec(field_type: FieldType) -> str:
    if field_type.tag is TypeTag.ARRAY and field_type.item is not None:
        spec = f"[{_field_spec(field_type.item)}]"
    else:
        spec = _TAG_SPECS.get(field_type.tag, "any")
    if field_type.optional:
        spec += "?"
    return spec


def _datatype_header(datatype: Datatype) -> Dict:
    return {
        "name": datatype.name,
        "open": datatype.is_open,
        "fields": {
            name: _field_spec(ftype) for name, ftype in datatype.fields.items()
        },
    }


def save_dataset(dataset: Dataset, path: str) -> int:
    """Write a snapshot of ``dataset`` to ``path``; returns records written.

    The snapshot holds the current committed contents (memtables included);
    write it after quiescing the feed for a consistent cut.  A record
    holding ``NaN`` or an infinity raises :class:`StorageError`, since
    :func:`load_dataset` could not read it back.
    """
    header = {
        "format_version": FORMAT_VERSION,
        "dataset": dataset.name,
        "primary_key": dataset.primary_key,
        "num_partitions": dataset.num_partitions,
        "datatype": _datatype_header(dataset.datatype),
        "indexes": [
            {"name": name, "field": field, "kind": kind.value}
            for name, (field, kind) in dataset._index_fields.items()
        ],
    }
    count = 0
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header) + "\n")
        for record in dataset.scan():
            try:
                line = json.dumps(
                    record, cls=_AdmEncoder, separators=(",", ":"), allow_nan=False
                )
            except ValueError as exc:
                raise StorageError(f"{path}: cannot snapshot: {exc}") from exc
            handle.write(line + "\n")
            count += 1
    os.replace(tmp_path, path)  # atomic publish
    return count


def load_dataset(
    path: str,
    num_partitions: Optional[int] = None,
    memtable_budget: int = 4096,
) -> Dataset:
    """Rebuild a dataset from a snapshot written by :func:`save_dataset`.

    ``num_partitions`` overrides the snapshot's partition count (records
    rehash onto the new layout); secondary indexes are recreated.
    """
    with open(path, "r", encoding="utf-8") as handle:
        header_line = handle.readline()
        if not header_line.strip():
            raise StorageError(f"{path}: empty snapshot file")
        try:
            header = json.loads(header_line)
        except json.JSONDecodeError as exc:
            raise StorageError(f"{path}: malformed snapshot header") from exc
        version = header.get("format_version")
        if version != FORMAT_VERSION:
            raise StorageError(
                f"{path}: unsupported snapshot format version {version!r}"
            )
        datatype = make_type(
            header["datatype"]["name"],
            header["datatype"]["fields"],
            open=header["datatype"]["open"],
        )
        dataset = Dataset(
            header["dataset"],
            datatype,
            header["primary_key"],
            num_partitions=num_partitions or header["num_partitions"],
            memtable_budget=memtable_budget,
            validate=False,
        )
        for line in handle:
            line = line.strip()
            if line:
                record = coerce_record(parse_json(line), datatype)
                dataset.insert(record)
    dataset.flush_all()
    for index in header.get("indexes", []):
        dataset.create_index(
            index["name"], index["field"], IndexKind(index["kind"])
        )
    return dataset
