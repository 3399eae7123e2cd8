"""Schemas: typed attributes and joint indices.

A DSOS schema names its attributes and declares *indices*; a joint
index like ``job_rank_time`` orders objects by (job_id, rank,
timestamp), so "search the data by a specific rank within a specific
job over time" (the paper's example) is a prefix range scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

__all__ = ["Attr", "Schema", "SchemaError", "DARSHAN_DATA_SCHEMA"]

#: Per attribute type: the Python type of a stored value, and the dtype
#: of the column a store keeps the attribute in.
TYPES = {
    "int": (int, np.dtype(np.int64)),
    "float": (float, np.dtype(np.float64)),
    "string": (str, np.dtype(object)),
}

#: The range of an ``int`` attribute's values: int64's.
INT_MIN, INT_MAX = -(2**63), 2**63 - 1


class SchemaError(ValueError):
    """Schema definition or object-validation failure."""


@dataclass(frozen=True)
class Attr:
    """One typed attribute."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in TYPES:
            raise SchemaError(
                f"attribute {self.name!r}: unknown type {self.type!r} "
                f"(expected one of {sorted(TYPES)})"
            )

    @property
    def dtype(self) -> np.dtype:
        """The dtype of the column holding this attribute."""
        return TYPES[self.type][1]

    def check(self, value):
        """``value`` as this attribute stores it, else :class:`SchemaError`.

        ``int`` takes an int that is not a bool and fits int64;
        ``float`` takes a float, or an int that is not a bool, stored as
        ``float(value)`` (SOS stores a double attribute as a double);
        ``string`` takes a str.
        """
        if isinstance(value, bool):
            pass
        elif self.type == "string":
            if isinstance(value, str):
                return value
        elif self.type == "int":
            if isinstance(value, int) and INT_MIN <= value <= INT_MAX:
                return value
        elif isinstance(value, (int, float)):
            try:
                return float(value)
            except OverflowError:
                pass
        raise SchemaError(
            f"attribute {self.name!r} expects {self.type}, "
            f"got {type(value).__name__}: {value!r}"
        )


class Schema:
    """Attribute set + named joint indices."""

    def __init__(self, name: str, attrs: list[Attr], indices: dict[str, tuple]):
        if not name:
            raise SchemaError("schema name must be non-empty")
        if not attrs:
            raise SchemaError("schema needs at least one attribute")
        self.name = name
        self.attrs = {a.name: a for a in attrs}
        if len(self.attrs) != len(attrs):
            raise SchemaError("duplicate attribute names")
        self.indices: dict[str, tuple] = {}
        for index_name, key_attrs in indices.items():
            key_attrs = tuple(key_attrs)
            missing = [k for k in key_attrs if k not in self.attrs]
            if missing:
                raise SchemaError(
                    f"index {index_name!r} references unknown attrs {missing}"
                )
            if not key_attrs:
                raise SchemaError(f"index {index_name!r} has an empty key")
            self.indices[index_name] = key_attrs
        #: ``obj -> tuple`` of its value of every attribute, in order.
        self._values = (
            itemgetter(*self.attrs) if len(self.attrs) > 1
            else lambda obj, a=next(iter(self.attrs)): (obj[a],)
        )
        self._checks = [attr.check for attr in attrs]

    def validate(self, obj: dict) -> None:
        """Check an object against the schema (:meth:`row` with
        ``validate``)."""
        self.row(obj, validate=True)

    def row(self, obj: dict, *, validate: bool = False) -> tuple:
        """``obj``'s value of every attribute, in attribute order: the
        form a store keeps an object in.

        Raises :class:`SchemaError` unless ``obj`` holds exactly the
        schema's attributes.  With ``validate`` each value must also be
        one its attribute takes (:meth:`Attr.check`), and the row holds
        it as stored: an int under a ``float`` attribute becomes a
        float.  Without it the caller vouches that every value already
        has its attribute's exact type (an int within int64, a float or
        a str): the values are stored as given, unchecked.
        """
        try:
            row = self._values(obj)
        except KeyError:
            row = None
        # Every attribute is present, so any other key is extra.
        if row is None or len(obj) != len(row):
            unknown = [key for key in obj if key not in self.attrs]
            if unknown:
                raise SchemaError(f"object has unknown attribute {unknown[0]!r}")
            missing = sorted(set(self.attrs) - set(obj))
            raise SchemaError(f"object missing attributes {missing}")
        if validate:
            return tuple([check(v) for check, v in zip(self._checks, row)])
        return row

    def rows(self, objs: list, *, validate: bool = False) -> list[tuple]:
        """The rows (:meth:`row`) of the longest prefix of ``objs`` the
        schema accepts: all of ``objs`` unless one is rejected, and then
        ``row`` of that one raises its error.  Storing these rows and
        raising that error is what sequential inserts do."""
        if not validate:
            values, width = self._values, len(self.attrs)
            try:
                rows = list(map(values, objs))
            except KeyError:
                pass
            else:
                # Each object holds every attribute, so one longer than
                # the schema holds an extra key.
                if max(map(len, objs), default=width) == width:
                    return rows
        out = []
        for obj in objs:
            try:
                out.append(self.row(obj, validate=validate))
            except SchemaError:
                break
        return out

    def key_for(self, index_name: str, obj: dict) -> tuple:
        """The sort key of ``obj`` under ``index_name``."""
        try:
            key_attrs = self.indices[index_name]
        except KeyError:
            raise SchemaError(
                f"schema {self.name!r} has no index {index_name!r}; "
                f"available: {sorted(self.indices)}"
            ) from None
        return tuple(obj[a] for a in key_attrs)


def _darshan_data_schema() -> Schema:
    """The schema the connector's messages land in (Fig 3 flattened)."""
    attrs = [
        Attr("module", "string"),
        Attr("uid", "int"),
        Attr("ProducerName", "string"),
        Attr("switches", "int"),
        Attr("file", "string"),
        Attr("rank", "int"),
        Attr("flushes", "int"),
        Attr("record_id", "int"),
        Attr("exe", "string"),
        Attr("max_byte", "int"),
        Attr("type", "string"),
        Attr("job_id", "int"),
        Attr("op", "string"),
        Attr("cnt", "int"),
        Attr("seg_off", "int"),
        Attr("seg_pt_sel", "int"),
        Attr("seg_dur", "float"),
        Attr("seg_len", "int"),
        Attr("seg_ndims", "int"),
        Attr("seg_reg_hslab", "int"),
        Attr("seg_irreg_hslab", "int"),
        Attr("seg_data_set", "string"),
        Attr("seg_npoints", "int"),
        Attr("timestamp", "float"),
    ]
    indices = {
        # The paper's worked example: order by job, rank, then time.
        "job_rank_time": ("job_id", "rank", "timestamp"),
        "job_time_rank": ("job_id", "timestamp", "rank"),
        "time_job_rank": ("timestamp", "job_id", "rank"),
        "job_id": ("job_id",),
    }
    return Schema("darshan_data", attrs, indices)


#: Shared instance used across the pipeline.
DARSHAN_DATA_SCHEMA = _darshan_data_schema()
