"""A small column-store DataFrame on NumPy arrays.

The paper's analysis modules lean on pandas; this module provides the
subset they actually use — construction from records, boolean filtering,
column math, sort, group-by aggregation and joins-by-membership — with
columnar NumPy storage so the figure analyses stay vectorized.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np

__all__ = ["DataFrame", "DataFrameError"]


class DataFrameError(ValueError):
    """Invalid DataFrame construction or operation."""


#: Cell types whose column dtype the type set alone decides.
_PLAIN_NUMBERS = frozenset({int, float})


def _column(values: list) -> np.ndarray:
    """One record column as an array: int or float when every cell is a
    (non-bool) number, else object.

    Plain ``int``/``float`` cells (every DSOS numeric attribute) are
    classified from the column's type set; any other type (bool, numpy
    scalars, str, None) falls through to the per-cell ``isinstance``
    rule.
    """
    kinds = set(map(type, values))
    if kinds <= _PLAIN_NUMBERS:
        is_float = float in kinds
    elif all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
        is_float = any(isinstance(v, float) for v in values)
    else:
        return np.asarray(values, dtype=object)
    try:
        return np.asarray(values, dtype=float if is_float else int)
    except OverflowError:
        # Values beyond int64 (e.g. unsigned hashes) stay
        # as Python objects rather than losing precision.
        return np.asarray(values, dtype=object)


_AGG_FUNCS = {
    "sum": np.sum,
    "mean": np.mean,
    "min": np.min,
    "max": np.max,
    "count": len,
    "median": np.median,
    "std": lambda a: np.std(a, ddof=1) if len(a) > 1 else 0.0,
}


class DataFrame:
    """Immutable-ish columnar table."""

    def __init__(self, columns: dict):
        if not columns:
            raise DataFrameError("a DataFrame needs at least one column")
        self._cols: dict[str, np.ndarray] = {}
        length = None
        for name, values in columns.items():
            arr = np.asarray(values)
            if arr.ndim != 1:
                raise DataFrameError(f"column {name!r} must be 1-d, got shape {arr.shape}")
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise DataFrameError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            self._cols[name] = arr
        self._length = length or 0

    # -- construction ------------------------------------------------------

    @classmethod
    def from_records(cls, records: list[dict]) -> "DataFrame":
        """Build from a list of homogeneous dicts (DSOS query rows)."""
        if not records:
            raise DataFrameError("cannot build a DataFrame from zero records")
        # One column at a time: transposing every column at once holds
        # all the cell lists alive together.
        return cls({
            name: _column(list(map(itemgetter(name), records)))
            for name in records[0]
        })

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        return self._length

    @property
    def columns(self) -> list[str]:
        return list(self._cols)

    def col(self, name: str) -> np.ndarray:
        """The column's array (a view; do not mutate)."""
        try:
            return self._cols[name]
        except KeyError:
            raise DataFrameError(
                f"no column {name!r}; available: {self.columns}"
            ) from None

    def __getitem__(self, name: str) -> np.ndarray:
        return self.col(name)

    def to_records(self) -> list[dict]:
        return [
            {name: self._cols[name][i].item() if hasattr(self._cols[name][i], "item")
             else self._cols[name][i] for name in self._cols}
            for i in range(self._length)
        ]

    # -- transforms ------------------------------------------------------------

    def filter(self, mask) -> "DataFrame":
        """Rows where ``mask`` (bool array or row-predicate) holds."""
        if callable(mask):
            mask = np.asarray([mask(row) for row in self.to_records()], dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
        if len(mask) != self._length:
            raise DataFrameError(
                f"mask length {len(mask)} != frame length {self._length}"
            )
        return DataFrame({n: a[mask] for n, a in self._cols.items()})

    def select(self, *names: str) -> "DataFrame":
        return DataFrame({n: self.col(n) for n in names})

    def assign(self, name: str, values) -> "DataFrame":
        out = dict(self._cols)
        arr = np.asarray(values)
        if len(arr) != self._length:
            raise DataFrameError("assigned column has wrong length")
        out[name] = arr
        return DataFrame(out)

    def sort_by(self, *names: str, reverse: bool = False) -> "DataFrame":
        """Stable multi-key sort (last key least significant... no:
        first name is the primary key, as in pandas)."""
        order = np.arange(self._length)
        # lexsort's last key is primary, so feed keys reversed.
        keys = [self.col(n) for n in reversed(names)]
        order = np.lexsort(keys)
        if reverse:
            order = order[::-1]
        return DataFrame({n: a[order] for n, a in self._cols.items()})

    def unique(self, name: str) -> np.ndarray:
        return np.unique(self.col(name))

    def head(self, n: int) -> "DataFrame":
        return DataFrame({name: a[:n] for name, a in self._cols.items()})

    # -- group-by -----------------------------------------------------------------

    def groupby(self, *names: str) -> "GroupBy":
        if not names:
            raise DataFrameError("groupby needs at least one key column")
        return GroupBy(self, names)


class GroupBy:
    """Grouped view produced by :meth:`DataFrame.groupby`."""

    def __init__(self, frame: DataFrame, keys: tuple):
        self.frame = frame
        self.keys = keys
        # Group rows by key tuples, preserving first-seen order.
        self._groups: dict[tuple, list[int]] = {}
        key_cols = [frame.col(k) for k in keys]
        for i in range(len(frame)):
            key = tuple(c[i] for c in key_cols)
            self._groups.setdefault(key, []).append(i)

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, np.ndarray]:
        return {k: np.asarray(v) for k, v in self._groups.items()}

    def agg(self, spec: dict) -> DataFrame:
        """``spec`` maps column → agg name ("sum", "mean", ...) or callable.

        Output columns: the key columns plus ``<col>_<agg>``.
        """
        out: dict[str, list] = {k: [] for k in self.keys}
        agg_cols: dict[str, list] = {}
        resolved = {}
        for col, how in spec.items():
            fn = _AGG_FUNCS.get(how) if isinstance(how, str) else how
            if fn is None:
                raise DataFrameError(
                    f"unknown aggregation {how!r}; use {sorted(_AGG_FUNCS)} or a callable"
                )
            label = f"{col}_{how if isinstance(how, str) else how.__name__}"
            resolved[label] = (col, fn)
            agg_cols[label] = []
        for key, idx in self._groups.items():
            idx = np.asarray(idx)
            for k_name, k_val in zip(self.keys, key):
                out[k_name].append(k_val)
            for label, (col, fn) in resolved.items():
                agg_cols[label].append(fn(self.frame.col(col)[idx]))
        out.update(agg_cols)
        return DataFrame({n: np.asarray(v) for n, v in out.items()})

    def size(self) -> DataFrame:
        """Group sizes, as column ``n``."""
        out: dict[str, list] = {k: [] for k in self.keys}
        sizes = []
        for key, idx in self._groups.items():
            for k_name, k_val in zip(self.keys, key):
                out[k_name].append(k_val)
            sizes.append(len(idx))
        out["n"] = sizes
        return DataFrame({n: np.asarray(v) for n, v in out.items()})

    def apply(self, fn) -> dict:
        """``{key_tuple: fn(sub_frame)}`` for free-form per-group work."""
        out = {}
        for key, idx in self._groups.items():
            idx = np.asarray(idx)
            sub = DataFrame({n: a[idx] for n, a in self.frame._cols.items()})
            out[key] = fn(sub)
        return out
