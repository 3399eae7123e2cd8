"""A small column-store DataFrame on NumPy arrays.

The paper's analysis modules lean on pandas; this module provides the
subset they actually use — construction from records, boolean filtering,
column math, sort, group-by aggregation and joins-by-membership — with
columnar NumPy storage so the figure analyses stay vectorized.

A frame may build its columns on demand (a DSOS query's frame takes
each column from the store's shards the first time it is read), and
``filter``, ``sort_by``, ``head`` and ``GroupBy.apply`` carry their
row selection forward instead of copying columns nobody reads.
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


def _median(values):
    """``np.median`` of a 1-d array, without ``np.median``'s NaN check.

    That check imports ``numpy.ma`` the first time a float median runs
    in a process (~15 ms), so a dashboard render would pay it.  Numeric
    cells are sorted as floats: a NaN sorts last and makes the median
    NaN; else it is the middle value, or the mean of the middle two,
    summed from ``np.add``'s identity 0.0 as ``np.mean`` sums them (so
    a zero median is +0.0).  The sum is taken in Python floats: the
    same values, without numpy's overflow warning.  Empty and other
    arrays (object, float32, ...) take ``np.median`` itself.
    """
    a = np.asarray(values)
    if not a.size or not (a.dtype.kind in "biu" or a.dtype == float):
        return np.median(a)
    s = np.sort(a.astype(float))
    if np.isnan(s[-1]):
        return s[-1]
    h = len(s) // 2
    if len(s) % 2:
        return np.float64(0.0 + float(s[h]))
    return np.float64((0.0 + float(s[h - 1]) + float(s[h])) / 2)


_AGG_FUNCS = {
    "sum": np.sum,
    "mean": np.mean,
    "min": np.min,
    "max": np.max,
    "count": len,
    "median": _median,
    "std": lambda a: np.std(a, ddof=1) if len(a) > 1 else 0.0,
}


def _frozen(name: str, values) -> np.ndarray:
    """A read-only 1-d view of ``values`` (an array the caller handed in
    stays writable)."""
    arr = np.asarray(values).view()
    arr.flags.writeable = False
    if arr.ndim != 1:
        raise DataFrameError(f"column {name!r} must be 1-d, got shape {arr.shape}")
    return arr


class DataFrame:
    """Immutable columnar table: every column array is read-only, so one
    frame can be shared by several readers (e.g. dashboard panels)."""

    def __init__(self, columns: dict):
        if not columns:
            raise DataFrameError("a DataFrame needs at least one column")
        #: ``name -> array``, or None for a column not built yet.
        self._cols: dict[str, np.ndarray | None] = {}
        #: ``name -> values`` for the columns still None (see
        #: :meth:`_on_demand`).
        self._build = None
        length = None
        for name, values in columns.items():
            arr = _frozen(name, values)
            if length is None:
                length = len(arr)
            elif len(arr) != length:
                raise DataFrameError(
                    f"column {name!r} has length {len(arr)}, expected {length}"
                )
            self._cols[name] = arr
        self._length = length or 0

    @classmethod
    def _on_demand(cls, names, length: int, build) -> "DataFrame":
        """A frame of ``length`` rows whose column ``name`` is
        ``build(name)``, built the first time it is read and then kept,
        read-only.  ``names`` fixes the columns and their order."""
        frame = cls.__new__(cls)
        frame._cols = dict.fromkeys(names)
        frame._build = build
        frame._length = length
        return frame

    def _take(self, length: int, rows) -> "DataFrame":
        """The frame of ``self``'s columns indexed by ``rows`` (a mask,
        an order or a slice), each taken when it is first read."""
        return DataFrame._on_demand(
            self._cols, length, lambda name: self.col(name)[rows]
        )

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
        """The column's (read-only) array."""
        try:
            arr = self._cols[name]
        except KeyError:
            raise DataFrameError(
                f"no column {name!r}; available: {self.columns}"
            ) from None
        if arr is None:
            arr = _frozen(name, self._build(name))
            if len(arr) != self._length:
                raise DataFrameError(
                    f"column {name!r} has length {len(arr)}, expected {self._length}"
                )
            self._cols[name] = arr
        return arr

    def __getitem__(self, name: str) -> np.ndarray:
        return self.col(name)

    def to_records(self) -> list[dict]:
        cols = {name: self.col(name) for name in self._cols}
        return [
            {name: col[i].item() if hasattr(col[i], "item") else col[i]
             for name, col in cols.items()}
            for i in range(self._length)
        ]

    # -- transforms ------------------------------------------------------------

    def filter(self, mask) -> "DataFrame":
        """Rows where ``mask`` (bool array or row-predicate) holds."""
        if callable(mask):
            mask = np.asarray([mask(row) for row in self.to_records()], dtype=bool)
        else:
            # A copy: the rows are taken on first read, after the
            # caller may have changed its mask.
            mask = np.array(mask, dtype=bool)
        if len(mask) != self._length:
            raise DataFrameError(
                f"mask length {len(mask)} != frame length {self._length}"
            )
        return self._take(int(np.count_nonzero(mask)), mask)

    def select(self, *names: str) -> "DataFrame":
        return DataFrame({n: self.col(n) for n in names})

    def assign(self, name: str, values) -> "DataFrame":
        out = {n: self.col(n) for n in self._cols}
        arr = np.asarray(values)
        if len(arr) != self._length:
            raise DataFrameError("assigned column has wrong length")
        out[name] = arr
        return DataFrame(out)

    def sort_by(self, *names: str, reverse: bool = False) -> "DataFrame":
        """Stable multi-key sort; the first name is the primary key, as in
        pandas.  ``reverse`` sorts descending and, like
        ``sorted(..., reverse=True)``, keeps equal keys in row order."""
        # lexsort's last key is primary, so feed keys reversed.
        keys = [self.col(n) for n in reversed(names)]
        if reverse:
            # Sort the rows back to front stably, then flip the result:
            # equal keys come out front to back.
            last = self._length - 1
            order = (last - np.lexsort([k[::-1] for k in keys]))[::-1]
        else:
            order = np.lexsort(keys)
        return self._take(self._length, order)

    def unique(self, name: str) -> np.ndarray:
        return np.unique(self.col(name))

    def head(self, n: int) -> "DataFrame":
        rows = slice(n)
        return self._take(len(range(self._length)[rows]), rows)

    # -- group-by -----------------------------------------------------------------

    def groupby(self, *names: str) -> "GroupBy":
        if not names:
            raise DataFrameError("groupby needs at least one key column")
        return GroupBy(self, names)


def _first_row_codes(col: np.ndarray) -> np.ndarray:
    """Each row's code: the index of the first row whose cell equals
    its own, as a key tuple's Python equality and hash decide it:
    each NaN is its own group, -0.0 == 0.0, and 1 == 1.0 == True.

    A bool, int or float column is coded by ``np.unique``, which
    compares the same way (``equal_nan=False`` keeps NaNs apart, and a
    stable sort makes each value's index its first row); an object
    column is matched by a dict.
    """
    if col.dtype.kind in "biuf":
        _, first, inverse = np.unique(
            col, return_index=True, return_inverse=True, equal_nan=False
        )
        return first[inverse]
    first = {}
    n = len(col)
    return np.fromiter(
        map(first.setdefault, col.tolist(), range(n)), np.intp, n
    )


class GroupBy:
    """Grouped view produced by :meth:`DataFrame.groupby`."""

    def __init__(self, frame: DataFrame, keys: tuple):
        self.frame = frame
        self.keys = keys
        # Groups in first-seen order, each with its rows ascending.
        self._groups: dict[tuple, np.ndarray] = {}
        key_cols = [frame.col(k) for k in keys]
        n = len(frame)
        if not n:
            return
        # Code every row by the first row holding an equal key (see
        # _first_row_codes).  Combining the columns' codes keeps them
        # first rows, so sorting rows by code lists the groups in
        # first-seen order.
        codes = None
        for col in key_cols:
            col_codes = _first_row_codes(col)
            if codes is None:
                codes = col_codes
            else:
                _, head, inverse = np.unique(
                    codes * n + col_codes, return_index=True,
                    return_inverse=True,
                )
                codes = head[inverse]
        rows = np.argsort(codes, kind="stable")
        starts = np.flatnonzero(np.diff(codes[rows], prepend=-1))
        for first_row, idx in zip(rows[starts].tolist(),
                                  np.split(rows, starts[1:])):
            # The key is read off the group's first row, so its
            # elements keep the column's scalar types.
            self._groups[tuple(c[first_row] for c in key_cols)] = idx

    def __len__(self) -> int:
        return len(self._groups)

    def groups(self) -> dict[tuple, np.ndarray]:
        return {k: v.copy() for k, v in self._groups.items()}

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
            out[key] = fn(self.frame._take(len(idx), idx))
        return out
