"""Differential pin on :meth:`DataFrame.groupby`.

The group-by codes each key column once and combines the codes in
NumPy.  The oracle is the straightforward per-row loop: one key tuple
per row, grouped by a dict in first-seen order.  Both must agree on the
group order, the key tuples (element types included), each group's row
list, and on ``size``/``agg``/``apply`` — over int64 and float64 keys
(NaN, -0.0), object keys (str; mixed int/float/bool; None; NaN objects
both shared and distinct), one to three key columns, and empty frames.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.webservices import DataFrame
from repro.webservices.dataframe import GroupBy

#: One NaN object reused across cells: equal to itself by identity.
_SHARED_NAN = float("nan")

_CELLS = {
    "int64": st.integers(-2, 2),
    "float64": st.sampled_from([0.0, -0.0, 1.0, 2.5, float("nan")]),
    "str": st.sampled_from(["open", "read", "write"]),
    "mixed": st.one_of(
        st.sampled_from([0, 1, 2, 0.0, -0.0, 1.0, 2.5, True, False]),
        st.just(_SHARED_NAN),
        st.builds(float, st.just("nan")),
    ),
    "none": st.sampled_from([None, "a", 1]),
}


def _array(kind: str, cells: list) -> np.ndarray:
    if kind in ("int64", "float64"):
        return np.asarray(cells, dtype=kind)
    out = np.empty(len(cells), dtype=object)
    out[:] = cells
    return out


@st.composite
def _frames(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1,
                          max_size=3))
    cols = {
        f"k{j}": _array(kind, draw(st.lists(_CELLS[kind], min_size=n,
                                            max_size=n)))
        for j, kind in enumerate(kinds)
    }
    cols["v"] = np.asarray(
        draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n)),
        dtype=float,
    )
    return DataFrame(cols), tuple(f"k{j}" for j in range(len(kinds)))


class _LoopGroupBy(GroupBy):
    """The per-row tuple-dict loop, its groups held as row lists;
    ``size``/``agg``/``apply`` are inherited, so they run over the
    loop's groups."""

    def __init__(self, frame, keys):
        self.frame = frame
        self.keys = keys
        self._groups = {}
        key_cols = [frame.col(k) for k in keys]
        for i in range(len(frame)):
            key = tuple(c[i] for c in key_cols)
            self._groups.setdefault(key, []).append(i)

    def groups(self):
        return {k: np.asarray(v) for k, v in self._groups.items()}


def _cell(value):
    """A cell as its type and repr: keeps 1/1.0/True, -0.0/0.0 and
    numpy/Python scalars apart, and NaN equal to NaN."""
    return type(value), repr(value)


def _key(key: tuple):
    return tuple(map(_cell, key))


def _frame(df: DataFrame):
    return [
        (name, df.col(name).dtype, [_cell(v) for v in df.col(name)])
        for name in df.columns
    ]


@settings(max_examples=300, deadline=None)
@given(case=_frames())
def test_groupby_matches_the_per_row_loop(case):
    df, keys = case
    got = df.groupby(*keys)
    want = _LoopGroupBy(df, keys)

    assert len(got) == len(want)
    got_groups = got.groups()
    want_groups = want.groups()
    assert [_key(k) for k in got_groups] == [_key(k) for k in want_groups]
    for g, w in zip(got_groups.values(), want_groups.values()):
        assert g.dtype == w.dtype
        assert g.tolist() == w.tolist()

    assert _frame(got.size()) == _frame(want.size())
    spec = {"v": "sum", "k0": "count"}
    assert _frame(got.agg(spec)) == _frame(want.agg(spec))
    last = {"v": lambda a: float(a[-1])}
    assert _frame(got.agg(last)) == _frame(want.agg(last))

    def rows(sub):
        return [_frame(sub)]

    got_apply = got.apply(rows)
    want_apply = want.apply(rows)
    assert [_key(k) for k in got_apply] == [_key(k) for k in want_apply]
    assert list(got_apply.values()) == list(want_apply.values())


def test_groups_are_copies():
    df = DataFrame({"k": [1, 2, 1]})
    grouped = df.groupby("k")
    grouped.groups()[(1,)][0] = 99
    assert grouped.groups()[(1,)].tolist() == [0, 2]
    assert grouped.size().col("n").tolist() == [2, 1]
