"""Tests for the mini column-store DataFrame."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.webservices import DataFrame, DataFrameError
from repro.webservices.dataframe import _median


@pytest.fixture
def df():
    return DataFrame(
        {
            "job": [1, 1, 1, 2, 2, 2],
            "op": np.asarray(["r", "w", "w", "r", "w", "r"], dtype=object),
            "dur": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
        }
    )


def test_construction_and_len(df):
    assert len(df) == 6
    assert df.columns == ["job", "op", "dur"]


def test_length_mismatch_rejected():
    with pytest.raises(DataFrameError):
        DataFrame({"a": [1, 2], "b": [1]})


def test_empty_columns_rejected():
    with pytest.raises(DataFrameError):
        DataFrame({})


def test_non_1d_rejected():
    with pytest.raises(DataFrameError):
        DataFrame({"a": np.zeros((2, 2))})


def test_from_records_infers_types():
    df = DataFrame.from_records(
        [{"x": 1, "s": "a"}, {"x": 2, "s": "b"}]
    )
    assert df.col("x").dtype.kind == "i"
    assert df.col("s").dtype == object


def test_from_records_promotes_to_float():
    df = DataFrame.from_records([{"x": 1}, {"x": 2.5}])
    assert df.col("x").dtype.kind == "f"


def test_from_records_empty_rejected():
    with pytest.raises(DataFrameError):
        DataFrame.from_records([])


def test_missing_column_has_helpful_error(df):
    with pytest.raises(DataFrameError, match="available"):
        df.col("ghost")


def test_getitem(df):
    assert df["job"][0] == 1


def test_filter_with_mask(df):
    out = df.filter(df["job"] == 2)
    assert len(out) == 3
    assert set(out["op"].tolist()) == {"r", "w"}


def test_filter_with_predicate(df):
    out = df.filter(lambda row: row["dur"] > 0.35)
    assert len(out) == 3


def test_filter_keeps_its_rows_when_the_callers_mask_changes(df):
    mask = df["job"] == 2
    out = df.filter(mask)
    mask[:] = True
    assert out["dur"].tolist() == [0.4, 0.5, 0.6]
    mask[:] = False
    assert out["op"].tolist() == ["r", "w", "r"]
    assert len(out) == 3


def test_filter_mask_length_checked(df):
    with pytest.raises(DataFrameError):
        df.filter(np.asarray([True]))


def test_select(df):
    out = df.select("job", "dur")
    assert out.columns == ["job", "dur"]


def test_assign(df):
    out = df.assign("double", df["dur"] * 2)
    assert out["double"][1] == pytest.approx(0.4)
    with pytest.raises(DataFrameError):
        df.assign("bad", [1])


def test_sort_by_primary_key(df):
    out = df.sort_by("dur", reverse=True)
    assert out["dur"][0] == pytest.approx(0.6)


def test_sort_by_multiple_keys():
    df = DataFrame({"a": [2, 1, 2, 1], "b": [1, 2, 0, 0]})
    out = df.sort_by("a", "b")
    assert out["a"].tolist() == [1, 1, 2, 2]
    assert out["b"].tolist() == [0, 2, 0, 1]


def test_unique(df):
    assert df.unique("job").tolist() == [1, 2]


def test_head(df):
    assert len(df.head(2)) == 2


def test_to_records_roundtrip(df):
    recs = df.to_records()
    back = DataFrame.from_records(recs)
    assert back["dur"].tolist() == df["dur"].tolist()


# ------------------------------------------------------------------ groupby


def test_groupby_size(df):
    out = df.groupby("job").size()
    assert dict(zip(out["job"].tolist(), out["n"].tolist())) == {1: 3, 2: 3}


def test_groupby_two_keys(df):
    out = df.groupby("job", "op").size()
    assert len(out) == 4


def test_groupby_agg_named(df):
    out = df.groupby("job").agg({"dur": "sum"})
    sums = dict(zip(out["job"].tolist(), out["dur_sum"].tolist()))
    assert sums[1] == pytest.approx(0.6)
    assert sums[2] == pytest.approx(1.5)


def test_groupby_agg_mean_min_max_median_std(df):
    out = df.groupby("job").agg({"dur": "mean"})
    assert out["dur_mean"].tolist() == pytest.approx([0.2, 0.5])
    for how in ("min", "max", "median", "std", "count"):
        df.groupby("job").agg({"dur": how})  # must not raise


def test_groupby_agg_callable(df):
    out = df.groupby("job").agg({"dur": lambda a: float(a.max() - a.min())})
    assert out.columns[-1].startswith("dur_")


def test_groupby_agg_unknown_rejected(df):
    with pytest.raises(DataFrameError):
        df.groupby("job").agg({"dur": "variance"})


def test_groupby_requires_key(df):
    with pytest.raises(DataFrameError):
        df.groupby()


def test_groupby_apply(df):
    out = df.groupby("op").apply(lambda sub: len(sub))
    assert out[("r",)] == 3
    assert out[("w",)] == 3


def test_groupby_std_single_row():
    df = DataFrame({"k": [1], "v": [2.0]})
    out = df.groupby("k").agg({"v": "std"})
    assert out["v_std"][0] == 0.0


# ------------------------------------------------------------- median
#
# ``_median`` stands in for ``np.median`` in the figure analyses and the
# "median" aggregation, so a render never imports ``numpy.ma``.  It must
# return what ``np.median`` returns: the same type and the same repr
# (so -0.0 and NaN are told apart), for odd and even lengths, NaN, ±inf,
# signed zeros, int64 beyond 2**53 and bools.

_SPECIAL_FLOATS = st.sampled_from(
    [0.0, -0.0, float("inf"), -float("inf"), float("nan"), 5e-324, -5e-324,
     1.7976931348623157e308, -1.7976931348623157e308]
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.lists(st.one_of(st.floats(), _SPECIAL_FLOATS), min_size=1,
             max_size=9).map(lambda v: np.asarray(v, dtype=float)),
    st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=9)
    .map(lambda v: np.asarray(v, dtype=np.int64)),
    st.lists(st.integers(2**53 - 4, 2**53 + 4), min_size=1, max_size=9)
    .map(lambda v: np.asarray(v, dtype=np.int64)),
    st.lists(st.booleans(), min_size=1, max_size=9).map(np.asarray),
))
def test_median_matches_np_median(values):
    with np.errstate(over="ignore"):  # numpy warns on a sum to inf
        want = np.median(values)
    got = _median(values)
    assert type(got) is type(want)
    assert repr(got) == repr(want)


def test_median_of_empty_and_object_arrays_is_np_median():
    with pytest.warns(RuntimeWarning):
        assert np.isnan(_median(np.asarray([], dtype=float)))
    big = np.asarray([2**70, 1, 2**70 + 2], dtype=object)
    assert _median(big) == np.median(big) == 2**70


def test_groupby_median_uses_the_helper(df):
    out = df.groupby("job").agg({"dur": "median"})
    assert out["dur_median"].tolist() == [0.2, 0.5]
