"""Dashboard renders share one read-only frame per distinct panel query.

:meth:`Dashboard.render` runs each distinct query spec once and hands
the frame to every panel that shares it.  The pins here: the rendered
panels equal rendering each panel alone (payloads, numpy arrays
included), ``Query.execute`` runs once per distinct spec, a shared
frame cannot be written through, and an empty query fails at the same
panel as before.
"""

import numpy as np
import pytest

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig
from repro.dsos.query import Query
from repro.experiments import World, WorldConfig, run_job
from repro.webservices import (
    Dashboard,
    DataFrame,
    DsosDataSource,
    Panel,
    analysis,
)
from repro.webservices.dataframe import DataFrameError


def _job_of(df) -> int:
    return int(df.col("job_id")[0])


def _figure_board(job_id):
    """The Figs 5–9 dashboard: five panels over two distinct queries."""
    by_rank = {"index": "job_rank_time"}
    by_time = {"index": "job_time_rank"}
    if job_id is not None:
        by_rank["prefix"] = (job_id,)
        by_time["prefix"] = (job_id,)
    return Dashboard("darshan job I/O", [
        Panel("fig5 op counts", by_rank, analysis.op_counts_with_ci, "bars"),
        Panel("fig6 open/close per node", by_rank, analysis.ops_per_node,
              "bars"),
        Panel("fig7 read/write durations", by_rank,
              analysis.duration_stats_per_job, "table"),
        Panel("fig8 timeline", by_time,
              lambda df: analysis.timeline(df, _job_of(df)), "scatter"),
        Panel("fig9 throughput", by_time,
              lambda df: analysis.throughput_series(df, _job_of(df),
                                                    bucket_s=1.0),
              "timeseries"),
    ])


@pytest.fixture(scope="module")
def hmmer_world():
    """Two seeded HMMER jobs in one store."""
    world = World(WorldConfig(seed=11, quiet=True, n_compute_nodes=2))
    jobs = [
        run_job(world, Hmmer(ranks_per_node=4, n_families=6), "nfs",
                connector_config=ConnectorConfig()).job_id
        for _ in range(2)
    ]
    return world, jobs


def _same(a, b) -> bool:
    """Deep equality over payloads: dicts, sequences, numpy arrays
    (dtype and values), scalars."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
            and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if isinstance(a, dict):
        return (isinstance(b, dict) and list(a) == list(b)
                and all(_same(a[k], b[k]) for k in a))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    if isinstance(a, float) and isinstance(b, float) and a != a:
        return b != b
    return type(a) is type(b) and a == b


@pytest.mark.parametrize("whole_store", [False, True])
def test_shared_render_equals_each_panel_alone(hmmer_world, whole_store):
    world, jobs = hmmer_world
    source = DsosDataSource(world.dsos)
    board = _figure_board(None if whole_store else jobs[1])
    shared = board.render(source)
    alone = [
        Dashboard(board.title, [panel]).render(source)[0]
        for panel in board.panels
    ]
    assert [p.title for p in shared] == [p.title for p in board.panels]
    for got, want in zip(shared, alone):
        assert got.title == want.title
        assert got.viz == want.viz
        assert got.rows_queried == want.rows_queried > 0
        assert _same(got.payload, want.payload), got.title
    if whole_store:
        assert shared[0].rows_queried == world.dsos.count("darshan_data")


def _count_executes(monkeypatch) -> list:
    calls = []
    execute = Query.execute

    def counted(self):
        calls.append(self.index_name)
        return execute(self)

    monkeypatch.setattr(Query, "execute", counted)
    return calls


def test_query_runs_once_per_distinct_spec(hmmer_world, monkeypatch):
    world, jobs = hmmer_world
    source = DsosDataSource(world.dsos)
    calls = _count_executes(monkeypatch)
    _figure_board(jobs[0]).render(source)
    assert calls == ["job_rank_time", "job_time_rank"]

    calls.clear()
    distinct = Dashboard("five specs", [
        Panel("whole by rank", {"index": "job_rank_time"}, len),
        Panel("job 0 by rank", {"index": "job_rank_time",
                                "prefix": (jobs[0],)}, len),
        Panel("job 1 by rank", {"index": "job_rank_time",
                                "prefix": (jobs[1],)}, len),
        Panel("whole by time", {"index": "job_time_rank"}, len),
        Panel("job 0 by time", {"index": "job_time_rank",
                                "prefix": (jobs[0],)}, len),
    ])
    rendered = distinct.render(source)
    assert len(calls) == 5
    assert [p.payload for p in rendered] == [p.rows_queried for p in rendered]


def test_equal_specs_in_any_keyword_order_share_one_query(hmmer_world,
                                                          monkeypatch):
    world, jobs = hmmer_world
    calls = _count_executes(monkeypatch)
    board = Dashboard("reordered", [
        Panel("a", {"index": "job_rank_time", "prefix": (jobs[0],)}, len),
        Panel("b", {"prefix": (jobs[0],), "index": "job_rank_time"}, len),
        # Equal under ``==`` but not the same spec: not shared.
        Panel("c", {"index": "job_rank_time", "prefix": (float(jobs[0]),)},
              len),
    ])
    rendered = board.render(DsosDataSource(world.dsos))
    assert len(calls) == 2
    assert len({p.rows_queried for p in rendered}) == 1


def test_shared_frame_is_read_only(hmmer_world):
    world, jobs = hmmer_world
    seen = []

    def reader(df):
        seen.append(df)
        return float(df.col("seg_len")[0])

    def vandal(df):
        with pytest.raises(ValueError):
            df.col("seg_len")[0] = -7
        return reader(df)

    board = Dashboard("vandal", [
        Panel("writes", {"index": "job_rank_time"}, vandal),
        Panel("reads", {"index": "job_rank_time"}, reader),
    ])
    first, second = board.render(DsosDataSource(world.dsos))
    assert seen[0] is seen[1]
    assert first.payload == second.payload != -7


def test_frame_freezes_a_view_not_the_callers_array():
    mine = np.arange(4)
    df = DataFrame({"x": mine})
    assert not df.col("x").flags.writeable
    with pytest.raises(ValueError):
        df.col("x")[0] = 9
    mine[0] = 9  # the caller's own array is untouched and writable
    assert mine.flags.writeable
    assert df.col("x")[0] == 9  # a view: it shares the caller's memory
    for derived in (df.filter(mine > 0), df.sort_by("x"), df.head(2),
                    df.assign("y", mine * 2), df.select("x")):
        assert not any(derived.col(c).flags.writeable
                       for c in derived.columns)


def test_empty_query_fails_at_the_same_panel(hmmer_world):
    world, jobs = hmmer_world
    reached = []

    def note(name):
        def analysis_(df):
            reached.append(name)
            return len(df)
        return analysis_

    missing = {"index": "job_rank_time", "prefix": (max(jobs) + 1000,)}
    present = {"index": "job_rank_time", "prefix": (jobs[0],)}
    board = Dashboard("empty", [
        Panel("present 1", present, note("present 1")),
        Panel("missing", missing, note("missing")),
        Panel("present 2", present, note("present 2")),
    ])
    with pytest.raises(DataFrameError, match="query returned no rows"):
        board.render(DsosDataSource(world.dsos))
    assert reached == ["present 1"]


# ------------------------------------------------------- derived frames
#
# Within one render, a spec whose rows are the row objects behind the
# last built frame in another order gets that frame's columns permuted
# instead of a second ``from_records`` pass.


#: ``from_records`` itself, so the checks below stay out of the counts.
_FROM_RECORDS = DataFrame.from_records


def _count_from_records(monkeypatch) -> list:
    calls = []
    build = DataFrame.from_records.__func__

    def counted(cls, records):
        calls.append(len(records))
        return build(cls, records)

    monkeypatch.setattr(DataFrame, "from_records", classmethod(counted))
    return calls


class _RecordingSource(DsosDataSource):
    """Notes the rows each query returned, in call order."""

    def __init__(self, client):
        super().__init__(client)
        self.seen = []

    def rows(self, **query):
        rows = super().rows(**query)
        self.seen.append(rows)
        return rows


def _capturing(board, frames):
    """``board`` with each panel also noting the frame it was handed."""
    def capture(fn):
        def analysis_(df):
            frames.append(df)
            return fn(df)
        return analysis_

    return Dashboard(board.title, [
        Panel(p.title, p.query, capture(p.analysis), p.viz)
        for p in board.panels
    ])


def _cells(col):
    return [(type(v), repr(v)) for v in col.tolist()]


def _assert_frame_is_from_records(df, rows):
    want = _FROM_RECORDS(rows)
    assert df.columns == want.columns
    for name in want.columns:
        got, exp = df.col(name), want.col(name)
        assert got.dtype == exp.dtype, name
        assert _cells(got) == _cells(exp), name
        assert not got.flags.writeable


@pytest.fixture(scope="module")
def mpiio_world():
    """Two seeded multi-rank MPI-IO jobs in one store: unlike HMMER's
    (rank 0 does the I/O), their time order is not their rank order."""
    world = World(WorldConfig(seed=5, quiet=True, n_compute_nodes=2))
    jobs = [
        run_job(world, MpiIoTest(n_nodes=2, ranks_per_node=2, iterations=3,
                                 block_size=2**20, collective=False,
                                 sync_per_iteration=False),
                "nfs", connector_config=ConnectorConfig()).job_id
        for _ in range(2)
    ]
    return world, jobs


_WORLDS = ["hmmer_world", "mpiio_world"]


@pytest.mark.parametrize("world_name", _WORLDS)
@pytest.mark.parametrize("whole_store", [False, True])
def test_figure_board_builds_one_frame_per_render(request, monkeypatch,
                                                  world_name, whole_store):
    world, jobs = request.getfixturevalue(world_name)
    board = _figure_board(None if whole_store else jobs[0])
    built = _count_from_records(monkeypatch)
    executes = _count_executes(monkeypatch)
    for _ in range(2):
        built.clear()
        executes.clear()
        board.render(DsosDataSource(world.dsos))
        assert len(built) == 1
        assert executes == ["job_rank_time", "job_time_rank"]


@pytest.mark.parametrize("world_name", _WORLDS)
@pytest.mark.parametrize("whole_store", [False, True])
def test_derived_frame_equals_from_records_of_its_rows(request, monkeypatch,
                                                       world_name,
                                                       whole_store):
    world, jobs = request.getfixturevalue(world_name)
    frames = []
    source = _RecordingSource(world.dsos)
    board = _capturing(_figure_board(None if whole_store else jobs[1]),
                       frames)
    built = _count_from_records(monkeypatch)
    board.render(source)
    assert len(built) == 1
    by_rank, by_time = source.seen
    assert len(by_time) == len(by_rank) > 0
    assert sorted(map(id, by_time)) == sorted(map(id, by_rank))
    if world_name == "mpiio_world":
        assert [id(r) for r in by_time] != [id(r) for r in by_rank]
    assert frames[0] is frames[1] is frames[2]
    assert frames[3] is frames[4]
    _assert_frame_is_from_records(frames[0], by_rank)
    _assert_frame_is_from_records(frames[3], by_time)


def _stub_rows() -> list:
    """Rows whose columns take every dtype rule: int, float, int/float
    mix, str, None, bool and an int beyond int64."""
    return [
        {"job_id": 7, "op": op, "seq": i, "dur": 0.5 * i,
         "mix": i if i % 2 else float(i), "tag": None if i == 3 else "t",
         "flag": i % 2 == 0, "hash": 2**64 + i if i == 4 else i}
        for i, op in enumerate(["open", "read", "write", "read", "write",
                                "close"])
    ]


class _StubSource:
    """Serves fixed row lists by index name."""

    def __init__(self, by_index):
        self.by_index = by_index

    def rows(self, index, **_):
        return self.by_index[index]


def _render_stub(by_time, monkeypatch):
    by_rank = _stub_rows()
    frames = []
    board = _capturing(Dashboard("stub", [
        Panel("by rank", {"index": "rank"}, len),
        Panel("by time", {"index": "time"}, len),
    ]), frames)
    built = _count_from_records(monkeypatch)
    rendered = board.render(
        _StubSource({"rank": by_rank, "time": by_time(by_rank)})
    )
    _assert_frame_is_from_records(frames[0], by_rank)
    return built, frames[1], rendered


def test_stub_permutation_is_derived_exactly(monkeypatch):
    order = [5, 0, 3, 1, 4, 2]
    built, frame, rendered = _render_stub(
        lambda rows: [rows[i] for i in order], monkeypatch)
    assert len(built) == 1
    _assert_frame_is_from_records(frame, [_stub_rows()[i] for i in order])
    assert [p.rows_queried for p in rendered] == [6, 6]


def test_row_listed_twice_in_both_lists_is_derived_exactly(monkeypatch):
    frames = []
    board = _capturing(Dashboard("stub", [
        Panel("by rank", {"index": "rank"}, len),
        Panel("by time", {"index": "time"}, len),
    ]), frames)
    rows = _stub_rows()[:5]
    rows.append(rows[0])
    by_time = rows[::-1]
    built = _count_from_records(monkeypatch)
    board.render(_StubSource({"rank": rows, "time": by_time}))
    assert len(built) == 1
    _assert_frame_is_from_records(frames[0], rows)
    _assert_frame_is_from_records(frames[1], by_time)


@pytest.mark.parametrize("swap", ["foreign", "duplicated"])
def test_equal_length_other_rows_take_from_records(monkeypatch, swap):
    def by_time(rows):
        out = rows[::-1]
        if swap == "foreign":
            out[2] = dict(out[2], seq=99, dur=-1.0)
        else:
            out[2] = out[3]
        return out

    built, frame, _ = _render_stub(by_time, monkeypatch)
    assert len(built) == 2
    _assert_frame_is_from_records(frame, by_time(_stub_rows()))
