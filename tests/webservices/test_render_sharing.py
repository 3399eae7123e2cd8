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

from repro.apps import Hmmer
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
