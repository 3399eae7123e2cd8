"""Dashboard renders share one read-only frame per distinct panel query.

:meth:`Dashboard.render` runs each distinct query spec once and hands
the frame to every panel that shares it.  The pins here: the rendered
panels equal rendering each panel alone (payloads, numpy arrays
included), ``Query.execute`` runs once per distinct spec, a shared
frame cannot be written through, an empty query fails at the same
panel as before, every frame comes from the store's columns yet
equals ``from_records`` of its rows, a render folds and builds only
the columns its panels read (nothing at all on an unchanged store),
it builds no row dict, and it never imports ``numpy.ma``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.apps import Hmmer, MpiIoTest
from repro.core import ConnectorConfig
from repro.dsos import daemon as dsosd
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


# ------------------------------------------------------- column frames
#
# A render's frames come from the store's typed shard columns
# (``QueryResult.frame``), not from a transpose of the row dicts, and
# each equals ``from_records`` of the rows its spec returns.


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
def test_board_transposes_no_rows_scans_twice(
    request, monkeypatch, world_name, whole_store
):
    world, jobs = request.getfixturevalue(world_name)
    board = _figure_board(None if whole_store else jobs[0])
    built = _count_from_records(monkeypatch)
    executes = _count_executes(monkeypatch)
    for _ in range(2):
        executes.clear()
        board.render(DsosDataSource(world.dsos))
        assert executes == ["job_rank_time", "job_time_rank"]
    assert built == []


@pytest.mark.parametrize("world_name", _WORLDS)
@pytest.mark.parametrize("whole_store", [False, True])
def test_panel_frames_equal_from_records(
    request, world_name, whole_store
):
    world, jobs = request.getfixturevalue(world_name)
    frames = []
    source = DsosDataSource(world.dsos)
    board = _figure_board(None if whole_store else jobs[1])
    _capturing(board, frames).render(source)
    assert len(frames) == len(board.panels)
    for df, panel in zip(frames, board.panels):
        rows = source.rows(**panel.query)
        assert len(df) == len(rows) > 0
        _assert_frame_is_from_records(df, rows)


# ------------------------------------------------- on-demand columns
#
# The figure panels read 6 of darshan_data's 24 attributes.  A render
# builds just those frame columns, and the shards fold just those.

#: The attributes the Figs 5–9 analyses read.
_READ = {"job_id", "op", "ProducerName", "seg_dur", "timestamp", "seg_len"}


@pytest.fixture
def fresh_hmmer_world():
    """A small HMMER store nothing has read yet."""
    world = World(WorldConfig(seed=11, quiet=True, n_compute_nodes=2))
    job = run_job(world, Hmmer(ranks_per_node=4, n_families=3), "nfs",
                  connector_config=ConnectorConfig()).job_id
    return world, job


def _shards(world):
    return [d._shard("darshan_data") for d in world.dsos.cluster.daemons]


def _no_rows(shard, oids):
    raise AssertionError("a render built row dicts")


def _folded(world) -> set:
    """The attributes whose tail some shard has folded."""
    return {name for shard in _shards(world)
            for name, tail in zip(shard.schema.attrs, shard._tails)
            if not tail}


def _count_folds(monkeypatch) -> list:
    """The length of every non-empty tail a shard folds from now on."""
    folds = []
    fold = dsosd._Shard._fold

    def counted(shard, i):
        if shard._tails[i]:
            folds.append(len(shard._tails[i]))
        return fold(shard, i)

    monkeypatch.setattr(dsosd._Shard, "_fold", counted)
    return folds


@pytest.mark.parametrize("whole_store", [False, True])
def test_board_folds_and_builds_only_what_its_panels_read(
    fresh_hmmer_world, monkeypatch, whole_store
):
    world, job = fresh_hmmer_world
    assert len(_shards(world)) > 1  # so the merge runs
    frames = []
    board = _capturing(_figure_board(None if whole_store else job), frames)
    source = DsosDataSource(world.dsos)
    folds = _count_folds(monkeypatch)
    # The store is below the fold cadence: every tail still holds rows.
    assert _folded(world) == set()
    # Frames come from the columns: no render builds a row dict.
    monkeypatch.setattr(dsosd._Shard, "rows", _no_rows)
    first = board.render(source)
    assert folds
    assert len({id(df) for df in frames}) == 2
    built = {name for df in frames for name in df.columns
             if df._cols[name] is not None}
    assert built == _READ
    # The multi-stream merge also folds the index key attributes
    # (job_id, rank, timestamp) to order the selections.
    assert _folded(world) == _READ | {"rank"}

    # An unchanged store: nothing folded again.
    folds.clear()
    second = board.render(source)
    assert folds == []
    for got, want in zip(second, first):
        assert _same(got.payload, want.payload), got.title



# ------------------------------------------------------ lazy row lists
#
# A query result holds its selections and merge order; row dicts are
# built from the shards' columns only when ``rows`` is read, and a
# frame never builds one.


def _capture_results(monkeypatch) -> list:
    results = []
    execute = Query.execute

    def captured(self):
        results.append(execute(self))
        return results[-1]

    monkeypatch.setattr(Query, "execute", captured)
    return results


@pytest.mark.parametrize("world_name", _WORLDS)
@pytest.mark.parametrize("whole_store", [False, True])
def test_figure_board_render_builds_no_row_list(
    request, monkeypatch, world_name, whole_store
):
    world, jobs = request.getfixturevalue(world_name)
    results = _capture_results(monkeypatch)
    monkeypatch.setattr(dsosd._Shard, "rows", _no_rows)
    _figure_board(None if whole_store else jobs[0]).render(
        DsosDataSource(world.dsos))
    assert len(results) == 2
    assert all(len(r.parts) > 1 for r in results)  # the merge ran


@pytest.mark.parametrize("world_name", _WORLDS)
@pytest.mark.parametrize("index", ["job_rank_time", "job_time_rank"])
def test_rows_read_after_frame_equal_the_eager_rows(
    request, world_name, index
):
    world, jobs = request.getfixturevalue(world_name)
    cluster = world.dsos.cluster
    eager_rows = list(cluster.query("darshan_data", index).execute().rows)
    lazy = cluster.query("darshan_data", index).execute()
    stamps = lazy.frame().col("timestamp")
    assert len(lazy) == len(eager_rows) > 0
    # Rows are built from the columns on each read: equal by value.
    got = lazy.rows
    assert got == eager_rows
    assert list(got) == eager_rows
    assert [r["timestamp"] for r in got] == stamps.tolist()


_MA_PROBE = """
import json, sys
from repro.apps import Hmmer
from repro.core import ConnectorConfig
from repro.experiments import World, WorldConfig, run_job
from repro.webservices import Dashboard, DsosDataSource, Panel, analysis
world = World(WorldConfig(seed=11, quiet=True, n_compute_nodes=2))
job = run_job(world, Hmmer(ranks_per_node=4, n_families=3), "nfs",
              connector_config=ConnectorConfig()).job_id
by_rank = {"index": "job_rank_time", "prefix": (job,)}
by_time = {"index": "job_time_rank", "prefix": (job,)}
board = Dashboard("figs 5-9", [
    Panel("fig5", by_rank, analysis.op_counts_with_ci),
    Panel("fig6", by_rank, analysis.ops_per_node),
    Panel("fig7", by_rank, analysis.duration_stats_per_job),
    Panel("fig8", by_time, lambda df: analysis.timeline(df, job)),
    Panel("fig9", by_time, lambda df: analysis.throughput_series(df, job)),
])
loaded = "numpy.ma" in sys.modules
panels = board.render(DsosDataSource(world.dsos))
print(json.dumps([loaded, "numpy.ma" in sys.modules, len(panels)]))
"""


def test_figure_board_render_does_not_import_numpy_ma():
    src = Path(__file__).resolve().parents[2] / "src"
    out = subprocess.run(
        [sys.executable, "-c", _MA_PROBE],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) == [False, False, 5]
