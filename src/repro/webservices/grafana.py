"""Grafana, headless: dashboards, panels, a DSOS data source.

The real front end queries DSOS through a storage plugin, pipes rows
through a named Python analysis module, and renders the result.  Here a
:class:`Panel` binds a query spec to an analysis callable; rendering a
:class:`Dashboard` executes every panel against the data source and
returns :class:`PanelData` (the series Grafana would draw).
:func:`render_ascii` draws a panel in the terminal so examples have
something to show.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dsos.client import DsosClient
from repro.webservices.analysis import rows_to_dataframe
from repro.webservices.dataframe import DataFrame

__all__ = ["Dashboard", "DsosDataSource", "Panel", "PanelData", "render_ascii"]


class DsosDataSource:
    """The DSOS storage plugin the paper implemented for Grafana."""

    def __init__(self, client: DsosClient, schema_name: str = "darshan_data"):
        self.client = client
        self.schema_name = schema_name

    def rows(
        self,
        index: str = "job_rank_time",
        prefix: tuple | None = None,
        begin: tuple | None = None,
        end: tuple | None = None,
        where: list | None = None,
    ) -> list[dict]:
        """Run the query and hand back its rows, in index order: the
        store's own row objects, so two indices over the same rows
        return the same objects."""
        return self.client.query(
            self.schema_name, index, prefix=prefix, begin=begin, end=end, where=where
        ).rows

    def query(self, *args, **kwargs) -> DataFrame:
        """Run the query and hand back a DataFrame (the pandas step);
        takes the arguments of :meth:`rows`."""
        return rows_to_dataframe(self.rows(*args, **kwargs))


@dataclass(frozen=True)
class Panel:
    """One dashboard cell: a query plus an analysis module."""

    title: str
    query: dict
    #: ``analysis(df) -> payload`` — one of repro.webservices.analysis
    #: functions (possibly partially applied).
    analysis: object
    viz: str = "timeseries"  # timeseries | bars | scatter | table


@dataclass
class PanelData:
    """Rendered panel payload."""

    title: str
    viz: str
    payload: object
    rows_queried: int = 0


@dataclass
class Dashboard:
    """A named collection of panels."""

    title: str
    panels: list = field(default_factory=list)

    def add_panel(self, panel: Panel) -> None:
        self.panels.append(panel)

    def render(self, source: DsosDataSource) -> list[PanelData]:
        """Execute every panel's query + analysis, in panel order.

        Each distinct query spec is run once per render and its frame
        is handed to every panel that shares the spec (frames are
        read-only, so one analysis cannot disturb the next).  A frame
        is released right after the last panel that reads it.

        A spec whose rows are the last built frame's row objects in
        another order (the time-ordered index over the same rows) gets
        that frame's columns permuted instead of a second
        ``from_records`` pass; see :class:`_BuiltRows`.
        """
        specs = [_spec_key(panel.query) for panel in self.panels]
        last_reader = {spec: i for i, spec in enumerate(specs)}
        frames: dict = {}
        built = None
        out = []
        for i, (panel, spec) in enumerate(zip(self.panels, specs)):
            df = frames.get(spec)
            if df is None:
                df, built = _BuiltRows.frame(source.rows(**panel.query), built)
                frames[spec] = df
            if last_reader[spec] == i:
                del frames[spec]
            payload = panel.analysis(df)
            out.append(
                PanelData(
                    title=panel.title,
                    viz=panel.viz,
                    payload=payload,
                    rows_queried=len(df),
                )
            )
        return out


class _BuiltRows:
    """The rows behind the frame a render built last, and its columns.

    ``from_records`` picks a column's dtype from the column's set of
    cell types and whether its values overflow int64: both depend only
    on the multiset of values.  So when new rows are the same row
    objects in another order, indexing each built column with that
    permutation gives exactly ``from_records(rows)``, dtypes included.
    The row list is held so its objects stay alive and no new row can
    take one of their ids.  The columns, not the frame, are held,
    and are handed over one at a time, so the built frame's memory is
    freed as the derived one fills.
    """

    __slots__ = ("rows", "sorted_ids", "id_order", "cols")

    def __init__(self, rows: list):
        ids = np.fromiter(map(id, rows), np.uintp, len(rows))
        self.rows = rows
        self.id_order = np.argsort(ids)
        self.sorted_ids = ids[self.id_order]
        self.cols: dict | None = None

    @classmethod
    def frame(cls, rows: list, built: "_BuiltRows | None"):
        """``(frame of rows, _BuiltRows of rows)``: the frame is derived
        from ``built`` when ``rows`` permute its row objects, else built
        by ``from_records``."""
        new = cls(rows)
        perm = new._permutation_of(built)
        if perm is None:
            df = rows_to_dataframe(rows)
            new.cols = {name: df.col(name) for name in df.columns}
            return df, new
        cols = built.cols
        new.cols = {name: cols.pop(name)[perm] for name in list(cols)}
        return DataFrame(new.cols), new

    def _permutation_of(self, built: "_BuiltRows | None"):
        """``perm`` with ``self.rows[i] is built.rows[perm[i]]`` when the
        two lists hold the same row objects (as multisets: equal sorted
        ids pair each object with itself, so a row listed twice in both
        maps to one of its own copies) and their first rows name the
        same columns in the same order, else None."""
        if (built is None
                or not np.array_equal(self.sorted_ids, built.sorted_ids)
                or list(self.rows[0]) != list(built.cols)):
            return None
        perm = np.empty_like(self.id_order)
        perm[self.id_order] = built.id_order
        return perm


def _spec_key(query: dict) -> str:
    """Identity of a panel query spec: equal specs (in any keyword
    order) share one key.  ``repr`` keeps ``1``, ``1.0`` and ``True``
    apart, so specs merely equal under ``==`` never share a frame."""
    return repr(sorted(query.items()))


def _finite(value) -> bool:
    """True for real numbers a bar can be drawn from (rejects None,
    NaN, ±inf and bools-as-numbers are fine)."""
    return isinstance(value, (int, float)) and math.isfinite(value)


def render_ascii(data: PanelData, width: int = 64, height: int = 12) -> str:
    """Terminal rendering for bar/series/histogram/table payloads.

    Supports payloads shaped like Figure 5 (``{label: {"mean": ...}}``),
    Figure 9 (``{"edges": ..., op: {"bytes"/"count": array}}``), the
    telemetry log-histogram (``{"bin_edges": ..., "counts": ...}``) and
    plain row tables (``[{col: value, ...}, ...]``).
    """
    lines = [f"== {data.title} =="]
    payload = data.payload
    if isinstance(payload, (list, dict)) and not payload:
        lines.append("(no rows)")
        return "\n".join(lines)
    if isinstance(payload, dict) and "bin_edges" in payload and "counts" in payload:
        edges, counts = payload["bin_edges"], payload["counts"]
        top = max(counts) if any(counts) else 1
        for lo, hi, c in zip(edges, edges[1:], counts):
            if c == 0:
                continue
            bar = "#" * max(int(c / top * width), 1)
            lines.append(f"[{lo:8.1e}, {hi:8.1e}) |{bar} {c}")
        if len(lines) == 1:
            lines.append("(empty)")
        return "\n".join(lines)
    if isinstance(payload, list) and payload and all(
        isinstance(r, dict) for r in payload
    ):
        cols = list(payload[0])
        widths = {
            c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in payload))
            for c in cols
        }
        lines.append("  ".join(f"{c:<{widths[c]}}" for c in cols))
        for r in payload:
            lines.append("  ".join(f"{str(r.get(c, '')):<{widths[c]}}" for c in cols))
        return "\n".join(lines)
    if isinstance(payload, dict) and payload and all(
        isinstance(v, dict) and "mean" in v for v in payload.values()
    ):
        finite = [
            v["mean"] for v in payload.values() if _finite(v.get("mean"))
        ]
        top = max(finite, default=0.0) or 1.0
        for label, v in sorted(payload.items()):
            mean = v.get("mean")
            if not _finite(mean):
                lines.append(f"{label:>10} | (no data)")
                continue
            ci = v.get("ci", 0)
            bar = "#" * max(int(mean / top * width), 1)
            lines.append(
                f"{label:>10} | {bar} {mean:.1f} "
                f"±{ci if _finite(ci) else 0.0:.1f}"
            )
        return "\n".join(lines)
    if isinstance(payload, dict) and "edges" in payload:
        series = {
            k: v["bytes"] for k, v in payload.items() if isinstance(v, dict) and "bytes" in v
        }
        top = max((s.max() for s in series.values() if len(s)), default=1.0) or 1.0
        for name, s in sorted(series.items()):
            lines.append(f"-- {name} (bytes/bucket) --")
            n = min(len(s), width)
            resampled = s[: n]
            row = "".join(
                "▁▂▃▄▅▆▇█"[min(int(v / top * 7.999), 7)] if v > 0 else " "
                for v in resampled
            )
            lines.append(row)
        return "\n".join(lines)
    lines.append(repr(payload))
    return "\n".join(lines)
