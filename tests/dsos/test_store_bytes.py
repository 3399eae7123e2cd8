"""Bytes per stored row: a flat store grows by its typed columns and
its indices' typed arrays, not by a row dict or a key tuple per object.

Rows shaped like the store plugin's (every ``darshan_data`` attribute,
in schema order, exact types, distinct numbers, shared strings) are
inserted one at a time into a 4-daemon flat store, and ``tracemalloc``
counts what the store holds afterwards, per row.  Measured with
CPython 3.11 and NumPy 2.4: ~290 B per row right after ingest (no index
work is done then) and ~385 B once every index has ordered the rows
(an oid permutation and its key columns), against ~880 B and ~650 B
while each index also kept a key tuple per row, and ~2,060 B while
each shard also kept the inserted dicts and a cell list per attribute.
The bound leaves ~25% headroom over the larger figure.
"""

import tracemalloc

import pytest

from repro.dsos import DARSHAN_DATA_SCHEMA, DsosCluster

#: Bytes per row the store may hold.
_BOUND = 480

_FILES = [f"/scratch/run/out.{i}.dat" for i in range(8)]


def _rows(n):
    for i in range(n):
        row = {}
        for attr in DARSHAN_DATA_SCHEMA.attrs.values():
            if attr.type == "string":
                row[attr.name] = _FILES[i % 8] if attr.name == "file" else "POSIX"
            elif attr.type == "int":
                row[attr.name] = (i * 7919 + len(attr.name)) * 4096
            else:
                row[attr.name] = i * 0.001 + len(attr.name)
        yield row


@pytest.mark.parametrize("queried", [False, True],
                         ids=["after-ingest", "after-queries"])
def test_store_bytes_per_row_stay_under_the_bound(queried):
    n = 10_000
    tracemalloc.start()
    try:
        cluster = DsosCluster("bytes", n_daemons=4)
        cluster.attach_schema(DARSHAN_DATA_SCHEMA)
        before = tracemalloc.get_traced_memory()[0]
        for row in _rows(n):
            cluster.insert("darshan_data", row, validate=False)
        if queried:
            for index in DARSHAN_DATA_SCHEMA.indices:
                assert len(cluster.query("darshan_data", index).execute()) == n
        per_row = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert cluster.count("darshan_data") == n
    assert per_row < _BOUND, f"{per_row:.0f} B per stored row"
