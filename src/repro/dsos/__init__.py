"""DSOS: the Distributed Scalable Object Store (reimplemented).

The paper stores every connector message in DSOS because it offers high
ingest rates and indexed queries over huge volumes.  The pieces modelled
here, matching Section IV-D:

* :class:`~repro.dsos.schema.Schema` — typed attributes plus *joint
  indices* (``job_rank_time`` etc.); "each index provided a different
  query performance", which the query stats expose;
* :class:`~repro.dsos.daemon.Dsosd` — one storage daemon holding a
  shard of each schema's objects;
* :class:`~repro.dsos.cluster.DsosCluster` — multiple ``dsosd``
  instances; ingest is distributed round-robin and queries fan out to
  all daemons in parallel, results merged in index order (exactly the
  DSOS client behaviour the paper describes);
* :class:`~repro.dsos.client.DsosClient` — the Python-API facade the
  analysis modules use;
* :mod:`repro.dsos.store_plugin` — the LDMS stream-store plugin that
  lands connector messages in the database.
"""

from repro.dsos.schema import Attr, Schema, SchemaError, DARSHAN_DATA_SCHEMA
from repro.dsos.index import SortedIndex
from repro.dsos.daemon import Dsosd
from repro.dsos.cluster import DsosCluster
from repro.dsos.query import Query, QueryResult, QueryStats
from repro.dsos.client import DsosClient
from repro.dsos.store_plugin import DsosStreamStore
from repro.dsos.metrics_schema import LDMS_METRICS_SCHEMA
from repro.dsos.metric_store import MetricStreamStore

__all__ = [
    "Attr",
    "DARSHAN_DATA_SCHEMA",
    "DsosClient",
    "DsosCluster",
    "Dsosd",
    "DsosStreamStore",
    "LDMS_METRICS_SCHEMA",
    "MetricStreamStore",
    "Query",
    "QueryResult",
    "QueryStats",
    "Schema",
    "SchemaError",
    "SortedIndex",
]
