"""Campaign worlds: one fully wired simulated environment.

A :class:`World` holds everything Section V's environment describes:
Voltrino's nodes and network, NFS and Lustre with their shared-load
variability processes, LDMS daemons on every compute node aggregating
through the head node to Shirley, and the DSOS cluster fed by the
stream store plugin.

Two worlds built from the same seed share the *structure* of their
randomness (the same incident timeline, the same Fourier wander), so a
campaign run at ``campaign_offset_days=12`` experiences genuinely
different — but reproducible — file-system weather than one at offset
0.  That is the paper's "Darshan-only runs were performed 1–2 weeks
before the connector runs" situation, and the mechanism behind its
negative overhead cells.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

from repro.cluster import Cluster, ClusterSpec
from repro.dsos import DsosClient, DsosCluster, DsosStreamStore
from repro.fs import (
    LoadProcess,
    LustreFileSystem,
    LustreParams,
    NFSFileSystem,
    NFSParams,
)
from repro.ldms import AggregationFabric, CsvStreamStore
from repro.sim import Environment, RngRegistry

__all__ = ["World", "WorldConfig", "STREAM_TAG"]

#: The connector's single stream tag (Section IV-C).
STREAM_TAG = "darshanConnector"

#: Absolute epoch the simulated clocks are anchored to.
EPOCH_BASE = 1_650_000_000.0

_DAY = 86400.0


@dataclass(frozen=True)
class WorldConfig:
    """Reproducible description of one campaign world."""

    seed: int = 42
    n_compute_nodes: int = 24
    #: Where in the shared load timeline this campaign runs.
    campaign_offset_days: float = 0.0
    #: Variability knobs (None = defaults; dict of LoadProcess kwargs).
    load_kwargs: dict = field(default_factory=dict)
    quiet: bool = False  # True = flat load (unit tests, ablations)
    nfs_params: NFSParams = field(default_factory=NFSParams)
    lustre_params: LustreParams = field(default_factory=LustreParams)
    dsos_daemons: int = 4
    #: Replicated store topology: with either knob above 1 the cluster
    #: rebuilds as ``dsos_shards × dsos_replication`` WAL-mode daemons
    #: (one replica set per shard, job-hash routing, quorum-acked
    #: ingest) and ``dsos_daemons`` no longer applies.  The default
    #: (1, 1) keeps the flat legacy cluster, byte-identical to pre-
    #: replication behavior on every lane — pinned by the store
    #: property suite.
    dsos_shards: int = 1
    dsos_replication: int = 1
    #: Write quorum W (None = majority, R // 2 + 1).
    dsos_write_quorum: int | None = None
    #: Run anti-entropy repair after a crashed daemon restarts (the
    #: ``repro store --no-repair`` drill disables it to demonstrate
    #: under-replication).
    dsos_repair: bool = True
    keep_csv: bool = False  # also attach the CSV store plugin
    #: Install a repro.telemetry TraceCollector: hop traces, latency
    #: histograms and loss reconciliation for the pipeline itself.
    #: Purely observational — results are byte-identical either way.
    #: ``True`` uses the keep-everything default retention policy; pass
    #: a :class:`~repro.telemetry.spans.TelemetryConfig` to set the
    #: span-tree sampling policy (head rate, tail latency threshold).
    telemetry: object = False
    #: Outbox depth of every stream-forward rule (small values force
    #: overflow drops; the default matches production ldmsd).
    forward_queue_depth: int = 65536
    #: Host-side fast lane through the monitoring pipeline
    #: (callback-driven forward delivery, shape-compiled DSOS rows
    #: and, when the world is provably inert — no faults/retry/
    #: standby/diagnosis/probe/CSV/recorder/samplers — an express
    #: spine that virtualizes publish→forward→ingest so engine events
    #: scale with application I/O instead of monitoring messages).
    #: Simulated results are identical either way; False keeps the
    #: process-driven reference path.
    fast_lane: bool = True
    #: Compatibility keyword only: the columnar path *is* the fast
    #: lane.  Must equal ``fast_lane`` when given; stored nowhere.
    columnar: InitVar[bool | None] = None
    #: A :class:`~repro.faults.FaultPlan` to arm against this world
    #: (None = no injector at all; an *empty* plan arms to nothing and
    #: is bit-identical to None — pinned by the property suite).
    faults: object | None = None
    #: A :class:`~repro.ldms.resilience.RetryPolicy` opting every
    #: forward rule into backoff/resend (None = the paper's best-effort
    #: transport, unchanged).
    retry: object | None = None
    #: Build a hot-standby first-level aggregator on the analysis node;
    #: with ``retry`` set, compute daemons fail over to it when the
    #: head-node L1 dies.
    standby_l1: bool = False
    #: A :class:`~repro.diagnosis.DiagnosisConfig` arming a streaming
    #: :class:`~repro.diagnosis.DiagnosisEngine` against this world
    #: (requires ``telemetry=True``).  Evaluation runs inside simulated
    #: time on *weak* engine ticks — observation-only: a seeded
    #: campaign is byte-identical with diagnosis armed or None.
    diagnosis: object | None = None
    #: A :class:`~repro.fleet.ProbeConfig` arming a proactive
    #: :class:`~repro.fleet.ProbeScanner` against this world.  Sweeps
    #: run on weak ticks and ghost-traverse the spine read-only, so a
    #: seeded campaign is byte-identical with the probe armed or None —
    #: pinned by the fleet property suite.
    probe: object | None = None
    #: Arm the black-box flight recorder
    #: (:class:`~repro.telemetry.flightrec.FlightRecorder`): bounded
    #: per-stream evidence rings plus forensic-bundle freezing on
    #: incident triggers.  ``True`` uses default ring/window settings;
    #: pass a :class:`~repro.telemetry.flightrec.FlightRecorderConfig`
    #: to tune them.  Recording is weak-tick / observer-only, so a
    #: seeded campaign is byte-identical with the recorder armed or
    #: absent on every lane — pinned by the flightrec property suite.
    flightrec: object = False

    def __post_init__(self, columnar: bool | None) -> None:
        if columnar is not None and columnar != self.fast_lane:
            raise ValueError(
                "columnar is the fast lane: WorldConfig(columnar=...) "
                "must equal fast_lane"
            )

    @property
    def epoch(self) -> float:
        return EPOCH_BASE + self.campaign_offset_days * _DAY

    @property
    def telemetry_config(self):
        """The resolved :class:`~repro.telemetry.spans.TelemetryConfig`
        (``None`` when telemetry is off; defaults for ``True``)."""
        from repro.telemetry.spans import TelemetryConfig

        if isinstance(self.telemetry, TelemetryConfig):
            return self.telemetry
        return TelemetryConfig() if self.telemetry else None


class World:
    """One wired-up campaign environment."""

    def __init__(self, config: WorldConfig = WorldConfig()):
        self.config = config
        self.env = Environment(initial_time=config.epoch)
        self.rng = RngRegistry(config.seed)
        self.cluster = Cluster(
            self.env, self.rng, ClusterSpec(n_compute_nodes=config.n_compute_nodes)
        )

        # Shared-load processes, one per file system, anchored so the
        # campaign's absolute clock indexes into their timeline.
        self.loads = {}
        for fs_name in ("nfs", "lustre"):
            kwargs = dict(config.load_kwargs)
            if config.quiet:
                kwargs.update(
                    diurnal_amplitude=0.0,
                    noise_sigma=0.0,
                    n_modes=0,
                    incident_rate=0.0,
                )
            self.loads[fs_name] = LoadProcess(
                self.rng.stream(f"{fs_name}.load"),
                origin=EPOCH_BASE,
                **kwargs,
            )

        nfs = NFSFileSystem(
            self.env, self.loads["nfs"], self.rng.stream("nfs.service"),
            config.nfs_params,
        )
        lustre = LustreFileSystem(
            self.env, self.loads["lustre"], self.rng.stream("lustre.service"),
            config.lustre_params,
        )
        self.cluster.attach_filesystem("nfs", nfs)
        self.cluster.attach_filesystem("lustre", lustre)

        # Pipeline self-observability (must exist before daemons start
        # publishing; hooks look the collector up per hop).
        self.telemetry = None
        if config.telemetry:
            from repro.telemetry import install

            self.telemetry = install(self.env)

        # Monitoring and storage pipeline.
        self.fabric = AggregationFabric(
            self.cluster, STREAM_TAG, queue_depth=config.forward_queue_depth,
            fast_lane=config.fast_lane, retry=config.retry,
            standby_l1=config.standby_l1,
        )
        self.dsos = DsosClient(
            DsosCluster(
                "shirley-dsos",
                config.dsos_daemons,
                shards=config.dsos_shards,
                replication=config.dsos_replication,
                write_quorum=config.dsos_write_quorum,
                repair=config.dsos_repair,
            )
        )
        self.store = DsosStreamStore(
            self.fabric.l2, STREAM_TAG, self.dsos, fast=config.fast_lane
        )
        self.csv_store = (
            CsvStreamStore(self.fabric.l2, STREAM_TAG) if config.keep_csv else None
        )
        self.metric_store = None
        self._samplers_running = False
        self._pipeline_samplers_running = False

        #: Connectors attached by the job runner (read by diagnosis for
        #: spill accounting; appended either way, purely host-side).
        self.connectors: list = []

        # Live diagnosis: armed before faults so the engine's windows
        # exist from t=0, but after the full pipeline it observes.
        self.diagnosis = None
        if config.diagnosis is not None:
            from repro.diagnosis import DiagnosisEngine

            self.diagnosis = DiagnosisEngine(self, config.diagnosis)
            self.diagnosis.arm()

        # Fleet probes: armed after diagnosis (sweeps are read-only and
        # order-independent, but keeping arming order fixed keeps event
        # sequence numbers reproducible across configs).
        self.probe_scanner = None
        if config.probe is not None:
            from repro.fleet import ProbeScanner

            self.probe_scanner = ProbeScanner(self, config.probe)
            self.probe_scanner.arm()

        # Chaos: arm the fault plan last, so triggers and timers see the
        # fully built pipeline.
        self.fault_injector = None
        if config.faults is not None:
            from repro.faults import FaultInjector

            self.fault_injector = FaultInjector(self, config.faults)
            self.fault_injector.arm()

        # Black-box flight recorder: armed before the express spine,
        # whose arming guard must see the recorder's hub subscription
        # and refuse to virtualize.
        self.flight_recorder = None
        if config.flightrec:
            from repro.telemetry.flightrec import (
                FlightRecorder,
                FlightRecorderConfig,
            )

            fr_config = (
                config.flightrec
                if isinstance(config.flightrec, FlightRecorderConfig)
                else FlightRecorderConfig()
            )
            self.flight_recorder = FlightRecorder(self, fr_config)
            self.flight_recorder.arm()

        # Express spine: built last of all so its arming guard sees
        # the finished world.  try_arm refuses whenever anything could
        # observe the virtualization (and any later guard-breaking
        # mutation de-arms it mid-run), so `spine.armed` is False on
        # every chaos/retry/diagnosis configuration — those worlds run
        # the event-driven fast lane.
        self.spine = None
        if config.fast_lane:
            from repro.core.batch import ColumnarSpine

            self.spine = ColumnarSpine(self)
            self.spine.try_arm()

    # -- system telemetry (classic LDMS samplers) -----------------------------

    def start_samplers(self, interval_s: float = 5.0) -> None:
        """Start the LDMS system-telemetry path: the head-node daemon
        samples each file system's load factor and the samples land in
        the ``ldms_metrics`` DSOS schema, joinable against I/O events
        by absolute timestamp."""
        if self._samplers_running:
            raise RuntimeError("samplers already running")
        if self.spine is not None:
            self.spine.dearm()
        from repro.dsos.metric_store import MetricStreamStore

        tags = []
        for fs_name, load in self.loads.items():
            sampler = _NamedLoadSampler(load, f"fsload_{fs_name}")
            self.fabric.l1.add_sampler(sampler, interval_s)
            tag = f"metrics/{sampler.name}"
            self.fabric.l1.add_stream_forward(tag, self.fabric.l2)
            tags.append(tag)
        if self.metric_store is None:
            self.metric_store = MetricStreamStore(self.fabric.l2, tags, self.dsos)
        self._samplers_running = True

    def stop_samplers(self) -> None:
        self.fabric.l1.stop()
        self.fabric.l2.stop()
        self._samplers_running = False
        self._pipeline_samplers_running = False

    def query_metrics(self, metric: str):
        """All samples of one metric, in time order."""
        return self.dsos.query("ldms_metrics", "metric_time", prefix=(metric,))

    # -- pipeline self-observability ------------------------------------------

    def start_pipeline_samplers(self, interval_s: float = 5.0) -> None:
        """Publish the aggregators' own delivery ledgers as metric sets.

        Pipeline health rides the same streams → aggregation → DSOS
        fabric it measures: L1's ``metrics/pipestats_*`` sets are
        forwarded to L2 like any other stream, and both land in the
        ``ldms_metrics`` schema.
        """
        if self._pipeline_samplers_running:
            raise RuntimeError("pipeline samplers already running")
        if self.spine is not None:
            self.spine.dearm()
        from repro.dsos.metric_store import MetricStreamStore
        from repro.telemetry.metrics import PipelineStatsSampler

        tags = []
        for daemon in (self.fabric.l1, self.fabric.l2):
            sampler = PipelineStatsSampler(daemon)
            daemon.add_sampler(sampler, interval_s)
            tags.append(f"metrics/{sampler.name}")
        self.fabric.l1.add_stream_forward(tags[0], self.fabric.l2)
        if self.metric_store is None:
            self.metric_store = MetricStreamStore(self.fabric.l2, tags, self.dsos)
        else:
            for tag in tags:
                self.metric_store.add_tag(tag)
        self._pipeline_samplers_running = True

    def pipeline_health_report(self, job_id: int | None = None):
        """The :class:`~repro.telemetry.report.PipelineHealthReport`
        for this world (optionally restricted to one job)."""
        from repro.telemetry import PipelineHealthReport

        return PipelineHealthReport.from_world(self, job_id=job_id)

    def trace_registry(self, annotate_exemplars: bool = True):
        """Span trees retained under this world's sampling policy.

        Derived on demand from the collector's finished traces — a
        read-only reshaping that schedules nothing.  With
        ``annotate_exemplars`` (and the policy's ``exemplars`` flag)
        the end-to-end latency histogram gains per-bucket exemplar
        trace ids pointing into the returned registry.
        """
        if self.telemetry is None:
            raise RuntimeError(
                "telemetry not enabled; build the world with "
                "WorldConfig(telemetry=True) or a TelemetryConfig"
            )
        from repro.telemetry.collector import END_TO_END
        from repro.telemetry.spans import TraceRegistry

        config = self.config.telemetry_config
        registry = TraceRegistry.from_collector(self.telemetry, config)
        if annotate_exemplars and config.exemplars:
            e2e = self.telemetry.histograms.get(END_TO_END)
            if e2e is not None:
                registry.annotate(e2e)
        return registry

    # -- conveniences --------------------------------------------------------

    def filesystem(self, name: str):
        return self.cluster.filesystem(name)

    def drain(self) -> None:
        """Let in-flight stream messages reach the database.

        With samplers running, the event queue never empties, so drain
        a bounded horizon instead.
        """
        if self._samplers_running or self._pipeline_samplers_running:
            self.env.run(until=self.env.now + 2.0)
        else:
            self.env.run()
            if self.spine is not None:
                # Virtual completions may lie beyond the last engine
                # event; land them and move the clock to the instant
                # the event-driven pipeline would have finished at.
                t_end = self.spine.drain_all()
                if t_end > self.env.now:
                    if not self.env.advance_if_idle(t_end):
                        self.env.timeout_at(t_end)
                        self.env.run()

    def query_job(self, job_id: int):
        """All stored events of one job, in (rank, time) order."""
        return self.dsos.query("darshan_data", "job_rank_time", prefix=(job_id,))


class _NamedLoadSampler:
    """A LoadSampler publishing under a per-file-system plugin name."""

    def __init__(self, load, name: str):
        self.load = load
        self.name = name

    def sample(self, now: float) -> dict:
        return {"load_factor": float(self.load.factor(now))}
