"""LDMS metric-set → DSOS store plugin.

Subscribes to ``metrics/<plugin>`` stream tags and flattens each metric
set (one database object per metric) into the ``ldms_metrics`` schema.
"""

from __future__ import annotations

import json

from repro.dsos.client import DsosClient
from repro.dsos.metrics_schema import LDMS_METRICS_SCHEMA

__all__ = ["MetricStreamStore"]


class MetricStreamStore:
    """Streams-subscriber landing metric sets in DSOS."""

    def __init__(self, daemon, tags: list[str], client: DsosClient):
        self.daemon = daemon
        self.client = client
        self.tags = list(tags)
        client.ensure_schema(LDMS_METRICS_SCHEMA)
        self.parse_errors = 0
        self.samples_stored = 0
        for tag in self.tags:
            daemon.streams.subscribe(tag, self._make_callback(tag))

    def add_tag(self, tag: str) -> None:
        """Subscribe to one more ``metrics/<plugin>`` stream tag
        (pipeline-telemetry samplers attach after construction)."""
        if tag in self.tags:
            return
        self.tags.append(tag)
        self.daemon.streams.subscribe(tag, self._make_callback(tag))

    def _make_callback(self, tag: str):
        source = tag.split("/", 1)[-1]

        def on_message(message) -> None:
            try:
                data = json.loads(message.payload)
            except json.JSONDecodeError:
                self.parse_errors += 1
                return
            if not isinstance(data, dict) or "metrics" not in data:
                self.parse_errors += 1
                return
            # Every row holds the schema's exact types, so the store
            # takes it unchecked; a message with a value that is not a
            # number is a parse error, with nothing stored.
            try:
                producer = str(data.get("producer", "unknown"))
                timestamp = float(data.get("timestamp", 0.0))
                samples = [(str(metric), float(value))
                           for metric, value in data["metrics"].items()]
            except (AttributeError, TypeError, ValueError, OverflowError):
                self.parse_errors += 1
                return
            for metric, value in samples:
                self.client.cluster.insert(
                    "ldms_metrics",
                    {
                        "producer": producer,
                        "source": source,
                        "metric": metric,
                        "value": value,
                        "timestamp": timestamp,
                    },
                    validate=False,
                )
                self.samples_stored += 1

        return on_message
