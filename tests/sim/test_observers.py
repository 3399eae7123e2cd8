"""The observer hub: one ``subscribe`` for every read-only observer.

Producers resolve their event's subscriber list once; the hub checks
event names, keeps subscription order, and reports whether anything
subscribed at all (the express spine's arming guard).
"""

import pytest

from repro.sim import Environment


def test_unknown_event_name_raises():
    hub = Environment().observers
    with pytest.raises(TypeError, match="ingest"):
        hub.subscribe(stored=print, ingest=print)
    assert not hub  # a rejected call subscribes nothing


def test_subscribers_run_in_subscription_order():
    hub = Environment().observers
    calls = []
    # A producer resolves the list once; later subscriptions still reach it.
    producer_view = hub.fault
    hub.subscribe(fault=lambda t, fault: calls.append(("first", t, fault)))
    hub.subscribe(stored=print,
                  fault=lambda t, fault: calls.append(("second", t, fault)))
    assert hub
    for callback in producer_view:
        callback(2.5, "crash")
    assert calls == [("first", 2.5, "crash"), ("second", 2.5, "crash")]
