"""The observer hub, ``env.observers``: one subscription point for the
read-only observers (the diagnosis ingest tail, the flight recorder).

Each producer resolves its event's list once, at construction, so an
unobserved hot path pays one falsy test.  Every callback takes its
event's simulated instant ``t`` first:

* ``stored(t, message, n_rows)`` — DSOS store plugin; ``t`` is the
  instant the message's rows landed;
* ``recovery(t, trace_id, stage, node, outcome)`` — telemetry
  collector, for hops with a recovery outcome;
* ``alert(t, alert, transition)`` and ``rule_tick(t, engine)`` —
  diagnosis engine;
* ``fault(t, fault)`` — fault injector, per applied-fault log line.

Callbacks observe, they never perturb: host-side appends only.
"""

from __future__ import annotations

__all__ = ["EVENTS", "Observers"]

EVENTS = ("stored", "recovery", "alert", "rule_tick", "fault")


class Observers:
    """One subscriber list per event, called in subscription order."""

    __slots__ = (*EVENTS, "_express_spine")

    def __init__(self):
        for name in EVENTS:
            setattr(self, name, [])
        #: Set while an armed express spine relies on nothing observing.
        self._express_spine = None

    def subscribe(self, **callbacks) -> None:
        """Append ``event=callback`` pairs; an unknown event raises."""
        unknown = [name for name in callbacks if name not in EVENTS]
        if unknown:
            raise TypeError(
                f"unknown observer event(s) {', '.join(unknown)}; "
                f"expected {', '.join(EVENTS)}"
            )
        if self._express_spine is not None:
            self._express_spine.on_mutation()
        for name, callback in callbacks.items():
            getattr(self, name).append(callback)

    def __bool__(self) -> bool:
        """True iff any event has a subscriber."""
        return any(getattr(self, name) for name in EVENTS)
