"""The simulation event loop.

:class:`Environment` owns the simulated clock and a priority queue of
triggered events.  Determinism guarantee: events scheduled for the same
simulated time are processed in the order they were scheduled (a
monotonically increasing sequence number breaks ties), so simulation
results depend only on the model and the seed — never on hash ordering
or heap internals.
"""

from __future__ import annotations

import heapq
from typing import Generator, Iterable, Optional

from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.process import Process

__all__ = ["Environment", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for engine-level errors (e.g. running a finished sim)."""


class Environment:
    """Event loop, simulated clock and factory for events/processes.

    Parameters
    ----------
    initial_time:
        Starting value of the simulated clock.  Experiments use an epoch
        offset here so that "absolute timestamps" look like wall-clock
        epochs (the quantity the paper's connector exposes).
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list = []  # heap of (time, seq, event)
        self._seq = 0  # tie-breaker; also counts scheduled events
        self._strong_pending = 0  # queued events that keep the sim alive
        self._active_process: Optional[Process] = None
        self._horizon = float("inf")  # numeric run(until=) ceiling

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time (seconds)."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling ----------------------------------------------------

    def schedule(self, event: Event, delay: float = 0.0, weak: bool = False) -> None:
        """Enqueue a triggered event to be processed after ``delay``.

        ``weak=True`` marks the event as one that must not keep the
        simulation alive: :meth:`run` treats a queue holding only weak
        events as drained (the clock never advances into them).  Weak
        events scheduled *before* the last strong event are processed
        normally, in time order — they are invisible only at the end.
        Periodic observers (the diagnosis engine's evaluation ticks)
        use this so that opting into observation cannot extend a run.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        if weak:
            event._weak = True
        else:
            self._strong_pending += 1
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else float("inf")

    def advance_if_idle(self, when: float) -> bool:
        """Fast-forward the clock to ``when`` if nothing would notice.

        The fast lane's macro-event rule: a process that knows the
        absolute completion time of a whole burst may move the clock
        there directly — *only* when no queued event (weak or strong)
        is due at or before ``when`` and ``when`` does not overrun a
        numeric ``run(until=...)`` horizon.  Under those conditions the
        jump is observationally identical to scheduling a timeout and
        draining the queue to it, minus the heap traffic: the DES clock
        rule ("the clock moves to the next due event") is preserved
        because ``when`` *is* the next due instant.

        Returns ``True`` on success; ``False`` means the caller must
        fall back to a real :meth:`timeout_at` yield.
        """
        if when < self._now:
            raise ValueError(
                f"advance_if_idle({when}) is in the past (now={self._now})"
            )
        if self._queue and self._queue[0][0] <= when:
            return False
        if when > self._horizon:
            return False
        self._now = when
        return True

    # -- factories -----------------------------------------------------

    def event(self) -> Event:
        """A fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: object = None, weak: bool = False) -> Timeout:
        """An event succeeding after ``delay`` simulated seconds.

        ``weak=True`` makes it a weak timeout: processed in time order
        while strong events remain, but never the reason the simulation
        keeps running (see :meth:`schedule`).
        """
        return Timeout(self, delay, value, weak=weak)

    def timeout_at(self, when: float, value: object = None) -> Event:
        """An event succeeding at the *absolute* simulated time ``when``.

        The coalesced-publish fast lane needs this: a process replacing
        two chained timeouts (``t1 = now + a``, ``t2 = t1 + b``) with one
        must schedule at the identically-computed absolute ``(now + a) +
        b`` — a single relative ``timeout(a + b)`` lands one float ULP
        away and breaks bit-exact equivalence with the chained path.
        """
        if when < self._now:
            raise ValueError(f"timeout_at({when}) is in the past (now={self._now})")
        event = Event(self)
        event._value = value
        self._strong_pending += 1
        heapq.heappush(self._queue, (when, self._seq, event))
        self._seq += 1
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new simulated process driving ``generator``."""
        return Process(self, generator)

    def every(self, period_s: float, fn, *, weak: bool = False) -> Process:
        """Start a process calling ``fn()`` every ``period_s`` seconds.

        The canonical home of the periodic-observer pattern: with
        ``weak=True`` every tick is a weak timeout (see
        :meth:`schedule`), so arming an observer — a diagnosis engine,
        a fleet probe scanner — can never extend or perturb a run.
        ``fn`` is called after each period elapses, with the clock at
        the tick instant.
        """
        if period_s <= 0:
            raise ValueError("period_s must be positive")

        def _loop():
            while True:
                yield self.timeout(period_s, weak=weak)
                fn()

        return self.process(_loop())

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition succeeding when every event in ``events`` has."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition succeeding when any event in ``events`` has."""
        return AnyOf(self, events)

    # -- execution -----------------------------------------------------

    def step(self) -> None:
        """Process exactly one event from the queue."""
        if not self._queue:
            raise SimulationError("no more events")
        self._now, _, event = heapq.heappop(self._queue)
        if not event._weak:
            self._strong_pending -= 1
        callbacks, event.callbacks = event.callbacks, None
        event._processed = True
        for callback in callbacks:
            callback(event)
        if not event.ok and not event._defused:
            # An event failed and nothing was waiting on it: surface the
            # error instead of silently dropping it.
            raise event.value

    def run(self, until: "float | Event | None" = None) -> object:
        """Run the simulation.

        ``until`` may be ``None`` (run until the queue drains), a number
        (run until the clock reaches it) or an :class:`Event` (run until
        it is processed, returning its value).

        Clock rule: if the queue drains *before* a numeric horizon, the
        clock stays at the last processed event (the standard DES rule);
        it only advances to ``until`` when an event beyond the horizon
        remains pending.

        The three ``until`` variants dispatch events in separate inlined
        loops — this is the hottest code in the simulator, and per-event
        ``step()`` calls plus stop-condition re-checks cost several
        percent of campaign wall-clock.
        """
        queue = self._queue
        pop = heapq.heappop

        if until is None:
            # A queue holding only weak events counts as drained: the
            # clock stays at the last *strong* event, exactly where a
            # run without the weak observers would have stopped.
            while queue and self._strong_pending:
                self._now, _, event = pop(queue)
                if not event._weak:
                    self._strong_pending -= 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event.value
            return None

        if isinstance(until, Event):
            stop_event = until
            while queue and self._strong_pending and not stop_event._processed:
                self._now, _, event = pop(queue)
                if not event._weak:
                    self._strong_pending -= 1
                callbacks, event.callbacks = event.callbacks, None
                event._processed = True
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event.value
            if not stop_event.triggered:
                raise SimulationError(
                    "simulation ended before the awaited event triggered"
                )
            if not stop_event._ok:
                raise stop_event.value
            return stop_event.value

        stop_time = float(until)
        if stop_time < self._now:
            raise SimulationError(
                f"until={stop_time} is in the past (now={self._now})"
            )
        # Weak events are ignored by the stop rules here too: a queue
        # holding only weak events is drained (clock stays), and only a
        # *strong* event beyond the horizon advances the clock to it.
        # The horizon is published so advance_if_idle cannot jump the
        # clock past ``until`` from inside a dispatched event.
        self._horizon = stop_time
        try:
            while queue and self._strong_pending:
                t = queue[0][0]
                if t > stop_time:
                    self._now = stop_time
                    break
                # Same-time drain: events dispatched at t that schedule
                # more work at t (zero delays are everywhere in the
                # stream path) are processed without re-checking the
                # horizon.
                while queue and queue[0][0] == t:
                    self._now, _, event = pop(queue)
                    if not event._weak:
                        self._strong_pending -= 1
                    callbacks, event.callbacks = event.callbacks, None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event.value
        finally:
            self._horizon = float("inf")
        return None
