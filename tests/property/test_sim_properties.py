"""Property-based tests of the DES kernel's core guarantees."""

import json

from hypothesis import given, settings, strategies as st

from repro.sim import Environment, Resource, Store


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=50))
def test_events_fire_in_nondecreasing_time_order(delays):
    """The clock never goes backwards, whatever the schedule."""
    env = Environment()
    fired = []

    def waiter(d):
        yield env.timeout(d)
        fired.append(env.now)

    for d in delays:
        env.process(waiter(d))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=2, max_size=30))
def test_equal_time_events_fire_in_schedule_order(delays):
    """FIFO tie-breaking: same-delay events resume in creation order."""
    env = Environment()
    order = []

    def waiter(i, d):
        yield env.timeout(d)
        order.append(i)

    rounded = [round(d, 1) for d in delays]
    for i, d in enumerate(rounded):
        env.process(waiter(i, d))
    env.run()
    # Stable sort of indices by delay must equal the observed order.
    expected = [i for i, _ in sorted(enumerate(rounded), key=lambda p: p[1])]
    assert order == expected


@given(
    capacity=st.integers(min_value=1, max_value=8),
    service_times=st.lists(
        st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    ),
)
def test_resource_never_exceeds_capacity(capacity, service_times):
    env = Environment()
    res = Resource(env, capacity=capacity)
    concurrency = {"now": 0, "max": 0}

    def user(t):
        req = res.request()
        yield req
        concurrency["now"] += 1
        concurrency["max"] = max(concurrency["max"], concurrency["now"])
        yield env.timeout(t)
        concurrency["now"] -= 1
        res.release(req)

    for t in service_times:
        env.process(user(t))
    env.run()
    assert concurrency["max"] <= capacity
    assert concurrency["now"] == 0
    assert res.count == 0


@given(
    items=st.lists(st.integers(), min_size=1, max_size=50),
    capacity=st.integers(min_value=1, max_value=10),
)
def test_store_is_fifo_and_lossless_with_blocking_put(items, capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    received = []

    def producer():
        for item in items:
            yield store.put(item)

    def consumer():
        for _ in items:
            got = yield store.get()
            received.append(got)
            yield env.timeout(0.1)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


@given(
    n_items=st.integers(min_value=1, max_value=100),
    capacity=st.integers(min_value=1, max_value=20),
)
def test_store_try_put_accounts_every_item(n_items, capacity):
    """try_put accepts or drops; accepted + dropped == offered."""
    env = Environment()
    store = Store(env, capacity=capacity)
    accepted = sum(1 for i in range(n_items) if store.try_put(i))
    assert accepted == min(n_items, capacity)
    assert len(store) == accepted


def _campaign_fingerprint(seed: int, telemetry: bool) -> tuple:
    """Everything observable from one seeded campaign, serialized."""
    from repro.apps import MpiIoTest
    from repro.core import ConnectorConfig
    from repro.darshan.cli import render_log
    from repro.experiments import World, WorldConfig, run_job

    world = World(WorldConfig(
        seed=seed, quiet=True, n_compute_nodes=4, telemetry=telemetry,
    ))
    app = MpiIoTest(
        n_nodes=2, ranks_per_node=2, iterations=2, block_size=2**20,
        collective=False, sync_per_iteration=False,
    )
    result = run_job(world, app, "nfs", connector_config=ConnectorConfig())
    # Rows are built from the store's columns when read: list them.
    rows = list(world.query_job(result.job_id).rows)
    return (
        result.runtime_s,
        result.messages_published,
        json.dumps(rows, sort_keys=True, default=str),
        render_log(result.darshan_log),
    )


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=3, deadline=None)
def test_telemetry_is_purely_observational(seed):
    """A seeded campaign is byte-identical with tracing on or off: the
    collector observes the pipeline without perturbing it (no RNG, no
    clock reads, no extra events, no payload changes)."""
    assert _campaign_fingerprint(seed, False) == _campaign_fingerprint(seed, True)


@given(st.data())
@settings(max_examples=30)
def test_fork_join_always_terminates_at_max_child_time(data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    durations = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    env = Environment()

    def child(d):
        yield env.timeout(d)

    def parent():
        procs = [env.process(child(d)) for d in durations]
        yield env.all_of(procs)
        return env.now

    finished = env.run(env.process(parent()))
    assert finished == max(durations)
