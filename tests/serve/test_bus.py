"""The bounded queue fabric: capacity, backpressure, ordering, sharding."""

import queue
import threading

import numpy as np
import pytest

from repro.hpc.faults import app_key
from repro.serve import SHUTDOWN, Bus, Channel, WindowClosed, WindowFrame


def test_channel_rejects_bad_depth():
    with pytest.raises(ValueError):
        Channel("c", 0)


def test_channel_fifo_order():
    channel = Channel("c", 8)
    for i in range(5):
        channel.publish(i)
    assert [channel.consume(timeout=0.1) for _ in range(5)] == [0, 1, 2, 3, 4]


def test_channel_consume_timeout_raises_empty():
    channel = Channel("c", 2)
    with pytest.raises(queue.Empty):
        channel.consume(timeout=0.01)


def test_channel_counts_backpressure_and_blocks_until_drained():
    channel = Channel("c", 2)
    channel.publish("a")
    channel.publish("b")
    assert channel.backpressure_waits == 0

    # The third publish must block on the full channel until a consumer
    # frees a slot — and the block must be counted.
    unblocked = threading.Event()

    def blocked_publish():
        channel.publish("c")
        unblocked.set()

    thread = threading.Thread(target=blocked_publish, daemon=True)
    thread.start()
    assert not unblocked.wait(timeout=0.05), "publish into a full channel returned"
    assert channel.consume(timeout=1.0) == "a"
    assert unblocked.wait(timeout=1.0), "publish never unblocked after a consume"
    thread.join(timeout=1.0)
    assert channel.backpressure_waits == 1
    assert channel.published == 3
    assert len(channel) == 2


def test_bus_rejects_zero_shards():
    with pytest.raises(ValueError):
        Bus(0, 4)


def test_bus_sharding_is_stable_and_total():
    bus = Bus(3, 4)
    hosts = [f"host-{i}" for i in range(20)]
    shards = [bus.shard_for(host) for host in hosts]
    assert shards == [app_key(host) % 3 for host in hosts]
    assert all(0 <= shard < 3 for shard in shards)
    for host, shard in zip(hosts, shards):
        assert bus.channel_for(host) is bus.shards[shard]


def test_bus_aggregates_counters():
    bus = Bus(2, 1)
    bus.shards[0].publish("x")
    bus.shards[1].publish("y")
    assert bus.published == 2
    assert bus.backpressure_waits == 0


def test_channel_drain_takes_what_is_queued_without_blocking():
    channel = Channel("c", 8)
    assert channel.drain() == []
    for i in range(3):
        channel.publish(i)
    assert channel.drain() == [0, 1, 2]
    assert len(channel) == 0


def test_channel_drain_stops_after_shutdown():
    channel = Channel("c", 8)
    for message in ("a", SHUTDOWN, "b"):
        channel.publish(message)
    taken = channel.drain()
    assert taken[0] == "a" and taken[1] is SHUTDOWN and len(taken) == 2
    assert channel.consume(timeout=0.1) == "b"


def test_channel_drain_is_bounded_by_what_was_queued_on_entry():
    channel = Channel("c", 2)
    channel.publish("a")
    channel.publish("b")
    refills = iter("cdefgh")
    real_get = channel._queue.get_nowait

    def get_and_refill():
        message = real_get()
        channel._queue.put_nowait(next(refills))
        return message

    channel._queue.get_nowait = get_and_refill
    assert channel.drain() == ["a", "b"]


def test_messages_are_frozen_and_self_contained():
    trace = np.ones((10, 44))
    frame = WindowFrame("h", 3, trace)
    closed = WindowClosed("h", 3, "app", 10)
    with pytest.raises(AttributeError):
        frame.execution = 2
    with pytest.raises(AttributeError):
        closed.n_windows = 9
    assert frame.rows is trace  # the ledger trace itself, not a copy
    assert SHUTDOWN is not None
