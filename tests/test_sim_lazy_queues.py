"""Lazily allocated wait queues in ``repro.sim.resources``.

A ``Store``, ``TrackedStore`` or ``Resource`` holds no deque until its
first item or waiter arrives.  The model-based tests drive random
operation sequences against plain-deque reference models and check the
items delivered, the order in which getters, putters and waiters wake,
the tracked-store accounting, and that a queue is a deque exactly when
something was queued on it.  The footprint tests pin what an idle queue
and an idle connected RC QP pair cost.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ClusterConfig
from repro.net import build_cluster
from repro.sim import Resource, SimulationError, Simulator, SpinLock, Store, TrackedStore
from repro.verbs import QueuePair, Transport


def _slot_values(obj):
    for klass in type(obj).__mro__:
        for name in getattr(klass, "__slots__", ()):
            yield name, getattr(obj, name)


def _is_deque(queue) -> bool:
    assert isinstance(queue, (deque, tuple))
    return isinstance(queue, deque)


class _StoreModel:
    """Plain-deque reference for ``Store``/``TrackedStore`` semantics."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.now = 0.0
        self.items = deque()         # (item, arrival time)
        self.getters = deque()       # tokens
        self.putters = deque()       # (token, item)
        self.accepted = 0
        self.reaped = 0
        self.wait_ns = 0.0
        self.used = {"items": False, "getters": False, "putters": False}
        #: token -> value for events triggered by the current operation.
        self.fired = {}

    def _room(self) -> bool:
        return self.capacity is None or len(self.items) < self.capacity

    def _enqueue(self, item) -> None:
        self.items.append((item, self.now))
        self.used["items"] = True
        self.accepted += 1

    def _dequeue(self):
        item, t0 = self.items.popleft()
        self.wait_ns += self.now - t0
        self.reaped += 1
        if self.putters:
            token, put_item = self.putters.popleft()
            self._enqueue(put_item)
            self.fired[token] = None
        return item

    def put(self, token, item) -> None:
        if self.getters:
            self.fired[self.getters.popleft()] = item
            self.accepted += 1
            self.reaped += 1
            self.fired[token] = None
        elif self._room():
            self._enqueue(item)
            self.fired[token] = None
        else:
            self.putters.append((token, item))
            self.used["putters"] = True

    def try_put(self, item) -> bool:
        if self.getters:
            self.fired[self.getters.popleft()] = item
            self.accepted += 1
            self.reaped += 1
            return True
        if self._room():
            self._enqueue(item)
            return True
        return False

    def get(self, token) -> None:
        if self.items:
            self.fired[token] = self._dequeue()
        else:
            self.getters.append(token)
            self.used["getters"] = True

    def try_get(self):
        if not self.items:
            return False, None
        return True, self._dequeue()


_STORE_OPS = st.lists(
    st.one_of(
        st.sampled_from(["put", "try_put", "get", "try_get"]),
        st.integers(min_value=1, max_value=40),   # advance virtual time
    ),
    max_size=80,
)


class TestStoreAgainstModel:
    @given(ops=_STORE_OPS,
           capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=4)),
           kind=st.sampled_from(["store", "untracked", "tracked"]))
    @settings(max_examples=300, deadline=None)
    def test_matches_deque_model(self, ops, capacity, kind):
        sim = Simulator()
        if kind == "store":
            store = Store(sim, capacity)
        else:
            store = TrackedStore(sim, capacity, track=(kind == "tracked"))
        model = _StoreModel(capacity)
        pending = {}   # token -> real event not yet triggered

        for token, op in enumerate(ops):
            model.fired = {}
            if isinstance(op, int):
                sim.run(until=sim.now + op)
                model.now = sim.now
                continue
            if op == "put":
                pending[token] = store.put(token)
                model.put(token, token)
            elif op == "try_put":
                assert store.try_put(token) == model.try_put(token)
            elif op == "get":
                pending[token] = store.get()
                model.get(token)
            else:
                assert store.try_get() == model.try_get()
            fired = {t: ev.value for t, ev in pending.items() if ev.triggered}
            # Each operation wakes at most one queued party, so matching
            # the woken set after every step pins the wake order.
            assert fired == model.fired
            for t in fired:
                del pending[t]
            assert len(store) == len(store.items) == len(model.items)
            assert [i for i, _ in model.items] == list(store.items)

        assert _is_deque(store.items) == model.used["items"]
        assert _is_deque(store._getters) == model.used["getters"]
        assert _is_deque(store._putters) == model.used["putters"]
        if kind == "tracked":
            assert store.accepted == model.accepted
            assert store.reaped == model.reaped
            assert store.reaped + len(store.items) == store.accepted
            assert store.wait_ns == pytest.approx(model.wait_ns)
            assert list(store.arrivals) == [t for _, t in model.items]
            assert _is_deque(store.arrivals) == model.used["items"]
        elif kind == "untracked":
            assert store.accepted == store.reaped == 0
            assert store.arrivals == ()


class _ResourceModel:
    def __init__(self, capacity):
        self.capacity = capacity
        self.in_use = 0
        self.waiters = deque()
        self.contended = 0
        self.used = False
        self.fired = []

    def acquire(self, token) -> None:
        if self.in_use < self.capacity:
            self.in_use += 1
            self.fired.append(token)
        else:
            self.waiters.append(token)
            self.contended += 1
            self.used = True

    def try_acquire(self) -> bool:
        if self.in_use < self.capacity:
            self.in_use += 1
            return True
        return False

    def release(self) -> bool:
        if self.in_use <= 0:
            return False
        if self.waiters:
            self.fired.append(self.waiters.popleft())
        else:
            self.in_use -= 1
        return True


class TestResourceAgainstModel:
    @given(ops=st.lists(st.sampled_from(["acquire", "try_acquire", "release"]),
                        max_size=80),
           capacity=st.integers(min_value=1, max_value=3),
           spin=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_deque_model(self, ops, capacity, spin):
        sim = Simulator()
        res = SpinLock(sim) if spin else Resource(sim, capacity)
        model = _ResourceModel(res.capacity)
        pending = {}
        for token, op in enumerate(ops):
            model.fired = []
            if op == "acquire":
                pending[token] = res.acquire()
                model.acquire(token)
            elif op == "try_acquire":
                assert res.try_acquire() == model.try_acquire()
            elif model.release():
                res.release()
            else:
                with pytest.raises(SimulationError):
                    res.release()
            fired = [t for t, ev in pending.items() if ev.triggered]
            assert fired == model.fired
            for t in fired:
                del pending[t]
            assert res.in_use == model.in_use
            assert res.queue_len == len(model.waiters)
            assert res.contended == model.contended
        assert _is_deque(res._waiters) == model.used


class TestIdleFootprint:
    @pytest.mark.parametrize("make", [
        lambda sim: Store(sim),
        lambda sim: Store(sim, capacity=4),
        lambda sim: TrackedStore(sim),
        lambda sim: TrackedStore(sim, track=True),
        lambda sim: Resource(sim, capacity=2),
        lambda sim: SpinLock(sim),
    ], ids=["store", "bounded", "untracked", "tracked", "resource", "spinlock"])
    def test_untouched_queue_holds_no_deque(self, make):
        obj = make(Simulator())
        held = [name for name, value in _slot_values(obj)
                if isinstance(value, deque)]
        assert held == []

    def test_drained_queue_stays_allocated(self, sim):
        # A queue that has been used keeps its deque: a busy queue does
        # not pay allocation churn on every empty/non-empty transition.
        store = Store(sim)
        store.try_put(1)
        assert store.try_get() == (True, 1)
        assert isinstance(store.items, deque) and not store.items

    def test_idle_rc_qp_pair_under_bound(self):
        # An idle connected RC QP pair built ~18.7 KB when every queue
        # was an eager deque; with lazy queues it measures ~2 KB.
        bound = 8 * 1024
        n = 32
        sim = Simulator()
        servers, clients, fabric = build_cluster(
            sim, ClusterConfig(n_servers=1, n_clients=1))
        server, client = servers[0], clients[0]

        def pair():
            a = QueuePair(sim, client, fabric, Transport.RC)
            b = QueuePair(sim, server, fabric, Transport.RC)
            a.connect(b)
            return a, b

        pair()   # first-use allocations (metric handles, type caches)
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            keep = [pair() for _ in range(n)]
            per_pair = (tracemalloc.get_traced_memory()[0] - before) / n
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert len(keep) == n
        assert per_pair < bound, "idle RC QP pair costs %.0f B" % per_pair
