"""NUMA-replicated HydraList (the full design of Mathew & Min, VLDB'20).

The single-layer :class:`repro.apps.hydralist.HydraList` captures the
asynchronous-update mechanism; this variant adds HydraList's other key
idea: the **search layer is replicated per NUMA node**.  Every structural
change (node split) is broadcast to each replica's pending queue, and a
background *search-layer updater* merges them independently — so readers
on one socket never touch another socket's layer, at the cost of
per-replica staleness (absorbed by next-pointer chasing, exactly like
the data list tolerates in the original).

Used by the HydraList benchmarks when ``numa_nodes > 1`` and exercised
directly by the unit tests; the default experiments keep one replica so
their cost model matches §8.6's single-node index.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable, List, Optional, Tuple

from .hydralist import _DataNode

__all__ = ["NumaHydraList", "SearchLayerReplica"]


class _FencedNode(_DataNode):
    """A data node with a fixed lower fence: the split key it was created
    with (``None``, i.e. minus infinity, for the head).  Unlike
    ``min_key`` the fence survives removals, so a node emptied or
    shrunk by deletes still routes lookups past it."""

    __slots__ = ("low",)

    def __init__(self, low: Any = None):
        super().__init__()
        self.low = low


class SearchLayerReplica:
    """One NUMA node's private search layer with its pending-update queue."""

    __slots__ = ("keys", "nodes", "pending", "stale_traversals", "merges")

    def __init__(self, head: _FencedNode):
        self.keys: List[Any] = []
        self.nodes: List[_FencedNode] = [head]
        #: Splits broadcast but not yet merged into this replica.
        self.pending: List[_FencedNode] = []
        self.stale_traversals = 0
        self.merges = 0

    def locate(self, key: Any) -> _FencedNode:
        """Descend this replica, then chase next-links past unmerged
        splits (the staleness-tolerance mechanism)."""
        if self.keys:
            idx = bisect.bisect_right(self.keys, key)
            node = self.nodes[idx]
        else:
            node = self.nodes[0]
        while node.next is not None and node.next.low <= key:
            node = node.next
            self.stale_traversals += 1
        return node

    def merge(self) -> int:
        """Apply every pending structural update; returns how many."""
        if not self.pending:
            return 0
        merged = len(self.pending)
        for node in self.pending:
            idx = bisect.bisect_left(self.keys, node.low)
            self.keys.insert(idx, node.low)
            self.nodes.insert(idx + 1, node)
        self.pending = []
        self.merges += 1
        return merged

    @property
    def lag(self) -> int:
        return len(self.pending)


class NumaHydraList:
    """Ordered map with per-NUMA-replicated, asynchronously updated
    search layers over one shared data list."""

    def __init__(self, node_capacity: int = 64, numa_nodes: int = 2,
                 updater_batch: int = 128):
        if node_capacity < 2:
            raise ValueError("node capacity must be >= 2")
        if numa_nodes < 1:
            raise ValueError("need at least one NUMA node")
        self.node_capacity = node_capacity
        self.updater_batch = updater_batch
        head = _FencedNode()
        self._head = head
        self.replicas: List[SearchLayerReplica] = [
            SearchLayerReplica(head) for _ in range(numa_nodes)]
        self.size = 0

    # -- replica selection ---------------------------------------------------

    def _replica(self, numa: int) -> SearchLayerReplica:
        return self.replicas[numa % len(self.replicas)]

    def _broadcast_split(self, sibling: _FencedNode) -> None:
        for replica in self.replicas:
            replica.pending.append(sibling)
        # Bound staleness the way the updater thread does: merge a
        # replica once its queue grows past the batch size.
        for replica in self.replicas:
            if len(replica.pending) >= self.updater_batch:
                replica.merge()

    # -- operations ----------------------------------------------------------

    def insert(self, key: Any, value: Any, numa: int = 0) -> None:
        node = self._replica(numa).locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            node.values[idx] = value
            return
        node.keys.insert(idx, key)
        node.values.insert(idx, value)
        self.size += 1
        if len(node.keys) > self.node_capacity:
            half = len(node.keys) // 2
            sibling = _FencedNode(node.keys[half])
            sibling.keys = node.keys[half:]
            sibling.values = node.values[half:]
            node.keys = node.keys[:half]
            node.values = node.values[:half]
            sibling.next = node.next
            node.next = sibling
            self._broadcast_split(sibling)

    def get(self, key: Any, numa: int = 0) -> Optional[Any]:
        node = self._replica(numa).locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            return node.values[idx]
        return None

    def remove(self, key: Any, numa: int = 0) -> bool:
        node = self._replica(numa).locate(key)
        idx = bisect.bisect_left(node.keys, key)
        if idx < len(node.keys) and node.keys[idx] == key:
            del node.keys[idx]
            del node.values[idx]
            self.size -= 1
            return True
        return False

    def scan(self, start_key: Any, count: int,
             numa: int = 0) -> List[Tuple[Any, Any]]:
        if count < 0:
            raise ValueError("negative scan count")
        out: List[Tuple[Any, Any]] = []
        node: Optional[_FencedNode] = self._replica(numa).locate(start_key)
        idx = bisect.bisect_left(node.keys, start_key)
        while node is not None and len(out) < count:
            while idx < len(node.keys) and len(out) < count:
                out.append((node.keys[idx], node.values[idx]))
                idx += 1
            node = node.next
            idx = 0
        return out

    def items(self) -> Iterable[Tuple[Any, Any]]:
        """All pairs in key order (from the shared data list)."""
        node: Optional[_FencedNode] = self._head
        while node is not None:
            yield from zip(node.keys, node.values)
            node = node.next

    # -- the background search-layer updater ------------------------------------

    def run_updater_pass(self) -> int:
        """One pass of the background updater: merge every replica's
        pending queue.  Returns total structural updates applied."""
        return sum(replica.merge() for replica in self.replicas)

    def max_replica_lag(self) -> int:
        return max(replica.lag for replica in self.replicas)
