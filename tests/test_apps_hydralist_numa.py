"""NUMA-replicated HydraList: per-replica staleness, shared data list."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import NumaHydraList


class TestBasics:
    def test_insert_get_across_numa_nodes(self):
        index = NumaHydraList(node_capacity=4, numa_nodes=3)
        index.insert(10, "x", numa=0)
        # All replicas see the shared data list.
        for numa in range(3):
            assert index.get(10, numa=numa) == "x"

    def test_remove_visible_everywhere(self):
        index = NumaHydraList(node_capacity=4, numa_nodes=2)
        index.insert(5, "v", numa=1)
        assert index.remove(5, numa=0)
        assert index.get(5, numa=1) is None

    def test_scan_ordered_from_any_replica(self):
        index = NumaHydraList(node_capacity=3, numa_nodes=2)
        for key in [9, 1, 5, 3, 7]:
            index.insert(key, key, numa=key % 2)
        for numa in (0, 1):
            assert index.scan(2, 3, numa=numa) == [(3, 3), (5, 5), (7, 7)]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            NumaHydraList(node_capacity=1)
        with pytest.raises(ValueError):
            NumaHydraList(numa_nodes=0)
        index = NumaHydraList()
        with pytest.raises(ValueError):
            index.scan(0, -1)


class TestReplicatedSearchLayers:
    def test_splits_broadcast_to_every_replica(self):
        index = NumaHydraList(node_capacity=2, numa_nodes=3,
                              updater_batch=1000)
        for key in range(12):
            index.insert(key, key, numa=0)
        lags = [replica.lag for replica in index.replicas]
        assert all(lag > 0 for lag in lags)
        assert len(set(lags)) == 1  # same splits broadcast everywhere

    def test_stale_replica_still_correct(self):
        """A replica that never merged serves reads via next-chasing."""
        index = NumaHydraList(node_capacity=2, numa_nodes=2,
                              updater_batch=1000)
        for key in range(30):
            index.insert(key, key * 2, numa=0)
        index.replicas[0].merge()  # only replica 0 catches up
        for key in range(30):
            assert index.get(key, numa=1) == key * 2
        assert index.replicas[1].stale_traversals > 0
        assert index.replicas[1].lag > 0

    def test_updater_pass_clears_all_lag(self):
        index = NumaHydraList(node_capacity=2, numa_nodes=4,
                              updater_batch=1000)
        for key in range(40):
            index.insert(key, key, numa=0)
        applied = index.run_updater_pass()
        assert applied > 0
        assert index.max_replica_lag() == 0
        before = index.replicas[2].stale_traversals
        for key in range(40):
            assert index.get(key, numa=2) == key
        assert index.replicas[2].stale_traversals == before

    def test_updater_batch_bounds_lag(self):
        index = NumaHydraList(node_capacity=2, numa_nodes=2,
                              updater_batch=8)
        for key in range(500):
            index.insert(key, key, numa=0)
        assert index.max_replica_lag() < 8

    def test_lookup_passes_node_emptied_by_removals(self):
        """An unmerged split emptied by deletes must not hide the nodes
        after it, before or after the replica merges it."""
        index = NumaHydraList(node_capacity=3, numa_nodes=1,
                              updater_batch=16)
        for key in range(6):
            index.insert(key, key * 3, numa=0)
        assert index.remove(2, numa=0) and index.remove(3, numa=0)
        for key in (0, 1, 4, 5):
            assert index.get(key, numa=0) == key * 3
        index.run_updater_pass()
        for key in (0, 1, 4, 5):
            assert index.get(key, numa=0) == key * 3
        index.insert(2, "back", numa=0)
        assert list(index.items()) == [(0, 0), (1, 3), (2, "back"),
                                       (4, 12), (5, 15)]

    def test_merged_replica_is_faster_path(self):
        """After merging, reads on that replica stop chasing."""
        index = NumaHydraList(node_capacity=2, numa_nodes=1,
                              updater_batch=1000)
        for key in range(50):
            index.insert(key, key, numa=0)
        index.run_updater_pass()
        replica = index.replicas[0]
        before = replica.stale_traversals
        for key in range(50):
            index.get(key, numa=0)
        assert replica.stale_traversals == before


class TestAgainstReference:
    @given(st.lists(st.tuples(st.sampled_from(["ins", "del"]),
                              st.integers(min_value=0, max_value=60),
                              st.integers(min_value=0, max_value=3)),
                    max_size=200),
           st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_dict_from_every_replica(self, ops, numa_nodes):
        index = NumaHydraList(node_capacity=3, numa_nodes=numa_nodes,
                              updater_batch=16)
        reference = {}
        for op, key, numa in ops:
            if op == "ins":
                index.insert(key, key * 3, numa=numa)
                reference[key] = key * 3
            else:
                assert index.remove(key, numa=numa) == (key in reference)
                reference.pop(key, None)
        assert index.size == len(reference)
        assert list(index.items()) == sorted(reference.items())
        for numa in range(numa_nodes):
            for key, value in reference.items():
                assert index.get(key, numa=numa) == value
