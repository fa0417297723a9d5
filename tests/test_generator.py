"""Synthetic log generator: structure, determinism, attribute kinds."""

import numpy as np
import pytest

from ocelad.generator import GenConfig, PRIORITIES, REGIONS, benchmark_config, generate
from ocelad.instances import build_instances
from ocelad.ocel import parse_ocel_json, write_ocel_json


class TestShape:
    def test_single_order_minimal_process(self):
        log = generate(
            GenConfig(n_orders=1, items_per_order=(1, 1), orders_per_package=(1, 1), seed=0)
        )
        assert len(log.events) == 4
        assert [e.activity for e in log.events] == [
            "place_order",
            "pick_item",
            "pack_items",
            "ship_package",
        ]
        assert len(log.objects) == 3
        assert log.object_types == frozenset({"order", "item", "package"})

    def test_event_count_formula_with_fixed_ranges(self):
        config = GenConfig(
            n_orders=10, items_per_order=(2, 2), orders_per_package=(2, 2), seed=1
        )
        log = generate(config)
        # 10 orders x (1 place + 2 picks) + 5 packages x (pack + ship)
        assert len(log.events) == 10 * 3 + 5 * 2

    def test_activities(self):
        log = generate(GenConfig(n_orders=12, seed=4))
        assert log.activities == frozenset(
            {"place_order", "pick_item", "pack_items", "ship_package"}
        )

    def test_benchmark_config_lands_near_two_thousand_events(self):
        log = generate(benchmark_config(seed=11))
        assert 1800 <= len(log.events) <= 2200


class TestValidity:
    def test_generated_log_is_valid(self):
        log = generate(GenConfig(n_orders=25, seed=7))
        assert parse_ocel_json(write_ocel_json(log)) == log

    def test_instances_partition_all_events(self):
        log = generate(GenConfig(n_orders=25, seed=7))
        instances = build_instances(log).instances
        assert sum(len(inst.node_indices) for inst in instances) == len(log.events)
        assert len(instances) >= 1

    def test_traces_strictly_increasing(self):
        log = generate(GenConfig(n_orders=25, seed=8))
        edges = build_instances(log).edges
        assert len(edges)
        for u, v in edges:
            assert log.events[u].timestamp < log.events[v].timestamp

    def test_package_bridges_orders(self):
        config = GenConfig(n_orders=10, orders_per_package=(2, 2), seed=9)
        assert len(build_instances(generate(config)).instances) <= 10 / 2 + 1


class TestDeterminism:
    def test_same_seed_same_log(self):
        a = generate(GenConfig(n_orders=15, seed=33))
        b = generate(GenConfig(n_orders=15, seed=33))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(GenConfig(n_orders=15, seed=33))
        b = generate(GenConfig(n_orders=15, seed=34))
        assert a != b


class TestAttributes:
    def test_schema(self):
        log = generate(GenConfig(n_orders=10, seed=2))
        assert list(log.columns) == ["price", "priority", "region", "weight"]
        assert list(log.vocabularies) == ["priority", "region"]
        assert log.columns["price"].dtype == log.columns["weight"].dtype == np.float64

    def test_categorical_vocabularies(self):
        log = generate(GenConfig(n_orders=60, seed=3))
        priorities = {e.attributes["priority"] for e in log.events}
        regions = {e.attributes["region"] for e in log.events}
        assert priorities <= set(PRIORITIES)
        assert regions <= set(REGIONS)
        assert len(regions) == 4

    def test_every_event_carries_all_attributes(self):
        log = generate(GenConfig(n_orders=10, seed=5))
        for event in log.events:
            assert set(event.attributes) == {"price", "weight", "priority", "region"}

    def test_attributes_constant_within_package_group(self):
        log = generate(GenConfig(n_orders=12, orders_per_package=(2, 2), seed=6))
        for inst in build_instances(log).instances:
            regions = {log.events[i].attributes["region"] for i in inst.node_indices}
            priorities = {log.events[i].attributes["priority"] for i in inst.node_indices}
            assert len(regions) == 1
            assert len(priorities) == 1
            prices = [log.events[i].attributes["price"] for i in inst.node_indices]
            assert max(prices) - min(prices) <= 2.0 + 1e-9


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_orders": 0},
            {"items_per_order": (0, 2)},
            {"items_per_order": (3, 1)},
            {"orders_per_package": (2, 1)},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            GenConfig(**kwargs)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            GenConfig(seed=-1)
