"""Deterministic synthetic order/item/package log generator.

Produces a desk-scale object-centric log shaped like an order management
process: each order is placed together with its items, every item is picked,
and a package covering one or more consecutive orders is packed and shipped.
Events carry four attributes - price and weight (numeric), priority and
region (categorical) - all drawn once per package group and held constant
across the group's events (numerics get a small per-event wobble). Normal
behavior is therefore highly regular: an event's attributes are predictable
from its process neighborhood, which is what the reconstruction-based
detector exploits. A single global clock advances strictly between events,
so every object trace is strictly increasing and reconstruction is
tie-break-free.

The draws are a contract. Every value comes from one PCG64 stream seeded
with ``GenConfig.seed``, in this order: per package group, the group size,
the region, the priority, the price and the weight; then per order of the
group, its item count followed by the draws of its events; then the draws
of the group's pack and ship events. Per event, in event order: the gap
before it, the price wobble, the weight wobble. ``bench/digests.json`` pins
the bytes of the logs this writes, so a change to the order, to a range or
to the rounding of a value shows there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import make_rng
from .ocel import ObjectCentricLog, ObjectEntry, _build_log, parse_timestamp

PRIORITIES = ("low", "med", "high")
REGIONS = ("east", "north", "south", "west")

_PRICE_RANGE = (10.0, 200.0)
_WEIGHT_RANGE = (1.0, 30.0)
_PRICE_WOBBLE = 1.0
_WEIGHT_WOBBLE = 0.1
# Mean of the exponential gap between consecutive events: 15 minutes.
_MEAN_STEP_MS = 15.0 * 60_000.0

DEFAULT_BASE_TIME = parse_timestamp("2023-04-01T09:00:00Z")


@dataclass(frozen=True)
class GenConfig:
    n_orders: int = 500
    items_per_order: tuple[int, int] = (1, 3)
    orders_per_package: tuple[int, int] = (1, 2)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_orders < 1:
            raise ValueError("n_orders must be >= 1")
        for low, high in (self.items_per_order, self.orders_per_package):
            if low < 1 or high < low:
                raise ValueError("ranges must be non-empty with low >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate(config: GenConfig) -> ObjectCentricLog:
    """Generate a valid log; identical configs produce identical logs.

    The log is collected as columns, the random draws of each event being
    the only per-event Python work, and built by one ``_build_log`` call.
    """
    rng = make_rng(config.seed)
    integers, unit = rng.integers, rng.random
    per_event = (rng.standard_exponential, unit, unit)  # gap, price wobble, weight wobble

    activities: list[str] = []
    refs: list[str] = []
    ref_counts: list[int] = []
    objects: list[ObjectEntry] = []
    regions: list[str] = []
    priorities: list[str] = []
    group_units: list[float] = []  # the price and weight draw of each group
    group_event_counts: list[int] = []
    event_draws: list[float] = []

    order_index = 0
    while order_index < config.n_orders:
        group_size = int(
            integers(config.orders_per_package[0], config.orders_per_package[1] + 1)
        )
        group_size = min(group_size, config.n_orders - order_index)
        package_id = f"pkg_{len(group_event_counts) + 1:05d}"
        region = REGIONS[int(integers(0, len(REGIONS)))]
        priority = PRIORITIES[int(integers(0, len(PRIORITIES)))]
        group_units += unit(), unit()
        first_event = len(activities)
        group_items: list[str] = []

        for _ in range(group_size):
            order_index += 1
            order_id = f"order_{order_index:05d}"
            n_items = int(
                integers(config.items_per_order[0], config.items_per_order[1] + 1)
            )
            item_ids = [f"item_{order_index:05d}_{j + 1}" for j in range(n_items)]
            objects.append(ObjectEntry(order_id, "order"))
            objects += [ObjectEntry(item_id, "item") for item_id in item_ids]
            group_items += item_ids
            event_draws += [draw() for _ in range(n_items + 1) for draw in per_event]

            activities.append("place_order")
            activities += ["pick_item"] * n_items
            refs.append(order_id)
            refs += item_ids
            for item_id in item_ids:
                refs += order_id, item_id
            ref_counts.append(n_items + 1)
            ref_counts += [2] * n_items

        objects.append(ObjectEntry(package_id, "package"))
        event_draws += [draw() for _ in range(2) for draw in per_event]
        activities += "pack_items", "ship_package"
        refs.append(package_id)
        refs += group_items
        refs.append(package_id)
        ref_counts += len(group_items) + 1, 1
        group_event_counts.append(len(activities) - first_event)
        regions += [region] * group_event_counts[-1]
        priorities += [priority] * group_event_counts[-1]

    gap_units, price_units, weight_units = np.array(event_draws).reshape(-1, 3).T
    steps = np.maximum(1, np.rint(_MEAN_STEP_MS * gap_units).astype(np.int64))
    group_prices, group_weights = np.array(group_units).reshape(-1, 2).T
    group_of_event = np.repeat(np.arange(len(group_event_counts)), group_event_counts)
    prices = _uniform(*_PRICE_RANGE, group_prices)[group_of_event]
    weights = _uniform(*_WEIGHT_RANGE, group_weights)[group_of_event]
    return _build_log(
        [f"ev{i:06d}" for i in range(1, len(activities) + 1)],
        activities,
        DEFAULT_BASE_TIME + np.cumsum(steps),
        refs,
        ref_counts,
        {
            "price": _round2(prices + _uniform(-_PRICE_WOBBLE, _PRICE_WOBBLE, price_units)),
            "priority": priorities,
            "region": regions,
            "weight": _round2(weights + _uniform(-_WEIGHT_WOBBLE, _WEIGHT_WOBBLE, weight_units)),
        },
        objects,
    )


def _uniform(low: float, high: float, units: np.ndarray) -> np.ndarray:
    """``Generator.uniform(low, high)`` of each unit draw, bit for bit."""
    return low + (high - low) * units


def _round2(values: np.ndarray) -> list[float]:
    """Python's ``round(value, 2)`` of each value; ``np.round`` differs from it on ties."""
    return [round(value, 2) for value in values.tolist()]


def benchmark_config(n_orders: int = 320, seed: int = 0) -> GenConfig:
    """The closed-loop benchmark shape: uniform orders, two orders per package.

    Dense homogeneous instances keep normal reconstruction tight, which is
    what makes the injected-anomaly separation measurable at desk scale.
    ``n_orders=320`` lands at roughly 2 000 events.
    """
    return GenConfig(
        n_orders=n_orders,
        items_per_order=(4, 4),
        orders_per_package=(2, 2),
        seed=seed,
    )
