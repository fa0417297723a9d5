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
"""

from __future__ import annotations

from dataclasses import dataclass

from .numerics import make_rng
from .ocel import Event, ObjectCentricLog, ObjectEntry, assemble_log, parse_timestamp

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
    """Generate a valid log; identical configs produce identical logs."""
    rng = make_rng(config.seed)

    clock = DEFAULT_BASE_TIME
    events: list[Event] = []
    objects: list[ObjectEntry] = []
    package_counter = 0

    def tick() -> int:
        nonlocal clock
        clock += max(1, int(round(rng.exponential(_MEAN_STEP_MS))))
        return clock

    def emit(activity: str, refs: set[str], region: str, priority: str,
             price: float, weight: float) -> None:
        events.append(
            Event(
                event_id=f"ev{len(events) + 1:06d}",
                activity=activity,
                timestamp=tick(),
                object_refs=frozenset(refs),
                attributes={
                    "price": round(price + float(rng.uniform(-_PRICE_WOBBLE, _PRICE_WOBBLE)), 2),
                    "weight": round(weight + float(rng.uniform(-_WEIGHT_WOBBLE, _WEIGHT_WOBBLE)), 2),
                    "priority": priority,
                    "region": region,
                },
            )
        )

    order_index = 0
    while order_index < config.n_orders:
        group_size = int(
            rng.integers(config.orders_per_package[0], config.orders_per_package[1] + 1)
        )
        group_size = min(group_size, config.n_orders - order_index)
        package_counter += 1
        package_id = f"pkg_{package_counter:05d}"
        region = REGIONS[int(rng.integers(0, len(REGIONS)))]
        priority = PRIORITIES[int(rng.integers(0, len(PRIORITIES)))]
        price = float(rng.uniform(*_PRICE_RANGE))
        weight = float(rng.uniform(*_WEIGHT_RANGE))
        group_items: list[str] = []

        for _ in range(group_size):
            order_index += 1
            order_id = f"order_{order_index:05d}"
            objects.append(ObjectEntry(object_id=order_id, object_type="order"))

            n_items = int(
                rng.integers(config.items_per_order[0], config.items_per_order[1] + 1)
            )
            item_ids = [f"item_{order_index:05d}_{j + 1}" for j in range(n_items)]
            for item_id in item_ids:
                objects.append(ObjectEntry(object_id=item_id, object_type="item"))
            group_items.extend(item_ids)

            emit("place_order", {order_id, *item_ids}, region, priority, price, weight)
            for item_id in item_ids:
                emit("pick_item", {order_id, item_id}, region, priority, price, weight)

        objects.append(ObjectEntry(object_id=package_id, object_type="package"))
        emit("pack_items", {package_id, *group_items}, region, priority, price, weight)
        emit("ship_package", {package_id}, region, priority, price, weight)

    return assemble_log(events, objects)


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
