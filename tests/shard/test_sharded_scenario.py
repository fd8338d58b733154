"""Sharded Scenario plumbing: validation, dispatch, result shape."""

import pytest

from repro.farm.builder import build_zoned_farm
from repro.farm.scenario import Scenario
from repro.node.osmodel import OSParams
from repro.sim.engine import SimulationError, Simulator
from repro.sim.shard import (
    LOOKAHEAD_FLOOR,
    ShardedScenarioResult,
    run_sharded,
    validate_shards,
)

from tests.conftest import FAST

ZONED = dict(
    n_zones=2, nodes_per_zone=2, seed=11, params=FAST, os_params=OSParams.fast()
)


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def test_validate_shards_accepts_ints_and_auto():
    assert validate_shards(1) == 1
    assert validate_shards(8) == 8
    assert validate_shards("auto") == "auto"
    assert validate_shards(" AUTO ") == "auto"


@pytest.mark.parametrize("bad", [0, -3, True, 2.0, "four", None])
def test_validate_shards_rejects_everything_else(bad):
    with pytest.raises(ValueError):
        validate_shards(bad)


def test_simulator_rejects_multi_shard_construction():
    """A lone Simulator cannot shard itself; the error points at the API
    that can. ``shards=1`` and ``None`` stay valid (degenerate cases)."""
    assert Simulator(shards=None).now == 0.0
    assert Simulator(shards=1).now == 0.0
    with pytest.raises(SimulationError, match="run_sharded"):
        Simulator(shards=4)


def test_scenario_shards_requires_factory_not_built_farm():
    farm = build_zoned_farm(**ZONED)
    with pytest.raises(ValueError, match="farm_factory"):
        Scenario(shards=2)
    with pytest.raises(ValueError, match="not a built farm"):
        Scenario(farm=farm, shards=2, farm_factory=build_zoned_farm)
    with pytest.raises(ValueError, match="only meaningful with shards"):
        Scenario(farm=farm, farm_factory=build_zoned_farm)
    with pytest.raises(ValueError, match="needs a built farm"):
        Scenario()
    with pytest.raises(ValueError):
        Scenario(shards="some", farm_factory=build_zoned_farm)


# ----------------------------------------------------------------------
# dispatch and result shape
# ----------------------------------------------------------------------
def _fingerprint(res):
    return (
        res.stable_time,
        res.counters,
        [(r.time, r.category, r.source) for r in res.trace_records],
        res.notifications,
        res.segment_stats,
        res.events_executed,
    )


def test_scenario_dispatches_to_sharded_result_and_layouts_agree():
    results = {}
    for shards in (1, 2):
        res = Scenario(
            shards=shards,
            farm_factory=build_zoned_farm,
            factory_kwargs=ZONED,
            duration=16.0,
        ).run()
        assert isinstance(res, ShardedScenarioResult)
        results[shards] = res

    inline, pooled = results[1], results[2]
    # shards caps the worker count; islands are a topology fact
    assert inline.n_islands == pooled.n_islands == 3  # hub + 2 zones
    assert inline.shards == 1 and pooled.shards == 2
    assert inline.lookahead == pooled.lookahead == LOOKAHEAD_FLOOR
    assert inline.stable_time is not None
    # cross-cut report traffic actually flowed
    assert inline.cross_messages > 0
    # the acceptance bar: identical artifacts regardless of layout
    assert _fingerprint(inline) == _fingerprint(pooled)


def test_messages_in_flight_at_the_horizon_drop_alike_in_every_layout():
    """A horizon that ends with a cut message in flight. At shards=1 the
    one worker holds every leftover, at 2 the worker of islands 0 and 2
    holds their mutual traffic, at auto the coordinator holds them all:
    each layout must count the same drops."""
    zoned = dict(ZONED, nodes_per_zone=3, seed=77)
    dropped = {
        shards: run_sharded(
            build_zoned_farm, zoned, duration=18.2, shards=shards
        ).dropped_in_flight
        for shards in (1, 2, "auto")
    }
    assert dropped[1] > 0
    assert dropped[1] == dropped[2] == dropped["auto"]
