import os
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import settings

from ecolever import RouteSpec, Scenario, calibrate_case_study, engine

settings.register_profile("suite", max_examples=50, deadline=None)
# `--hypothesis-profile=deep` runs every random battery at least 500 times
settings.register_profile("deep", max_examples=500, deadline=None)
settings.load_profile("suite")

SRC = Path(__file__).resolve().parent.parent / "src"


def src_env():
    """The environment for a child interpreter: this checkout's `src` first on
    PYTHONPATH, so the child imports these sources whether or not the package
    is installed."""
    inherited = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), inherited]))}


def random_catalog(rng, capped):
    """A catalog drawn from `rng` in test_metamorphic's `_catalogs` ranges:
    2-4 routes and demand 3-40; a capped catalog puts capacities on some
    routes after the first and fees on some technologies."""
    routes = tuple(
        RouteSpec(route_id=f"r{i}", product_id="p", technology_id=f"t{i % 3}",
                  unit_cost=Decimal(rng.randint(1, 100)) / 1000,
                  unit_emissions=Decimal(max(rng.randint(-30, 100), 0)) / 1000,
                  unit_circularity=Decimal(rng.randint(1, 200)) / 100,
                  subsidizable=rng.randint(0, 9) < 7)
        for i in range(rng.randint(2, 4)))
    demand = rng.randint(3, 40)
    if not capped:
        return Scenario(demand=demand, routes=routes)
    caps = {r.route_id: rng.randint(0, demand) for r in routes[1:] if rng.random() < 0.5}
    fees = {f"t{k}": Decimal(rng.randint(0, 50)) / 100
            for k in range(min(3, len(routes))) if rng.random() < 0.5}
    return Scenario(demand=demand, routes=routes, technology_fixed_costs=fees,
                    capacity_limits=caps if caps or fees else {"r0": demand})


@pytest.fixture(scope="session")
def case():
    """The calibrated coffee-packaging scenario."""
    return calibrate_case_study()


@pytest.fixture(scope="session")
def small_case(case):
    """Same catalog at enumeration-friendly demand."""
    return Scenario(demand=12, routes=case.routes, modifiers=case.modifiers)


@pytest.fixture(scope="session")
def capped_case(case):
    """Small demand plus capacities and technology fixed costs, to force the
    integer solver off the pure-linear fast path."""
    return Scenario(
        demand=12,
        routes=case.routes,
        modifiers=case.modifiers,
        technology_fixed_costs={
            "strap_recycling_line": Decimal("0.5"),
            "landfill_site": Decimal("0.2"),
            "wash_reuse_loop": Decimal("0.3"),
        },
        capacity_limits={rid: 6 for rid in case.route_ids()},
    )


@pytest.fixture(scope="session")
def pso_capped(case):
    """The case with capacity 400 on every route and fees on three technologies."""
    return Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                    technology_fixed_costs={"strap_recycling_line": Decimal("0.5"),
                                            "landfill_site": Decimal("0.2"),
                                            "wash_reuse_loop": Decimal("0.3")},
                    capacity_limits={rid: 400 for rid in case.route_ids()})


@pytest.fixture
def no_search(monkeypatch):
    """The leader may take the first of the follower's vertex responses, the
    one the certificate prices, but may not search past it."""
    walk = engine._vertex_responses

    def first_only(*args, **kwargs):
        for count, units in enumerate(walk(*args, **kwargs)):
            if count:
                raise AssertionError("the search ran")
            yield units

    monkeypatch.setattr(engine, "_vertex_responses", first_only)
