"""Golden digests of the closed-form CLI artifacts on the bundled case study.

Every closed-form `sweep` and the distance and loss `sensitivity` CSVs, for
all nine objective x mode pairs, and `run --engine closed-form`'s
outcome.json are regenerated in process and compared byte for byte, through
their SHA-256 digests, with the ones recorded here; so are two `run`
outcomes and six sweeps on a capped, fixed-cost variant of the case, and
`exact_leader`'s outcomes on seeded random catalogs. A change that moves
any of them must say which rows moved and why, and update the digest.
"""

import contextlib
import hashlib
import io
import random
from decimal import Decimal

from conftest import random_catalog
from ecolever import Objective, ResourceBoundError, cli
from ecolever.engine import MODES, exact_leader

SWEEP = ["sweep", "--budgets=-60:100:5"]
DISTANCE = ["sensitivity", "--parameter", "distance", "--values", "7,15,65,140",
            "--budgets=-60:100:10"]
LOSS = ["sensitivity", "--parameter", "loss", "--values", "0.01,0.0313,0.1",
        "--budgets=-60:100:20"]

DIGESTS = {
    "sweep min-ghg combined":
        "c2d63e5050e8f2a61cf3ce3302c78e3f778bfe58873cad359cf02c030c271fd6",
    "sweep min-ghg tax-only":
        "983e1e59fb30647a3910eff1264343f06edf6f51b9ede8e903f6905c8c2776a8",
    "sweep min-ghg subsidy-only":
        "a7dab112c74c7459d77ca1816f78a19decbd011aff578ef8f7315bd63d04424a",
    "sweep max-circularity combined":
        "f4847001d46b1091971ee81010093190fe21f7f3742fdffc03bf5753cb250d64",
    "sweep max-circularity tax-only":
        "31897dcc8ea85bd89c5d8b2bdef5d8e8484ec965f1a38f9ed8419c80cbed6e3a",
    "sweep max-circularity subsidy-only":
        "4577669cb2931c6f6ad51972cac189506039bd7969a810ab56f5b524f222c424",
    "sweep most-profitable combined":
        "af9cdeebea32952c186fe84f53e9e56f4a37309d9e797f18ef888387fe397217",
    "sweep most-profitable tax-only":
        "af9cdeebea32952c186fe84f53e9e56f4a37309d9e797f18ef888387fe397217",
    "sweep most-profitable subsidy-only":
        "af9cdeebea32952c186fe84f53e9e56f4a37309d9e797f18ef888387fe397217",
    "distance min-ghg combined":
        "4a8c11c1b23c81ed2d1e2bb11352fc9780f9642d7362faa9c8c6a6cad1244a6b",
    "distance min-ghg tax-only":
        "0b5ea1570141e1005e2e2d0a4ca7b4ebb8936ce81f56c7f36560ae81b2969663",
    "distance min-ghg subsidy-only":
        "cc319f65ff1920f6ebe20e4f749b0a57c4d2a2ea69bd3232e7c4c33047ce8ee6",
    "distance max-circularity combined":
        "01ff3b916bb07c3b003cd60f99586b8c6ac0c9ccc85ad396b1d733753233e9ce",
    "distance max-circularity tax-only":
        "c2c1bb372ec432752e7570fef026d7c19686457c8b7b978b0524426cbd9e960e",
    "distance max-circularity subsidy-only":
        "27fb004c6259f8e49f0dd51a18205ad7dd55222cd90ac371632c4a9d02b02228",
    "distance most-profitable combined":
        "2182a9fb79af4749bead224997c11a2a17e6ac9dd628cc15ba1b09cf45d686cf",
    "distance most-profitable tax-only":
        "2182a9fb79af4749bead224997c11a2a17e6ac9dd628cc15ba1b09cf45d686cf",
    "distance most-profitable subsidy-only":
        "2182a9fb79af4749bead224997c11a2a17e6ac9dd628cc15ba1b09cf45d686cf",
    "loss min-ghg combined":
        "c543be4cb9b8542101e8ac5f586c1bae1bfd7086990bf3200fca4930db24b945",
    "loss min-ghg tax-only":
        "6b72b288a9b710c64566fb4b133bf5030315ed421d981c283bc91e1f5a11283a",
    "loss min-ghg subsidy-only":
        "08f48321a56f21c486aed2b7534a21b186bdd21f28dc8d90dbbfd0576ff32e0b",
    "loss max-circularity combined":
        "3034f012c337430808bea5e8b0dc5759cc6f1b101ef44f9b36cbfebd0c2f327d",
    "loss max-circularity tax-only":
        "70f10d79db24a7e02f206c97169af21729307a97f8409555842b1c3c28265131",
    "loss max-circularity subsidy-only":
        "707e9f9066a8d0b4a6e8ab1927bcc733fc24ce2d4e3347eb09df29d01fed6eff",
    "loss most-profitable combined":
        "f515b340bdbf9b93b28ffbe8a145e6d31779f810cd4bb209199f321c765c073f",
    "loss most-profitable tax-only":
        "f515b340bdbf9b93b28ffbe8a145e6d31779f810cd4bb209199f321c765c073f",
    "loss most-profitable subsidy-only":
        "f515b340bdbf9b93b28ffbe8a145e6d31779f810cd4bb209199f321c765c073f",
    # the closed-form certificate answers it with one evaluation (7 before)
    "run closed-form":
        "a8c31e5e8207ab287600a9344b7665a7271d4c7c8db06e1ca8b122faa8149a4e",
}


def _digest(argv, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main([*argv, "--out", str(path.parent)]) == cli.EXIT_OK
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_closed_form_artifacts_are_byte_identical(tmp_path):
    got = {}
    for kind, argv, name in (("sweep", SWEEP, "sweep.csv"),
                             ("distance", DISTANCE, "sensitivity.csv"),
                             ("loss", LOSS, "sensitivity.csv")):
        for objective in ("min-ghg", "max-circularity", "most-profitable"):
            for mode in ("combined", "tax-only", "subsidy-only"):
                key = f"{kind} {objective} {mode}"
                got[key] = _digest([*argv, "--objective", objective, "--mode", mode],
                                   tmp_path / key.replace(" ", "_") / name)
    got["run closed-form"] = _digest(["run", "--engine", "closed-form"],
                                     tmp_path / "run" / "outcome.json")
    assert {k: v for k, v in got.items() if DIGESTS[k] != v} == {}


# `run --engine pso` on the case with capacity 400 on every route and fixed
# costs strap 0.5, landfill 0.2 and wash 0.3. Both points reach the value
# bound through the least policy of its allocation, so the swarm never runs.
CAPPED_RUN = ["run", "--engine", "pso", "--iterations", "8", "--restarts", "1",
              "--seed", "5"]
CAPPED_DIGESTS = {
    "min-ghg 0": "a790aa176de264579ae2224ac95317f9af0392e2f248f52aa5d9304bd94f7dd0",
    "max-circularity 20": "51a2e6c4321bcb35fa39488b10e4c86f394d60d438b20d66bbf7a48f98749278",
}


def _capped_scenario(tmp_path):
    """The case with capacity 400 on every route and fixed costs strap 0.5,
    landfill 0.2 and wash 0.3, saved for `--scenario`."""
    from ecolever import Scenario, calibrate_case_study
    from ecolever.scenario_io import save_scenario

    case = calibrate_case_study()
    capped = Scenario(demand=case.demand, routes=case.routes, modifiers=case.modifiers,
                      technology_fixed_costs={"strap_recycling_line": Decimal("0.5"),
                                              "landfill_site": Decimal("0.2"),
                                              "wash_reuse_loop": Decimal("0.3")},
                      capacity_limits={rid: 400 for rid in case.route_ids()})
    scenario = tmp_path / "capped.scenario"
    save_scenario(capped, scenario)
    return scenario


def test_capped_swarm_outcomes_are_byte_identical(tmp_path):
    scenario = _capped_scenario(tmp_path)
    got = {}
    for key in CAPPED_DIGESTS:
        objective, budget = key.split()
        got[key] = _digest([*CAPPED_RUN, "--scenario", str(scenario),
                            "--objective", objective, f"--budget={budget}"],
                           tmp_path / key.replace(" ", "_") / "outcome.json")
    assert got == CAPPED_DIGESTS


# `sweep` on the same capped case. Combined and min-GHG tax-only are
# certified at every budget; subsidy-only (short of funds below budget 0)
# and max-circularity tax-only walk the follower's vertex responses.
CAPPED_SWEEP = ["sweep", "--budgets=-170:170:10"]
CAPPED_SWEEP_DIGESTS = {
    "min-ghg combined": "020b7d2f0bba3c253d0f7a82538c2160b08823c2bedb58418514a95b366634a6",
    "min-ghg tax-only": "768e091a04c3966a7dd3d5b0992ace5502a475ee1283ebc9420f2d5808ecf444",
    "min-ghg subsidy-only": "02bada2bf760038c02a149af96d7e6a90ff842b885a654e1e08095f723cec290",
    "max-circularity combined":
        "b23239bb12fa1a70de9a3c9eedd5bdb40af918e5622cefecb1059cb574d1fe70",
    "max-circularity tax-only":
        "981f6a475c7dd7536da0cc01fb2645b8bddce8330fcd9cf1af99fe9ed7e5047f",
    "max-circularity subsidy-only":
        "a7c90bdca6f6dd56fdca79af4aa2d6448d8ee2689926161a0c95924737466728",
}


def test_capped_sweeps_are_byte_identical(tmp_path):
    scenario = _capped_scenario(tmp_path)
    got = {}
    for key in CAPPED_SWEEP_DIGESTS:
        objective, mode = key.split()
        got[key] = _digest([*CAPPED_SWEEP, "--scenario", str(scenario),
                            "--objective", objective, "--mode", mode],
                           tmp_path / key.replace(" ", "_") / "sweep.csv")
    assert got == CAPPED_SWEEP_DIGESTS


# `engine.exact_leader` on 300 seeded random catalogs of each class
# (`conftest.random_catalog`, in test_metamorphic's ranges), at two points
# each with a random objective, mode and budget of -60 to 60 per mille of
# demand: every field of each outcome, so a change to the leader, the
# follower or the LP that moves any answer shows here.
LEADER_DIGESTS = {
    "pure-linear": "d091277a277c1275f19595d089e70b35fa07d1444f68dc745b3d76fe32ef6773",
    "capped": "1f38c1e3e2b0fed3b1300a25456c8b16b767ea75334f0a86c83da8cc14c61753",
}


def _leader_line(scenario, objective, budget, mode):
    try:
        out = exact_leader(scenario, objective, budget, mode)
    except ResourceBoundError:
        return f"{objective.value} {mode} {budget} refused\n"
    r = out.response
    return (f"{objective.value} {mode} {budget} {out.policy.tax_rate} "
            f"{sorted(out.policy.subsidy_rates.items())} {out.upper_value} "
            f"{sorted(r.allocation.units.items())} {r.industry_cost} {r.total_emissions} "
            f"{r.circularity_index} {r.subsidy_outlay} {r.tax_payment} {out.feasible} "
            f"{out.evaluations}\n")


def test_the_leader_on_random_catalogs_is_pinned():
    got = {}
    for seed, key in enumerate(LEADER_DIGESTS):
        rng, lines = random.Random(35 + seed), []
        for _ in range(300):
            scenario = random_catalog(rng, key == "capped")
            for _ in range(2):
                objective = rng.choice([Objective.MIN_GHG, Objective.MAX_CIRCULARITY])
                mode = rng.choice(MODES)
                budget = Decimal(rng.randint(-60, 60)) * scenario.demand / 1000
                lines.append(_leader_line(scenario, objective, budget, mode))
        got[key] = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert got == LEADER_DIGESTS
