"""The three benchmark workloads: inputs made from a seed, timed calls, output checks.

Each workload's batch is a fixed pool of instances, run in an order the seed
shuffles, and every instance has recorded values in ``reference.json`` to
check against.  The pool is fixed rather than drawn from the seed because
item costs vary far more between random instances than between runs: one
n=2000 bounds trial takes 3.7 s and another 13 s, and the count of budget-outs
among 58 small exact solves ranges from 6 to 14.  A few dozen seconds of
seed-drawn items could not hold the run-to-run spread under the bounds.

The benchmark calls only public functions of the ``bipart`` modules, always
through the module attribute (``harness.run_bounds_experiment(...)``), so
that the traced run can rebind those names to span-recording wrappers.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from click.testing import CliRunner

from bipart import cli, coverage, graphs, harness, partition


class Mismatch(Exception):
    """An output broke an invariant or differs from its recorded value."""


@dataclass(frozen=True)
class Item:
    """One unit of timed work and the checks on its output.

    ``run`` performs the program calls that are timed; ``check`` is not
    timed, raises :class:`Mismatch` on a broken invariant and returns the
    seeded values that are compared with ``reference.json``.  When
    ``elapsed`` is given, the item's time is read from the output instead of
    being measured around ``run``.
    """

    key: str
    run: Callable[[], object]
    check: Callable[[object], dict]
    elapsed: Callable[[object], float] | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[dict, int, Path], list[Item]]  # (sizes, pool seed, input dir) -> items
    pool: int  # pool entries in the batch


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def pool_seeds(workload: str, profile: str, size: int) -> list[int]:
    rng = random.Random(f"bipart-bench:{workload}:{profile}")
    return [rng.getrandbits(64) for _ in range(size)]


# -- bounds-large ---------------------------------------------------------


def build_bounds(sizes: dict, pool_seed: int, _inputs: Path) -> list[Item]:
    cfg = harness.ExperimentConfig(
        kind="bounds", n=sizes["n"], p=sizes["p"], trials=1, seed=pool_seed
    )

    def check(report) -> dict:
        expect(report.violations == 0, f"bounds report has {report.violations} violations")
        expect(len(report.records) == 1, "bounds report should hold exactly one trial")
        rec = report.records[0]
        expect(rec.gp_bound <= rec.tau_upper, "GP bound above n - alpha")
        return {"alpha": rec.alpha, "gp_bound": rec.gp_bound}

    return [
        Item(
            key="trial",
            run=lambda: harness.run_bounds_experiment(cfg),
            check=check,
            elapsed=lambda report: report.records[0].elapsed,
        )
    ]


# -- scan-certify ---------------------------------------------------------


@dataclass(frozen=True)
class ScanOutput:
    density: harness.Report
    side: harness.Report
    graph: graphs.Graph
    independent: graphs.VertexSet
    stars: partition.BicliquePartition
    star_issues: list[str]
    normal: partition.BicliquePartition
    normal_issues: list[str]


def build_scan(sizes: dict, pool_seed: int, _inputs: Path) -> list[Item]:
    p = sizes["p"]
    density_cfg = harness.ExperimentConfig(
        kind="density", n=sizes["density_n"], p=p, trials=1, seed=pool_seed,
        density_subsets=sizes["density_subsets"],
    )
    side_cfg = harness.ExperimentConfig(
        kind="biclique_side", n=sizes["side_n"], p=p, trials=1, seed=pool_seed
    )
    spec = graphs.GnpSpec(sizes["star_n"], p, pool_seed)

    def run() -> ScanOutput:
        density = harness.run_density_check(density_cfg)
        side = harness.run_biclique_side_check(side_cfg)
        g = graphs.sample_gnp(spec)
        independent = graphs.independent_set_greedy(g, pool_seed)
        stars = partition.star_decomposition(g, independent)
        star_issues = partition.validate_partition(g, stars)
        normal = partition.normalize_stars_first(g, stars)
        normal_issues = partition.validate_partition(g, normal)
        return ScanOutput(density, side, g, independent, stars, star_issues, normal, normal_issues)

    def check(out: ScanOutput) -> dict:
        for report in (out.density, out.side):
            expect(report.violations == 0, f"{report.kind} report has {report.violations} violations")
            expect(len(report.records) == 1, f"{report.kind} report should hold one trial")
        expect(not out.star_issues, f"star decomposition invalid: {out.star_issues[:1]}")
        expect(not out.normal_issues, f"normalised partition invalid: {out.normal_issues[:1]}")
        expect(all(part.is_star for part in out.stars.parts), "star decomposition has a non-star part")
        expect(len(out.stars) <= out.graph.n - len(out.independent), "more stars than n - |S|")
        expect(len(out.normal) <= len(out.stars), "normalisation added parts")
        return {
            "density_max_c": out.density.records[0].density_max_c,
            "biclique_side": out.side.records[0].biclique_side_max,
        }

    return [Item(key="scan", run=run, check=check)]


# -- exact-small ----------------------------------------------------------


def check_solve(g: graphs.Graph, value, status: str, lower, witness, star_free: bool) -> dict:
    """Checks shared by direct and command-line solves; returns status and value.

    INFINITY is claimed as the value only with status exact.  A budget-out
    that found no partition also reports INFINITY, under lower-bound-only
    and with a finite proven bound, which SolveResult documents as "best
    incumbent found": none.
    """
    expect(status in (partition.EXACT, partition.LOWER_BOUND_ONLY), f"unknown status {status!r}")
    expect(lower <= value, f"lower bound {lower} above value {value}")
    if status == partition.EXACT:
        expect(lower == value, f"exact result with lower bound {lower} != value {value}")
    if value == partition.INFINITY:
        expect(star_free, "plain partition number reported as INFINITY")
        expect(witness is None, "INFINITY reported with a witness")
        expect(status == partition.EXACT or lower != partition.INFINITY,
               "INFINITY without status exact or a finite lower bound")
        return {"status": status, "value": "inf"}
    if witness is None:
        expect(value == 0, f"value {value} reported without a witness")
    else:
        issues = witness.violations()
        expect(not issues, f"witness invalid: {issues[:1]}")
        expect(len(witness.parts) == value, f"witness has {len(witness.parts)} parts, value {value}")
        if star_free:
            expect(not any(part.is_star for part in witness.parts), "star-free witness has a star")
    return {"status": status, "value": int(value)}


def solver_item(key: str, g: graphs.Graph, star_free: bool, budget: int) -> Item:
    def run():
        solve = partition.strong_partition_number_exact if star_free else partition.partition_number_exact
        return solve(g, budget)

    def check(res) -> dict:
        return check_solve(g, res.value, res.status, res.lower_bound, res.witness, star_free)

    return Item(key=key, run=run, check=check)


def cli_item(key: str, g: graphs.Graph, star_free: bool, budget: int, path: Path, runner: CliRunner) -> Item:
    args = ["exact", "--graph", str(path), "--mode", "tauprime" if star_free else "tau",
            "--budget", str(budget)]

    def check(result) -> dict:
        expect(result.exit_code == 0, f"bipart exact exited {result.exit_code}: {result.output[-200:]}")
        data = json.loads(result.output)
        expect((data["n"], data["m"]) == (g.n, g.m), "bipart exact read a different graph")
        value = math.inf if data["value"] == "infinity" else data["value"]
        lower = math.inf if data["lower_bound"] == "infinity" else data["lower_bound"]
        witness = None
        if data["witness"] is not None:
            witness = partition.partition_from_json(data["witness"], g)
        return check_solve(g, value, data["status"], lower, witness, star_free)

    return Item(key=key, run=lambda: runner.invoke(cli.main, args), check=check)


def coverage_item(key: str, g: graphs.Graph, fam: coverage.CoverageFamily) -> Item:
    universe = list(fam.universe)

    def check(out) -> dict:
        value, trace = out
        expect(trace.total == value, f"trace total {trace.total} != value {value}")
        expect(coverage.replay_trace(g, universe, fam, trace) == value, "trace does not replay to its value")
        return {"value": value}

    return Item(key=key, run=lambda: coverage.max_coverage_exact(g, universe, fam), check=check)


def build_exact(sizes: dict, pool_seed: int, inputs: Path) -> list[Item]:
    rng = random.Random(pool_seed)
    budget = sizes["budget"]
    runner = CliRunner()
    items: list[Item] = []
    for label, star_free, ns in (("tau", False, sizes["tau_n"]), ("taup", True, sizes["taup_n"])):
        for n in ns:
            for p in sizes["p"]:
                for r in range(sizes["per_cell"]):
                    g = graphs.sample_gnp(graphs.GnpSpec(n, p, rng.getrandbits(64)))
                    items.append(solver_item(f"{label}.n{n}.p{p}.r{r}", g, star_free, budget))
    for k, u, p in sizes["coverage"]:
        for r in range(sizes["per_cell"]):
            g = graphs.sample_gnp(graphs.GnpSpec(u, p, rng.getrandbits(64)))
            sets = [rng.sample(range(u), 2 if rng.random() < 0.7 else 3) for _ in range(k)]
            fam = coverage.CoverageFamily.of(range(u), sets)
            items.append(coverage_item(f"cov.k{k}.u{u}.p{p}.r{r}", g, fam))
    for i, (mode, n, p) in enumerate(sizes["cli"]):
        g = graphs.sample_gnp(graphs.GnpSpec(n, p, rng.getrandbits(64)))
        path = inputs / f"exact-{pool_seed:016x}-{i}.txt"
        graphs.write_edge_list(g, path)
        items.append(cli_item(f"cli.{mode}.n{n}.p{p}", g, mode == "taup", budget, path, runner))
    return items


# Pools are sized so that one batch takes 25-30 s on a 2-core x86-64 host
# with Python 3.11: 4 trials (3.7-13 s each), 4 x 68 small instances, 8 scans.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("bounds-large", build_bounds, pool=4),
        Workload("exact-small", build_exact, pool=4),
        Workload("scan-certify", build_scan, pool=8),
    )
}

# Sizes per profile.  "full" is the benchmark; "smoke" is the reduced run the
# smoke test makes; "warm" is what each set-up runs once, untimed, before
# measuring, so that lazy imports and first-call costs land in set-up.
#
# Coverage cells leave out the sizes whose memoised search blows up (5 sets
# over 12 vertices at p=0.8 takes over a minute); the node budget keeps some
# star-free solves running out of budget, which is part of the workload.
SIZES = {
    "full": {
        "bounds-large": {"n": 2000, "p": 0.5},
        "scan-certify": {"p": 0.5, "density_n": 2000, "density_subsets": 50, "side_n": 1000, "star_n": 1000},
        "exact-small": {
            "budget": 5000, "per_cell": 2, "p": (0.3, 0.5, 0.7),
            "tau_n": (10, 11, 12, 13, 14), "taup_n": (9, 10, 11, 12),
            "coverage": ((3, 12, 0.5), (4, 11, 0.5), (5, 10, 0.5), (3, 10, 0.8), (3, 11, 0.8)),
            "cli": (("tau", 10, 0.5), ("tau", 12, 0.5), ("taup", 10, 0.7), ("taup", 11, 0.5)),
        },
    },
    "smoke": {
        "bounds-large": {"n": 90, "p": 0.5},
        "scan-certify": {"p": 0.5, "density_n": 120, "density_subsets": 5, "side_n": 60, "star_n": 60},
        "exact-small": {
            "budget": 300, "per_cell": 1, "p": (0.5,), "tau_n": (7,), "taup_n": (7,),
            "coverage": ((3, 8, 0.5),), "cli": (("tau", 6, 0.5), ("taup", 6, 0.5)),
        },
    },
    "warm": {
        "bounds-large": {"n": 200, "p": 0.5},
        "scan-certify": {"p": 0.5, "density_n": 200, "density_subsets": 5, "side_n": 100, "star_n": 100},
        "exact-small": {
            "budget": 300, "per_cell": 1, "p": (0.5,), "tau_n": (8,), "taup_n": (8,),
            "coverage": ((3, 8, 0.5),), "cli": (("tau", 6, 0.5),),
        },
    },
}
SMOKE_POOL = 2
