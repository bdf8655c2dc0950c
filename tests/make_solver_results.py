"""Record, or compare against the record, every partition solve of three fixed G(n, p) sets
and every exact coverage solve of three fixed family sets.

Run from the repository root:

    PYTHONPATH=src:tests python tests/make_solver_results.py [--write]

The grid is tau and tau' on G(n, p) for n = 3-16, p = .2/.4/.6/.8 and
seeds 1-3, at node budgets 0, 1, 50 and 2,000: 1,344 solves.  The sized
set follows the exact-small bench sizes: tau for n = 10-14 and tau' for
n = 9-12, at p = .3/.5/.7 and seeds 1-2, at budget 5,000: 54 solves, the
deep tau' searches among them that hold an incumbent.  The exact-small
set is the bench workload's own 216 solver instances, drawn as
bench/workloads.py draws them: tau and tau' over the cells of its "full"
sizes, one Random per pool seed, at its budget of 5,000.  Each set takes a
few seconds, and the script prints the seconds each took in this run; the
times stay out of the file, so that it is byte-stable.  Per solve the file keeps the sha256 of ``solve_result_to_json``
without ``nodes`` (value, status, lower bound and witness), the status in
the clear, and the node count apart.  So a change that only moves node
counts shows as node changes and not as result changes.

The coverage sets run ``max_coverage_exact``.  The exact-small set is the
workload's 40 coverage instances, drawn from the same Random after its
solver graphs.  The coverage grid is k = 1-5 sets over u = 5-10 vertices
at p = .3/.5/.8 and seeds 1-2: 180 families of 1- to 3-sets, where each
set after the first repeats an earlier one with probability 1/4.  The
dense set is 6 and 8 sets of 2 or 3 vertices over G(12, .8) at seeds 1-6:
12 families near the size limit whose searches run deep, the 8-set family
of seed 1 taking about three seconds alone.  Per solve the file keeps the
sha256 of (value, order, choices, covered) and, apart from it, the number
of children the search strips.

Without ``--write`` the script prints how the current code differs from
tests/data/solver_results.json: result changes, status flips among them,
node increases and decreases, and the node total of each solver and the
children total of each coverage set, recorded -> current.  ``--write``
re-records the file; do it only when results change on purpose, and name
each changed solve.  test_partition.py and test_coverage.py fail on any
difference from the file.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

from bipart import coverage
from bipart.coverage import CoverageFamily
from bipart.graphs import GnpSpec, sample_gnp
from bipart.partition import partition_number_exact, solve_result_to_json, strong_partition_number_exact

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import SIZES, pool_seeds  # noqa: E402

COMMAND = "PYTHONPATH=src:tests python tests/make_solver_results.py --write"
OUT = Path(__file__).parent / "data" / "solver_results.json"
COLUMNS = ["solver", "n", "p", "seed", "budget", "status", "sha256", "nodes"]
COVERAGE_COLUMNS = ["set", "k", "u", "p", "seed", "sha256", "children"]
SOLVERS = {"tau": partition_number_exact, "tau_strong": strong_partition_number_exact}
GRID = [(n, p, seed) for n in range(3, 17) for p in (0.2, 0.4, 0.6, 0.8) for seed in (1, 2, 3)]
BUDGETS = (0, 1, 50, 2000)
SIZED_BUDGET = 5000
SIZED = [
    (name, n, p, seed, SIZED_BUDGET)
    for name, sizes in (("tau", range(10, 15)), ("tau_strong", range(9, 13)))
    for n in sizes for p in (0.3, 0.5, 0.7) for seed in (1, 2)
]
COVERAGE_GRID = [(k, u, p, seed) for k in range(1, 6) for u in range(5, 11) for p in (0.3, 0.5, 0.8)
                 for seed in (1, 2)]


def exact_small_draws() -> tuple[list[tuple[str, int, float, int, int]], list[tuple]]:
    """The solver instances and the coverage families of the exact-small
    bench workload, in the order its ``build_exact`` draws them."""
    sizes = SIZES["full"]["exact-small"]
    solves, families = [], []
    for pool_seed in pool_seeds("exact-small", "full", 4):
        rng = random.Random(pool_seed)
        for name, ns in (("tau", sizes["tau_n"]), ("tau_strong", sizes["taup_n"])):
            for n in ns:
                for p in sizes["p"]:
                    for _ in range(sizes["per_cell"]):
                        solves.append((name, n, p, rng.getrandbits(64), sizes["budget"]))
        for k, u, p in sizes["coverage"]:
            for _ in range(sizes["per_cell"]):
                seed = rng.getrandbits(64)
                sets = [rng.sample(range(u), 2 if rng.random() < 0.7 else 3) for _ in range(k)]
                families.append(("exact-small", k, u, p, seed, seed, sets))
    return solves, families


def grid_family(k: int, u: int, p: float, seed: int) -> tuple:
    """One family of the coverage grid, on a graph drawn from the same
    Random: 1- to 3-sets, each after the first repeating an earlier one
    with probability 1/4."""
    rng = random.Random(f"bipart-coverage:{k}:{u}:{p}:{seed}")
    graph_seed = rng.getrandbits(64)
    sets: list[list[int]] = []
    for _ in range(k):
        if sets and rng.random() < 0.25:
            sets.append(rng.choice(sets))
        else:
            sets.append(rng.sample(range(u), rng.choice((1, 2, 2, 3))))
    return ("grid", k, u, p, seed, graph_seed, sets)


def dense_family(k: int, seed: int) -> tuple:
    """One family of the dense coverage set: k 2- and 3-sets over
    G(12, .8) with graph seed ``seed``, drawn from their own Random."""
    rng = random.Random(f"cov8:{seed}")
    return ("dense", k, 12, 0.8, seed, seed, [rng.sample(range(12), rng.choice((2, 3))) for _ in range(k)])


def solve_groups() -> dict[str, list[tuple[str, int, float, int, int]]]:
    """(solver, n, p, seed, budget) of every solve, per set, in the order recorded."""
    grid = [(name, n, p, seed, budget) for n, p, seed in GRID for name in SOLVERS for budget in BUDGETS]
    return {"grid": grid, "sized": SIZED, "exact-small": exact_small_draws()[0]}


def coverage_groups() -> dict[str, list[tuple]]:
    """(set, k, u, p, seed, graph seed, sets) of every coverage solve, per set."""
    return {"exact-small": exact_small_draws()[1], "grid": [grid_family(*cell) for cell in COVERAGE_GRID],
            "dense": [dense_family(k, seed) for k in (6, 8) for seed in range(1, 7)]}


def coverage_solve(g, universe, fam: CoverageFamily):
    """``max_coverage_exact`` with the children its search strips: (value,
    trace, children).  The children are counted as the calls to
    ``coverage._strip`` less the one the closing replay makes per step."""
    strip, calls = coverage._strip, 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return strip(*args)

    coverage._strip = counted
    try:
        value, trace = coverage.max_coverage_exact(g, universe, fam)
    finally:
        coverage._strip = strip
    return value, trace, calls - len(fam.sets)


def _timed(groups: dict, run, seconds: dict[str, float] | None) -> list[list]:
    rows = []
    for group, items in groups.items():
        start = time.perf_counter()
        rows.extend(run(*item) for item in items)
        if seconds is not None:
            seconds[group] = time.perf_counter() - start
    return rows


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def solve_row(name: str, n: int, p: float, seed: int, budget: int) -> list:
    result = solve_result_to_json(SOLVERS[name](sample_gnp(GnpSpec(n, p, seed)), budget=budget))
    nodes = result.pop("nodes")
    return [name, n, p, seed, budget, result["status"], _digest(result), nodes]


def coverage_row(group: str, k: int, u: int, p: float, seed: int, graph_seed: int, sets) -> list:
    fam = CoverageFamily.of(range(u), sets)
    value, trace, children = coverage_solve(sample_gnp(GnpSpec(u, p, graph_seed)), range(u), fam)
    return [group, k, u, p, seed, _digest([value, trace.order, trace.choices, trace.covered]), children]


def solve_rows(seconds: dict[str, float] | None = None) -> list[list]:
    """One row per solve, in the order of ``COLUMNS``; ``seconds``, when
    given, gets the in-process time of each set."""
    return _timed(solve_groups(), solve_row, seconds)


def coverage_rows(seconds: dict[str, float] | None = None) -> list[list]:
    """One row per coverage solve, in the order of ``COVERAGE_COLUMNS``."""
    return _timed(coverage_groups(), coverage_row, seconds)


def recorded_rows(key: str = "solves") -> list[list]:
    """The recorded rows of the partition solves, or with ``key="coverage"``
    of the coverage solves."""
    return json.loads(OUT.read_text()).get(key, [])


def differences(old: list[list], new: list[list]) -> dict[str, list[str]]:
    """Solves whose result changed (status flips named apart) and whose node
    count rose or fell, each as "<key columns>: old -> new".  Rows of either
    kind start with five key columns (solver n p seed budget, or set k u p
    seed) and end with the result's sha256 and the count of nodes or
    children; a partition row's status sits between them."""
    if [row[:5] for row in old] != [row[:5] for row in new]:
        raise ValueError("the recorded solves are not the solves this script makes")
    found: dict[str, list[str]] = {"result": [], "status": [], "nodes up": [], "nodes down": []}
    for before, after in zip(old, new):
        key = " ".join(map(str, before[:5]))
        if before[-2] != after[-2]:
            found["result"].append(f"{key}: {before[-2][:12]} -> {after[-2][:12]}")
        if before[5:-2] != after[5:-2]:
            found["status"].append(f"{key}: {before[5]} -> {after[5]}")
        if after[-1] != before[-1]:
            found["nodes up" if after[-1] > before[-1] else "nodes down"].append(
                f"{key}: {before[-1]} -> {after[-1]}")
    return found


def node_totals(old: list[list], new: list[list], coverage_old: list[list], coverage_new: list[list]) -> list[str]:
    """Per solver, the node totals of each set, recorded -> current, and
    the children stripped in each coverage set."""
    lines = []
    start = 0
    for group, solves in solve_groups().items():
        end = start + len(solves)
        for name in SOLVERS:
            before, after = (sum(row[7] for row in rows[start:end] if row[0] == name) for rows in (old, new))
            lines.append(f"{name:<10} {group:<11} {before:>9,} -> {after:>9,}")
        start = end
    for group in coverage_groups():
        before, after = (sum(row[-1] for row in rows if row[0] == group) for rows in (coverage_old, coverage_new))
        lines.append(f"{'coverage':<10} {group:<11} {before:>9,} -> {after:>9,}")
    return lines


def main() -> None:
    seconds: dict[str, float] = {}
    new = solve_rows(seconds)
    coverage_seconds: dict[str, float] = {}
    coverage_new = coverage_rows(coverage_seconds)
    seconds.update({f"coverage {group}": s for group, s in coverage_seconds.items()})
    print("seconds per set, this run: " + ", ".join(f"{group} {s:.2f}" for group, s in seconds.items()))
    old, coverage_old = (recorded_rows(key) if OUT.exists() else [] for key in ("solves", "coverage"))
    comparable = True
    for title, before, after in (("partition", old, new), ("coverage", coverage_old, coverage_new)):
        try:
            found = differences(before, after)
        except ValueError as exc:
            print(f"{title}: {exc}; nothing to compare")
            comparable = False
            continue
        for kind, lines in found.items():
            print(f"{title} {kind}: {len(lines)}")
            for line in lines:
                print(f"  {line}")
    if comparable:
        print("node totals, recorded -> current:")
        for line in node_totals(old, new, coverage_old, coverage_new):
            print(f"  {line}")
    if "--write" in sys.argv[1:]:
        head = json.dumps({"command": COMMAND, "columns": COLUMNS})[:-1]
        lines, coverage_lines = (",\n".join(json.dumps(row) for row in rows) for rows in (new, coverage_new))
        OUT.write_text(f'{head}, "solves": [\n{lines}\n], "coverage_columns": {json.dumps(COVERAGE_COLUMNS)}, '
                       f'"coverage": [\n{coverage_lines}\n]}}\n')


if __name__ == "__main__":
    main()
