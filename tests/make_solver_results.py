"""Record, or compare against the record, every partition solve of three fixed G(n, p) sets.

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

Without ``--write`` the script prints how the current code differs from
tests/data/solver_results.json: result changes, status flips among them,
node increases and decreases, and the node total of each solver, recorded
-> current.  ``--write`` re-records the file; do it only when results
change on purpose, and name each changed solve.  test_partition.py fails
on any difference from the file.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

from bipart.graphs import GnpSpec, sample_gnp
from bipart.partition import partition_number_exact, solve_result_to_json, strong_partition_number_exact

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import SIZES, pool_seeds  # noqa: E402

COMMAND = "PYTHONPATH=src:tests python tests/make_solver_results.py --write"
OUT = Path(__file__).parent / "data" / "solver_results.json"
COLUMNS = ["solver", "n", "p", "seed", "budget", "status", "sha256", "nodes"]
SOLVERS = {"tau": partition_number_exact, "tau_strong": strong_partition_number_exact}
GRID = [(n, p, seed) for n in range(3, 17) for p in (0.2, 0.4, 0.6, 0.8) for seed in (1, 2, 3)]
BUDGETS = (0, 1, 50, 2000)
SIZED_BUDGET = 5000
SIZED = [
    (name, n, p, seed, SIZED_BUDGET)
    for name, sizes in (("tau", range(10, 15)), ("tau_strong", range(9, 13)))
    for n in sizes for p in (0.3, 0.5, 0.7) for seed in (1, 2)
]


def exact_small() -> list[tuple[str, int, float, int, int]]:
    """The solver instances of the exact-small bench workload, in its draw order."""
    sizes = SIZES["full"]["exact-small"]
    found = []
    for pool_seed in pool_seeds("exact-small", "full", 4):
        rng = random.Random(pool_seed)
        for name, ns in (("tau", sizes["tau_n"]), ("tau_strong", sizes["taup_n"])):
            for n in ns:
                for p in sizes["p"]:
                    for _ in range(sizes["per_cell"]):
                        found.append((name, n, p, rng.getrandbits(64), sizes["budget"]))
    return found


def solve_groups() -> dict[str, list[tuple[str, int, float, int, int]]]:
    """(solver, n, p, seed, budget) of every solve, per set, in the order recorded."""
    grid = [(name, n, p, seed, budget) for n, p, seed in GRID for name in SOLVERS for budget in BUDGETS]
    return {"grid": grid, "sized": SIZED, "exact-small": exact_small()}


def solve_rows(seconds: dict[str, float] | None = None) -> list[list]:
    """One row per solve, in the order of ``COLUMNS``; ``seconds``, when
    given, gets the in-process time of each set."""
    rows = []
    for group, solves in solve_groups().items():
        start = time.perf_counter()
        for name, n, p, seed, budget in solves:
            result = solve_result_to_json(SOLVERS[name](sample_gnp(GnpSpec(n, p, seed)), budget=budget))
            nodes = result.pop("nodes")
            digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
            rows.append([name, n, p, seed, budget, result["status"], digest, nodes])
        if seconds is not None:
            seconds[group] = time.perf_counter() - start
    return rows


def recorded_rows() -> list[list]:
    return json.loads(OUT.read_text())["solves"]


def differences(old: list[list], new: list[list]) -> dict[str, list[str]]:
    """Solves whose result changed (status flips named apart) and whose node
    count rose or fell, each as "solver n p seed budget: old -> new"."""
    if [row[:5] for row in old] != [row[:5] for row in new]:
        raise ValueError("the recorded solves are not the solves this script makes")
    found: dict[str, list[str]] = {"result": [], "status": [], "nodes up": [], "nodes down": []}
    for before, after in zip(old, new):
        key = " ".join(map(str, before[:5]))
        if before[6] != after[6]:
            found["result"].append(f"{key}: {before[6][:12]} -> {after[6][:12]}")
        if before[5] != after[5]:
            found["status"].append(f"{key}: {before[5]} -> {after[5]}")
        if after[7] != before[7]:
            found["nodes up" if after[7] > before[7] else "nodes down"].append(
                f"{key}: {before[7]} -> {after[7]}")
    return found


def node_totals(old: list[list], new: list[list]) -> list[str]:
    """Per solver, the node totals of each set, recorded -> current."""
    lines = []
    start = 0
    for group, solves in solve_groups().items():
        end = start + len(solves)
        for name in SOLVERS:
            before, after = (sum(row[7] for row in rows[start:end] if row[0] == name) for rows in (old, new))
            lines.append(f"{name:<10} {group:<11} {before:>9,} -> {after:>9,}")
        start = end
    return lines


def main() -> None:
    seconds: dict[str, float] = {}
    new = solve_rows(seconds)
    print("seconds per set, this run: " + ", ".join(f"{group} {s:.2f}" for group, s in seconds.items()))
    old = recorded_rows() if OUT.exists() else []
    try:
        found = differences(old, new)
    except ValueError as exc:
        print(f"{exc}; nothing to compare")
    else:
        for kind, lines in found.items():
            print(f"{kind}: {len(lines)}")
            for line in lines:
                print(f"  {line}")
        print("node totals, recorded -> current:")
        for line in node_totals(old, new):
            print(f"  {line}")
    if "--write" in sys.argv[1:]:
        lines = ",\n".join(json.dumps(row) for row in new)
        head = json.dumps({"command": COMMAND, "columns": COLUMNS})[:-1]
        OUT.write_text(f'{head}, "solves": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
