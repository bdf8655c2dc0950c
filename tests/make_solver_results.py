"""Record, or compare against the record, every partition solve of a fixed G(n, p) grid.

Run from the repository root:

    PYTHONPATH=src:tests python tests/make_solver_results.py [--write]

The grid is tau and tau' on G(n, p) for n = 3-16, p = .2/.4/.6/.8 and
seeds 1-3, at node budgets 0, 1, 50 and 2,000: 1,344 solves, a few
seconds.  Per solve the file keeps the sha256 of ``solve_result_to_json``
without ``nodes`` (value, status, lower bound and witness), the status in
the clear, and the node count apart.  So a change that only moves node
counts shows as node changes and not as result changes.

Without ``--write`` the script prints how the current code differs from
tests/data/solver_results.json: result changes, status flips among them,
and node increases and decreases.  ``--write`` re-records the file; do it
only when results change on purpose, and name each changed solve.
test_partition.py fails on any difference from the file.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from bipart.graphs import GnpSpec, sample_gnp
from bipart.partition import partition_number_exact, solve_result_to_json, strong_partition_number_exact

COMMAND = "PYTHONPATH=src:tests python tests/make_solver_results.py --write"
OUT = Path(__file__).parent / "data" / "solver_results.json"
COLUMNS = ["solver", "n", "p", "seed", "budget", "status", "sha256", "nodes"]
SOLVERS = {"tau": partition_number_exact, "tau_strong": strong_partition_number_exact}
GRID = [(n, p, seed) for n in range(3, 17) for p in (0.2, 0.4, 0.6, 0.8) for seed in (1, 2, 3)]
BUDGETS = (0, 1, 50, 2000)


def solve_rows() -> list[list]:
    """One row per solve of the grid, in the order of ``COLUMNS``."""
    rows = []
    for n, p, seed in GRID:
        g = sample_gnp(GnpSpec(n, p, seed))
        for name, solve in SOLVERS.items():
            for budget in BUDGETS:
                result = solve_result_to_json(solve(g, budget=budget))
                nodes = result.pop("nodes")
                digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()
                rows.append([name, n, p, seed, budget, result["status"], digest, nodes])
    return rows


def recorded_rows() -> list[list]:
    return json.loads(OUT.read_text())["solves"]


def differences(old: list[list], new: list[list]) -> dict[str, list[str]]:
    """Solves whose result changed (status flips named apart) and whose node
    count rose or fell, each as "solver n p seed budget: old -> new"."""
    if [row[:5] for row in old] != [row[:5] for row in new]:
        raise ValueError("the recorded grid is not the grid this script solves")
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


def main() -> None:
    new = solve_rows()
    if OUT.exists():
        for kind, lines in differences(recorded_rows(), new).items():
            print(f"{kind}: {len(lines)}")
            for line in lines:
                print(f"  {line}")
    if "--write" in sys.argv[1:]:
        lines = ",\n".join(json.dumps(row) for row in new)
        head = json.dumps({"command": COMMAND, "columns": COLUMNS})[:-1]
        OUT.write_text(f'{head}, "solves": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
