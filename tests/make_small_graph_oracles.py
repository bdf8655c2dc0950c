"""Record the brute-force tau and tau' of every graph on 7 vertices.

Run from the repository root:

    PYTHONPATH=src:tests python tests/make_small_graph_oracles.py

It writes tests/data/graphs7_oracles.json: one [canonical code, tau, tau']
row per isomorphism class, from ``oracles.tau_brute`` (tau' is null when no
star-free partition exists).  It takes a few minutes, which is why tier-1
reads the file instead; test_small_graphs.py pins the file's sha256.
"""

from __future__ import annotations

import json
from pathlib import Path

from oracles import tau_brute
from small_graphs import graph_classes, graph_of

N = 7
COMMAND = "PYTHONPATH=src:tests python tests/make_small_graph_oracles.py"
OUT = Path(__file__).parent / "data" / f"graphs{N}_oracles.json"


def main() -> None:
    rows = []
    for code in graph_classes(N):
        g = graph_of(N, code)
        rows.append([code, tau_brute(g), tau_brute(g, min_side=2)])
    lines = ",\n".join(json.dumps(row) for row in rows)
    header = {"command": COMMAND, "n": N, "columns": ["code", "tau", "tau_strong"]}
    head = json.dumps(header)[:-1]
    OUT.write_text(f'{head}, "graphs": [\n{lines}\n]}}\n')


if __name__ == "__main__":
    main()
