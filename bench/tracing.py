"""Span recording for the traced benchmark run.

The tracer rebinds the names each ``bipart`` module imported (for example
``bipart.harness.sample_gnp`` or ``bipart.partition.inertia_from_rows``) to
wrappers that record one span per call: name, start, end, parent span and
item id.  Spans stay in memory until the run writes them out.  Node and call
counts are recorded at the same boundaries.  Nothing under ``src/`` is
changed; :meth:`Tracer.restore` puts every original name back.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # (name, start, end, parent index, item id)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)  # (item id, counter) -> total
        self.item: str | None = None
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` and count the call."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.item)
            self.counts[(self.item, name + ".calls")] += 1

    def add(self, counter: str, amount: int) -> None:
        self.counts[(self.item, counter)] += amount

    def patch(self, owner: object, attr: str, name: str, after: Callable | None = None) -> None:
        """Rebind ``owner.attr`` to a span-recording wrapper.

        ``after(tracer, result)`` runs once the span has closed, to record
        counts read from the result.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            result = self.call(name, original, *args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Busy time and self time (busy time minus child spans) per span name."""
        busy: dict[str, float] = defaultdict(float)
        children: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            busy[name] += end - start
            if parent is not None:
                children[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            own[name] += end - start - children[index]
        return busy, own

    def totals(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for (_, counter), amount in self.counts.items():
            out[counter] += amount
        return out

    def write(self, path: Path) -> None:
        """Dump every span: indices into the name and item lists, start and
        end in whole microseconds, and the index of the parent span."""
        names: dict[str, int] = {}
        items: dict[str | None, int] = {}
        spans = [
            (names.setdefault(name, len(names)), round(start * 1e6), round(end * 1e6), parent,
             items.setdefault(item, len(items)))
            for name, start, end, parent, item in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "items": list(items),
                       "fields": ["name", "start_us", "end_us", "parent", "item"], "spans": spans}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the calls into each bipart module under a "<module>.<function>" span."""
    from bipart import cli, coverage, graphs, harness, partition

    def nodes(counter: str) -> Callable:
        return lambda tr, result: tr.add(counter, result.nodes)

    def rebuild(tr: Tracer, g) -> None:
        # Graph construction (its symmetry check) runs inside sample_gnp;
        # building each sampled graph once more measures it on its own.
        tr.call("graphs.Graph", graphs.Graph, g.n, g.adj)

    for owner in (graphs, harness):
        tracer.patch(owner, "sample_gnp", "graphs.sample_gnp", rebuild)
    tracer.patch(graphs, "independent_set_greedy", "graphs.independent_set_greedy")
    for fn in ("independent_set_search", "density_deviation", "max_balanced_biclique_side"):
        tracer.patch(harness, fn, f"graphs.{fn}")
    tracer.patch(harness, "graham_pollak_lower_bound", "spectral.graham_pollak_lower_bound")
    tracer.patch(partition, "independence_number_exact", "graphs.independence_number_exact",
                 nodes("graphs.independence_number_exact.nodes"))
    tracer.patch(partition, "inertia_from_rows", "spectral.inertia_from_rows")
    for owner in (partition, cli):
        for fn in ("partition_number_exact", "strong_partition_number_exact"):
            tracer.patch(owner, fn, f"partition.{fn}", nodes(f"partition.{fn}.nodes"))
    for fn in ("star_decomposition", "validate_partition", "normalize_stars_first"):
        tracer.patch(partition, fn, f"partition.{fn}")
    tracer.patch(coverage, "max_coverage_exact", "coverage.max_coverage_exact")
    for fn in ("run_bounds_experiment", "run_density_check", "run_biclique_side_check"):
        tracer.patch(harness, fn, f"harness.{fn}")
    tracer.patch(cli.exact, "callback", "cli.exact")
