"""Command-line interface.

Exit codes: 0 when everything asserted held, 1 when an experiment found a
violation, 2 on usage errors (including unreadable or malformed inputs).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .coverage import (
    PeelingError,
    family_from_json,
    exclusive_split,
    blocked_edge_count,
    max_coverage_exact,
    max_coverage_greedy,
    peel_witness,
    shielded_edge_count,
)
from .graphs import GnpSpec, Graph, _is_int_list, read_edge_list, sample_gnp, write_edge_list
from .harness import ExperimentConfig, emit_report, run_experiment
from .partition import (
    partition_number_exact,
    solve_result_to_json,
    strong_partition_number_exact,
)
from .spectral import graham_pollak_lower_bound, inertia


def _load_graph(path: str) -> Graph:
    try:
        return read_edge_list(path)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load graph from {path}: {exc}")


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot load JSON from {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError(f"{path} does not hold a JSON object")
    return data


def _too_large(n: int) -> str:
    """The message for a MemoryError from sampling: the packed matrix needs n * ceil(n/8) bytes."""
    return f"n = {n} is too large: its graph needs {n * ((n + 7) // 8)} bytes of memory"


@click.group()
@click.version_option(version=__version__)
def main() -> None:
    """Biclique edge partition toolkit."""


@main.command()
@click.option("--n", type=int, required=True, help="Vertex count.")
@click.option("--p", type=float, required=True, help="Edge probability in (0, 1].")
@click.option("--seed", type=int, default=0, show_default=True, help="64-bit seed.")
@click.option("--out", type=click.Path(dir_okay=False), required=True)
def gen(n: int, p: float, seed: int, out: str) -> None:
    """Sample G(n, p) and write it as an edge-list file."""
    try:
        g = sample_gnp(GnpSpec(n, p, seed))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except MemoryError:
        raise click.UsageError(_too_large(n))
    try:
        write_edge_list(g, out)
    except OSError as exc:
        raise click.UsageError(f"cannot write graph to {out}: {exc}")
    click.echo(f"wrote {g.n} vertices, {g.m} edges to {out}")


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--tol", type=float, default=None, help="Zero-classification tolerance.")
def bounds(graph_path: str, tol: float | None) -> None:
    """Print the inertia signature and the spectral lower bound as JSON."""
    g = _load_graph(graph_path)
    try:
        sig = inertia(g, tol)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    # The bound is sound at the default tolerance only, which is the signature's without --tol.
    gp = max(sig.n_plus, sig.n_minus) if tol is None else graham_pollak_lower_bound(g)
    payload = {
        "n": g.n,
        "m": g.m,
        "n_plus": sig.n_plus,
        "n_zero": sig.n_zero,
        "n_minus": sig.n_minus,
        "tol": sig.tol,
        "ambiguous": sig.ambiguous,
        "graham_pollak_lower_bound": gp,
    }
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--mode", type=click.Choice(["tau", "tauprime"]), default="tau", show_default=True)
@click.option("--budget", type=click.IntRange(min=0), default=5_000_000, show_default=True,
              help="Node budget for the search: every node popped counts, pruned ones included.")
def exact(graph_path: str, mode: str, budget: int) -> None:
    """Solve the bipartition number (or its star-free variant) exactly."""
    g = _load_graph(graph_path)
    solver = partition_number_exact if mode == "tau" else strong_partition_number_exact
    try:
        result = solver(g, budget)
    except ValueError as exc:  # the star-free search refuses graphs with too many 4-cycles
        raise click.UsageError(str(exc))
    payload = {"mode": mode, "n": g.n, "m": g.m}
    payload.update(solve_result_to_json(result))
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--graph", "graph_path", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--family", "family_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help='JSON file {"universe": [...], "sets": [[...], ...]}.')
@click.option("--op", type=click.Choice(["f", "g", "h", "witness"]), required=True)
@click.option("--mode", type=click.Choice(["exact", "greedy"]), default="exact", show_default=True,
              help="Coverage maximization mode (op f).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--base", type=float, default=2.0, show_default=True,
              help="Logarithm base 1/p (op witness).")
@click.option("--w", "w_csv", type=str, default=None,
              help="Comma-separated witness pool (op witness); defaults to the universe.")
@click.option("--witness-file", type=click.Path(exists=True, dir_okay=False), default=None,
              help='JSON {"order": [...], "guards": {"v": [...]}} as emitted by op witness (op h).')
def coverage(graph_path: str, family_path: str, op: str, mode: str, seed: int,
             base: float, w_csv: str | None, witness_file: str | None) -> None:
    """Coverage values and certificates for a family of left sides."""
    g = _load_graph(graph_path)
    try:
        fam = family_from_json(_load_json(family_path))
        universe = list(fam.universe)
        if op == "f":
            if mode == "exact":
                value, trace = max_coverage_exact(g, universe, fam)
            else:
                value, trace = max_coverage_greedy(g, universe, fam, seed)
            payload = {
                "op": "f",
                "mode": mode,
                "value": value,
                "trace": {
                    "order": list(trace.order),
                    "choices": [list(c) for c in trace.choices],
                    "covered": [[list(e) for e in step] for step in trace.covered],
                    "total": trace.total,
                },
            }
        elif op == "g":
            s, t = exclusive_split(fam)
            value = blocked_edge_count(g, fam, s)
            payload = {"op": "g", "value": value, "s": s.as_tuple(), "t": t.as_tuple()}
        elif op == "witness":
            pool = universe if w_csv is None else [int(x) for x in w_csv.split(",") if x.strip()]
            try:
                pair = peel_witness(fam, pool, base)
            except PeelingError as exc:
                payload = {"op": "witness", "failed": True, "steps": exc.steps, "reason": str(exc)}
                click.echo(json.dumps(payload, indent=2))
                sys.exit(1)
            payload = {
                "op": "witness",
                "order": list(pair.order),
                "guards": {str(v): list(gs) for v, gs in pair.guards.items()},
            }
        else:  # op == "h"
            if witness_file is None:
                raise click.UsageError("op h needs --witness-file")
            data = _load_json(witness_file)
            order, guards = data["order"], data.get("guards", {})
            if not (_is_int_list(order) and isinstance(guards, dict)
                    and all(map(_is_int_list, guards.values()))):
                raise ValueError('witness JSON needs "order": [int, ...] and "guards": {"v": [int, ...]}')
            guards = {int(v): gs for v, gs in guards.items()}
            value = shielded_edge_count(g, universe, order, guards)
            payload = {"op": "h", "value": value, "w": order}
    except KeyError as exc:
        raise click.UsageError(f"input JSON lacks the field {exc}")
    except ValueError as exc:
        raise click.UsageError(str(exc))
    click.echo(json.dumps(payload, indent=2))


@main.command()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), required=True,
              help="JSON config mirroring the ExperimentConfig fields.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), required=True)
def experiment(config_path: str, out_dir: str) -> None:
    """Run a seeded experiment and write JSON and CSV reports."""
    try:  # a config its runner refuses is a bad config too
        cfg = ExperimentConfig.from_dict(_load_json(config_path))
        report = run_experiment(cfg)
    except (TypeError, ValueError) as exc:
        raise click.UsageError(f"bad config: {exc}")
    except MemoryError:
        raise click.UsageError(f"bad config: {_too_large(cfg.n)}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        emit_report(report, "json", out / f"{report.kind}.json")
        emit_report(report, "csv", out / f"{report.kind}.csv")
    except OSError as exc:
        raise click.UsageError(f"cannot write reports to {out}: {exc}")
    click.echo(
        f"{report.kind}: {len(report.records)} trials, {report.violations} violations "
        f"-> {out / (report.kind + '.json')}"
    )
    if report.violations:
        sys.exit(1)


if __name__ == "__main__":
    main()
