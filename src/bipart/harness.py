"""Seeded experiment runner with machine-readable, byte-reproducible reports.

All four experiments run their trials through one loop, ``_run_trials``:
trial t samples G(n, p) from the sub-seed ``derive_seed(seed, t)``, so runs
are order-independent and any rerun of the same config produces an
identical report.  Each record's ``elapsed`` spans the sampling and the
trial body; it stays in memory and is never serialized, to keep emitted
reports byte-identical across reruns.

A bounds run computes the Graham–Pollak bound on one worker thread per run,
beside the alpha step: ``Graph`` is immutable, the bound is pure, and numpy's
``eigvalsh`` releases the GIL.  Each trial joins the worker inside its body,
so ``elapsed`` still spans sampling and the whole body.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import time
from dataclasses import asdict, dataclass, field
from itertools import permutations

from . import __version__
from .coverage import (
    CoverageFamily,
    _local_setup,
    _maximal_play,
    max_coverage_exact,
    uncovered_lower_bound,
)
from .graphs import (
    GnpSpec,
    Graph,
    VertexSet,
    _mask_at,
    _sample_range,
    density_deviation,
    independence_number_exact,
    independent_set_search,
    max_balanced_biclique_side,
    sample_gnp,
)
from .partition import EXACT, largest_induced_biclique, partition_number_exact
from .spectral import graham_pollak_lower_bound

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "Report",
    "derive_seed",
    "run_bounds_experiment",
    "run_density_check",
    "run_biclique_side_check",
    "run_coverage_soundness",
    "run_experiment",
    "emit_report",
]

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, index: int) -> int:
    """Stable 64-bit sub-seed for trial ``index``: splitmix64 of master + index."""
    x = (master + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


_COUNT_FIELDS = ("search_rounds", "density_subsets", "biclique_budget", "tau_node_budget",
                 "alpha_node_budget", "coverage_max_sets")


@dataclass
class ExperimentConfig:
    """Knobs for one experiment run; field names mirror the config-file JSON.

    The exact-solver cutoffs (tau at n <= 10, alpha at n <= 60) are desk-scale
    defaults, overridable.  ``density_ceiling`` and the alpha band used by the
    acceptance suite are calibrated empirical constants, not theory.
    """

    kind: str = "bounds"
    n: int = 0
    p: float = 0.5
    trials: int = 0
    seed: int = 0
    epsilon: float = 1.0
    c: float = 1.0
    alpha_exact_max_n: int = 60
    tau_exact_max_n: int = 10
    beta_exact_max_n: int = 12
    tau_node_budget: int = 5_000_000
    alpha_node_budget: int = 2_000_000
    search_rounds: int = 5
    density_subsets: int = 50
    density_ceiling: float = 3.0
    biclique_budget: int = 600
    coverage_max_sets: int = 4

    def __post_init__(self) -> None:
        if self.n < 0 or self.trials < 0:
            raise ValueError("n and trials must be nonnegative")
        if not (0.0 < self.p <= 1.0):
            raise ValueError("p must satisfy 0 < p <= 1")
        if self.kind not in _RUNNERS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        # A zero or negative count or budget silently weakens or vacates the checks that read it.
        too_small = [name for name in _COUNT_FIELDS if getattr(self, name) < 1]
        if too_small:
            raise ValueError(f"{', '.join(too_small)} must be >= 1")

    @property
    def in_regime(self) -> bool:
        """True when p sits in the p <= 1/2 regime the desk checks target."""
        return self.p <= 0.5

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown config fields: {sorted(extra)}")
        return cls(**data)


@dataclass
class TrialRecord:
    """One trial's measurements.  ``elapsed`` stays in memory only."""

    index: int
    sub_seed: int
    alpha: int | None = None
    alpha_exact: bool | None = None
    gp_bound: int | None = None
    tau_upper: int | None = None
    tau_exact: int | None = None
    tau_status: str | None = None
    alon_upper: int | None = None
    density_max_c: float | None = None
    biclique_side_max: int | None = None
    violations: list[str] = field(default_factory=list)
    detail: dict | None = None
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        data = asdict(self)
        del data["elapsed"]  # nondeterministic; reports must be byte-stable
        return data


@dataclass
class Report:
    kind: str
    config: dict
    records: list[TrialRecord]
    aggregates: dict
    violations: int
    version: str = __version__

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "version": self.version,
            "config": self.config,
            "violations": self.violations,
            "aggregates": self.aggregates,
            "records": [r.to_dict() for r in self.records],
        }


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def _run_trials(cfg: ExperimentConfig, trial) -> list[TrialRecord]:
    """The one trial loop: trial t samples G(n, p) from ``derive_seed(cfg.seed, t)``
    and ``trial(g, rec)`` fills its record.  ``elapsed`` spans sampling and body."""
    records: list[TrialRecord] = []
    for t in range(cfg.trials):
        sub = derive_seed(cfg.seed, t)
        t0 = time.perf_counter()
        rec = TrialRecord(index=t, sub_seed=sub)
        trial(sample_gnp(GnpSpec(cfg.n, cfg.p, sub)), rec)
        rec.elapsed = time.perf_counter() - t0
        records.append(rec)
    return records


def _report(kind: str, cfg: ExperimentConfig, records: list[TrialRecord],
            aggregates: dict) -> Report:
    return Report(kind, cfg.to_dict(), records, aggregates, sum(len(r.violations) for r in records))


def run_bounds_experiment(cfg: ExperimentConfig) -> Report:
    """Per trial: sample G(n, p), estimate alpha, compute the inertia lower
    bound and the n - alpha upper bound, and solve exactly when n is small.

    A sandwich violation (lower bound above an upper bound, or the exact
    value outside the sandwich) on any trial is counted; on exact trials the
    count must be zero.  A config whose alpha target or regime threshold is
    not a finite float raises ValueError before any trial runs.

    The GP bound runs on one worker thread per run while this thread finds
    alpha (safe and GIL-free, see the module docstring); each trial joins
    it, so ``elapsed`` still spans sampling and the whole body, and the
    worker is shut down before the run returns or raises.  The overlap pays
    only with single-threaded BLAS (``OPENBLAS_NUM_THREADS=1``).  At
    n = 2000, p = 1/2 the alpha search mostly ends before the sliced
    eigen-solve: on the bench's four graphs it ended last on 17 of 48 trials,
    and alone it takes 0.32-0.40 s against the solve's 0.42-0.45 s.
    """
    n, p = cfg.n, cfg.p
    target = threshold = None
    if 0 < p < 1 and n > 1:
        try:
            target = 2.0 * math.log(n) / math.log(1.0 / (1.0 - p))
            threshold = cfg.c * (math.log(n) / math.log(1.0 / p)) ** (3.0 + cfg.epsilon)
        except (OverflowError, ZeroDivisionError):  # p below float resolution, or a huge epsilon
            target = threshold = math.inf
        if not (math.isfinite(target) and math.isfinite(threshold)):
            raise ValueError(f"alpha_target or regime_threshold is not finite at n={n}, p={p}, "
                             f"c={cfg.c}, epsilon={cfg.epsilon}")

    # Imported here: concurrent.futures loads logging, about 10 ms and 0.5 MB that
    # importing bipart and every other command would otherwise pay.
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=1)

    def trial(g: Graph, rec: TrialRecord) -> None:
        gp_bound = pool.submit(graham_pollak_lower_bound, g)
        if n <= cfg.alpha_exact_max_n:
            ar = independence_number_exact(g, cfg.alpha_node_budget)
            rec.alpha, rec.alpha_exact = ar.value, ar.complete
        else:
            found = independent_set_search(g, rec.sub_seed, rounds=cfg.search_rounds)
            rec.alpha, rec.alpha_exact = len(found), False
        rec.gp_bound = gp_bound.result()
        rec.tau_upper = n - rec.alpha
        if n <= cfg.tau_exact_max_n:
            res = partition_number_exact(g, cfg.tau_node_budget)
            rec.tau_status = res.status
            if res.status == EXACT:
                rec.tau_exact = int(res.value)
        if n <= cfg.beta_exact_max_n and g.m > 0:
            beta_part = largest_induced_biclique(g)
            rec.alon_upper = n - (beta_part.a | beta_part.b).bit_count() + 1
        if rec.gp_bound > rec.tau_upper:
            rec.violations.append("gp_bound above n - alpha")
        if rec.tau_exact is not None:
            if rec.gp_bound > rec.tau_exact:
                rec.violations.append("gp_bound above exact value")
            if rec.tau_exact > rec.tau_upper:
                rec.violations.append("exact value above n - alpha")
            if rec.alon_upper is not None and rec.tau_exact > rec.alon_upper:
                rec.violations.append("exact value above n - beta + 1")

    with pool:
        records = _run_trials(cfg, trial)
    mean_alpha = _mean(r.alpha for r in records if r.alpha is not None)
    aggregates = {
        "trials": cfg.trials,
        "in_regime": cfg.in_regime,
        "mean_alpha": mean_alpha,
        "alpha_target": target,
        "alpha_ratio": (mean_alpha / target) if (mean_alpha and target) else None,
        "mean_gp_bound": _mean(r.gp_bound for r in records if r.gp_bound is not None),
        "mean_tau_upper": _mean(r.tau_upper for r in records if r.tau_upper is not None),
        "exact_trials": sum(1 for r in records if r.tau_exact is not None),
        "regime_threshold": threshold,
    }
    return _report("bounds", cfg, records, aggregates)


def run_density_check(cfg: ExperimentConfig) -> Report:
    """Max normalized edge-density deviation over random vertex subsets.

    Subset sizes range from around sqrt(ln n) up to n.  The configured
    ceiling is a calibrated empirical constant; exceeding it counts as a
    violation.  Each subset is ``rng.sample(range(n), size)``, drawn by
    ``_sample_range``, which replays ``sample`` from batched words, and its
    mask is packed in one numpy pass by ``_mask_at``.
    """
    if cfg.n < 16:
        raise ValueError("density check needs n >= 16")
    smin = max(1, math.ceil(math.sqrt(math.log(cfg.n))))

    def trial(g: Graph, rec: TrialRecord) -> None:
        rng = random.Random(derive_seed(rec.sub_seed, 1))
        worst = 0.0
        for _ in range(cfg.density_subsets):
            size = rng.randint(smin, cfg.n)
            subset = VertexSet(_mask_at(_sample_range(rng, cfg.n, size), cfg.n), cfg.n)
            worst = max(worst, density_deviation(g, subset, cfg.p))
        rec.density_max_c = worst
        if worst >= cfg.density_ceiling:
            rec.violations.append(
                f"density constant {worst:.4f} at or above ceiling {cfg.density_ceiling}"
            )

    records = _run_trials(cfg, trial)
    aggregates = {
        "trials": cfg.trials,
        "in_regime": cfg.in_regime,
        "max_constant": max((r.density_max_c for r in records), default=None),
        "ceiling": cfg.density_ceiling,
        "subset_size_min": smin,
    }
    return _report("density", cfg, records, aggregates)


def run_biclique_side_check(cfg: ExperimentConfig) -> Report:
    """Heuristic balanced-biclique side per trial, against the 2 log_{1/p} n line.

    The heuristic only reports verified bicliques, so a missed large one can
    never fail the check; only an exceedance counts.  Refused (without error)
    when p = 1, where the threshold's logarithm base degenerates.
    """
    if cfg.p >= 1.0:
        reason = "threshold undefined at p = 1 (logarithm base 1)"
        return _report("biclique_side", cfg, [], {"trials": 0, "refused": True, "reason": reason})
    threshold = 2.0 * math.log(cfg.n) / math.log(1.0 / cfg.p) if cfg.n > 1 else 0.0

    def trial(g: Graph, rec: TrialRecord) -> None:
        side = max_balanced_biclique_side(g, "heuristic", cfg.biclique_budget, rec.sub_seed)
        rec.biclique_side_max = side
        if side > threshold:
            rec.violations.append(f"balanced side {side} exceeds threshold {threshold:.4f}")

    records = _run_trials(cfg, trial)
    aggregates = {
        "trials": cfg.trials,
        "refused": False,
        "in_regime": cfg.in_regime,
        "max_side": max((r.biclique_side_max for r in records), default=None),
        "threshold": threshold,
    }
    return _report("biclique_side", cfg, records, aggregates)


def _min_uncovered_over_maximal_plays(g: Graph, fam: CoverageFamily) -> int:
    """Brute force: minimum uncovered edge count over all maximal plays.

    A maximal play fixes an order and always takes the full common
    neighborhood; with k sets there are exactly k! of them.
    """
    _, _, rows, set_masks = _local_setup(g, fam.universe, fam)
    total_edges = sum(r.bit_count() for r in rows) // 2
    best_cover = max(
        _maximal_play(rows, set_masks, order)[0]
        for order in permutations(range(len(set_masks)))
    )
    return total_edges - best_cover


def run_coverage_soundness(cfg: ExperimentConfig) -> Report:
    """Check the uncovered-edge certificates against ``max_coverage_exact``
    and the maximal plays.

    Per trial: a random family over a tiny G(n, p); the certificate must
    never exceed the minimum uncovered count that ``max_coverage_exact``
    gives (edges minus the exact coverage maximum), nor the minimum over
    all maximal plays.  Any counterexample is recorded verbatim and counts
    as a violation.
    """
    if cfg.n > 8:
        raise ValueError("coverage soundness runs in the tiny regime (n <= 8)")
    base = 1.0 / cfg.p

    def trial(g: Graph, rec: TrialRecord) -> None:
        rng = random.Random(derive_seed(rec.sub_seed, 2))
        universe = list(range(cfg.n))
        sets = []
        if cfg.n >= 2:
            for _ in range(rng.randint(1, cfg.coverage_max_sets)):
                size = 2 if (rng.random() < 0.7 or cfg.n < 3) else 3
                sets.append(tuple(sorted(rng.sample(universe, size))))
        fam = CoverageFamily.of(universe, sets)
        f_value, _ = max_coverage_exact(g, universe, fam)
        true_min = g.m - f_value
        maximal_min = _min_uncovered_over_maximal_plays(g, fam)
        cert = uncovered_lower_bound(g, universe, fam, cfg.epsilon, base, rec.sub_seed)
        rec.detail = {
            "certificate": cert.value,
            "pair_bound": cert.pair_bound,
            "witness_bound": cert.witness_bound,
            "true_min_uncovered": true_min,
            "maximal_play_min_uncovered": maximal_min,
        }
        if cert.value > true_min or cert.value > maximal_min:
            rec.violations.append("certificate exceeds brute-force uncovered minimum")
            rec.detail["counterexample"] = {
                "edges": sorted(g.edges()),
                "family": [list(s) for s in fam.sets],
            }

    records = _run_trials(cfg, trial)
    aggregates = {
        "trials": cfg.trials,
        "counterexamples": sum(len(r.violations) for r in records),
    }
    return _report("coverage_soundness", cfg, records, aggregates)


_RUNNERS = {
    "bounds": run_bounds_experiment,
    "density": run_density_check,
    "biclique_side": run_biclique_side_check,
    "coverage_soundness": run_coverage_soundness,
}


def run_experiment(cfg: ExperimentConfig) -> Report:
    return _RUNNERS[cfg.kind](cfg)


def emit_report(report: Report, fmt: str = "json", path=None) -> str:
    """Serialize a report deterministically; optionally write it to ``path``.

    JSON field order is fixed by construction.  CSV carries the config and
    aggregates as '#' comment lines followed by one row per trial.  Reruns
    of the same config produce byte-identical output (timings are excluded).
    """
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        for line in (
            f"# kind={report.kind}",
            f"# version={report.version}",
            f"# config={json.dumps(report.config, separators=(',', ':'))}",
            f"# aggregates={json.dumps(report.aggregates, separators=(',', ':'))}",
            f"# violations={report.violations}",
        ):
            buf.write(line + "\n")
        rows = [r.to_dict() for r in report.records]
        if rows:
            columns = list(rows[0].keys())
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow(
                    json.dumps(row[c], separators=(",", ":")) for c in columns
                )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is not None:
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text
