"""Seeded reports and witnesses pinned by digest, so a refactor cannot drift their output.

A mismatch here means a seeded result changed: record the new digests only
together with a CHANGES.md entry saying which result changed and why.
"""

import hashlib
import json

import pytest

from bipart.graphs import GnpSpec, independence_number_exact, sample_gnp
from bipart.harness import ExperimentConfig, emit_report, run_experiment
from bipart.partition import (
    BicliquePartition,
    largest_induced_biclique,
    normalize_stars_first,
    partition_number_exact,
    partition_to_json,
    solve_result_to_json,
    star_decomposition,
    star_plus_biclique_decomposition,
    strong_partition_number_exact,
)

GOLDEN = [
    (
        dict(kind="bounds", n=9, p=0.5, trials=20, seed=42),
        "eee07fec7009af7791cf3e8b10040894e1405c3ecdbfa73e5823a81077c91a12",
        "dad49bd2f5d2d62d56c549ff148d49883154643decc1dda50b1b3c48a101cdb1",
    ),
    (
        dict(kind="coverage_soundness", n=7, p=0.5, trials=50, seed=42),
        "4ff87dcca53e3badaa26e93f5d78f518caa952c90edae155a6ec2a0d81bda509",
        "e0ffbdf8a769f16bda53aa2e770e08fe6ba470e126d6f37ec8c0029fc8688736",
    ),
    (
        dict(kind="density", n=60, p=0.5, trials=5, seed=42),
        "4b376416f8f914030160581d69a903c1f9f968068c8a58c5aa717fe23ef919aa",
        "c6428884526bf03c0fb6a0dac99c23ce04ea29822d70ef898b821016e7d1a22c",
    ),
    (
        dict(kind="biclique_side", n=60, p=0.5, trials=5, seed=42),
        "c6bece6cd7828bf967ece0beb228ab72324ec81a05149f4daced66a76e4dad53",
        "d81eff22d361427879839eeeac899791b8dacd49c120ef555ac52f1e203b24cc",
    ),
]


@pytest.mark.parametrize("config, json_sha, csv_sha", GOLDEN, ids=[c["kind"] for c, _, _ in GOLDEN])
def test_report_digests(config, json_sha, csv_sha):
    report = run_experiment(ExperimentConfig(**config))
    assert report.violations == 0
    for fmt, expected in (("json", json_sha), ("csv", csv_sha)):
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == expected, fmt


WITNESS_GRAPHS = [(n, p, seed) for n in range(6, 11) for p, seed in ((0.3, 1), (0.5, 2), (0.7, 3))]

WITNESS_DIGESTS = {
    "tau": "432acf44e2b13ff25514c7b1cff36aaf2cb15317e277a286624675e331911bc0",
    "tau_strong": "c9732f2417ccd16974792ea9dfd93b8e791af22d37f2d94b506079f28fc847ee",
    "star_decomposition": "2a7b06126903393fcfe5e4b45b90f061af4420138c0eed36b52f70faf18398e1",
    "normalize_stars_first": "13f9ee29e5d107ce9aa33d8d20fa26df918817432faa9d6581e7f1099fcf3c17",
    "biclique_exact": "533a4aafd4be38fdd3ee6bcc632b0a88f4ab0f1fbb72a58107eb906359b88d68",
    "biclique_heuristic": "fdd4bd41da38613297e127a43b65daca43eb26056aea5c22a0dc522333030eee",
    "star_plus_exact": "79e025b44ebf6035436360699c45a1a1182dee4cbbbf35f930157f1fbce01b22",
    "star_plus_heuristic": "c45cc491a978e84157b0c2165d102da342338fa994f6f1e173cc8f06e08350e4",
}


def _witness_outputs() -> dict[str, list]:
    """Solver results and partitions on WITNESS_GRAPHS, as their JSON forms."""
    out: dict[str, list] = {key: [] for key in WITNESS_DIGESTS}
    for n, p, seed in WITNESS_GRAPHS:
        g = sample_gnp(GnpSpec(n, p, seed))
        tau = partition_number_exact(g, budget=3000)
        out["tau"].append(solve_result_to_json(tau))
        out["tau_strong"].append(solve_result_to_json(strong_partition_number_exact(g, budget=3000)))
        stars = star_decomposition(g, independence_number_exact(g).witness)
        out["star_decomposition"].append(partition_to_json(stars))
        out["normalize_stars_first"].append(partition_to_json(normalize_stars_first(g, tau.witness)))
        for effort in ("exact", "heuristic"):
            beta = largest_induced_biclique(g, effort=effort, budget=50, seed=seed)
            out[f"biclique_{effort}"].append(partition_to_json(BicliquePartition(g, (beta,))))
            mixed = star_plus_biclique_decomposition(g, beta)
            out[f"star_plus_{effort}"].append(partition_to_json(mixed))
    return out


def test_witness_digests():
    outputs = _witness_outputs()
    for key, expected in WITNESS_DIGESTS.items():
        got = hashlib.sha256(json.dumps(outputs[key], sort_keys=True).encode()).hexdigest()
        assert got == expected, key
