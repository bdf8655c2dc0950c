"""Seeded reports pinned by digest, so a refactor cannot drift their output.

A mismatch here means a seeded result changed: record the new digests only
together with a CHANGES.md entry saying which result changed and why.
"""

import hashlib

import pytest

from bipart.harness import ExperimentConfig, emit_report, run_experiment

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
