"""Seeded reports and witnesses pinned by digest, so a refactor cannot drift their output.

A mismatch here means a seeded result changed: record the new digests only
together with a CHANGES.md entry saying which result changed and why.
"""

import hashlib
import json
import random

import pytest

from bipart.coverage import (
    CoverageFamily,
    PeelingError,
    blocked_edge_count,
    exclusive_split,
    max_coverage_exact,
    peel_witness,
    shielded_edge_count,
    uncovered_lower_bound,
)
from bipart.graphs import GnpSpec, independence_number_exact, independent_set_search, sample_gnp
from bipart.harness import ExperimentConfig, emit_report, run_experiment
from bipart.partition import (
    LOWER_BOUND_ONLY,
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

def _golden(name, violations, json_sha, csv_sha, **config):
    return pytest.param(config, violations, json_sha, csv_sha, id=name)


GOLDEN = [
    _golden("bounds", 0,
            "eee07fec7009af7791cf3e8b10040894e1405c3ecdbfa73e5823a81077c91a12",
            "dad49bd2f5d2d62d56c549ff148d49883154643decc1dda50b1b3c48a101cdb1",
            kind="bounds", n=9, p=0.5, trials=20, seed=42),
    _golden("coverage_soundness", 0,
            "4ff87dcca53e3badaa26e93f5d78f518caa952c90edae155a6ec2a0d81bda509",
            "e0ffbdf8a769f16bda53aa2e770e08fe6ba470e126d6f37ec8c0029fc8688736",
            kind="coverage_soundness", n=7, p=0.5, trials=50, seed=42),
    _golden("density", 0,
            "4b376416f8f914030160581d69a903c1f9f968068c8a58c5aa717fe23ef919aa",
            "c6428884526bf03c0fb6a0dac99c23ce04ea29822d70ef898b821016e7d1a22c",
            kind="density", n=60, p=0.5, trials=5, seed=42),
    _golden("biclique_side", 0,
            "c6bece6cd7828bf967ece0beb228ab72324ec81a05149f4daced66a76e4dad53",
            "d81eff22d361427879839eeeac899791b8dacd49c120ef555ac52f1e203b24cc",
            kind="biclique_side", n=60, p=0.5, trials=5, seed=42),
    # n > alpha_exact_max_n, so alpha comes from independent_set_search
    _golden("bounds-n100", 0,
            "936f77e6f74a291bd1d949767cb985e4323477eb5e908386b70167787c49206a",
            "90a80852e73e99ea891772cc145db5d15ce78846a8a9c6748fb30bd3544f98dd",
            kind="bounds", n=100, p=0.5, trials=3, seed=42),
    # Edge cases: empty runs, undefined targets, a refusal and a run with violations.
    _golden("bounds-no-trials", 0,
            "c301f1886514e1f2173237c48e61a36c8af93e6a18e7d61f38a5b50bedc22de7",
            "c338236f7aab3049d7c104fd2189b42269eed8ddbdb0c5a76850b2d48e65ae28",
            kind="bounds", n=9, p=0.5, trials=0, seed=42),
    _golden("bounds-n1", 0,  # alpha_target and regime_threshold are None
            "a15b607179af005732d70722929d2e6e20d4b1c0f79b86c0b8fae6543d0c78be",
            "2aaf50a42f08fd8103300d1cf5b0c8e386a7adc770e925730454399c60f4b26f",
            kind="bounds", n=1, p=0.5, trials=3, seed=42),
    _golden("density-no-trials", 0,
            "5f0316a0ea84f57d1cb6a4f6fd9591a8d7c074116faadc19fa0196c06ad1304e",
            "3aeb09c27725ba7dfc074fe1730dddb8787bafc61222ed3ffdb11ffaa7ebea5b",
            kind="density", n=40, p=0.5, trials=0, seed=42),
    _golden("density-violations", 3,
            "5f4957e352eb83c38d9dc4e5c832cbdafd9612003cfb8bbaa06a67d8e01d3d66",
            "60aa709b45bd2f93c38205db4476178332ab5aef852d208660dc21b8c5774b3e",
            kind="density", n=40, p=0.5, trials=3, seed=42, density_ceiling=0.01),
    _golden("biclique_side-refused", 0,
            "f6148d1d5eece348277566f31d4ca881aea5e63f7abaf37170afd646e220c752",
            "be2e02d3e683771777f408ab1e9d34d60c754eeb55e0481abaefd12c77c8594e",
            kind="biclique_side", n=20, p=1.0, trials=3, seed=42),
    _golden("biclique_side-no-trials", 0,
            "cf6e31a039c02d510f3831f1eb45efc1aff50af5e39f61384e191b323792a5ce",
            "39eef055f0e99665ef97d995123cd3602347c8598e434648d1273df7541ecb4d",
            kind="biclique_side", n=20, p=0.5, trials=0, seed=42),
    _golden("coverage_soundness-n2", 0,
            "99237bc46fa6a1eda0b6518d185b37356a1c8cbf907db9892f747f5d75884a84",
            "17629f58df8c08a3c4a94ed9c68e0d412a94a28a64c40daba730af074546f3da",
            kind="coverage_soundness", n=2, p=0.5, trials=5, seed=42),
]


@pytest.mark.parametrize("config, violations, json_sha, csv_sha", GOLDEN)
def test_report_digests(config, violations, json_sha, csv_sha):
    report = run_experiment(ExperimentConfig(**config))
    assert report.violations == violations
    for fmt, expected in (("json", json_sha), ("csv", csv_sha)):
        assert hashlib.sha256(emit_report(report, fmt).encode()).hexdigest() == expected, fmt


SEARCH_GRAPHS = [(n, p, seed) for n in (80, 150, 300) for p, seed in ((0.3, 1), (0.5, 2), (0.7, 3))]
SEARCH_DIGEST = "ffa95bc1ec3ed1f2c25699f594f984dfadddaa7dc7e8d2483a9d8a969029f6d3"


def test_search_digest():
    """independent_set_search masks above the n <= 60 the other digests reach."""
    masks = [independent_set_search(sample_gnp(GnpSpec(n, p, seed)), seed).mask
             for n, p, seed in SEARCH_GRAPHS]
    assert hashlib.sha256(json.dumps(masks).encode()).hexdigest() == SEARCH_DIGEST


# (n, p, seed, rounds) from n = 200 to 2000, sparse to dense.  Sparse pools
# reach the beam's exact finisher with more to gain than dense ones do; fewer
# rounds at the larger and sparser sizes keep the test near 2 s.
WIDE_SEARCH_GRAPHS = [
    (200, 0.05, 1, 1), (400, 0.1, 2, 1), (300, 0.3, 3, 2), (1200, 0.3, 4, 1),
    (500, 0.5, 5, 2), (2000, 0.5, 6, 1), (1000, 0.9, 7, 2), (2000, 0.9, 8, 1),
]
WIDE_SEARCH_DIGEST = "cc197df1012f24586583de20df9d26ee46855acd0a647122092a33d7ea21b3c5"


def test_wide_search_digest():
    """(size, mask) of independent_set_search on WIDE_SEARCH_GRAPHS."""
    found = []
    for n, p, seed, rounds in WIDE_SEARCH_GRAPHS:
        s = independent_set_search(sample_gnp(GnpSpec(n, p, seed)), seed, rounds)
        found.append([len(s), s.mask])
    assert hashlib.sha256(json.dumps(found).encode()).hexdigest() == WIDE_SEARCH_DIGEST


WITNESS_GRAPHS = [(n, p, seed) for n in range(6, 11) for p, seed in ((0.3, 1), (0.5, 2), (0.7, 3))]
# Larger graphs solved at budgets 0 and 200, so the digest pins budget-outs:
# tau with its star incumbent, and tau' with no partition found (INFINITY).
# Where the star incumbent meets the root's bound, as for tau at p = 0.3,
# budget 0 ends exact.
BUDGET_GRAPHS = [(n, p, seed) for n in range(11, 14) for p, seed in ((0.3, 1), (0.5, 2), (0.7, 3))]

WITNESS_DIGESTS = {
    "tau": "03323a588d1e2b9912b41b41334035926163660629399d2556bdeebb57d5ac16",
    "tau_strong": "102bf513eaa678c8261e684ada137b8814d76b93adc6598c3a6d7ab2fe09f895",
    "star_decomposition": "2a7b06126903393fcfe5e4b45b90f061af4420138c0eed36b52f70faf18398e1",
    "normalize_stars_first": "ad2b4214f3c4ad9e21e8d7d7d770c4b5eaeba16f32cfebc1623c9366b5860ce9",
    "biclique_exact": "31f2359fed10b27e244f3cacb1e269746218c7c98e6401e04eedda8772e756b4",
    "star_plus_exact": "a7fd453cfec28c7bdbd91650e8a3832cb55230bae5e2138e8c0e14916e069aac",
    "budget_outs": "ef1bb41079efcc67904ba2c3c4dce876fad13d9d025aeeb30436b70efd84a0d4",
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
        beta = largest_induced_biclique(g)
        out["biclique_exact"].append(partition_to_json(BicliquePartition(g, (beta,))))
        out["star_plus_exact"].append(partition_to_json(star_plus_biclique_decomposition(g, beta)))
    for n, p, seed in BUDGET_GRAPHS:
        g = sample_gnp(GnpSpec(n, p, seed))
        for budget in (0, 200):
            for solve in (partition_number_exact, strong_partition_number_exact):
                out["budget_outs"].append(solve_result_to_json(solve(g, budget=budget)))
    return out


def test_witness_digests():
    outputs = _witness_outputs()
    budget_outs = [r for r in outputs["budget_outs"] if r["status"] == LOWER_BOUND_ONLY]
    assert any(r["witness"] for r in budget_outs)  # tau keeps its star incumbent
    assert any(r["value"] == "infinity" for r in budget_outs)  # tau' found no partition
    for key, expected in WITNESS_DIGESTS.items():
        got = hashlib.sha256(json.dumps(outputs[key], sort_keys=True).encode()).hexdigest()
        assert got == expected, key


# The tau and tau' results above without their node counts: a change to how
# much the search explores must leave these alone.
RESULT_DIGESTS = {
    "tau": "c9c3570a06f0415184e1aa80d5cb34d691a4ffd531b57d17a6f2d14e389f8f72",
    "tau_strong": "f909a155a07692e4e1415ecb49edea49cf498711c9b63efe59f1021cf5c365b7",
}


def test_witness_result_digests():
    outputs = _witness_outputs()
    for key, expected in RESULT_DIGESTS.items():
        results = [{k: v for k, v in r.items() if k != "nodes"} for r in outputs[key]]
        got = hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
        assert got == expected, key


CERTIFICATE_GRAPHS = [
    (n, p, seed) for n in (12, 24, 40, 60) for p, seed in ((0.1, 4), (0.3, 1), (0.5, 2), (0.7, 3))
]
# At n <= 60 only base 4.0 gives the witness peeling two or more steps, so
# witness_bound > 0; only base 1.001 puts 2-sets in the small tier, which
# brings in the degree cap.
CERTIFICATE_BASES = (1.001, 1.1, 2.0, 4.0)

CERTIFICATE_DIGESTS = {
    "exclusive_split": "44090259fa15926da6a327de5d9ac2edae144c7113d3659a20b5aec9a22243b3",
    "blocked_edge_count": "111ad976cdfc2a32b27f994867eb55c0cd6295b9c545d2052b6b86746cb23aba",
    "uncovered_lower_bound": "9653f8fb712631e0619a82b701013aac15e52394da123807f156ba6327d06cb0",
    "peel_witness": "1685209918fcb471e027c9f08d54db0e5c6ac3ae81df7fba0f87503c41c2bb4e",
    "shielded_edge_count": "9556287e3b1810c4c0cfbce4b8169639f182d9ea3453def2167aa65c35e67b1e",
}


def _outcome(fn, *args, **kwargs):
    """The call's result, or the type and message of the ValueError or PeelingError it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, PeelingError) as exc:
        return [type(exc).__name__, str(exc), getattr(exc, "steps", None)]


def _witness_json(witness):
    if witness is None:
        return None
    return [list(witness.order), [[v, list(gs)] for v, gs in witness.guards.items()]]


def _certificate_outputs() -> dict[str, list]:
    """Pair and witness certificates on CERTIFICATE_GRAPHS, with seeded families."""
    out: dict[str, list] = {key: [] for key in CERTIFICATE_DIGESTS}
    for n, p, seed in CERTIFICATE_GRAPHS:
        g = sample_gnp(GnpSpec(n, p, seed))
        rng = random.Random(1000 * n + seed)
        for trial in range(3):
            universe = sorted(rng.sample(range(n), rng.randint(n // 2, n)))
            pairs = [tuple(rng.sample(universe, 2)) for _ in range(rng.randint(1, n // 3))]
            mixed = pairs[: rng.randint(0, len(pairs))]
            mixed += [rng.sample(universe, rng.choice((3, 4))) for _ in range(rng.randint(1, n // 6))]
            fam2 = CoverageFamily.of(universe, pairs)
            s, t = exclusive_split(fam2)
            out["exclusive_split"].append([s.as_tuple(), t.as_tuple()])
            out["blocked_edge_count"].append(blocked_edge_count(g, fam2, s))
            # Three arbitrary vertices: one not in exactly one 2-set raises.
            probe = rng.sample(universe, 3)
            out["blocked_edge_count"].append(_outcome(blocked_edge_count, g, fam2, probe))
            for sets in (pairs, mixed):
                fam = CoverageFamily.of(universe, sets)
                for base in CERTIFICATE_BASES:
                    b = uncovered_lower_bound(g, range(n), fam, 1.0, base, trial)
                    fields = [b.value, b.pair_bound, b.witness_bound, b.s, b.t]
                    out["uncovered_lower_bound"].append(fields + [_witness_json(b.witness), b.note])
                order = rng.sample(universe, len(universe))
                for degree_bound in (None, 2, 3):
                    witness = _outcome(peel_witness, fam, universe, 4.0, order, degree_bound)
                    if isinstance(witness, list):
                        out["peel_witness"].append(witness)
                        continue
                    out["peel_witness"].append(_witness_json(witness))
                    out["shielded_edge_count"].append(
                        shielded_edge_count(g, universe, witness.order, witness.guards)
                    )
                w = rng.sample(universe, len(universe) // 2)
                rest = [v for v in universe if v not in w]
                guards = {v: rest[i::len(w)][:2] for i, v in enumerate(w[:len(rest)])}
                shielded = _outcome(shielded_edge_count, g, universe, w, guards)
                out["shielded_edge_count"].append(shielded)
    return out


def test_certificate_digests():
    outputs = _certificate_outputs()
    assert any(b[2] > 0 for b in outputs["uncovered_lower_bound"])  # the witness route counts
    assert any(b[1] > 0 for b in outputs["uncovered_lower_bound"])  # and so does the pair route
    for key, expected in CERTIFICATE_DIGESTS.items():
        got = hashlib.sha256(json.dumps(outputs[key]).encode()).hexdigest()
        assert got == expected, key


# Families shaped like the bench's exact-small coverage cells, (sets, universe
# size, p) with 2- or 3-sets, plus 6-8 sets at u <= 10.  The graph has two
# vertices outside the universe, so the relabelling is pinned too.
TRACE_CELLS = [(3, 12, 0.5), (4, 11, 0.5), (5, 10, 0.5), (3, 10, 0.8), (3, 11, 0.8),
               (6, 10, 0.5), (7, 9, 0.5), (8, 8, 0.5), (6, 8, 0.8), (8, 10, 0.3)]
TRACE_DIGEST = "0bd24d2e23dbbf5b3ef563a8ee8ff286b18c0959f1c03ae1bbcaeb3899b13bc2"


def test_coverage_trace_digest():
    """Which optimal play max_coverage_exact returns, not only its value."""
    out = []
    for k, u, p in TRACE_CELLS:
        rng = random.Random(1000 * k + 100 * u + int(10 * p))
        for _ in range(3):
            g = sample_gnp(GnpSpec(u + 2, p, rng.getrandbits(64)))
            universe = rng.sample(range(u + 2), u)
            sets = [rng.sample(universe, 2 if rng.random() < 0.7 else 3) for _ in range(k)]
            value, trace = max_coverage_exact(g, universe, CoverageFamily.of(universe, sets))
            out.append([value, trace.order, trace.choices, trace.covered])
    assert hashlib.sha256(json.dumps(out).encode()).hexdigest() == TRACE_DIGEST
