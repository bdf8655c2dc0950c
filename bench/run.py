"""bipart benchmark: runs one workload and prints its metrics, the last line as JSON.

Run from the repository root:

    python3 bench/run.py --workload exact-small --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
runs the same batch once plainly and once with span-recording wrappers
around the calls into each module, and reports the per-layer metrics.  Every
output is checked, against invariants and against the values recorded in
``bench/reference.json``; a failed check counts the item as failed.

A run repeats its workload's whole batch until ``--seconds`` have passed, at
least once.  End-to-end times are scaled by the speed probe of ``probe.py``
to cancel the host's drift; per-layer times are raw seconds per pass.

``--record`` recomputes ``reference.json`` for every pooled item instead of
measuring; use it only when the program's seeded outputs change on purpose.
Results, span dumps and generated inputs go to ``.bench_out/``.
"""

import argparse
import dataclasses
import gc
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Pinned before numpy loads (in load_program): BLAS reads these once, at import.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 3


# Run in a child process, so that set-up can time the import more than once.
IMPORT_PROBE = (
    "import sys, time; start = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import numpy, bipart.cli, click.testing; print(time.perf_counter() - start)"
)


def import_seconds() -> float:
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def load_program() -> None:
    """Import bipart from this checkout's sources, and the modules that use it."""
    if not (SRC / "bipart" / "__init__.py").is_file():
        sys.exit(f"bench: no bipart sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import bipart

    if Path(bipart.__file__).resolve().parent != SRC / "bipart":
        sys.exit(f"bench: imported bipart from {bipart.__file__}, not from {SRC}")
    import probe  # noqa: F401
    import tracing  # noqa: F401
    import workloads  # noqa: F401


@dataclass(frozen=True)
class Result:
    key: str
    seconds: float  # as measured
    values: dict | None
    error: str | None
    speed: float = 1.0  # NOMINAL_S over the mean probe time around the item

    @property
    def normalised(self) -> float:
        return self.seconds * self.speed


def compare(values: dict, expected: dict | None) -> None:
    """Seeded values must match; a solver value only where both runs are exact."""
    from workloads import Mismatch

    if expected is None:
        raise Mismatch("no recorded value for this item")
    both_exact = expected.get("status") == values.get("status") == "exact"
    for name, want in expected.items():
        got = values.get(name)
        if name == "status" or (name == "value" and "status" in expected and not both_exact):
            continue
        if isinstance(want, float):
            same = isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=1e-9)
        else:
            same = got == want
        if not same:
            raise Mismatch(f"{name} is {got!r}, recorded {want!r}")


def run_item(item, ref_key: str, reference: dict | None, tracer, trace_id: str,
             before: float) -> tuple[Result, float]:
    """Run, time and check one item.

    ``before`` is the probe time just before the item; the probe time just
    after it is returned with the result, for the next item to use."""
    from probe import NOMINAL_S, SpeedMeter, probe

    if tracer is not None:
        tracer.item = trace_id
        tracer.active = True
    meter = SpeedMeter()
    start = time.perf_counter()
    try:
        with meter:
            out = item.run()
    except Exception as exc:  # any failure of the program counts the item as failed
        return Result(ref_key, time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"), probe()
    finally:
        if tracer is not None:
            tracer.active = False
    seconds = time.perf_counter() - start
    after = probe()
    speed = NOMINAL_S / statistics.fmean([before, *meter.samples, after])
    try:
        if item.elapsed is not None:
            seconds = item.elapsed(out)
        seconds -= meter.spent
        values = item.check(out)
        if reference is not None:
            compare(values, reference.get(ref_key))
    except Exception as exc:  # a broken invariant, a changed value, or malformed output
        return Result(ref_key, seconds, None, f"{type(exc).__name__}: {exc}", speed), after
    finally:
        # Collected here, untimed, so that cyclic garbage from one item does
        # not raise the peak memory of a later one: without it peak_rss_mb
        # depended on the item order (68 MB or 86 MB on exact-small).
        gc.collect()
    return Result(ref_key, seconds, values, None, speed), after


def measure(batch, seconds: float, reference, tracer=None, repeats=None) -> list[list[Result]]:
    """Run the whole batch until ``seconds`` have passed (at least once), or
    exactly ``repeats`` times when it is given; one result list per pass."""
    from probe import probe

    done: list[list[Result]] = []
    start = time.perf_counter()
    before = probe()
    while len(done) < (repeats or 1) or (repeats is None and time.perf_counter() - start < seconds):
        results = []
        for key, item in batch:
            result, before = run_item(item, key, reference, tracer, f"{len(done)}:{key}", before)
            results.append(result)
        done.append(results)
    return done


def prepare(workload, profile: str, seed: int) -> list[tuple[str, object]]:
    """The batch: every item of the workload's pool, keyed, in the seed's order."""
    import workloads as wl

    pool = wl.SMOKE_POOL if profile == "smoke" else workload.pool
    sizes = wl.SIZES[profile][workload.name]
    inputs = OUT / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    batch = [
        (f"{index}/{item.key}", item)
        for index, pool_seed in enumerate(wl.pool_seeds(workload.name, profile, pool))
        for item in workload.build(sizes, pool_seed, inputs)
    ]
    random.Random(seed).shuffle(batch)
    return batch


def warm_up(workload) -> None:
    """Run a reduced batch untimed so first-call costs fall into set-up."""
    import workloads as wl

    for item in workload.build(wl.SIZES["warm"][workload.name], 0, OUT / "inputs"):
        item.check(item.run())


def quality(results: list[Result]) -> dict:
    statuses = [r.values["status"] for r in results if r.values and "status" in r.values]
    alphas = [r.values["alpha"] for r in results if r.values and "alpha" in r.values]
    return {
        "exact_ratio": statuses.count("exact") / len(statuses) if statuses else 0.0,
        "alpha_mean": statistics.fmean(alphas) if alphas else 0.0,
    }


def timing(passes: list[list[Result]]) -> dict:
    times = [r.normalised for results in passes for r in results]
    return {
        "wall_s": statistics.fmean(sum(r.normalised for r in results) for results in passes),
        "raw_wall_s": statistics.fmean(sum(r.seconds for r in results) for results in passes),
        "item_s.p50": statistics.median(times),
        "item_s.p90": statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0],
    }


def layer_metrics(names, tracer, passes: int) -> dict:
    """Per-layer values per pass over the batch, from the traced passes."""
    busy, own = tracer.times()
    totals = tracer.totals()

    inertia = "spectral.inertia_from_rows"
    calls = totals.get(inertia + ".calls", 0)
    solvers = ("partition.partition_number_exact", "partition.strong_partition_number_exact")
    nodes = sum(totals.get(s + ".nodes", 0) for s in solvers)
    out = {
        "spectral.inertia_from_rows.us_per_call": busy.get(inertia, 0.0) / calls * 1e6 if calls else 0.0,
        "partition.us_per_node": sum(busy.get(s, 0.0) for s in solvers) / nodes * 1e6 if nodes else 0.0,
    }
    for name in names:
        if name in out or "." not in name:
            continue
        span, _, field = name.rpartition(".")
        if field == "s":
            out[name] = busy.get(span, 0.0) / passes
        elif field == "self_s":
            out[name] = own.get(span, 0.0) / passes
        elif field in ("calls", "nodes"):
            out[name] = totals.get(name, 0) / passes
    return out


def count_table(tracer, passes: list[list[Result]]) -> list[dict]:
    """Per exact-solver instance: status, nodes, alpha warm-start nodes, inertia calls."""
    rows = []
    for number, results in enumerate(passes):
        for r in results:
            if not (r.values and "status" in r.values):
                continue
            item = f"{number}:{r.key}"
            count = lambda c: tracer.counts.get((item, c), 0)  # noqa: E731
            rows.append({
                "item": item,
                "status": r.values["status"],
                "nodes": count("partition.partition_number_exact.nodes")
                + count("partition.strong_partition_number_exact.nodes"),
                "alpha_nodes": count("graphs.independence_number_exact.nodes"),
                "inertia_calls": count("spectral.inertia_from_rows.calls"),
            })
    return rows


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(),
        "seed": seed,
    }


def record(workload_names, profile: str) -> None:
    """Recompute the seeded values of every pooled item into reference.json."""
    import workloads as wl

    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in workload_names:
        values = {}
        for key, item in sorted(prepare(wl.WORKLOADS[name], profile, 0), key=lambda pair: pair[0]):
            values[key] = item.check(item.run())
        data.setdefault(profile, {})[name] = values
        print(f"recorded {len(values)} items of {name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=("full", "smoke"), default="full",
                        help="smoke: reduced sizes, for the smoke test")
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json for this workload ('all' for every one)")
    args = parser.parse_args(argv)

    load_program()
    import probe
    import tracing
    import workloads as wl

    names = list(wl.WORKLOADS) if args.record and args.workload == "all" else [args.workload]
    for name in names:
        if name not in wl.WORKLOADS:
            parser.error(f"unknown workload {name!r}; choose from {sorted(wl.WORKLOADS)}")
    if args.record:
        record(names, args.profile)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    workload = wl.WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(args.profile, {}).get(workload.name, {})

    setup_times = []  # scaled by the speed probe, as item times are
    before = probe.probe()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        batch = prepare(workload, args.profile, args.seed)
        warm_up(workload)
        prepared = time.perf_counter() - start
        seconds = import_seconds() + prepared
        after = probe.probe()
        setup_times.append(seconds * 2 * probe.NOMINAL_S / (before + after))
        before = after

    plain = measure(batch, args.seconds, reference)
    metrics = {"setup_s": statistics.median(setup_times)}
    metrics.update(timing(plain))
    metrics.update(quality(plain[0]))
    results = [r for results in plain for r in results]
    detail = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = measure(batch, 0.0, reference, tracer=tracer, repeats=len(plain))
        finally:
            tracer.restore()
        results += [r for results in traced for r in results]
        metrics.update(layer_metrics([m["name"] for m in spec["per_layer"]], tracer, len(traced)))
        metrics["trace.overhead_s"] = timing(traced)["wall_s"] - metrics["wall_s"]
        detail["counts"] = count_table(tracer, traced)
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans_path)
        detail["spans"] = str(spans_path.relative_to(ROOT))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = [r for r in results if r.error]
    metrics["fail_ratio"] = len(failed) / len(results)

    reported = spec["per_layer" if args.trace else "end_to_end"]
    env = environment(args.seed)
    print("env " + json.dumps(env))
    print(f"passes {len(plain)} over a batch of {len(batch)} items")
    for name in sorted(metrics):
        print(f"metric {name} {metrics[name]!r} {units.get(name, '')}")
    for r in failed[:10]:
        print(f"failed {r.key}: {r.error}")
    result_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps({
        "workload": workload.name, "profile": args.profile, "env": env,
        "metrics": metrics, "passes": len(plain),
        "items": [[r.key, r.seconds, r.speed, r.error] for r in results], **detail,
    }, indent=1) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
