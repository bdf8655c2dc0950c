import os

# One BLAS thread, set before anything imports numpy (BLAS reads these once, at
# import): a bounds trial's eigen-solve runs on a worker thread beside the
# independent-set search, and BLAS threads of its own would compete with that.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import random

from hypothesis import strategies as st

from bipart.graphs import GnpSpec, Graph, sample_gnp


@st.composite
def gnp_graphs(draw, min_n: int = 0, max_n: int = 10):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    p = draw(st.sampled_from([0.2, 0.5, 0.8]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return sample_gnp(GnpSpec(n, p, seed))


def random_graph(n: int, p: float, seed: int) -> Graph:
    return sample_gnp(GnpSpec(n, p, seed))


def shuffled(items, seed: int):
    rng = random.Random(seed)
    out = list(items)
    rng.shuffle(out)
    return out
