import hashlib
import itertools
import math
import struct

import numpy as np
import pytest

from ppt import Configuration, IntensityMeasure, SeedSpec, Window, emd
from ppt.cli import ExperimentSpec, run_experiment

# verify reports pinned at seed 2025 (TestPinnedReportBytes), and the same
# bytes at every CPU dispatch level (TestSameBytesOnEveryCpu):
# scenario -> (extra parameters, n_samples, stream ids, digest)
PINNED_VERIFY = {
    "poisson-tightness": ({"pairs": 400}, 20_000, (0, 10_000), "85e88c4e2641a2c9"),
    "gibbs-bound": ({}, 10_000, (0,), "79cdc8ccaa1f9393"),
    "halfline-timechange": ({}, 20_000, (0,), "5878a4cf83c41f16"),
    "isoperimetry": ({}, 10_000, (0,), "0e7c94d9ea5bb074"),
}


@pytest.fixture
def unit_window():
    return Window([0.0], [1.0])


@pytest.fixture
def lebesgue(unit_window):
    return IntensityMeasure.uniform(unit_window, 1.0, label="const:1")


@pytest.fixture
def seed():
    return SeedSpec(20_250_808)


def config(coords, window):
    return Configuration(np.atleast_2d(np.asarray(coords, float)).reshape(-1, window.dim), window)


def brute_force_assignment(C):
    """Factorial enumeration oracle: optimal cost over all permutations."""
    n = C.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        cost = 0.0
        for i in range(n):
            cost += float(C[i, perm[i]])
        if best is None or cost < best:
            best = cost
    return best


def seeded_emd_instances():
    """300 seeded instances: integer, real and partly infinite costs, on
    uniform square and on general marginals (some with zero entries)."""
    rng = SeedSpec(20_250_808).rng(9)
    for k in range(300):
        if k >= 298:
            # 80 x 80, 0/1 costs, half the arcs infinite: long degenerate
            # runs that switch the pricing to Bland's rule
            n = 80
            C = rng.integers(0, 2, size=(n, n)).astype(float)
            C[rng.uniform(size=(n, n)) < 0.5] = math.inf
            np.fill_diagonal(C, 1.0)
            yield np.full(n, 1.0 / n), np.full(n, 1.0 / n), C
            continue
        kind = k % 6
        big = k % 25 == 0
        if kind < 3:
            n = m = int(rng.integers(30, 41)) if big else int(rng.integers(1, 13))
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        else:
            n, m = (int(v) for v in rng.integers(1, 11, size=2))
            a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
            if n > 2 and kind == 5:
                a[: n // 3] = 0.0
                a /= a.sum()
        if kind % 3 == 0:
            C = rng.integers(0, 5, size=(n, m)).astype(float)
        else:
            C = rng.uniform(0, 3, size=(n, m))
        if kind % 3 == 2:
            C[rng.uniform(size=(n, m)) < 0.35] = math.inf
        yield a, b, C


def emd_digests():
    """SHA-256 of every ``emd`` plan's bytes and cost over
    :func:`seeded_emd_instances`: one for the 202 all-finite instances, one
    for the 98 with +inf entries."""
    finite, partly_infinite = hashlib.sha256(), hashlib.sha256()
    for a, b, C in seeded_emd_instances():
        plan = emd(a, b, C)
        h = finite if np.isfinite(C).all() else partly_infinite
        h.update(plan.weights.tobytes())
        h.update(struct.pack("<d", plan.cost))
    return [finite.hexdigest(), partly_infinite.hexdigest()]


def report_digest(*reports):
    """SHA-256 prefix of the reports' ``canonical_bytes``, as the benchmark's
    ``results_sha`` computes it."""
    return hashlib.sha256(b"\n".join(r.canonical_bytes() for r in reports)).hexdigest()[:16]


def pinned_verify_reports(scenario):
    """The reports behind ``PINNED_VERIFY[scenario]``, one per stream id."""
    parameters, n_samples, streams, _ = PINNED_VERIFY[scenario]
    return [
        run_experiment(
            ExperimentSpec.from_dict(
                {
                    "kind": "verify",
                    "parameters": {"scenario": scenario, **parameters},
                    "seed": {"seed": 2025, "stream_id": stream},
                    "n_samples": n_samples,
                }
            )
        )
        for stream in streams
    ]
