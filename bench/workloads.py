"""The benchmark's workloads: named operations, each one public call into ``ppt``.

An operation is built once (spec parsing, intensity and coupling
construction, input sampling) and then run repeatedly.  Running it returns
an ``Outcome``: the canonical bytes of its result, seed-independent exact
values that came out wrong, and failed ``verify`` assertions.  Every failed
assertion fails its operation, except those named in ``KNOWN_DEFECTS``.

Every operation draws its inputs from ``SeedSpec(seed, 0)``: stream 0 is the
README's stream, and the operations are independent experiments, so sharing
the root stream only correlates their inputs.  The operations named in
``STREAMS`` run once more for each further stream (``SeedSpec(seed, k *
STREAM_STEP)``) in every pass.  How much work an operation does depends on
its random inputs, so a run at one seed would otherwise differ from a run at
another by up to a third for that reason alone; the repeats average this out.
They go to operations whose time varies less between seeds, so that these
outweigh ``gibbs-sample`` and ``gibbs-bound``, whose sizes are the issue's
and the README's and whose time varies by a factor of two between seeds.
``rectangular`` gets the most, because it is most of its workload.

Why these workloads (sizes and timings are in NOTES.md):

* ``empirical-transport``: primal estimates on uniform square marginals.
  Configuration cost matrices (``metrics``) and the network simplex
  (``transport``) do the work; the nested Monte Carlo does none.  A future
  assignment-solver route for uniform-square instances shows here.
* ``mc-bounds``: Monte Carlo bounds and samplers.  ``core.Configuration.add``,
  ``bounds.nested_gradient_mc``, Gibbs interaction energy and
  ``v_inverse`` do the work; ``transport`` does none.
* ``general-transport``: the network simplex on marginals that are not
  uniform-square, so that a gain on the uniform-square path cannot hide a
  loss on the general one.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Callable, NamedTuple

from ppt import bounds, cli, concentration, simulate, transport
from ppt.core import IntensityMeasure, SeedSpec, Window


class Outcome(NamedTuple):
    """What one run of an operation returns."""

    payload: bytes  # canonical bytes of the result
    failures: list[str]  # wrong seed-independent exact values
    assertions_failed: list[tuple[str, str]]  # (name, detail) of failed ``verify`` assertions


Op = Callable[[], Outcome]

OPS = {
    "empirical-transport": ("poisson-tightness", "gibbs-bound", "rubinstein-rho2"),
    "mc-bounds": ("general-bound", "surface-mc", "coarea", "gibbs-sample", "halfline-timechange"),
    "general-transport": ("oracle", "rectangular"),
}
WORKLOADS = tuple(OPS)

# Streams per pass of the operations that run on more than stream 0.  Stream
# ids are multiples of STREAM_STEP, far above the offsets (at most 1000 plus
# the pair count) that an operation adds to its root stream id.
STREAMS = {"poisson-tightness": 2, "general-bound": 2, "surface-mc": 2, "coarea": 2, "rectangular": 5}
STREAM_STEP = 10_000

RECTANGULAR = (300, 150)  # list lengths of the rectangular operation
# (cell masses of mu, cell masses of nu, truncation, exact distance)
ORACLE_CASES = (([0.5, 0.5], [1.0, 1.0], 17, 1.0), ([1.0, 0.5], [2.0, 1.5], 18, 2.0))
ORACLE_WARMUP = (([1.0], [2.0], 30, 1.0),)

# (operation, assertion) pairs whose failure is a declared defect of the
# scenario, not of the code under test (see NOTES.md, "Known defect").  They
# are still printed and counted by ``cli.verify.assertions_failed``, but do
# not fail the operation.
KNOWN_DEFECTS = {("gibbs-bound", "primal_below_bound")}


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _relative_miss(label: str, got: float, want: float, tol: float) -> list[str]:
    if abs(got - want) <= tol * abs(want):
        return []
    return [f"{label} = {got!r}, expected {want!r} to {tol:g} relative"]


def _over_streams(name: str, make: Callable[[int], Op]) -> Op:
    """Operation ``name``: ``make(stream_id)`` for each of its streams in turn.

    The payload is the streams' payloads, one per line; failures and failed
    assertions carry their stream id.
    """
    stream_ids = [k * STREAM_STEP for k in range(STREAMS.get(name, 1))]
    ops = [make(stream_id) for stream_id in stream_ids]
    if len(ops) == 1:
        return ops[0]

    def run() -> Outcome:
        outs = [op() for op in ops]
        return Outcome(
            b"\n".join(out.payload for out in outs),
            [f"stream {k}: {m}" for k, out in zip(stream_ids, outs) for m in out.failures],
            [(a, f"stream {k}: {d}") for k, out in zip(stream_ids, outs) for a, d in out.assertions_failed],
        )

    return run


def _cli_op(kind: str, parameters: dict, seed: int, n_samples: int, exact=(), stream: int = 0) -> Op:
    """A ``run_experiment`` call on a strict-JSON spec.

    ``exact`` holds ``(results key, expected value, relative tolerance)``
    for bound results whose ``value`` does not depend on the seed.
    """
    text = json.dumps(
        {
            "kind": kind,
            "parameters": parameters,
            "seed": {"seed": seed, "stream_id": stream},
            "n_samples": n_samples,
        }
    )
    spec = cli.ExperimentSpec.from_dict(json.loads(text))

    def run() -> Outcome:
        report = cli.run_experiment(spec)
        failures = []
        for key, want, tol in exact:
            failures += _relative_miss(f"{key}.value", report.results[key]["value"], want, tol)
        asserted = [
            (a["name"], a["detail"]) for a in report.results.get("assertions", []) if not a["passed"]
        ]
        return Outcome(report.canonical_bytes(), failures, asserted)

    return run


def _lebesgue_unit() -> IntensityMeasure:
    return IntensityMeasure.uniform(Window([0.0], [1.0]), 1.0, label="const:1")


def _general_bound_op(seed: int, n_outer: int, inner: int, stream: int = 0) -> Op:
    sigma = _lebesgue_unit()
    density = bounds.poisson_density(cli.parse_density_expr("const:2"), sigma)
    seed_spec = SeedSpec(seed, stream)

    def run() -> Outcome:
        result = bounds.bound_tv_general(density, sigma, n_outer, seed_spec, inner_samples=inner)
        return Outcome(_canonical(result.to_dict()), [], [])

    return run


def _coarea_op(seed: int, n_outer: int, inner: int, stream: int = 0) -> Op:
    sigma = _lebesgue_unit()
    half = Window([0.0], [0.5])
    seed_spec = SeedSpec(seed, stream)

    def count_in_half(config) -> float:
        return float(config.count_in(half))

    def run() -> Outcome:
        lhs, rhs = concentration.coarea_check(count_in_half, sigma, n_outer, seed_spec, inner_samples=inner)
        return Outcome(_canonical([lhs.to_dict(), rhs.to_dict()]), [], [])

    return run


def _oracle_op(cases) -> Op:
    def run() -> Outcome:
        values, failures = [], []
        for mu, nu, truncation, want in cases:
            got = transport.exact_oracle_discrete(mu, nu, truncation)
            values.append(got)
            failures += _relative_miss(f"oracle {mu}->{nu}", got, want, 1e-8)
        return Outcome(_canonical(values), failures, [])

    return run


def rectangular_inputs(seed: int, n_left: int, n_right: int, stream: int = 0):
    """Left sides of ``n_left`` coupled superposition pairs and right sides of
    the first ``n_right``: unequal list lengths, so the marginals are general."""
    sigma = _lebesgue_unit()
    p = cli.parse_density_expr("const:2")
    coupling = simulate.SuperpositionCoupling(sigma, p, p_sup=p.sup_on(sigma.window))
    pairs = coupling.sample_batch(n_left, SeedSpec(seed, stream))
    return [c.left for c in pairs], [c.right for c in pairs[:n_right]]


def _rectangular_op(seed: int, n_left: int, n_right: int, stream: int = 0) -> Op:
    left, right = rectangular_inputs(seed, n_left, n_right, stream)

    def run() -> Outcome:
        est = transport.estimate_rubinstein_empirical(left, right, "rho1")
        return Outcome(_canonical(est.to_dict()), [], [])

    return run


def build(workload: str, seed: int, small: bool = False) -> dict[str, Op]:
    """The operations of ``workload`` in run order (the order of ``OPS``).

    ``small`` shrinks every size for the warm-up, which touches each code
    path once before timing.
    """

    def size(full: int, tiny: int) -> int:
        return tiny if small else full

    if workload == "empirical-transport":
        return {
            "poisson-tightness": _over_streams(
                "poisson-tightness",
                lambda stream: _cli_op(
                    "verify",
                    {"scenario": "poisson-tightness", "pairs": size(400, 8)},
                    seed,
                    size(20_000, 50),
                    exact=[("bound", 1.0, 1e-9)],
                    stream=stream,
                ),
            ),
            "gibbs-bound": _cli_op(
                "verify",
                {"scenario": "gibbs-bound", **({"pairs": 8} if small else {})},
                seed,
                10_000,
                exact=[("bound", 0.1, 1e-9)],
            ),
            "rubinstein-rho2": _cli_op(
                "estimate",
                {
                    "estimator": "rubinstein",
                    "p": "const:2",
                    "window": [0, 1],
                    "metric": "rho2",
                    "coupled": True,
                    "pairs": size(200, 8),
                },
                seed,
                10_000,
            ),
        }
    if workload == "mc-bounds":
        return {
            "general-bound": _over_streams(
                "general-bound", lambda stream: _general_bound_op(seed, size(1000, 4), size(32, 2), stream)
            ),
            "surface-mc": _over_streams(
                "surface-mc",
                lambda stream: _cli_op(
                    "isoperimetry",
                    {"event": {"type": "count_leq", "k": 1}, "window": [0, 1]},
                    seed,
                    size(2000, 4),
                    stream=stream,
                ),
            ),
            "coarea": _over_streams(
                "coarea", lambda stream: _coarea_op(seed, size(1000, 4), size(32, 2), stream)
            ),
            "gibbs-sample": _cli_op(
                "sample",
                {
                    "family": "gibbs",
                    "window": [[0, 0], [1, 1]],
                    "density": f"const:{size(200, 5)}",
                    "phi": "poly:1e-5,0,6e-5",
                    "n_configs": size(10, 1),
                },
                seed,
                10_000,
            ),
            "halfline-timechange": _cli_op(
                "verify",
                {"scenario": "halfline-timechange"},
                seed,
                size(20_000, 4),
                exact=[("bound_halfline", 1.0 / math.sqrt(3.0), 1e-6)],
            ),
        }
    if workload == "general-transport":
        return {
            "oracle": _oracle_op(ORACLE_WARMUP if small else ORACLE_CASES),
            "rectangular": _over_streams(
                "rectangular",
                lambda stream: _rectangular_op(seed, *((6, 3) if small else RECTANGULAR), stream),
            ),
        }
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def check_rectangular(seed: int, payload: bytes) -> list[str]:
    """Compare each stream's ``rectangular`` optimum with ``linear_sum_assignment``.

    The cost matrix is the benchmark's own (atom-multiset symmetric
    differences from the atoms' coordinate tuples, not ``ppt.metrics``).
    With every column duplicated the 300 x 150 problem with uniform
    marginals becomes a 300 x 300 assignment whose mean cost is the optimum.
    """
    import numpy as np
    from scipy.optimize import linear_sum_assignment

    failures = []
    for k, line in enumerate(payload.split(b"\n")):
        left, right = rectangular_inputs(seed, *RECTANGULAR, k * STREAM_STEP)
        sides = [[Counter(map(tuple, c.atoms.tolist())) for c in side] for side in (left, right)]
        cost = np.array([[sum(((a - b) + (b - a)).values()) for b in sides[1]] for a in sides[0]], float)
        cost = np.repeat(cost, len(left) // len(right), axis=1)
        rows, cols = linear_sum_assignment(cost)
        want = float(cost[rows, cols].sum()) / len(left)
        got = json.loads(line)["mean"]
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            failures.append(f"stream {k * STREAM_STEP}: optimum {got!r} differs from linear_sum_assignment {want!r}")
    return failures


# Checks run once after the timed passes, on an operation's first payload.
POST_CHECKS = {"rectangular": check_rectangular}
