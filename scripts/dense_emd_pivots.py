"""Pivot counts and times of ``ppt.transport.emd`` on generic dense instances.

The bench's general-transport workload solves two oracle LPs whose
least-cost start is already optimal, so it says nothing about instances
where the start is far from the optimum.  This script measures such
instances: square n x n costs (n = 50, 100, 200, 300) that are uniform
reals in [0, 1), integers 0-9, or L1 distances between uniform points of
the unit square, under uniform or Dirichlet(1) marginals; and four more
draws of the family that needs the most pivots (300 x 300, uniform real
costs, uniform marginals).  For contrast it also solves the bench's two
oracle LPs (``exact_oracle_discrete`` at truncations 17 and 18).  Two
families reach +inf costs: the bidiagonal ``where(band.T, 1, inf)`` on
uniform marginals (n = 200, 400, 800), and dense empirical estimates on
tied integer costs through ``estimate_rubinstein_empirical`` with a
callable metric, which make both solves, the mean's and the dispersion's,
whose costs are +inf off the optimal face.  Their n x n costs are integers
0-2 or 0-9, drawn per cell or as the gaps |u_i - v_j| between two drawn
lists.  For each instance it prints the number of pivots, the fastest of
``--repeats`` solve times, the optimal cost (the estimate's mean and
std_error for an estimate), and the cost of the first initial basis, whose
excess over the optimum is what the pivots have to remove.

Usage::

    python scripts/dense_emd_pivots.py [--src DIR] [--repeats K] > out.json

``--src`` is the ``src`` directory of the checkout to measure (default:
this one), so two checkouts can be compared on the same instances.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

COSTS = ("uniform-real", "integer", "l1")
MARGINALS = ("uniform", "dirichlet")
ORACLE_LPS = (([0.5, 0.5], [1.0, 1.0], 17), ([1.0, 0.5], [2.0, 1.5], 18))
BIDIAGONAL = (200, 400, 800)
ESTIMATES = ((150, 3), (300, 3), (150, 10), (250, 10))  # n, number of integer cost values
ESTIMATE_COSTS = ("integer", "integer-gap")


def instance(n: int, cost: int, marginal: int, draw: int = 0):
    rng = np.random.default_rng([n, cost, marginal, draw])
    if COSTS[cost] == "uniform-real":
        C = rng.uniform(0.0, 1.0, size=(n, n))
    elif COSTS[cost] == "integer":
        C = rng.integers(0, 10, size=(n, n)).astype(float)
    else:
        x, y = rng.uniform(size=(n, 2)), rng.uniform(size=(n, 2))
        C = np.abs(x[:, None, :] - y[None, :, :]).sum(-1)
    if MARGINALS[marginal] == "uniform":
        a = b = np.full(n, 1.0 / n)
    else:
        a, b = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))
    return a, b, C


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(pathlib.Path(__file__).resolve().parent.parent / "src"))
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from ppt import Configuration, Window, estimate_rubinstein_empirical, transport

    pivots, start_costs = [0], []
    replace_arc, initial_basis = transport._TreeBasis.replace_arc, transport._initial_basis

    def counted_pivot(basis, *rest):
        pivots[0] += 1
        return replace_arc(basis, *rest)

    def recorded_start(*rest):
        basis = initial_basis(*rest)
        start_costs.append(sum(c * x for (_, _, c), x in zip(basis.arcs, basis.flows)))
        return basis

    transport._TreeBasis.replace_arc = counted_pivot
    transport._initial_basis = recorded_start

    cases = [(n, c, mg, 0) for n in (50, 100, 200, 300) for c in range(len(COSTS)) for mg in range(len(MARGINALS))]
    cases += [(300, 0, 0, draw) for draw in (1, 2, 3, 4)]

    def measured(solve) -> dict:
        best = float("inf")
        for _ in range(args.repeats):
            pivots[0] = 0
            start_costs.clear()
            t = time.perf_counter()
            cost = solve()
            best = min(best, time.perf_counter() - t)
        return {"pivots": pivots[0], "seconds": best, "cost": cost, "start_cost": start_costs[0]}

    out = []
    for n, c, mg, draw in cases:
        a, b, C = instance(n, c, mg, draw)
        record = measured(lambda: transport.emd(a, b, C).cost)
        out.append({"n": n, "costs": COSTS[c], "marginals": MARGINALS[mg], "draw": draw, **record})
    for mu, nu, truncation in ORACLE_LPS:
        record = measured(lambda: transport.exact_oracle_discrete(mu, nu, truncation))
        out.append({"n": (truncation + 1) ** 2, "costs": "oracle", "marginals": "product-poisson", "draw": 0, **record})
    for n in BIDIAGONAL:
        band = np.eye(n, dtype=bool) | np.eye(n, k=1, dtype=bool)
        w = np.full(n, 1.0 / n)
        C = np.where(band.T, 1.0, np.inf)
        record = measured(lambda: transport.emd(w, w, C).cost)
        out.append({"n": n, "costs": "bidiagonal-inf", "marginals": "uniform", "draw": 0, **record})
    for (n, values), costs in ((case, costs) for costs in ESTIMATE_COSTS for case in ESTIMATES):
        rng = np.random.default_rng([n, values])
        if costs == "integer":
            C = rng.integers(0, values, size=(n, n)).astype(float)
        else:
            u, v = rng.integers(0, values, size=n), rng.integers(0, values, size=n)
            C = np.abs(u[:, None] - v[None, :]).astype(float)
        # empty configurations, told apart by identity: the metric reads C
        mu = [Configuration(np.empty((0, 1)), Window([0.0], [1.0])) for _ in range(n)]
        nu = [Configuration(np.empty((0, 1)), Window([0.0], [1.0])) for _ in range(n)]
        row, col = {id(x): i for i, x in enumerate(mu)}, {id(y): j for j, y in enumerate(nu)}
        metric = lambda x, y: C[row[id(x)], col[id(y)]]

        def estimate():
            est = estimate_rubinstein_empirical(mu, nu, metric)
            return [est.mean, est.std_error]

        record = measured(estimate)
        out.append({"n": n, "costs": f"{costs}-0-{values - 1}-estimate", "marginals": "uniform", "draw": 0, **record})
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
