"""Exact discrete optimal transport.

* ``assignment_solve``: minimum-cost perfect matching on a square finite cost
  matrix (shortest augmenting paths with dual potentials, O(n^3)).
* ``emd``: exact transportation LP by a dense network simplex in double
  precision.  Pricing is most-negative-reduced-cost, switching to Bland's
  rule after a run of degenerate pivots so the method cannot cycle;
  optimality is certified by a complementary-slackness residual check.
  The simplex starts from the least-cost basis: the cells are visited by
  increasing cost, ties by row, then column (the order of a stable sort,
  obtained from numpy's faster unstable sort by regrouping each run of tied
  costs in flat-index order), and each cell whose row and column are both
  open takes min(row left, column left) and closes one of the two: the row
  when it has no more left than the column and is not the last open row,
  else the column.  That gives n + m - 1 arcs forming a spanning tree of
  the n + m rows and columns, rooted at the last row.  A +inf cell is
  visited at a big-M cost, after every finite one.
  The spanning tree is oriented from the root once, for the starting basis;
  each pivot then re-orients only the subtree that the leaving arc cuts off
  (re-rooted at the entering arc's endpoint, after Bonneel et al. 2011), so
  parents, depths and potentials are those a full rebuild would give.
  Pricing is incremental in the same way: the reduced costs are computed in
  full once, and after a pivot only the rows and columns of the re-oriented
  subtree are recomputed, with the same expression, so every reduced cost
  has the bits of a full pass; a subtree of more than a quarter of the
  nodes is repriced with the full pass instead.  The final flows are
  re-derived by leaf elimination in an order fixed by the tree alone.
* ``estimate_rubinstein_empirical`` / ``dual_lower_bound``: primal and dual
  empirical estimates of the transport distance between point-process laws.
  ``dual_from_values`` is the dual's arithmetic on the witness values alone,
  for witnesses whose law can be drawn without the configurations.
  rho0, and rho1 when each configuration shares atoms with at most one of
  the other list (as coupled samples do), are solved in closed form from
  interned atoms in integer arithmetic, with no cost matrix and no LP.
  Every other case is solved densely, by two ``emd`` solves, the second
  started from the first one's optimal tree, re-costed.  The mean is the
  exact cost of the plan the simplex stops at (of the optimum itself in
  closed form), rounded once; where costs tie in decimal but not in binary,
  that plan's cost can exceed the optimum by about 1e-15 relative.  The
  std_error comes from the largest cost dispersion over all optimal plans.
  Dense matrices for the named metrics are built without a metric call per
  pair: rho0/rho1 from the shared-atom pairs, rho2 only on pairs of equal
  atom count (+inf elsewhere).  Before any rho2 value is computed, a count screen decides
  from the atom counts alone whether uniform marginals admit a finite plan;
  if not, the estimate is +inf and no matrix is built.  User-supplied
  metrics are called once per pair.
* ``exact_oracle_discrete``: independent small-instance oracle for the
  transport distance between product-Poisson count laws under L1 cost.

Infinite costs are allowed in ``emd``: one breadth-first max-flow screen over
the finite-cost arcs decides, for any marginals, whether a finite plan exists,
and an infeasible instance yields cost ``+inf`` rather than an error.  Only
the screen answers ``+inf``; mass left on an infinite-cost arc after the
simplex raises ``InternalConsistencyError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Configuration, Estimate
from .errors import InternalConsistencyError, TruncationError, ValidationError

__all__ = [
    "TransportPlan",
    "assignment_solve",
    "emd",
    "estimate_rubinstein_empirical",
    "doubling_diagnostic",
    "dual_lower_bound",
    "dual_from_values",
    "exact_oracle_discrete",
]

_MARGINAL_TOL = 1e-12
_CS_RESIDUAL_TOL = 1e-9
_OPT_REL = 1e-11  # the simplex stops when no reduced cost is below -_OPT_REL * max C
_ORACLE_MAX_CELLS = 1 << 22  # 32 MiB per dense float matrix of the oracle's LP


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Nonnegative coupling of two finite weighted families.

    Row sums reproduce ``row_marginals`` and column sums ``col_marginals`` to
    1e-12 absolute; ``cost`` is sum(weights * costs) with inf*0 treated as 0.
    An infeasible instance is represented by zero weights and cost +inf.
    """

    weights: np.ndarray
    row_marginals: np.ndarray
    col_marginals: np.ndarray
    cost: float

    def __post_init__(self):
        w = np.asarray(self.weights, float)
        a = np.asarray(self.row_marginals, float)
        b = np.asarray(self.col_marginals, float)
        if w.shape != (a.size, b.size):
            raise ValidationError("plan shape does not match marginals")
        if math.isinf(self.cost):
            return
        if np.any(w < -1e-15):
            raise ValidationError("plan weights must be nonnegative")
        if np.max(np.abs(w.sum(axis=1) - a)) > 1e-12 or np.max(np.abs(w.sum(axis=0) - b)) > 1e-12:
            raise ValidationError("plan does not reproduce its marginals to 1e-12")


# --------------------------------------------------------------------------
# assignment
# --------------------------------------------------------------------------


def assignment_solve(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimum-cost perfect matching of a square finite cost matrix.

    Returns ``(perm, value)`` with row i matched to column perm[i].  The value
    is unique even when the optimal permutation is not.
    """
    C = np.asarray(cost, float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValidationError(f"assignment requires a square matrix, got {C.shape}")
    if C.size and not np.all(np.isfinite(C)):
        raise ValidationError("assignment requires finite entries")
    n = C.shape[0]
    if n == 0:
        return np.empty(0, dtype=int), 0.0

    INF = float("inf")
    # column j is matched to row col_match[j]; index n is a virtual column
    col_match = np.full(n + 1, -1, dtype=int)
    u = np.zeros(n)  # row potentials
    v = np.zeros(n + 1)  # column potentials
    for i in range(n):
        col_match[n] = i
        j_cur = n
        min_to = np.full(n + 1, INF)
        prev = np.full(n + 1, -1, dtype=int)
        in_tree = np.zeros(n + 1, dtype=bool)
        while col_match[j_cur] != -1:
            in_tree[j_cur] = True
            row = col_match[j_cur]
            # relax slacks from the newly added row to columns outside the tree
            slack = C[row, :] - u[row] - v[:n]
            better = ~in_tree[:n] & (slack < min_to[:n])
            min_to[:n][better] = slack[better]
            prev[:n][better] = j_cur
            masked = np.where(in_tree[:n], INF, min_to[:n])
            j_next = int(np.argmin(masked))
            delta = float(masked[j_next])
            if not math.isfinite(delta):
                raise InternalConsistencyError("assignment tree ran out of columns")
            # dual update keeps reduced costs nonnegative and tree edges tight;
            # every in-tree column (incl. the virtual one) is matched, so the
            # fancy index below hits each affected row exactly once
            tree_cols = np.nonzero(in_tree)[0]
            u[col_match[tree_cols]] += delta
            v[tree_cols] -= delta
            min_to[~in_tree] -= delta
            j_cur = j_next
        while j_cur != n:
            col_match[j_cur] = col_match[prev[j_cur]]
            j_cur = prev[j_cur]

    perm = np.empty(n, dtype=int)
    for j in range(n):
        perm[col_match[j]] = j
    # left-to-right accumulation so comparisons against brute-force sums are exact
    value = 0.0
    for i in range(n):
        value += float(C[i, perm[i]])
    return perm, value


# --------------------------------------------------------------------------
# transportation network simplex
# --------------------------------------------------------------------------


class _TreeBasis:
    """Spanning-tree basis over nodes 0..n-1 (rows) and n..n+m-1 (cols):
    n + m - 1 arcs, rooted at the last row, n - 1.

    Arcs are (from_node, to_node, cost); potentials satisfy
    pot[from] - pot[to] = cost on every basic arc, pot[root] = 0.  A node's
    parent, depth and potential depend only on its path from the root: the
    potential is accumulated along that path, one arc at a time, so the same
    tree gives the same bits however it was reached.  ``moved`` lists the
    nodes that the last ``rebuild`` or ``replace_arc`` oriented; no other
    node's potential changed.
    """

    def __init__(self, n: int, m: int, arcs: list, flows: list):
        self.n, self.m = n, m
        self.nodes = n + m
        self.arcs = arcs
        self.flows = flows
        self.rebuild()

    def rebuild(self) -> None:
        """Orient the whole tree from the root (a starting basis only)."""
        self.incident: list[set[int]] = [set() for _ in range(self.nodes)]
        for idx, (f, t, _) in enumerate(self.arcs):
            self.incident[f].add(idx)
            self.incident[t].add(idx)
        root = self.n - 1
        # lists: the pivot loop reads these one node at a time
        self.parent = [-1] * self.nodes
        self.parent_arc = [-1] * self.nodes
        self.depth = [0] * self.nodes
        self.pot = np.zeros(self.nodes)
        self.moved = self._orient_below(root, root)
        if len(self.moved) != self.nodes:
            raise InternalConsistencyError("transport basis is not a spanning tree")

    def replace_arc(self, leave: int, arc: tuple[int, int, float], inner: int) -> None:
        """Swap basic arc ``leave`` for ``arc`` and re-orient only the subtree
        that removing ``leave`` cuts off from the root.

        ``inner`` is the endpoint of ``arc`` inside that subtree; the subtree
        is re-rooted there and hung from the other endpoint.  Every other
        node keeps its root path, hence its parent, depth and potential.
        """
        lf, lt, _ = self.arcs[leave]
        self.incident[lf].discard(leave)
        self.incident[lt].discard(leave)
        f, t, c = arc
        self.arcs[leave] = arc
        self.incident[f].add(leave)
        self.incident[t].add(leave)
        outer = t if inner == f else f
        self.parent[inner] = outer
        self.parent_arc[inner] = leave
        self.depth[inner] = self.depth[outer] + 1
        self.pot[inner] = self.pot[outer] - c if f == outer else self.pot[outer] + c
        self.moved = self._orient_below(inner, outer)

    def _orient_below(self, top: int, outside: int) -> list[int]:
        """Set parent, depth and potential of every node below ``top``.

        Returns the nodes reached, ``top`` first.  Reaching the root or
        ``outside`` again means the arcs below ``top`` do not form a subtree
        hanging from it.
        """
        arcs, incident = self.arcs, self.incident
        parent, parent_arc, depth, pot = self.parent, self.parent_arc, self.depth, self.pot
        root, limit = self.n - 1, self.nodes
        stack = [top]
        reached = []
        while stack:
            node = stack.pop()
            reached.append(node)
            if len(reached) > limit:
                raise InternalConsistencyError("transport basis is not a spanning tree")
            up = parent_arc[node]
            below = depth[node] + 1
            for idx in incident[node]:
                if idx == up:
                    continue
                f, t, c = arcs[idx]
                nxt = t if f == node else f
                if nxt == root or nxt == outside:
                    raise InternalConsistencyError("transport basis is not a spanning tree")
                parent[nxt] = node
                parent_arc[nxt] = idx
                depth[nxt] = below
                pot[nxt] = pot[node] - c if f == node else pot[node] + c
                stack.append(nxt)
        return reached

    def cycle(self, fi: int, ti: int) -> list[tuple[int, bool, int]]:
        """The tree arcs on the cycle that the arc fi -> ti closes, as
        ``(arc_index, loses_flow, endpoint)``: those climbing from fi to the
        common ancestor, then those climbing from ti.  Pushing flow along
        fi -> ti, an arc loses flow when it points up on fi's side or down on
        ti's side; ``endpoint`` is fi or ti, the side the arc lies on.
        """
        parent, parent_arc, depth, arcs = self.parent, self.parent_arc, self.depth, self.arcs
        left, right = [], []
        a, b = fi, ti
        while a != b:
            if depth[a] >= depth[b]:
                idx = parent_arc[a]
                a = parent[a]
                left.append((idx, arcs[idx][1] == a, fi))
            else:
                idx = parent_arc[b]
                b = parent[b]
                right.append((idx, arcs[idx][1] != b, ti))
        return left + right


def _least_cost_order(C: np.ndarray) -> np.ndarray:
    """The flat row-major indices of ``C`` by increasing cost, ties by row,
    then column: ``np.argsort(C, axis=None, kind="stable")``, element for
    element, without the stable sort.

    numpy's default argsort orders the values, but not the cells within a
    run of equal values.  The runs are numbered, and one sort of the keys
    (run, flat index) puts each run in flat-index order; (value, flat index)
    is a strict total order, so the result is the stable order.  -0.0 and
    0.0 compare equal, so they share a run, as in the stable sort.
    """
    v = C.ravel()  # row-major whatever the layout of C
    order = np.argsort(v)
    s = v[order]
    new_run = s[1:] != s[:-1]
    shift = (v.size - 1).bit_length()  # a flat index fits below this bit
    key = s.view(np.int64)  # the keys take the sorted values' buffer
    key[0] = 0
    np.multiply(new_run, 1 << shift, out=key[1:])
    np.cumsum(key, out=key)  # run number, shifted
    key |= order
    key.sort()
    key &= (1 << shift) - 1
    return key


def _initial_basis(a: np.ndarray, b: np.ndarray, Cw: np.ndarray) -> _TreeBasis:
    """The least-cost basis of ``Cw`` (+inf already the big M; the rule is in
    the module docstring): n + m - 1 arcs, rooted at the last row."""
    n, m = Cw.shape
    arcs: list[tuple[int, int, float]] = []
    flows: list[float] = []
    ra, rb = a.tolist(), b.tolist()
    row_open, col_open = np.ones(n, dtype=bool), np.ones(m, dtype=bool)
    rows_left, cols_left = n, m
    order = _least_cost_order(Cw)
    start, step = 0, n + m
    # a line is closed only while another of its kind stays open, so a cell
    # with both open is always ahead; were the order used up, the short tree
    # would fail rebuild's check rather than loop
    while len(arcs) < n + m - 1 and start < order.size:
        cells = order[start : start + step]
        start, step = start + step, 2 * step
        # only cells whose row and column are both open; each visit closes one
        cells = cells[row_open[cells // m] & col_open[cells % m]]
        for i, j in zip((cells // m).tolist(), (cells % m).tolist()):
            if not (row_open[i] and col_open[j]):
                continue  # closed earlier in this slice
            take = min(ra[i], rb[j])
            arcs.append((i, n + j, float(Cw[i, j])))
            flows.append(take)
            ra[i] -= take
            rb[j] -= take
            if rows_left + cols_left == 2:
                break  # the last open row and column: the tree is complete
            # the last open column holds every open row's remainder, so only
            # rounding could make it the smaller side; it stays open
            if cols_left == 1 or (rows_left > 1 and ra[i] <= rb[j]):
                row_open[i] = False
                rows_left -= 1
            else:
                col_open[j] = False
                cols_left -= 1
    return _TreeBasis(n, m, arcs, flows)


def _network_simplex(
    a: np.ndarray, b: np.ndarray, C: np.ndarray, start: _TreeBasis | None = None
) -> tuple[np.ndarray, float, np.ndarray, _TreeBasis | None]:
    """Solve the dense transportation problem; +inf cost when the
    feasibility screen finds no finite plan.

    +inf costs are worked as a big M.  The start is the least-cost basis, or
    ``start``, the final tree of a solve with the same marginals, re-costed:
    it is feasible when no arc of it with flow costs +inf here.  The plan is
    the flows on the final tree's n + m - 1 arcs.  Also returns the reduced
    costs under the final potentials and the final tree (+inf and None
    without a finite plan); the plan is optimal among the plans supported on
    the arcs where they are at most ``opt_eps``.
    """
    n, m = C.shape
    top = float(C.max(initial=0.0))  # the costs are checked: no NaN
    all_finite = top < math.inf
    if not all_finite:
        finite = np.isfinite(C)
        if not _feasible_on_finite(a, b, finite):
            return np.zeros((n, m)), float("inf"), np.full((n, m), math.inf), None
        top = float(C[finite].max(initial=0.0))
    scale = max(top, 1.0)
    big_m = 4.0 * scale * (n + m)  # the working cost of a +inf cell
    # read only below: on all-finite costs the caller's matrix is used as is
    Cw = C if all_finite else np.where(finite, C, big_m)

    total = float(a.sum())
    flow_eps = 1e-14 * max(total, 1.0)
    opt_eps = _OPT_REL * top  # scaling C by 2^k scales it and every reduced cost alike

    if start is None:
        basis = _initial_basis(a, b, Cw)
    else:
        arcs = [(f, t, float(Cw[f, t - n])) for f, t, _ in start.arcs]
        basis = _TreeBasis(n, m, arcs, list(start.flows))
    parent, flows = basis.parent, basis.flows

    rc = np.empty((n, m))  # reduced costs, kept up to date in place
    flat = rc.ravel()
    _reprice(rc, Cw, basis.pot, basis.moved)
    degenerate_run = 0
    bland = False
    max_iters = 200 * (n + m) * max(n, m) + 10_000
    iters = 0
    while True:
        iters += 1
        if iters > max_iters:
            raise InternalConsistencyError("network simplex exceeded its iteration budget")
        # Bland: the first arc with a negative reduced cost; otherwise the most negative
        k = int(np.argmax(flat < -opt_eps)) if bland else int(np.argmin(flat))
        if flat[k] >= -opt_eps:
            break
        ei, ej = divmod(k, m)
        fi, ti = ei, n + ej
        if parent[fi] == ti or parent[ti] == fi:
            break  # numerically tight basic arc; optimal within tolerance
        cycle = basis.cycle(fi, ti)

        # the leaving arc: least flow among those that lose it
        theta = math.inf
        leave = -1
        inner = -1  # the entering arc's endpoint on the leaving arc's side
        for arc_idx, loses, side in cycle:
            if loses:
                x = flows[arc_idx]
                if x < theta - 1e-18:
                    theta, leave, inner = x, arc_idx, side
                elif x <= theta + 1e-18 and 0 <= leave and arc_idx < leave:
                    leave, inner = arc_idx, side  # smallest-index tie-break, pairs with Bland entering
        if leave < 0:
            raise InternalConsistencyError("no leaving arc on the pivot cycle")
        theta = max(0.0, float(theta))
        for arc_idx, loses, _ in cycle:
            flows[arc_idx] += -theta if loses else theta

        basis.replace_arc(leave, (fi, ti, float(Cw[ei, ej])), inner)
        flows[leave] = theta
        _reprice(rc, Cw, basis.pot, basis.moved)

        if theta <= flow_eps:
            degenerate_run += 1
            if degenerate_run > 50:
                bland = True  # anti-cycling
        else:
            degenerate_run = 0
            bland = False

    _recompute_tree_flows(basis, a, b)
    plan = np.zeros((n, m))
    for (f, t, _), x in zip(basis.arcs, flows):
        plan[f, t - n] = max(0.0, x)
    if not all_finite and np.any(plan[~finite] > 1e-9 * max(total, 1.0)):
        # the screen found a finite plan, so the simplex must have reached one
        raise InternalConsistencyError("simplex left mass on an infinite-cost arc")

    # recomputed in full from the final potentials: the residual check does
    # not rest on the values maintained by the pivots
    np.subtract(Cw, basis.pot[:n, None], out=rc)
    rc += basis.pot[None, n : n + m]
    residual = max(0.0, -float(rc.min())) if rc.size else 0.0
    if residual > _CS_RESIDUAL_TOL * scale:
        raise InternalConsistencyError(
            f"complementary slackness residual {residual:.3e} above tolerance"
        )
    unit = 2.0 ** max(-1000, min(0, math.frexp(top)[1]))  # a power of two: tiny costs' products stay normal
    cost = float(np.sum(plan * ((C if all_finite else np.where(finite, C, 0.0)) / unit))) * unit
    return plan, cost, rc, basis


def _reprice(rc: np.ndarray, Cw: np.ndarray, pot: np.ndarray, moved: list[int]) -> None:
    """Bring the reduced costs ``rc = (Cw - pot[rows]) + pot[cols]`` up to
    date after the potentials of the nodes ``moved`` changed.

    Only the rows and columns of those nodes are recomputed, with the
    expression of the full pass, so every entry has the bits a full pass
    would give it.  When the nodes are more than a quarter of all rows and
    columns, gathering theirs costs more than the two full passes, which run
    instead.
    """
    n, m = rc.shape
    if 4 * len(moved) > n + m:
        np.subtract(Cw, pot[:n, None], out=rc)
        rc += pot[None, n : n + m]
        return
    nodes = np.array(moved)
    rows, cols = nodes[nodes < n], nodes[nodes >= n] - n
    if rows.size:
        rc[rows] = (Cw[rows] - pot[rows, None]) + pot[None, n : n + m]
    if cols.size:
        rc[:, cols] = (Cw[:, cols] - pot[:n, None]) + pot[None, n + cols]


def _recompute_tree_flows(basis: _TreeBasis, a: np.ndarray, b: np.ndarray) -> None:
    """Re-derive basic flows from the marginals by leaf elimination.

    Tree flows are uniquely determined by conservation, so recomputing them as
    signed partial sums of marginal entries removes any rounding accumulated
    over pivots; the plan then reproduces its marginals to machine precision.
    Leaves go deepest first, ties by node index, highest first (a stable
    sort), so the bits come from the tree alone; the root, alone at depth 0,
    comes last and has no arc.
    """
    supply = [*a.tolist(), *(-b).tolist()]  # rows, then columns
    floor = -1e-9 * max(float(np.sum(a)), 1.0)
    arcs, parent, parent_arc, flows = basis.arcs, basis.parent, basis.parent_arc, basis.flows
    for node in np.argsort(basis.depth, kind="stable")[:0:-1].tolist():
        arc_idx = parent_arc[node]
        flow = supply[node] if arcs[arc_idx][0] == node else -supply[node]
        if flow < floor:
            raise InternalConsistencyError("negative basic flow after leaf elimination")
        flows[arc_idx] = max(0.0, flow)
        supply[parent[node]] += supply[node]


def _feasible_on_finite(a: np.ndarray, b: np.ndarray, finite: np.ndarray) -> bool:
    """Can all of ``a``'s mass reach ``b`` through finite-cost arcs?

    Max-flow by breadth-first augmenting paths (Edmonds & Karp), drained one
    row at a time; with uniform marginals this is Kuhn's matching.  A row
    that gets stuck stays stuck: the rows its search reaches send flow only
    to columns it reaches, all full, so no later path can pass through them.
    The flow is maximal once every row has been tried.  Arcs and nodes
    holding at most 1e-15 count as empty; up to 1e-12 * max(total, 1) of
    mass may stay unrouted.
    """
    n, m = finite.shape
    arcs = np.flatnonzero(finite)  # one scan of the mask, cut into rows
    starts = np.searchsorted(arcs, np.arange(n + 1) * m).tolist()
    cols = (arcs % m).tolist()
    adj = [cols[starts[i] : starts[i + 1]] for i in range(n)]
    row_rem, col_rem = a.tolist(), b.tolist()
    into: list[dict[int, float]] = [{} for _ in col_rem]  # column -> {row: flow}
    total = float(a.sum())
    slack = 1e-12 * max(total, 1.0)
    pushed = 0.0
    for root in range(n):
        while row_rem[root] > 1e-15:
            reached_from = {}  # column -> the row whose search reached it
            came_by = {root: -1}  # row -> the column it was reached through
            queue, free = [root], -1
            for i in queue:  # grows while it is read: breadth-first
                for j in adj[i]:
                    if col_rem[j] > 1e-15:  # every column reached so far is full
                        reached_from[j] = i
                        free = j
                        break
                if free >= 0:
                    break
                for j in adj[i]:
                    if j not in reached_from:
                        reached_from[j] = i
                        for i2, x in into[j].items():
                            if x > 1e-15 and i2 not in came_by:
                                came_by[i2] = j
                                queue.append(i2)
            if free < 0:
                if row_rem[root] > slack:
                    return False  # this mass can never be routed
                break
            # the path alternates forward arcs (row, column reached from it)
            # and backward arcs (row, column it was reached through)
            push = min(row_rem[root], col_rem[free])
            i = reached_from[free]
            while i != root:
                j = came_by[i]
                push = min(push, into[j][i])
                i = reached_from[j]
            j = free
            while j >= 0:
                i = reached_from[j]
                into[j][i] = into[j].get(i, 0.0) + push
                j = came_by[i]
                if j >= 0:
                    into[j][i] -= push
            row_rem[root] -= push
            col_rem[free] -= push
            pushed += push
    return total - pushed <= slack


def emd(a, b, cost: np.ndarray) -> TransportPlan:
    """Exact optimal transport plan between weighted finite families.

    ``a`` and ``b`` are probability vectors (sums within 1e-12 of 1).  When
    one feasibility screen finds no plan of finite cost, the plan carries
    ``cost = +inf`` with zero weights.  The simplex stops once no reduced cost
    is below -1e-11 times the largest finite cost, so scaling finite costs by
    a power of two (short of underflow) keeps the plan and scales the cost.
    """
    return _emd_with_reduced_costs(a, b, cost)[0]


def _emd_with_reduced_costs(a, b, cost, start=None) -> tuple[TransportPlan, np.ndarray, _TreeBasis | None]:
    """:func:`emd`, plus the reduced costs under the optimal potentials that
    the simplex ends with and its final tree, which may start a later solve
    with the same marginals (see :func:`_network_simplex`)."""
    a = np.asarray(a, float).reshape(-1)
    b = np.asarray(b, float).reshape(-1)
    C = np.asarray(cost, float)
    if C.shape != (a.size, b.size):
        raise ValidationError(f"cost shape {C.shape} does not match marginals")
    if not (np.all(a >= 0) and np.all(b >= 0)):  # NaN fails too
        raise ValidationError("marginals must be nonnegative numbers")
    if abs(a.sum() - 1.0) > _MARGINAL_TOL or abs(b.sum() - 1.0) > _MARGINAL_TOL:
        raise ValidationError("marginals must sum to 1 within 1e-12")
    if not (C >= 0).all():  # NaN fails too
        raise ValidationError("costs must be nonnegative (inf allowed)")
    plan, value, rc, tree = _network_simplex(a, b, C, start)
    return TransportPlan(weights=plan, row_marginals=a, col_marginals=b, cost=value), rc, tree


# --------------------------------------------------------------------------
# empirical Rubinstein estimates
# --------------------------------------------------------------------------


def _cost_matrix(samples_mu, samples_nu, metric, count_mu, count_nu) -> np.ndarray:
    """Matrix of ``metric``, rho2 or a callable, between every configuration
    of ``samples_mu`` (rows) and of ``samples_nu`` (columns), whose windows
    :func:`_atom_counts` has checked and whose atom counts it gave.

    A callable is called once per pair.  rho2 is called only on pairs of
    equal atom count, every other entry being +inf; each entry equals the
    per-pair ``metrics.rho2`` value bit for bit.  rho0 and rho1 never need
    this matrix: :func:`_moments` solves them from groups of equal multisets
    and from shared-atom counts (:func:`_rho1_matrix`), so their names are
    rejected here as any other string is.
    """
    if callable(metric):
        return np.array([[metric(x, y) for y in samples_nu] for x in samples_mu], dtype=float)
    if metric != "rho2":
        raise ValidationError(f"unknown metric {metric!r}; expected rho0, rho1 or rho2")
    from . import metrics  # deferred: metrics.rho2 delegates back to assignment_solve

    C = np.full((count_mu.size, count_nu.size), math.inf)
    for i, j in zip(*np.nonzero(count_mu[:, None] == count_nu[None, :])):
        C[i, j] = metrics.rho2(samples_mu[i], samples_nu[j])
    return C


def _atom_counts(samples_mu, samples_nu) -> tuple[np.ndarray, np.ndarray]:
    """Atom counts of every configuration, once all are checked to share
    one window."""
    windows = {c.window for c in samples_mu} | {c.window for c in samples_nu}
    if len(windows) > 1:
        raise ValidationError("configurations must share one window")
    count_mu = np.array([c.n for c in samples_mu], dtype=np.int64)
    count_nu = np.array([c.n for c in samples_nu], dtype=np.int64)
    return count_mu, count_nu


def _rho2_infeasible(count_mu: np.ndarray, count_nu: np.ndarray) -> bool:
    """Whether no rho2 plan between the uniform marginals on two lists with
    these atom counts has finite cost.

    Finite rho2 entries join configurations of equal atom count, so they form
    one complete bipartite block per count k, and a finite plan exists iff
    every block balances its mass: #mu_k / n == #nu_k / m.  This is decided
    from the counts alone, before any rho2 value is computed.
    """
    classes = int(max(count_mu.max(), count_nu.max())) + 1
    per_count_mu = np.bincount(count_mu, minlength=classes) * count_nu.size
    per_count_nu = np.bincount(count_nu, minlength=classes) * count_mu.size
    return not np.array_equal(per_count_mu, per_count_nu)


def _interned_atoms(configs) -> tuple[np.ndarray, np.ndarray]:
    """Owner index and value key of every atom of ``configs`` (which share
    one window), sorted by owner, then by value key.

    Equal coordinate tuples, compared by value (so -0.0 is 0.0, as in
    ``Configuration.multiset``), get one value key.
    """
    sizes = [c.n for c in configs]
    if sum(sizes) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    atoms = np.concatenate([c.atoms for c in configs])
    owner = np.repeat(np.arange(len(configs)), sizes)
    # adding 0.0 turns -0.0 into 0.0, so tuples equal by value are equal
    # element for element.  The keys number the distinct rows in
    # lexicographic order, first coordinate first, as np.unique(axis=0)'s
    # inverse does, without its sort of a structured view of the rows.
    atoms = atoms + 0.0
    by_row = np.lexsort(atoms.T[::-1])  # lexsort sorts by its last key first
    ordered = atoms[by_row]
    value = np.empty(len(atoms), dtype=np.int64)
    value[by_row] = np.concatenate(([0], np.cumsum((ordered[1:] != ordered[:-1]).any(axis=1))))
    # one sort of the keys (owner, value); equal keys are equal pairs
    stride = int(value.max()) + 1
    key = owner * stride + value
    key.sort()
    return key // stride, key % stride


def _rho1_per_pair(lefts, rights) -> np.ndarray:
    """``metrics.rho1(lefts[i], rights[i])`` for every i, as one int64 array.

    Atoms are interned (:func:`_interned_atoms`), so values are compared as
    ``Configuration.multiset`` compares them.  A left atom counts +1 and a
    right atom -1 towards its (pair, value) key; a pair's rho1 is the sum of
    |net count| over its keys.  The sums are of integers far below 2^53, so
    the float arithmetic is exact.
    """
    owner, value = _interned_atoms([c for pair in zip(lefts, rights) for c in pair])
    if owner.size == 0:
        return np.zeros(len(lefts), dtype=np.int64)
    stride = int(value.max()) + 1
    keys, which = np.unique((owner >> 1) * stride + value, return_inverse=True)
    net = np.bincount(which, weights=1 - 2 * (owner & 1))  # left +1, right -1
    rho = np.bincount(keys // stride, weights=np.abs(net), minlength=len(lefts))
    return rho.astype(np.int64)


def _shared_atom_pairs(samples_mu, samples_nu) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of a row and a column configuration that share atoms, and
    how many they share, with multiplicity: arrays ``rows``, ``cols`` and
    ``shared > 0``, ordered by pair.

    Atoms are interned (:func:`_interned_atoms`), and the k-th copy of a
    value within a configuration gets the key (value, k).  A configuration
    then holds each key at most once, and two configurations share
    min(k, l) copies of a value held k and l times.  Only the key matches
    are enumerated, never an n x (all atoms) incidence matrix or an n x m
    array.
    """
    n, m = len(samples_mu), len(samples_nu)
    owner, value = _interned_atoms([*samples_mu, *samples_nu])
    if owner.size == 0:
        return owner, owner, owner

    # copy index within each (configuration, value) run
    first = np.ones(owner.size, dtype=bool)
    first[1:] = (owner[1:] != owner[:-1]) | (value[1:] != value[:-1])
    position = np.arange(owner.size)
    copy = position - np.maximum.accumulate(np.where(first, position, 0))
    key = value * (int(copy.max()) + 1) + copy

    # for each row atom, the column configurations holding its key
    is_row = owner < n
    col_order = np.argsort(key[~is_row], kind="stable")
    col_key, col_owner = key[~is_row][col_order], owner[~is_row][col_order] - n
    row_key, row_owner = key[is_row], owner[is_row]
    lo = np.searchsorted(col_key, row_key, side="left")
    hits = np.searchsorted(col_key, row_key, side="right") - lo
    offset = np.repeat(lo - (np.cumsum(hits) - hits), hits)
    cols = col_owner[offset + np.arange(offset.size)]
    pairs, shared = np.unique(np.repeat(row_owner, hits) * m + cols, return_counts=True)
    return pairs // m, pairs % m, shared


def _rho1_matrix(count_mu, count_nu, rows, cols, shared) -> np.ndarray:
    """rho1 = n_i + n_j - 2 * shared_ij as an integer matrix."""
    S = np.zeros((count_mu.size, count_nu.size), dtype=np.int64)
    S[rows, cols] = shared
    return count_mu[:, None] + count_nu[None, :] - 2 * S


def _multiset_groups(samples_mu, samples_nu) -> tuple[np.ndarray, np.ndarray]:
    """A group index for every configuration of the two lists: equal
    indices exactly for equal multisets of atoms (rho0 = 0)."""
    configs = [*samples_mu, *samples_nu]
    _, value = _interned_atoms(configs)
    values = value.tolist()
    ends = np.cumsum([c.n for c in configs]).tolist()
    index: dict[tuple, int] = {}
    group = [index.setdefault(tuple(values[s:e]), len(index)) for s, e in zip([0, *ends[:-1]], ends)]
    n = len(samples_mu)
    return np.array(group[:n], dtype=np.int64), np.array(group[n:], dtype=np.int64)


# The moments of an optimal uniform-marginal transport between n rows and m
# columns: (mean, dispersion), each computed exactly and rounded once.  The
# mean is the optimal cost; the dispersion is the largest
# sum(w * (C - mean)^2) over all optimal plans w.  Every vertex of the
# transport polytope with marginals 1/n and 1/m is integral in units of
# 1/(nm), so the plans below are counted in those units.


def _integer_moments(K: int, K2: int, units: int) -> tuple[float, float]:
    """Moments of a plan of ``units`` units with sum(k * C) = K and
    sum(k * C^2) = K2 (int / int rounds correctly)."""
    return K / units, (K2 * units - K * K) / (units * units)


def _rho0_moments(group_mu, group_nu) -> tuple[float, float]:
    """rho0 transport: 1 - sum over multiset groups g of min(mu(g), nu(g)).

    The costs are 0 and 1, so C^2 = C and every plan has dispersion
    v * (1 - v).
    """
    n, m = group_mu.size, group_nu.size
    classes = int(max(group_mu.max(), group_nu.max())) + 1
    kept = np.minimum(np.bincount(group_mu, minlength=classes) * m, np.bincount(group_nu, minlength=classes) * n)
    K = n * m - int(kept.sum())
    return _integer_moments(K, K, n * m)


def _rho1_matching_moments(count_mu, count_nu, rows, cols, shared) -> tuple[float, float] | None:
    """rho1 transport when the sharing graph is a partial matching: each
    configuration shares atoms with at most one of the other list.  None
    when it is not.

    Any plan costs sum_i a_i n_i + sum_j b_j n_j - 2 * sum w_ij shared_ij,
    and on a matching every sharing pair can take its full mass
    min(1/n, 1/m) at once, so the optimal plans are exactly those that do.
    The rest of the mass lies on pairs that share nothing, where it costs
    n_i + n_j whatever its arrangement; sum w * (n_i + n_j)^2 is largest
    when sum w * n_i * n_j is, which the north-west corner rule gives on
    rows and columns sorted by atom count (a comonotone fill).
    """
    n, m = count_mu.size, count_nu.size
    if rows.size and max(np.bincount(rows).max(), np.bincount(cols).max()) > 1:
        return None
    N, M = count_mu.tolist(), count_nu.tolist()
    row_left, col_left = [m] * n, [n] * m
    forced = min(n, m)
    K = K2 = 0
    for i, j, s in zip(rows.tolist(), cols.tolist(), shared.tolist()):
        c = N[i] + M[j] - 2 * s
        K += forced * c
        K2 += forced * c * c
        row_left[i] -= forced
        col_left[j] -= forced
    rest_rows = iter(sorted((N[i], r) for i, r in enumerate(row_left) if r))
    rest_cols = iter(sorted((M[j], r) for j, r in enumerate(col_left) if r))
    (x, r), (y, c) = next(rest_rows, (0, 0)), next(rest_cols, (0, 0))
    while r:  # rows and columns hold the same total, so they run out together
        t = min(r, c)
        K += t * (x + y)
        K2 += t * (x + y) ** 2
        r, c = r - t, c - t
        if not r:
            x, r = next(rest_rows, (0, 0))
        if not c:
            y, c = next(rest_cols, (0, 0))
    return _integer_moments(K, K2, n * m)


def _plan_units(weights: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """A vertex plan with marginals 1/n and 1/m in units of 1/(nm): the
    nonzero unit counts with their rows and columns."""
    n, m = weights.shape
    units = np.rint(weights * (n * m)).astype(np.int64)
    if np.any(units.sum(axis=1) != m) or np.any(units.sum(axis=0) != n):
        raise InternalConsistencyError("transport plan is not integral in units of 1/(nm)")
    rows, cols = np.nonzero(units)
    return units[rows, cols].tolist(), rows, cols


def _dense_moments(C: np.ndarray, dispersion: bool = True) -> tuple[float, float | None] | None:
    """Moments from two dense solves; None when no finite plan exists.

    The mean is the exact sum over the first plan's arcs.  The optimal plans
    are the plans supported on the arcs of zero reduced cost under the first
    solve's potentials (for float costs: at most the simplex's own
    tolerance); a second solve on those arcs, with cost 1 - (C / max C)^2,
    finds one whose sum(w * C^2) is largest, and the dispersion is exact
    over its arcs.  It starts from the first solve's final tree, whose arcs
    with flow all lie on those arcs, so it is feasible.  ``dispersion=False``
    skips the second solve.
    """
    from fractions import Fraction  # deferred: it loads decimal, which only this path needs

    n, m = C.shape
    a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
    plan, rc, tree = _emd_with_reduced_costs(a, b, C)
    if math.isinf(plan.cost):
        return None
    units, rows, cols = _plan_units(plan.weights)
    mean = sum(k * Fraction(x) for k, x in zip(units, C[rows, cols].tolist())) / (n * m)
    if not dispersion:
        return float(mean), None
    finite = np.isfinite(C)
    face = finite & ((rc <= _OPT_REL * float(C[finite].max(initial=0.0))) | (plan.weights > 0))
    top = float(C[face].max())
    scaled = np.where(face, C, 0.0) / top if top > 0 else np.zeros_like(C)
    widest = _emd_with_reduced_costs(a, b, np.where(face, 1.0 - scaled * scaled, math.inf), tree)[0]
    units, rows, cols = _plan_units(widest.weights)
    var = sum(k * (Fraction(x) - mean) ** 2 for k, x in zip(units, C[rows, cols].tolist())) / (n * m)
    return float(mean), float(var)


def _moments(samples_mu, samples_nu, metric, dispersion: bool = True) -> tuple[float, float | None] | None:
    """(mean, var) of the transport between the two lists; None when no
    plan has finite cost.

    The windows are checked and the atom counts taken once, for every
    metric.  rho0, and rho1 on a partial-matching sharing graph, have closed
    forms in integer arithmetic; rho1 on any other sharing graph is solved
    densely on its :func:`_rho1_matrix`.  rho2 is screened by its count
    classes (:func:`_rho2_infeasible`) and then, like a callable, solved
    densely on :func:`_cost_matrix`, which rejects an unknown metric.
    ``dispersion=False`` skips a dense path's second solve (var is None).
    """
    count_mu, count_nu = _atom_counts(samples_mu, samples_nu)
    if metric == "rho0":
        return _rho0_moments(*_multiset_groups(samples_mu, samples_nu))
    if metric == "rho1":
        graph = (count_mu, count_nu, *_shared_atom_pairs(samples_mu, samples_nu))
        moments = _rho1_matching_moments(*graph)
        return moments if moments is not None else _dense_moments(_rho1_matrix(*graph).astype(float), dispersion)
    if metric == "rho2" and _rho2_infeasible(count_mu, count_nu):
        return None
    return _dense_moments(_cost_matrix(samples_mu, samples_nu, metric, count_mu, count_nu), dispersion)


def estimate_rubinstein_empirical(
    samples_mu: Sequence[Configuration],
    samples_nu: Sequence[Configuration],
    metric="rho1",
) -> Estimate:
    """Plug-in transport cost between the two empirical sample measures.

    The mean is the exact cost of the plan the simplex stops at (of the
    optimum in closed form), rounded once; it can exceed the optimum by
    about 1e-15 relative where costs tie in decimal but not in binary.
    How close it sits to the population distance depends on the joint law of
    the samples: coupled lists sharing atoms tighten it dramatically,
    independent samples of diffuse processes cannot match any atoms and the
    estimate saturates at the mean total counts.

    The reported std_error is sqrt(var / min(n, m)), with var the largest
    matched-cost dispersion sum(w * (C - mean)^2) over all optimal plans w,
    rounded once.  It does not depend on which optimal plan a solver
    returns, and it is never narrower than the one some optimal plan gives.
    Empirical-measure bias is not corrected -- gauge it with
    :func:`doubling_diagnostic`.

    rho0 always, and rho1 when each configuration shares atoms with at most
    one of the other list (as the library's coupled samplers produce), are
    solved in closed form in integer arithmetic, without a cost matrix or an
    LP.  Every other case (rho1 on other sharing graphs, rho2, callables) is
    solved by two dense :func:`emd` solves: one for the optimum, one for the
    dispersion on the optimal plans.  Infinite costs (rho2 with mismatched
    counts throughout) yield mean = +inf, not an error.  Whatever the
    metric, configurations on more than one window raise ValidationError.
    """
    if not samples_mu or not samples_nu:
        raise ValidationError("sample lists must be nonempty")
    n, m = len(samples_mu), len(samples_nu)
    moments = _moments(samples_mu, samples_nu, metric)
    if moments is None:
        return Estimate(mean=float("inf"), std_error=float("inf"), n_samples=n + m, seed=None)
    mean, var = moments
    return Estimate(mean=mean, std_error=math.sqrt(var / min(n, m)), n_samples=n + m, seed=None)


def doubling_diagnostic(
    samples_mu: Sequence[Configuration],
    samples_nu: Sequence[Configuration],
    metric="rho1",
    *,
    full_mean: float | None = None,
) -> dict:
    """Convergence diagnostic: estimate on half the samples versus all of them.

    The half lists are the prefixes of the full ones, and each estimate is
    the mean :func:`estimate_rubinstein_empirical` gives on its lists.  The
    two list pairs are solved on their own, each with its own interned
    atoms or cost matrix, and without the dispersion solve.

    ``full_mean``, when given, is taken as the full lists' estimate without
    a check, and the full pair is not solved.  It must be the ``mean`` of
    ``estimate_rubinstein_empirical(samples_mu, samples_nu, metric)`` on
    these very lists and metric; any other value gives a wrong ``gap``.
    """
    n, m = len(samples_mu), len(samples_nu)
    if n < 2 or m < 2:
        raise ValidationError("need at least two samples per side")
    half = _moments(samples_mu[: n // 2], samples_nu[: m // 2], metric, dispersion=False)
    half_cost = half[0] if half else float("inf")
    full_cost = full_mean
    if full_cost is None:
        full = _moments(samples_mu, samples_nu, metric, dispersion=False)
        full_cost = full[0] if full else float("inf")
    gap = (
        abs(full_cost - half_cost)
        if math.isfinite(full_cost) and math.isfinite(half_cost)
        else float("inf")
    )
    return {
        "n_half": n // 2 + m // 2,
        "n_full": n + m,
        "estimate_half": half_cost,
        "estimate_full": full_cost,
        "gap": gap,
    }


def dual_lower_bound(
    F: Callable[[Configuration], float],
    samples_mu: Sequence[Configuration],
    samples_nu: Sequence[Configuration],
) -> Estimate:
    """Dual witness: mean of F over nu-samples minus mean over mu-samples.

    For F declared 1-Lipschitz for the chosen configuration distance, any such
    value lower-bounds the transport distance between the two laws
    (spot-check Lipschitzness with :func:`ppt.core.rademacher_check`).
    The estimate is :func:`dual_from_values` of F's values on the two lists.
    """
    return dual_from_values(
        np.array([float(F(w)) for w in samples_mu]), np.array([float(F(w)) for w in samples_nu])
    )


def dual_from_values(f_mu: np.ndarray, f_nu: np.ndarray) -> Estimate:
    """The dual estimate from a witness F's values on mu-samples and nu-samples.

    The mean is mean(f_nu) - mean(f_mu), the standard error the two sides'
    standard errors added in quadrature.  A witness whose law is known
    without the configurations, such as the count F(omega) = omega(L), can
    be drawn directly (:func:`ppt.simulate.poisson_counts`) and passed here.
    """
    fmu = np.asarray(f_mu, float)
    fnu = np.asarray(f_nu, float)
    if fmu.size == 0 or fnu.size == 0:
        raise ValidationError("sample lists must be nonempty")
    se_mu = fmu.std(ddof=1) / math.sqrt(fmu.size) if fmu.size > 1 else 0.0
    se_nu = fnu.std(ddof=1) / math.sqrt(fnu.size) if fnu.size > 1 else 0.0
    return Estimate(
        mean=float(fnu.mean() - fmu.mean()),
        std_error=float(math.hypot(se_mu, se_nu)),
        n_samples=fmu.size + fnu.size,
        seed=None,
    )


# --------------------------------------------------------------------------
# exact small-instance oracle
# --------------------------------------------------------------------------


def exact_oracle_discrete(
    cell_masses_mu: Sequence[float],
    cell_masses_nu: Sequence[float],
    truncation: int,
) -> float:
    """Exact transport distance between product-Poisson count laws, L1 cost.

    Count vectors are enumerated up to ``truncation`` per cell (at most two
    cells) and the full LP is solved.  The neglected Poisson mass must be
    below 1e-10 on each side; the truncated laws are renormalised, keeping the
    result exact to well under 1e-8.  Each side has (truncation + 1)^cells
    count vectors, and the LP's cost matrix, their number squared, may hold
    at most 2^22 entries; a larger LP raises ValidationError before
    anything is built.
    """
    mu = [float(v) for v in cell_masses_mu]
    nu = [float(v) for v in cell_masses_nu]
    if len(mu) != len(nu):
        raise ValidationError("cell mass vectors must have equal length")
    if not 1 <= len(mu) <= 2:
        raise ValidationError("oracle supports at most 2 cells")
    if not all(0 <= v < math.inf for v in mu + nu):  # NaN fails too
        raise ValidationError("cell masses must be nonnegative and finite")
    whole = int(truncation) if isinstance(truncation, float) and truncation.is_integer() else truncation
    if not isinstance(whole, (int, np.integer)) or whole < 1:  # a NaN or inf float is not whole
        raise ValidationError(f"truncation must be a whole number >= 1, got {truncation!r}")
    truncation = whole
    vectors = (truncation + 1) ** len(mu)  # count vectors per side
    if vectors * vectors > _ORACLE_MAX_CELLS:
        raise ValidationError(
            f"oracle LP on {vectors} x {vectors} count vectors exceeds {_ORACLE_MAX_CELLS} "
            "cost cells; lower the truncation"
        )

    from .concentration import poisson_pmf  # deferred: concentration imports transport through simulate

    def law(masses):
        vecs = [np.array([poisson_pmf(msv, k) for k in range(truncation + 1)]) for msv in masses]
        counts = np.arange(truncation + 1, dtype=float)
        if len(vecs) == 1:
            probs = vecs[0]
            states = counts[:, None]
        else:
            probs = np.outer(vecs[0], vecs[1]).ravel()
            g0, g1 = np.meshgrid(counts, counts, indexing="ij")
            states = np.stack([g0.ravel(), g1.ravel()], axis=1)
        neglected = 1.0 - probs.sum()
        if neglected > 1e-10:
            raise TruncationError(
                f"neglected Poisson mass {neglected:.3e} exceeds 1e-10; raise truncation"
            )
        return probs / probs.sum(), states

    pa, sa = law(mu)
    pb, sb = law(nu)
    # L1 cost, one cell at a time: sums of small integers, exact in float64
    C = np.zeros((len(pa), len(pb)))
    for k in range(sa.shape[1]):
        diff = np.subtract.outer(sa[:, k], sb[:, k])
        C += np.abs(diff, out=diff)
    plan = emd(pa, pb, C)
    return plan.cost
