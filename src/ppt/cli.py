"""Reproducible experiment runner.

``ppt <kind> --spec FILE [--out FILE] [--seed N]``

The spec file is a JSON object with strict parsing (unknown keys are
rejected, with the offending dotted path in the error).  Reports are JSON;
grid experiments additionally write a CSV side table next to the output file
(RFC-4180, header row).  Re-running an identical spec yields identical
numeric results; ``Report.canonical_bytes`` exposes exactly the
deterministic payload (spec echo, results, library version -- wall time is
excluded, being the one field that cannot be reproducible).

Execution is single-threaded with a fixed per-replicate stream fan-out.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from . import bounds as bounds_mod
from . import concentration as conc
from . import metrics, simulate, transport
from .core import (
    Configuration,
    Estimate,
    IntensityMeasure,
    SeedSpec,
    Window,
    config_from_coords,
    config_to_coords,
)
from .errors import PPTError, SpecParseError, ValidationError

KINDS = ("distance", "sample", "bound", "estimate", "tail", "isoperimetry", "verify")

__all__ = ["ExperimentSpec", "Report", "parse_density_expr", "run_experiment", "main"]


# --------------------------------------------------------------------------
# density expression grammar
# --------------------------------------------------------------------------


def _parse_floats(body: str, expr: str, offset: int, count: int | None = None) -> list[float]:
    """The comma-separated numbers of ``body``; exactly ``count`` of them unless None."""
    out = []
    pos = offset
    for tok in body.split(","):
        if tok.strip() == "":
            raise SpecParseError(f"empty number in {expr!r} at position {pos}", where=pos)
        try:
            out.append(float(tok))
        except ValueError:
            raise SpecParseError(f"bad number {tok!r} in {expr!r} at position {pos}", where=pos)
        pos += len(tok) + 1
    if count is not None and len(out) != count:
        family = expr.partition(":")[0]
        raise SpecParseError(
            f"{family} takes {count} number{'s' if count > 1 else ''}, got {len(out)} in {expr!r}",
            where=offset,
        )
    return out


def parse_density_expr(expr: str):
    """Compile a density expression into a vectorised function of the point.

    Grammar: ``const:c`` | ``poly:c0,c1,...`` (polynomial in the first
    coordinate) | ``exp:a,b`` (a * e^{b x0}) | ``step:threshold,lo,hi``.
    The returned function carries ``expr`` and ``sup_on(window)`` attributes.
    """
    if not isinstance(expr, str) or ":" not in expr:
        raise SpecParseError(f"expected '<family>:<args>', got {expr!r}", where=0)
    head, _, body = expr.partition(":")
    offset = len(head) + 1
    if head == "const":
        (c,) = _parse_floats(body, expr, offset, 1)
        if c < 0:
            raise SpecParseError(f"constant density must be nonnegative in {expr!r}", where=offset)

        def fn(x, _c=c):
            return np.full(np.shape(x)[:-1], _c)

        fn.sup_on = lambda window, _c=c: _c
    elif head == "poly":
        coeffs = _parse_floats(body, expr, offset)

        def fn(x, _co=tuple(coeffs)):
            x = np.asarray(x, float)
            t = x[..., 0]
            out = np.zeros_like(t, dtype=float)
            for c in reversed(_co):
                out = out * t + c
            return out

        def _poly_sup(window, _fn=fn):
            lo, hi = window.bounds()
            vals = _fn(np.linspace(lo[0], hi[0], 4097)[:, None])
            if np.any(vals < 0):
                raise ValidationError(f"{expr!r} is negative on the window")
            return float(vals.max()) * 1.000001 + 1e-12

        fn.sup_on = _poly_sup
    elif head == "exp":
        a, b = _parse_floats(body, expr, offset, 2)
        if a < 0:
            raise SpecParseError(f"amplitude must be nonnegative in {expr!r}", where=offset)

        def fn(x, _a=a, _b=b):
            x = np.asarray(x, float)
            return _a * np.exp(_b * x[..., 0])

        def _exp_sup(window, _a=a, _b=b):
            lo, hi = window.bounds()
            edge = hi[0] if _b >= 0 else lo[0]
            return _a * math.exp(_b * edge)

        fn.sup_on = _exp_sup
    elif head == "step":
        threshold, lo_v, hi_v = _parse_floats(body, expr, offset, 3)
        if lo_v < 0 or hi_v < 0:
            raise SpecParseError(f"step levels must be nonnegative in {expr!r}", where=offset)

        def fn(x, _t=threshold, _l=lo_v, _h=hi_v):
            x = np.asarray(x, float)
            return np.where(x[..., 0] < _t, _l, _h).astype(float)

        fn.sup_on = lambda window, _l=lo_v, _h=hi_v: max(_l, _h)
    else:
        raise SpecParseError(f"unknown density family {head!r} in {expr!r}", where=0)
    fn.expr = expr
    return fn


def _window_from_param(value, path: str) -> Window:
    try:
        arr = np.asarray(value, float)
    except Exception:
        raise SpecParseError(f"{path} must be numeric", where=path)
    if arr.ndim == 1 and arr.size == 2:
        return Window([arr[0]], [arr[1]])
    if arr.ndim == 2 and arr.shape[0] == 2:
        return Window(arr[0], arr[1])
    raise SpecParseError(f"{path} must be [lo, hi] or [[lo...], [hi...]]", where=path)


def _intensity_from_params(params: dict, path: str) -> IntensityMeasure:
    window = _window_from_param(_require(params, "window", path), f"{path}.window")
    expr = params.get("density", "const:1")
    fn = parse_density_expr(expr)
    return IntensityMeasure(
        density=fn, window=window, density_sup=fn.sup_on(window), label=expr
    )


def _tilted(sigma: IntensityMeasure, pfn) -> IntensityMeasure:
    """The intensity p * sigma for a parsed density expression ``pfn``."""
    return IntensityMeasure(
        density=lambda x: pfn(x) * sigma.density(x),
        window=sigma.window,
        density_sup=pfn.sup_on(sigma.window) * sigma.density_sup,
        label=f"({pfn.expr})*({sigma.label})",
    )


def _count_witness_dual(sigma: IntensityMeasure, pfn, n: int, rng_mu, rng_nu) -> Estimate:
    """Dual estimate of the 1-Lipschitz count witness F(omega) = omega(L)
    between Poisson(sigma) and Poisson(p * sigma), from ``n`` draws a side.

    F's law under a Poisson process is Poisson of the total mass, so only
    the counts are drawn (:func:`simulate.poisson_counts`), no atoms; they
    are the counts that full configurations from the same generators have.
    """
    return transport.dual_from_values(
        simulate.poisson_counts(sigma, n, rng_mu),
        simulate.poisson_counts(_tilted(sigma, pfn), n, rng_nu),
    )


def _mixer_from_params(params, path: str):
    _check_keys(params, {"family", "shape", "scale", "mu", "sigma_log", "lo", "hi", "p_lo", "value"}, path)
    family = params.get("family")
    if family == "gamma":
        return simulate.GammaMixer(shape=float(params["shape"]), scale=float(params.get("scale", 1.0)))
    if family == "lognormal":
        return simulate.LognormalMixer(mu=float(params["mu"]), sigma_log=float(params["sigma_log"]))
    if family == "two_point":
        return simulate.TwoPointMixer(
            lo=float(params["lo"]), hi=float(params["hi"]), p_lo=float(params.get("p_lo", 0.5))
        )
    if family == "constant":
        return simulate.ConstantMixer(value=float(params["value"]))
    raise SpecParseError(f"unknown mixer family {family!r}", where=f"{path}.family")


def _timechange_from_params(params: dict, path: str) -> simulate.TimeChangeSpec:
    horizon = float(params.get("horizon", 100.0))
    scale = float(params.get("scale", 1.0))

    def U(t, _s=scale):
        t = np.asarray(t, float)
        return _s * t / (1.0 + t**3)

    def U_prime(t, _s=scale):
        # _s * (1 - 2 t^3) / (1 + t^3)^2 with t^3 computed once; the in-place
        # steps are the same roundings (1 - y is 1 + (-y)), and hold no more
        # arrays at once than computing t^3 twice did
        t3 = np.asarray(t, float) ** 3
        den = (1.0 + t3) ** 2
        t3 *= -2.0
        t3 += 1.0
        t3 *= _s
        t3 /= den
        return t3

    U.expr = f"rational_decay(scale={scale})"
    return simulate.TimeChangeSpec(U=U, U_prime=U_prime, horizon=horizon)


# --------------------------------------------------------------------------
# spec and report
# --------------------------------------------------------------------------


def _check_keys(obj: dict, allowed: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise SpecParseError(f"{path} must be an object", where=path)
    for key in obj:
        if key not in allowed:
            raise SpecParseError(f"unknown key {key!r} at {path}", where=f"{path}.{key}")


def _require(params: dict, key: str, path: str = "parameters"):
    if key not in params:
        raise SpecParseError(f"missing required key {key!r} at {path}", where=f"{path}.{key}")
    return params[key]


_PARAM_KEYS = {
    "distance": {"metric", "left", "right", "window"},
    "sample": {"family", "density", "window", "n_configs", "mixer", "phi", "hex_floats"},
    "bound": {"family", "p", "density", "window", "mixer", "phi", "horizon", "scale", "marks_mass"},
    "estimate": {"estimator", "p", "density", "window", "metric", "pairs", "coupled", "horizon", "scale"},
    "tail": {"mass", "r", "masses", "rs"},
    "isoperimetry": {"event", "density", "window"},
    "verify": {"scenario", "window", "p", "phi", "horizon", "scale", "pairs", "masses", "rs", "mass"},
}


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative experiment: kind, parameters, seed, sample count, output."""

    kind: str
    parameters: dict
    seed: SeedSpec
    n_samples: int = 10_000
    output_path: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecParseError(f"unknown kind {self.kind!r}", where="kind")
        if self.n_samples < 1:
            raise SpecParseError("n_samples must be positive", where="n_samples")
        _check_keys(self.parameters, _PARAM_KEYS[self.kind], "parameters")

    @classmethod
    def from_dict(cls, data: dict, kind_override: str | None = None) -> "ExperimentSpec":
        _check_keys(data, {"kind", "parameters", "seed", "n_samples", "output_path"}, "spec")
        kind = data.get("kind", kind_override)
        if kind is None:
            raise SpecParseError("spec is missing 'kind'", where="kind")
        if kind_override is not None and kind != kind_override:
            raise SpecParseError(
                f"spec kind {kind!r} does not match command {kind_override!r}", where="kind"
            )
        seed_obj = data.get("seed", {"seed": 0, "stream_id": 0})
        _check_keys(seed_obj, {"seed", "stream_id"}, "seed")
        return cls(
            kind=kind,
            parameters=data.get("parameters", {}),
            seed=SeedSpec(int(seed_obj.get("seed", 0)), int(seed_obj.get("stream_id", 0))),
            n_samples=int(data.get("n_samples", 10_000)),
            output_path=data.get("output_path"),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": self.parameters,
            "seed": self.seed.to_dict(),
            "n_samples": int(self.n_samples),
            "output_path": self.output_path,
        }


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class Report:
    """Experiment output: echoed spec, named results, timing and version."""

    spec_echo: dict
    results: dict
    wall_time_ms: int
    library_version: str = __version__
    csv_rows: list = field(default_factory=list)

    def canonical_bytes(self) -> bytes:
        """Deterministic payload: everything except wall time and side tables."""
        payload = {
            "spec_echo": _jsonable(self.spec_echo),
            "results": _jsonable(self.results),
            "library_version": self.library_version,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()

    def to_json(self) -> str:
        payload = {
            "spec_echo": _jsonable(self.spec_echo),
            "results": _jsonable(self.results),
            "wall_time_ms": int(self.wall_time_ms),
            "library_version": self.library_version,
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def csv_text(self) -> str | None:
        if not self.csv_rows:
            return None
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(self.csv_rows[0].keys()))
        writer.writeheader()
        writer.writerows(self.csv_rows)
        return buf.getvalue()

    def all_assertions_passed(self) -> bool:
        checks = self.results.get("assertions", [])
        return all(c.get("passed") for c in checks) if checks else True


# --------------------------------------------------------------------------
# kind dispatchers
# --------------------------------------------------------------------------


def _run_distance(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    window = _window_from_param(_require(p, "window"), "parameters.window")
    left = config_from_coords(_require(p, "left"), window)
    right = config_from_coords(_require(p, "right"), window)
    table = {
        "rho0": metrics.rho0,
        "rho1": metrics.rho1,
        "rho2": metrics.rho2,
        "rho1_normalized": metrics.rho1_normalized,
        "rho2_normalized": metrics.rho2_normalized,
        "rho2_marked": metrics.rho2_marked,
    }
    metric = p.get("metric", "rho1")
    if metric not in table:
        raise SpecParseError(f"unknown metric {metric!r}", where="parameters.metric")
    return {"metric": metric, "value": float(table[metric](left, right))}


def _run_sample(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    sigma = _intensity_from_params(p, "parameters")
    family = p.get("family", "poisson")
    n_configs = int(p.get("n_configs", 1))
    if n_configs < 1:
        raise SpecParseError("n_configs must be positive", where="parameters.n_configs")
    hex_floats = bool(p.get("hex_floats", False))
    out: dict = {"family": family, "configurations": []}
    if family == "poisson":
        configs = simulate.poisson_batch_with_rng(sigma, n_configs, spec.seed.rng())
    elif family == "cox":
        mixer = _mixer_from_params(p.get("mixer", {}), "parameters.mixer")
        configs = [
            simulate.sample_cox(sigma, mixer, spec.seed.child(i)) for i in range(n_configs)
        ]
    elif family == "gibbs":
        phi = parse_density_expr(p.get("phi", "const:0.0"))
        configs = []
        accept = []
        for i in range(n_configs):
            cfg, acc = simulate.sample_gibbs(phi, sigma, spec.seed.child(i))
            configs.append(cfg)
            accept.append(acc)
        out["acceptance"] = {
            "proposals": int(sum(a.n_samples for a in accept)),
            "rate": n_configs / sum(a.n_samples for a in accept),
        }
    else:
        raise SpecParseError(f"unknown sample family {family!r}", where="parameters.family")
    out["configurations"] = [config_to_coords(c, hex_floats=hex_floats) for c in configs]
    return out


def _run_bound(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    family = p.get("family")
    if family == "poisson":
        sigma = _intensity_from_params(p, "parameters")
        result = bounds_mod.bound_tv_poisson(parse_density_expr(_require(p, "p")), sigma)
    elif family == "cox":
        sigma = _intensity_from_params(p, "parameters")
        mixer = _mixer_from_params(p.get("mixer", {}), "parameters.mixer")
        result = bounds_mod.bound_tv_cox(sigma, mixer, spec.n_samples, spec.seed)
    elif family == "gibbs":
        sigma = _intensity_from_params(p, "parameters")
        result = bounds_mod.bound_tv_gibbs(parse_density_expr(_require(p, "phi")), sigma)
    elif family == "halfline":
        result = bounds_mod.bound_w2_halfline(_timechange_from_params(p, "parameters"))
    elif family == "timechange":
        tc = _timechange_from_params(p, "parameters")
        marks = None
        if "marks_mass" in p:
            marks = IntensityMeasure.uniform(Window([0.0], [1.0]), float(p["marks_mass"]))
        result = bounds_mod.bound_w2_timechange(tc, marks)
    else:
        raise SpecParseError(f"unknown bound family {family!r}", where="parameters.family")
    return {"family": family, "bound": result.to_dict()}


def _run_estimate(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    estimator = p.get("estimator")
    if estimator == "superposition_cost":
        sigma = _intensity_from_params(p, "parameters")
        pfn = parse_density_expr(_require(p, "p"))
        coupling = simulate.SuperpositionCoupling(sigma, pfn)
        est = coupling.estimate_mean_cost(spec.n_samples, spec.seed)
        return {
            "estimator": estimator,
            "estimate": est.to_dict(),
            "exact_mean_cost": coupling.mean_cost_exact,
        }
    if estimator == "timechange_cost":
        tc = _timechange_from_params(p, "parameters")
        est = simulate.TimeChangeCoupling(tc).estimate_mean_cost(spec.n_samples, spec.seed)
        return {"estimator": estimator, "estimate": est.to_dict()}
    if estimator == "dual_count_witness":
        sigma = _intensity_from_params(p, "parameters")
        pfn = parse_density_expr(_require(p, "p"))
        est = _count_witness_dual(sigma, pfn, spec.n_samples, spec.seed.rng(), spec.seed.rng(1))
        return {"estimator": estimator, "estimate": est.to_dict()}
    if estimator == "rubinstein":
        sigma = _intensity_from_params(p, "parameters")
        pfn = parse_density_expr(_require(p, "p"))
        pairs = int(p.get("pairs", 200))
        metric = p.get("metric", "rho1")
        coupled = bool(p.get("coupled", True))
        if coupled:
            coupling = simulate.SuperpositionCoupling(sigma, pfn)
            sampled = coupling.sample_batch(pairs, spec.seed)
            mu = [c.left for c in sampled]
            nu = [c.right for c in sampled]
        else:
            mu = simulate.poisson_batch_with_rng(sigma, pairs, spec.seed.rng())
            nu = simulate.poisson_batch_with_rng(_tilted(sigma, pfn), pairs, spec.seed.rng(1))
        est = transport.estimate_rubinstein_empirical(mu, nu, metric)
        diag = transport.doubling_diagnostic(mu, nu, metric) if pairs >= 4 else {}
        return {
            "estimator": estimator,
            "coupled": coupled,
            "estimate": est.to_dict(),
            "doubling_diagnostic": diag,
        }
    raise SpecParseError(f"unknown estimator {estimator!r}", where="parameters.estimator")


def _run_tail(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    if "masses" in p or "rs" in p:
        masses = [float(v) for v in p.get("masses", [0.5, 1.0, 2.0, 5.0])]
        rs = [float(v) for v in p.get("rs", [0.5, 1.0, 2.0, 5.0, 10.0])]
        return {"grid": conc.tail_grid(masses, rs)}
    mass = float(_require(p, "mass"))
    r = float(_require(p, "r"))
    q = conc.TailQuery(mass=mass, r=r)
    results = {
        "mass": mass,
        "r": r,
        "exact_count_tail": conc.poisson_tail_exact(mass, conc.upper_int_part(mass + r)),
        "bound_lipschitz": conc.tail_bound_lipschitz(q),
        "bound_count_sharp": conc.tail_bound_count_sharp(q),
        "bound_rho_eta": conc.tail_bound_rho_eta(mass, r),
        "rho_eta_tail_exact": conc.rho_eta_tail_exact(mass, r),
    }
    return results


def _run_isoperimetry(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    sigma = _intensity_from_params(p, "parameters")
    event_spec = p.get("event", {"type": "count_leq", "k": 0})
    _check_keys(event_spec, {"type", "k", "m", "region"}, "parameters.event")
    region = (
        _window_from_param(event_spec["region"], "parameters.event.region")
        if "region" in event_spec
        else None
    )
    if event_spec.get("type") == "count_leq":
        event = conc.CountThresholdEvent(k=int(event_spec.get("k", 0)), region=region)
    elif event_spec.get("type") == "count_geq":
        event = conc.CountAtLeastEvent(m=int(event_spec.get("m", 1)), region=region)
    else:
        raise SpecParseError("event type must be count_leq or count_geq", where="parameters.event.type")
    ratio = conc.isoperimetric_ratio(event, sigma, spec.n_samples, spec.seed)
    mc_surface = conc.surface_measure(event, sigma, spec.n_samples, spec.seed)
    lower, upper = conc.isoperimetric_bounds(sigma.total_mass)
    out = {
        "event": event_spec,
        "ratio": ratio.to_dict(),
        "surface_exact": conc.surface_measure_exact(event, sigma),
        "surface_mc": mc_surface.to_dict(),
        "probability_exact": conc.event_probability_exact(event, sigma),
        "bounds": {"lower": lower, "upper": upper},
    }
    if isinstance(event, conc.CountThresholdEvent) and event.k == 0 and region is None:
        out["upper_bound_discrepancy"] = _upper_bound_discrepancy(sigma.total_mass)
    return out


def _upper_bound_discrepancy(mass: float) -> dict:
    """The exact empty-event witness ratio against the reference upper bound."""
    witness = 2.0 * mass / (-math.expm1(-mass))
    _, upper = conc.isoperimetric_bounds(mass)
    return {
        "flagged": True,
        "witness_ratio_empty_event": witness,
        "reference_upper_bound": upper,
        "factor": witness / upper,
        "note": (
            "the exact witness ratio for the empty-configuration event is twice "
            "the reference upper bound value; both are reported"
        ),
    }


# --------------------------------------------------------------------------
# verify scenarios
# --------------------------------------------------------------------------


def _assertion(name: str, passed: bool, detail: str) -> dict:
    return {"name": name, "passed": bool(passed), "detail": detail}


def _scenario_poisson_tightness(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    sigma = _intensity_from_params({"window": p.get("window", [0.0, 1.0])}, "parameters")
    pfn = parse_density_expr(p.get("p", "const:2"))
    pairs = int(p.get("pairs", 200))
    n = spec.n_samples

    bound = bounds_mod.bound_tv_poisson(pfn, sigma)
    coupling = simulate.SuperpositionCoupling(sigma, pfn)
    mean_cost = coupling.estimate_mean_cost(n, spec.seed)

    dual = _count_witness_dual(sigma, pfn, n, spec.seed.rng(11), spec.seed.rng(12))

    sampled = coupling.sample_batch(pairs, spec.seed.child(1000))
    primal = transport.estimate_rubinstein_empirical(
        [c.left for c in sampled], [c.right for c in sampled], "rho1"
    )

    assertions = [
        _assertion(
            "coupling_mean_matches_bound",
            abs(mean_cost.mean - bound.value) <= 3 * mean_cost.std_error,
            f"|{mean_cost.mean:.6g} - {bound.value:.6g}| <= 3*{mean_cost.std_error:.3g}",
        ),
        _assertion(
            "dual_witness_matches_bound",
            abs(dual.mean - bound.value) <= 3 * dual.std_error,
            f"|{dual.mean:.6g} - {bound.value:.6g}| <= 3*{dual.std_error:.3g}",
        ),
        _assertion(
            "primal_below_bound",
            primal.mean <= bound.value + 3 * primal.std_error,
            f"{primal.mean:.6g} <= {bound.value:.6g} + 3*{primal.std_error:.3g}",
        ),
        _assertion(
            "primal_above_dual",
            primal.mean >= dual.mean - 3 * (primal.std_error + dual.std_error),
            f"{primal.mean:.6g} >= {dual.mean:.6g} - 3*({primal.std_error:.3g}+{dual.std_error:.3g})",
        ),
        _assertion(
            "weak_duality",
            dual.mean <= primal.mean + 3 * (primal.std_error + dual.std_error),
            f"{dual.mean:.6g} <= {primal.mean:.6g} + slack",
        ),
    ]
    return {
        "bound": bound.to_dict(),
        "coupling_mean_cost": mean_cost.to_dict(),
        "dual_witness": dual.to_dict(),
        "primal_empirical": primal.to_dict(),
        "assertions": assertions,
    }


def _scenario_gibbs_bound(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    sigma = _intensity_from_params({"window": p.get("window", [0.0, 1.0])}, "parameters")
    phi_expr = p.get("phi", "const:0.05")
    phi = parse_density_expr(phi_expr)
    pairs = int(p.get("pairs", 200))
    bound = bounds_mod.bound_tv_gibbs(phi, sigma)
    proposals, accepted, acc = simulate.sample_gibbs_coupled(phi, sigma, pairs, spec.seed)
    # -n is 1-Lipschitz for rho1, so its mean gap lower-bounds W_rho1
    dual = transport.dual_lower_bound(lambda w: -float(w.n), proposals, accepted)
    # a plug-in estimate with no theorem tying it to the bound: reported only
    primal = transport.estimate_rubinstein_empirical(proposals, accepted, "rho1")
    results = {
        "bound": bound.to_dict(),
        "acceptance": acc.to_dict(),
        "dual_witness": dual.to_dict(),
        "primal_empirical": primal.to_dict(),
    }
    assertions = [
        _assertion(
            "dual_below_bound",
            dual.mean <= bound.value + 3 * dual.std_error,
            f"{dual.mean:.6g} <= {bound.value:.6g} + 3*{dual.std_error:.3g}",
        )
    ]
    head, _, body = phi_expr.partition(":")
    if head == "const":
        # V depends on the count alone, so W_rho1 is known exactly
        (c,) = _parse_floats(body, phi_expr, len(head) + 1)
        exact = bounds_mod.gibbs_count_law_rho1(c, sigma.total_mass)
        results["exact_count_law_rho1"] = exact
        assertions.append(
            _assertion("exact_below_bound", exact <= bound.value, f"{exact:.6g} <= {bound.value:.6g}")
        )
    results["assertions"] = assertions
    return results


def _scenario_halfline(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    tc = _timechange_from_params(p, "parameters")
    half = bounds_mod.bound_w2_halfline(tc)
    tchange = bounds_mod.bound_w2_timechange(tc)
    coupling = simulate.TimeChangeCoupling(tc)
    mean_cost = coupling.estimate_mean_cost(spec.n_samples, spec.seed)
    rel_gap = abs(tchange.details["energy_form"] - tchange.details["inverse_form"]) / max(
        tchange.details["energy_form"], 1e-300
    )
    assertions = [
        _assertion(
            "two_expressions_agree",
            rel_gap <= 1e-6,
            f"relative gap {rel_gap:.3e} <= 1e-6",
        ),
        _assertion(
            "halfline_equals_timechange",
            abs(half.value - tchange.value) <= 1e-6 * max(half.value, 1e-300) + 1e-9,
            f"|{half.value:.9g} - {tchange.value:.9g}| small",
        ),
        _assertion(
            "coupling_mean_below_bound",
            mean_cost.mean <= half.value + 3 * mean_cost.std_error,
            f"{mean_cost.mean:.6g} <= {half.value:.6g} + 3*{mean_cost.std_error:.3g}",
        ),
    ]
    return {
        "bound_halfline": half.to_dict(),
        "bound_timechange": tchange.to_dict(),
        "coupling_mean_cost": mean_cost.to_dict(),
        "assertions": assertions,
    }


def _scenario_tail_grid(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    masses = [float(v) for v in p.get("masses", [0.5, 1.0, 2.0, 5.0])]
    rs = [float(v) for v in p.get("rs", [0.5, 1.0, 2.0, 5.0, 10.0])]
    rows = conc.tail_grid(masses, rs)
    dominated = all(r["exact"] <= r["bound_sharp"] and r["exact"] <= r["bound_lipschitz"] for r in rows)
    sharp_wins = all(
        r["bound_sharp"] < r["bound_lipschitz"] for r in rows if r["r"] >= 3 * r["mass"]
    )
    assertions = [
        _assertion("exact_dominated_by_bounds", dominated, f"{len(rows)} grid points"),
        _assertion("sharp_below_lipschitz_for_large_r", sharp_wins, "r >= 3*mass subset"),
    ]
    return {"grid": rows, "assertions": assertions}


def _scenario_isoperimetry(spec: ExperimentSpec) -> dict:
    p = spec.parameters
    mass = float(p.get("mass", 1.0))
    window = _window_from_param(p.get("window", [0.0, 1.0]), "parameters.window")
    sigma = IntensityMeasure.uniform(window, mass / window.volume)
    empty_event = conc.CountThresholdEvent(k=0)
    exact_ratio = conc.isoperimetric_ratio(empty_event, sigma, spec.n_samples, spec.seed)
    discrepancy = _upper_bound_discrepancy(mass)
    witness = discrepancy["witness_ratio_empty_event"]
    lower, upper = conc.isoperimetric_bounds(mass)
    half = Window(window.lower, [0.5 * (lo + hi) for lo, hi in zip(window.lower, window.upper)])
    suite = [
        ("count_leq_0", conc.CountThresholdEvent(k=0)),
        ("count_leq_1", conc.CountThresholdEvent(k=1)),
        ("count_leq_2", conc.CountThresholdEvent(k=2)),
        ("count_leq_3", conc.CountThresholdEvent(k=3)),
        ("count_geq_1_halfwindow", conc.CountAtLeastEvent(m=1, region=half)),
    ]
    ratios = {}
    all_above_one = True
    for name, event in suite:
        est = conc.isoperimetric_ratio(event, sigma, spec.n_samples, spec.seed)
        ratios[name] = est.to_dict()
        if est.mean < 1.0 - 3.0 * est.std_error:
            all_above_one = False
    assertions = [
        _assertion(
            "empty_event_ratio_exact",
            abs(exact_ratio.mean - witness) <= 1e-9,
            f"|{exact_ratio.mean:.12g} - {witness:.12g}| <= 1e-9",
        ),
        _assertion("all_ratios_at_least_one", all_above_one, "suite of count events"),
    ]
    return {
        "exact_ratio_empty_event": exact_ratio.to_dict(),
        "bounds": {"lower": lower, "upper": upper},
        "upper_bound_discrepancy": discrepancy,
        "suite_ratios": ratios,
        "assertions": assertions,
    }


def _scenario_semicontinuity(spec: ExperimentSpec) -> dict:
    big = Window([-0.5], [5.5])
    omega = Configuration([[0.0]], big)
    eta = Configuration([[1.0]], big)
    base_value = metrics.rho1_normalized(omega, eta)
    seq_values = []
    for nval in (2.0, 3.0, 4.0, 5.0):
        omega_n = Configuration([[0.0], [nval]], big)
        eta_n = Configuration([[1.0], [nval]], big)
        seq_values.append(metrics.rho1_normalized(omega_n, eta_n))
    restriction = Window([-0.5], [1.5])
    restricted_seq = []
    for nval in (2.0, 3.0, 4.0, 5.0):
        omega_n = Configuration([[0.0], [nval]], big).restrict(restriction)
        eta_n = Configuration([[1.0], [nval]], big).restrict(restriction)
        restricted_seq.append(metrics.rho1(omega_n, eta_n))
    limit_value = metrics.rho1(omega.restrict(restriction), eta.restrict(restriction))
    assertions = [
        _assertion("normalized_tv_base_is_2", base_value == 2.0, f"value {base_value}"),
        _assertion(
            "normalized_tv_sequence_is_1",
            all(v == 1.0 for v in seq_values),
            f"values {seq_values}",
        ),
        _assertion(
            "tv_liminf_property",
            min(restricted_seq) >= limit_value,
            f"liminf {min(restricted_seq)} >= {limit_value}",
        ),
    ]
    return {
        "normalized_tv_limit_pair": base_value,
        "normalized_tv_sequence": seq_values,
        "restricted_tv_sequence": restricted_seq,
        "restricted_tv_limit_pair": limit_value,
        "assertions": assertions,
    }


_SCENARIOS = {
    "poisson-tightness": _scenario_poisson_tightness,
    "gibbs-bound": _scenario_gibbs_bound,
    "halfline-timechange": _scenario_halfline,
    "tail-grid": _scenario_tail_grid,
    "isoperimetry": _scenario_isoperimetry,
    "semicontinuity": _scenario_semicontinuity,
}


def _run_verify(spec: ExperimentSpec) -> dict:
    name = spec.parameters.get("scenario")
    if name not in _SCENARIOS:
        raise SpecParseError(
            f"unknown scenario {name!r}; available: {sorted(_SCENARIOS)}",
            where="parameters.scenario",
        )
    results = _SCENARIOS[name](spec)
    results["scenario"] = name
    return results


# --------------------------------------------------------------------------
# runner and entry point
# --------------------------------------------------------------------------


# kind -> runner; ExperimentSpec has validated the kind
_RUNNERS = {
    "distance": _run_distance,
    "sample": _run_sample,
    "bound": _run_bound,
    "estimate": _run_estimate,
    "tail": _run_tail,
    "isoperimetry": _run_isoperimetry,
    "verify": _run_verify,
}


def run_experiment(spec: ExperimentSpec) -> Report:
    """Dispatch one experiment spec to the library and wrap the report."""
    start = time.perf_counter()
    try:
        results = _RUNNERS[spec.kind](spec)
    except PPTError as exc:
        # re-raise the same error, so that ``where``, ``diagnostics`` and
        # ``trace`` reach the caller
        exc.args = (f"{exc} [spec kind={spec.kind}]",)
        raise
    wall = int(round(1000 * (time.perf_counter() - start)))
    # grid experiments (tail grids, verify tail-grid) also get a CSV side table
    csv_rows = results.get("grid", [])
    return Report(spec_echo=spec.to_dict(), results=results, wall_time_ms=wall, csv_rows=csv_rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ppt",
        description="point-process transport distances: experiments and verification",
    )
    parser.add_argument("kind", choices=KINDS)
    parser.add_argument("--spec", required=True, help="path to the experiment spec JSON")
    parser.add_argument("--out", default=None, help="report output path (JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override spec seed")
    args = parser.parse_args(argv)
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        spec = ExperimentSpec.from_dict(data, kind_override=args.kind)
        if args.seed is not None:
            spec = replace(spec, seed=SeedSpec(args.seed, spec.seed.stream_id))
        report = run_experiment(spec)
    except PPTError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 2
    out_path = args.out or spec.output_path
    text = report.to_json()
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        csv_text = report.csv_text()
        if csv_text:
            with open(out_path + ".csv", "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text)
    else:
        print(text)
    if spec.kind == "verify":
        return 0 if report.all_assertions_passed() else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
