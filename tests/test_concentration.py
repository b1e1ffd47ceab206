import math
import os
import pathlib
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.stats

import ppt
from ppt import (
    CountAtLeastEvent,
    CountThresholdEvent,
    IntensityMeasure,
    SeedSpec,
    TailQuery,
    Window,
    coarea_check,
    count_event_exact,
    isoperimetric_bounds,
    isoperimetric_ratio,
    laplace_bound_lipschitz,
    poincare_l1_check,
    poisson_tail_exact,
    rho_eta_tail_exact,
    stirling_bounds,
    surface_measure,
    tail_bound_count_sharp,
    tail_bound_lipschitz,
    tail_bound_rho_eta,
    tail_grid,
    upper_int_part,
)
from ppt.concentration import poisson_pmf
from ppt.errors import ValidationError
from ppt.simulate import poisson_batch_with_rng

from conftest import config

GRID_MASSES = (0.5, 1.0, 2.0, 5.0)
GRID_RS = (0.5, 1.0, 2.0, 5.0, 10.0)


class TestUpperIntPart:
    def test_values(self):
        assert upper_int_part(2.3) == 3
        assert upper_int_part(2.0) == 2
        assert upper_int_part(0.5) == 1

    def test_domain(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValidationError):
                upper_int_part(bad)


class TestPoissonTail:
    def test_zero_threshold(self):
        assert poisson_tail_exact(3.7, 0) == 1.0

    def test_small_case(self):
        assert poisson_tail_exact(1.0, 2) == pytest.approx(1.0 - 2.0 / math.e, rel=1e-14)

    def test_deep_tail(self):
        assert poisson_tail_exact(1.0, 50) < 1e-50

    def test_against_scipy_oracle(self):
        for mass in (0.3, 1.0, 4.5, 20.0, 150.0):
            for k in (0, 1, 2, 5, 17, 60, 300):
                mine = poisson_tail_exact(mass, k)
                ref = float(scipy.stats.poisson.sf(k - 1, mass))
                if ref > 1e-290:
                    assert mine == pytest.approx(ref, rel=1e-12)

    def test_below_the_mean_complements_the_lower_sum(self):
        # the complement of P(N <= k - 1) summed downward from pmf(k - 1), clipped at 0
        for mass in (0.7, 4.5, 20.0, 150.0):
            for k in range(1, int(mass) + 1):
                t = s = poisson_pmf(mass, k - 1)
                for i in range(k - 1, 0, -1):
                    t *= i / mass
                    s += t
                assert poisson_tail_exact(mass, k) == max(0.0, 1.0 - s)

    @pytest.mark.parametrize("mass", [math.inf, math.nan, 0.0, -1.0])
    def test_domain(self, mass):
        for k in (0, 2, 3):
            with pytest.raises(ValidationError):
                poisson_tail_exact(mass, k)  # at mass inf the tail is 1, not the 0 a sum gives

    @pytest.mark.parametrize("mass", [math.inf, math.nan, -1.0])
    def test_pmf_domain(self, mass):
        with pytest.raises(ValidationError):
            poisson_pmf(mass, 2)

    @pytest.mark.parametrize("k", [1.5, -1, -0.5])  # NaN and inf: the next test
    def test_count_must_be_a_whole_number(self, k):
        with pytest.raises(ValidationError, match="whole number"):
            poisson_pmf(1.0, k)
        with pytest.raises(ValidationError, match="whole number"):
            poisson_tail_exact(1.0, k)

    def test_nan_and_inf_counts_raise_instead_of_looping(self):
        # these calls once looped forever (or returned nan), so they run in
        # a child process with a time limit
        code = (
            "import math\n"
            "from ppt import CountAtLeastEvent, CountThresholdEvent, IntensityMeasure, Window\n"
            "from ppt import count_event_exact, poisson_tail_exact\n"
            "from ppt.concentration import poisson_pmf\n"
            "from ppt.errors import ValidationError\n"
            "sigma = IntensityMeasure.uniform(Window([0.0], [1.0]), 1.0)\n"
            "calls = [lambda: count_event_exact(CountThresholdEvent(k=math.nan), sigma),\n"
            "         lambda: count_event_exact(CountAtLeastEvent(m=math.inf), sigma),\n"
            "         lambda: poisson_tail_exact(1.0, math.nan),\n"
            "         lambda: poisson_tail_exact(1.0, math.inf),\n"
            "         lambda: poisson_pmf(1.0, math.nan),\n"
            "         lambda: poisson_pmf(1.0, math.inf)]\n"
            "for call in calls:\n"
            "    try:\n"
            "        print('returned', call())\n"
            "    except ValidationError:\n"
            "        print('raised')\n"
        )
        src = str(pathlib.Path(ppt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["raised"] * 6


class TestLaplaceBound:
    def test_small_lambda_limit(self):
        assert laplace_bound_lipschitz(1e-12, 2.0) == pytest.approx(1.0, abs=1e-10)

    def test_sharp_on_centered_counts(self):
        # Poisson moment generating function: E e^{lam (N - m)} = e^{m(e^lam - lam - 1)}
        for lam in (0.1, 0.5, 1.0):
            for mass in (0.5, 1.0, 2.0):
                exact = math.exp(mass * (math.exp(lam) - 1.0) - lam * mass)
                assert laplace_bound_lipschitz(lam, mass) == pytest.approx(exact, abs=1e-12)

    def test_dominates_mc_for_truncated_count(self):
        # F = min(N, 10) - E min(N, 10), one-Lipschitz for the counting distance
        mass, lam = 1.0, 0.5
        pmf = np.array([poisson_tail_exact(mass, k) - poisson_tail_exact(mass, k + 1) for k in range(60)])
        e_trunc = float(np.sum(pmf * np.minimum(np.arange(60), 10)))
        rng = np.random.default_rng(3131)
        draws = np.minimum(rng.poisson(mass, size=100_000), 10) - e_trunc
        vals = np.exp(lam * draws)
        mc, se = float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(vals.size))
        assert mc <= laplace_bound_lipschitz(lam, mass) + 3.0 * se

    def test_domain(self):
        with pytest.raises(ValidationError):
            laplace_bound_lipschitz(0.0, 1.0)


class TestTailBounds:
    def test_lipschitz_limit_and_spot_value(self):
        assert tail_bound_lipschitz(TailQuery(1.0, 1e-12)) == pytest.approx(1.0, abs=1e-9)
        assert tail_bound_lipschitz(TailQuery(1.0, 1.0)) == pytest.approx(math.e / 4.0, abs=1e-15)

    def test_lipschitz_monotone_in_r(self):
        values = [tail_bound_lipschitz(TailQuery(1.0, r)) for r in np.linspace(0.1, 50, 200)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))

    def test_sharp_spot_value(self):
        # formula evaluation oracle at mass 1, r 1: 2 e^{1 - 2 ln 2} / sqrt(4 pi)
        expected = 2.0 * math.exp(1.0 - 2.0 * math.log(2.0)) / math.sqrt(4.0 * math.pi)
        assert tail_bound_count_sharp(TailQuery(1.0, 1.0)) == pytest.approx(expected, abs=1e-15)

    def test_grid_domination(self):
        rows = tail_grid(GRID_MASSES, GRID_RS)
        assert len(rows) == 20
        for row in rows:
            assert row["exact"] <= row["bound_sharp"] * (1 + 1e-12)
            assert row["exact"] <= row["bound_lipschitz"] * (1 + 1e-12)
            if row["r"] >= 3.0 * row["mass"]:
                assert row["bound_sharp"] < row["bound_lipschitz"]

    def test_sharp_asymptotic_ratio(self):
        # bound/exact stays within twice the polynomial prefactor ratio
        for r in range(5, 31):
            K = upper_int_part(1.0 + r)
            ratio = tail_bound_count_sharp(TailQuery(1.0, float(r))) / poisson_tail_exact(1.0, K)
            assert ratio <= 2.0 * K / r


class TestRhoEtaTail:
    def test_finite_positive_value(self):
        got = tail_bound_rho_eta(1.0, 1.0)
        assert 0.0 < got < math.inf
        assert got == pytest.approx(0.5222887839751627, rel=1e-12)

    def test_dominates_exact_shifted_count_tail(self):
        for m in GRID_MASSES:
            for r in GRID_RS:
                assert tail_bound_rho_eta(m, r) >= rho_eta_tail_exact(m, r)

    def test_exact_tail_is_count_tail(self):
        # with eta empty the deviation event is exactly a count deviation
        assert rho_eta_tail_exact(1.0, 1.0) == poisson_tail_exact(1.0, 2)

    def test_disjoint_support_assertion(self, lebesgue, unit_window):
        # the exact count-tail path rests on sampled atoms never hitting the
        # fixed configuration; asserted empirically over 1e5 draws
        eta = config([[0.25], [0.75]], unit_window)
        targets = {tuple(row) for row in eta.atoms}
        configs = poisson_batch_with_rng(lebesgue, 100_000, SeedSpec(31).rng())
        assert sum(w.n for w in configs) > 0
        assert not any(tuple(row) in targets for w in configs for row in w.atoms)


class TestStirling:
    def test_frozen_values(self):
        lo, hi = stirling_bounds(5)
        assert lo == pytest.approx(118.01916795759007, rel=1e-12)
        assert hi == pytest.approx(120.00263708619694, rel=1e-12)
        lo1, hi1 = stirling_bounds(1)
        assert lo1 == pytest.approx(0.9221370088957891, rel=1e-12)
        assert hi1 == pytest.approx(1.0022744491822266, rel=1e-12)

    def test_containment_up_to_twenty(self):
        for n in range(1, 21):
            lo, hi = stirling_bounds(n)
            assert lo <= math.factorial(n) <= hi

    def test_domain(self):
        with pytest.raises(ValidationError):
            stirling_bounds(0)


class TestSurfaceMeasure:
    def test_whole_space_has_no_boundary(self, lebesgue, seed):
        est = surface_measure(lambda w: 1.0, lebesgue, 300, seed, inner_samples=8)
        assert est.mean == 0.0

    def test_empty_event_exact_and_mc(self, lebesgue):
        event = CountThresholdEvent(k=0)
        exact = count_event_exact(event, lebesgue)[1]
        assert exact == pytest.approx(math.exp(-1.0), rel=1e-10)
        est = surface_measure(event, lebesgue, 3000, SeedSpec(32), inner_samples=32)
        assert abs(est.mean - exact) <= 3.0 * est.std_error

    def test_count_le_two_exact(self, lebesgue):
        event = CountThresholdEvent(k=2)
        assert count_event_exact(event, lebesgue)[1] == pytest.approx(
            math.exp(-1.0) / 2.0, rel=1e-10
        )

    def test_subregion_event(self, lebesgue):
        event = CountAtLeastEvent(m=1, region=Window([0.0], [0.5]))
        # boundary crossed while the half-window is empty: 0.5 * e^{-0.5}
        assert count_event_exact(event, lebesgue)[1] == pytest.approx(
            0.5 * math.exp(-0.5), rel=1e-8
        )
        est = surface_measure(event, lebesgue, 3000, SeedSpec(33), inner_samples=32)
        assert abs(est.mean - 0.5 * math.exp(-0.5)) <= 3.0 * est.std_error

    def test_region_of_another_dimension_is_rejected(self):
        unit, square = Window([0.0], [1.0]), Window([0.0, 0.0], [1.0, 1.0])
        cases = [  # (k, n, d) stack as the add-one-point kernel passes it, its window, region
            (np.full((4, 3, 2), 0.25), square, Window([0.0], [0.5])),
            (np.full((4, 3, 1), 0.25), unit, Window([0.0, 0.0], [0.5, 0.5])),
            (np.full((4, 3, 2), 0.25), square, Window([0.0] * 3, [0.5] * 3)),
        ]
        for atoms, window, region in cases:
            for event in (CountThresholdEvent(k=1, region=region), CountAtLeastEvent(m=1, region=region)):
                with pytest.raises(ValidationError, match="dimension"):
                    event.stack(atoms, window)
                with pytest.raises(ValidationError, match="dimension"):
                    event(ppt.Configuration(atoms[0], window))

    @pytest.mark.parametrize("value", [1.5, -1, math.nan, math.inf, -math.inf])
    def test_threshold_must_be_a_whole_number(self, value):
        # a threshold of 1.5 once gave the values of neither {count <= 1} nor
        # {count <= 2}: P = 0.8491... and a surface of 0.2767 at mass 1
        with pytest.raises(ValidationError, match="whole number"):
            CountThresholdEvent(k=value)
        with pytest.raises(ValidationError, match="whole number"):
            CountAtLeastEvent(m=value)

    def test_whole_float_threshold_is_kept_as_an_int(self, lebesgue):
        event = CountThresholdEvent(k=1.0)
        assert type(event.k) is int and event == CountThresholdEvent(k=1)
        assert type(CountAtLeastEvent(m=2.0).m) is int
        ratio, surface, p = count_event_exact(event, lebesgue)
        assert p == pytest.approx(2.0 / math.e, rel=1e-15)
        assert surface == pytest.approx(1.0 / math.e, rel=1e-12)
        ratio_int, surface_int, p_int = count_event_exact(CountThresholdEvent(k=1), lebesgue)
        assert (ratio.mean, surface, p) == (ratio_int.mean, surface_int, p_int)

    def test_probability_exact(self, lebesgue):
        assert count_event_exact(CountThresholdEvent(k=0), lebesgue)[2] == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )
        assert count_event_exact(CountAtLeastEvent(m=1), lebesgue)[2] == pytest.approx(
            1.0 - math.exp(-1.0), rel=1e-12
        )


def at_least_by_its_own_formulas(event, sigma):
    """(P, 1 - P) and the surface of {count >= m} by the formulas of their
    own that ``CountAtLeastEvent`` once had, before it was mapped to the
    complement {count <= m - 1}."""
    from ppt.concentration import _poisson_lower, _region_mass

    mass = _region_mass(sigma, event.region)
    if event.m == 0:
        return (1.0, 0.0), 0.0
    surface = mass * poisson_pmf(mass, event.m - 1)
    if mass <= 0:
        return (0.0, 1.0), surface
    p = poisson_tail_exact(mass, event.m)
    if p < 0.5:
        return (p, 1.0 - p), surface
    q = _poisson_lower(mass, event.m - 1)
    return (1.0 - q, q), surface


def test_at_least_events_equal_their_own_formulas_bit_for_bit():
    # count_event_exact maps {count >= m} to the complement of {count <= m - 1};
    # its surface, probability and ratio keep the bits of the direct formulas,
    # and the degenerate cases (m = 0, zero mass) raise
    unit = Window([0.0], [1.0])
    masses = (0.0, 1e-3, 0.01, 0.1, 0.5, 1.0, 2.0, 3.7, 5.0, 10.0, 20.0, 37.5, 50.0, 100.0, 200.0)
    exact = degenerate = 0
    for mass in masses:
        sigma = IntensityMeasure.uniform(unit, mass)
        for region in (None, Window([0.0], [0.5])):
            for m in range(40):
                event = CountAtLeastEvent(m=m, region=region)
                (p, q), surface = at_least_by_its_own_formulas(event, sigma)
                if not (p > 0.0 and q > 0.0):
                    degenerate += 1
                    with pytest.raises(ValidationError, match="degenerate"):
                        count_event_exact(event, sigma)
                    continue
                exact += 1
                ratio, got_surface, got_p = count_event_exact(event, sigma)
                got = np.array([got_p, got_surface, ratio.mean])
                want = np.array([p, surface, 2.0 * surface / (p * q)])
                assert got.tobytes() == want.tobytes(), (mass, region, m)
    assert exact > 0 and degenerate > 0


class TestIsoperimetry:
    def test_exact_path_integrates_the_region_mass_once(self, lebesgue, seed, monkeypatch):
        event = CountAtLeastEvent(m=1, region=Window([0.0], [0.5]))
        (p, q), surface = at_least_by_its_own_formulas(event, lebesgue)
        want = 2.0 * surface / (p * q)
        calls = []
        real = ppt.concentration.integrate
        monkeypatch.setattr(ppt.concentration, "integrate", lambda *a, **k: calls.append(1) or real(*a, **k))
        est = isoperimetric_ratio(event, lebesgue, 100, seed)
        assert len(calls) == 1
        assert np.float64(est.mean).tobytes() == np.float64(want).tobytes()

    def test_count_event_exact_equals_its_three_public_values(self, lebesgue, seed):
        # the ratio isoperimetric_ratio returns, the surface region_mass * P(count = k)
        # of {count <= k} (shared with its complement) and P(A)
        half = Window([0.0], [0.5])
        cases = [  # event, region mass, k of {count <= k}, complemented
            (CountThresholdEvent(k=0), 1.0, 0, False),
            (CountThresholdEvent(k=2, region=half), 0.5, 2, False),
            (CountAtLeastEvent(m=1, region=half), 0.5, 0, True),
        ]
        for event, mass, k, complemented in cases:
            ratio, surface, probability = ppt.count_event_exact(event, lebesgue)
            assert ratio == isoperimetric_ratio(event, lebesgue, 100, seed)
            assert surface == pytest.approx(mass * scipy.stats.poisson.pmf(k, mass), rel=1e-10)
            below = scipy.stats.poisson.cdf(k, mass)
            assert probability == pytest.approx(1.0 - below if complemented else below, rel=1e-10)
        with pytest.raises(ValidationError, match="degenerate"):
            ppt.count_event_exact(CountAtLeastEvent(m=0), lebesgue)

    def test_empty_event_exact_ratio(self, lebesgue, seed):
        est = isoperimetric_ratio(CountThresholdEvent(k=0), lebesgue, 100, seed)
        assert est.std_error == 0.0
        assert est.mean == pytest.approx(2.0 / (1.0 - math.exp(-1.0)), abs=1e-9)

    def test_small_mass_limit_of_empty_event_ratio(self, unit_window, seed):
        tiny = IntensityMeasure.uniform(unit_window, 1e-9)
        est = isoperimetric_ratio(CountThresholdEvent(k=0), tiny, 100, seed)
        assert est.mean == pytest.approx(2.0, rel=1e-8)

    def test_suite_ratios_at_least_one(self, lebesgue):
        events = [
            CountThresholdEvent(k=0),
            CountThresholdEvent(k=1),
            CountThresholdEvent(k=2),
            CountThresholdEvent(k=3),
            CountAtLeastEvent(m=1, region=Window([0.0], [0.5])),
        ]
        for event in events:
            est = isoperimetric_ratio(event, lebesgue, 2000, SeedSpec(34))
            assert est.mean >= 1.0 - 3.0 * est.std_error

    def test_mc_path_agrees_with_exact(self, lebesgue):
        # plain-callable indicator forces the Monte Carlo path
        event = lambda w: 1.0 if w.n == 0 else 0.0
        est = isoperimetric_ratio(event, lebesgue, 4000, SeedSpec(35), inner_samples=32)
        assert est.std_error > 0
        assert abs(est.mean - 2.0 / (1.0 - math.exp(-1.0))) <= 3.5 * est.std_error

    def test_mc_path_evaluates_a_stack_per_atom_count(self, lebesgue):
        # the probability pass groups its draws by atom count, as the
        # surface does, and gives the plain callable's values bit for bit
        def plain(w):
            return float(np.any(w.atoms[:, 0] < 0.5))

        shapes = []

        def stacked(w):
            return plain(w)

        def stack(atoms, window):
            shapes.append(atoms.shape)
            return np.any(atoms[..., 0] < 0.5, axis=-1).astype(float)

        stacked.stack = stack
        seed = SeedSpec(39)
        want = isoperimetric_ratio(plain, lebesgue, 300, seed, inner_samples=4)
        got = isoperimetric_ratio(stacked, lebesgue, 300, seed, inner_samples=4)
        assert (got.mean, got.std_error) == (want.mean, want.std_error)
        counts = Counter(w.n for w in poisson_batch_with_rng(lebesgue, 300, seed.rng(7, 0)))
        assert shapes[-len(counts) :] == [(counts[n], n, 1) for n in sorted(counts)]

    def test_degenerate_event_rejected(self, lebesgue, seed):
        with pytest.raises(ValidationError):
            isoperimetric_ratio(CountAtLeastEvent(m=0), lebesgue, 100, seed)

    def test_bounds_values(self):
        lo, hi = isoperimetric_bounds(1.0)
        assert lo == 1.0
        assert hi == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-12)
        assert isoperimetric_bounds(1e-12)[1] == pytest.approx(1.0, abs=1e-9)
        lo5, hi5 = isoperimetric_bounds(5.0)
        assert hi5 == pytest.approx(5.033918274531521, rel=1e-12)
        assert hi5 < 8.0 + 8.0 * math.sqrt(5.0)  # far below the generic alternative

    def test_domain(self):
        with pytest.raises(ValidationError):
            isoperimetric_bounds(0.0)


class TestPoincare:
    def test_constant_functional(self, lebesgue, seed):
        lhs, rhs = poincare_l1_check(lambda w: 4.0, lebesgue, 300, seed, inner_samples=8)
        assert lhs.mean == 0.0 and rhs.mean == 0.0

    def test_count_functional_values(self, lebesgue):
        # exact values: E|N - 1| = 2/e and 2 E int |grad N| = 2 m
        lhs, rhs = poincare_l1_check(lambda w: float(w.n), lebesgue, 4000, SeedSpec(36))
        assert abs(lhs.mean - 2.0 / math.e) <= 3.0 * lhs.std_error
        assert abs(rhs.mean - 2.0) <= 3.0 * rhs.std_error + 1e-12

    def test_indicator_functional_values(self, lebesgue):
        event = CountThresholdEvent(k=0)
        lhs, rhs = poincare_l1_check(event, lebesgue, 4000, SeedSpec(37))
        expect_lhs = 2.0 * math.exp(-1.0) * (1.0 - math.exp(-1.0))
        expect_rhs = 2.0 * math.exp(-1.0)
        assert abs(lhs.mean - expect_lhs) <= 3.0 * lhs.std_error
        assert abs(rhs.mean - expect_rhs) <= 3.0 * rhs.std_error

    def test_inequality_on_functional_suite(self, lebesgue, unit_window):
        eta = config([[0.3], [0.6]], unit_window)
        suite = [
            lambda w: float(w.n),
            lambda w: float(min(w.count_in(Window([0.0], [0.5])), 3)),
            lambda w: float(ppt.rho1(w, eta)),
            CountThresholdEvent(k=0),
        ]
        for i, F in enumerate(suite):
            lhs, rhs = poincare_l1_check(F, lebesgue, 2500, SeedSpec(38, i))
            assert lhs.mean <= rhs.mean + 3.0 * (lhs.std_error + rhs.std_error)


class TestCoarea:
    def test_subwindow_count(self, lebesgue):
        # both sides concentrate at the sub-window mass 0.5
        K = Window([0.0], [0.5])
        F = lambda w: float(w.count_in(K))
        lhs, rhs = coarea_check(F, lebesgue, 3000, SeedSpec(39))
        assert abs(lhs.mean - 0.5) <= 3.0 * lhs.std_error
        assert abs(rhs.mean - 0.5) <= 3.0 * rhs.std_error
        assert abs(lhs.mean - rhs.mean) <= 3.0 * (lhs.std_error + rhs.std_error)

    def test_constant_functional(self, lebesgue, seed):
        lhs, rhs = coarea_check(lambda w: 3.0, lebesgue, 300, seed, inner_samples=8)
        assert lhs.mean == 0.0 and rhs.mean == 0.0

    def test_truncated_count(self, lebesgue):
        K = Window([0.0], [0.5])
        F = lambda w: float(min(w.count_in(K), 3))
        lhs, rhs = coarea_check(F, lebesgue, 3000, SeedSpec(40))
        assert abs(lhs.mean - rhs.mean) <= 3.0 * (lhs.std_error + rhs.std_error)

    def test_non_integer_functional_rejected(self, lebesgue, seed):
        with pytest.raises(ValidationError):
            coarea_check(lambda w: 0.5 * w.n, lebesgue, 200, seed, inner_samples=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_functional_rejected(self, lebesgue, seed, bad):
        # NaN passes the integer and range checks; inf reads as a range too wide
        with pytest.raises(ValidationError, match="finite"):
            coarea_check(lambda w: bad if w.n > 1 else 0.0, lebesgue, 50, seed, inner_samples=4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_functional_rejected_before_the_lhs(self, lebesgue, seed, bad, monkeypatch):
        # the rhs stream is checked before the lhs pass runs, so the lhs never
        # sees the inf - inf differences of a non-finite F
        import ppt.concentration

        lhs_calls = []
        monkeypatch.setattr(
            ppt.concentration, "nested_gradient_mc", lambda *args, **kwargs: lhs_calls.append(args)
        )
        with pytest.raises(ValidationError, match="finite"):
            coarea_check(lambda w: bad if w.n > 1 else 0.0, lebesgue, 50, seed, inner_samples=4)
        assert lhs_calls == []

    def test_unbounded_range_rejected(self, lebesgue, seed):
        with pytest.raises(ValidationError) as err:
            # adding a point moves F by 20001, beyond the 10000 levels the sum allows
            coarea_check(lambda w: 20001.0 * w.n, lebesgue, 300, seed, inner_samples=8)
        assert "range" in str(err.value)
