import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ppt import Configuration, Window, multiset_equal, rho0, rho1, rho1_normalized, rho2, rho2_marked, rho2_normalized
from ppt.errors import ValidationError

from conftest import config


def brute_force_rho2(a, b):
    if a.n != b.n:
        return math.inf
    best = math.inf
    for perm in itertools.permutations(range(a.n)):
        total = 0.0
        for i, j in enumerate(perm):
            total += float(np.sum((a.atoms[i] - b.atoms[j]) ** 2))
        best = min(best, total)
    return math.sqrt(best)


class TestRho0:
    def test_equal(self, unit_window):
        a = config([[0.5]], unit_window)
        assert rho0(a, a) == 0

    def test_empty_vs_singleton(self, unit_window):
        a = config(np.empty((0, 1)), unit_window)
        b = config([[0.2]], unit_window)
        assert rho0(a, b) == 1

    def test_permuted_storage(self, unit_window):
        a = config([[0.1], [0.7]], unit_window)
        b = config([[0.7], [0.1]], unit_window)
        assert rho0(a, b) == 0


class TestRho1:
    def test_equal(self, unit_window):
        a = config([[0.5]], unit_window)
        assert rho1(a, a) == 0

    def test_disjoint_singletons(self, unit_window):
        assert rho1(config([[0.1]], unit_window), config([[0.9]], unit_window)) == 2

    def test_partial_overlap(self):
        w = Window([0.0], [2.0])
        a = config([[0.0], [0.5]], w)
        b = config([[0.5], [1.0], [2.0]], w)
        assert rho1(a, b) == 3

    def test_at_least_one_when_distinct(self, unit_window, seed):
        rng = seed.rng()
        for _ in range(50):
            a = config(rng.uniform(0, 1, size=(rng.integers(0, 4), 1)), unit_window)
            b = config(rng.uniform(0, 1, size=(rng.integers(0, 4), 1)), unit_window)
            if rho0(a, b) == 1:
                assert rho1(a, b) >= 1


class TestRho2:
    def test_equal(self, unit_window):
        a = config([[0.25], [0.5]], unit_window)
        assert rho2(a, a) == 0.0

    def test_count_mismatch_infinite(self, unit_window):
        a = config([[0.0]], unit_window)
        b = config([[0.0], [1.0]], unit_window)
        assert rho2(a, b) == math.inf

    def test_two_point_example(self):
        w = Window([0.0], [2.0])
        a = config([[0.0], [1.0]], w)
        b = config([[0.2], [1.1]], w)
        assert rho2(a, b) == pytest.approx(math.sqrt(0.05), abs=1e-12)
        assert rho2(a, b) == pytest.approx(brute_force_rho2(a, b), abs=1e-15)

    def test_gaps_whose_squares_underflow(self):
        # regression: 4.76e-215 squared underflows to 0.0, and rho2 was 0.0
        w = Window([-1.0], [1.0])
        a, b = config([[0.0]], w), config([[4.76078817e-215]], w)
        assert rho2(a, b) == 4.76078817e-215 and rho2(b, a) == 4.76078817e-215
        w = Window([-1.0] * 2, [1.0] * 2)
        a = config([[0.0, 0.0], [0.5, -0.5]], w)
        b = config([[3e-200, -4e-200], [0.5, -0.5]], w)
        assert rho2(a, b) == pytest.approx(5e-200, rel=1e-15)
        # every square below squares to 0.0, so the unscaled assignment may
        # match -0.0 with 1e-243, and a multiset-equal pair got a positive rho2
        w = Window([-1.0], [1.0])
        a, b = config([[-1.0], [-0.0], [1e-243]], w), config([[1e-243], [-0.0], [-1.0]], w)
        assert rho2(a, b) == 0.0 and rho2(b, a) == 0.0

    def test_scaled_gaps_raise_no_overflow_warning(self):
        # the matched gap 5e-324 scales the unmatched gaps near 1.0 by 2^1073,
        # past the largest double, before they are clipped
        w = Window([-1.0], [1.0])
        a, b = config([[0.0], [1.0]], w), config([[5e-324], [1.0]], w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rho2(a, b) == 5e-324 and rho2(b, a) == 5e-324

    def test_gaps_whose_squares_overflow(self):
        # regression: squares above the largest double were +inf, so one pair
        # gave inf and larger ones made the assignment reject its matrix
        w = Window([-1e300], [1e300])
        a, b = config([[-1e300]], w), config([[1e300]], w)
        assert rho2(a, b) == 2e300 and rho2(b, a) == 2e300
        a, b = config([[-1e300], [1e300]], w), config([[1e300], [-1e300]], w)
        assert rho2(a, b) == 0.0 and rho2(b, a) == 0.0
        # the matched gaps are 0 and 1e-30, far below the overflowing ones
        a = config([[0.0], [1e130], [-1e300]], w)
        b = config([[1e-30], [1e130], [-1e300]], w)
        assert rho2(a, b) == 1e-30 and rho2(b, a) == 1e-30
        # no square overflows, but their sum did
        a, b = config([[0.0], [0.0]], w), config([[1e154], [1e154]], w)
        assert rho2(a, b) == pytest.approx(math.hypot(1e154, 1e154), rel=1e-15)

    @pytest.mark.filterwarnings("ignore:overflow encountered in subtract")
    def test_gaps_beyond_the_largest_double(self):
        w = Window([-1.7e308], [1.7e308])
        a, b = config([[-1.7e308], [1.7e308]], w), config([[1.7e308], [-1.6e308]], w)
        assert rho2(a, b) == 1.7e308 - 1.6e308 and rho2(b, a) == 1.7e308 - 1.6e308
        # the value itself is past the largest double
        a, b = config([[-1.7e308]], w), config([[1.7e308]], w)
        assert rho2(a, b) == math.inf and rho2(b, a) == math.inf

    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_brute_force(self, dim, seed):
        w = Window([0.0] * dim, [1.0] * dim)
        rng = seed.rng(dim)
        for _ in range(60):
            n = int(rng.integers(0, 6))
            a = config(rng.uniform(0, 1, size=(n, dim)), w)
            b = config(rng.uniform(0, 1, size=(n, dim)), w)
            assert rho2(a, b) == pytest.approx(brute_force_rho2(a, b), abs=1e-12)


class TestNormalizedVariants:
    def test_disjoint_singletons_value_two(self):
        w = Window([-0.5], [5.5])
        assert rho1_normalized(config([[0.0]], w), config([[1.0]], w)) == 2.0

    def test_shared_far_atom_value_one(self):
        w = Window([-0.5], [5.5])
        a = config([[0.0], [5.0]], w)
        b = config([[1.0], [5.0]], w)
        assert rho1_normalized(a, b) == 1.0

    def test_equal_configurations(self, unit_window):
        a = config([[0.25], [0.5]], unit_window)
        assert rho1_normalized(a, a) == 0.0

    def test_empty_rejected(self, unit_window):
        a = config(np.empty((0, 1)), unit_window)
        b = config([[0.5]], unit_window)
        with pytest.raises(ValidationError):
            rho1_normalized(a, b)

    def test_rho2_normalized_equal_counts(self):
        w = Window([-0.5], [1.5])
        a = config([[0.0]], w)
        b = config([[1.0]], w)
        assert rho2_normalized(a, b) == pytest.approx(1.0)

    def test_rho2_normalized_count_gap(self):
        w = Window([-0.5], [1.5])
        a = config([[0.0]], w)
        b = config([[0.0], [1.0]], w)
        assert rho2_normalized(a, b) == 1.0

    def test_rho2_normalized_both_empty(self, unit_window):
        a = config(np.empty((0, 1)), unit_window)
        assert rho2_normalized(a, a) == 0.0

    def test_not_lower_semicontinuous_regression(self):
        # the shared-far-atom sequence drops the value from 2 to 1
        w = Window([-0.5], [5.5])
        base = rho1_normalized(config([[0.0]], w), config([[1.0]], w))
        seq = rho1_normalized(config([[0.0], [4.0]], w), config([[1.0], [4.0]], w))
        assert base == 2.0 and seq == 1.0


class TestMarked:
    def test_identical(self):
        w = Window([0.0, 0.0], [10.0, 1.0])
        a = config([[1.0, 0.5]], w)
        assert rho2_marked(a, a) == 0.0

    def test_count_mismatch(self):
        w = Window([0.0, 0.0], [10.0, 1.0])
        a = config([[1.0, 0.5]], w)
        b = config(np.empty((0, 2)), w)
        assert rho2_marked(a, b) == math.inf

    def test_time_gap_only(self):
        w = Window([0.0, 0.0], [10.0, 1.0])
        a = config([[1.0, 0.0]], w)
        b = config([[2.0, 0.0]], w)
        assert rho2_marked(a, b) == pytest.approx(1.0, abs=1e-15)

    def test_needs_time_plus_marks(self, unit_window):
        a = config([[0.5]], unit_window)
        with pytest.raises(ValidationError):
            rho2_marked(a, a)


def test_rho2_symmetric_to_the_last_bit():
    # at this pair a row-order sum of the matched gaps gave rho2(a, b) and
    # rho2(b, a) one ulp apart
    w = Window([0.0, 0.0], [1.0, 1.0])
    a = config(
        [[0.5411438213764888, 0.50777223630035], [0.8713393766928806, 0.3612640590141576],
         [0.5981840672072131, 0.05925164234550362]],
        w,
    )
    b = config(
        [[0.3876318011107287, 0.32303634625820665], [0.15019972907045187, 0.8163381038190757],
         [0.37944617155031246, 0.9787478844112216]],
        w,
    )
    assert rho2(a, b) == rho2(b, a)


class TestMetricAxioms:
    @pytest.mark.parametrize("metric", [rho0, rho1, rho2])
    def test_axioms_on_random_triples(self, metric, seed):
        w = Window([0.0, 0.0], [1.0, 1.0])
        # a fixed stream per metric (str hashes are salted per process)
        rng = seed.rng(("rho0", "rho1", "rho2").index(metric.__name__))
        for _ in range(40):
            cfgs = [
                config(rng.uniform(0, 1, size=(int(rng.integers(0, 4)), 2)), w)
                for _ in range(3)
            ]
            a, b, c = cfgs
            # identity of indiscernibles and symmetry
            assert metric(a, a) == 0
            assert metric(a, b) == metric(b, a)
            if metric(a, b) > 0:
                assert not (a.n == b.n and sorted(map(tuple, a.atoms)) == sorted(map(tuple, b.atoms)))
            # triangle inequality, skipping only the inf <= inf + inf cases
            ab, ac, cb = metric(a, b), metric(a, c), metric(c, b)
            if math.isinf(ab) and (math.isinf(ac) or math.isinf(cb)):
                continue
            assert ab <= ac + cb + 1e-12


def test_total_variation_lower_semicontinuity_witness():
    # restriction to a fixed compact keeps the liminf above the limit values
    big = Window([-0.5], [9.5])
    restriction = Window([-0.5], [1.5])
    limit_pair = (
        config([[0.0]], big).restrict(restriction),
        config([[1.0]], big).restrict(restriction),
    )
    limit_value = rho1(*limit_pair)
    sequence_values = []
    for n in (2.0, 3.0, 5.0, 9.0):
        a = config([[0.0], [n]], big).restrict(restriction)
        b = config([[1.0], [n]], big).restrict(restriction)
        sequence_values.append(rho1(a, b))
    assert min(sequence_values) >= limit_value


# a small pool makes shared atoms, repeated atoms and -0.0 against 0.0 common
ATOM_COORDS = st.one_of(
    st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@st.composite
def config_triples(draw):
    d = draw(st.integers(1, 2))
    window = Window([-1.0] * d, [1.0] * d)
    rows = st.lists(st.tuples(*[ATOM_COORDS] * d), max_size=4)
    a_rows = draw(rows)
    # b is often a reordering of a, so multiset-equal pairs are common
    b_rows = draw(st.one_of(rows, st.permutations(a_rows)))
    c_rows = draw(rows)
    return [Configuration(np.array(r, float).reshape(-1, d), window) for r in (a_rows, b_rows, c_rows)]


# two matchings tie in the assignment's arithmetic but their exact sums are
# an ulp apart, so solving in argument order gave 2.042145108927428 one way
# and 2.0421451089274276 the other
_TIED_PAIR = [
    Configuration(
        np.array([[-0.0, -0.0], [-0.0, -0.0], [-0.0, -0.0], [-0.0, 1.0], [0.7695658814657884, 1.0]]),
        Window([-1.0] * 2, [1.0] * 2),
    ),
    Configuration(
        np.array([[-0.0, -0.0], [-0.0, 0.5], [-0.0, -1.0], [-0.0, -0.75], [-0.0, -0.875]]),
        Window([-1.0] * 2, [1.0] * 2),
    ),
]


class TestMetricProperties:
    @settings(max_examples=300, deadline=None)
    @given(config_triples())
    @example([*_TIED_PAIR, _TIED_PAIR[0]])
    def test_symmetric_bit_for_bit(self, triple):
        a, b, _ = triple
        for metric in (rho0, rho1, rho2):
            assert np.float64(metric(a, b)).tobytes() == np.float64(metric(b, a)).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(config_triples())
    def test_rho1_triangle_and_rho0_below_rho1(self, triple):
        a, b, c = triple
        assert rho1(a, c) <= rho1(a, b) + rho1(b, c)
        for x, y in itertools.combinations(triple, 2):
            assert rho0(x, y) <= rho1(x, y)

    @settings(max_examples=300, deadline=None)
    @given(config_triples())
    def test_zero_exactly_on_multiset_equal_pairs(self, triple):
        for x, y in itertools.combinations(triple, 2):
            if multiset_equal(x, y):
                for metric in (rho0, rho1, rho2):
                    assert np.float64(metric(x, y)).tobytes() == np.float64(0.0).tobytes()
            else:  # and every metric separates every other pair
                assert rho0(x, y) == 1 and rho1(x, y) >= 1 and rho2(x, y) > 0.0
