import json
import math

import numpy as np
import pytest

import ppt
from ppt.cli import ExperimentSpec, main, parse_density_expr, run_experiment
from ppt.errors import SpecParseError, ValidationError

from conftest import PINNED_VERIFY, pinned_verify_reports, report_digest


class TestDensityGrammar:
    def test_const(self):
        fn = parse_density_expr("const:2")
        assert fn(np.array([0.3])) == 2.0
        assert list(fn(np.array([[0.1], [0.9]]))) == [2.0, 2.0]

    def test_poly_is_first_coordinate(self):
        fn = parse_density_expr("poly:0,1")
        assert fn(np.array([0.7])) == pytest.approx(0.7)

    def test_poly_higher_order(self):
        fn = parse_density_expr("poly:1,0,2")  # 1 + 2 x^2
        assert fn(np.array([0.5])) == pytest.approx(1.5)

    def test_exp(self):
        fn = parse_density_expr("exp:2,1")
        assert fn(np.array([0.0])) == pytest.approx(2.0)
        assert fn(np.array([1.0])) == pytest.approx(2.0 * math.e)

    def test_step_total_mass(self, unit_window):
        fn = parse_density_expr("step:0.5,0,2")
        sigma = ppt.IntensityMeasure(fn, unit_window, fn.sup_on(unit_window))
        assert sigma.total_mass == pytest.approx(1.0, rel=1e-7)

    def test_sup_on_window(self, unit_window):
        assert parse_density_expr("const:3").sup_on(unit_window) == 3.0
        assert parse_density_expr("step:0.5,0,2").sup_on(unit_window) == 2.0
        assert parse_density_expr("exp:1,-2").sup_on(unit_window) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "expr", ["", "const", "const:", "const:x", "poly:1,,2", "gauss:1", "const:-1"]
    )
    def test_malformed_expressions(self, expr):
        with pytest.raises(SpecParseError) as err:
            parse_density_expr(expr)
        assert err.value.where is not None

    @pytest.mark.parametrize("expr", ["const:1,2", "exp:1", "exp:1,2,3", "step:1,2", "step:1,2,3,4"])
    def test_wrong_number_of_arguments(self, expr):
        with pytest.raises(SpecParseError, match="takes") as err:
            parse_density_expr(expr)
        assert err.value.where == expr.index(":") + 1  # where the arguments start


class TestSpecParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecParseError) as err:
            ExperimentSpec.from_dict({"kind": "tail", "foo": 1})
        assert "foo" in str(err.value)

    def test_unknown_parameter_key(self):
        with pytest.raises(SpecParseError) as err:
            ExperimentSpec.from_dict({"kind": "tail", "parameters": {"mass": 1, "bogus": 2}})
        assert "bogus" in str(err.value)

    @pytest.mark.parametrize(
        "kind, parameters, key",
        [
            ("distance", {"metric": "rho1", "left": [[0.5]], "right": [], "window": [0, 1], "hex_floats": True}, "hex_floats"),
            ("estimate", {"estimator": "dual_count_witness", "p": "const:2", "window": [0, 1], "phi": "const:0.05"}, "phi"),
            ("tail", {"mass": 2.0, "r": 1.0, "eta_size": 3}, "eta_size"),
        ],
    )
    def test_keys_no_runner_reads_are_rejected(self, kind, parameters, key, tmp_path):
        with pytest.raises(SpecParseError) as err:
            run_experiment(_spec(kind, parameters, 1, 10))
        assert err.value.where == f"parameters.{key}"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": kind, "parameters": parameters}))
        assert main([kind, "--spec", str(spec_path)]) == 2

    @pytest.mark.parametrize(
        "spec, where",
        [
            ({"kind": "verify", "parameters": {"scenario": "tail-grid"}, "n_samples": "ten"}, "n_samples"),
            ({"kind": "verify", "parameters": {"scenario": "tail-grid"}, "n_samples": math.inf}, "n_samples"),
            ({"kind": "tail", "parameters": {"mass": 2.0, "r": 1.0}, "seed": {"seed": "abc"}}, "seed.seed"),
            ({"kind": "tail", "parameters": {"mass": 2.0, "r": 1.0}, "seed": {"stream_id": None}}, "seed.stream_id"),
            ({"kind": "verify", "parameters": {"scenario": "poisson-tightness", "pairs": "many"}}, "parameters.pairs"),
            ({"kind": "verify", "parameters": {"scenario": "halfline-timechange", "horizon": "long"}}, "parameters.horizon"),
            ({"kind": "verify", "parameters": {"scenario": "tail-grid", "masses": [1, "a"]}}, "parameters.masses.1"),
            ({"kind": "tail", "parameters": {"rs": "many"}}, "parameters.rs"),
            ({"kind": "tail", "parameters": {"mass": [2.0], "r": 1.0}}, "parameters.mass"),
            ({"kind": "isoperimetry", "parameters": {"event": {"type": "count_leq", "k": "two"}, "window": [0, 1]}}, "parameters.event.k"),
            ({"kind": "sample", "parameters": {"window": [0, 1], "n_configs": "5"}, "n_samples": {}}, "n_samples"),
            ({"kind": "sample", "parameters": {"family": "cox", "window": [0, 1], "mixer": {"family": "gamma", "shape": "x"}}}, "parameters.mixer.shape"),
            ({"kind": "sample", "parameters": {"family": "cox", "window": [0, 1], "mixer": {"family": "gamma"}}}, "parameters.mixer.shape"),
            ({"kind": "bound", "parameters": {"family": "timechange", "marks_mass": "heavy"}}, "parameters.marks_mass"),
        ],
    )
    def test_mistyped_numeric_field_is_a_spec_error(self, spec, where, tmp_path):
        # a traceback would exit 1, which for verify reads as a failed assertion
        with pytest.raises(SpecParseError) as err:
            run_experiment(ExperimentSpec.from_dict(spec))
        assert err.value.where == where
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main([spec["kind"], "--spec", str(spec_path)]) == 2

    @pytest.mark.parametrize(
        "spec, where",
        [
            ({"kind": "estimate", "parameters": {"estimator": "rubinstein", "p": "const:2", "window": [0, 1], "pairs": 8, "coupled": "false"}}, "parameters.coupled"),
            ({"kind": "estimate", "parameters": {"estimator": "rubinstein", "p": "const:2", "window": [0, 1], "pairs": 8, "coupled": 0}}, "parameters.coupled"),
            ({"kind": "estimate", "parameters": {"estimator": "rubinstein", "p": "const:2", "window": [0, 1], "pairs": 8, "coupled": None}}, "parameters.coupled"),
            ({"kind": "sample", "parameters": {"window": [0, 1], "hex_floats": "true"}}, "parameters.hex_floats"),
            ({"kind": "sample", "parameters": {"window": [0, 1], "hex_floats": 1}}, "parameters.hex_floats"),
            ({"kind": "isoperimetry", "parameters": {"event": {"type": "count_leq", "k": 1.5}, "window": [0, 1]}}, "parameters.event.k"),
            ({"kind": "isoperimetry", "parameters": {"event": {"type": "count_geq", "m": 1.5}, "window": [0, 1]}}, "parameters.event.m"),
            ({"kind": "verify", "parameters": {"scenario": "tail-grid"}, "n_samples": 2.9}, "n_samples"),
            ({"kind": "sample", "parameters": {"window": [0, 1], "n_configs": 2.5}}, "parameters.n_configs"),
            ({"kind": "verify", "parameters": {"scenario": "poisson-tightness", "pairs": 8.5}}, "parameters.pairs"),
            ({"kind": "tail", "parameters": {"mass": 2.0, "r": 1.0}, "seed": {"seed": 7.5}}, "seed.seed"),
            ({"kind": "tail", "parameters": {"mass": 2.0, "r": 1.0}, "seed": {"stream_id": -0.5}}, "seed.stream_id"),
        ],
    )
    def test_non_boolean_flag_or_fractional_count_is_a_spec_error(self, spec, where, tmp_path):
        # "false" is a true string and int(1.5) is 1: neither may run as if it parsed
        with pytest.raises(SpecParseError) as err:
            run_experiment(ExperimentSpec.from_dict(spec))
        assert err.value.where == where
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main([spec["kind"], "--spec", str(spec_path)]) == 2

    def test_boolean_flags_accept_json_booleans(self):
        base = {"estimator": "rubinstein", "p": "const:2", "window": [0, 1], "pairs": 4}
        for coupled in (True, False):
            report = run_experiment(_spec("estimate", {**base, "coupled": coupled}, 3, 10))
            assert report.results["coupled"] is coupled
        report = run_experiment(_spec("sample", {"window": [0, 1], "density": "const:5", "hex_floats": True}, 3, 10))
        coords = [x for config in report.results["configurations"] for atom in config for x in atom]
        assert coords and all(isinstance(x, str) for x in coords)

    def test_numeric_fields_keep_their_casts(self):
        # a numeric string and a float count parse as before: int("2"), int(3.0)
        spec = ExperimentSpec.from_dict(
            {"kind": "sample", "parameters": {"window": [0, 1], "n_configs": "2"}, "seed": {"seed": "7"}, "n_samples": 3.0}
        )
        assert (spec.seed.seed, spec.n_samples) == (7, 3)
        assert len(run_experiment(spec).results["configurations"]) == 2

    def test_kind_mismatch(self):
        with pytest.raises(SpecParseError):
            ExperimentSpec.from_dict({"kind": "tail", "parameters": {}}, kind_override="bound")

    def test_round_trip(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "tail",
                "parameters": {"mass": 1.0, "r": 2.0},
                "seed": {"seed": 7, "stream_id": 3},
                "n_samples": 55,
            }
        )
        again = ExperimentSpec.from_dict(spec.to_dict())
        assert again == spec


class TestRunExperiment:
    def test_minimal_bound_spec(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "bound",
                "parameters": {"family": "poisson", "p": "const:2", "window": [0, 1]},
                "seed": {"seed": 1},
            }
        )
        report = run_experiment(spec)
        assert report.results["bound"]["value"] == pytest.approx(1.0, rel=1e-9)

    def test_determinism_canonical_bytes(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "estimate",
                "parameters": {
                    "estimator": "superposition_cost",
                    "p": "const:2",
                    "window": [0, 1],
                },
                "seed": {"seed": 5},
                "n_samples": 2000,
            }
        )
        a = run_experiment(spec).canonical_bytes()
        b = run_experiment(spec).canonical_bytes()
        assert a == b

    def test_distance_kind(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "distance",
                "parameters": {
                    "metric": "rho2",
                    "left": [[0.0], [1.0]],
                    "right": [[0.2], [1.1]],
                    "window": [0, 2],
                },
                "seed": {"seed": 1},
            }
        )
        got = run_experiment(spec).results["value"]
        assert got == pytest.approx(math.sqrt(0.05), abs=1e-12)

    def test_sample_kind_round_trips_configs(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "sample",
                "parameters": {
                    "family": "poisson",
                    "density": "const:2",
                    "window": [0, 1],
                    "n_configs": 3,
                    "hex_floats": True,
                },
                "seed": {"seed": 9},
            }
        )
        report = run_experiment(spec)
        configs = report.results["configurations"]
        assert len(configs) == 3
        for coords in configs:
            for row in coords:
                assert all(isinstance(v, str) and v for v in row)

    def test_tail_grid_csv_rows(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "tail",
                "parameters": {"masses": [1.0], "rs": [1.0, 2.0]},
                "seed": {"seed": 1},
            }
        )
        report = run_experiment(spec)
        assert len(report.csv_rows) == 2
        text = report.csv_text()
        header = text.splitlines()[0]
        assert header == "mass,r,exact,bound_lipschitz,bound_sharp"

    def test_isoperimetry_kind_flags_discrepancy(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "isoperimetry",
                "parameters": {"event": {"type": "count_leq", "k": 0}, "window": [0, 1]},
                "seed": {"seed": 2},
                "n_samples": 400,
            }
        )
        results = run_experiment(spec).results
        flag = results["upper_bound_discrepancy"]
        assert flag["flagged"] is True
        assert flag["factor"] == pytest.approx(2.0, rel=1e-12)

    def test_unknown_metric_is_spec_error(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "distance",
                "parameters": {"metric": "rho9", "left": [], "right": [], "window": [0, 1]},
                "seed": {"seed": 1},
            }
        )
        with pytest.raises(SpecParseError):
            run_experiment(spec)


class TestTimeChangeKinds:
    """The bound and estimate kinds built on the CLI's time change
    U(t) = scale * t / (1 + t^3) (horizon 100, scale 1 by default)."""

    def test_halfline_bound(self):
        report = run_experiment(_spec("bound", {"family": "halfline"}, 1, 10))
        assert report.results["bound"]["value"] == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)

    def test_timechange_bound_scales_with_the_root_of_the_mark_mass(self):
        def bound(**extra):
            return run_experiment(_spec("bound", {"family": "timechange", **extra}, 1, 10)).results["bound"]

        plain, marked = bound(), bound(marks_mass=2.0)
        assert marked["value"] == pytest.approx(math.sqrt(2.0) * plain["value"], rel=1e-12, abs=0.0)
        assert (plain["details"]["mark_mass"], marked["details"]["mark_mass"]) == (1.0, 2.0)
        for details in (plain["details"], marked["details"]):
            assert details["energy_form"] == pytest.approx(details["inverse_form"], abs=1e-6)

    def test_timechange_cost_estimate(self):
        spec = _spec("estimate", {"estimator": "timechange_cost"}, 3, 200)
        report = run_experiment(spec)
        est = report.results["estimate"]
        assert math.isfinite(est["mean"]) and est["std_error"] > 0
        assert run_experiment(spec).canonical_bytes() == report.canonical_bytes()


class TestVerifyScenarios:
    def test_semicontinuity_passes(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "verify",
                "parameters": {"scenario": "semicontinuity"},
                "seed": {"seed": 1},
                "n_samples": 10,
            }
        )
        report = run_experiment(spec)
        assert report.all_assertions_passed()

    def test_tail_grid_passes(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "verify",
                "parameters": {"scenario": "tail-grid"},
                "seed": {"seed": 1},
                "n_samples": 10,
            }
        )
        report = run_experiment(spec)
        assert report.all_assertions_passed()
        assert len(report.csv_rows) == 20

    def test_unknown_scenario(self):
        spec = ExperimentSpec.from_dict(
            {
                "kind": "verify",
                "parameters": {"scenario": "nope"},
                "seed": {"seed": 1},
            }
        )
        with pytest.raises(SpecParseError):
            run_experiment(spec)


def _spec(kind, parameters, seed, n_samples, stream=0):
    return ExperimentSpec.from_dict(
        {
            "kind": kind,
            "parameters": parameters,
            "seed": {"seed": seed, "stream_id": stream},
            "n_samples": n_samples,
        }
    )


class TestCoupledPairCounts:
    @pytest.mark.parametrize("pairs", [0, -2])
    def test_verify_poisson_tightness_rejects_empty_batches(self, pairs):
        spec = _spec("verify", {"scenario": "poisson-tightness", "pairs": pairs}, 1, 50)
        with pytest.raises(ValidationError, match="batch size must be positive"):
            run_experiment(spec)

    @pytest.mark.parametrize("pairs", [0, -2])
    def test_estimate_rubinstein_rejects_empty_batches(self, pairs):
        parameters = {"estimator": "rubinstein", "p": "const:2", "window": [0, 1], "pairs": pairs}
        with pytest.raises(ValidationError, match="batch size must be positive"):
            run_experiment(_spec("estimate", parameters, 1, 50))


class TestSampleSpec:
    def test_include_diagonal_key_is_rejected(self):
        parameters = {"family": "gibbs", "window": [0, 1], "phi": "const:0.05", "include_diagonal": False}
        with pytest.raises(SpecParseError) as err:
            _spec("sample", parameters, 1, 10)
        assert err.value.where == "parameters.include_diagonal"

    @pytest.mark.parametrize("family", ["poisson", "cox", "gibbs"])
    @pytest.mark.parametrize("n_configs", [0, -2])
    def test_nonpositive_n_configs_is_a_spec_error(self, family, n_configs, tmp_path):
        parameters = {
            "family": family,
            "window": [0, 1],
            "n_configs": n_configs,
            **({"mixer": {"family": "constant", "value": 1.0}} if family == "cox" else {}),
        }
        with pytest.raises(SpecParseError) as err:
            run_experiment(_spec("sample", parameters, 1, 10))
        # run_experiment adds the kind to the message and keeps ``where``
        assert err.value.where == "parameters.n_configs"
        assert str(err.value) == "n_configs must be positive [spec kind=sample]"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "sample", "parameters": parameters}))
        assert main(["sample", "--spec", str(spec_path)]) == 2


class TestPinnedReportBytes:
    """SHA-256 prefixes of ``Report.canonical_bytes`` at seed 2025, as the
    benchmark's ``results_sha`` computes them."""

    def test_verify_poisson_tightness(self):
        reports = pinned_verify_reports("poisson-tightness")
        assert report_digest(*reports) == PINNED_VERIFY["poisson-tightness"][-1]

    def test_estimate_rubinstein_rho2(self):
        parameters = {
            "estimator": "rubinstein",
            "p": "const:2",
            "window": [0, 1],
            "metric": "rho2",
            "coupled": True,
            "pairs": 200,
        }
        report = run_experiment(_spec("estimate", parameters, 2025, 10_000))
        assert report_digest(report) == "c031269c86b1246b"

    def test_estimate_dual_count_witness(self):
        parameters = {"estimator": "dual_count_witness", "p": "poly:1,2", "window": [0, 1]}
        report = run_experiment(_spec("estimate", parameters, 2025, 20_000))
        assert report_digest(report) == "707b9f4537ee4cf7"

    def test_verify_gibbs_bound(self):
        [report] = pinned_verify_reports("gibbs-bound")
        assert report.all_assertions_passed()
        assert report_digest(report) == PINNED_VERIFY["gibbs-bound"][-1]

    def test_verify_halfline_timechange(self):
        [report] = pinned_verify_reports("halfline-timechange")
        assert report.all_assertions_passed()
        assert report_digest(report) == PINNED_VERIFY["halfline-timechange"][-1]

    @pytest.mark.parametrize(
        "scenario, want",
        [
            ("isoperimetry", PINNED_VERIFY["isoperimetry"][-1]),
            ("tail-grid", "62f563301b610695"),
            ("semicontinuity", "209ca53659608329"),
        ],
    )
    def test_verify_concentration_scenarios(self, scenario, want):
        report = run_experiment(_spec("verify", {"scenario": scenario}, 2025, 10_000))
        assert report.all_assertions_passed()
        assert report_digest(report) == want

    def test_sample_gibbs(self):
        parameters = {
            "family": "gibbs",
            "window": [[0, 0], [1, 1]],
            "density": "const:200",
            "phi": "poly:1e-5,0,6e-5",
            "n_configs": 10,
        }
        report = run_experiment(_spec("sample", parameters, 2025, 10_000))
        assert report_digest(report) == "c81a9646032f3074"

    def test_rubinstein_solves_the_full_pair_once(self, monkeypatch):
        # the CI's rho2 spec: the estimate's full-list mean is the doubling
        # diagnostic's estimate_full, so only the half pair is solved again
        from ppt import transport

        shapes = []
        real = transport._dense_moments
        monkeypatch.setattr(transport, "_dense_moments", lambda C, *a, **k: shapes.append(C.shape) or real(C, *a, **k))
        parameters = {"estimator": "rubinstein", "p": "const:1", "window": [0, 1], "metric": "rho2", "pairs": 20}
        spec = ExperimentSpec.from_dict({"kind": "estimate", "parameters": parameters, "seed": {"seed": 2025, "stream_id": 0}})
        report = run_experiment(spec)
        assert shapes.count((20, 20)) == 1 and shapes.count((10, 10)) == 1
        assert report_digest(report) == "d6d976a40bf21e87"

    def test_isoperimetry_integrates_the_region_mass_once(self, monkeypatch):
        calls = []
        real = ppt.concentration.integrate
        monkeypatch.setattr(ppt.concentration, "integrate", lambda *a, **k: calls.append(1) or real(*a, **k))
        event = {"type": "count_geq", "m": 1, "region": [0, 0.5]}
        parameters = {"event": event, "density": "const:1", "window": [0, 1]}
        report = run_experiment(_spec("isoperimetry", parameters, 2025, 400))
        assert len(calls) == 1
        assert report_digest(report) == "020340a7851a79e3"


class TestMainEntry:
    def test_verify_exit_zero_and_files(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        out_path = tmp_path / "report.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "verify",
                    "parameters": {"scenario": "tail-grid"},
                    "seed": {"seed": 3},
                    "n_samples": 10,
                }
            )
        )
        rc = main(["verify", "--spec", str(spec_path), "--out", str(out_path)])
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["library_version"] == ppt.__version__
        csv_file = out_path.with_name(out_path.name + ".csv")
        assert csv_file.exists()
        lines = csv_file.read_text().splitlines()
        assert lines[0] == "mass,r,exact,bound_lipschitz,bound_sharp"
        assert len(lines) == 21

    def test_seed_override_changes_stream(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "kind": "sample",
                    "parameters": {"family": "poisson", "density": "const:5", "window": [0, 1]},
                    "seed": {"seed": 3},
                }
            )
        )
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["sample", "--spec", str(spec_path), "--out", str(out_a)]) == 0
        assert main(["sample", "--spec", str(spec_path), "--out", str(out_b), "--seed", "4"]) == 0
        a = json.loads(out_a.read_text())["results"]["configurations"]
        b = json.loads(out_b.read_text())["results"]["configurations"]
        assert a != b

    def test_bad_spec_file_exit_code(self, tmp_path):
        spec_path = tmp_path / "broken.json"
        spec_path.write_text("{not json")
        assert main(["tail", "--spec", str(spec_path)]) == 2

    def test_wrong_number_of_density_arguments_exit_code(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps({"kind": "bound", "parameters": {"family": "poisson", "p": "const:1,2", "window": [0, 1]}})
        )
        assert main(["bound", "--spec", str(spec_path)]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "tail", "parameters": {"mass": 1, "zzz": 0}}))
        assert main(["tail", "--spec", str(spec_path)]) == 2
