import hashlib
import json
import math

import numpy as np
import pytest

import ppt
from ppt.cli import ExperimentSpec, main, parse_density_expr, run_experiment
from ppt.errors import SpecParseError, ValidationError


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


class TestSpecParsing:
    def test_unknown_top_level_key(self):
        with pytest.raises(SpecParseError) as err:
            ExperimentSpec.from_dict({"kind": "tail", "foo": 1})
        assert "foo" in str(err.value)

    def test_unknown_parameter_key(self):
        with pytest.raises(SpecParseError) as err:
            ExperimentSpec.from_dict({"kind": "tail", "parameters": {"mass": 1, "bogus": 2}})
        assert "bogus" in str(err.value)

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


class TestPinnedReportBytes:
    """SHA-256 prefixes of ``Report.canonical_bytes`` at seed 2025, as the
    benchmark's ``results_sha`` computes them."""

    @staticmethod
    def digest(*payloads):
        return hashlib.sha256(b"\n".join(payloads)).hexdigest()[:16]

    def test_verify_poisson_tightness(self):
        payloads = [
            run_experiment(
                _spec("verify", {"scenario": "poisson-tightness", "pairs": 400}, 2025, 20_000, stream)
            ).canonical_bytes()
            for stream in (0, 10_000)
        ]
        assert self.digest(*payloads) == "4d5fb92c27256128"

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
        assert self.digest(report.canonical_bytes()) == "c031269c86b1246b"


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

    def test_unknown_key_exit_code(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"kind": "tail", "parameters": {"mass": 1, "zzz": 0}}))
        assert main(["tail", "--spec", str(spec_path)]) == 2
