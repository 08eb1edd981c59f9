"""Exit codes, report shape and determinism of the verification driver."""

import json

import numpy as np
import pytest

from spinorlab import __version__, algebra
from spinorlab.cli import COMMANDS, DEFAULT_TOLS, RunSpec, main, run_command

M21_FLAT = {"family": "M21", "functions": [{"arity": 2, "coefficients": {}}]}

# potential phi = y1^2 y2^2 + x1 y1^3, so the divergence rows vanish
PUREODD2 = {
    "family": "PUREODD",
    "p": 2,
    "functions": [
        {"arity": 5, "coefficients": {"0,0,0,2,0": 2, "2,0,1,0,0": "1/3"}},
        {"arity": 5, "coefficients": {"0,0,0,1,1": -4}},
        {"arity": 5, "coefficients": {"0,0,0,0,2": 2, "0,1,0,1,0": 6}},
    ],
}

# f = 1e308 (u^2 + v^2) + 1: second derivatives overflow, so the jet Ricci is
# NaN and the closed-form display is inf at every probe point
M31_OVERFLOW = {"family": "M31", "functions": [
    {"arity": 3, "coefficients": {"2,0,0": 1e308, "0,2,0": 1e308, "0,0,0": 1}}]}

PUREEVEN2_BAD = {
    "family": "PUREEVEN",
    "p": 2,
    "functions": [
        {"arity": 4, "coefficients": {"0,0,1,0": 1.0}},
        {"arity": 4, "coefficients": {}},
        {"arity": 4, "coefficients": {}},
    ],
}


# PUREEVEN(1) declares a trivial stabilizer: a profile in x alone gives a
# flat connection, one with y-dependence gives one outside the stabilizer
PUREEVEN1 = {"family": "PUREEVEN", "p": 1, "functions": [
    {"arity": 2, "coefficients": {"0,0": "1/7", "1,0": "-1/20", "2,0": "2/9", "3,0": "1/6"}}]}
PUREEVEN1_Y = {"family": "PUREEVEN", "p": 1, "functions": [
    {"arity": 2, "coefficients": {"1,0": "1/2", "0,2": "1/3", "1,1": 1}}]}

# a PUREEVEN(2) profile whose curvature span (5) exceeds the stabilizer (4)
PUREEVEN2_WIDE = {
    "family": "PUREEVEN",
    "p": 2,
    "functions": [
        {"arity": 4, "coefficients": {"0,0,2,0": "1/2", "1,0,1,1": 1}},
        {"arity": 4, "coefficients": {"0,0,1,1": "1/3"}},
        {"arity": 4, "coefficients": {"0,1,0,2": -1, "0,0,2,0": "1/5"}},
    ],
}


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def _by_name(report):
    return {row["name"]: row for row in report["checks"]}


class TestRunSpec:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_tolerance(self, command):
        assert RunSpec(command).tolerance == DEFAULT_TOLS[command]

    def test_explicit_tolerance_wins(self):
        assert RunSpec("metric-verify", tol=1e-3).tolerance == 1e-3


class TestReportShape:
    def test_header_and_row_fields(self):
        report, status = run_command(RunSpec("clifford-table", seed=5))
        assert status == 0
        assert report["version"] == __version__
        assert report["octonion_table_checksum"] == algebra.octonion_table_checksum()
        assert report["seed"] == 5
        assert report["tolerance"] == 0.0
        assert report["pass"] is True
        for row in report["checks"]:
            assert set(row) >= {"name", "anchor", "pass"}

    def test_rows_sorted_by_name(self):
        report, _ = run_command(RunSpec("algebra-selfcheck"))
        names = [row["name"] for row in report["checks"]]
        assert names == sorted(names)

    def test_json_values_are_plain(self):
        report, _ = run_command(RunSpec("triality-check"))
        json.dumps(report)  # no numpy scalars may leak through

    def test_unknown_order_and_p_not_recorded(self):
        report, _ = run_command(RunSpec("clifford-table"))
        assert "order" not in report and "p" not in report


class TestExitCodes:
    def test_missing_spec_file(self, tmp_path):
        rs = RunSpec("metric-verify", spec_path=str(tmp_path / "nope.json"))
        report, status = run_command(rs)
        assert status == 2 and "error" in report

    def test_spec_required(self):
        report, status = run_command(RunSpec("metric-verify"))
        assert status == 2 and "error" in report

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        _, status = run_command(RunSpec("metric-verify", spec_path=str(path)))
        assert status == 2

    def test_unknown_family(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"family": "M99", "functions": []})
        _, status = run_command(RunSpec("metric-verify", spec_path=path))
        assert status == 2

    def test_impossible_tolerance_fails(self):
        _, status = run_command(RunSpec("algebra-selfcheck", tol=1e-30))
        assert status == 1

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_metric_coefficient(self, tmp_path, value):
        desc = {"family": "M21", "functions": [{"arity": 2, "coefficients": {"1,1": value}}]}
        spec = _write(tmp_path, "nonfinite.json", desc)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and "'1,1'" in report["error"]

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_cauchy_coefficient(self, tmp_path, value):
        desc = {"p": 1, "order": 4, "a": [{"arity": 2, "coefficients": {"2,0": value}}]}
        spec = _write(tmp_path, "nonfinite.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 2 and "'2,0'" in report["error"]

    def test_signature_mismatch_is_bad_input(self, tmp_path):
        # g_x22x22 = -1e308 at the origin turns the eigenvalue count to (1, 1)
        desc = {"family": "M31", "functions": [{"arity": 3, "coefficients": {"0,0,0": 1e308}}]}
        spec = _write(tmp_path, "m31.json", desc)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and "signature (1, 1) != declared (3, 1)" in report["error"]

    def test_cauchy_p_out_of_range(self):
        _, status = run_command(RunSpec("cauchy-solve", p=4))
        assert status == 2


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        spec = _write(tmp_path, "m21.json", M21_FLAT)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code = main(["metric-verify", "--spec", spec, "--seed", "11",
                         "--out", str(out)])
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_recorded_and_reused(self):
        r1, _ = run_command(RunSpec("algebra-selfcheck", seed=3))
        r2, _ = run_command(RunSpec("algebra-selfcheck", seed=3))
        assert r1 == r2

    def test_spec_digest_recorded(self, tmp_path):
        spec = _write(tmp_path, "m21.json", M21_FLAT)
        report, _ = run_command(RunSpec("metric-verify", spec_path=spec))
        assert len(report["spec_sha256"]) == 64


class TestAlgebraSelfcheck:
    def test_all_identities_pass(self):
        report, status = run_command(RunSpec("algebra-selfcheck", seed=2))
        assert status == 0
        rows = _by_name(report)
        for name in ("moufang left", "moufang right", "moufang middle",
                     "norm multiplicativity", "conjugation reverses products",
                     "clifford relations", "imaginary multiplication square"):
            assert rows[name]["pass"]
            assert rows[name]["residual"] <= 1e-12


class TestCliffordTable:
    def test_forty_five_rows(self):
        report, status = run_command(RunSpec("clifford-table"))
        assert status == 0
        assert len(report["checks"]) == 45
        rows = _by_name(report)
        assert rows["signature (8,0)"]["computed"] == "R(16)"
        assert rows["signature (3,0)"]["computed"] == "H(1)+H(1)"


class TestOrbitReport:
    def test_reference_dimensions(self):
        report, status = run_command(RunSpec("orbit-report"))
        assert status == 0
        rows = _by_name(report)
        assert rows["spin41 null class"]["stabilizer"] == 3
        assert rows["spin51 null-pair class"]["orbit"] == 11
        assert rows["spin32 generic class"]["orbit"] == 4
        assert rows["pure spinor orbit (4,3)"]["orbit"] == 7
        assert rows["null stabilizer (10,1)"]["dimension"] == 30
        assert rows["timelike stabilizer (10,1)"]["dimension"] == 24


class TestTrialityCheck:
    def test_outer_symmetry_orders(self):
        report, status = run_command(RunSpec("triality-check", seed=9))
        assert status == 0
        rows = _by_name(report)
        assert set(rows) == {"alpha squared", "beta squared", "tau cubed"}
        assert all(row["residual"] <= 1e-9 for row in rows.values())


class TestMetricVerify:
    def test_flat_example_all_zero(self, tmp_path):
        spec = _write(tmp_path, "m21.json", M21_FLAT)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 0
        rows = _by_name(report)
        for name in ("coframe gram reproduction", "connection membership",
                     "connection torsion", "connection skewness"):
            assert rows[name]["residual"] == 0.0
        assert rows["curvature magnitude"]["value"] == 0.0
        assert rows["metric signature"]["computed"] == [2, 1]

    def test_constraint_rows_reported(self, tmp_path):
        spec = _write(tmp_path, "po2.json", PUREODD2)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 0
        rows = _by_name(report)
        assert rows["constraint divergence row 1"]["residual"] <= 1e-12
        assert rows["constraint divergence row 2"]["residual"] <= 1e-12
        assert rows["curvature magnitude"]["value"] > 0.1

    def test_violating_profile_fails(self, tmp_path):
        spec = _write(tmp_path, "bad_even.json", PUREEVEN2_BAD)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 1
        rows = _by_name(report)
        assert not rows["constraint divergence row 1"]["pass"]
        # the divergence rows are exactly the stabilizer-membership condition
        assert not rows["connection membership"]["pass"]
        assert rows["connection membership"]["residual"] == 1.0
        assert rows["connection torsion"]["pass"]
        assert rows["connection skewness"]["pass"]

    def test_trivial_stabilizer_flat_connection(self, tmp_path):
        spec = _write(tmp_path, "pe1.json", PUREEVEN1)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 0
        assert _by_name(report)["connection membership"]["residual"] == 0.0

    def test_trivial_stabilizer_rejects_y_dependence(self, tmp_path):
        spec = _write(tmp_path, "pe1y.json", PUREEVEN1_Y)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 1
        rows = _by_name(report)
        assert not rows["connection membership"]["pass"]
        assert not rows["constraint divergence row 1"]["pass"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_curvature_magnitude_fails(self, tmp_path):
        spec = _write(tmp_path, "m31.json", M31_OVERFLOW)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 1
        row = _by_name(report)["curvature magnitude"]
        assert np.isnan(row["value"]) and not row["pass"]


class TestRicciCompare:
    def test_divergence_free_profile_matches(self, tmp_path):
        spec = _write(tmp_path, "po2.json", PUREODD2)
        report, status = run_command(RunSpec("ricci-compare", spec_path=spec))
        assert status == 0
        rows = _by_name(report)
        assert rows["closed form vs jet ricci"]["residual"] <= 1e-7
        assert rows["ricci magnitude"]["value"] > 0.01

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_residual_fails(self, tmp_path):
        spec = _write(tmp_path, "m31.json", M31_OVERFLOW)
        report, status = run_command(RunSpec("ricci-compare", spec_path=spec))
        assert status == 1
        rows = _by_name(report)
        for name, field in (("closed form vs jet ricci", "residual"),
                            ("ricci magnitude", "value")):
            assert np.isnan(rows[name][field]) and not rows[name]["pass"]

    def test_family_without_display(self, tmp_path):
        spec = _write(tmp_path, "m21.json", M21_FLAT)
        report, status = run_command(RunSpec("ricci-compare", spec_path=spec))
        assert status == 2 and "closed-form" in report["error"]


class TestHolonomyEstimate:
    def test_span_inside_stabilizer(self, tmp_path):
        spec = _write(tmp_path, "po2.json", PUREODD2)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 0
        rows = _by_name(report)
        span = rows["curvature span dimension"]
        assert 0 < span["dimension"] <= span["stabilizer"] == 6
        assert rows["curvature membership"]["residual"] <= 1e-8

    def test_flat_metric_has_zero_span(self, tmp_path):
        spec = _write(tmp_path, "m21.json", M21_FLAT)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 0
        assert _by_name(report)["curvature span dimension"]["dimension"] == 0

    def test_trivial_stabilizer_has_zero_span(self, tmp_path):
        spec = _write(tmp_path, "pe1.json", PUREEVEN1)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 0
        rows = _by_name(report)
        span = rows["curvature span dimension"]
        assert span["dimension"] == span["stabilizer"] == 0
        assert rows["curvature membership"]["residual"] == 0.0

    def test_span_beyond_stabilizer_fails_its_row(self, tmp_path):
        spec = _write(tmp_path, "pe2.json", PUREEVEN2_WIDE)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 1
        span = _by_name(report)["curvature span dimension"]
        assert (span["dimension"], span["stabilizer"]) == (5, 4)
        assert not span["pass"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_curvature_fails_membership(self, tmp_path):
        # every curvature operator is NaN; none may vanish as "zero curvature"
        spec = _write(tmp_path, "m31.json", M31_OVERFLOW)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 1
        row = _by_name(report)["curvature membership"]
        assert np.isnan(row["residual"]) and not row["pass"]


class TestCauchySolve:
    def test_builtin_order_six(self):
        report, status = run_command(RunSpec("cauchy-solve", p=2, order=6))
        assert status == 0
        rows = _by_name(report)
        for name in ("initial data constraints", "divergence propagation",
                     "ricci series", "even bracket consistency"):
            assert rows[name]["residual"] == 0.0
        series = rows["solution emitted"]["series"]
        assert len(series) == 3
        assert all(s["arity"] == 5 for s in series)

    @pytest.mark.parametrize("p", [1, 3])
    def test_other_builtin_sizes(self, p):
        report, status = run_command(RunSpec("cauchy-solve", p=p))
        assert status == 0
        assert report["p"] == p

    def test_violating_spec_fails_early(self, tmp_path):
        desc = {"p": 1, "order": 4,
                "a": [{"arity": 2, "coefficients": {"0,1": 1}}]}
        spec = _write(tmp_path, "viol.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 1
        rows = _by_name(report)
        assert list(rows) == ["initial data constraints"]
        assert rows["initial data constraints"]["residual"] == 1.0


class TestCurvatureSpace:
    def test_reference_dimensions(self):
        report, status = run_command(RunSpec("curvature-space"))
        assert status == 0
        rows = _by_name(report)
        assert rows["null-spinor stabilizer curvature space"]["dimension"] == 325
        assert rows["rotation algebra reference"]["dimension"] == 20


class TestMain:
    def test_stdout_report(self, capsys):
        code = main(["curvature-space"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    def test_exit_status_propagates(self, tmp_path):
        spec = _write(tmp_path, "bad_even.json", PUREEVEN2_BAD)
        code = main(["metric-verify", "--spec", spec,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1
