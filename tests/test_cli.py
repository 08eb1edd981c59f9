"""Exit codes, report shape and determinism of the verification driver."""

import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import spinorlab
from spinorlab import __version__, algebra, cauchy, clifford, geometry
from spinorlab.cli import COMMANDS, DEFAULT_TOLS, RunSpec, build_parser, main, run_command

# the inputs each subcommand reads, as the README's option table lists them
READS = {
    "algebra-selfcheck": {"seed", "tol"},
    "clifford-table": set(),
    "orbit-report": set(),
    "triality-check": {"seed", "tol"},
    "metric-verify": {"spec", "seed", "tol"},
    "ricci-compare": {"spec", "seed", "tol"},
    "holonomy-estimate": {"spec", "seed", "tol"},
    "cauchy-solve": {"spec", "tol", "order", "p"},
    "curvature-space": set(),
}
# input -> (option, a value on the command line, RunSpec field, header key)
OPTIONS = {
    "spec": ("--spec", "m.json", "spec_path", "spec_sha256"),
    "seed": ("--seed", "7", "seed", "seed"),
    "tol": ("--tol", "0.001", "tol", "tolerance"),
    "order": ("--order", "9", "order", "order"),
    "p": ("--p", "3", "p", "p"),
}

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

# f = u^2 + v^2 / 10^6: the curvature operators' singular values differ by a
# ratio of 1e-6, inside the rank guard band
M31_AMBIGUOUS = {"family": "M31", "functions": [
    {"arity": 3, "coefficients": {"2,0,0": 1, "0,2,0": "1/1000000"}}]}

# x1y1 + x2y2 + x3y3 + 1e308 (x1^2 y1^2 + x2^2 y2^2 - x1 x2 y1 y2)
M33GEN_OVERFLOW = {"family": "M33GEN", "functions": [{"arity": 6, "coefficients": {
    "1,0,0,1,0,0": 1, "0,1,0,0,1,0": 1, "0,0,1,0,0,1": 1, "2,0,0,2,0,0": 1e308,
    "0,2,0,0,2,0": 1e308, "1,1,0,1,1,0": -1e308}}]}

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


def _source_env():
    """The environment of a fresh interpreter that imports this spinorlab."""
    src = str(Path(spinorlab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestRunSpec:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_default_tolerance(self, command):
        # only a subcommand that reads --tol has a default tolerance
        if "tol" in READS[command]:
            assert RunSpec(command).tolerance == DEFAULT_TOLS[command]
        else:
            assert command not in DEFAULT_TOLS

    def test_explicit_tolerance_wins(self):
        assert RunSpec("metric-verify", tol=1e-3).tolerance == 1e-3


class TestDeclaration:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_parser_takes_exactly_the_inputs_read(self, command):
        parser = build_parser()
        assert RunSpec(**vars(parser.parse_args([command]))) == RunSpec(command)
        out = RunSpec(**vars(parser.parse_args([command, "--out", "r.json"])))
        assert out.out_path == "r.json"
        for name, (option, value, field, _) in OPTIONS.items():
            argv = [command, option, value]
            if name in READS[command]:
                rs = RunSpec(**vars(parser.parse_args(argv)))
                assert str(getattr(rs, field)) == value
            else:
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                assert exc.value.code == 2

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unread_inputs_change_nothing(self, command, tmp_path):
        base = {}
        if "spec" in READS[command] and command != "cauchy-solve":
            base["spec_path"] = _write(tmp_path, "po2.json", PUREODD2)
        unread = {"spec": ("spec_path", str(tmp_path / "missing.json")),
                  "seed": ("seed", 7), "tol": ("tol", 1e-3),
                  "order": ("order", 9), "p": ("p", 3)}
        extra = dict(field_value for name, field_value in unread.items()
                     if name not in READS[command])
        want = run_command(RunSpec(command, **base))
        report, status = run_command(RunSpec(command, **base, **extra))
        assert (report, status) == want
        for name in set(unread) - READS[command]:
            assert OPTIONS[name][3] not in report

    @pytest.mark.parametrize("given", [{"p": 3}, {"order": 9}, {"p": 1, "order": 6}])
    def test_cauchy_spec_with_p_or_order(self, tmp_path, given):
        desc = {"p": 1, "order": 6, "a": [{"arity": 2, "coefficients": {"2,0": "1/3"}}]}
        spec = _write(tmp_path, "c.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec, **given))
        assert status == 2 and "checks" not in report
        for key, val in given.items():
            assert f"{key} = {val}" in report["error"]
        argv = ["cauchy-solve", "--spec", spec, "--out", str(tmp_path / "r.json")]
        for key, val in given.items():
            argv += [f"--{key}", str(val)]
        assert main(argv) == 2
        assert run_command(RunSpec("cauchy-solve", spec_path=spec))[1] == 0

    @pytest.mark.parametrize("command, desc", [
        ("metric-verify", M21_FLAT),
        ("cauchy-solve", {"p": 1, "order": 4,
                          "a": [{"arity": 2, "coefficients": {"2,0": "1/3"}}]}),
    ])
    def test_spec_opened_once(self, tmp_path, monkeypatch, command, desc):
        spec = _write(tmp_path, "spec.json", desc)
        opened = []
        real_open = open

        def counting_open(file, *args, **kwargs):
            if str(file) == spec:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr("builtins.open", counting_open)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 0 and len(report["spec_sha256"]) == 64
        assert len(opened) == 1


class TestReportShape:
    def test_header_and_row_fields(self):
        report, status = run_command(RunSpec("triality-check", seed=5))
        assert status == 0
        assert report["version"] == __version__
        assert report["octonion_table_checksum"] == algebra.octonion_table_checksum()
        assert report["seed"] == 5
        assert report["tolerance"] == 1e-9
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

    @pytest.mark.parametrize("command", ["metric-verify", "cauchy-solve"])
    def test_deeply_nested_spec_is_bad_input(self, tmp_path, command):
        # the JSON parser gives up with a RecursionError, not a ValueError
        depth = 100_000
        path = tmp_path / "deep.json"
        path.write_text('{"a": ' + "[" * depth + "]" * depth + "}")
        out = tmp_path / "r.json"
        assert main([command, "--spec", str(path), "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert "checks" not in report
        assert report["error"].startswith("cannot read spec: ")

    @pytest.mark.parametrize("as_bool", [False, True], ids=["int", "bool"])
    def test_spec_path_that_is_not_a_path_is_bad_input(self, as_bool):
        # open() takes an int or a bool for a file descriptor, reads it and
        # closes it; True is fd 1, the process's stdout
        read_fd, write_fd = os.pipe()
        os.write(write_fd, b"{}")
        os.close(write_fd)
        try:
            fd = 1 if as_bool else read_fd
            report, status = run_command(
                RunSpec("metric-verify", spec_path=True if as_bool else read_fd))
            assert status == 2 and "checks" not in report
            assert report["error"].startswith("spec path must be a string or a path")
            os.fstat(fd)
        finally:
            try:
                os.close(read_fd)
            except OSError:
                pass

    def test_unknown_family(self, tmp_path):
        path = _write(tmp_path, "bad.json", {"family": "M99", "functions": []})
        _, status = run_command(RunSpec("metric-verify", spec_path=path))
        assert status == 2

    def test_impossible_tolerance_fails(self):
        _, status = run_command(RunSpec("algebra-selfcheck", tol=1e-30))
        assert status == 1

    @pytest.mark.parametrize("command", [c for c in COMMANDS if "seed" in READS[c]])
    def test_bad_seed_is_bad_input(self, tmp_path, command):
        # a negative seed used to escape numpy as a ValueError (exit 1)
        spec = ["--spec", _write(tmp_path, "po2.json", PUREODD2)] if "spec" in READS[command] else []
        out = tmp_path / "r.json"
        assert main([command, "--seed", "-1", *spec, "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert "checks" not in report
        assert report["error"] == "seed must be a nonnegative integer, got -1"
        api_spec = {"spec_path": spec[1]} if spec else {}
        report, status = run_command(RunSpec(command, seed=1.5, **api_spec))
        assert status == 2 and "checks" not in report
        assert report["error"] == "seed must be a nonnegative integer, got 1.5"

    @pytest.mark.parametrize("command", [c for c in COMMANDS if "tol" in READS[c]])
    def test_nan_or_negative_tolerance_is_bad_input(self, tmp_path, command):
        # such a tolerance used to fail every row (exit 1)
        spec = ["--spec", _write(tmp_path, "po2.json", PUREODD2)] if "spec" in READS[command] else []
        out = tmp_path / "r.json"
        for value in ("nan", "-1"):
            assert main([command, "--tol", value, *spec, "--out", str(out)]) == 2
            report = json.loads(out.read_text())
            assert "checks" not in report
            assert report["error"] == (
                f"tolerance must be a nonnegative number, got {float(value)!r}")

    @pytest.mark.parametrize("command, field, value, error", [
        ("cauchy-solve", "p", 2.0, "p must be an integer, got 2.0"),
        ("cauchy-solve", "order", 6.0, "order must be an integer, got 6.0"),
        ("cauchy-solve", "p", True, "p must be an integer, got True"),
        ("cauchy-solve", "order", True, "order must be an integer, got True"),
        ("algebra-selfcheck", "seed", True, "seed must be a nonnegative integer, got True"),
        ("algebra-selfcheck", "tol", True, "tolerance must be a nonnegative number, got True"),
    ], ids=["float-p", "float-order", "bool-p", "bool-order", "bool-seed", "bool-tol"])
    def test_bool_or_float_api_input_is_bad_input(self, command, field, value, error):
        # floats used to escape as a TypeError, and True ran as 1 (exit 0)
        report, status = run_command(RunSpec(command, **{field: value}))
        assert status == 2 and "checks" not in report
        assert report["error"] == error

    def test_numpy_integer_api_inputs_are_accepted(self):
        _, status = run_command(RunSpec("cauchy-solve", p=np.int64(2), order=np.int64(6)))
        assert status == 0
        _, status = run_command(RunSpec("algebra-selfcheck", seed=np.int64(3)))
        assert status == 0

    @pytest.mark.parametrize("tol", [0.0, float("inf")])
    def test_zero_and_infinite_tolerance_are_valid(self, tol):
        report, status = run_command(RunSpec("cauchy-solve", tol=tol))
        assert status == 0 and report["pass"]

    # a JSON integer is exact, but one past the float range is no coefficient
    @pytest.mark.parametrize("value", [float("inf"), float("nan"),
                                       pytest.param(10 ** 400, id="int-past-float-range")])
    def test_non_finite_metric_coefficient(self, tmp_path, value):
        desc = {"family": "M21", "functions": [{"arity": 2, "coefficients": {"1,1": value}}]}
        spec = _write(tmp_path, "nonfinite.json", desc)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and "'1,1'" in report["error"]

    @pytest.mark.parametrize("value", [float("inf"), float("nan"),
                                       pytest.param(-10 ** 400, id="int-past-float-range")])
    def test_non_finite_cauchy_coefficient(self, tmp_path, value):
        desc = {"p": 1, "order": 4, "a": [{"arity": 2, "coefficients": {"2,0": value}}]}
        spec = _write(tmp_path, "nonfinite.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 2 and "'2,0'" in report["error"]

    @pytest.mark.parametrize("command, desc", [
        ("metric-verify", {"family": "M21",
                           "functions": [{"arity": 2, "coefficients": {"0,2": "1/0"}}]}),
        ("cauchy-solve", {"p": 1, "order": 4,
                          "a": [{"arity": 2, "coefficients": {"0,2": "1/0"}}]}),
    ])
    def test_zero_denominator_coefficient(self, tmp_path, command, desc):
        spec = _write(tmp_path, "zero_den.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and "'0,2'" in report["error"]

    @pytest.mark.parametrize("command, desc, key", [
        ("metric-verify", {"family": "M21",
                           "functions": [{"arity": 2, "coefficients": [[1, 1], 2.0]}]},
         "coefficients"),
        ("cauchy-solve", {"p": 1, "order": 4, "a": ["oops"]}, "a"),
        ("cauchy-solve", {"p": 1, "order": 4, "b": {"x": 1}}, "b"),
    ])
    def test_spec_entry_that_is_not_an_object(self, tmp_path, command, desc, key):
        spec = _write(tmp_path, "shape.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and f"{key} must be" in report["error"]

    @pytest.mark.parametrize("command, desc, message", [
        ("metric-verify", {"functions": [{"arity": 2, "coefficients": {}}]},
         "bad metric spec: missing key 'family'"),
        ("metric-verify", {"family": "M21"}, "bad metric spec: missing key 'functions'"),
        ("metric-verify", {"family": "M21", "functions": [{"coefficients": {}}]},
         "bad metric spec: missing key 'arity'"),
        ("metric-verify", {"family": "M21", "functions": 5},
         "bad metric spec: functions must be a list of function objects, got 5"),
        ("metric-verify", {"family": "M21", "functions": [[2]]},
         "bad metric spec: functions must be a list of function objects, got [[2]]"),
        ("cauchy-solve", {"order": 4, "a": []}, "bad initial data: missing key 'p'"),
        # a misspelled coefficient map is not a zero profile
        ("metric-verify",
         {"family": "M31", "functions": [{"arity": 3, "coeficients": {"2,0,0": 1}}]},
         "bad metric spec: missing key 'coefficients'"),
        ("cauchy-solve", {"p": 1, "order": 4, "a": [{"arity": 2, "coeffs": {"2,0": 1}}]},
         "bad initial data: missing key 'coefficients'"),
    ], ids=["family", "functions", "arity", "functions-int", "functions-entry", "p",
            "coefficients", "cauchy-coefficients"])
    def test_spec_missing_or_malformed_key(self, tmp_path, command, desc, message):
        spec = _write(tmp_path, "keys.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and report["error"] == message

    @pytest.mark.parametrize("command", ["metric-verify", "ricci-compare", "holonomy-estimate"])
    def test_negative_arity_is_bad_input(self, tmp_path, command):
        # it used to escape with a struct.error traceback (exit 1, no report)
        desc = {"family": "M21", "functions": [{"arity": -1, "coefficients": {}}]}
        out = tmp_path / "r.json"
        assert main([command, "--spec", _write(tmp_path, "neg.json", desc), "--out", str(out)]) == 2
        report = json.loads(out.read_text())
        assert "checks" not in report
        assert report["error"] == "bad metric spec: arity must be a nonnegative integer, got -1"

    @pytest.mark.parametrize("arity", [3.5, "3", True])
    def test_arity_that_is_not_an_integer(self, tmp_path, arity):
        desc = {"family": "M31", "functions": [{"arity": arity, "coefficients": {"2,0,0": 1}}]}
        spec = _write(tmp_path, "arity.json", desc)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and f"arity must be an integer, got {arity!r}" in report["error"]

    @pytest.mark.parametrize("key", ["1,1,", "1.5,0,0", "a,b,c", "1", "1,0,0,0"])
    @pytest.mark.parametrize("command", ["metric-verify", "cauchy-solve"])
    def test_malformed_exponent_key(self, tmp_path, key, command):
        function = {"arity": 3, "coefficients": {key: 1}}
        desc = ({"family": "M31", "functions": [function]} if command == "metric-verify"
                else {"p": 1, "order": 4, "a": [function]})
        spec = _write(tmp_path, "key.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and f"exponent key {key!r}" in report["error"]
        # a key of the wrong length is named as written, with the arity (2p for cauchy)
        if all(s.isdecimal() for s in key.split(",")):
            arity = 3 if command == "metric-verify" else 2
            assert f"{len(key.split(','))} exponents for arity {arity}" in report["error"]

    def test_fractional_metric_p(self, tmp_path):
        for p in (2.7, True, "3", "12/2", 3.0):
            desc = {"family": "PUREEVEN", "p": p,
                    "functions": [{"arity": 4, "coefficients": {}}] * 3}
            spec = _write(tmp_path, "p.json", desc)
            report, status = run_command(RunSpec("metric-verify", spec_path=spec))
            assert status == 2 and f"p must be an integer, got {p!r}" in report["error"]

    @pytest.mark.parametrize("family", ["PUREEVEN(2)", "PUREEVEN(2", "PUREEVEN(2.0)",
                                        "PUREEVEN(4/2)", "PUREEVEN()"])
    def test_family_tag_carries_no_size(self, tmp_path, family):
        # the block size is spelled only as p: a tag neither gives nor overrides it
        functions = [{"arity": 4, "coefficients": {}}] * 3
        for desc in ({"family": family, "functions": functions},
                     {"family": family, "p": 2, "functions": functions}):
            spec = _write(tmp_path, "tag.json", desc)
            report, status = run_command(RunSpec("metric-verify", spec_path=spec))
            assert status == 2 and f"unknown family {family!r}" in report["error"]
        spec = _write(tmp_path, "bare.json",
                      {"family": "PUREEVEN", "p": 2, "functions": functions})
        assert run_command(RunSpec("metric-verify", spec_path=spec))[1] == 0

    @pytest.mark.parametrize("family", [f for f in geometry.FAMILY_TAGS
                                        if f not in ("PUREODD", "PUREEVEN")])
    def test_block_size_refused_where_unread(self, tmp_path, family):
        # only PUREODD and PUREEVEN have a block size; no builder ignores a p
        spec = _write(tmp_path, "p.json", {"family": family, "p": 7, "functions": []})
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and f"{family} takes no block size p, got p = 7" in report["error"]

    def test_block_size_refused_on_a_valid_spec(self, tmp_path):
        desc = {"family": "M31", "functions": [{"arity": 3, "coefficients": {"1,0,0": 1}}]}
        valid = _write(tmp_path, "m.json", desc)
        assert run_command(RunSpec("metric-verify", spec_path=valid))[1] == 0
        spec = _write(tmp_path, "p.json", {**desc, "p": 7})
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and "M31" in report["error"] and "checks" not in report

    @pytest.mark.parametrize("command, desc, message", [
        ("metric-verify", {"family": "PUREEVEN", "p": 10 ** 5,
                           "functions": [{"arity": 4, "coefficients": {}}]},
         "PUREEVEN with p = 100000 takes 5000050000 functions, got 1"),
        ("cauchy-solve", {"p": 10 ** 5, "order": 4, "a": [{"coefficients": {"0,0": 1}}]},
         "need 5000050000 series for p = 100000"),
    ], ids=["metric", "cauchy"])
    def test_huge_block_size_refused_before_building(self, tmp_path, monkeypatch,
                                                     command, desc, message):
        # the counts are compared arithmetically: no p(p + 1)/2 pairs are listed,
        # and no normal form of that p is built
        pairs, declared = geometry.symmetric_pairs, geometry._declared

        def small(size):
            assert size <= 100, f"listed the pairs of p = {size}"
            return pairs(size)

        def small_form(tag, p):
            assert p is None or p <= 100, f"built the {tag} normal form of p = {p}"
            return declared(tag, p)

        monkeypatch.setattr(geometry, "symmetric_pairs", small)
        monkeypatch.setattr(cauchy, "symmetric_pairs", small)
        monkeypatch.setattr(geometry, "_declared", small_form)
        report, status = run_command(RunSpec(command, spec_path=_write(tmp_path, "p.json", desc)))
        assert status == 2 and message in report["error"]

    @pytest.mark.parametrize("command, desc, key", [
        ("metric-verify", {"family": "M31",
                           "functions": [{"arity": 3, "coefficients": {"1,0,0": True}}]},
         "1,0,0"),
        ("cauchy-solve", {"p": 1, "order": 4,
                          "a": [{"arity": 2, "coefficients": {"2,0": False}}]}, "2,0"),
    ], ids=["metric", "cauchy"])
    def test_boolean_coefficient(self, tmp_path, command, desc, key):
        spec = _write(tmp_path, "bool.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and "checks" not in report
        assert f"coefficient {key!r} is not a finite number" in report["error"]

    @pytest.mark.parametrize("command, desc, unknown", [
        ("metric-verify", {"family": "M31", "name": "draw 1",
                           "functions": [{"name": "f", "arity": 3,
                                          "coefficients": {"2,0,0": 1}}]}, ("name",)),
        ("cauchy-solve", {"p": 1, "Order": 4,
                          "a": [{"name": "a11", "arity": 2, "coefficients": {"2,0": 1}}],
                          "B": [{"coefficients": {"0,1": 1}}]}, ("Order", "B")),
    ], ids=["metric", "cauchy"])
    def test_unknown_top_level_key(self, tmp_path, command, desc, unknown):
        # a misspelled key used to be read as its default; the first unknown
        # key is named, and a function entry's name is still ignored
        report, status = run_command(RunSpec(command, spec_path=_write(tmp_path, "k.json", desc)))
        assert status == 2 and "checks" not in report
        assert f"unknown key {unknown[0]!r}" in report["error"]
        valid = {k: v for k, v in desc.items() if k not in unknown}
        assert run_command(RunSpec(command, spec_path=_write(tmp_path, "v.json", valid)))[1] == 0

    @pytest.mark.parametrize("command, desc, unknown", [
        ("cauchy-solve", {"p": 1, "order": 4,
                          "a": [{"arty": 3, "coefficients": {"2,0": "1/3"}}]}, "arty"),
        ("metric-verify", {"family": "M21", "functions": [
            {"arity": 2, "coefficients": {"2,0": 0.1}, "scale": 100}]}, "scale"),
    ], ids=["cauchy", "metric"])
    def test_unknown_function_key(self, tmp_path, command, desc, unknown):
        # a misspelled arity used to skip the arity check, and an unknown
        # field of a function object was ignored
        report, status = run_command(RunSpec(command, spec_path=_write(tmp_path, "f.json", desc)))
        assert status == 2 and "checks" not in report
        assert f"unknown key {unknown!r}" in report["error"]

    def test_exponent_sets_no_table_size(self, tmp_path):
        # a profile of degree 10^6 is expanded without a table sized by its degree
        spec = _write(tmp_path, "deg.json", {
            "family": "M21", "functions": [{"arity": 2, "coefficients": {"1000000,0": 1}}]})
        start = time.perf_counter()
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert time.perf_counter() - start < 1.0
        assert status == 0 and report["pass"] is True

    def test_exponent_past_machine_integers(self, tmp_path):
        key = "100000000000000000000000,0"
        spec = _write(tmp_path, "huge.json", {
            "family": "M21", "functions": [{"arity": 2, "coefficients": {key: 1}}]})
        start = time.perf_counter()
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert time.perf_counter() - start < 1.0
        assert status == 2 and "checks" not in report
        assert f"exponent key {key!r} does not fit a machine integer" in report["error"]

    @pytest.mark.parametrize("command", ["metric-verify", "ricci-compare", "holonomy-estimate"])
    def test_largest_machine_exponents_run(self, tmp_path, command):
        # three exponents 2^63 - 1 in one key: a total degree past 2^64
        key = ",".join([str(np.iinfo(np.int64).max)] * 3)
        spec = _write(tmp_path, "m31.json", {
            "family": "M31", "functions": [{"arity": 3, "coefficients": {key: 1}}]})
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 0 and report["pass"] is True

    @pytest.mark.parametrize("text", [b"[1, 2]", b"null", b'{"family": "M21\xff"}'],
                             ids=["list", "null", "not-utf8"])
    @pytest.mark.parametrize("command", ["metric-verify", "cauchy-solve"])
    def test_spec_that_is_not_a_json_object(self, tmp_path, command, text):
        path = tmp_path / "spec.json"
        path.write_bytes(text)
        report, status = run_command(RunSpec(command, spec_path=str(path)))
        assert status == 2 and "checks" not in report
        assert report["error"].startswith(("spec must be a JSON object", "cannot read spec"))

    @pytest.mark.parametrize("command", ["metric-verify", "ricci-compare", "holonomy-estimate"])
    def test_profile_derivatives_past_float_range(self, tmp_path, command):
        # the mixed Hessian entries 4e308 outgrow a float and read as inf,
        # so the Hessian determinant at the origin is NaN
        spec = _write(tmp_path, "m33.json", M33GEN_OVERFLOW)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2
        assert "mixed Hessian determinant nan at the origin" in report["error"]

    @pytest.mark.parametrize("command", ["metric-verify", "ricci-compare", "holonomy-estimate"])
    def test_no_nondegenerate_probe_points(self, tmp_path, command, monkeypatch):
        def degenerate(m, seed, count=5):
            raise RuntimeError("could not sample nondegenerate probe points")

        monkeypatch.setattr(geometry, "probe_points", degenerate)
        desc = {"family": "M31", "functions": [{"arity": 3, "coefficients": {}}]}
        spec = _write(tmp_path, "m31.json", desc)
        report, status = run_command(RunSpec(command, spec_path=spec))
        assert status == 2 and "checks" not in report
        assert report["error"] == ("metric degenerate across the probe box: "
                                   "could not sample nondegenerate probe points")

    def test_signature_mismatch_is_bad_input(self, tmp_path):
        # g_x22x22 = -1e308 at the origin turns the eigenvalue count to (1, 1)
        desc = {"family": "M31", "functions": [{"arity": 3, "coefficients": {"0,0,0": 1e308}}]}
        spec = _write(tmp_path, "m31.json", desc)
        report, status = run_command(RunSpec("metric-verify", spec_path=spec))
        assert status == 2 and "signature (1, 1) != declared (3, 1)" in report["error"]

    @pytest.mark.parametrize("route", ["built-in", "spec"])
    def test_cauchy_order_past_a_key_digit(self, tmp_path, route):
        # an order of 2^64 or more used to end in a traceback (exit 1) from
        # the product loop, or never end when every product has a zero factor
        order = 2 ** 64 + 4
        if route == "spec":
            spec = _write(tmp_path, "c.json", {
                "p": 1, "order": order, "a": [{"coefficients": {"2,0": "1/3"}}]})
            args = ["--spec", spec]
        else:
            args = ["--p", "2", "--order", str(order)]
        proc = subprocess.run(
            [sys.executable, "-m", "spinorlab.cli", "cauchy-solve", *args],
            capture_output=True, text=True, env=_source_env(), timeout=60)
        report = json.loads(proc.stdout)
        assert proc.returncode == 2 and proc.stderr == "" and "checks" not in report
        assert f"truncation order {order} is past 2^64 - 1" in report["error"]

    def test_cauchy_p_out_of_range(self):
        _, status = run_command(RunSpec("cauchy-solve", p=4))
        assert status == 2

    def test_guard_band_refusal(self, tmp_path):
        spec = _write(tmp_path, "m31.json", M31_AMBIGUOUS)
        report, status = run_command(RunSpec("holonomy-estimate", spec_path=spec))
        assert status == 3 and "checks" not in report
        assert "holonomy span" in report["error"] and "guard band" in report["error"]


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
    def test_relations_form_no_dense_generator(self, monkeypatch):
        def refuse(p, q):
            raise AssertionError(f"dense generators of ({p},{q}) formed")

        monkeypatch.setattr(clifford, "clifford_generators", refuse)
        report, status = run_command(RunSpec("algebra-selfcheck", seed=4))
        assert status == 0
        assert _by_name(report)["clifford relations"]["residual"] == 0.0

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
    def test_report_bytes_do_not_depend_on_hash_seed(self):
        reports = [subprocess.run(
            [sys.executable, "-m", "spinorlab.cli", "clifford-table"], capture_output=True,
            env=dict(_source_env(), PYTHONHASHSEED=seed), check=True).stdout
            for seed in ("1", "2")]
        assert reports[0] == reports[1]
        assert "seed" not in json.loads(reports[0])

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


DATA = Path(__file__).resolve().parent / "data"

# sha256 of full written reports, each recorded before a change to the code
# behind it: the Clifford rows while the generators were built by dense
# np.kron, the cauchy-solve reports while the series held one Fraction per
# coefficient, the octonion reports while the table was a dense tensor, and
# the metric reports while each builder declared its normal form inline,
# and the p = 3 metric reports while the Ricci display formed its bracket
# one jet product at a time, and the M41DEG, M51NULL and p = 3 holonomy
# reports while each probe point was evaluated on its own.
# Such a change may alter how values are computed, not a byte of any report.
REPORT_SHA256 = {
    "algebra-selfcheck": (
        ["algebra-selfcheck", "--seed", "3"],
        "cb60b2d73543a79426a2fc54353b52267dac7f51e90f95236cc9bcd5f8e10f44"),
    "clifford-table": (
        ["clifford-table"],
        "feacc7ca92869535f134db0e3787404d61a4c459358f50adf1c1eb996795e86e"),
    "cauchy-p1": (
        ["cauchy-solve", "--p", "1", "--order", "8"],
        "9fd87b7055c78ba45b63be594e3f75a177923deab9edde79dd53f242a3de3a9a"),
    "cauchy-p2": (
        ["cauchy-solve", "--p", "2", "--order", "8"],
        "58bf7d2165437f3c020e7e145fe83d32db0febb4f43d6bd8fbb53efe86be01c2"),
    "cauchy-p3": (
        ["cauchy-solve", "--p", "3", "--order", "8"],
        "60e4c33971931e2065b02c0503c1aa7ef4c8a5c180b050f8d8d46b8c20a982cd"),
    "cauchy-p3-ydeg4-spec": (
        ["cauchy-solve", "--spec", str(DATA / "cauchy_p3_order8_ydeg4.json")],
        "544e0b1e7be57bc9ca2348fedd52090182f8445c1099a2d49064a6ceaec12057"),
    "cauchy-p2-order12-ydeg4-spec": (
        ["cauchy-solve", "--spec", str(DATA / "cauchy_p2_order12_ydeg4.json")],
        "80ad91148502ee3b6334ffaed36deb055197298d32058dc1245c0898297cd3d6"),
    "triality-check": (
        ["triality-check", "--seed", "5"],
        "b8a78d762299f8f7a6b1da3acb197940d469d1001d6140c4e911b4bff0e6dc24"),
    "orbit-report": (
        ["orbit-report"],
        "551016f8a37fc2961f46ed4e211bd0ca5e8f72d6ebbb6d15266b8c87b4cf177c"),
    "curvature-space": (
        ["curvature-space"],
        "ace28e0a54c379689c1986afd40a038fc8ce84e8fe5836c8a8ea29e80a7f3e6a"),
    "metric-verify-pureodd2": (
        ["metric-verify", "--spec", str(DATA / "metric_pureodd2.json"), "--seed", "7"],
        "7f1415ec1a92e80a763823e6700c8c4c7b7d399a66f1a5b8820d114dc61ae2a7"),
    "ricci-compare-pureodd2": (
        ["ricci-compare", "--spec", str(DATA / "metric_pureodd2.json"), "--seed", "7"],
        "d4094806b0cad379716f7d4e2ba9e3ccaf6ee611513103f3a6704b8ab04f7123"),
    "holonomy-estimate-pureodd2": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_pureodd2.json"), "--seed", "7"],
        "44843364882e5dbb8172c51aedcf1ef89f308a19e21c935afce90169114faab8"),
    "metric-verify-m22deg": (
        ["metric-verify", "--spec", str(DATA / "metric_m22deg.json"), "--seed", "7"],
        "a301a47cd1b03be604e2140c857e72121383d01c5a5235465ae2cb4f0c9ca6f7"),
    "ricci-compare-m22deg": (
        ["ricci-compare", "--spec", str(DATA / "metric_m22deg.json"), "--seed", "7"],
        "4ffd67bfdefe4d38d6d6e2ea836e2473fbb2c78c746cf3aa578db8bdef060e4c"),
    "holonomy-estimate-m22deg": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_m22deg.json"), "--seed", "7"],
        "8e4f207b2c33f5275bf83e80a7ea657347df29aca9b23d0d7c9e05bd87a0fc6e"),
    "metric-verify-m101": (
        ["metric-verify", "--spec", str(DATA / "metric_m101.json"), "--seed", "7"],
        "238b3a13af9b520f82c0735de5bf60e29385811e16fe653faefe272b14ece55f"),
    "holonomy-estimate-m101": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_m101.json"), "--seed", "7"],
        "8b27d60412f4097107c9a82f5a84a34f6bac1c11746a1626460def6bf4dd12fe"),
    "ricci-compare-m41deg": (
        ["ricci-compare", "--spec", str(DATA / "metric_m41deg.json"), "--seed", "7"],
        "54805c646bf302ac7f384af9c4c31bbdf2560d485a5c7c315249cb008b5e8dd5"),
    "ricci-compare-m51null": (
        ["ricci-compare", "--spec", str(DATA / "metric_m51null.json"), "--seed", "7"],
        "218a688624feeaab796f4c06819b4218898235393e1396602a09b794cc70126a"),
    "metric-verify-m33gen": (
        ["metric-verify", "--spec", str(DATA / "metric_m33gen.json"), "--seed", "7"],
        "a276a34c4203047aa8e30279f9fbd8c0cce3fffb584785571af9008b14d0a4ff"),
    "metric-verify-pureodd3": (
        ["metric-verify", "--spec", str(DATA / "metric_pureodd3.json"), "--seed", "7"],
        "90a00af903fa96038544a1c369403971436ae9d36009e33331956aba4b0e29a0"),
    "ricci-compare-pureodd3": (
        ["ricci-compare", "--spec", str(DATA / "metric_pureodd3.json"), "--seed", "7"],
        "d66ae21515173d735c8f73059b8731e9a6f4c801208a57a93efe9ce2f9767cda"),
    "metric-verify-pureeven3": (
        ["metric-verify", "--spec", str(DATA / "metric_pureeven3.json"), "--seed", "7"],
        "169ca3070bba1f6c7fa2eb851ffced659d0854ccfca79b74e0cdbaf69af81f5c"),
    "ricci-compare-pureeven3": (
        ["ricci-compare", "--spec", str(DATA / "metric_pureeven3.json"), "--seed", "7"],
        "adac1defa456e2a2f28a808cc6ddf1d34388327f30aeb336f6060b11b9c5fb1b"),
    "holonomy-estimate-m33gen": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_m33gen.json"), "--seed", "7"],
        "1def8a011cb2c87c1b09febfe97ad16d528bc6019250ce0c2b55ba105f147b95"),
    "metric-verify-m41deg": (
        ["metric-verify", "--spec", str(DATA / "metric_m41deg.json"), "--seed", "7"],
        "082a1dad973ef8c8e56c5194a626b16ae695d538c93d677398a71bd12c5a64f5"),
    "metric-verify-m51null": (
        ["metric-verify", "--spec", str(DATA / "metric_m51null.json"), "--seed", "7"],
        "b8830963aa8f298f7e5cf3eab91cadd6095d4cb5f163713fa5ba88f08d3df8b8"),
    "holonomy-estimate-m41deg": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_m41deg.json"), "--seed", "7"],
        "9f1e4eaa66b6ff4777d055483cff59da6252d4d0d4898be52a95f421c3034226"),
    "holonomy-estimate-m51null": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_m51null.json"), "--seed", "7"],
        "89472a54aaee2f05947092a67385c5329871391f85e2be9655d5afe4b63652a6"),
    "holonomy-estimate-pureodd3": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_pureodd3.json"), "--seed", "7"],
        "41e81487a668dd93d046fde4d3508e977119e7d8751beff3855d5487559cba5f"),
    "holonomy-estimate-pureeven3": (
        ["holonomy-estimate", "--spec", str(DATA / "metric_pureeven3.json"), "--seed", "7"],
        "1ef440004c27d8decee73e8230573d04fe1b14309232a12386787e4f5bc904d5"),
}

# metric runs that end in exit status 2 and so have no report to pin: M101 and
# M33GEN declare no closed-form Ricci display
UNPINNED_METRIC_RUNS = {("ricci-compare", "metric_m101.json"),
                        ("ricci-compare", "metric_m33gen.json")}


@pytest.mark.parametrize("case", sorted(REPORT_SHA256))
def test_report_bytes_are_pinned(tmp_path, case):
    argv, want = REPORT_SHA256[case]
    out = tmp_path / "report.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_every_metric_report_is_pinned(tmp_path):
    # each metric spec under tests/data, run by each metric command at seed 7,
    # is pinned above, or is a listed run that exits 2
    pinned = [argv for argv, _ in REPORT_SHA256.values()]
    unpinned = set()
    for spec in sorted(DATA.glob("metric_*.json")):
        for command in ("metric-verify", "ricci-compare", "holonomy-estimate"):
            argv = [command, "--spec", str(spec), "--seed", "7"]
            if argv in pinned:
                continue
            unpinned.add((command, spec.name))
            status = main([*argv, "--out", str(tmp_path / "report.json")])
            assert status == 2, (command, spec.name, status)
    assert unpinned == UNPINNED_METRIC_RUNS


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


    def test_tolerance_admits_small_violation(self, tmp_path):
        desc = {"p": 1, "order": 6,
                "a": [{"arity": 2, "coefficients": {"0,1": "1/1000"}}]}
        spec = _write(tmp_path, "small.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec, tol=0.01))
        assert status == 0
        rows = _by_name(report)
        assert rows["initial data constraints"]["residual"] == 0.001
        assert rows["divergence propagation"]["residual"] == 0.001

    def test_coefficient_past_float_range_fails_its_row(self, tmp_path):
        # divergence 3e308 y^2 outgrows a float and reads as inf
        desc = {"p": 1, "order": 6,
                "a": [{"arity": 2, "coefficients": {"0,3": 1e308}}]}
        spec = _write(tmp_path, "big.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 1
        row = _by_name(report)["initial data constraints"]
        assert row["residual"] == float("inf") and not row["pass"]

    def test_coefficient_below_float_range_fails_its_row(self, tmp_path):
        # divergence 10^-400 is below the float range and reads as ulp(0), not 0
        desc = {"p": 2, "order": 4,
                "a": [{"arity": 4, "coefficients": {"0,0,1,0": "1/1" + "0" * 400}},
                      {"arity": 4, "coefficients": {}}, {"arity": 4, "coefficients": {}}]}
        spec = _write(tmp_path, "tiny.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 1
        row = _by_name(report)["initial data constraints"]
        assert row["residual"] == math.ulp(0.0) and not row["pass"]

    @pytest.mark.parametrize("key, arity", [
        ("a", 7), ("b", "x"), ("a", 3), ("b", 2.0), ("a", True)])
    def test_entry_arity_must_be_2p(self, tmp_path, key, arity):
        desc = {"p": 1, "order": 4, "a": [{"arity": 2, "coefficients": {"2,0": 1}}],
                "b": [{"arity": 2, "coefficients": {}}]}
        desc[key][0]["arity"] = arity
        spec = _write(tmp_path, "arity.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 2 and "arity" in report["error"] and repr(arity) in report["error"]

    @pytest.mark.parametrize("key, value", [
        ("p", 0), ("p", 1.5), ("order", 2.7),
        ("p", True), ("p", "3"), ("p", "12/2"), ("p", 3.0),
        ("order", True), ("order", "3"), ("order", "12/2"), ("order", 3.0),
    ])
    def test_bad_p_or_order_is_bad_input(self, tmp_path, key, value):
        desc = {"p": 1, "order": 4, "a": [{"arity": 2, "coefficients": {"2,0": 1}}]}
        desc[key] = value
        if value == 0:
            desc["a"] = []
        spec = _write(tmp_path, "bad.json", desc)
        report, status = run_command(RunSpec("cauchy-solve", spec_path=spec))
        assert status == 2 and key in report["error"]
        if value != 0:
            assert f"{key} must be an integer, got {value!r}" in report["error"]


class TestCurvatureSpace:
    def test_reference_dimensions(self):
        report, status = run_command(RunSpec("curvature-space"))
        assert status == 0
        rows = _by_name(report)
        assert rows["null-spinor stabilizer curvature space"]["dimension"] == 325
        assert rows["rotation algebra reference"]["dimension"] == 20


class TestMain:
    @pytest.mark.parametrize("argv", [
        ["metric-verify", "--spec", "m.json", "--p", "3"],
        ["metric-verify", "--spec", "m.json", "--order", "4"],
        ["clifford-table", "--spec", "missing.json"],
        ["curvature-space", "--p", "2"],
        ["orbit-report", "--seed", "1"],
        ["curvature-space", "--tol", "1"],
        ["clifford-table", "--tol", "1"],
        ["cauchy-solve", "--seed", "1"],
        ["clifford-table", "--seed", "1"],
    ])
    def test_option_rejected_where_unread(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stdout_report(self, capsys):
        code = main(["curvature-space"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True

    @pytest.mark.parametrize("where", ["missing parent directory", "a directory"])
    def test_unwritable_out_is_bad_input(self, tmp_path, capsys, where):
        out = tmp_path if where == "a directory" else tmp_path / "missing" / "r.json"
        assert main(["clifford-table", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and str(out) in lines[0]

    def test_exit_status_propagates(self, tmp_path):
        spec = _write(tmp_path, "bad_even.json", PUREEVEN2_BAD)
        code = main(["metric-verify", "--spec", spec,
                     "--out", str(tmp_path / "r.json")])
        assert code == 1

    def test_import_loads_no_scipy(self):
        # after the import, and again after the block solves of curvature-space,
        # orbit-report and the spin(4,4) purity test
        code = ("import sys\n"
                "def loaded():\n"
                "    print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
                "from spinorlab import cli, orbits\n"
                "loaded()\n"
                "for command in ('curvature-space', 'orbit-report'):\n"
                "    assert cli.run_command(cli.RunSpec(command))[1] == 0\n"
                "assert orbits.is_pure((4, 4), orbits.pure_spinor((4, 4)))\n"
                "loaded()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_source_env(), check=True)
        assert proc.stdout.split() == ["[]", "[]"]

    def test_null_stabilizer_built_only_for_m101(self):
        # in a fresh interpreter, cauchy-solve and an M21 entry leave the (10,1)
        # null stabilizer unbuilt; the M101 entry builds it
        code = ("from spinorlab import cli, geometry, octospin\n"
                "def built():\n"
                "    print(octospin.null_stabilizer_basis.cache_info().currsize)\n"
                "assert cli.run_command(cli.RunSpec('cauchy-solve', p=2))[1] == 0\n"
                "geometry.normal_form('M21')\n"
                "built()\n"
                "geometry.normal_form('M101')\n"
                "built()\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=_source_env(), check=True)
        assert proc.stdout.split() == ["0", "1"]

    def test_non_finite_report_is_strict_json(self, tmp_path):
        spec = _write(tmp_path, "m31.json", M31_OVERFLOW)
        proc = subprocess.run(
            [sys.executable, "-m", "spinorlab.cli", "metric-verify", "--spec", spec],
            capture_output=True, text=True, env=_source_env(), check=False)
        assert proc.returncode == 1 and proc.stderr == ""

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        rows = _by_name(json.loads(proc.stdout, parse_constant=reject))
        assert rows["curvature magnitude"]["value"] == "nan"
        assert rows["connection membership"]["residual"] == "inf"
        assert not rows["curvature magnitude"]["pass"]
        assert not rows["connection membership"]["pass"]
