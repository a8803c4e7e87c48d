import contextlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from diskslepian import cli, transforms
from diskslepian.slepian import SlepianParams, eval_phi, eval_psi, solve_modes
from diskslepian.transforms import ClosedFormResult


def run_cli(*argv):
    return cli.main(list(argv))


def run_cli_out(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestEigs:
    def test_zero_bandwidth_chi_column(self, capsys):
        code, out = run_cli_out(capsys, "eigs", "--nu", "0", "--c", "0",
                                "--N", "0", "--modes", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        # at c = 0 the off-diagonal is 0: the tail bound certifies the
        # documented floor num_modes + 2, and the solve does not double
        assert payload["config"]["truncation"] == 3 + 2
        chis = [row["chi"] for row in payload["results"]]
        assert chis == pytest.approx([0.75, 8.75, 24.75], abs=1e-12)
        # at c = 0 the transform is f -> <f, 1>_nu: lambda_{0,0} = 1, so
        # mu_{0,0} = 1/(2(nu+1)), and every higher mode has mu = 0
        mus = [row["mu"] for row in payload["results"]]
        assert mus == [0.5, 0.0, 0.0]
        assert payload["results"][0]["lambda_re"] == 1.0
        # continuous with the solve at c = 1e-6
        code, out = run_cli_out(capsys, "eigs", "--nu", "0", "--c", "1e-6",
                                "--N", "0", "--modes", "3")
        assert code == 0
        near = [row["mu"] for row in json.loads(out)["results"]]
        assert near == pytest.approx(mus, abs=1e-12)

    def test_csv_format(self, tmp_path):
        out = tmp_path / "eigs.csv"
        code = run_cli("eigs", "--nu", "0", "--c", "1", "--N", "0",
                       "--modes", "2", "--format", "csv", "--out", str(out))
        assert code == 0
        text = out.read_text()
        lines = text.split("\n")
        assert lines[0] == "N,n,chi,mu,lambda_re,lambda_im,truncation"
        assert len(lines) == 4 and lines[-1] == ""
        assert "\r" not in text
        # 17 significant digits round-trip
        mu = float(lines[1].split(",")[3])
        p = SlepianParams(nu=0.0, c=1.0, N=0)
        assert mu == solve_modes(p, 2)[0].mu

    def test_cross_command_consistency(self, capsys):
        code, out = run_cli_out(capsys, "eigs", "--nu", "0", "--c", "1",
                                "--N", "0", "--modes", "1")
        assert code == 0
        mu = json.loads(out)["results"][0]["mu"]
        code, out = run_cli_out(capsys, "verify", "--suite", "nystrom",
                                "--quick", "--format", "json")
        assert code == 0
        detail = next(r["detail"] for r in json.loads(out)["results"]
                      if "nu=0.0 c=1.0 N=0" in r["name"])
        oracle_top = float(detail.split("=")[-1])
        assert abs(mu * 1.0 - oracle_top) <= 1e-7 * abs(oracle_top)


class TestTabulate:
    def test_radial_table_bitwise(self, tmp_path):
        out = tmp_path / "phi.csv"
        code = run_cli("tabulate", "--nu", "1", "--c", "2", "--N", "0",
                       "--mode", "1", "--grid-r", "5", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "x,value"
        assert len(lines) == 6
        p = SlepianParams(nu=1.0, c=2.0, N=0)
        mode = solve_modes(p, 2)[1]
        for line in lines[1:]:
            x, v = (float(s) for s in line.split(","))
            assert v == float(eval_phi(mode, p, x))  # bitwise round-trip

    def test_polar_table_imaginary_column(self, tmp_path):
        out = tmp_path / "psi.csv"
        code = run_cli("tabulate", "--nu", "0", "--c", "1", "--N", "0",
                       "--mode", "0", "--grid-r", "3", "--grid-theta", "4",
                       "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "r,theta,re,im"
        assert len(lines) == 1 + 3 * 4
        assert all(float(line.split(",")[3]) == 0.0 for line in lines[1:])

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run_cli("tabulate", "--nu", "0", "--c", "1", "--N", "1",
                       "--mode", "0", "--grid-r", "1", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        assert float(lines[1].split(",")[0]) == 1.0

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ("tabulate", "--nu", "2.5", "--c", "1.5", "--N", "2",
                "--mode", "1", "--grid-r", "7", "--grid-theta", "3")
        assert run_cli(*args, "--out", str(a)) == 0
        assert run_cli(*args, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEval:
    def test_eval_points(self, capsys):
        code, out = run_cli_out(capsys, "eval", "--nu", "1", "--c", "1",
                                "--N", "1", "--mode", "0",
                                "--at", "0.5", "--at", "0.5:0.7")
        assert code == 0
        payload = json.loads(out)
        p = SlepianParams(nu=1.0, c=1.0, N=1)
        mode = solve_modes(p, 1)[0]
        r0 = payload["results"][0]
        assert r0["value"] == float(eval_phi(mode, p, 0.5))
        r1 = payload["results"][1]
        v = eval_psi(mode, p, 0.5, 0.7)
        assert (r1["re"], r1["im"]) == (v.real, v.imag)

    def test_bad_point_spec(self, capsys):
        assert run_cli("eval", "--nu", "0", "--c", "1", "--N", "0",
                       "--at", "0.5:0.7:0.9") == 2
        assert run_cli("eval", "--nu", "0", "--c", "1", "--N", "0",
                       "--at", "1.5") == 2


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        code, out = run_cli_out(capsys, "verify", "--suite", "kernel", "--quick")
        assert code == 0
        assert "FAIL" not in out
        assert "checks passed" in out

    def test_all_quick_suites_pass(self, capsys):
        code, out = run_cli_out(capsys, "verify", "--suite", "all", "--quick",
                                "--format", "json")
        assert code == 0
        results = json.loads(out)["results"]
        assert all(r["passed"] for r in results)
        counts = {}
        for r in results:
            head = r["name"].split()[0]
            counts[head] = counts.get(head, 0) + 1
        # the orthogonality suite names its checks "radial gram" and "disk gram"
        assert counts == {"lemma1": 288, "thm41": 14, "thm42": 12, "kernel": 4,
                          "commute": 9, "nystrom": 2, "radial": 1, "disk": 1}

    def test_unknown_suite_is_usage_error(self, capsys):
        assert run_cli("verify", "--suite", "nonsense") == 2

    def test_json_report_schema(self, capsys):
        code, out = run_cli_out(capsys, "verify", "--suite", "nystrom",
                                "--quick", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        for r in payload["results"]:
            assert set(r) == {"name", "error", "tol", "passed", "detail"}
            assert r["passed"] is True


class TestTransformCommand:
    def test_disk_value(self, capsys):
        code, out = run_cli_out(capsys, "transform", "--family", "disk",
                                "--nu", "1", "--n", "1", "--m", "0",
                                "--rho", "1.3", "--theta", "0.7")
        assert code == 0
        payload = json.loads(out)
        from diskslepian.transforms import disk_transform_closed
        ref = disk_transform_closed(1.0, 1, 0, 1.3, 0.7)
        assert payload["results"][0]["re"] == ref.value.real
        assert payload["results"][0]["im"] == ref.value.imag
        assert "derived_over_paper_re" in payload["results"][0]

    def test_constant_source_is_derived_and_not_an_option(self, capsys):
        argv = ("transform", "--family", "gegenbauer", "--nu", "1", "--n", "2",
                "--k", "1", "--rho", "1.3")
        code, out = run_cli_out(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["constant_source"] == "derived"
        assert payload["results"][0]["constant_source"] == "derived"
        assert "derived_over_paper_re" in payload["results"][0]
        code, out = run_cli_out(capsys, *argv, "--constant-source", "paper")
        assert code == 2
        assert out == ""

    def test_missing_index_usage_error(self):
        assert run_cli("transform", "--family", "disk", "--nu", "1",
                       "--n", "1", "--rho", "1.0") == 2

    @pytest.mark.parametrize("family,change", [
        ("disk", {"--nu": "-1.5"}),
        ("disk", {"--nu": "nan"}),
        ("gegenbauer", {"--nu": "-0.5"}),
        ("disk", {"--n": "-1"}),
        ("gegenbauer", {"--k": "-1"}),
        ("gegenbauer", {"--n": "1", "--k": "2"}),
        ("disk", {"--theta": "nan"}),
        ("gegenbauer", {"--theta": "inf"}),
        ("disk", {"--rho": "0"}),
        ("disk", {"--rho": "nan"}),
        ("disk", {"--rho": "inf"}),
        ("gegenbauer", {"--rho": "1e300"}),
        ("disk", {"--rho": "60.5"}),
        ("disk", {"--nu": "30", "--n": "5", "--m": "5"}),
        ("gegenbauer", {"--nu": "39.5", "--n": "1"}),
    ])
    def test_out_of_domain_is_usage_error(self, capsys, family, change):
        # outside nu > -1, integer indices with 0 <= k <= n, finite angle,
        # 0 < rho <= 60 and Bessel order <= 40 nothing is printed
        opts = {"--nu": "1", "--n": "2", "--rho": "1.3", "--theta": "0.7",
                "--m" if family == "disk" else "--k": "1", **change}
        argv = ["transform", "--family", family]
        for key, val in opts.items():
            argv += [key, val]
        code, out = run_cli_out(capsys, *argv)
        assert code == 2
        assert out == ""

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["disk", "gegenbauer"]),
           nu=st.floats(min_value=-1.0, max_value=39.0, exclude_min=True),
           n=st.integers(0, 20), index=st.integers(0, 20),
           rho=st.floats(min_value=0.0, max_value=60.0, exclude_min=True),
           theta=st.floats(min_value=-100.0, max_value=100.0))
    @example(family="disk", nu=0.5, n=0, index=0, rho=1e-310, theta=0.0)
    @example(family="gegenbauer", nu=0.5, n=0, index=0, rho=1e-310, theta=0.0)
    @example(family="disk", nu=0.5, n=0, index=0, rho=1e-210, theta=0.0)
    @example(family="gegenbauer", nu=0.5, n=0, index=0, rho=1e-210, theta=0.0)
    def test_every_accepted_call_prints_finite_numbers_or_is_refused(
            self, family, nu, n, index, rho, theta):
        # in-process: exit 0 with strict JSON and a finite value, or exit 2
        # (order above 40, k > n, nu = -1/2 for the Gegenbauer family) or 3,
        # each with nothing on stdout and one line on stderr.  "--opt=value",
        # as argparse would take a lone "-1e-07" for an option
        index_opt = "--m" if family == "disk" else "--k"
        argv = ["transform", f"--family={family}", f"--nu={nu!r}", f"--n={n}",
                f"{index_opt}={index}", f"--rho={rho!r}", f"--theta={theta!r}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}")
        if code == 0:
            assert err == ""
            result = json.loads(out, parse_constant=_reject_constant)["results"][0]
            assert math.isfinite(result["re"]) and math.isfinite(result["im"])
        else:
            assert code in (2, 3)
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n")

    def test_non_finite_value_is_numerical_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(transforms, "disk_transform_closed",
                            lambda *args: ClosedFormResult(complex(math.nan, 0.0), 1.0))
        code = run_cli("transform", "--family", "disk", "--nu", "1", "--n", "1",
                       "--m", "0", "--rho", "1.3")
        _assert_one_line_refusal(code, capsys)


def _reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def _assert_one_line_refusal(code, capsys):
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
    assert "non-finite" in err


class TestSolveCommands:
    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["eigs", "eval", "tabulate"]),
           nu=st.floats(min_value=-1.0, max_value=10.0, exclude_min=True),
           c=st.floats(min_value=0.0, max_value=1000.0),
           N=st.integers(0, 400), modes=st.integers(1, 60), data=st.data())
    def test_every_accepted_call_prints_finite_numbers_or_is_refused(
            self, command, nu, c, N, modes, data):
        # in-process: exit 0 with strict JSON, finite numbers, |lambda| under
        # its contraction bound and chi rising, or exit 2 or 3 with nothing
        # on stdout and one line on stderr
        argv = [command, f"--nu={nu!r}", f"--c={c!r}", f"--N={N}"]
        if command == "eigs":
            argv.append(f"--modes={modes}")
        else:
            argv.append(f"--mode={data.draw(st.integers(0, modes - 1), label='mode')}")
        if command == "eval":
            radii = data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
                                       min_size=1, max_size=3), label="radii")
            for r in radii:
                theta = data.draw(st.none() | st.floats(-10.0, 10.0), label="theta")
                argv.append(f"--at={r!r}" + ("" if theta is None else f":{theta!r}"))
        if command == "tabulate":
            argv += ["--format=json", f"--grid-r={data.draw(st.integers(1, 20), label='grid_r')}",
                     f"--grid-theta={data.draw(st.integers(0, 8), label='grid_theta')}"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        event(f"{command} exit {code}")
        if code != 0:
            assert code in (2, 3)
            assert out == ""
            assert err.count("\n") == 1 and err.endswith("\n")
            return
        assert err == ""
        results = json.loads(out, parse_constant=_reject_constant)["results"]
        for row in results:
            assert all(math.isfinite(v) for v in row.values() if isinstance(v, float))
        if command == "eigs":
            bound = min(1.0, 2 * (nu + 1) / c) if nu >= 0 and c > 0 else 1.0
            for row in results:
                assert math.hypot(row["lambda_re"], row["lambda_im"]) <= bound * (1 + 1e-12)
            chis = [row["chi"] for row in results]
            assert all(a < b for a, b in zip(chis, chis[1:]))


class TestExitCodes:
    def test_usage_error_from_argparse(self):
        assert run_cli("eigs", "--nu", "0") == 2

    @pytest.mark.parametrize("c", ["1e5", "1e9", "1e200"])
    def test_truncation_cap_is_numerical_failure(self, capsys, c):
        # TruncationError is a ConvergenceError, which exits 3 with one short
        # line that names c and the row cap, not the truncation it would need
        assert run_cli("eigs", "--nu", "0", "--c", c, "--N", "0", "--modes", "1") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
        assert "exceeds the cap of 4096 rows" in err
        assert f"c={float(c):g}" in err

    def test_failing_tail_is_numerical_failure(self, capsys, monkeypatch):
        # a K too short for the tail is refused in one short line, not
        # retried at a larger K
        from diskslepian import slepian as sl
        monkeypatch.setattr(sl, "_certified_truncation",
                            lambda params, num_modes, ceiling: num_modes + 2)
        assert run_cli("eigs", "--nu", "0", "--c", "40", "--N", "0", "--modes", "10") == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200
        assert "K=12" in err

    @pytest.mark.parametrize("command", ["eval", "tabulate", "tabulate-polar"])
    def test_non_finite_eigenfunction_is_numerical_failure(self, capsys, monkeypatch,
                                                           command):
        # JSON (eval) and CSV (tabulate) both refuse a NaN rather than print it
        monkeypatch.setattr(cli, "eval_phi", lambda mode, params, x: np.full(np.shape(x), np.nan))
        monkeypatch.setattr(cli, "eval_psi",
                            lambda mode, params, r, theta: np.full(np.shape(r), np.nan + 0j))
        extra = {"eval": ("--at", "0.5"), "tabulate": ("--grid-r", "3"),
                 "tabulate-polar": ("--grid-r", "3", "--grid-theta", "2")}[command]
        code = run_cli(command.split("-")[0], "--nu", "0", "--c", "1", "--N", "0", *extra)
        _assert_one_line_refusal(code, capsys)

    @pytest.mark.parametrize("command", ["eigs", "eval", "tabulate"])
    @pytest.mark.parametrize("option", [("--truncation", "40"), ("--tol", "1e-12")])
    def test_truncation_is_not_an_option(self, capsys, command, option):
        # the solver alone chooses K, at the fixed tail tolerance
        extra = {"eigs": ("--modes", "2"), "eval": ("--at", "0.5"),
                 "tabulate": ("--grid-r", "3")}[command]
        code, out = run_cli_out(capsys, command, "--nu", "0", "--c", "1", "--N", "0",
                                *extra, *option)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("mu", [0.75, -0.75, math.nan])
    def test_lambda_above_one_is_numerical_failure(self, capsys, monkeypatch, mu):
        # |lambda| = 2 (nu+1) |mu| = 1.5 at nu = 0, or NaN
        from diskslepian import slepian as sl
        monkeypatch.setattr(sl, "_mu_values",
                            lambda params, T, pairs: np.full(len(pairs), mu))
        code, out = run_cli_out(capsys, "eigs", "--nu", "0", "--c", "1",
                                "--N", "0", "--modes", "2")
        assert code == 3
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("eigs", "--nu", "0", "--c", "nan", "--N", "0", "--modes", "2"),
        ("eigs", "--nu", "nan", "--c", "1", "--N", "0", "--modes", "2"),
        ("eigs", "--nu", "inf", "--c", "1", "--N", "0", "--modes", "2"),
        ("eigs", "--nu", "0", "--c", "inf", "--N", "0", "--modes", "2"),
        ("tabulate", "--nu", "0", "--c", "nan", "--N", "0", "--grid-r", "3"),
        ("eval", "--nu", "0", "--c", "1", "--N", "0", "--at", "0.5:nan"),
        ("eval", "--nu", "0", "--c", "1", "--N", "0", "--at", "0.5:inf"),
        ("eval", "--nu", "0", "--c", "1", "--N", "0", "--mode", "-1", "--at", "0.5"),
        ("tabulate", "--nu", "0", "--c", "1", "--N", "0", "--grid-r", "3", "--mode", "-2"),
        ("tabulate", "--nu", "0", "--c", "1", "--N", "0", "--grid-r", "3", "--grid-theta", "-2"),
    ])
    def test_non_finite_or_nonpositive_input_is_usage(self, capsys, argv):
        code, out = run_cli_out(capsys, *argv)
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("argv", [
        *(("eigs", "--nu", nu, "--c", "1", "--N", "0", "--modes", "1")
          for nu in ("1e155", "1e160", "1e300")),
        ("eigs", "--nu", "0", "--c", "1000", "--N", "60", "--modes", "3"),
        ("eigs", "--nu", "0", "--c", "1000", "--N", "400", "--modes", "3"),
    ], ids=["1e155", "1e160", "1e300", "N60", "N400"])
    def test_overflowing_spectral_matrix_is_numerical_failure(self, capsys, argv):
        # the recurrence coefficients overflow for nu >~ 1e154; below that
        # the |lambda| <= 1 guard refuses the solve.  At N = 60 the wrong
        # high-order mu are refused by the 1/c contraction bound.  At N = 400
        # the norms h_k underflow to 0 within the truncation: the matrix
        # stays finite, and the mu step refuses the inf weights h_k^(-1/2)
        code, out = run_cli_out(capsys, *argv)
        assert code == 3
        assert out == ""

    def test_invalid_domain_is_usage(self):
        assert run_cli("eigs", "--nu", "-2", "--c", "1", "--N", "0",
                       "--modes", "1") == 2


_COMMAND_IMPORTS_SCRIPT = """
import contextlib, io, json, sys
def package():
    return {m for m in sys.modules if m.split('.')[0] == 'diskslepian'}
import diskslepian.cli
out = [sorted(package())]
for argv in json.loads(sys.argv[1]):
    before = package()
    with contextlib.redirect_stdout(io.StringIO()):
        code = diskslepian.cli.main(argv)
    out.append([code, sorted(package() - before)])
print(json.dumps(out))
"""


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not pay its import
    src = Path(__file__).resolve().parents[1] / "src"
    probe = ("import diskslepian.cli, sys; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stdout.strip() == "[]"
    # nor the oracle, Bessel and closed-form layers: the solve commands add
    # no package module, transform adds the closed forms and verify the
    # oracles and suites
    commands = [["eigs", "--nu", "0.5", "--c", "3", "--N", "1", "--modes", "3"],
                ["eval", "--nu", "0.5", "--c", "3", "--N", "1", "--at", "0.5", "--at", "0.5:1"],
                ["tabulate", "--nu", "0.5", "--c", "3", "--N", "1", "--grid-r", "4"],
                ["transform", "--family", "disk", "--nu", "1", "--n", "1", "--m", "0",
                 "--rho", "1.3"],
                ["verify", "--suite", "lemma1", "--quick"]]
    proc = subprocess.run([sys.executable, "-c", _COMMAND_IMPORTS_SCRIPT, json.dumps(commands)],
                          capture_output=True, text=True, check=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    loaded, *added = json.loads(proc.stdout.splitlines()[-1])
    assert loaded == ["diskslepian", "diskslepian.cli", "diskslepian.orthopoly",
                      "diskslepian.slepian"]
    assert added == [[0, []], [0, []], [0, []],
                     [0, ["diskslepian._ddarith", "diskslepian.specfun", "diskslepian.transforms"]],
                     [0, ["diskslepian.operators", "diskslepian.quadrature",
                          "diskslepian.verification"]]]
