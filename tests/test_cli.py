import argparse
import csv
import io
import json
import math
import pathlib
import re
import warnings

import pytest

from szegofock import CaseResult, VerificationReport, bergman_gaussian_closed
from szegofock.cli import GRAMMAR, build_parser, run

PI = math.pi


def _run(argv):
    out = io.StringIO()
    err = io.StringIO()
    code = run(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def test_bergman_radial_example():
    code, out, _ = _run(["bergman", "--weight", "radial:alpha=2", "--tau", "1",
                         "--z", "0,0", "--w", "0,0"])
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value_re"] == pytest.approx(2.0 / PI, rel=1e-9)
    assert rec["method"] == "radial-series"


@pytest.mark.parametrize("alpha, tau, z, w, code", [
    # the terms grow for about 160 terms before they peak
    ("3", "2", "3,0", "3,0", 0),
    # the terms cancel below the tolerance
    ("2", "1", "2.7,0", "-2.7,0", 1),
])
def test_bergman_radial_series_exit_codes(alpha, tau, z, w, code):
    got, out, err = _run(["bergman", "--weight", "radial:alpha=" + alpha, "--tau", tau,
                          "--z", z, "--w", w])
    assert got == code
    if code:
        assert err.startswith("ConvergenceError:")
    else:
        assert json.loads(out)[0]["method"] == "radial-series"


def test_bergman_gaussian_closed_method():
    code, out, _ = _run(["bergman", "--weight", "gaussian", "--tau", "1",
                         "--z", "0.3,0.1", "--w", "-0.2,0.4", "--method", "closed"])
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["method"] == "closed"
    closed = bergman_gaussian_closed(1.0, 0.3 + 0.1j, -0.2 + 0.4j).value
    assert complex(rec["value_re"], rec["value_im"]) == closed


@pytest.mark.parametrize("argv, what", [
    (["bergman", "--weight", "gaussian", "--tau", "1", "--z", "a,0", "--w", "0,0"],
     "re,im pair"),
    (["szego", "--weight", "gaussian", "--zt", "1,x,0", "--ws", "0,0,0"], "re,im,t triple"),
])
def test_malformed_number_exits_2_with_grammar(argv, what):
    code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: expected " + what)
    assert "subcommands:" in err


def test_szego_gaussian_closed_example():
    code, out, _ = _run(["szego", "--weight", "gaussian", "--zt", "1,0,0",
                         "--ws", "0,0,0", "--method", "closed"])
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["value_re"] == pytest.approx(8.0 / PI, rel=1e-12)


def test_szego_singular_exit_code():
    code, _, err = _run(["szego", "--weight", "radial:alpha=2", "--zt", "1,0,0",
                         "--ws", "1,0,0", "--method", "closed"])
    assert code == 1
    assert "SingularPoint" in err


def test_malformed_weight_exits_2_with_grammar():
    code, _, err = _run(["bergman", "--weight", "nope", "--tau", "1",
                         "--z", "0,0", "--w", "0,0"])
    assert code == 2
    assert "radial:alpha=<float>" in err


def test_unknown_flag_exits_2():
    code, _, err = _run(["mu", "--weight", "gaussian", "--eta", "1", "--nope"])
    assert code == 2
    assert "subcommands:" in err


def test_method_weight_mismatch_exits_2():
    code, _, err = _run(["bergman", "--weight", "gaussian", "--tau", "1",
                         "--z", "0,0", "--w", "0,0", "--method", "series"])
    assert code == 2
    code, _, _ = _run(["szego", "--weight", "profile:alpha=3", "--zt", "1,0,0",
                       "--ws", "0,0,0", "--method", "closed"])
    assert code == 2
    code, _, _ = _run(["szego", "--weight", "gaussian", "--zt", "1,0,0",
                       "--ws", "0,0,0", "--method", "laplace"])
    assert code == 2


def test_json_and_csv_carry_identical_numbers():
    for method in ("closed", "numeric"):
        args = ["conjugate", "--weight", "profile:alpha=3", "--eta", "2", "--method", method]
        _, out_json, _ = _run(args + ["--format", "json"])
        _, out_csv, _ = _run(args + ["--format", "csv"])
        rec = json.loads(out_json)[0]
        rows = list(csv.DictReader(io.StringIO(out_csv)))
        assert len(rows) == 1
        row = rows[0]
        assert float(row["value_re"]) == rec["value_re"]
        assert float(row["value_im"]) == rec["value_im"]
        assert float(row["abs_err"]) == rec["abs_err"]
        assert row["method"] == rec["method"] == method
        assert row["command"] == rec["command"]
        for key, val in rec["params"].items():
            assert row[key] == val


def test_record_round_trip_via_json():
    _, out, _ = _run(["mu", "--weight", "profile:alpha=3", "--eta", "4"])
    rec = json.loads(out)[0]
    assert rec["value_re"] == 2.0
    assert json.loads(json.dumps(rec)) == rec


def test_default_methods():
    _, out, _ = _run(["bergman", "--weight", "gaussian", "--tau", "1",
                      "--z", "0,0", "--w", "0,0"])
    assert json.loads(out)[0]["method"] == "profile-quadrature"
    _, out, _ = _run(["szego", "--weight", "radial:alpha=2", "--zt", "1,0,0",
                      "--ws", "0,0,0"])
    assert json.loads(out)[0]["method"] == "closed"


@pytest.mark.parametrize("argv", [
    ["bergman", "--tau", "1.3", "--z", "0.3,0.1", "--w", "-0.2,0.4"],
    ["bergman", "--tau", "1.3", "--z", "0.3,0.1", "--w", "-0.2,0.4", "--method", "closed"],
    ["szego", "--zt", "1,0,0", "--ws", "0,0,0.5"],
    ["conjugate", "--eta", "-2.5"],
    ["conjugate", "--eta", "-2.5", "--method", "numeric"],
    ["mu", "--eta", "3"],
    ["inner-integral", "--tau", "1", "--eta", "0.5"],
    ["bounds", "--tau", "1", "--lambda", "1.5", "--eta-grid", "-2:2:5"],
    ["asymptotics", "--eta", "1", "--tau-grid", "1:10:3"],
])
def test_profile_alpha_2_is_the_gaussian(argv):
    # the same records, method defaults and refusals under either name
    outs = []
    for weight in ("gaussian", "profile:alpha=2"):
        code, out, err = _run([argv[0], "--weight", weight, *argv[1:]])
        assert (code, err) == (0, "")
        recs = json.loads(out)
        for rec in recs:
            assert rec["params"].pop("weight") == weight
        outs.append(recs)
    assert outs[0] == outs[1]
    if argv[0] == "szego":
        assert outs[0][0]["method"] == "closed"


def _pair(z):
    return "%r,%r" % (z.real, z.imag)


def test_closed_records_cover_their_error(rng):
    # every closed record's abs_err against 40-digit mpmath at the same
    # floats, including points where a flat 1e-15 |v| or 0 falls short: the
    # Gaussian Bergman kernel at exponent 122, the Gaussian Szego kernel at
    # |E| = 1e-5, and p* at alpha 3, eta 1000; half the Szego points lie
    # near the boundary diagonal, and a third are radial at alpha 0.5
    mpmath = pytest.importorskip("mpmath")
    mpc, mpf, conj = mpmath.mpc, mpmath.mpf, mpmath.conj
    checked = []

    def check(argv, exact):
        code, out, _ = _run(argv)
        if code == 0:
            rec = json.loads(out)[0]
            assert rec["method"] == "closed"
            with mpmath.workdps(40):
                err = abs(mpc(rec["value_re"], rec["value_im"]) - exact())
            assert err <= rec["abs_err"], (argv, float(err), rec["abs_err"])
            checked.append(argv[0])

    def bergman(tau, z, w):
        u = mpc(z) + conj(mpc(w))
        return mpf(tau) / (2 * mpmath.pi) * mpmath.exp(mpf(tau) * u * u / 4)

    def szego(alpha, z, t, w, s):
        z, w, gap = mpc(z), mpc(w), 1j * (mpf(s) - mpf(t))
        if alpha is None:  # the Gaussian: (1 / 2 pi) E^-2, E = u^2 / 4 - R
            E = (z + conj(w)) ** 2 / 4 - mpmath.re(z) ** 2 / 2 - mpmath.re(w) ** 2 / 2 - gap
            return 1 / (2 * mpmath.pi * E ** 2)
        a = mpf(alpha)
        A = (abs(z) ** a + abs(w) ** a + gap) / 2
        q = z * conj(w) * A ** (-2 / a)
        return A ** (-1 - 2 / a) * (1 - q) ** -2 / (2 * mpmath.pi)

    bergman_points = [(1.3, 10.3 + 0.7j, 9.1 - 0.4j)] + [
        (float(rng.uniform(0.05, 3.0)), complex(*rng.uniform(-12, 12, 2)),
         complex(*rng.uniform(-12, 12, 2))) for _ in range(60)]
    for tau, z, w in bergman_points:
        check(["bergman", "--weight", "gaussian", "--tau", repr(tau), "--z", _pair(z),
               "--w", _pair(w), "--method", "closed"], lambda: bergman(tau, z, w))
    z0 = 1.7 + 0.2j
    szego_points = [(z0, 0.3, z0 + 1e-4, 0.30001)]
    for k in range(60):
        z, t = complex(*rng.uniform(-3, 3, 2)), float(rng.uniform(-2, 2))
        gap = 10.0 ** rng.uniform(-7, -1) if k % 2 else 3.0  # half near the diagonal
        szego_points.append((z, t, z + complex(*(gap * rng.uniform(-1, 1, 2))),
                             t + float(gap * rng.uniform(-1, 1))))
    for k, (z, t, w, s) in enumerate(szego_points):
        alpha = [None, 0.5, float(rng.uniform(0.3, 6.0))][k % 3]
        weight = "gaussian" if alpha is None else "radial:alpha=%r" % alpha
        check(["szego", "--weight", weight, "--zt", "%s,%r" % (_pair(z), t),
               "--ws", "%s,%r" % (_pair(w), s)], lambda: szego(alpha, z, t, w, s))
    power_points = [(3.0, 1000.0)] + [
        (float(rng.uniform(1.01, 7.0)), float(10.0 ** rng.uniform(-300, 300)))
        for _ in range(60)]
    for alpha, eta in power_points:
        a = mpf(alpha)
        for command, exact in (("conjugate", lambda: mpf(eta) ** (a / (a - 1)) * (a - 1) / a),
                               ("mu", lambda: mpf(eta) ** (1 / (a - 1)))):
            check([command, "--weight", "profile:alpha=%r" % alpha, "--eta", repr(-eta)], exact)
    assert len(checked) > 220  # the rest overflow the float range and exit 1


def test_grid_commands():
    code, out, _ = _run(["bounds", "--weight", "profile:alpha=2", "--tau", "1",
                         "--lambda", "1.5", "--eta-grid", "-4:4:17",
                         "--format", "csv"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 17
    assert rows[0]["upper_bounded"] == "True"

    code, out, _ = _run(["asymptotics", "--weight", "gaussian", "--eta", "1",
                         "--tau-grid", "1:100:3"])
    assert code == 0
    recs = json.loads(out)
    assert len(recs) == 3
    assert recs[-1]["value_re"] == pytest.approx(1.0, abs=1e-6)

    code, _, _ = _run(["bounds", "--weight", "profile:alpha=2", "--tau", "1",
                       "--lambda", "1.5", "--eta-grid", "oops"])
    assert code == 2
    code, _, err = _run(["bounds", "--weight", "profile:alpha=2", "--tau", "1",
                         "--lambda", "1.5", "--eta-grid", "-4:4:1"])
    assert code == 2
    assert "count >= 2" in err


def test_duality_command():
    code, out, _ = _run(["duality", "--tau", "1", "--tau0", "0.8", "--tau1", "2"])
    assert code == 0
    assert json.loads(out)[0]["value_re"] == 1.0
    code, out, _ = _run(["duality", "--tau", "1", "--tau0", "0.5", "--tau1", "2"])
    assert code == 0
    assert json.loads(out)[0]["value_re"] == 0.0
    code, _, err = _run(["duality", "--tau", "1", "--tau0", "1.5", "--tau1", "2"])
    assert code == 1
    assert "DomainError" in err


def test_inner_integral_command():
    code, out, _ = _run(["inner-integral", "--weight", "gaussian", "--tau", "1",
                         "--eta", "0"])
    assert code == 0
    assert json.loads(out)[0]["value_re"] == pytest.approx(math.sqrt(PI), rel=1e-8)


def test_inner_integral_overflow_exits_1():
    code, out, err = _run(["inner-integral", "--weight", "profile:alpha=1.5", "--tau", "1",
                           "--eta", "1000"])
    assert code == 1
    assert "DomainError" in err and "overflows" in err


def test_bergman_profile_overflow_exits_1():
    # K_tau(0.3) at tau = 1e12 passes the float range: a DomainError, not a
    # ConvergenceError from an x rule that cannot settle
    code, out, err = _run(["bergman", "--weight", "profile:alpha=3", "--tau", "1e12",
                           "--z", "0.15,0", "--w", "0.15,0"])
    assert code == 1 and out == ""
    assert err.startswith("DomainError:") and "overflows" in err


@pytest.mark.parametrize("argv", [["mu"], ["conjugate"], ["inner-integral", "--tau", "1"]])
def test_overflowing_conjugate_exits_1(argv):
    # mu(3) = 3^1000 and p*(3) = 3^1001 / 1001 at alpha = 1.001
    code, _, err = _run(argv + ["--weight", "profile:alpha=1.001", "--eta", "3"])
    assert code == 1
    assert "DomainError" in err and "overflows" in err


@pytest.mark.parametrize("weight, method, zt, ws", [
    # p(z) overflows: in E = u^2 / 4 - R, in the float power, in numpy's product
    ("gaussian", "closed", "1e200,0,0", "0,0,0"),
    ("radial:alpha=2", "closed", "1e200,0,0", "0,0,0"),
    ("radial:alpha=2", "laplace", "1e200,0,0", "0,0,0"),
    ("profile:alpha=3", "triple", "1e200,0,0", "0,0,0"),
    # p(z) = 0 but u^2 / 4 or the growth rate 2 (u/2)^a / a overflows
    ("gaussian", "closed", "0,1e200,0", "0,0,0"),
    ("profile:alpha=3", "triple", "0,1e120,0", "0,0,0"),
    # A = 1e-100 i at alpha 0.5: (1 / A)^4 overflows, as the kernel A^-5 does
    ("radial:alpha=0.5", "closed", "0,0,0", "0,0,2e-100"),
])
def test_overflowing_points_exit_1(weight, method, zt, ws):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(["szego", "--weight", weight, "--method", method,
                               "--zt", zt, "--ws", ws])
    assert code == 1
    assert out == ""
    assert err.startswith("DomainError:") and "float range" in err


@pytest.mark.parametrize("weight", ["gaussian", "radial:alpha=2"])
def test_underflowing_closed_form_exits_0(weight):
    # E^2 and A^2 overflow, but the kernel only underflows: it is about 1e-481
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, _ = _run(["szego", "--weight", weight, "--zt", "0,1e120,0",
                             "--ws", "0,0,1e-100"])
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["method"] == "closed"
    assert rec["value_re"] == rec["value_im"] == 0.0
    assert 0.0 < rec["abs_err"] <= 1e-300


@pytest.mark.parametrize("argv", [
    ["conjugate", "--weight", "gaussian", "--eta", "nan"],
    ["conjugate", "--weight", "gaussian", "--eta=-nan", "--method", "numeric"],
    ["mu", "--weight", "profile:alpha=3", "--eta", "nan"],
    ["bounds", "--weight", "profile:alpha=2", "--tau", "1", "--lambda", "nan",
     "--eta-grid", "-4:4:17"],
])
def test_nan_values_exit_1(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    assert err.startswith("DomainError:") and "finite" in err


def test_verify_command_and_report(tmp_path):
    report = tmp_path / "report.csv"
    code, out, err = _run(["verify", "--suite", "bounds", "--format", "csv",
                           "--report", str(report)])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(r["passed"] == "True" for r in rows)
    assert report.exists()
    assert "bounds-upper" in report.read_text()


def test_verify_failure_exit_code(monkeypatch):
    failing = VerificationReport(
        "normalization",
        (CaseResult("fake", 1.0 + 0j, 2.0 + 0j, 1e-9, False),),
        ("note",))
    monkeypatch.setattr("szegofock.cli.run_suite", lambda name, cfg: failing)
    code, out, err = _run(["verify", "--suite", "normalization"])
    assert code == 3
    assert json.loads(out)[0]["params"]["passed"] == "False"


def test_report_in_missing_directory_is_usage_error(tmp_path):
    report = tmp_path / "missing" / "report.csv"
    code, out, err = _run(["verify", "--suite", "bounds", "--report", str(report)])
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: cannot write report")


@pytest.mark.parametrize("argv", [
    ["bounds", "--weight", "profile:alpha=2", "--tau", "1", "--lambda", "1.5",
     "--eta-grid", "nan:4:5"],
    ["bounds", "--weight", "profile:alpha=2", "--tau", "1", "--lambda", "1.5",
     "--eta-grid=-inf:4:5"],
    # the space-separated form reaches the same check: -inf and -nan are values
    ["bounds", "--weight", "profile:alpha=2", "--tau", "1", "--lambda", "1.5",
     "--eta-grid", "-inf:4:5"],
    ["bounds", "--weight", "profile:alpha=2", "--tau", "1", "--lambda", "1.5",
     "--eta-grid", "-NaN:4:5"],
    ["asymptotics", "--weight", "gaussian", "--eta", "1", "--tau-grid", "1:inf:3"],
])
def test_non_finite_grid_bounds_are_usage_errors(argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: grid bounds must be finite")


@pytest.mark.parametrize("tau", [["--tau", "-inf"], ["--tau=-inf"], ["--tau", "-nan"]])
def test_non_finite_tau_is_a_domain_error_in_either_form(tau):
    code, out, err = _run(["inner-integral", "--weight", "gaussian", *tau, "--eta", "0"])
    assert code == 1
    assert out == ""
    assert err.startswith("DomainError: tau must be positive and finite")


def test_help_goes_to_the_given_stdout(capsys):
    code, out, _ = _run(["bergman", "--help"])
    assert code == 0
    assert out.startswith("usage: szegofock bergman")
    assert capsys.readouterr().out == ""


def _grammar_flags(line):
    return set(re.findall(r"--[\w-]+", line))


def test_grammar_matches_parser_and_readme():
    # every flag a subcommand accepts is in its grammar line or the shared
    # line and no other, and README's block shows the same subcommand lines
    lines = GRAMMAR.splitlines()
    shared = _grammar_flags(next(ln for ln in lines if ln.startswith("shared flags:")))
    usage = {ln.split()[0]: _grammar_flags(ln) for ln in lines if ln.startswith("  ")}
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(usage) == set(subparsers)
    for name, sub in subparsers.items():
        accepted = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert accepted == usage[name] | shared, name
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("szegofock <subcommand> [flags]\n\n", 1)[1].split("```", 1)[0]
    assert block.splitlines() == [ln.strip() for ln in lines if ln.startswith("  ")]
