"""Command-line surface: evaluation, sweeps, verification, table emission.

Exit codes: 0 success, 1 computation error (error name on stderr),
2 usage error (grammar on stderr), 3 verification suite with failures.

`_COMMANDS` is the one table of subcommands and their flags; the parser
(`build_parser`) and the grammar text (`GRAMMAR`) are both built from it.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import re
import sys

import numpy as np

from .boundary import BoundaryPoint
from .errors import SzegofockError
from .numerics import DEFAULT_CONFIG, QuadConfig, closed_result
from .profile import (
    bergman_gaussian_closed,
    bergman_profile,
    duality_finiteness_criterion,
    inner_integral,
    laplace_asymptotic,
    sandwich_bounds_check,
    szego_gaussian_closed,
    szego_profile,
)
from .radial import bergman_radial_series, szego_radial_closed, szego_radial_via_laplace
from .verify import SUITE_NAMES, run_suite
from .weights import (
    WEIGHT_GRAMMAR,
    gaussian,
    inverse_derivative,
    parse_weight,
    young_conjugate_closed,
    young_conjugate_numeric,
)


class UsageError(Exception):
    pass


def _fields(text, sep, convs, what):
    """text split at sep into exactly one field per conversion in convs."""
    parts = text.split(sep)
    try:
        if len(parts) == len(convs):
            return [conv(part) for conv, part in zip(convs, parts)]
    except ValueError:
        pass
    raise UsageError("expected %s, got %r" % (what, text))


def _complex(text):
    return complex(*_fields(text, ",", (float, float), "re,im pair"))


def _boundary(text):
    x, y, t = _fields(text, ",", (float, float, float), "re,im,t triple")
    return BoundaryPoint(complex(x, y), t)


def _grid(text):
    lo, hi, count = _fields(text, ":", (float, float, int), "min:max:count grid")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise UsageError("grid bounds must be finite, got %r" % text)
    if count < 2 or hi <= lo:
        raise UsageError("grid needs max > min and count >= 2")
    return np.linspace(lo, hi, count)


def _record(command, params, value, abs_err, method):
    """One output row; round-trips losslessly through json and csv."""
    value = complex(value)
    return {"command": command, "params": {k: str(v) for k, v in params.items()},
            "value_re": value.real, "value_im": value.imag,
            "abs_err": float(abs_err), "method": method}


# --method -> ({weight kind: call}, refusal for any other kind); with no
# --method, the first method that serves the weight's kind runs.  The kind
# is the family, or gaussian for the alpha = 2 profile, which has closed forms.
# The calls take (spec, tau, z, w, cfg) for bergman, (spec, p1, p2, cfg) for szego.
_BERGMAN_METHODS = {
    "series": ({"radial": lambda spec, *a: bergman_radial_series(spec.alpha, *a)},
               "method series requires a radial weight"),
    "quadrature": (dict.fromkeys(("profile", "gaussian"), bergman_profile),
                   "method quadrature requires a profile weight"),
    "closed": ({"gaussian": lambda spec, tau, z, w, cfg: bergman_gaussian_closed(tau, z, w)},
               "method closed is valid only for the gaussian weight"),
}
_SZEGO_METHODS = {
    "closed": ({"radial": lambda spec, p1, p2, cfg: szego_radial_closed(spec.alpha, p1, p2),
                "gaussian": lambda spec, p1, p2, cfg: szego_gaussian_closed(p1, p2)},
               "no closed form for profile power weights other than the gaussian"),
    "laplace": ({"radial": lambda spec, *a: szego_radial_via_laplace(spec.alpha, *a)},
                "method laplace requires a radial weight"),
    "triple": (dict.fromkeys(("profile", "gaussian"), szego_profile),
               "method triple requires a profile weight"),
}


def _method_call(methods, method, spec):
    kind = "gaussian" if spec == gaussian() else spec.family.value
    if method is None:
        method = next(m for m, (calls, _) in methods.items() if kind in calls)
    calls, refusal = methods[method]
    if kind not in calls:
        raise UsageError(refusal)
    return calls[kind]


def _cmd_bergman(args, cfg):
    spec = parse_weight(args.weight)
    z, w = _complex(args.z), _complex(args.w)
    res = _method_call(_BERGMAN_METHODS, args.method, spec)(spec, args.tau, z, w, cfg)
    params = {"weight": args.weight, "tau": args.tau, "z": args.z, "w": args.w}
    return [_record("bergman", params, res.value, res.abs_err_estimate, res.method)], ()


def _cmd_szego(args, cfg):
    spec = parse_weight(args.weight)
    p1, p2 = _boundary(args.zt), _boundary(args.ws)
    res = _method_call(_SZEGO_METHODS, args.method, spec)(spec, p1, p2, cfg)
    params = {"weight": args.weight, "zt": args.zt, "ws": args.ws}
    return [_record("szego", params, res.value, res.abs_err_estimate, res.method)], ()


def _cmd_conjugate(args, cfg):
    spec = parse_weight(args.weight)
    params = {"weight": args.weight, "eta": args.eta}
    if args.method == "closed":
        res = closed_result(young_conjugate_closed(spec, args.eta),  # cond: the power's log size
                            abs(spec.conjugate_alpha * math.log(abs(args.eta) or 1.0)))
        return [_record("conjugate", params, res.value, res.abs_err_estimate, "closed")], ()
    tol = max(cfg.abs_tol, 1e-12)
    value = young_conjugate_numeric(spec, args.eta, tol)
    return [_record("conjugate", params, value, tol, "numeric")], ()


def _cmd_mu(args, cfg):
    spec = parse_weight(args.weight)
    res = closed_result(inverse_derivative(spec, args.eta),  # cond: the power's log size
                        abs(math.log(abs(args.eta) or 1.0) / (spec.alpha - 1.0)))
    return [_record("mu", {"weight": args.weight, "eta": args.eta},
                    res.value, res.abs_err_estimate, "closed")], ()


def _cmd_inner(args, cfg):
    spec = parse_weight(args.weight)
    res = inner_integral(spec, args.tau, args.eta, cfg)
    return [_record("inner-integral",
                    {"weight": args.weight, "tau": args.tau, "eta": args.eta},
                    res.value, res.abs_err_estimate, res.method)], ()


def _cmd_bounds(args, cfg):
    spec = parse_weight(args.weight)
    grid = _grid(args.eta_grid)
    rep = sandwich_bounds_check(spec, args.tau, args.lam, grid, cfg)
    return [_record("bounds", {"weight": args.weight, "tau": args.tau, "lambda": args.lam,
                               "eta": eta, "upper_bounded": rep.upper_bounded,
                               "lower_bounded": rep.lower_bounded},
                    complex(upper, lower), 0.0, "bounds-sweep")
            for eta, upper, lower in zip(rep.eta_grid, rep.upper_log_gap, rep.lower_log_gap)], ()


def _cmd_asymptotics(args, cfg):
    spec = parse_weight(args.weight)
    grid = _grid(args.tau_grid)
    rep = laplace_asymptotic(spec, args.eta, grid, cfg)
    return [_record("asymptotics", {"weight": args.weight, "eta": args.eta, "tau": tau,
                                    "converged": rep.converged,
                                    "printed_prefactor_ratio": printed},
                    ratio, 0.0, "laplace-asymptotic")
            for tau, ratio, printed in zip(rep.tau_grid, rep.ratios,
                                           rep.printed_prefactor_ratios)], ()


def _cmd_duality(args, cfg):
    ok = duality_finiteness_criterion(args.tau, args.tau0, args.tau1)
    params = {"tau": args.tau, "tau0": args.tau0, "tau1": args.tau1,
              "finite": ok}
    return [_record("duality", params, 1.0 if ok else 0.0, 0.0, "quadratic-form")], ()


def _cmd_verify(args, cfg):
    report = run_suite(args.suite, cfg)
    return [_record("verify", {"suite": report.suite, "expected_re": c.expected.real,
                               "expected_im": c.expected.imag, "tolerance": c.tolerance,
                               "passed": c.passed, "case": c.name},
                    c.actual, abs(c.expected - c.actual), "verify-case")
            for c in report.cases], report.notes


def _flag(name, placeholder, conv=None, required=True, **kw):
    """One flag: (name, grammar placeholder, add_argument keywords)."""
    return name, placeholder, dict(type=conv, required=required, **kw)


def _choice(name, choices, required=False, **kw):
    return name, "|".join(choices), dict(choices=choices, required=required, **kw)


_WEIGHT = _flag("--weight", "<spec>")
_TAU = _flag("--tau", "<f>", float)
_ETA = _flag("--eta", "<f>", float)
_GRID = "<min:max:count>"

# Each subcommand's handler, returning (records, notes), and its own flags.
# The weight, point and grid flags stay text for the records, and each
# handler parses them in the order it reads them.
_COMMANDS = {
    "bergman": (_cmd_bergman, (_WEIGHT, _TAU, _flag("--z", "<re,im>"), _flag("--w", "<re,im>"),
                               _choice("--method", tuple(_BERGMAN_METHODS)))),
    "szego": (_cmd_szego, (_WEIGHT, _flag("--zt", "<re,im,t>"), _flag("--ws", "<re,im,s>"),
                           _choice("--method", tuple(_SZEGO_METHODS)))),
    "conjugate": (_cmd_conjugate,
                  (_WEIGHT, _ETA, _choice("--method", ("closed", "numeric"), default="closed"))),
    "mu": (_cmd_mu, (_WEIGHT, _ETA)),
    "inner-integral": (_cmd_inner, (_WEIGHT, _TAU, _ETA)),
    "bounds": (_cmd_bounds, (_WEIGHT, _TAU, _flag("--lambda", "<f>", float, dest="lam"),
                             _flag("--eta-grid", _GRID))),
    "asymptotics": (_cmd_asymptotics, (_WEIGHT, _ETA, _flag("--tau-grid", _GRID))),
    "duality": (_cmd_duality, (_TAU, _flag("--tau0", "<f>", float), _flag("--tau1", "<f>", float))),
    "verify": (_cmd_verify, (_choice("--suite", SUITE_NAMES, required=True),
                             _flag("--report", "<path>", required=False))),
}
# Flags every subcommand takes; the tolerances default to QuadConfig's.
_SHARED = (
    _flag("--abs-tol", "<f>", float, required=False, default=DEFAULT_CONFIG.abs_tol),
    _flag("--rel-tol", "<f>", float, required=False, default=DEFAULT_CONFIG.rel_tol),
    _flag("--max-subdiv", "<n>", int, required=False, default=DEFAULT_CONFIG.max_subdivisions),
    _choice("--format", ("json", "csv"), default="json"),
)


def _usage(flag):
    name, placeholder, kw = flag
    return "%s %s" % (name, placeholder) if kw["required"] else "[%s %s]" % (name, placeholder)


GRAMMAR = "\n".join([
    "subcommands:",
    *("  %s %s" % (command, " ".join(map(_usage, flags)))
      for command, (_, flags) in _COMMANDS.items()),
    "weights: " + WEIGHT_GRAMMAR,
    "shared flags: " + " ".join("%s %s" % flag[:2] for flag in _SHARED),
]) + "\n"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like -4:4:17, -1,0 or -inf are data, not options
        self._negative_number_matcher = re.compile(r"^-([\d.]|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise UsageError(message)


def build_parser():
    top = _Parser(prog="szegofock")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(command)
        for name, _, kw in flags + _SHARED:
            p.add_argument(name, **kw)
    return top


def _config(args) -> QuadConfig:
    return QuadConfig(abs_tol=args.abs_tol, rel_tol=args.rel_tol,
                      max_subdivisions=args.max_subdiv)


def _emit(records, fmt):
    """The records as json or csv text."""
    if fmt == "json":
        return json.dumps(records, indent=2) + "\n"
    keys = sorted({k for r in records for k in r["params"]})
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["command", *keys, "value_re", "value_im", "abs_err", "method"])
    for r in records:
        writer.writerow([r["command"], *(r["params"].get(k, "") for k in keys),
                         repr(r["value_re"]), repr(r["value_im"]), repr(r["abs_err"]),
                         r["method"]])
    return buf.getvalue()


def run(argv, stdout=None, stderr=None) -> int:
    """Parse argv, execute, emit records; returns the process exit code."""
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        try:
            with contextlib.redirect_stdout(stdout):
                args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help
            return int(exc.code or 0)
        records, notes = _COMMANDS[args.command][0](args, _config(args))
        text = _emit(records, args.format)
        report = getattr(args, "report", None)
        if report:
            try:
                with open(report, "w", encoding="utf-8") as fh:
                    fh.write(text + "".join("# %s\n" % note for note in notes))
            except OSError as exc:
                raise UsageError("cannot write report %r: %s" % (report, exc.strerror))
        stdout.write(text)
        for note in notes:
            print("# %s" % note, file=stderr)
        # exit 3: a verify record reports a failed case
        return 3 if any(r["params"].get("passed") == "False" for r in records) else 0
    except (UsageError, ValueError) as exc:
        print("usage error: %s" % exc, file=stderr)
        print(GRAMMAR, file=stderr)
        return 2
    except SzegofockError as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
