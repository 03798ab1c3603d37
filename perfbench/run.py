"""szegofock benchmark: seeded workloads, accuracy-gated goodput, layer trace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: profile-bergman, szego-triple, radial-inverse (see notes.json
for why each exists and what each layer metric should move).  One process,
one caller, one call at a time in a closed loop.  BLAS threads are capped
at the number of usable CPUs.

--trace 0 runs whole decks of calls until --seconds of call time have
passed, with bursts of a fixed probe load in between, and reports times
normalised to a reference machine speed (see calibrate.py); the wall-clock
figures are printed as notes.  --trace 1 runs a fixed number of decks, set
by --seconds and the seed alone, so its counts repeat exactly; every call
runs once untraced and once traced, the two must agree bit for bit, and the
per-layer metrics and the tracing overhead are printed.

Every returned value with an oracle is judged against an mpmath reference
computed outside the timed region.  The workloads draw only inputs on which
the library meets its tolerance, so a run is correct only if no call fails.
Lines starting with '#' are notes; the last line is the JSON result.
Per-call records go to .bench_out/.

    python3 perfbench/run.py --defects

runs one fixed input of each known defect (notes.json) and says which
still reproduce; it is not a workload and is not timed.
"""
import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = str(NPROC)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

SETUP_REPEATS = 7
# Call time between two probe bursts, and the probe times a window's
# speed factor pools at least.  Bursts have a fixed length: the first
# probes after library work run slower than later ones, so a burst's
# median depends on its length.
PROBE_EVERY_S = 0.03
MIN_PROBES = 32
# Nominal seconds one traced deck takes (untraced pass plus traced pass);
# --trace 1 runs round(seconds / this) decks, at least one.
TRACED_DECK_SECONDS = {"profile-bergman": 0.25, "szego-triple": 11.0, "radial-inverse": 0.5}

END_TO_END_UNITS = {
    "ok_per_s": "1/s", "call_p50_ms": "ms", "call_p90_ms": "ms", "err_margin_digits_p50": "digits",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def import_library():
    if not os.path.isfile(os.path.join(SRC, "szegofock", "__init__.py")):
        fail("no src/szegofock under %s; run from the root of a checkout" % ROOT)
    sys.path.insert(0, SRC)


def setup_child(workload):
    """Time a fresh import plus one warm-up call per (entry point, weight)."""
    import_library()
    t0 = time.perf_counter()
    import szegofock  # noqa: F401  (timed: the import is part of set-up)
    import workloads

    workloads.warm_up(workloads.Ctx(), workload)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(workload):
    """Median over fresh processes of the set-up time, and every sample.

    Set-up is wall clock, not normalised: most of it is the import, which
    the probe does not track (normalising it widened its spread)."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-child", workload],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("set-up probe for %s failed" % workload)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def stamp(args):
    import numpy as np

    digest = hashlib.sha256()
    for base, _, files in sorted(os.walk(SRC)):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit, "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0], "numpy": np.__version__, "nproc": NPROC,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
    }


def timed_call(ctx, call):
    from workloads import Outcome, unpack

    fn = ctx.resolve(call.entry)
    t0 = time.perf_counter()
    try:
        result = fn(*call.args)
    except Exception as exc:  # every failure is recorded and judged, never fatal
        seconds = time.perf_counter() - t0
        return Outcome(call.kind, call.entry, repr(call.args), seconds, raised=exc)
    seconds = time.perf_counter() - t0
    value, estimate, n_evals, method = unpack(result)
    return Outcome(call.kind, call.entry, repr(call.args), seconds, value=value, estimate=estimate,
                   n_evals=n_evals, method=method)


def fingerprint(out):
    """Everything a call returned, exactly: values by repr, raises by type and text."""
    if out.raised is not None:
        return ("raise", type(out.raised).__name__, str(out.raised))
    return ("value", repr(out.value), repr(out.estimate), out.n_evals, out.method)


def timed_decks(ctx, next_deck, seconds):
    """Run whole decks until `seconds` of call time have passed, with a
    burst of probes after each window of at least PROBE_EVERY_S of call
    time.  A window's speed factor pools the bursts on either side of it,
    widening until it holds MIN_PROBES probe times.  Returns the calls,
    their outcomes with normalised times, and the factors."""
    import calibrate

    calls, outs, window = [], [], []
    since = spent = 0.0
    bursts = [calibrate.burst()]
    while spent < seconds:
        deck = next_deck()
        for n, call in enumerate(deck, 1):
            calls.append(call)
            outs.append(timed_call(ctx, call))
            window.append(len(bursts) - 1)
            since += outs[-1].seconds
            spent += outs[-1].seconds
            if since >= PROBE_EVERY_S or (n == len(deck) and spent >= seconds):
                bursts.append(calibrate.burst())
                since = 0.0
    factors = []
    for k in range(len(bursts) - 1):
        lo, hi = k, k + 1
        pooled = bursts[lo] + bursts[hi]
        while len(pooled) < MIN_PROBES and (lo > 0 or hi < len(bursts) - 1):
            if lo > 0:
                lo -= 1
                pooled += bursts[lo]
            if hi < len(bursts) - 1:
                hi += 1
                pooled += bursts[hi]
        factors.append(calibrate.factor(pooled))
    for out, k in zip(outs, window):
        out.norm_seconds = out.seconds * factors[k]
    return calls, outs, factors


def time_metrics(outcomes, times):
    import numpy as np

    times = np.asarray(times)
    ok = sum(not o.failed for o in outcomes)
    return {
        "ok_per_s": ok / float(times.sum()),
        "call_p50_ms": 1e3 * float(np.percentile(times, 50)),
        "call_p90_ms": 1e3 * float(np.percentile(times, 90)),
    }


def end_to_end(outcomes, setup_s, rss_mb):
    import numpy as np

    margins = [o.margin_digits for o in outcomes if o.checked]
    values = {
        **time_metrics(outcomes, [o.norm_seconds for o in outcomes]),
        "err_margin_digits_p50": float(np.median(margins)) if margins else 0.0,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}


def run_workload(args):
    import numpy as np

    import_library()
    setup_s, setup_samples = None, []
    if not args.trace:  # set-up is an end-to-end metric only
        setup_s, setup_samples = measure_setup(args.workload)
    info = stamp(args)
    print("# stamp " + json.dumps(info, sort_keys=True))
    if setup_samples:
        print("# setup_s samples " + " ".join("%.4f" % s for s in setup_samples))

    import workloads
    from tracer import Tracer

    ctx = workloads.Ctx()
    workloads.warm_up(ctx, args.workload)
    rng = np.random.default_rng(args.seed)

    def next_deck():
        return workloads.DECKS[args.workload](ctx, rng)

    mismatches = []
    tracer = None
    if args.trace:
        n_decks = max(1, round(args.seconds / TRACED_DECK_SECONDS[args.workload]))
        calls = [call for _ in range(n_decks) for call in next_deck()]
        tracer = Tracer()
        outs, plain_s, traced_s = [], 0.0, 0.0
        for i, call in enumerate(calls):
            # alternate which pass runs first, so neither gains from the
            # other having warmed caches
            if i % 2 == 0:
                out = timed_call(ctx, call)
            tracer.install(ctx.modules)
            try:
                twin = timed_call(ctx, call)
            finally:
                tracer.uninstall()
            if i % 2 == 1:
                out = timed_call(ctx, call)
            plain_s += out.seconds
            traced_s += twin.seconds
            if fingerprint(twin) != fingerprint(out):
                mismatches.append((call.kind, fingerprint(out), fingerprint(twin)))
            outs.append(out)
    else:
        calls, outs, factors = timed_decks(ctx, next_deck, args.seconds)
        # peak RSS of the calls, before the oracle's own memory adds to it
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = [workloads.judge(call, out) for call, out in zip(calls, outs)]

    failures = [o for o in outcomes if o.failed]
    correct = not failures and not mismatches
    print("# calls %d, failed %d, accuracy-checked %d"
          % (len(outcomes), len(failures), sum(o.checked for o in outcomes)))
    for o in failures:
        print("# FAILED %s %s %s: %s" % (o.entry, o.kind, o.args, o.describe_failure()))
    for kind, a, b in mismatches:
        print("# MISMATCH %s: first %r then %r" % (kind, a, b))

    if tracer is None:
        metrics = end_to_end(outcomes, setup_s, rss_mb)
        wall = time_metrics(outcomes, [o.seconds for o in outcomes])
        print("# wall clock, not normalised: " + " ".join("%s %.6g" % kv for kv in wall.items()))
        print("# speed factor reference/probe over %d windows: min %.3f median %.3f max %.3f"
              % (len(factors), min(factors), statistics.median(factors), max(factors)))
        if len(outcomes) < 100:
            print("# call_p90_ms rests on %d calls, fewer than 10 beyond p90" % len(outcomes))
    else:
        metrics = tracer.per_layer(outcomes)
        metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
        print("# tracing: %d spans, untraced %.3fs, traced %.3fs, %d/%d calls bit-identical"
              % (len(tracer.span_start), plain_s, traced_s, len(outcomes) - len(mismatches),
                 len(outcomes)))
        for layer, n in tracer.calls.items():
            if n == 0:
                print("# layer %s is not reached by %s: its metrics read 0" % (layer, args.workload))
    for name, (value, unit) in metrics.items():
        print("%-42s %.6g %s" % (name, value, unit))

    os.makedirs(OUT, exist_ok=True)
    base = os.path.join(OUT, "%s-trace%d" % (args.workload, args.trace))
    if tracer is not None:
        tracer.write(base + "-spans.npz")
    with open(base + ".json", "w") as fh:
        json.dump({"stamp": info, "setup_s_samples": setup_samples,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "calls": [{"kind": o.kind, "entry": o.entry, "args": o.args, "seconds": o.seconds,
                              "norm_seconds": o.norm_seconds,
                              "raised": repr(o.raised) if o.raised is not None else None,
                              "checked": o.checked, "true_err": o.true_err, "tol": o.tol,
                              "estimate": o.estimate, "n_evals": o.n_evals, "method": o.method,
                              "failed": o.failed} for o in outcomes]},
                  fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def run_defects():
    """Run one fixed input per known defect; report which still reproduce."""
    import workloads

    import_library()
    ctx = workloads.Ctx()
    for name, call in workloads.defect_calls(ctx):
        out = workloads.judge(call, timed_call(ctx, call))
        low = out.checked and out.estimate is not None and out.estimate < out.true_err
        if out.failed:
            status = "reproduces: " + out.describe_failure()
        elif low:
            status = "reproduces: estimate %.3g < err %.3g" % (out.estimate, out.true_err)
        else:
            status = "no longer reproduces"
        print("%-30s %s" % (name, status), flush=True)


def run_all(args):
    """Run every workload in its own process and pass its lines through."""
    from workloads import WORKLOADS

    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        print("# ---- %s" % name, flush=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            fail("workload %s failed" % name)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({"%s:%s" % (name, k): v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="run one input per known defect instead of a workload")
    parser.add_argument("--setup-child", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.defects:
        run_defects()
        return
    if args.setup_child:
        setup_child(args.setup_child)
        return
    from workloads import WORKLOADS

    if args.workload == "all":
        import_library()
        run_all(args)
    elif args.workload in WORKLOADS:
        run_workload(args)
    else:
        parser.error("--workload must be one of %s or all" % ", ".join(WORKLOADS))


if __name__ == "__main__":
    main()
