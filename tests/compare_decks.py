"""Record what every benchmark deck call returns, and compare two records.

    python tests/compare_decks.py record OUT.json [--seeds 1001-1010] [--src DIR]
    python tests/compare_decks.py compare BEFORE.json AFTER.json

`record` draws the first deck of each seed of each workload in
perfbench/workloads.py, as `perfbench/run.py --seed <n>` draws it, runs
every call once, and writes its value, error estimate, n_evals and method,
or the type and text of what it raised.  --src names the library source
to import (default: this checkout's src), so one copy of this script
records two trees.  `compare` prints, per workload, the n_evals totals and
the number of calls whose n_evals moved, and exits 1 where a call changed
its method, raised where it returned or the other way round, raised
another error, or moved its value by more than BEFORE's estimate (by
anything, where the call gives none).  Numbers inside a raise's text may
move.  Nothing under perfbench/ is changed; no reference is computed.
"""
import argparse
import json
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NUMBER = re.compile(r"[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?")


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(path, seeds, src):
    sys.path[:0] = [os.path.abspath(src), os.path.join(ROOT, "perfbench")]
    import numpy as np
    import workloads

    ctx = workloads.Ctx()
    rows = []
    for name in workloads.DECKS:
        for seed in seeds:
            deck = workloads.DECKS[name](ctx, np.random.default_rng(seed))
            for i, call in enumerate(deck):
                row = {"workload": name, "seed": seed, "call": i, "kind": call.kind}
                try:
                    result = ctx.resolve(call.entry)(*call.args)
                except Exception as exc:  # a raise is an outcome to compare
                    row["raised"] = [type(exc).__name__, str(exc)]
                else:
                    value, estimate, n_evals, method = workloads.unpack(result)
                    row.update(value=[value.real, value.imag], estimate=estimate,
                               n_evals=n_evals, method=method)
                rows.append(row)
            print("# %s seed %d: %d calls" % (name, seed, len(deck)), flush=True)
    with open(path, "w") as fh:
        json.dump({"src": os.path.abspath(src), "rows": rows}, fh, indent=0)


def _differs(old, new):
    """Why `new` breaks `old`'s outcome, or None."""
    if "raised" in old or "raised" in new:
        mask = [(r[0], NUMBER.sub("#", r[1])) if r else None
                for r in (old.get("raised"), new.get("raised"))]
        return None if mask[0] == mask[1] else "raised %r, now %r" % (old.get("raised"),
                                                                      new.get("raised"))
    if old["method"] != new["method"]:
        return "method %s, now %s" % (old["method"], new["method"])
    gap = abs(complex(*old["value"]) - complex(*new["value"]))
    allowed = old["estimate"] or 0.0
    if not gap <= allowed:
        return "value moved by %.3g, past the estimate %.3g" % (gap, allowed)
    return None


def compare(before_path, after_path):
    with open(before_path) as fh:
        before = json.load(fh)["rows"]
    with open(after_path) as fh:
        after = json.load(fh)["rows"]
    key = ("workload", "seed", "call", "kind")
    if [[r[k] for k in key] for r in before] != [[r[k] for k in key] for r in after]:
        print("the two records hold different deck calls")
        return 1
    bad, totals = 0, {}
    for old, new in zip(before, after):
        why = _differs(old, new)
        if why:
            bad += 1
            print("CHANGED %s seed %d call %d (%s): %s"
                  % (old["workload"], old["seed"], old["call"], old["kind"], why))
        total = totals.setdefault(old["workload"], [0, 0, 0, 0.0])
        if "raised" not in old and "raised" not in new:
            total[0] += old["n_evals"] or 0
            total[1] += new["n_evals"] or 0
            total[2] += old["n_evals"] != new["n_evals"]
            gap = abs(complex(*old["value"]) - complex(*new["value"]))
            if old["estimate"]:
                total[3] = max(total[3], gap / old["estimate"])
    for name, (n_old, n_new, moved, ratio) in totals.items():
        change = (n_new / n_old - 1.0) * 100.0 if n_old else math.nan
        print("%-16s n_evals %d -> %d (%+.2f%%), %d calls moved; "
              "largest value gap %.3g of the estimate" % (name, n_old, n_new, change, moved, ratio))
    print("%d of %d calls changed their outcome" % (bad, len(before)))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record")
    rec.add_argument("out")
    rec.add_argument("--seeds", type=_seeds, default=_seeds("1001-1010"))
    rec.add_argument("--src", default=os.path.join(ROOT, "src"))
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("before")
    cmp_.add_argument("after")
    args = parser.parse_args()
    if args.command == "record":
        record(args.out, args.seeds, args.src)
        return 0
    return compare(args.before, args.after)


if __name__ == "__main__":
    sys.exit(main())
