"""Compares two result sets written by run.py.

    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

A result set is a `runs.jsonl` file: one record per run, holding the
workload, the seed, the trace flag and the run's result line. For every
workload and every end-to-end metric of BENCHMARK.json this prints both
sides' medians and quartiles over their untraced runs, the change, and a
verdict:

- unresolved: a side's spread (quartile distance over median) exceeds the
  metric's bound, and not every NEW run beats every OLD run;
- worse: the NEW median is worse than the OLD one by more than the bound;
- better: the NEW median is better by more than the OLD side's spread;
- within bound: anything else.

Then it prints, per workload, the median of every per-layer metric over the
traced runs of each side, with the change.
"""

import json
import os
import statistics
import sys

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    lo, hi = quartiles(values)
    med = statistics.median(values)
    return (hi - lo) / med if med else float("inf")


def verdict(old, new, bound, better):
    """The verdict on one metric; `old` and `new` are each side's values."""
    sign = -1.0 if better == "lower" else 1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    gain = sign * (new_med - old_med) / old_med if old_med else 0.0
    all_better = all(sign * (n - o) > 0 for n in new for o in old)
    if max(spread(old), spread(new)) > bound:
        return "better" if all_better else "unresolved"
    if gain < -bound:
        return "worse"
    if gain > spread(old):
        return "better"
    return "within bound"


def values_by_workload(records, trace):
    """{workload: {metric: [values]}} over correct runs with this trace flag."""
    out = {}
    for r in records:
        if str(r.get("trace")) != trace or not r["result"].get("correct"):
            continue
        metrics = out.setdefault(r["workload"], {})
        for name, m in r["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def fmt(x):
    return f"{x:.4g}"


def main(argv):
    if len(argv) != 2:
        print("usage: run.py compare OLD.jsonl NEW.jsonl", file=sys.stderr)
        return 2
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    old_recs, new_recs = load(argv[0]), load(argv[1])
    old, new = values_by_workload(old_recs, "0"), values_by_workload(new_recs, "0")
    print("workload         metric                 unit  old median [q1, q3]        "
          "new median [q1, q3]        change   verdict")
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            o, n = old.get(name, {}).get(m["name"]), new.get(name, {}).get(m["name"])
            if not o or not n:
                print(f"{name:16} {m['name']:22} missing on one side")
                continue
            oq, nq = quartiles(o), quartiles(n)
            om, nm = statistics.median(o), statistics.median(n)
            change = (nm - om) / om if om else 0.0
            print(f"{name:16} {m['name']:22} {m['unit']:5} "
                  f"{fmt(om):>9} [{fmt(oq[0])}, {fmt(oq[1])}]".ljust(70)
                  + f"{fmt(nm):>9} [{fmt(nq[0])}, {fmt(nq[1])}]".ljust(27)
                  + f"{change:+8.1%}   {verdict(o, n, m['bound'], m['better'])}")
    old_t, new_t = values_by_workload(old_recs, "1"), values_by_workload(new_recs, "1")
    print("\nper-layer medians over traced runs (no bounds)")
    for w in bench["workloads"]:
        name = w["name"]
        if name not in old_t or name not in new_t:
            continue
        for m in bench["per_layer"]:
            o, n = old_t[name].get(m["name"]), new_t[name].get(m["name"])
            if not o or not n:
                continue
            om, nm = statistics.median(o), statistics.median(n)
            change = f"{(nm - om) / om:+8.1%}" if om else ("    same" if nm == om else "   from 0")
            print(f"{name:16} {m['name']:32} {m['unit']:6} {fmt(om):>10} -> {fmt(nm):>10} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
