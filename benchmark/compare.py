#!/usr/bin/env python3
"""Compare two result sets of the repo benchmark (report only).

    python3 benchmark/compare.py BASE CHANGE

BASE and CHANGE are each a directory of saved gbx_bench outputs (one run's
stdout per file, as run.py prints it) or a single such file. A file may
hold several runs back to back; files holding none are skipped. Runs are
matched into pairs by workload, trace mode, seed and occurrence, so run
both sides on the same seeds, alternating which side goes first.

For every workload and metric it prints each side's median and quartiles,
the ratio of the change's median to the base's, and how many pairs the
change won (ties count for neither side). A metric is marked:

  gain        the change won at least 9/10 of the pairs and the medians
              differ by more than the base's own quartile spread;
  WORSE       an end-to-end metric whose change median is worse than the
              base median by more than its BENCHMARK.json bound;
  unresolved  an end-to-end metric whose base spread is wider than its
              bound, so "no change" cannot be claimed, unless every run
              of the change reads better than every run of the base.

The command never fails on a comparison; it exits 2 only on unreadable
input.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    """Direction and bound of every metric named in BENCHMARK.json."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = (m["better"], m["bound"])
    for m in spec["per_layer"]:
        metrics[m["name"]] = (m["better"], None)
    return metrics


def parse_runs(text):
    """Split one file into runs: a `run {...}` header, then the JSON line."""
    runs, header = [], None
    for line in text.splitlines():
        if line.startswith("run {"):
            header = json.loads(line[4:])
        elif line.startswith("{") and header is not None:
            result = json.loads(line)
            runs.append({
                "workload": header["workload"],
                "seed": header["seed"],
                "trace": header["trace"],
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: v["value"] for k, v in result["metrics"].items()},
            })
            header = None
    return runs


def load_side(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))]
             if os.path.isdir(path) else [path])
    runs = []
    for name in files:
        if os.path.isfile(name):
            with open(name, encoding="utf-8") as f:
                runs.extend(parse_runs(f.read()))
    if not runs:
        raise ValueError(f"{path}: no benchmark run found")
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(base, change):
    """Pairs keyed by (workload, trace, seed, k-th run with that seed)."""
    def keyed(runs):
        seen, out = {}, {}
        for r in runs:
            key = (r["workload"], r["trace"], r["seed"])
            k = seen.get(key, 0)
            seen[key] = k + 1
            out[key + (k,)] = r
        return out
    b, c = keyed(base), keyed(change)
    return [(b[k], c[k]) for k in sorted(b.keys() & c.keys(), key=str)]


def compare(base, change, spec):
    pairs = pair_up(base, change)
    groups = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in groups:
        b_runs = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        c_runs = [r for r in change if (r["workload"], r["trace"]) == (workload, trace)]
        g_pairs = [p for p in pairs if (p[0]["workload"], p[0]["trace"]) == (workload, trace)]
        print(f"== {workload} (trace {trace}): base {len(b_runs)} runs, "
              f"change {len(c_runs)} runs, {len(g_pairs)} pairs")
        for side, runs in (("base", b_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            print(f"   {side}: {failed}/{attempted} checks failed"
                  + ("" if all(r["correct"] for r in runs) else "  (INCORRECT)"))
        if not b_runs or not c_runs:
            continue
        names = [n for n in b_runs[0]["metrics"] if n in c_runs[0]["metrics"]]
        print(f"   {'metric':34s} {'base q1/med/q3':>32s} {'change q1/med/q3':>32s}"
              f" {'ratio':>8s} {'won':>7s}  verdict")
        for name in names:
            better, bound = spec.get(name, ("lower", None))
            b_vals = [r["metrics"][name] for r in b_runs]
            c_vals = [r["metrics"][name] for r in c_runs]
            bq = quartiles(b_vals)
            cq = quartiles(c_vals)
            ratio = cq[1] / bq[1] if bq[1] else float("nan")
            wins = ties = 0
            for b, c in g_pairs:
                bv, cv = b["metrics"][name], c["metrics"][name]
                if bv == cv:
                    ties += 1
                elif (cv < bv) == (better == "lower"):
                    wins += 1
            decided = len(g_pairs) - ties
            verdict = []
            base_spread = bq[2] - bq[0]
            if decided and wins >= 0.9 * decided and abs(cq[1] - bq[1]) > base_spread:
                verdict.append("gain")
            all_better = (max(c_vals) < min(b_vals) if better == "lower"
                          else min(c_vals) > max(b_vals))
            if bound is not None and bq[1]:
                worse = (cq[1] - bq[1]) / bq[1]
                if better == "higher":
                    worse = -worse
                if worse > bound:
                    verdict.append("WORSE")
                if base_spread / abs(bq[1]) > bound and not all_better:
                    verdict.append("unresolved")
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"   {name:34s} {fmt(bq):>32s} {fmt(cq):>32s} {ratio:8.4f}"
                  f" {wins:>3d}/{decided:<3d}  {' '.join(verdict)}")
    print("ratio = change median / base median; won = pairs where the change "
          "was better, ties excluded")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        spec = load_spec()
        base, change = load_side(argv[1]), load_side(argv[2])
    except (OSError, ValueError, KeyError) as e:
        print(f"compare.py: {e}", file=sys.stderr)
        return 2
    compare(base, change, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
