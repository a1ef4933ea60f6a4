"""Steadiness report: run the workloads as two sets and compare them.

    python3 perfbench/steady.py

Each of the two sets runs every workload once per seed, for five seeds that
no other run uses, untraced and for run_seconds of BENCHMARK.json; the runs of
a set alternate between the workloads so that a slow spell of the host is
spread over all of them.  For every end-to-end metric of BENCHMARK.json and
every workload it prints the median and the quartiles of each set and of all
runs, the spread (quartile distance over the median), and the shift between
the medians of the two sets.

A metric is "steady" when its spread is below a third of its bound and its
shift is within the bound, "within bound" when both stay within the bound,
and "UNRESOLVED" otherwise.  One traced run per set and workload checks that
every count metric repeats exactly.  The report is also written to
perfbench/out/steady.json.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from statistics import quantiles

from config import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETS = 2
SEEDS = 5


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats(values: list[float]) -> dict:
    q1, med, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def judge(metric: dict, sets: list[list[float]]) -> dict:
    every = [v for s in sets for v in s]
    out = {"all": stats(every), "sets": [stats(s) for s in sets]}
    sign = 1.0 if metric["better"] == "lower" else -1.0
    first = out["sets"][0]["median"]
    out["worse_shift"] = max(sign * (s["median"] - first) / first for s in out["sets"])
    bound = metric["bound"]
    spread = out["all"]["spread"]
    if spread <= bound / 3 and out["worse_shift"] <= bound:
        out["verdict"] = "steady"
    elif spread <= bound and out["worse_shift"] <= bound:
        out["verdict"] = "within bound"
    else:
        out["verdict"] = "UNRESOLVED"
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    seconds = declared["run_seconds"]
    names = list(WORKLOADS)

    runs = {w: [[] for _ in range(SETS)] for w in names}
    traced = {w: [] for w in names}
    failures = 0
    for k in range(SETS):
        for i in range(SEEDS):
            seed = 1000 * (k + 1) + i
            for w in names:
                res = run_once(w, seed, seconds, 0)
                failures += res["failed"] + (not res["correct"])
                runs[w][k].append(res["metrics"])
                print(f"set {k + 1} seed {seed} {w}: " + ", ".join(
                    f"{m}={v['value']:.6g}" for m, v in res["metrics"].items()), flush=True)
        for w in names:
            res = run_once(w, 1000 * (k + 1) + 500, seconds, 1)
            failures += res["failed"] + (not res["correct"])
            traced[w].append(res["metrics"])

    report = {"seconds": seconds, "seeds_per_set": SEEDS, "failures": failures, "workloads": {}}
    print(f"\n{'workload':<11} {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6} {'shift':>7}  verdict")
    for w in names:
        entry = report["workloads"][w] = {}
        for metric in declared["end_to_end"]:
            name = metric["name"]
            j = judge(metric, [[r[name]["value"] for r in s] for s in runs[w]])
            entry[name] = j
            a = j["all"]
            print(f"{w:<11} {name:<12} {a['median']:>12.6g} {a['q1']:>12.6g} {a['q3']:>12.6g} "
                  f"{a['spread']:>7.2%} {metric['bound']:>6.0%} {j['worse_shift']:>+7.2%}  {j['verdict']}")
            for k, s in enumerate(j["sets"]):
                print(f"{'':<11} {'  set ' + str(k + 1):<12} {s['median']:>12.6g} {s['q1']:>12.6g} "
                      f"{s['q3']:>12.6g} {s['spread']:>7.2%}")
        counts = [m["name"] for m in declared["per_layer"] if m["unit"] == "count"]
        differing = [c for c in counts if len({r[c]["value"] for r in traced[w]}) > 1]
        entry["counts_differing"] = differing
        print(f"{w:<11} counts over {len(traced[w])} traced runs: "
              + ("all repeat exactly" if not differing else f"DIFFER: {differing}"))
    print(f"failed operations or incorrect runs: {failures}")
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
