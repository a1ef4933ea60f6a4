"""Benchmark of obtri: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload {montecarlo,exact,probe} --seed N \
        --seconds S --trace {0,1} [--smoke]

Runs from the root of a checkout and imports obtri from its ``src``.  Each
workload is a fixed list of operations (see workloads.py), run in-process,
closed-loop and single-process, with every output checked.  After set-up and
one warm-up pass, passes repeat until ``--seconds`` have gone by.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json, measured with
tracing off.  ``--trace 1`` alternates untraced passes with traced ones (the
workload plus one pass of the layer suite, suite.py) and prints the per-layer
metrics: self times and counts from the spans, rates from untraced suite
repetitions, and the tracing overhead.  ``--smoke`` runs every code path at
tiny sizes.

Human-readable lines (the machine record, then ``name = value unit`` for each
metric, including the per-workload metrics that are not in BENCHMARK.json)
come first.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, and
the spans of a traced run, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from statistics import median
from time import perf_counter

from config import DEFAULT_SEED, SETUP_SAMPLERS, SIZES, WORKLOADS, build_samplers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Per-workload rates of the report, not in BENCHMARK.json because each exists
# on one workload only.
WORK_UNITS = {"triples_per_s": "triples/s", "bound_steps_per_s": "steps/s",
              "search_moves_per_s": "moves/s"}


def setup(workload: str) -> float:
    """Import obtri from the checkout, build the CLI parser and the
    workload's samplers; returns the seconds this took."""
    start = perf_counter()
    import obtri
    from obtri import cli
    cli.build_parser()
    build_samplers(SETUP_SAMPLERS.get(workload, ()))
    elapsed = perf_counter() - start
    if os.path.dirname(os.path.abspath(obtri.__file__)) != os.path.join(SRC, "obtri"):
        raise SystemExit(f"obtri was imported from {obtri.__file__}, not from {SRC}")
    return elapsed


def setup_in_child(workload: str) -> float:
    """Set-up time in a fresh interpreter, so that every import is paid."""
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-probe",
                           "--workload", workload],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def machine_record() -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__}


class Tally:
    """Operations attempted and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def check(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.errors.append(reason)

    def run_pass(self, workload, kernel=None) -> dict:
        """Run the workload's operations once; returns the time of each
        operation and, when ``kernel`` is given, the times of the calibration
        kernel run before the first operation and after each one."""
        times = []
        cal = [kernel()] if kernel else []
        for op in workload.ops:
            t = perf_counter()
            try:
                reason = op.run()
            except Exception as exc:  # a raising operation fails; the run goes on
                reason = f"{type(exc).__name__}: {exc}"
            times.append(perf_counter() - t)
            if kernel:
                cal.append(kernel())
            self.check(reason is None, f"{op.name}: {reason}")
        return {"wall": sum(times), "ops": times, "cal": cal}


def python_loop() -> float:
    """Time of a fixed pure-Python integer loop, a yardstick for the host's
    speed (the shape of the recursion step, but the benchmark's own code)."""
    start = perf_counter()
    t = 1
    for n in range(4, 30_000):
        t = -(-t * (n + 1) // (n - 2))
    return perf_counter() - start


class Kernel:
    """A fixed calibration kernel, independent of obtri: the pure-Python
    loop and a numpy sort, about 20 ms in all."""

    def __init__(self):
        import numpy
        self._np = numpy
        self._data = numpy.random.default_rng(0).random(200_000)

    def __call__(self) -> float:
        start = perf_counter()
        python_loop()
        a = self._data.copy()
        a.sort()
        self._np.sqrt(a, out=a)
        return perf_counter() - start


def measure(workload, seconds: float, tally: Tally, setup_times: list[float],
            setup_repeats: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics of untraced passes, as (value, unit).

    The hosts this runs on are shared, and their speed moves by 20% or more
    between runs a minute apart, in spells from seconds to minutes long.
    Both the raw times and the time of a fixed calibration kernel run just
    before and just after each operation swing together, so their ratio is
    steady: each operation counts with its median ratio (to the mean of the
    two kernel times) over the passes, in units of the kernel's time
    ("cal"), and ``wall_cal`` is their sum.  The raw times are
    reported beside it: ``wall_s`` sums each operation's fastest time in the
    run and ``wall_s.median`` is the median pass.

    One more set-up time is taken after each pass, until there are
    ``setup_repeats``, so that they too sample the whole run; the window is
    extended by the time they take.
    """
    kernel = Kernel()
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        passes.append(tally.run_pass(workload, kernel))
        if len(setup_times) < setup_repeats:
            t = perf_counter()
            setup_times.append(setup_in_child(workload.name))
            deadline += perf_counter() - t
    while len(setup_times) < setup_repeats:
        setup_times.append(setup_in_child(workload.name))
    per_op = list(zip(*(p["ops"] for p in passes)))
    per_cal = list(zip(*([(a + b) / 2 for a, b in zip(p["cal"], p["cal"][1:])] for p in passes)))
    norm = [median(t / c for t, c in zip(ts, cs)) for ts, cs in zip(per_op, per_cal)]
    best = [min(ts) for ts in per_op]

    def group(values, name):
        return sum(v for v, op in zip(values, workload.ops) if op.group == name)

    work = sum(op.work for op in workload.ops if op.group == workload.work_group)
    report = {
        "wall_cal": (sum(norm), "cal"),
        "wall_s": (sum(best), "s"),
        "wall_s.median": (median(p["wall"] for p in passes), "s"),
        workload.work_name: (work / group(best, workload.work_group), WORK_UNITS[workload.work_name]),
    }
    if workload.name == "probe":
        report["quad_s"] = (group(best, "quad"), "s")
    report["cal_s"] = (median(c for p in passes for c in p["cal"]), "s")
    report["setup_s"] = (median(setup_times), "s")
    report["passes"] = (len(passes), "count")
    report.update({f"op.{op.name}": (t, "s") for op, t in zip(workload.ops, best)})
    return report


def measure_traced(workload, sizing: str, seconds: float, tally: Tally, count_names):
    """Per-layer metrics; returns them with the spans of every traced pass."""
    import suite
    import tracing
    untraced, traced, per_pass, spans = [], [], [], []
    start = perf_counter()
    while not per_pass or perf_counter() - start < seconds:
        untraced.append(tally.run_pass(workload)["wall"])
        tracer = tracing.Tracer()
        with tracer.installed():
            traced.append(tally.run_pass(workload)["wall"])
            suite.run_suite(sizing)
        per_pass.append(tracing.layer_metrics(tracer.spans))
        spans.append(tracer.spans)
    for name in count_names:
        values = sorted({m[name] for m in per_pass})
        tally.check(len(values) == 1, f"count {name} differs between traced passes: {values}")
    reps = [suite.run_suite(sizing) for _ in range(SIZES[sizing]["suite_reps"])]
    metrics = tracing.median_metrics(per_pass)
    metrics.update({name: per_pass[0][name] for name in count_names if name in per_pass[0]})
    metrics.update(suite.suite_metrics(sizing, reps))
    metrics["trace.overhead_s"] = min(traced) - min(untraced)
    return metrics, spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes and no warm-up, to test every code path")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    if args.setup_probe:
        print(repr(setup(args.workload)))
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    sizing = "smoke" if args.smoke else "full"
    size = SIZES[sizing]
    load_start = os.getloadavg()

    setup_times = [setup_in_child(args.workload)]
    setup(args.workload)
    import workloads

    machine = machine_record()
    machine["calibration_s"] = median(python_loop() for _ in range(9))
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.BUILDERS[args.workload](sizing, args.seed, OUT)
    tally = Tally()
    if size["warmup"]:
        tally.run_pass(workload)

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in declared["per_layer"]}
        count_names = [name for name, unit in wanted.items() if unit == "count"]
        metrics, spans = measure_traced(workload, sizing, args.seconds, tally, count_names)
        report = {name: (metrics[name], unit) for name, unit in wanted.items() if name in metrics}
    else:
        spans = None
        report = measure(workload, args.seconds, tally, setup_times, size["setup_repeats"])
        report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        report["error_rate"] = (len(tally.errors) / tally.attempted, "share")
        wanted = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    machine["loadavg_start"] = list(load_start)
    machine["loadavg_end"] = list(os.getloadavg())

    missing = sorted(set(wanted) - set(report))
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json were not measured: {missing}")
    result = {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": report[name][0], "unit": wanted[name]} for name in wanted},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": machine, "setup_s": setup_times,
                   "report": report, "errors": tally.errors, "result": result}, fh, indent=1)
    if spans is not None:
        with open(os.path.join(OUT, f"{stem}-spans.json"), "w", encoding="utf-8") as fh:
            json.dump([[list(s) for s in p] for p in spans], fh)

    for reason in tally.errors[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"machine {json.dumps(machine)}")
    for name, (value, unit) in report.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
