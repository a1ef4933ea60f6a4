"""Tests of the benchmark itself:  python3 -m pytest perfbench

Every workload runs once at smoke size, untraced and traced, and must print
every metric with its unit and a well-formed result line.  The rest checks
BENCHMARK.json against the benchmark contract, the tracer's bookkeeping, and
that the output checks do catch wrong outputs.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from run import ROOT, SRC

sys.path.insert(0, SRC)

import tracing  # noqa: E402  (needs obtri on the path)
import workloads  # noqa: E402
from config import WORKLOADS  # noqa: E402
from obtri import bounds, geometry, mc  # noqa: E402
from obtri.constructions import SphereSampler  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)

# Report metrics that every untraced run prints, and those of one workload.
REPORT_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "share", "cal_s": "s"}
WORKLOAD_UNITS = {
    "montecarlo": {"triples_per_s": "triples/s"},
    "exact": {"bound_steps_per_s": "steps/s"},
    "probe": {"search_moves_per_s": "moves/s", "quad_s": "s"},
}


def smoke(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--smoke", "--workload", workload,
                           "--seed", "1", "--seconds", "0", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300, cwd=cwd)


def report_lines(stdout):
    """name -> unit of every ``name = value unit`` line."""
    out = {}
    for line in stdout.splitlines():
        m = re.fullmatch(r"(\S+) = (\S+) (\S+)", line)
        if m:
            float(m.group(2))
            out[m.group(1)] = m.group(3)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {m["name"]: {"value": result["metrics"][m["name"]]["value"],
                                             "unit": m["unit"]} for m in section}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    printed = report_lines(proc.stdout)
    expected = {m["name"]: m["unit"] for m in section}
    if not trace:
        expected.update(REPORT_UNITS)
        expected.update(WORKLOAD_UNITS[workload])
    assert {name: printed.get(name) for name in expected} == expected


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = smoke("exact", 0, cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_benchmark_json_meets_the_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["command"][0] == "python3" and len(DECLARED["command"]) <= 32
    assert all(re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and not p.startswith(("/", ".."))
               for p in DECLARED["paths"])
    assert all(arg.startswith(tuple(DECLARED["paths"])) for arg in DECLARED["command"][1:])
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60
    assert 2 <= len(DECLARED["workloads"]) <= 8
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [w["name"] for w in DECLARED["workloads"]]
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
        names.append(m["name"])
    assert len(names) == len(set(names))
    setup = [m for m in DECLARED["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in DECLARED["end_to_end"])}]
    # 4 + 22 runs per workload, each with set-up and warm-up, within 3420 s.
    assert (4 + 22 * len(DECLARED["workloads"])) * (DECLARED["run_seconds"] + 16) < 3420


def test_self_times_subtract_the_covered_part_of_children():
    S = tracing.Span
    spans = [S(0, None, "a", 0.0, 10.0, {}),
             S(1, 0, "b", 1.0, 4.0, {}),
             S(2, 0, "b", 3.0, 5.0, {}),   # overlaps its sibling, as on two threads
             S(3, 1, "c", 2.0, 3.0, {})]
    assert tracing.self_times(spans) == {0: 6.0, 1: 2.0, 2: 2.0, 3: 1.0}


def test_tracer_records_layers_and_restores_them():
    originals = (geometry.classify_batch, mc.classify_batch, bounds.limit_bound)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert mc.classify_batch is not originals[1]
        workloads.run_cli(["bound", "--dim", "2", "--n-max", "100"])
        mc.estimate(SphereSampler(3), 300, 7, workers=2, shard_size=100)
    assert (geometry.classify_batch, mc.classify_batch, bounds.limit_bound) == originals
    names = [s.name for s in tracer.spans]
    assert names.count("cli.main") == 1 and names.count("bounds.limit_bound") == 1
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["mc.estimate.shards"] == 3
    assert metrics["geometry.classify_batch.calls"] == 3
    assert metrics["bounds.limit_bound.records"] > 0


def test_closed_forms_agree_with_the_program():
    for n in range(6, 300):
        assert workloads.min_obtuse_2d(n) == bounds.closed_form_2d(n)
        assert workloads.min_obtuse_3d(n) == bounds.closed_form_3d(n)


def test_checks_catch_wrong_outputs(tmp_path, monkeypatch):
    ops = workloads.exact("smoke", 1, str(tmp_path)).ops
    assert [op.run() for op in ops] == [None, None, None]
    monkeypatch.setattr(workloads, "read_pinned", lambda name: "d,base_n\n")
    assert "pinned" in workloads.exact("smoke", 1, str(tmp_path)).ops[0].run()
    monkeypatch.undo()

    assert workloads.wilson_contains(0.5, 2041, 4096)
    assert not workloads.wilson_contains(0.5, 2400, 4096)

    mc_ops = workloads.montecarlo("smoke", 1, str(tmp_path)).ops
    assert all(op.run() is None for op in mc_ops)
    read_pinned = workloads.read_pinned
    wrong = {"mc_counts.json": {"smoke": {"sphere_d3": {"acute": 1, "obtuse": 4095, "right": 0, "degenerate": 0}}},
             "mc_reference.json": json.loads(read_pinned("mc_reference.json"))}
    for ref in wrong["mc_reference.json"].values():
        ref["counts"]["right"], ref["counts"]["degenerate"] = ref["counts"]["degenerate"], ref["counts"]["right"]
    monkeypatch.setattr(workloads, "read_pinned", lambda name: json.dumps(wrong[name]))
    mc_ops = workloads.montecarlo("smoke", 2, str(tmp_path)).ops
    assert [op.name for op in mc_ops[2:4]] == ["mc arc_triple", "selfsimilar"]
    assert all("reference share" in op.run() for op in mc_ops[2:4])
    assert "pinned" in workloads.montecarlo("smoke", 1, str(tmp_path)).ops[0].run()
    monkeypatch.setattr(workloads, "read_pinned", lambda name: None if name == "mc_reference.json"
                        else read_pinned(name))
    assert "no reference" in workloads.montecarlo("smoke", 2, str(tmp_path)).ops[2].run()
