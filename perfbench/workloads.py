"""The three workloads: fixed operation lists with an output check on each.

Every operation goes through ``obtri.cli.main`` (or, for ``count_classes``,
which has no subcommand, the public library function), looked up on its
module at call time so that the traced run's wrappers are seen.  An
operation returns ``None`` when all of its output checks pass, else the
reason it failed.

The references the checks use are independent of the program where that is
possible: the closed forms of the minimum obtuse count, a Wilson score
interval, and sphere probabilities computed with mpmath at 30 digits.  The
class shares of the thin-triangle samplers have no closed form; they are
checked at every seed against shares pinned from one large run
(``mc_reference.json``), and at ``DEFAULT_SEED`` every count must equal the
pinned count.  pin.py makes the pinned files.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from obtri import cli, geometry

from config import DEFAULT_SEED, MC_SPECS, SELF_SIMILAR_P, SIZES

PINNED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")

# z of the Wilson score interval used to check Monte Carlo estimates.  Its
# two-sided tail is about 1e-7, so a correct program fails the check on
# about one seed in ten million rather than one in twenty.
WILSON_Z = 5.3

# Samplers whose class shares are checked against mc_reference.json.  The
# reference run has 16 times the triples of a full-size command, so its own
# error widens the interval by about 3%, leaving the false-alarm rate per
# check below 1e-6.
REFERENCE_KINDS = ("arc_triple", "self_similar")

# Obtuse probability of three uniform points on S^{d-1}, from mpmath
# quadrature of the three-cap integrand at 30 significant digits.
SPHERE_REFERENCE = {3: 0.5, 10: 0.049160015113103468781, 80: 2.0882419116946648463e-10}
SPHERE_RTOL = 1e-9

# k[n mod 11] of the closed form of the minimum obtuse count in R^3.
K_3D = (0, 2, 4, 5, 4, 0, 3, 1, 4, 0, -1)


def binom3(n: int) -> int:
    return n * (n - 1) * (n - 2) // 6


def min_obtuse_2d(n: int) -> int:
    return (binom3(n) - n // 3) // 3


def min_obtuse_3d(n: int) -> int:
    return (binom3(n) - 2 * n + K_3D[n % 11]) // 11


def wilson_contains(p: float, successes: int, trials: int, z: float = WILSON_Z) -> bool:
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)) / denom
    return center - half <= p <= center + half


def command_seeds(seed: int, count: int) -> list[int]:
    """Per-command seeds derived from the workload seed, each below 2**63."""
    state = np.random.SeedSequence(seed).generate_state(count, dtype=np.uint64)
    return [int(s) >> 1 for s in state]


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one command in-process; returns its exit code and standard output."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


@dataclass
class Op:
    name: str
    group: str                      # "mc", "bound", "search", "quad" or "count"
    work: int                       # triples, recursion steps or annealing moves
    run: Callable[[], str | None]   # None when every output check passes


@dataclass
class Workload:
    name: str
    ops: list[Op]
    work_group: str   # ops whose work per second is the rate named work_name
    work_name: str    # the report's name for that rate on this workload
    outputs: dict     # the outputs that pin.py pins, as the last pass saw them


def read_pinned(name: str) -> str | None:
    try:
        with open(os.path.join(PINNED_DIR, name), encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _result(code: int, out: str) -> tuple[dict | None, str | None]:
    if code != 0:
        return None, f"exit code {code}"
    return json.loads(out)["result"], None


def montecarlo(sizing: str, seed: int, workdir: str) -> Workload:
    n = SIZES[sizing]["mc_samples"]
    pinned = json.loads(read_pinned("mc_counts.json") or "{}").get(sizing, {}) if seed == DEFAULT_SEED else {}
    reference = json.loads(read_pinned("mc_reference.json") or "{}")
    seeds = dict(zip(("sphere_d3", "sphere_d10", "arc_triple", "self_similar"), command_seeds(seed, 4)))
    spec_paths = {}
    for key, spec in MC_SPECS.items():
        spec_paths[key] = os.path.join(workdir, f"spec-{key}.json")
        with open(spec_paths[key], "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
    outputs = {}  # class counts at 1 worker, by sampler

    def check(key: str, counts: dict) -> str | None:
        # The command's own Estimate checks the sum against its samples; this
        # checks it against the samples the workload asked for.
        if sum(counts.values()) != n:
            return f"class counts sum to {sum(counts.values())}, expected {n}"
        if key in pinned and counts != pinned[key]:
            return f"class counts {counts} differ from the pinned {pinned[key]}"
        if key in REFERENCE_KINDS:
            if key not in reference:
                return f"no reference shares for {key} in {PINNED_DIR}"
            ref = reference[key]
            for cls, count in ref["counts"].items():
                share = count / ref["samples"]
                if not wilson_contains(share, counts[cls], n):
                    return f"{cls} count {counts[cls]}/{n} is inconsistent with the reference share {share!r}"
        if key == "sphere_d3" and not wilson_contains(0.5, counts["obtuse"], n):
            return f"obtuse count {counts['obtuse']}/{n} is inconsistent with 1/2"
        if key == "sphere_d10" and not wilson_contains(SPHERE_REFERENCE[10], counts["obtuse"], n):
            return f"obtuse count {counts['obtuse']}/{n} is inconsistent with the quadrature"
        return None

    def mc(key: str, workers: int) -> Callable[[], str | None]:
        argv = ["mc", "--spec", spec_paths[key], "--samples", str(n),
                "--seed", str(seeds[key]), "--workers", str(workers)]

        def run():
            res, err = _result(*run_cli(argv))
            if err:
                return err
            counts = res["counts"]
            if workers == 1:
                outputs[key] = counts
            elif counts != outputs.get(key):
                return f"counts at {workers} workers differ from the counts at 1 worker"
            return check(key, counts)
        return run

    def selfsimilar():
        res, err = _result(*run_cli(["selfsimilar", "--p", repr(SELF_SIMILAR_P), "--samples", str(n),
                                     "--seed", str(seeds["self_similar"])]))
        if err:
            return err
        outputs["self_similar"] = res["counts"]
        if abs(res["accounting_gap"]) > WILSON_Z * res["accounting_sigma"]:
            return (f"accounting gap {res['accounting_gap']!r} exceeds {WILSON_Z} sigma "
                    f"({res['accounting_sigma']!r})")
        return check("self_similar", res["counts"])

    ops = [Op(f"mc {key}", "mc", n, mc(key, 1)) for key in ("sphere_d3", "sphere_d10", "arc_triple")]
    ops.append(Op("selfsimilar", "mc", n, selfsimilar))
    ops.append(Op("mc sphere_d3 workers=2", "mc", n, mc("sphere_d3", 2)))
    return Workload("montecarlo", ops, "mc", "triples_per_s", outputs)


def exact(sizing: str, seed: int, workdir: str) -> Workload:
    """Seed-independent: the recursion has no random input."""
    n_max = SIZES[sizing]["bound_n_max"]
    pinned_table = read_pinned(f"table_{sizing}.csv")
    outputs = {}

    def table():
        code, out = run_cli(["table", "--dims", "4..8", "--n-max", str(n_max)])
        if code != 0:
            return f"exit code {code}"
        outputs["table"] = out.split("# manifest:")[0]
        if outputs["table"] != pinned_table:
            return "table CSV body differs from the pinned copy"
        return None

    def bound(d: int, t_n: int) -> Callable[[], str | None]:
        def run():
            res, err = _result(*run_cli(["bound", "--dim", str(d), "--n-max", str(n_max)]))
            if err:
                return err
            if res["monotone"] is not True:
                return "monotone is not true"
            expected = float(Fraction(t_n, binom3(n_max)))
            if res["lower_bound"] != expected:
                return f"lower_bound {res['lower_bound']!r} differs from the closed form {expected!r}"
            return None
        return run

    ops = [
        Op("table 4..8", "bound", sum(n_max - 2 ** d for d in range(4, 9)), table),
        Op("bound d=2", "bound", n_max - 4, bound(2, min_obtuse_2d(n_max))),
        Op("bound d=3", "bound", n_max - 6, bound(3, min_obtuse_3d(n_max))),
    ]
    return Workload("exact", ops, "bound", "bound_steps_per_s", outputs)


def probe(sizing: str, seed: int, workdir: str) -> Workload:
    size = SIZES[sizing]
    searches = size["search"]
    seeds = command_seeds(seed, len(searches) + 1)
    ops = []

    def search(n: int, iterations: int, restarts: int, cseed: int) -> Callable[[], str | None]:
        argv = ["search", "--n", str(n), "--dim", "2", "--iterations", str(iterations),
                "--restarts", str(restarts), "--seed", str(cseed)]

        def run():
            code, out = run_cli(argv)
            if code == cli.EXIT_INVARIANT:
                return "InvariantViolation: best count below the closed-form bound"
            res, err = _result(code, out)
            if err:
                return err
            if res["best_count"] < min_obtuse_2d(n):
                return f"best_count {res['best_count']} below the closed form {min_obtuse_2d(n)}"
            return None
        return run

    for (n, iterations, restarts), cseed in zip(searches, seeds):
        ops.append(Op(f"search n={n}", "search", iterations * restarts,
                      search(n, iterations, restarts, cseed)))

    def sphere(d: int) -> Callable[[], str | None]:
        def run():
            res, err = _result(*run_cli(["sphere", "--dim", str(d)]))
            if err:
                return err
            ref = SPHERE_REFERENCE[d]
            if abs(res["quadrature"] - ref) > SPHERE_RTOL * ref:
                return f"quadrature {res['quadrature']!r} is not within {SPHERE_RTOL} of {ref!r}"
            return None
        return run

    ops += [Op(f"sphere d={d}", "quad", 0, sphere(d)) for d in size["sphere_dims"]]

    n_points = size["config_points"]
    points = np.random.default_rng(seeds[-1]).standard_normal((n_points, 3))

    def count():
        counts = geometry.count_classes(geometry.Configuration(points=points))
        total = sum(counts.values())
        return None if total == binom3(n_points) else f"class counts sum to {total}"

    ops.append(Op(f"count_classes n={n_points}", "count", 0, count))
    return Workload("probe", ops, "search", "search_moves_per_s", {})


BUILDERS = {"montecarlo": montecarlo, "exact": exact, "probe": probe}
