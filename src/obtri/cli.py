"""Command-line interface.

Subcommands map onto the library modules:

  bound       exact recursion lower bound for one dimension
  table       extrapolated lower bounds for a range of dimensions (CSV)
  sphere      quadrature + plug-in asymptotic + optional MC for the sphere
  mc          Monte Carlo estimate for a distribution spec (JSON file)
  fixedpoint  fixed-point acute probability: optimum or a scan (CSV)
  search      simulated annealing for minimal non-acute configurations
  selfsimilar Monte Carlo for the nested-cap construction, by shallow count
  replay      re-run a subcommand from a saved manifest

Every run emits a manifest (subcommand, parameters, seed, version,
timestamp) inline with its results.  The parameters are the subcommand's
parsed options, without the output destinations; replay feeds them back
through the same parser, so every manifest replays and seeded paths are
bit-reproducible from it.  Exit codes: 0 success, 2 usage error, 3 numerical
failure, 4 invariant violation (a result contradicting a proven bound).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import secrets
import sys
from datetime import datetime, timezone

from obtri import __version__
from obtri.bounds import asymptotic_bound, limit_bound, naive_bound, records_to_csv
from obtri.constructions import (
    DistributionSpec,
    build_sampler,
    fixed_point_scan,
    maximize_acute,
    mc_self_similar,
    SelfSimilarParams,
    ArcTripleParams,
)
from obtri.geometry import DEFAULT_TOL
from obtri.mc import estimate
from obtri.search import InvariantViolation, SearchParams, search_min
from obtri.specfun import NumericalError
from obtri.sphere import asymptotic_sphere, obtuse_prob_sphere

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_INVARIANT = 4

# CSV outputs carry their manifest as a trailing comment line.
MANIFEST_PREFIX = "# manifest: "


# Namespace entries that are not parameters of the run: the subcommand and its
# handler, the help flag, the seed (the manifest's own field) and the places
# the output goes.
_NOT_PARAMS = ("command", "func", "help", "seed", "output", "append_csv")


def _manifest(args) -> dict:
    """The manifest of a run: its parsed options, as the command left them."""
    return {
        "subcommand": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _write(args, result: dict | str) -> None:
    """Write a command's result with its manifest: JSON results as a
    ``{"manifest", "result"}`` document, CSV text with a trailing manifest line."""
    manifest = _manifest(args)
    if isinstance(result, str):
        text = f"{result}{MANIFEST_PREFIX}{json.dumps(manifest)}\n"
    else:
        text = json.dumps({"manifest": manifest, "result": result}, indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


# Each command returns its result (a dict for JSON, or CSV text) for _write.
# A command that resolves its seed or loads its spec stores the value in args,
# so that the manifest records what actually ran.
def cmd_bound(args) -> dict | str:
    result = limit_bound(args.dim, args.n_max)
    if not args.output:
        sys.stderr.write(
            f"d={args.dim}: lower bound {_fmt6(float(result.lower_bound))}"
            f" (asymptotic {_fmt6(float(asymptotic_bound(args.dim)))})\n")
    if args.format == "csv":
        return records_to_csv(result.records)
    return result.summary()


def cmd_table(args) -> str:
    lo, hi = args.dims
    lines = ["d,base_n,n_max,lower_bound,asymptotic,naive"]
    for d in range(lo, hi + 1):
        res = limit_bound(d, args.n_max)
        naive = repr(float(naive_bound(d))) if d >= 4 else ""
        lines.append(
            f"{d},{res.base_n},{args.n_max},{float(res.lower_bound)!r},"
            f"{float(asymptotic_bound(d))!r},{naive}"
        )
    return "\n".join(lines) + "\n"


def cmd_sphere(args) -> dict:
    result = {"d": args.dim, "quadrature": obtuse_prob_sphere(args.dim, args.tol),
              "asymptotic": asymptotic_sphere(args.dim), "mc": None}
    if args.mc_samples:
        args.seed = _resolve_seed(args.seed)
        spec = {"kind": "sphere", "params": {"d": args.dim}}
        result["mc"] = estimate(build_sampler(DistributionSpec(**spec)), args.mc_samples,
                                args.seed, workers=args.workers, spec=spec).to_dict()
    return result


def cmd_mc(args) -> dict:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DistributionSpec.from_json(fh.read())
    args.spec = {"kind": spec.kind, "params": spec.params}
    args.seed = _resolve_seed(args.seed)
    est = estimate(build_sampler(spec), args.samples, args.seed, args.tol,
                   workers=args.workers, spec=args.spec)
    if args.append_csv:
        row = (f"{spec.kind},{args.samples},{args.seed},{est.p_hat!r},"
               f"{est.ci95[0]!r},{est.ci95[1]!r}\n")
        with open(args.append_csv, "a", encoding="utf-8") as fh:
            fh.write(row)
    return est.to_dict()


def cmd_fixedpoint(args) -> dict | str:
    if args.scan:
        lines = ["p,acute,obtuse"]
        for p, x in fixed_point_scan(args.scan_points):
            lines.append(f"{p!r},{x!r},{1.0 - x!r}")
        return "\n".join(lines) + "\n"
    opt = maximize_acute()
    if not args.output:
        sys.stderr.write(
            f"p* = {_fmt6(opt.p)}, acute = {_fmt6(opt.acute)}, obtuse = {_fmt6(opt.obtuse)}\n")
    return opt.to_dict()


def cmd_search(args) -> dict:
    args.seed = _resolve_seed(args.seed)
    params = SearchParams(
        n=args.n, d=args.dim, iterations=args.iterations, restarts=args.restarts,
        seed=args.seed, mode=args.mode, tol=args.tol,
    )
    return search_min(params).to_dict()


def cmd_selfsimilar(args) -> dict:
    args.seed = _resolve_seed(args.seed)
    arc_args = (args.arc_alpha, args.arc_delta, args.arc_eps)
    if any(v is not None for v in arc_args) and not all(v is not None for v in arc_args):
        raise ValueError("--arc-alpha, --arc-delta and --arc-eps must be given together")
    kwargs = {"p": args.p}
    if all(v is not None for v in arc_args):
        kwargs["arc"] = ArcTripleParams(alpha=args.arc_alpha, delta=args.arc_delta,
                                        eps=args.arc_eps)
    return mc_self_similar(SelfSimilarParams(**kwargs), args.samples, args.seed).to_dict()


def _load_manifest(path: str) -> dict:
    """The manifest of a saved run: a JSON output (or a bare manifest), or the
    trailing manifest line of a CSV output."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        saved = json.loads(text)
    except json.JSONDecodeError:
        lines = [ln for ln in text.splitlines() if ln.startswith(MANIFEST_PREFIX)]
        if not lines:
            raise ValueError(f"{path} is neither JSON nor a CSV with a manifest line") from None
        saved = json.loads(lines[-1][len(MANIFEST_PREFIX):])
    manifest = saved.get("manifest", saved) if isinstance(saved, dict) else None
    if not isinstance(manifest, dict):
        raise ValueError(f"{path} holds no manifest object")
    return manifest


def cmd_replay(args) -> int:
    """Re-run a saved manifest through the saved subcommand's own parser, so
    every recorded value is parsed and validated again."""
    manifest = _load_manifest(args.manifest)
    sub, params = manifest.get("subcommand"), manifest.get("params", {})
    parser = args.parsers.get(sub) if isinstance(sub, str) else None
    if parser is None:
        raise ValueError(f"cannot replay subcommand {sub!r}")
    if not isinstance(params, dict):
        raise ValueError(f"manifest params must be an object, got {params!r}")
    actions = {a.dest: a for a in parser._actions if a.dest not in _NOT_PARAMS}
    unknown = sorted(set(params) - set(actions))
    if unknown:
        raise ValueError(f"manifest parameter {unknown[0]!r} is not an option of {sub!r}")
    for dest, value in params.items():
        if actions[dest].nargs == 0 and not isinstance(value, bool):
            raise ValueError(f"manifest parameter {dest!r} is a flag, got {value!r}")
        if actions[dest].type is _dims_range and not (isinstance(value, (list, tuple)) and len(value) == 2):
            raise ValueError(f"manifest parameter {dest!r} must be a pair, got {value!r}")
    values = dict(params, seed=manifest.get("seed"))
    # A dict-valued parameter (the mc spec) is replayed from a file: written
    # where --spec asks, or else into a temporary directory, never the working
    # directory.  (Imported here: tempfile adds about 6 ms to every start of
    # the command.)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        argv = [sub]
        for action in parser._actions:
            value = values.get(action.dest)
            if value is None or value is False:
                continue
            flag = action.option_strings[0]
            if action.nargs == 0:
                argv.append(flag)
            elif isinstance(value, dict):
                path = args.spec or os.path.join(tmp, f"{action.dest}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(json.dumps(value))
                argv += [flag, path]
            elif action.type is _dims_range:
                argv += [flag, _dims_text(value)]
            else:
                argv += [flag, repr(value) if isinstance(value, float) else str(value)]
        if args.output:
            argv += ["--output", args.output]
        return main(argv)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command's parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="obtri",
        description="Lower bounds, constructions and Monte Carlo estimates for "
                    "the probability that three random points form an obtuse triangle.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, seeded=True):
        p.add_argument("--output", help="write results to this file instead of stdout")
        if seeded:
            p.add_argument("--seed", type=int, default=None,
                           help="64-bit master seed; derived from entropy when omitted")

    p = sub.add_parser("bound", help="recursion lower bound for one dimension")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n-max", type=int, default=10 ** 6)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("table", help="lower-bound table over a dimension range (CSV)")
    p.add_argument("--dims", type=_dims_range, default=(4, 8),
                   help="inclusive range, e.g. 4..8")
    p.add_argument("--n-max", type=int, default=10 ** 6)
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("sphere", help="uniform-on-sphere obtuse probability")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--mc-samples", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("mc", help="Monte Carlo estimate for a distribution spec")
    p.add_argument("--spec", required=True, help="path to DistributionSpec JSON")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--append-csv", help="append a sweep row to this CSV file")
    add_common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fixedpoint", help="self-similar fixed point: optimum or scan")
    p.add_argument("--scan", action="store_true")
    p.add_argument("--scan-points", type=int, default=999)
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_fixedpoint)

    p = sub.add_parser("search", help="anneal for minimal non-acute configurations")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--iterations", type=int, default=50_000)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--mode", choices=("non-acute", "strict-obtuse"), default="non-acute")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    add_common(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("selfsimilar", help="Monte Carlo for the nested-cap construction")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--samples", type=int, default=10 ** 6)
    p.add_argument("--arc-alpha", type=float, default=None)
    p.add_argument("--arc-delta", type=float, default=None)
    p.add_argument("--arc-eps", type=float, default=None)
    add_common(p)
    p.set_defaults(func=cmd_selfsimilar)

    replayable = dict(sub.choices)  # every subcommand above writes a manifest
    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--spec", help="where to write the replayed spec file (mc only; "
                        "a temporary file when omitted)")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_replay, parsers=replayable)

    return parser


def _dims_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition("..")
    try:
        pair = (int(lo), int(hi or lo))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}") from exc
    if pair[0] < 2 or pair[1] < pair[0]:
        raise argparse.ArgumentTypeError(f"bad range {text!r}")
    return pair


def _dims_text(pair) -> str:
    """The inverse of _dims_range."""
    return f"{pair[0]}..{pair[1]}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.func is cmd_replay:
            return cmd_replay(args)  # the replayed run writes its own output
        _write(args, args.func(args))
        return EXIT_OK
    except InvariantViolation as exc:
        sys.stderr.write(f"invariant violation: {exc}\n")
        return EXIT_INVARIANT
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc} (context: {exc.context})\n")
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
