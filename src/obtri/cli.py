"""Command-line interface.

Subcommands map onto the library modules:

  bound       exact recursion lower bound for one dimension
  table       extrapolated lower bounds for a range of dimensions (CSV)
  sphere      quadrature + plug-in asymptotic + optional MC for the sphere
  mc          Monte Carlo estimate for a distribution spec (JSON file)
  fixedpoint  fixed-point acute probability: optimum or a scan (CSV)
  search      simulated annealing for minimal non-acute configurations
  replay      re-run a subcommand from a saved manifest

Every run emits a manifest (subcommand, parameters, seed, version,
timestamp) inline with its results; seeded paths are bit-reproducible from
the manifest.  Exit codes: 0 success, 2 usage error, 3 numerical failure,
4 invariant violation (a result contradicting a proven bound).
"""

from __future__ import annotations

import argparse
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


def _default_workers() -> int:
    """Worker count for MC sharding; OBTRI_WORKERS overrides (not load-bearing:
    results are identical at any worker count)."""
    try:
        return max(1, int(os.environ.get("OBTRI_WORKERS", "1")))
    except ValueError:
        return 1


def _manifest(subcommand: str, params: dict, seed: int | None) -> dict:
    return {
        "subcommand": subcommand,
        "params": params,
        "seed": seed,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_seed(seed: int | None) -> int:
    return secrets.randbits(63) if seed is None else seed


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _fmt6(x: float) -> str:
    return f"{x:.6g}"


def cmd_bound(args) -> int:
    result = limit_bound(args.dim, args.n_max)
    manifest = _manifest("bound", {"dim": args.dim, "n_max": args.n_max,
                                   "format": args.format}, None)
    if args.format == "csv":
        text = records_to_csv(result.records)
        text += f"{MANIFEST_PREFIX}{json.dumps(manifest)}\n"
        _emit(text, args.output)
    else:
        payload = {"manifest": manifest, "result": result.summary()}
        _emit(json.dumps(payload, indent=2), args.output)
    if not args.output:
        sys.stderr.write(
            f"d={args.dim}: lower bound {_fmt6(float(result.lower_bound))}"
            f" (asymptotic {_fmt6(float(asymptotic_bound(args.dim)))})\n")
    return EXIT_OK


def cmd_table(args) -> int:
    lo, hi = args.dims
    lines = ["d,base_n,n_max,lower_bound,asymptotic,naive"]
    for d in range(lo, hi + 1):
        res = limit_bound(d, args.n_max)
        naive = float(naive_bound(d)) if d >= 4 else ""
        lines.append(
            f"{d},{res.base_n},{args.n_max},{float(res.lower_bound)!r},"
            f"{float(asymptotic_bound(d))!r},{naive!r}"
        )
    text = "\n".join(lines) + "\n"
    text += f"{MANIFEST_PREFIX}{json.dumps(_manifest('table', {'dims': list(args.dims), 'n_max': args.n_max}, None))}\n"
    _emit(text, args.output)
    return EXIT_OK


def cmd_sphere(args) -> int:
    quad = obtuse_prob_sphere(args.dim, args.tol)
    asym = asymptotic_sphere(args.dim)
    payload = {
        "manifest": _manifest(
            "sphere",
            {"dim": args.dim, "tol": args.tol, "mc_samples": args.mc_samples},
            args.seed,
        ),
        "result": {"d": args.dim, "quadrature": quad, "asymptotic": asym, "mc": None},
    }
    if args.mc_samples:
        seed = _resolve_seed(args.seed)
        payload["manifest"]["seed"] = seed
        spec = DistributionSpec(kind="sphere", params={"d": args.dim})
        est = estimate(build_sampler(spec), args.mc_samples, seed,
                       workers=args.workers, spec=json.loads(spec.to_json()))
        payload["result"]["mc"] = est.to_dict()
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def cmd_mc(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = DistributionSpec.from_json(fh.read())
    seed = _resolve_seed(args.seed)
    sampler = build_sampler(spec)
    est = estimate(sampler, args.samples, seed, tol=args.tol,
                   workers=args.workers, spec=json.loads(spec.to_json()))
    payload = {
        "manifest": _manifest(
            "mc",
            {"spec": json.loads(spec.to_json()), "samples": args.samples,
             "tol": args.tol, "workers": args.workers},
            seed,
        ),
        "result": est.to_dict(),
    }
    text = json.dumps(payload, indent=2)
    if args.append_csv:
        row = (f"{spec.kind},{args.samples},{seed},{est.p_hat!r},"
               f"{est.ci95[0]!r},{est.ci95[1]!r}\n")
        with open(args.append_csv, "a", encoding="utf-8") as fh:
            fh.write(row)
    _emit(text, args.output)
    return EXIT_OK


def cmd_fixedpoint(args) -> int:
    if args.scan:
        lines = ["p,acute,obtuse"]
        for p, x in fixed_point_scan(args.scan_points):
            lines.append(f"{p!r},{x!r},{1.0 - x!r}")
        text = "\n".join(lines) + "\n"
        text += f"{MANIFEST_PREFIX}{json.dumps(_manifest('fixedpoint', {'scan_points': args.scan_points}, None))}\n"
        _emit(text, args.output)
        return EXIT_OK
    opt = maximize_acute()
    payload = {
        "manifest": _manifest("fixedpoint", {"optimize": True}, None),
        "result": opt.to_dict(),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    if not args.output:
        sys.stderr.write(
            f"p* = {_fmt6(opt.p)}, acute = {_fmt6(opt.acute)}, obtuse = {_fmt6(opt.obtuse)}\n")
    return EXIT_OK


def cmd_search(args) -> int:
    seed = _resolve_seed(args.seed)
    params = SearchParams(
        n=args.n, d=args.dim, iterations=args.iterations, restarts=args.restarts,
        seed=seed, mode=args.mode, tol=args.tol,
    )
    result = search_min(params)
    payload = {
        "manifest": _manifest("search", params.to_dict(), seed),
        "result": json.loads(result.to_json()),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


def cmd_selfsimilar(args) -> int:
    seed = _resolve_seed(args.seed)
    arc_args = (args.arc_alpha, args.arc_delta, args.arc_eps)
    if any(v is not None for v in arc_args) and not all(v is not None for v in arc_args):
        raise ValueError("--arc-alpha, --arc-delta and --arc-eps must be given together")
    kwargs = {"p": args.p}
    if all(v is not None for v in arc_args):
        kwargs["arc"] = ArcTripleParams(alpha=args.arc_alpha, delta=args.arc_delta,
                                        eps=args.arc_eps)
    params = SelfSimilarParams(**kwargs)
    report = mc_self_similar(params, args.samples, seed)
    payload = {
        "manifest": _manifest("selfsimilar",
                              {"p": args.p, "samples": args.samples,
                               "arc": params.arc.to_dict()}, seed),
        "result": report.to_dict(),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return EXIT_OK


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
        return json.loads(lines[-1][len(MANIFEST_PREFIX):])
    return saved.get("manifest", saved)


def cmd_replay(args) -> int:
    manifest = _load_manifest(args.manifest)
    sub = manifest["subcommand"]
    params = manifest["params"]
    seed = manifest.get("seed")
    argv = [sub]
    if sub == "bound":
        argv += ["--dim", str(params["dim"]), "--n-max", str(params["n_max"]),
                 "--format", params.get("format", "json")]
    elif sub == "table":
        argv += ["--dims", f"{params['dims'][0]}..{params['dims'][1]}",
                 "--n-max", str(params["n_max"])]
    elif sub == "sphere":
        argv += ["--dim", str(params["dim"]), "--tol", repr(params["tol"])]
        if params.get("mc_samples"):
            argv += ["--mc-samples", str(params["mc_samples"]), "--seed", str(seed)]
    elif sub == "mc":
        argv += ["--samples", str(params["samples"]),
                 "--seed", str(seed), "--tol", repr(params["tol"])]
    elif sub == "search":
        argv += ["--n", str(params["n"]), "--dim", str(params["d"]),
                 "--iterations", str(params["iterations"]),
                 "--restarts", str(params["restarts"]),
                 "--mode", params["mode"], "--tol", repr(params["tol"]),
                 "--seed", str(seed)]
    else:
        raise ValueError(f"cannot replay subcommand {sub!r}")
    if args.output:
        argv += ["--output", args.output]
    if sub != "mc":
        return main(argv)
    # The mc subcommand reads its spec from a file: write the saved one where
    # asked, or else into a temporary directory, never the working directory.
    # (Imported here: tempfile adds about 6 ms to every start of the command.)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        spec_path = args.spec or os.path.join(tmp, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(params["spec"]))
        return main(argv + ["--spec", spec_path])


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--workers", type=int, default=_default_workers())
    add_common(p)
    p.set_defaults(func=cmd_sphere)

    p = sub.add_parser("mc", help="Monte Carlo estimate for a distribution spec")
    p.add_argument("--spec", required=True, help="path to DistributionSpec JSON")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--workers", type=int, default=_default_workers())
    p.add_argument("--append-csv", help="append a sweep row to this CSV file")
    add_common(p)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("fixedpoint", help="self-similar fixed point: optimum or scan")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--optimize", action="store_true", default=True)
    g.add_argument("--scan", action="store_true")
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

    p = sub.add_parser("replay", help="re-run a saved manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--spec", help="where to write the replayed spec file (mc only; "
                        "a temporary file when omitted)")
    add_common(p, seeded=False)
    p.set_defaults(func=cmd_replay)

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
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
