"""Regenerate the pinned outputs in pinned/ from the program in src/.

    python3 perfbench/pin.py

Pins the ``table`` CSV body of the exact workload and the class counts of the
montecarlo workload at DEFAULT_SEED, for every sizing, and the reference class
counts of the thin-triangle samplers from one run of REFERENCE_SAMPLES triples
at REFERENCE_SEED, a seed no workload uses.  Run it only when a change to
those outputs is intended (for example a flagged change to the RNG draw
order), and say so in the change.
"""

import json
import os
import sys
import tempfile

from config import DEFAULT_SEED, SELF_SIMILAR_P, SIZES
from run import SRC

sys.path.insert(0, SRC)

import workloads  # noqa: E402  (needs obtri on the path)

REFERENCE_SAMPLES = 1 << 23
REFERENCE_SEED = 0


def reference_counts(argv: list[str]) -> dict:
    code, out = workloads.run_cli(argv + ["--samples", str(REFERENCE_SAMPLES), "--seed", str(REFERENCE_SEED)])
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return {"samples": REFERENCE_SAMPLES, "seed": REFERENCE_SEED, "counts": json.loads(out)["result"]["counts"]}


def main() -> int:
    counts = {}
    with tempfile.TemporaryDirectory(dir=workloads.PINNED_DIR) as workdir:
        for sizing in SIZES:
            mc = workloads.montecarlo(sizing, DEFAULT_SEED, workdir)
            for op in mc.ops:
                op.run()
            counts[sizing] = mc.outputs
            table = workloads.exact(sizing, DEFAULT_SEED, workdir)
            table.ops[0].run()
            with open(os.path.join(workloads.PINNED_DIR, f"table_{sizing}.csv"), "w", encoding="utf-8") as fh:
                fh.write(table.outputs["table"])
        reference = {
            "arc_triple": reference_counts(["mc", "--spec", os.path.join(workdir, "spec-arc_triple.json")]),
            "self_similar": reference_counts(["selfsimilar", "--p", repr(SELF_SIMILAR_P)]),
        }
    for name, pinned in (("mc_counts.json", counts), ("mc_reference.json", reference)):
        with open(os.path.join(workloads.PINNED_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(pinned, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
