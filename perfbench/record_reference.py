"""Record the fine-tuning AUROCs that the `finetune` output check compares
against, and confirm that every workload's output check passes on each
recorded seed.

    python3 perfbench/record_reference.py --seeds 0..99

Run it only at the commit that defines the reference: the check exists to
catch a later change that alters results by more than the tolerance.
"""

import argparse
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402  (pins BLAS threads before numpy loads)
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range lo..hi")
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split(".."))
    reference = run.load_json(REFERENCE)
    seeds = sorted(set(range(lo, hi + 1)) | {reference["held_out_seed"]})
    recorded = {}
    bad = 0
    with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
        for seed in seeds:
            for name, cls in workloads.WORKLOADS.items():
                wl = cls(seed, workloads.FULL)  # no reference: checks its own invariants
                wl.setup(workdir)
                output = wl.run()
                problems = wl.check(output)
                if name == "finetune":
                    recorded[str(seed)] = {regime: rec.auroc for regime, (_, rec, _) in output.items()}
                for p in problems:
                    bad += 1
                    print(f"seed {seed} {name}: {p}", file=sys.stderr)
            print(f"seed {seed}: {recorded[str(seed)]}", flush=True)
    if bad:
        print(f"{bad} check failures; reference not written", file=sys.stderr)
        return 1
    reference["finetune_auroc"] = recorded
    with open(REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
