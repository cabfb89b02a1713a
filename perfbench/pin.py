"""Record each workload's deterministic outcome at seeds 0..N-1 in pins.json:
pooled confusion counts and per-station volumes of every variant, and the
summed `run_dataset` reports of `route`. run.py fails any pass whose outcome differs
from the pin of its seed, so a change that alters behaviour shows as failures.

    python3 perfbench/pin.py --seeds 32
"""
import argparse
import json
import sys

import run  # sets the BLAS thread count before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))
import measure  # noqa: E402
import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, required=True)
    args = parser.parse_args(argv)
    pins, bad = {}, 0
    work = run.ROOT / ".perfbench" / "pin"
    for name in workloads.NAMES:
        workload = workloads.make(name)
        pins[name] = {}
        for seed in range(args.seeds):
            state = workload.setup(seed, str(work / name))
            p = measure.checked_pass(workload, state, str(work / "out"), None, None)
            if p.failures:
                bad += 1
                print(f"{name} seed {seed}: not pinned: {p.failures}")
                continue
            pins[name][str(seed)] = p.outcome
            print(f"{name} seed {seed}: pinned", flush=True)
    with open(run.HERE / "pins.json", "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
