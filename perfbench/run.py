"""fallcascade benchmark: one workload per process, so that peak RSS is the
workload's own.

    python3 perfbench/run.py --workload escalate --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, nothing is installed. Human-readable lines come first; the
last line of standard output is the JSON result. `--trace 0` reports the
end-to-end metrics, `--trace 1` the per-layer ones listed in BENCHMARK.json.
Outputs, the result with its provenance, and the spans of a traced run are
written under `.perfbench/<workload>/`.
"""
import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: the matrices are small and the
# machine is shared, so a second thread adds noise and little speed
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent


def unit(name) -> str:
    """The unit a metric's name implies."""
    if "wps" in name:
        return "1/s"
    if "_us" in name:
        return "us"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith(("share", "per_trace", "overhead")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("escalate", "default", "route"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "fallcascade" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} is not a fallcascade checkout: need src/fallcascade "
              "and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure  # imports the package from src/

    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    pins = json.loads((HERE / "pins.json").read_text())
    work = ROOT / ".perfbench" / args.workload
    result = measure.run(args.workload, args.seed, args.seconds, args.trace,
                         ROOT, work, pins)

    metrics = result["metrics"]
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("provenance " + json.dumps(result["info"], sort_keys=True))
    for name in sorted(metrics):
        print(f"  {name:<40} {metrics[name]:.6g} {unit(name)}")
    print(f"  {'error_rate':<40} {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations failed)")
    for failure in result["failures"][:20]:
        print("FAILED: " + failure.rstrip())
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    with open(work / "result.json", "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)
    print(json.dumps({
        "correct": result["failed"] == 0 and not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
