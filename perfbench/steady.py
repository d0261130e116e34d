"""Run every workload once per seed, untraced, and summarize the spread.

    python3 perfbench/steady.py --seeds 1-10 --out perfbench/results/seed-commit.json

For each workload and end-to-end metric this reports the ten values, their
median, quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the interquartile distance as a share of the median. It also keeps the
report-only figures (plain pass time ``wall_s``, stationarity, error rate),
each run's elapsed time and the environment.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seeds_from(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"values": values, "median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / mid if mid else float("inf")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    summary = {}
    for name in (w["name"] for w in SPEC["workloads"]):
        metrics, environment = {}, None
        extra = {"wall_s": [], "stationarity": [], "error_rate": [], "run_elapsed_s": []}
        for seed in seeds_from(args.seeds):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=300, check=True)
            lines = proc.stdout.strip().splitlines()
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect output: {report['failures']}")
            for key, metric in result["metrics"].items():
                metrics.setdefault(key, []).append(metric["value"])
            extra["wall_s"].append(report["wall_s"])
            extra["error_rate"].append(report["error_rate"])
            if "stationarity" in report:
                extra["stationarity"].append(report["stationarity"])
            environment = report["environment"]
            extra["run_elapsed_s"].append(time.perf_counter() - started)
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary[name] = {key: summarize(values) for key, values in metrics.items()}
        summary[name].update({key: summarize(values) for key, values in extra.items()
                              if len(values) >= 2 and any(values)})
        environment.pop("workload_seed")
        summary[name]["environment"] = {**environment, "seeds": seeds_from(args.seeds),
                                        "run_seconds": SPEC["run_seconds"]}
        for key, stats in summary[name].items():
            if "spread" in stats:
                print(f"  {name} {key}: median {stats['median']:.4g}, spread {stats['spread']:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
