"""Run the benchmark over several seeds and record medians and quartiles.

    python3 perfbench/collect.py --set first --seeds 101-110 --out perfbench/baseline.json

Each workload runs once per seed, untraced, for BENCHMARK.json's
run_seconds.  Per end-to-end metric the set records every value, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread: the
distance between the first and third quartile over the median.  The
result is merged into --out under the set's name; with two or more sets
present it also prints, per metric and workload, the spread against the
metric's bound and how far each later set's median moved from the first.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(spec: dict, seeds: list[int]) -> dict:
    out = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / med, "values": values}
        out[workload] = {
            "seeds": seeds,
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
    return out


def compare(spec: dict, sets: dict) -> None:
    names = list(sets)
    for m in spec["end_to_end"]:
        sign = 1 if m["better"] == "lower" else -1
        for workload in sets[names[0]]:
            cells = []
            base = sets[names[0]][workload]["metrics"][m["name"]]["median"]
            for name in names:
                rec = sets[name].get(workload, {}).get("metrics", {}).get(m["name"])
                if rec is None:
                    continue
                worse = sign * (rec["median"] - base) / base
                cells.append(f"{name}: median {rec['median']:.4g} spread {rec['spread']:.3f} "
                             f"worse {worse:+.3f}")
            print(f"{m['name']} (bound {m['bound']}) {workload}: " + "; ".join(cells))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/collect.py")
    parser.add_argument("--set", required=True, help="name of this set of runs")
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 101-110")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
    doc.setdefault("run_seconds", spec["run_seconds"])
    doc.setdefault("host", {"python": platform.python_version(), "cpus": os.cpu_count(),
                            "machine": platform.machine(), "system": platform.system()})
    doc.setdefault("sets", {})[args.set] = run_set(spec, parse_seeds(args.seeds))
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    compare(spec, doc["sets"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
