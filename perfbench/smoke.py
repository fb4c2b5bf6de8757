"""Smoke check for the benchmark's own code (not part of the qc test suite).

    python3 perfbench/smoke.py

Checks that the generators repeat exactly for a fixed seed, that the
metric lists match BENCHMARK.json, that every workload runs at a tiny size
with correct outputs and prints every end-to-end metric, that the traced
run prints every per-layer metric and reads non-zero for the layers each
workload must call, and that the benchmark refuses to run
without the qc sources.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gen
import metrics
import run


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"smoke: FAILED: {message}")


def check_generators() -> None:
    for make in (gen.complete_mixed_inputs, gen.classify_large_inputs):
        first = [c.payload() for c in make(7)]
        expect(first == [c.payload() for c in make(7)], f"{make.__name__} is not repeatable")
        expect(first != [c.payload() for c in make(8)], f"{make.__name__} ignores the seed")
    expect(gen.verify_seeds(7) == gen.verify_seeds(7), "verify seeds are not repeatable")
    counts = [c.cauchy_filters for c in gen.complete_mixed_inputs(7)]
    limit = gen.EXPLICIT_QUOTIENT_LIMIT
    expect(min(counts) <= limit < max(counts),
           "complete-mixed does not straddle the explicit-quotient limit")


def check_benchmark_json() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, listed in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        expect([(m["name"], m["unit"]) for m in spec[key]] == list(listed),
               f"BENCHMARK.json {key} differs from perfbench/metrics.py")


def bench(*args: str, cwd: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


# per-layer metrics each workload must move; all reading 0 means the
# tracer's wrappers were not installed
MUST_TRACE = {
    "verify-cli": ("serialize.self_s", "vspace.VSpace.calls", "quantale.leq.calls",
                   "verify.run_theorem_suite.self_s", "cli.main.total_s"),
    "complete-mixed": ("serialize.parse_space.calls", "vspace.VSpace.calls",
                       "quantale.leq.calls", "filters.is_cauchy.calls"),
    "classify-large": ("serialize.parse_space.calls", "vspace.VSpace.calls",
                       "quantale.leq.calls"),
}


def check_runs() -> None:
    for workload in run.WORKLOADS:
        for trace, listed in (("0", metrics.END_TO_END), ("1", metrics.PER_LAYER)):
            rc, out = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                            "--trace", trace, "--tiny")
            expect(rc == 0, f"{workload} trace {trace} exited {rc}:\n{out}")
            result = json.loads(out.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{workload}: unexpected result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace} reported failures:\n{out}")
            expect(list(result["metrics"]) == [name for name, _ in listed],
                   f"{workload} trace {trace} printed the wrong metric names")
            if trace == "1":
                zero = [name for name in MUST_TRACE[workload]
                        if not result["metrics"][name]["value"] > 0]
                expect(not zero, f"{workload} traced run reads 0 for {zero}")
            print(f"smoke: {workload} trace {trace}: {result['attempted']} operations ok")


def check_refuses_without_sources() -> None:
    bare = run.ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        rc, out = bench("--workload", "complete-mixed", "--seed", "1", "--seconds", "1",
                        cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(rc != 0 and not out.strip(), "the benchmark ran without qc sources")


def main() -> int:
    check_generators()
    check_benchmark_json()
    check_refuses_without_sources()
    check_runs()
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
