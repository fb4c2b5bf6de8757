"""Benchmark for qc: three closed-loop workloads with output checks.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `qc` is imported from `src/`.
Workloads (one client, no worker threads; see README.md for why each):

* verify-cli      one fresh `python -m qc.cli verify` process per operation
* complete-mixed  parse_space + complete on 6-12 point spaces
* classify-large  parse_space + validate / classify / (U)VA / quasi-uniformities
                  on 16-64 point spaces

Every timed process runs on one CPU next to a host-speed probe, and the
reported times are wall times scaled to nominal host speed (see speed.py).
With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it runs a shorter untraced phase and then the same
operations under the span tracer, prints the per-layer metrics, and writes
the spans to .perfbench_out/trace-<workload>.json.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = ROOT / ".perfbench_out"

import gen  # noqa: E402  (benchmark modules sit next to this file)
import metrics  # noqa: E402
import speed  # noqa: E402

WORKLOADS = ("verify-cli", "complete-mixed", "classify-large")
VERIFY_INSTANCES = 25
SETUP_REPEATS = 20


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Child:
    """Run one child process from the checkout root on the probed CPU.

    Gives the child's start and wall time (an interval for the speed
    monitor to scale), exit code, peak RSS and standard error.
    """

    def __init__(self, work: Path, monitor: speed.Monitor):
        self.work = work
        self.monitor = monitor
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        # users import qc from cached bytecode; the untimed first set-up run
        # writes it into the checkout
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.count = 0

    def run(self, args) -> tuple[tuple[float, float], int, int, str]:
        self.count += 1
        err_path = self.work / f"stderr-{self.count}.txt"
        with open(err_path, "w+", encoding="utf-8") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                    stderr=err, preexec_fn=self.monitor.pin)
            try:
                # wait4 gives this child's own rusage, unlike RUSAGE_CHILDREN
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read()
        return (t0, wall), proc.returncode, usage.ru_maxrss, stderr

    def worker(self, *args) -> tuple[tuple[float, float], int, str]:
        interval, rc, rss, stderr = self.run([str(WORKER), *args])
        if rc != 0:
            raise BenchError(f"worker {args[0]} exited {rc}: {stderr.strip()[-2000:]}")
        return interval, rss, stderr


def setup_timer(child: Child, workload: str, inputs: Path):
    """A function that times `n` fresh interpreters importing qc and parsing the inputs once.

    One untimed run first compiles the bytecode in a fresh checkout.  The
    workloads time half the set-ups before their timed operations and half
    after, so the median spans the whole run, not one moment of host load.
    The function returns the set-ups' intervals.
    """
    args = ("setup", "--workload", workload, "--inputs", str(inputs))
    child.worker(*args)
    return lambda n: [child.worker(*args)[0] for _ in range(n)]


def write_json(path: Path, obj) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# --- verify-cli ---------------------------------------------------------------


class VerifyChecks:
    """Exit 0, passes == instances in every report, equal bytes per seed."""

    def __init__(self):
        self.digests: dict[int, str] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def check(self, seed: int, rc: int, out: Path, stderr: str) -> None:
        self.attempted += 1
        error = self._error(seed, rc, out, stderr)
        if error:
            self.failures.append(f"verify --seed {seed}: {error}")

    def _error(self, seed, rc, out, stderr):
        if rc != 0:
            return f"exit {rc}: {stderr.strip()[-500:]}"
        try:
            body = out.read_bytes()
            bad = [r["id"] for s in json.loads(body)["payload"]["sections"]
                   for r in s["reports"] if r["passes"] != r["instances"]]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable report: {exc!r}"
        if bad:
            return f"checks not passing on every instance: {bad}"
        digest = hashlib.sha256(body).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            return "report differs from an earlier run with the same seed"
        return None


def _verify_argv(seed: int, instances: int, out: Path) -> list[str]:
    return ["verify", "--seed", str(seed), "--instances", str(instances),
            "--format", "structured", "--output", str(out)]


def run_verify_cli(args, child: Child) -> dict:
    instances = 2 if args.tiny else VERIFY_INSTANCES
    seeds = gen.verify_seeds(args.seed)
    inputs = write_json(child.work / "inputs.json",
                        {"argv": _verify_argv(seeds[0], instances, child.work / "setup.json")})
    time_setup = setup_timer(child, "verify-cli", inputs)
    checks = VerifyChecks()

    def cli_process(i: int, seed: int) -> tuple[tuple[float, float], int]:
        out = child.work / f"report-{i}.json"
        interval, rc, rss, stderr = child.run(
            ["-m", "qc.cli", *_verify_argv(seed, instances, out)])
        checks.check(seed, rc, out, stderr)
        return interval, rss

    def worker_cli(i: int, seed: int, trace: int) -> dict:
        out = child.work / f"report-{i}.json"
        result = child.work / f"result-{i}.json"
        interval, _, stderr = child.worker(
            "cli", "--trace", str(trace), "--result", str(result),
            "--trace-out", str(child.work / f"trace-{i}.json"),
            "--", *_verify_argv(seed, instances, out))
        res = json.loads(result.read_text(encoding="utf-8"))
        checks.check(seed, res["rc"], out, stderr)
        return {"interval": interval, **res}

    if not args.trace:
        # round the pool until the time is up; the seeds cost about the same,
        # so a run that ends mid-pass weighs none of them much more
        setup = time_setup(SETUP_REPEATS // 2)
        ops, peak = [], 0
        start = time.perf_counter()
        while len(ops) < len(seeds) or time.perf_counter() - start < args.seconds:
            seed = seeds[len(ops) % len(seeds)]
            interval, rss = cli_process(len(ops), seed)
            ops.append(interval)
            peak = max(peak, rss)
        setup += time_setup(SETUP_REPEATS - len(setup))
        scale = child.monitor.scale
        return {
            "metrics": metrics.end_to_end(scale(setup), scale(ops), peak),
            "checks": checks,
            "notes": [f"report sha256 for --seed {s}: {d}" for s, d in checks.digests.items()],
        }

    # traced: the same two seeds as plain processes, once timed in-process
    # untraced (its wall time minus its cli.main time is the process
    # overhead, both from one process), then traced in fresh processes
    traced_seeds = seeds[:2]
    plain = child.monitor.scale([cli_process(i, s)[0] for i, s in enumerate(traced_seeds)])
    in_process = worker_cli(10, traced_seeds[0], 0)
    traced = [worker_cli(20 + i, s, 1) for i, s in enumerate(traced_seeds)]
    dumps = [json.loads((child.work / f"trace-{20 + i}.json").read_text(encoding="utf-8"))
             for i in range(len(traced))]
    write_json(OUT_DIR / "trace-verify-cli.json",
               {"workload": "verify-cli", "seed": args.seed, "processes": dumps})
    layer = metrics.per_layer(
        metrics.merge_summaries([t["summary"] for t in traced]),
        ops=len(traced),
        overhead_ratio=(statistics.median(child.monitor.scale(t["interval"] for t in traced))
                        / statistics.median(plain)),
        process_overhead_s=in_process["interval"][1] - in_process["main_s"],
    )
    return {"metrics": layer, "checks": checks, "notes": []}


# --- complete-mixed and classify-large ------------------------------------------


LOOP_INPUTS = {
    "complete-mixed": (gen.complete_mixed_inputs, gen.SpaceCase.expected_completion),
    "classify-large": (gen.classify_large_inputs, gen.SpaceCase.expected_classification),
}


@dataclass
class LoopChecks:
    attempted: int
    failures: list


def run_loop(args, child: Child) -> dict:
    make, expect = LOOP_INPUTS[args.workload]
    cases = make(args.seed)
    if args.tiny:
        cases = sorted(cases, key=lambda c: c.size)[:3]
    inputs = write_json(child.work / "inputs.json", {"cases": [
        {"label": c.label, "payload": c.payload(), "expected": expect(c)} for c in cases
    ]})
    # set-up reads the payloads alone: the expected answers are benchmark data
    payloads = write_json(child.work / "payloads.json",
                          {"payloads": [c.payload() for c in cases]})
    time_setup = setup_timer(child, args.workload, payloads)
    setup = [] if args.trace else time_setup(SETUP_REPEATS // 2)
    result = child.work / "result.json"
    trace_out = OUT_DIR / f"trace-{args.workload}.json"
    _, peak, _ = child.worker("loop", "--workload", args.workload, "--inputs", str(inputs),
                              "--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--result", str(result), "--trace-out", str(trace_out))
    res = json.loads(result.read_text(encoding="utf-8"))
    scale = child.monitor.scale
    times = scale(res["times"])
    if not args.trace:
        setup += time_setup(SETUP_REPEATS - len(setup))
        return {
            "metrics": metrics.end_to_end(scale(setup), times, peak),
            "checks": LoopChecks(len(times), res["failures"]),
            "notes": [f"{len(cases)} spaces per pass, {len(times) // len(cases)} passes"],
        }
    traced = scale(res["traced_times"])
    layer = metrics.per_layer(
        res["summary"], ops=len(traced),
        overhead_ratio=statistics.median(traced) / statistics.median(times),
    )
    return {
        "metrics": layer,
        "checks": LoopChecks(len(times) + len(traced), res["failures"]),
        "notes": [f"trace written to {trace_out.relative_to(ROOT)}"],
    }


# --- entry point ----------------------------------------------------------------


def report(args, outcome: dict) -> None:
    checks = outcome["checks"]
    units = dict(metrics.PER_LAYER if args.trace else metrics.END_TO_END)
    attempted, failed = checks.attempted, len(checks.failures)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operations")
    for note in outcome["notes"]:
        print(note)
    for failure in checks.failures[:20]:
        print(f"FAILED {failure}")
    for name, value in outcome["metrics"].items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"fail_ratio: {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in outcome["metrics"].items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check size: 2 verify instances, the 3 smallest spaces")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qc" / "__init__.py").is_file():
        print(f"error: no qc sources under {ROOT / 'src'}; run from a qc checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    OUT_DIR.mkdir(exist_ok=True)
    try:
        runner = run_verify_cli if args.workload == "verify-cli" else run_loop
        with speed.Monitor(work / "speed.txt") as monitor:
            outcome = runner(args, Child(work, monitor))
    except (BenchError, speed.ProbeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
