"""Child process that does the measured work; started by run.py.

    worker.py setup --workload W --inputs F
        import qc and parse the workload's inputs once, then exit; F holds
        the verify argv or the space payloads alone, without expected answers
    worker.py loop --workload W --inputs F --seconds S --trace 0|1 --result R
        closed loop over the input mix in whole passes (complete-mixed,
        classify-large); with --trace 1, untraced passes for a third of S,
        then the same number of passes traced
    worker.py cli --trace 0|1 --result R --trace-out T -- ARGV...
        one in-process `qc.cli.main(ARGV)` (verify-cli), timed from inside

`qc` must come from the checkout's `src/` (run.py sets PYTHONPATH); the
worker refuses to run against any other copy.  Each timed operation
builds its own VSpace from the payload, so no ball cache is reused.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_qc(cli: bool = False):
    import qc

    if cli:
        import qc.cli

    if not os.path.abspath(qc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qc imported from {qc.__file__}, not from {SRC}")
    return qc


# --- operations and their checks ---------------------------------------------


def _complete_op(qc, case):
    space = qc.serialize.parse_space(case["payload"])
    return qc.completion.complete(space)


def _complete_check(case, comp) -> str | None:
    exp = case["expected"]
    cores = [frozenset(f.core) for f in comp.filters]
    want = [frozenset(c) for c in exp["cores"]]
    if len(cores) != len(want) or set(cores) != set(want):
        return f"completion cores {sorted(map(sorted, cores))} != {exp['cores']}"
    pos = {c: i for i, c in enumerate(cores)}
    for a, b, value in exp["distance"]:
        got = str(comp.space.dmat[pos[want[a]]][pos[want[b]]])
        if got != value:
            return f"distance {exp['cores'][a]}->{exp['cores'][b]} is {got}, expected {value}"
    for point, idx in exp["embedding"].items():
        if cores[comp.embedding[point]] != want[idx]:
            return f"point {point} embeds into {sorted(cores[comp.embedding[point]])}"
    return None


def _classify_op(qc, case):
    vs, st = qc.vspace, qc.structures
    space = qc.serialize.parse_space(case["payload"])
    basic = vs.classify(space)
    return {
        "valid": vs.validate_vspace(space).ok,
        "symmetric": basic["symmetric"],
        "separated": basic["separated"],
        "va": vs.has_vanishing_asymmetry(space).ok,
        "uva": vs.has_uniformly_vanishing_asymmetry(space).ok,
        "forward_core": [list(row) for row in st.quasi_uniformity_of(space, "forward").core],
        "backward_core": [list(row) for row in st.quasi_uniformity_of(space, "backward").core],
    }


def _classify_check(case, got) -> str | None:
    for key, want in case["expected"].items():
        if got[key] != want:
            shown = "" if key.endswith("core") else f": {got[key]}, expected {want}"
            return f"{key} differs{shown}"
    return None


OPS = {
    "complete-mixed": (_complete_op, _complete_check),
    "classify-large": (_classify_op, _classify_check),
}


def _run_passes(qc, cases, op, check, *, seconds=None, passes=None):
    """Whole passes over the mix: until `seconds` have elapsed, or `passes` times.

    Each operation's time is recorded as its (start, wall) interval, which
    run.py scales to nominal host speed.
    """
    times, failures = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for case in cases:
            t0 = time.perf_counter()
            try:
                result = op(qc, case)
                error = None
            except Exception as exc:  # a raising operation is a failed one
                result, error = None, f"{type(exc).__name__}: {exc}"
            times.append((t0, time.perf_counter() - t0))
            if error is None:
                try:
                    error = check(case, result)
                except Exception as exc:  # a result of the wrong shape
                    error = f"unexpected result: {type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{case['label']}: {error}")
        done += 1
        if passes is not None and done >= passes:
            break
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return times, failures, done


def cmd_setup(args) -> None:
    qc = _import_qc(cli=args.workload == "verify-cli")
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    if args.workload == "verify-cli":
        qc.cli.build_parser().parse_args(inputs["argv"])
    else:
        for payload in inputs["payloads"]:
            qc.serialize.parse_space(payload)


def cmd_loop(args) -> dict:
    with open(args.inputs, encoding="utf-8") as fh:
        cases = json.load(fh)["cases"]
    op, check = OPS[args.workload]
    qc = _import_qc()
    if not args.trace:
        times, failures, _ = _run_passes(qc, cases, op, check, seconds=args.seconds)
        return {"times": times, "failures": failures}
    import spans

    times, failures, passes = _run_passes(qc, cases, op, check, seconds=args.seconds / 3)
    tracer = spans.Tracer()
    spans.install(tracer)
    traced, traced_failures, _ = _run_passes(qc, cases, op, check, passes=passes)
    tracer.dump(args.trace_out)
    return {
        "times": times,
        "failures": failures + traced_failures,
        "traced_times": traced,
        "summary": tracer.summary(),
    }


def cmd_cli(args) -> dict:
    tracer = None
    qc = _import_qc(cli=True)
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    t0 = time.perf_counter()
    rc = qc.cli.main(args.argv)
    main_s = time.perf_counter() - t0
    out = {"rc": rc, "main_s": main_s}
    if tracer is not None:
        tracer.dump(args.trace_out)
        out["summary"] = tracer.summary()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("command", choices=("setup", "loop", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--inputs")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--trace-out")
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    args.argv = argv[split + 1:]
    if args.command == "setup":
        cmd_setup(args)
        return 0
    result = cmd_loop(args) if args.command == "loop" else cmd_cli(args)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
