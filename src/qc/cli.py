"""Command-line front end.

Subcommands parse instance files in the qc/1 envelope format, run the
requested computation, and emit a text or structured (JSON) report.
Exit codes: 0 success, 1 mathematical failure (invalid axiom, failed
theorem, violated precondition), 2 usage or input errors.  Negative
verdicts print their witness before any summary line.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time

from . import serialize
from .completion import complete
from .errors import DomainMismatchError, PreconditionError, StructureError
from .filters import Filter, roundify
from .quantale import validate_value_quantale
from .structures import quasi_uniformity_of, topology_of
from .verify import InstanceGenerator, oracle_gate, q1_census, run_theorem_suite
from .vspace import (
    classify,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    validate_vspace,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _read_payload(path: str, expected_kind: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise StructureError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise StructureError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})")
    _, payload = serialize.loads_envelope(text, expected_kind)
    return payload


class _Out:
    def __init__(self, fmt: str, path):
        self.fmt = fmt
        self.path = path
        self.lines: list[str] = []

    def text(self, line: str):
        self.lines.append(line)

    def finish(self, kind: str, payload) -> None:
        if self.fmt == "structured":
            body = serialize.dumps_canonical(serialize.envelope(kind, payload))
        else:
            body = "\n".join(self.lines) + "\n"
        if self.path:
            try:
                with open(self.path, "w", encoding="utf-8") as fh:
                    fh.write(body)
            except OSError as exc:
                raise StructureError(f"cannot write {self.path}: {exc}")
        else:
            sys.stdout.write(body)


def _verdict_lines(out: _Out, name: str, ok: bool, witness) -> None:
    if not ok and witness:
        out.text(f"{name} witness: {json.dumps(witness, sort_keys=True, default=str)}")
    out.text(f"{name}: {'true' if ok else 'false'}")


def _cmd_validate_quantale(args, out: _Out) -> int:
    payload = _read_payload(args.file, "quantale")
    if not isinstance(payload, dict) or payload.get("kind") != "finite":
        serialize.parse_quantale(payload)
        out.text("quantale: valid (built-in or symbolic family)")
        out.finish("report", {"command": "validate-quantale", "valid": True, "failures": []})
        return EXIT_OK
    report = validate_value_quantale(*serialize._finite_tables(payload))
    for f in report.failures:
        out.text(f"failed axiom {f.check} witness: {json.dumps(f.witness, sort_keys=True, default=str)}")
    out.text(f"quantale: {'valid' if report.ok else 'invalid'}")
    out.finish(
        "report",
        {
            "command": "validate-quantale",
            "valid": report.ok,
            "failures": [
                {"check": f.check, "witness": _jsonable(f.witness)} for f in report.failures
            ],
        },
    )
    return EXIT_OK if report.ok else EXIT_MATH


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def _read_valid_space(path: str):
    """Parse a space file and refuse a space that fails `validate_vspace`."""
    space = serialize.parse_space(_read_payload(path, "space"))
    report = validate_vspace(space)
    if not report.ok:
        first = report.failures[0]
        raise StructureError(
            f"space is invalid: {first.check} "
            f"{json.dumps(_jsonable(first.witness), sort_keys=True)}"
        )
    return space


def _cmd_validate_space(args, out: _Out) -> int:
    space = serialize.parse_space(_read_payload(args.file, "space"))
    report = validate_vspace(space)
    for f in report.failures:
        out.text(f"failed law {f.check} witness: {json.dumps(_jsonable(f.witness), sort_keys=True)}")
    out.text(f"space: {'valid' if report.ok else 'invalid'}")
    out.finish(
        "report",
        {
            "command": "validate-space",
            "valid": report.ok,
            "failures": [
                {"check": f.check, "witness": _jsonable(f.witness)} for f in report.failures
            ],
        },
    )
    return EXIT_OK if report.ok else EXIT_MATH


def _cmd_classify(args, out: _Out) -> int:
    space = _read_valid_space(args.file)
    basic = classify(space)
    va = has_vanishing_asymmetry(space)
    uva = has_uniformly_vanishing_asymmetry(space)
    out.text(f"symmetric: {'true' if basic['symmetric'] else 'false'}")
    out.text(f"separated: {'true' if basic['separated'] else 'false'}")
    _verdict_lines(out, "vanishing_asymmetry", va.ok, va.witness)
    _verdict_lines(out, "uniformly_vanishing_asymmetry", uva.ok, uva.witness)
    out.finish(
        "report",
        {
            "command": "classify",
            "symmetric": basic["symmetric"],
            "separated": basic["separated"],
            "vanishing_asymmetry": {"holds": va.ok, "witness": _jsonable(va.witness)},
            "uniformly_vanishing_asymmetry": {
                "holds": uva.ok,
                "witness": _jsonable(uva.witness),
            },
        },
    )
    return EXIT_OK


def _cmd_complete(args, out: _Out) -> int:
    space = _read_valid_space(args.file)
    comp = complete(space)
    payload = serialize.completion_to_payload(serialize.completion_space_doc(comp))
    out.text(f"completion points: {len(comp.filters)}")
    for f in comp.filters:
        out.text(f"  core {{{','.join(f.core)}}}")
    out.text(f"embedding: {json.dumps(dict(sorted(comp.embedding.items())))}")
    out.finish("completion", payload)
    return EXIT_OK


def _cmd_topology(args, out: _Out) -> int:
    space = _read_valid_space(args.file)
    report = {}
    for side in ("forward", "backward"):
        nbs = topology_of(space, side).neighbourhoods
        report[side] = {p: list(space.names_of(m)) for p, m in zip(space.points, nbs)}
        for p, names in report[side].items():
            out.text(f"{side} neighbourhood: {json.dumps({p: names})}")
    out.finish("report", {"command": "topology", **report})
    return EXIT_OK


def _cmd_uniformity(args, out: _Out) -> int:
    space = _read_valid_space(args.file)
    report = {}
    for side in ("forward", "backward"):
        uni = quasi_uniformity_of(space, side)
        pairs = [
            [space.points[i], space.points[j]]
            for i in range(space.size)
            for j in range(space.size)
            if uni.core[i][j]
        ]
        report[side] = pairs
        out.text(f"{side} entourage core: {json.dumps(pairs)}")
    out.finish("report", {"command": "uniformity", **report})
    return EXIT_OK


def _cmd_roundify(args, out: _Out) -> int:
    space = _read_valid_space(args.file)
    names = [p for p in args.core.split(",") if p] if args.core else []
    f = Filter(space, space.mask(names))
    rounded = roundify(f)
    out.text(f"core: {{{','.join(rounded.core)}}}")
    out.finish("filter", serialize.filter_to_payload(rounded))
    return EXIT_OK


def _suite_sections(args):
    seed = args.seed
    base = dict(max_points=args.max_points)
    ext = InstanceGenerator(seed=seed, force_uva=True, **base)
    q3 = InstanceGenerator(
        seed=seed + 1, quantale=serialize.parse_quantale("Q3"), force_uva=True, **base
    )
    free = InstanceGenerator(seed=seed + 2, **base)
    n = args.instances
    # each section takes a dict that collects its instance-generation time;
    # the degenerate section is the whole Q1 census, whatever the seed
    return {
        "oracles": lambda spent: oracle_gate(),
        "theorems": lambda spent: (run_theorem_suite(ext.contexts(n), timings=spent)
                                   + run_theorem_suite(q3.contexts(max(1, n // 2)), timings=spent)),
        "structures": lambda spent: run_theorem_suite(free.contexts(n), timings=spent),
        "degenerate": lambda spent: run_theorem_suite(q1_census(args.max_points), timings=spent),
    }


def _cmd_verify(args, out: _Out) -> int:
    sections = _suite_sections(args)
    chosen = list(sections) if args.suite == "all" else [args.suite]
    payload_sections = []
    # the gate is built once per process, before the sections that read it
    start = time.monotonic()
    oracle_gate()
    timed: dict[str, float] = {"oracle_gate": time.monotonic() - start}
    failed = 0
    for name in chosen:
        spent: dict[str, float] = {}
        # a check whose gates were closed on every instance did not run
        reports = [r for r in sections[name](spent) if r.instances]
        for step, seconds in spent.items():
            timed[f"{step}.{name}"] = seconds
        for r in reports:
            timed[r.id] = timed.get(r.id, 0.0) + r.runtime
        section_payload = {"section": name, "reports": [r.payload() for r in reports]}
        payload_sections.append(section_payload)
        for r in reports:
            if r.failures:
                failed += 1
                for rec in r.failures:
                    out.text(
                        f"{r.id} witness: "
                        f"{json.dumps(_jsonable(rec['witness']), sort_keys=True)} "
                        f"(seed {rec['seed']})"
                    )
            out.text(
                f"{'ok  ' if not r.failures else 'FAIL'} {r.id} "
                f"[{r.passes}/{r.instances}]"
            )
    out.text(f"suite: {'all passed' if not failed else f'{failed} checks failed'}")
    out.finish(
        "report",
        {
            "command": "verify",
            "suite": args.suite,
            "seed": args.seed,
            "instances": args.instances,
            "sections": payload_sections,
        },
    )
    if args.timings:
        # runtimes stay out of the report, which must be deterministic; a
        # check that runs in several sections is timed over all of them
        for rid, seconds in sorted(timed.items(), key=lambda kv: kv[1], reverse=True):
            print(f"{rid} {seconds:.4f}", file=sys.stderr)
    return EXIT_OK if not failed else EXIT_MATH


def _bounded_int(minimum: int, maximum: int | None = None):
    """Argparse type: an integer in [minimum, maximum] (no upper bound if None)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qc",
        description="Exact computation with value quantales, finite continuity "
        "spaces, and Cauchy-filter completions.",
    )
    parser.add_argument("--format", choices=("text", "structured"), default="text")
    parser.add_argument("--output", default=None, help="write the report to a file")
    # the output flags are also accepted after the subcommand; SUPPRESS keeps
    # a subparser from overwriting a value given before it
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "structured"), default=argparse.SUPPRESS
    )
    common.add_argument("--output", default=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (
        ("validate-quantale", _cmd_validate_quantale),
        ("validate-space", _cmd_validate_space),
        ("classify", _cmd_classify),
        ("topology", _cmd_topology),
        ("uniformity", _cmd_uniformity),
        ("complete", _cmd_complete),
    ):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("file")
        p.set_defaults(fn=fn)

    p = sub.add_parser("roundify", parents=[common])
    p.add_argument("file")
    p.add_argument("--core", required=True, help="comma-separated point names; empty for the improper filter")
    p.set_defaults(fn=_cmd_roundify)

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--suite", default="all",
                   choices=("all", "oracles", "theorems", "structures", "degenerate"))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--instances", type=_bounded_int(1), default=25)
    # generated instances feed 2^n oracles in the theorem suite
    p.add_argument("--max-points", type=_bounded_int(1, 5), default=5)
    p.add_argument("--timings", action="store_true",
                   help="print each check's runtime in seconds, summed over the "
                   "sections, each section's instance generation "
                   "(generate.<section>) and the oracle gate (oracle_gate, of "
                   "which the oracle.* lines are parts) to stderr, slowest first")
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    out = _Out(args.format, args.output)
    try:
        return args.fn(args, out)
    except StructureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PreconditionError, DomainMismatchError) as exc:
        print(f"mathematical failure: {exc}", file=sys.stderr)
        return EXIT_MATH


def run() -> None:
    """Process entry (`python -m qc.cli` and the `qc` script): `main()`,
    then exit with its code.

    The collector is frozen first, so the interpreter's finalizing
    collections skip every object left alive, which is almost all of a
    process's exit time.  `main()` has written and closed its report by
    then, and the interpreter still flushes stdout and runs atexit
    handlers.  `main()` itself leaves the collector alone: it runs many
    times in one process under the tests.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
