import hashlib
import json
import sys

import pytest

from qc import EXT_RATIONAL, FiniteQuantale, VSpace, serialize, topology_of
from qc.cli import main

E = EXT_RATIONAL


def write_space(tmp_path, name, space):
    path = tmp_path / name
    path.write_text(
        serialize.dumps_canonical(
            serialize.envelope("space", serialize.space_to_payload(space))
        )
    )
    return str(path)


def write_quantale_tables(tmp_path, name, names, leq, add):
    payload = {
        "kind": "finite",
        "elements": list(names),
        "leq": [[bool(v) for v in row] for row in leq],
        "add": [[int(v) for v in row] for row in add],
    }
    path = tmp_path / name
    path.write_text(
        serialize.dumps_canonical(serialize.envelope("quantale", payload))
    )
    return str(path)


@pytest.fixture
def x2n_file(tmp_path, x2n):
    return write_space(tmp_path, "x2n.json", x2n)


@pytest.fixture
def x3z_file(tmp_path, x3z):
    return write_space(tmp_path, "x3z.json", x3z)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_x2n_reports_witness_and_exits_zero(self, capsys, x2n_file):
        code, out, _ = run(capsys, "classify", x2n_file)
        assert code == 0
        lines = out.splitlines()
        assert "uniformly_vanishing_asymmetry: false" in lines
        witness_line = next(l for l in lines if "uniformly_vanishing_asymmetry witness" in l)
        assert '"epsilon": "1/2"' in witness_line
        # witness precedes the verdict
        assert lines.index(witness_line) < lines.index(
            "uniformly_vanishing_asymmetry: false"
        )

    def test_structured_matches_text_verdicts(self, capsys, x2n_file):
        code, out, _ = run(capsys, "--format", "structured", "classify", x2n_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == "qc/1" and obj["kind"] == "report"
        payload = obj["payload"]
        assert payload["symmetric"] is False
        assert payload["separated"] is True
        assert payload["uniformly_vanishing_asymmetry"]["holds"] is False
        assert payload["uniformly_vanishing_asymmetry"]["witness"]["epsilon"] == "1/2"


class TestComplete:
    def test_x3z_two_point_completion(self, capsys, x3z_file):
        code, out, _ = run(capsys, "--format", "structured", "complete", x3z_file)
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "completion"
        assert obj["payload"]["points"] == [{"core": ["a", "b"]}, {"core": ["c"]}]
        # round trip: the emitted object re-parses to an equal value
        doc = serialize.parse_completion(obj["payload"])
        assert serialize.completion_to_payload(doc) == obj["payload"]

    def test_non_uva_exits_one(self, capsys, x2n_file):
        code, _, err = run(capsys, "complete", x2n_file)
        assert code == 1
        assert "uniformly vanishing asymmetry" in err

    def test_large_space_completes(self, capsys, tmp_path):
        # no carrier-size cap: 20 points in two zero-distance clusters
        n = 20
        big = VSpace(
            E,
            [f"p{i}" for i in range(n)],
            [[0 if i % 2 == j % 2 else 1 for j in range(n)] for i in range(n)],
        )
        path = write_space(tmp_path, "big.json", big)
        code, out, _ = run(capsys, "complete", path)
        assert code == 0
        assert "completion points: 2" in out
        code, _, err = run(capsys, "complete", path, "--max-points", "4")
        assert code == 2
        assert "unrecognized arguments: --max-points" in err


class TestValidate:
    def test_diamond_exits_one_with_axiom(self, capsys, tmp_path, diamond_tables):
        names, leq, join = diamond_tables
        path = write_quantale_tables(tmp_path, "diamond.json", names, leq, join)
        code, out, _ = run(capsys, "validate-quantale", path)
        assert code == 1
        assert "a∧b ≻ 0" in out
        lines = out.splitlines()
        assert lines[-1] == "quantale: invalid"
        assert "witness" in lines[0]

    def test_distributivity_failure_exits_one(self, capsys, tmp_path, saturated_diamond_tables):
        path = write_quantale_tables(tmp_path, "saturated.json", *saturated_diamond_tables)
        code, out, _ = run(capsys, "validate-quantale", path)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == (
            'failed axiom x+⋀S = ⋀(x+S) witness: '
            '{"S": ["a", "b"], "lhs": "a", "rhs": "T", "x": "a"}'
        )
        assert lines[1].startswith("failed axiom a∧b ≻ 0 witness: ")
        assert lines[-1] == "quantale: invalid"

    @pytest.mark.parametrize("fmt", ["text", "structured"])
    def test_builtin_name_is_valid(self, capsys, tmp_path, fmt):
        path = tmp_path / "q3.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("quantale", "Q3")))
        code, out, err = run(capsys, "--format", fmt, "validate-quantale", str(path))
        assert code == 0 and err == ""
        if fmt == "text":
            assert out == "quantale: valid (built-in or symbolic family)\n"
        else:
            assert serialize.loads_envelope(out, "report")[1] == {
                "command": "validate-quantale", "valid": True, "failures": []}

    def test_space_over_diamond_tables_exits_two(self, capsys, tmp_path, diamond_tables):
        names, leq, join = diamond_tables
        quantale = serialize.quantale_to_payload(FiniteQuantale(names, leq, join))
        doc = {"quantale": quantale, "points": ["x", "y", "z"],
               "d": [["0", "inf", "a"], ["b", "0", "inf"], ["a", "inf", "0"]]}
        path = tmp_path / "diamond-space.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", doc)))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "failed axiom a∧b ≻ 0" in err

    def test_space_over_saturated_diamond_exits_two(self, capsys, tmp_path,
                                                    saturated_diamond_tables):
        quantale = serialize.quantale_to_payload(FiniteQuantale(*saturated_diamond_tables))
        doc = {"quantale": quantale, "points": ["x", "y"], "d": [["0", "a"], ["b", "0"]]}
        path = tmp_path / "saturated-space.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", doc)))
        code, out, err = run(capsys, "classify", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: tables are not a value quantale: failed axiom x+⋀S")

    def test_chain_valid(self, capsys, tmp_path, Q3):
        path = write_quantale_tables(tmp_path, "q3.json", Q3.names, Q3._leq, Q3._add)
        code, out, _ = run(capsys, "validate-quantale", path)
        assert code == 0
        assert "quantale: valid" in out

    def test_space_validation(self, capsys, tmp_path):
        bad = VSpace(E, ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [1, 1, 0]])
        path = write_space(tmp_path, "bad.json", bad)
        code, out, _ = run(capsys, "validate-space", path)
        assert code == 1
        assert "triangle" in out

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "validate-space", "/nonexistent/nope.json")
        assert code == 2
        assert "cannot read" in err

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("points", "ab", "points must be a list of strings"),
            ("d", ["0"], "each a list"),
        ],
    )
    def test_mistyped_payload_exits_two(self, capsys, tmp_path, field, value, message):
        payload = {"quantale": "ext_rational", "points": ["a"], "d": [["0"]]}
        payload[field] = value
        path = tmp_path / "mistyped.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", payload)))
        code, out, err = run(capsys, "validate-space", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "command", ["validate-quantale", "validate-space", "classify", "complete"]
    )
    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("leq", 1, "leq table must be a list of rows, each a list"),
            ("leq", [1, 0, 1], "leq table must be a list of rows, each a list"),
            ("add", 0, "add table must be a list of rows, each a list"),
            ("add", [0, 1, 2], "add table must be a list of rows, each a list"),
            ("elements", None, "elements must be a list of strings"),
            ("elements", "abc", "elements must be a list of strings"),
            ("elements", {"a": 0, "b": 1, "c": 2}, "elements must be a list of strings"),
            ("elements", [0, 1, 2], "elements must be a list of strings"),
        ],
    )
    def test_mistyped_finite_quantale_exits_two(self, capsys, tmp_path, Q3, command, field,
                                                value, message):
        # before, an int table died with "object of type 'int' has no len()",
        # and a string or a dict was read as its characters or its keys
        tables = serialize.quantale_to_payload(Q3)
        tables[field] = value
        if command == "validate-quantale":
            doc = serialize.envelope("quantale", tables)
        else:
            doc = serialize.envelope("space", {"quantale": tables, "points": ["x"], "d": [["0"]]})
        path = tmp_path / "mistyped.json"
        path.write_text(serialize.dumps_canonical(doc))
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: finite quantale {message}\n"

    @pytest.mark.parametrize(
        "names,below,message",
        [
            # a 2-cycle: a <= b <= a
            (["a", "b"], [(0, 1), (1, 0)],
             'not a partial order: {"law": "antisymmetry", "pair": ["a", "b"]}'),
            # two maximal elements and no top
            (["z", "a", "b"], [(0, 1), (0, 2)],
             'not a complete lattice: {"candidates": ["a", "b"], "law": "top"}'),
            # a bowtie: c and d both above a and b, with no meet of c and d
            (["t", "c", "d", "a", "b", "z"],
             [(1, 0), (2, 0), (3, 1), (3, 2), (4, 1), (4, 2), (5, 3), (5, 4)],
             'not a complete lattice: {"law": "meet", "pair": ["c", "d"]}'),
            # the same bowtie listed bottom first meets no defect before a join
            (["z", "a", "b", "c", "d", "t"],
             [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
             'not a complete lattice: {"law": "join", "pair": ["a", "b"]}'),
        ],
        ids=["two-cycle", "no-top", "no-meet", "no-join"],
    )
    def test_order_table_defect_names_elements(self, capsys, tmp_path, names, below, message):
        # the order is the reflexive-transitive closure of `below`; the
        # error line names the elements, as validate-quantale's witness does
        n = len(names)
        leq = [[i == j or (i, j) in below for j in range(n)] for i in range(n)]
        for k in range(n):
            leq = [[leq[i][j] or leq[i][k] and leq[k][j] for j in range(n)] for i in range(n)]
        tables = {"kind": "finite", "elements": names, "leq": leq, "add": [[0] * n] * n}
        doc = {"quantale": tables, "points": ["x"], "d": [[names[0]]]}
        path = tmp_path / "defect.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", doc)))
        code, out, err = run(capsys, "classify", str(path))
        assert (code, out, err) == (2, "", f"error: order table is {message}\n")

    @pytest.mark.parametrize("payload", [[], 3, None])
    def test_quantale_payload_of_another_type_exits_two(self, capsys, tmp_path, payload):
        path = tmp_path / "mistyped.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("quantale", payload)))
        code, out, err = run(capsys, "validate-quantale", str(path))
        assert code == 2 and out == ""
        assert err == "error: quantale payload must be a name or an object\n"

    def test_parse_error_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "validate-space", str(path))
        assert code == 2
        assert "line" in err

    @pytest.mark.parametrize("command", ["classify", "validate-quantale"])
    def test_non_utf8_file_exits_two(self, capsys, tmp_path, command):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == f"error: cannot read {path}: not UTF-8 (invalid start byte at byte 0)\n"


class TestHugeLiterals:
    # a literal past sys.get_int_max_str_digits() digits is refused when it
    # is read; before, it parsed and the first command to format it died
    # with a ValueError traceback
    @pytest.mark.parametrize(
        "command,dmat",
        [
            ("complete", [["0", "1e5000"], ["1e5000", "0"]]),
            ("validate-space", [["0", "1", "1e5000"], ["1", "0", "1"], ["1", "1", "0"]]),
            ("classify", [["0", "1", "1e5000"], ["1", "0", "1"], ["1", "1", "0"]]),
            ("validate-space", [["0", "1e999999999"], ["1", "0"]]),
            ("classify", [["0", "1e-5000"], ["1", "0"]]),
            # each literal is under the int print limit, but the triangle
            # witness d(a,b) + d(b,c) would print twice as many digits
            ("validate-space", [["0", "1/1" + "0" * 2499 + "1", "5"],
                                ["1", "0", "1/1" + "0" * 2499 + "3"], ["1", "1", "0"]]),
        ],
    )
    def test_exits_two(self, capsys, tmp_path, command, dmat):
        points = ["a", "b", "c"][: len(dmat)]
        payload = {"quantale": "ext_rational", "points": points, "d": dmat}
        path = tmp_path / "huge.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", payload)))
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "too large" in err
        assert f"{sys.get_int_max_str_digits()} digits" in err

    def test_huge_json_integer_exits_two(self, capsys, tmp_path):
        digits = "1" * (sys.get_int_max_str_digits() + 1)
        path = tmp_path / "huge.json"
        path.write_text(
            '{"schema":"qc/1","kind":"space","payload":{"quantale":"ext_rational",'
            '"points":["a","b"],"d":[[0,' + digits + '],[1,0]]}}'
        )
        code, out, err = run(capsys, "validate-space", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad JSON")

    @pytest.mark.parametrize("literal", ["1_0", "\u0661", " 1 ", "+1"])
    def test_literal_outside_grammar_exits_two(self, capsys, tmp_path, literal):
        payload = {"quantale": "ext_rational", "points": ["a", "b"],
                   "d": [["0", literal], ["1", "0"]]}
        path = tmp_path / "odd.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", payload)))
        code, out, err = run(capsys, "validate-space", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "bad rational literal" in err

    def test_deep_nesting_exits_two(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, "validate-space", str(path))
        assert code == 2 and out == ""
        assert err.startswith("error: bad JSON") and "nested too deeply" in err


class TestOutOfDomainNumbers:
    # a JSON number outside the quantale is malformed input, as the string
    # "-1" is: exit 2 with one error line, not a mathematical failure
    @pytest.mark.parametrize(
        "command,quantale,entry,message",
        [
            ("classify", "ext_rational", -1, "negative value -1 is not in [0, inf]"),
            ("classify", "Q3", 7, "index 7 out of range for Q3"),
            ("classify", "Q3", -1, "index -1 out of range for Q3"),
            ("validate-space", "Q3", 3, "index 3 out of range for Q3"),
            ("classify", "ext_rational", "-1", "negative rational literal '-1'"),
        ],
    )
    def test_exits_two(self, capsys, tmp_path, command, quantale, entry, message):
        payload = {"quantale": quantale, "points": ["a", "b"], "d": [[0, entry], [0, 0]]}
        path = tmp_path / "bad.json"
        path.write_text(serialize.dumps_canonical(serialize.envelope("space", payload)))
        code, out, err = run(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestInvalidSpace:
    @pytest.mark.parametrize(
        "command", ["complete", "uniformity", "classify", "topology", "roundify"]
    )
    @pytest.mark.parametrize(
        "dmat,first",
        [
            ([[0, 1, 5], [1, 0, 1], [1, 1, 2]],
             'zero-diagonal {"point": "c", "value": "2"}'),
            ([[0, 1, 5], [1, 0, 1], [1, 1, 0]],
             'triangle {"lhs": "5", "rhs": "2", "triple": ["a", "b", "c"]}'),
        ],
    )
    def test_exits_two_with_first_failure(self, capsys, tmp_path, command, dmat, first):
        names = "abc"[: len(dmat)]
        path = write_space(tmp_path, "bad.json", VSpace(E, list(names), dmat))
        extra = ["--core", "a"] if command == "roundify" else []
        code, out, err = run(capsys, command, path, *extra)
        assert code == 2 and out == ""
        assert err == f"error: space is invalid: {first}\n"


class TestTopologyUniformity:
    def test_topology(self, capsys, x2n_file):
        # each point's least open neighbourhood, in carrier order
        code, out, _ = run(capsys, "--format", "structured", "topology", x2n_file)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload == {
            "command": "topology",
            "forward": {"a": ["a", "b"], "b": ["b"]},
            "backward": {"a": ["a"], "b": ["a", "b"]},
        }

    def test_topology_text(self, capsys, x2n_file):
        code, out, _ = run(capsys, "topology", x2n_file)
        assert code == 0
        assert out.splitlines() == [
            'forward neighbourhood: {"a": ["a", "b"]}',
            'forward neighbourhood: {"b": ["b"]}',
            'backward neighbourhood: {"a": ["a"]}',
            'backward neighbourhood: {"b": ["a", "b"]}',
        ]

    @pytest.mark.parametrize("command", ["topology", "uniformity"])
    def test_text_lines_are_json_after_the_label(self, capsys, tmp_path, command):
        # a name holding a quote and a non-ASCII character prints as JSON,
        # as every other command prints names
        space = VSpace(E, ['a"b', "é"], [[0, 0], [1, 0]])
        path = write_space(tmp_path, "quoted.json", space)
        code, out, _ = run(capsys, command, path)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == (4 if command == "topology" else 2)
        for line in lines:
            label, _, rest = line.partition(": ")
            assert label.split()[0] in ("forward", "backward"), line
            json.loads(rest)
        first = {"topology": {'a"b': ['a"b', "é"]},
                 "uniformity": [['a"b', 'a"b'], ['a"b', "é"], ["é", "é"]]}[command]
        assert json.loads(lines[0].partition(": ")[2]) == first

    def test_uniformity(self, capsys, x2n_file):
        code, out, _ = run(capsys, "--format", "structured", "uniformity", x2n_file)
        payload = json.loads(out)["payload"]
        assert ["a", "b"] in payload["forward"]
        assert ["a", "b"] not in payload["backward"]


class TestSixtyFourPoints:
    # every space-reading command on 64 points, in process and with no
    # wall-clock bound: none of them may enumerate the 2^64 subsets
    @pytest.mark.parametrize("off, names", [(1, 64), (0, 4096)])
    def test_every_command_exits_zero(self, capsys, tmp_path, off, names):
        n = 64
        space = VSpace(E, [f"p{i}" for i in range(n)],
                       [[0 if i == j else off for j in range(n)] for i in range(n)])
        path = write_space(tmp_path, "sixty_four.json", space)
        for argv in (["validate-space", path], ["classify", path], ["complete", path],
                     ["uniformity", path], ["roundify", path, "--core", "p0"]):
            assert run(capsys, *argv)[0] == 0, argv
        code, out, _ = run(capsys, "--format", "structured", "topology", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        for side in ("forward", "backward"):
            nbs = topology_of(space, side).neighbourhoods
            assert len(payload[side]) == n and set(payload[side]) == set(space.points)
            count = sum(len(v) for v in payload[side].values())
            assert count == sum(bin(m).count("1") for m in nbs) == names


class TestRoundify:
    def test_core_fattened(self, capsys, x3z_file):
        code, out, _ = run(
            capsys, "--format", "structured", "roundify", x3z_file, "--core", "a"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["kind"] == "filter"
        assert obj["payload"]["core"] == ["a", "b"]
        parsed = serialize.parse_filter(obj["payload"])
        assert serialize.filter_to_payload(parsed) == obj["payload"]

    def test_unknown_core_point(self, capsys, x3z_file):
        code, _, err = run(capsys, "roundify", x3z_file, "--core", "z")
        assert code == 2
        assert "unknown point" in err


class TestVerifyCommand:
    def test_small_run_green(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "verify",
            "--suite",
            "theorems",
            "--seed",
            "5",
            "--instances",
            "4",
        )
        assert code == 0
        assert "suite: all passed" in out

    def test_byte_identical_structured_runs(self, capsys):
        args = [
            "--format",
            "structured",
            "verify",
            "--suite",
            "all",
            "--seed",
            "42",
            "--instances",
            "4",
        ]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_structured_report_pinned(self, capsys):
        # the structured report stays byte-identical for a fixed seed; a
        # change that alters it updates this hash and says why
        code, out, _ = run(
            capsys, "verify", "--seed", "42", "--instances", "5", "--format", "structured"
        )
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
            "3bad0bb18a249562607ab8dadac7504ae48d0b13ced37d6dead516d101581cfb"
        )

    @pytest.mark.parametrize("seed", [42, 99, 1000, 31337])
    def test_lists_only_checks_that_ran(self, capsys, seed):
        # a check whose gates stayed closed on every instance of a section
        # is left out of it; the degenerate section is the Q1 census, whose
        # checks each run on all 5 of its spaces
        code, out, _ = run(capsys, "verify", "--seed", str(seed), "--instances", "25")
        assert code == 0
        assert "[0/0]" not in out
        for check_id in ("uva_everywhere", "all_filters_cauchy", "completion_single_point"):
            assert out.count(f"ok   degenerate.{check_id} [5/5]") == 1

    def test_space_reports_pinned(self, capsys, tmp_path, x2a, x2n, x2s, x3z, xq1):
        # validate-space, classify and complete stay byte-identical on the
        # fixtures; a change that alters them updates this hash and says why
        digest = hashlib.sha256()
        for name, space in (("x2a", x2a), ("x2n", x2n), ("x2s", x2s), ("x3z", x3z), ("xq1", xq1)):
            path = write_space(tmp_path, f"{name}.json", space)
            for command in ("validate-space", "classify", "complete"):
                code, out, err = run(capsys, "--format", "structured", command, path)
                digest.update(f"{name} {command} {code}\n{out}{err}".encode("utf-8"))
        assert digest.hexdigest() == (
            "ea3bf85f93185b2d3058f87ff78fdf5ffbd1b079d4bd4fea68e52d11730b862e"
        )

    def test_timings_leave_report_unchanged(self, capsys):
        args = ["--format", "structured", "verify", "--suite", "degenerate",
                "--seed", "3", "--instances", "3"]
        code1, plain, err1 = run(capsys, *args)
        code2, timed, err2 = run(capsys, *args, "--timings")
        assert code1 == code2 == 0
        assert plain == timed and err1 == ""
        ids = [r["id"] for r in json.loads(timed)["payload"]["sections"][0]["reports"]]
        lines = [line.split(" ") for line in err2.splitlines()]
        # plus one line for the section's instance generation and one for the gate
        assert sorted(name for name, _ in lines) == sorted(ids + ["generate.degenerate", "oracle_gate"])
        seconds = [float(s) for _, s in lines]
        assert seconds == sorted(seconds, reverse=True)

    def test_timings_name_each_check_once(self, capsys):
        # the oracle gate's reports are listed by its own section only, and a
        # check run in several sections is one line timed over all of them;
        # the gate as a whole and each suite section's instance generation
        # get one line each
        args = ["--format", "structured", "verify", "--suite", "all",
                "--seed", "3", "--instances", "2", "--max-points", "3"]
        code, out, err = run(capsys, *args, "--timings")
        assert code == 0
        sections = json.loads(out)["payload"]["sections"]
        ids = {r["id"] for sec in sections for r in sec["reports"]}
        names = [line.split(" ")[0] for line in err.splitlines()]
        assert len(names) == len(set(names))
        steps = {"oracle_gate"} | {f"generate.{sec}" for sec in ("theorems", "structures", "degenerate")}
        assert set(names) == ids | steps
        gate = [r["id"] for sec in sections for r in sec["reports"]
                if r["id"].startswith("oracle.")]
        assert gate and len(gate) == len(set(gate))
        assert {sec["section"] for sec in sections if any(
            r["id"].startswith("oracle.") for r in sec["reports"])} == {"oracles"}

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "--format",
            "structured",
            "--output",
            str(target),
            "verify",
            "--suite",
            "degenerate",
            "--seed",
            "3",
            "--instances",
            "3",
        )
        assert code == 0 and out == ""
        obj = json.loads(target.read_text())
        assert obj["payload"]["command"] == "verify"


class TestUnwritableOutput:
    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["classify", "verify"])
    def test_exits_two_with_error_line(self, capsys, tmp_path, x2n_file, where, command):
        target = tmp_path if where == "directory" else tmp_path / "absent" / "report.json"
        argv = (
            ["classify", x2n_file]
            if command == "classify"
            else ["verify", "--suite", "degenerate", "--instances", "1"]
        )
        code, out, err = run(capsys, "--output", str(target), *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert len(err.splitlines()) == 1
        assert where == "directory" or not target.parent.exists()


class TestUsage:
    def test_unknown_flag_exits_two(self, capsys):
        assert main(["classify", "--bogus", "x"]) == 2

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "--max-points", "0"], "argument --max-points: must be at least 1, got 0"),
            (["verify", "--instances", "-3"], "argument --instances: must be at least 1, got -3"),
            (["verify", "--instances", "many"], "argument --instances: invalid int value: 'many'"),
            (["verify", "--seed", "4.5"], "argument --seed: invalid int value: '4.5'"),
            (["verify", "--max-points", "9"], "argument --max-points: must be at most 5, got 9"),
        ],
    )
    def test_bad_numeric_argument_exits_two(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "error: " + message in err

    def test_category_suite_is_gone(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "category")
        assert code == 2 and out == ""
        assert "error: argument --suite: invalid choice: 'category'" in err
        assert "Traceback" not in err


class TestFlagPositions:
    def test_format_after_subcommand(self, capsys, x2n_file):
        code, out, _ = run(capsys, "classify", x2n_file, "--format", "structured")
        assert code == 0
        assert json.loads(out)["kind"] == "report"

    def test_leading_flag_not_overwritten(self, capsys, x2n_file):
        code, out, _ = run(capsys, "--format", "structured", "classify", x2n_file)
        assert code == 0
        assert json.loads(out)["kind"] == "report"


class TestVerifyFailurePath:
    def test_failed_theorem_exits_one(self, capsys, monkeypatch):
        from qc.verify import VerificationReport

        fake = VerificationReport(
            id="test.broken",
            instances=1,
            passes=0,
            failures=({"seed": 1, "instance": {}, "witness": {"bad": True}},),
        )
        import qc.cli as cli

        monkeypatch.setattr(
            cli, "_suite_sections", lambda args: {"all_fake": lambda spent: [fake]}
        )
        code, out, _ = run(capsys, "verify", "--suite", "all")
        assert code == 1
        lines = out.splitlines()
        witness_line = next(l for l in lines if "witness" in l)
        summary_line = next(l for l in lines if l.startswith("FAIL"))
        assert lines.index(witness_line) < lines.index(summary_line)
        assert "1 checks failed" in out


class TestProcessEntry:
    # `python -m qc.cli` (`qc.cli.run`) against in-process `main()`: the same
    # exit code, the same stdout and stderr bytes and the same report file
    @staticmethod
    def _process(*argv):
        import os
        import subprocess
        from pathlib import Path

        import qc

        env = dict(os.environ, PYTHONPATH=str(Path(qc.__file__).resolve().parent.parent))
        return subprocess.run([sys.executable, "-m", "qc.cli", *argv], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=120)

    def _assert_same(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        done = self._process(*argv)
        assert (done.returncode, done.stdout, done.stderr) == (
            code, out.encode("utf-8"), err.encode("utf-8")
        )
        return code, out, err

    def test_verify_to_stdout_exits_zero(self, capsys):
        code, out, _ = self._assert_same(
            capsys, "verify", "--seed", "7", "--instances", "3", "--format", "structured"
        )
        assert code == 0 and json.loads(out)["payload"]["command"] == "verify"

    def test_verify_to_output_file_exits_zero(self, capsys, tmp_path):
        argv = ["--format", "structured", "verify", "--seed", "7", "--instances", "3", "--output"]
        in_process, by_process = tmp_path / "main.json", tmp_path / "process.json"
        code, out, err = run(capsys, *argv, str(in_process))
        done = self._process(*argv, str(by_process))
        assert (code, out, err) == (0, "", "")
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        assert by_process.read_bytes() == in_process.read_bytes()

    def test_complete_on_non_uva_exits_one(self, capsys, x2n_file):
        code, _, err = self._assert_same(capsys, "complete", x2n_file)
        assert code == 1 and err.startswith("mathematical failure:")

    def test_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"schema": "qc/1", "kind": "space", "payload": ')
        code, out, err = self._assert_same(capsys, "classify", str(path))
        assert code == 2 and out == "" and err.startswith("error: ")

    def test_script_entry_is_run(self):
        from pathlib import Path

        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"qc": "qc.cli:run"}


class TestCollector:
    # only the process entry `run()` freezes the collector, after `main()`
    # has returned; `main()` runs many times in one process
    def test_main_leaves_collector_state(self, capsys, x2n_file):
        import gc

        before = (gc.isenabled(), gc.get_freeze_count())
        for argv in (
            ["verify", "--seed", "7", "--instances", "2"],
            ["classify", x2n_file],
            ["complete", x2n_file],
            ["classify", "missing.json"],
            ["--no-such-flag"],
        ):
            run(capsys, *argv)
            assert (gc.isenabled(), gc.get_freeze_count()) == before, argv

    def test_no_collector_call_outside_run(self):
        import inspect
        import re
        from pathlib import Path

        import qc
        import qc.cli

        lines, first = inspect.getsourcelines(qc.cli.run)
        inside_run = range(first, first + len(lines))
        hits = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(qc.__file__).parent.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(r"\bgc\.|\bfrom gc\b", line)
            and not (path.name == "cli.py" and number in inside_run)
        ]
        assert hits == []
