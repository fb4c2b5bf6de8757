import json
import sys

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    FiniteQuantale,
    StructureError,
    VSpace,
    complete,
    principal_filter,
    roundify,
)
from qc import serialize

E = EXT_RATIONAL


class TestQuantaleFormat:
    def test_rational_by_name(self):
        assert serialize.quantale_to_payload(E) == "ext_rational"
        assert serialize.parse_quantale("ext_rational") == E
        assert serialize.parse_quantale({"kind": "ext_rational"}) == E

    def test_builtin_names(self, Q3):
        assert serialize.parse_quantale("Q3") == Q3

    def test_finite_roundtrip(self, Q3, chain4, pinched):
        for q in (Q3, chain4, pinched):
            payload = serialize.quantale_to_payload(q)
            assert serialize.parse_quantale(payload) == q
            # payloads survive a JSON round trip
            assert serialize.parse_quantale(json.loads(json.dumps(payload))) == q

    def test_tables_that_are_not_a_value_quantale_are_refused(self, diamond_tables):
        # a lattice whose addition is its join, but whose incomparable
        # positives meet at 0: the positive-meet axiom fails
        names, leq, join = diamond_tables
        payload = serialize.quantale_to_payload(FiniteQuantale(names, leq, join))
        with pytest.raises(StructureError, match="failed axiom a∧b ≻ 0"):
            serialize.parse_quantale(payload)

    def test_builtin_tables_are_not_validated_again(self, monkeypatch, pinched):
        calls = []
        real = serialize.validate_value_quantale
        monkeypatch.setattr(
            serialize, "validate_value_quantale", lambda *a: calls.append(a) or real(*a)
        )
        for q in BUILTIN_QUANTALES.values():
            if q.is_finite:
                parsed = serialize.parse_quantale(serialize.quantale_to_payload(q))
                # the table's own quantale, labelled as read, not the built-in
                assert parsed == q and parsed is not q
                assert parsed.label == "finite[" + ",".join(q.names) + "]"
        assert calls == []
        assert serialize.parse_quantale(serialize.quantale_to_payload(pinched)) == pinched
        assert len(calls) == 1

    def test_saturated_diamond_is_refused(self, saturated_diamond_tables):
        payload = serialize.quantale_to_payload(FiniteQuantale(*saturated_diamond_tables))
        with pytest.raises(StructureError, match=r"failed axiom x\+⋀S = ⋀\(x\+S\)"):
            serialize.parse_quantale(payload)

    def test_unknown_name(self):
        with pytest.raises(StructureError):
            serialize.parse_quantale("Q99")

    def test_missing_fields(self):
        with pytest.raises(StructureError):
            serialize.parse_quantale({"kind": "finite", "elements": ["0"]})


class TestSpaceFormat:
    def test_roundtrip(self, x2a, x3z, xq1):
        for space in (x2a, x3z, xq1):
            payload = serialize.space_to_payload(space)
            assert serialize.parse_space(payload) == space
            assert serialize.parse_space(json.loads(json.dumps(payload))) == space

    def test_elements_as_strings(self, x2a):
        payload = serialize.space_to_payload(x2a)
        assert payload["d"] == [["0", "1"], ["2", "0"]]

    def test_finite_element_names(self, Q3):
        space = VSpace(Q3, ["a", "b"], [[0, 2], [1, 0]])
        payload = serialize.space_to_payload(space)
        assert payload["d"] == [["0", "inf"], ["1", "0"]]
        assert serialize.parse_space(payload) == space

    def test_indices_accepted_on_parse(self, Q3):
        payload = {
            "quantale": "Q3",
            "points": ["a", "b"],
            "d": [[0, 2], [1, 0]],
        }
        space = serialize.parse_space(payload)
        assert space.d("a", "b") == Q3.parse("inf")

    def test_missing_field(self):
        with pytest.raises(StructureError):
            serialize.parse_space({"points": [], "d": []})

    @pytest.mark.parametrize(
        "literal",
        ["1e5000", "1e-5000", "0e999999999", "1e999999999", "1E99999999999999999999",
         "2.5e+4_400", "1" * 4400, "0." + "1" * 4400],
    )
    def test_huge_rational_literal_refused(self, literal):
        # refused from the literal alone: neither number is ever built
        payload = {"quantale": "ext_rational", "points": ["a", "b"],
                   "d": [["0", literal], ["1", "0"]]}
        with pytest.raises(StructureError, match="too large"):
            serialize.parse_space(payload)

    def test_rational_literal_at_the_digit_limit(self):
        # fewer than half the int print limit, so the sum of two values read
        # still prints
        limit = (sys.get_int_max_str_digits() - 1) // 2
        at = (f"1e{limit - 1}", f"1e-{limit - 1}", "7" * limit, "1/" + "7" * limit,
              10**limit - 1)
        for literal in at:
            value = E.parse(literal)
            assert E.parse(E.format(value)) == value
            assert E.format(E.add(value, E.parse("1/" + "3" * limit)))
        for literal in (f"1e{limit}", f"1e-{limit}", "7" * (limit + 1), "1/" + "7" * (limit + 1),
                        "7" * (limit + 1) + "/1", 10**limit):
            with pytest.raises(StructureError, match="too large"):
                E.parse(literal)

    def test_no_digit_limit_when_ints_print_unbounded(self):
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert E.parse("1") == 1 and E.parse("7" * 5000) == int("7" * 5000)
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("literal", ["1e+_", "1e_", "e5", "1/0", "1e5e5"])
    def test_malformed_exponent_refused(self, literal):
        with pytest.raises(StructureError, match="bad rational literal"):
            E.parse(literal)

    @pytest.mark.parametrize("literal", ["1_0", "\u0661", " 1 ", "+1"])
    def test_literal_outside_grammar_refused(self, literal):
        # Fraction reads each of these (as 10, 1, 1 and 1); the grammar is
        # "p/q", "n", "inf" and decimals with an optional exponent
        with pytest.raises(StructureError, match="bad rational literal"):
            E.parse(literal)

    def test_huge_json_integer_refused(self):
        with pytest.raises(StructureError, match="bad JSON"):
            serialize.loads_envelope('{"n": ' + "1" * (sys.get_int_max_str_digits() + 1) + "}")


class TestFilterFormat:
    def test_roundtrip(self, x3z):
        f = roundify(principal_filter(x3z, ["a"]))
        payload = serialize.filter_to_payload(f)
        assert payload["core"] == ["a", "b"]
        assert serialize.parse_filter(payload) == f

    @pytest.mark.parametrize("core", ["ab", 5, None, ["a", 1], {"a": 1}])
    def test_mistyped_core_rejected(self, x3z, core):
        payload = serialize.filter_to_payload(principal_filter(x3z, ["a"]))
        payload["core"] = core
        with pytest.raises(StructureError):
            serialize.parse_filter(payload)


class TestCompletionFormat:
    def test_roundtrip(self, x3z):
        comp = complete(x3z)
        payload = serialize.completion_to_payload(serialize.completion_space_doc(comp))
        doc = serialize.parse_completion(payload)
        assert doc == serialize.completion_space_doc(comp)
        assert serialize.completion_to_payload(doc) == payload

    def test_payload_shape(self, x3z):
        payload = serialize.completion_to_payload(
            serialize.completion_space_doc(complete(x3z))
        )
        assert payload["points"] == [{"core": ["a", "b"]}, {"core": ["c"]}]
        assert payload["embedding"] == {"a": 0, "b": 0, "c": 1}

    def test_bad_embedding_rejected(self, x3z):
        payload = serialize.completion_to_payload(
            serialize.completion_space_doc(complete(x3z))
        )
        payload["embedding"]["a"] = 9
        with pytest.raises(StructureError):
            serialize.parse_completion(payload)
        good = serialize.completion_to_payload(
            serialize.completion_space_doc(complete(x3z))
        )
        for field, value in (
            ("points", [{"core": "ab"}, {"core": ["c"]}]),
            ("points", [{"core": 5}, {"core": ["c"]}]),
            ("points", [{"core": None}, {"core": ["c"]}]),
            ("points", [["a", "b"], {"core": ["c"]}]),
            ("points", "ab"),
            ("embedding", [["a", 0]]),
            ("embedding", {"a": 0, "b": 0, "c": 1, "z": 1}),
            ("embedding", {"a": True}),
        ):
            with pytest.raises(StructureError):
                serialize.parse_completion({**good, field: value})


class TestEnvelope:
    def test_roundtrip(self, x2a):
        text = serialize.dumps_canonical(
            serialize.envelope("space", serialize.space_to_payload(x2a))
        )
        kind, payload = serialize.loads_envelope(text)
        assert kind == "space"
        assert serialize.parse_space(payload) == x2a

    def test_schema_tag_checked(self):
        with pytest.raises(StructureError):
            serialize.parse_envelope({"schema": "other/1", "kind": "space", "payload": {}})

    def test_kind_checked(self, x2a):
        obj = serialize.envelope("space", serialize.space_to_payload(x2a))
        with pytest.raises(StructureError):
            serialize.parse_envelope(obj, expected_kind="filter")

    def test_bad_json_reports_position(self):
        with pytest.raises(StructureError) as err:
            serialize.loads_envelope("{oops")
        assert "line 1" in str(err.value)

    def test_canonical_bytes_stable(self, x2a):
        one = serialize.dumps_canonical(
            serialize.envelope("space", serialize.space_to_payload(x2a))
        )
        two = serialize.dumps_canonical(
            serialize.envelope("space", serialize.space_to_payload(x2a))
        )
        assert one == two


_SPACE = {"quantale": "ext_rational", "points": ["a", "b"], "d": [["0", "1"], ["1", "0"]]}
_COMPLETION = {"space": _SPACE, "points": [{"core": ["a"]}, {"core": ["b"]}],
               "embedding": {"a": 0, "b": 1}}
_PARSERS = {"space": serialize.parse_space, "quantale": serialize.parse_quantale,
            "filter": serialize.parse_filter, "completion": serialize.parse_completion}


def _without(payload, field):
    return {k: v for k, v in payload.items() if k != field}


class TestMalformedDocuments:
    # the envelope and payload errors of `serialize`, each raised on one
    # document; a command that reads the document exits 2 with one line
    @pytest.mark.parametrize(
        "doc,kind,command,message",
        [
            pytest.param({"schema": serialize.SCHEMA, "payload": _SPACE}, "space", "classify",
                         "envelope is missing its kind", id="missing-kind"),
            pytest.param({"schema": serialize.SCHEMA, "kind": "space"}, "space", "classify",
                         "envelope is missing its payload", id="missing-payload"),
            pytest.param(serialize.envelope("space", [_SPACE]), "space", "validate-space",
                         "space payload must be an object", id="non-object-space"),
            pytest.param(serialize.envelope("quantale", ["Q3"]), "quantale", "validate-quantale",
                         "quantale payload must be a name or an object",
                         id="non-object-quantale"),
            pytest.param(serialize.envelope("quantale", {"kind": "ordinal"}), "quantale",
                         "validate-quantale", "unknown quantale kind 'ordinal'",
                         id="unknown-quantale-kind"),
            pytest.param(serialize.envelope("space", {**_SPACE, "quantale": {"kind": "ordinal"}}),
                         "space", "classify", "unknown quantale kind 'ordinal'",
                         id="space-over-unknown-quantale-kind"),
            pytest.param(serialize.envelope("filter", {"core": ["a"]}), "filter", None,
                         "filter payload needs 'space' and 'core'", id="filter-without-space"),
            pytest.param(serialize.envelope("filter", {"space": _SPACE}), "filter", None,
                         "filter payload needs 'space' and 'core'", id="filter-without-core"),
            pytest.param(serialize.envelope("filter", [_SPACE, ["a"]]), "filter", None,
                         "filter payload needs 'space' and 'core'", id="non-object-filter"),
        ] + [
            pytest.param(serialize.envelope("completion", _without(_COMPLETION, field)),
                         "completion", None, f"completion payload is missing {field!r}",
                         id=f"completion-without-{field}")
            for field in ("space", "points", "embedding")
        ],
    )
    def test_raises_structure_error(self, capsys, tmp_path, doc, kind, command, message):
        from qc.cli import main

        with pytest.raises(StructureError) as info:
            _PARSERS[kind](serialize.parse_envelope(doc, kind)[1])
        assert str(info.value) == message
        if command is not None:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(doc))
            code = main([command, str(path)])
            captured = capsys.readouterr()
            assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")

    def test_table_documents_are_otherwise_valid(self):
        # each row above breaks one field of these
        assert serialize.parse_space(_SPACE).size == 2
        doc = serialize.parse_completion(_COMPLETION)
        assert doc.cores == (("a",), ("b",)) and doc.embedding == {"a": 0, "b": 1}
        assert serialize.parse_filter({"space": _SPACE, "core": ["a"]}).core == ("a",)
