from fractions import Fraction

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    INF,
    DomainMismatchError,
    FiniteQuantale,
    StructureError,
    capped_chain,
    validate_value_quantale,
)

from helpers import saturating_add, subset_distributive, subset_well_above

E = EXT_RATIONAL


class TestMeetJoin:
    def test_empty_meet_is_top(self):
        assert E.meet([]) == INF

    def test_numeric_minimum(self):
        assert E.meet([Fraction(1, 2), Fraction(2)]) == Fraction(1, 2)

    def test_chain_join(self, Q3):
        assert Q3.join([Q3.parse("1"), Q3.parse("inf")]) == Q3.parse("inf")

    def test_empty_join_is_bottom(self, Q3):
        assert Q3.join([]) == Q3.bottom

    def test_domain_mismatch(self, Q3):
        with pytest.raises(DomainMismatchError):
            E.meet([Fraction(1), 0.5])
        with pytest.raises(DomainMismatchError):
            Q3.meet([5])

    def test_check_rejects_negatives_by_sign(self):
        # a Fraction >= 0, zero and subclasses included, comes back as it is
        class Sub(Fraction):
            pass

        for value in (Fraction(0), Fraction(1, 3), Fraction(10**30, 7), Sub(1, 2), Sub(0)):
            assert E.check(value) is value
        assert E.check(INF) is INF
        for value in (0, 2):
            got = E.check(value)
            assert type(got) is Fraction and got == value
        for bad, message in (
            (Fraction(-1, 3), "negative value -1/3 is not in [0, inf]"),
            (Fraction(1, -3), "negative value -1/3 is not in [0, inf]"),
            (Sub(-1, 2), "negative value -1/2 is not in [0, inf]"),
            (-2, "negative value -2 is not in [0, inf]"),
            (True, "booleans are not extended-rational elements"),
            (0.5, "not an extended-rational element: 0.5"),
        ):
            with pytest.raises(DomainMismatchError) as exc:
                E.check(bad)
            assert str(exc.value) == message

    def test_rank_meet_matches_checked_meet(self, Q1, Q3, chain4, pinched):
        # the unchecked kernel against the public meet, on every rank set of
        # a sorted value list (all elements of the finite quantales, so the
        # incomparable a and b of pinched, which meet at e, are covered)
        ext = sorted(
            [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), INF], key=E.sort_key
        )
        cases = [(E, ext)] + [
            (q, sorted(q.elements(), key=q.sort_key)) for q in (Q1, Q3, chain4, pinched)
        ]
        for q, values in cases:
            for ranks in range(1 << len(values)):
                chosen = [v for u, v in enumerate(values) if ranks >> u & 1]
                assert q._meet_ranks(values, ranks) == q.meet(chosen), (q.label, ranks)

    def test_unchecked_join_matches_checked_join(self, Q1, Q3, chain4, pinched):
        # the oracle gate joins already-checked meets with `_join`: every
        # subset of each quantale's elements (INF and incomparables included)
        ext = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(2), INF]
        cases = [(E, ext)] + [(q, list(q.elements())) for q in (Q1, Q3, chain4, pinched)]
        for q, values in cases:
            for ranks in range(1 << len(values)):
                chosen = [v for u, v in enumerate(values) if ranks >> u & 1]
                assert q._join(chosen) == q.join(chosen), (q.label, ranks)


class TestAdd:
    def test_top_absorbs(self):
        assert E.add(Fraction(1), INF) == INF

    def test_exact_rational_sum(self):
        assert E.add(Fraction(1, 3), Fraction(1, 6)) == Fraction(1, 2)

    def test_truncated_table(self, Q3):
        one = Q3.parse("1")
        assert Q3.add(one, one) == Q3.parse("inf")


class TestWellAbove:
    def test_one_above_zero(self):
        # any family with meet below 0 bottoms out below 1
        assert E.well_above(Fraction(1), Fraction(0))

    def test_zero_not_above_zero_witness_family(self):
        # the geometric family has meet 0 but no member below 0
        family = [Fraction(1, 2) ** k for k in range(1, 30)]
        assert E.meet(family) > 0  # finite meets never reach the infimum
        assert all(v > 0 for v in family)
        assert not E.well_above(Fraction(0), Fraction(0))

    def test_infinity_semantics(self):
        assert E.well_above(INF, Fraction(10))
        assert not E.well_above(INF, INF)
        assert not E.well_above(Fraction(3), INF)

    def test_finite_chain_zero_above_zero(self, Q3):
        # finite chains attain their meets, so 0 is well above 0
        assert subset_well_above(Q3._leq, Q3._add, 0, 0)
        assert Q3.well_above(0, 0)

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "chain4"])
    def test_closed_form_matches_subset_oracle(self, name, diamond_tables):
        q = BUILTIN_QUANTALES[name]
        for a in q.elements():
            for b in q.elements():
                assert q.well_above(a, b) == subset_well_above(q._leq, q._add, a, b)

    def test_closed_form_on_diamond_lattice(self, diamond_tables):
        names, leq, join = diamond_tables
        q = FiniteQuantale(names, leq, join)
        for a in q.elements():
            for b in q.elements():
                assert q.well_above(a, b) == subset_well_above(leq, join, a, b)


class TestValidateQuantale:
    def test_q3_valid(self, Q3):
        assert validate_value_quantale(Q3.names, Q3._leq, Q3._add).ok

    def test_chain4_valid(self, chain4):
        assert validate_value_quantale(chain4.names, chain4._leq, chain4._add).ok

    def test_q1_valid(self, Q1):
        assert validate_value_quantale(Q1.names, Q1._leq, Q1._add).ok

    def test_diamond_fails_positive_meet_only(self, diamond_tables):
        names, leq, join = diamond_tables
        report = validate_value_quantale(names, leq, join)
        assert not report.ok
        assert report.failed_checks() == ("a∧b ≻ 0",)
        assert report.failures[0].witness == {"a": "a", "b": "b"}

    def test_malformed_tables_raise(self):
        with pytest.raises(StructureError):
            validate_value_quantale(["0", "1"], [[True]], [[0, 0], [0, 0]])
        with pytest.raises(StructureError):
            validate_value_quantale(["0", "0"], [[True]], [[0]])

    def test_broken_unit_reported(self):
        # chain 0 < 1 with constant-top addition breaks x+0 = x
        report = validate_value_quantale(
            ["0", "1"], [[True, True], [False, True]], [[1, 1], [1, 1]]
        )
        assert "x+0 = x" in report.failed_checks()

    def test_non_lattice_reported(self):
        # two incomparable points: no top, not a lattice
        report = validate_value_quantale(
            ["a", "b"], [[True, False], [False, True]], [[0, 0], [0, 0]]
        )
        assert report.failed_checks() == ("complete-lattice",)

    def test_distributivity_failure_reported(self, saturated_diamond_tables):
        report = validate_value_quantale(*saturated_diamond_tables)
        assert report.failed_checks() == ("x+⋀S = ⋀(x+S)", "a∧b ≻ 0")
        assert report.failures[0].witness == {"x": "a", "S": ("a", "b"), "lhs": "a", "rhs": "T"}
        assert report.failures[1].witness == {"a": "a", "b": "b"}

    @pytest.mark.parametrize(
        "leq,add,failed,witness",
        [
            # 1 is not below itself
            ([[1, 1, 1], [0, 0, 1], [0, 0, 1]], [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
             ("partial-order",), {"law": "reflexivity", "element": "1"}),
            # 0 and 1 are below each other
            ([[1, 1, 1], [1, 1, 1], [0, 0, 1]], [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
             ("partial-order",), {"law": "antisymmetry", "pair": ("0", "1")}),
            # 0 <= 1 <= 2 but not 0 <= 2
            ([[1, 1, 0], [0, 1, 1], [0, 0, 1]], [[0, 1, 2], [1, 2, 2], [2, 2, 2]],
             ("partial-order",), {"law": "transitivity", "triple": ("0", "1", "2")}),
            # on the 4-chain, 1 + 2 = 2 but 2 + 1 = 3
            ("chain", [[0, 1, 2, 3], [1, 1, 2, 3], [2, 3, 3, 3], [3, 3, 3, 3]],
             ("addition-commutative",), {"pair": ("1", "2")}),
            # (1 + 1) + 2 = 2 + 2 = 3 but 1 + (1 + 2) = 1 + 2 = 2
            ("chain", [[0, 1, 2, 3], [1, 2, 2, 3], [2, 2, 3, 3], [3, 3, 3, 3]],
             ("addition-associative",), {"triple": ("1", "1", "2")}),
            # on the 3-chain, 0 <= 1 but 0 + 1 = 1 is above 1 + 1 = 0, and
            # 1 + (0 meet 1) = 1 is above (1 + 0) meet (1 + 1) = 0
            ("chain", [[0, 1, 2], [1, 0, 2], [2, 2, 2]],
             ("addition-monotone", "x+⋀S = ⋀(x+S)"), {"x": "0", "y": "1", "a": "1"}),
        ],
    )
    def test_rejection_names_axiom_and_witness(self, leq, add, failed, witness):
        n = len(add)
        if leq == "chain":
            leq = [[i <= j for j in range(n)] for i in range(n)]
        report = validate_value_quantale([str(i) for i in range(n)], leq, add)
        assert report.failed_checks() == failed
        assert report.failures[0].witness == witness

    def test_distributivity_matches_subset_oracle(
        self, Q1, Q3, chain4, pinched, diamond_tables, saturated_diamond_tables
    ):
        # the empty-and-pairs check against every subset, on the named tables
        # and on every lattice of at most 5 elements under pinched's
        # saturating addition, where distributivity both holds and fails
        from test_acceptance import lattice_corpus

        named = (Q1, BUILTIN_QUANTALES["Q2"], Q3, chain4, pinched)
        tables = [(q.names, q._leq, q._add) for q in named]
        tables += [diamond_tables, saturated_diamond_tables]
        for leq in lattice_corpus():
            tables.append(([f"e{i}" for i in range(len(leq))], leq, saturating_add(leq)))
        verdicts = []
        for names, leq, add in tables:
            report = validate_value_quantale(names, leq, add)
            holds = "x+⋀S = ⋀(x+S)" not in report.failed_checks()
            assert holds == subset_distributive(leq, add), (names, leq, add)
            verdicts.append(holds)
        assert verdicts.count(True) >= 10 and verdicts.count(False) >= 5, verdicts


class TestElementHandling:
    def test_parse_returns_checked_elements(self, Q1, Q3, chain4, pinched):
        # a parsed space is not checked again, so `parse` must return what
        # `check` returns: the same object, unchanged
        texts = ["0", "7", "1/2", "6/4", "0010/0004", "0.25", "2.50", "1.5e2", "5E-1", "inf",
                 0, 3, Fraction(2, 3), Fraction(0)]
        for text in texts:
            value = E.parse(text)
            assert E.check(value) is value, text
            assert isinstance(value, Fraction) or value is INF, text
        for q in (Q1, Q3, chain4, pinched):
            for text in list(q.names) + list(q.elements()):
                value = q.parse(text)
                assert q.check(value) is value and type(value) is int, (q.label, text)

    def test_parse_format_roundtrip(self, Q3):
        for text in ["1/2", "3", "0", "inf"]:
            assert E.format(E.parse(text)) == text
        for name in Q3.names:
            assert Q3.format(Q3.parse(name)) == name

    def test_parse_rejects_garbage(self, Q3):
        with pytest.raises(StructureError):
            E.parse("-1")
        # numbers outside the carrier are malformed input when parsed, and
        # foreign elements when checked
        for q, bad in ((E, -1), (E, Fraction(-1, 2)), (Q3, 7), (Q3, -1)):
            with pytest.raises(StructureError):
                q.parse(bad)
            with pytest.raises(DomainMismatchError):
                q.check(bad)
        with pytest.raises(StructureError):
            E.parse("a/b")

    def test_no_floats_accepted(self):
        with pytest.raises(DomainMismatchError):
            E.check(0.5)

    def test_bounds(self, Q3):
        for e in Q3.elements():
            assert Q3.leq(Q3.bottom, e)
            assert Q3.leq(e, Q3.top)


class TestDerivedLaws:
    @pytest.mark.parametrize("name", ["Q2", "Q3", "chain4"])
    def test_well_above_interaction_with_order(self, name):
        q = BUILTIN_QUANTALES[name]
        for a in q.elements():
            for b in q.elements():
                if q.well_above(a, b):
                    assert q.leq(b, a)
                for c in q.elements():
                    if q.well_above(a, b) and q.leq(c, b):
                        assert q.well_above(a, c)
                    if q.leq(b, a) and q.well_above(b, c):
                        assert q.well_above(a, c)

    @pytest.mark.parametrize("name", ["Q2", "Q3", "chain4"])
    def test_addition_monotone(self, name):
        q = BUILTIN_QUANTALES[name]
        for x in q.elements():
            for y in q.elements():
                if not q.leq(x, y):
                    continue
                for a in q.elements():
                    for b in q.elements():
                        if q.leq(a, b):
                            assert q.leq(q.add(x, a), q.add(y, b))

    @pytest.mark.parametrize("name", ["Q2", "Q3", "chain4"])
    def test_order_from_positive_paddings(self, name):
        q = BUILTIN_QUANTALES[name]
        for a in q.elements():
            for b in q.elements():
                padded = all(q.leq(a, q.add(b, e)) for e in q.positives)
                assert padded == q.leq(a, b)

    def test_capped_chain_rejects_bad_length(self):
        with pytest.raises(StructureError):
            capped_chain(0)


class TestNonChainQuantale:
    def test_pinched_diamond_is_a_value_quantale(self, pinched):
        report = validate_value_quantale(pinched.names, pinched._leq, pinched._add)
        assert report.ok

    def test_closed_form_matches_oracle(self, pinched):
        for a in pinched.elements():
            for b in pinched.elements():
                assert pinched.well_above(a, b) == subset_well_above(
                    pinched._leq, pinched._add, a, b
                )

    def test_every_element_positive(self, pinched):
        # the meet of all nonzero elements is e, so even 0 is well above 0
        assert pinched.positives == tuple(sorted(pinched.elements(), key=pinched.sort_key))

    def test_incomparable_meet_is_pinch(self, pinched):
        a, b = pinched.parse("a"), pinched.parse("b")
        assert pinched.meet([a, b]) == pinched.parse("e")
        assert pinched.well_above(pinched.meet([a, b]), pinched.bottom)
