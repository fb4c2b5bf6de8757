from fractions import Fraction

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    INF,
    DomainMismatchError,
    FiniteQuantale,
    IdentityMorphism,
    PreconditionError,
    StepMorphism,
    StructureError,
    TableMorphism,
    capped_chain,
    definitional_well_above,
    validate_quantale_morphism,
    validate_value_quantale,
)

from helpers import grid_subtract_oracle, subset_well_above

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
        assert E.check(Fraction(0)) == 0 and E.check(Fraction(1, 3)) == Fraction(1, 3)
        assert E.check(2) == Fraction(2)
        for bad in (Fraction(-1, 3), Fraction(1, -3), -2):
            with pytest.raises(DomainMismatchError):
                E.check(bad)

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


class TestSubtract:
    def test_truncation(self):
        assert E.subtract(Fraction(3), Fraction(5)) == 0

    def test_grid_oracle(self):
        expected = grid_subtract_oracle(Fraction(5), Fraction(3))
        assert expected == Fraction(2)
        assert E.subtract(Fraction(5), Fraction(3)) == Fraction(2)

    def test_finite_table(self, Q3):
        inf = Q3.parse("inf")
        one = Q3.parse("1")
        # exhaustive: 1+1 = inf in this chain, so {c : inf <= 1+c} = {1, inf}
        # and the adjoint is their meet, 1 (the adjunction law forces it:
        # were it inf, inf-1 <= 1 would fail while inf <= 1+1 holds)
        cs = [c for c in Q3.elements() if Q3.leq(inf, Q3.add(one, c))]
        assert cs == [one, inf]
        assert Q3.subtract(inf, one) == one

    @pytest.mark.parametrize("name", ["Q1", "Q2", "Q3", "chain4"])
    def test_adjunction_exhaustive(self, name):
        q = BUILTIN_QUANTALES[name]
        for a in q.elements():
            for b in q.elements():
                for c in q.elements():
                    assert q.leq(q.subtract(a, b), c) == q.leq(a, q.add(b, c))

    def test_iterated_subtraction_law(self, chain4):
        q = chain4
        for a in q.elements():
            for b in q.elements():
                for c in q.elements():
                    assert q.subtract(q.subtract(a, b), c) == q.subtract(a, q.add(b, c))
        for a in [Fraction(7), Fraction(5, 2), INF]:
            for b in [Fraction(1), Fraction(3)]:
                for c in [Fraction(1, 2), INF]:
                    assert E.subtract(E.subtract(a, b), c) == E.subtract(a, E.add(b, c))


class TestNthFraction:
    def test_halving(self):
        assert E.nth_fraction(Fraction(1), 2) == Fraction(1, 2)

    def test_q3_exhaustive(self, Q3):
        # only 0 satisfies d+d <= 1 among the positives
        working = [
            d
            for d in Q3.positives
            if Q3.leq(Q3.add(d, d), Q3.parse("1"))
        ]
        assert working == [0]
        assert Q3.nth_fraction(Q3.parse("1"), 2) == 0

    def test_infinity_canonical(self):
        assert E.nth_fraction(INF, 3) == Fraction(1)

    def test_requires_positive(self):
        with pytest.raises(PreconditionError):
            E.nth_fraction(Fraction(0), 2)

    def test_nfold_bound_holds(self, chain4):
        q = chain4
        for eps in q.positives:
            for n in (1, 2, 3, 5):
                delta = q.nth_fraction(eps, n)
                acc = q.bottom
                for _ in range(n):
                    acc = q.add(acc, delta)
                assert q.leq(acc, eps)
                assert q.well_above(delta, q.bottom)


class TestInterpolate:
    def test_midpoint(self):
        assert E.interpolate(Fraction(0), Fraction(1)) == Fraction(1, 2)
        got = E.interpolate(Fraction(0), Fraction(1))
        assert E.well_above(got, Fraction(0)) and E.well_above(Fraction(1), got)

    def test_infinity_convention(self):
        got = E.interpolate(Fraction(2), INF)
        assert got == Fraction(3)
        assert E.well_above(got, Fraction(2)) and E.well_above(INF, got)

    def test_q3_first_in_element_order(self, Q3):
        inf = Q3.parse("inf")
        # exhaustive table: candidates strictly between 0 and inf
        candidates = [
            y
            for y in Q3.elements()
            if Q3.well_above(y, 0) and Q3.well_above(inf, y)
        ]
        assert candidates == [0, 1]
        assert Q3.interpolate(0, inf) == 0

    def test_requires_strict(self):
        with pytest.raises(PreconditionError):
            E.interpolate(Fraction(1), Fraction(1))


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


class TestMorphisms:
    def test_identity_valid(self, Q3):
        assert validate_quantale_morphism(IdentityMorphism(Q3)).ok
        assert validate_quantale_morphism(IdentityMorphism(E)).ok

    def test_threshold_map_valid(self, Q3):
        alpha = StepMorphism(Q3, [Fraction(1)], [0, 1, 2])
        # case analysis over the three cells of each argument
        assert alpha(Fraction(0)) == 0
        assert alpha(Fraction(1, 2)) == 1
        assert alpha(Fraction(1)) == 1
        assert alpha(Fraction(3, 2)) == 2
        assert alpha(INF) == 2
        assert validate_quantale_morphism(alpha).ok

    def test_swap_invalid(self, Q3):
        swap = TableMorphism(Q3, Q3, [2, 1, 0])
        report = validate_quantale_morphism(swap)
        assert not report.ok
        assert set(report.failed_checks()) == {"maps-zero-to-zero", "monotone"}

    def test_partial_table_is_structural(self, Q3):
        with pytest.raises(StructureError):
            TableMorphism(Q3, Q3, [0, 1])

    def test_subadditivity_checked(self, Q3):
        # 0 -> 0, 1 -> inf, inf -> 1 is monotone-breaking and subadd-breaking
        bad = TableMorphism(Q3, Q3, [0, 2, 1])
        report = validate_quantale_morphism(bad)
        assert not report.ok

    def test_step_morphism_shape_errors(self, Q3):
        with pytest.raises(StructureError):
            StepMorphism(Q3, [Fraction(1)], [0, 1])
        with pytest.raises(StructureError):
            StepMorphism(Q3, [Fraction(2), Fraction(1)], [0, 1, 2, 2])
        with pytest.raises(StructureError):
            StepMorphism(Q3, [INF], [0, 1, 2])


class TestElementHandling:
    def test_parse_format_roundtrip(self, Q3):
        for text in ["1/2", "3", "0", "inf"]:
            assert E.format(E.parse(text)) == text
        for name in Q3.names:
            assert Q3.format(Q3.parse(name)) == name

    def test_parse_rejects_garbage(self):
        with pytest.raises(StructureError):
            E.parse("-1")
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


class TestStepMorphismExactness:
    def test_subadditivity_violation_caught_at_endpoints(self, Q3):
        # alpha(1)+alpha(1) = 2 < 3 = alpha(2): the right-endpoint analysis
        # must catch the failure without relying on sampling
        bad = StepMorphism(
            EXT_RATIONAL, [Fraction(1)], [Fraction(0), Fraction(1), Fraction(3)]
        )
        report = validate_quantale_morphism(bad, samples=0)
        assert report.failed_checks() == ("subadditive",)

    def test_valid_step_map_survives_heavy_sampling(self):
        # cell values grow slowly enough that sums of cells stay subadditive
        alpha = StepMorphism(
            EXT_RATIONAL,
            [Fraction(1), Fraction(2)],
            [Fraction(0), Fraction(1), Fraction(2), Fraction(3)],
        )
        assert validate_quantale_morphism(alpha, samples=2000, seed=3).ok

    def test_jump_to_top_needs_truncating_target(self, Q3):
        # the same shape that is valid into the chain (1+1 saturates there)
        # fails into the rationals, where 1+1 = 2 stays below the top
        into_chain = StepMorphism(Q3, [Fraction(1)], [0, 1, 2])
        assert validate_quantale_morphism(into_chain).ok
        into_rationals = StepMorphism(
            EXT_RATIONAL, [Fraction(1)], [Fraction(0), Fraction(1), INF]
        )
        assert not validate_quantale_morphism(into_rationals, samples=0).ok


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

    def test_subtraction_adjunction(self, pinched):
        q = pinched
        for a in q.elements():
            for b in q.elements():
                for c in q.elements():
                    assert q.leq(q.subtract(a, b), c) == q.leq(a, q.add(b, c))

    def test_incomparable_meet_is_pinch(self, pinched):
        a, b = pinched.parse("a"), pinched.parse("b")
        assert pinched.meet([a, b]) == pinched.parse("e")
        assert pinched.well_above(pinched.meet([a, b]), pinched.bottom)
