from fractions import Fraction

import pytest

from qc import (
    EXT_RATIONAL,
    INF,
    DomainMismatchError,
    Filter,
    PreconditionError,
    StructureError,
    VSpace,
    converges,
    filter_distance,
    filter_from_base,
    image_filter,
    improper_filter,
    intersect,
    is_cauchy,
    is_filter_morphism,
    is_minimal_cauchy,
    is_round,
    point_filter,
    principal_filter,
    roundify,
    set_distance,
)

from helpers import ball_raw

E = EXT_RATIONAL


class TestFilterBasics:
    def test_membership_is_core_cover(self, x3z):
        f = principal_filter(x3z, ["a", "b"])
        assert f.contains(["a", "b"])
        assert f.contains(["a", "b", "c"])
        assert not f.contains(["a"])

    def test_improper(self, x2a):
        f = improper_filter(x2a)
        assert not f.proper
        assert f.contains([])

    def test_from_base_intersection(self, x3z):
        f = filter_from_base(x3z, [["a", "b"], ["b", "c"]])
        assert f.core == ("b",)

    def test_from_base_principal(self, x2a):
        assert filter_from_base(x2a, [["a"]]).core == ("a",)

    def test_from_base_disjoint_improper(self, x2a):
        assert not filter_from_base(x2a, [["a"], ["b"]]).proper

    def test_from_base_empty_family(self, x2a):
        assert filter_from_base(x2a, []).core == ("a", "b")

    def test_bad_subset_is_structural(self, x2a):
        with pytest.raises(StructureError):
            filter_from_base(x2a, [["z"]])


class TestIntersect:
    def test_principal_union_of_cores(self, x2a):
        f = intersect(principal_filter(x2a, ["a"]), principal_filter(x2a, ["b"]))
        assert f.core == ("a", "b")

    def test_idempotent(self, x3z):
        f = principal_filter(x3z, ["a", "c"])
        assert intersect(f, f) == f

    def test_improper_is_identity(self, x2a):
        f = principal_filter(x2a, ["a"])
        assert intersect(f, improper_filter(x2a)) == f

    def test_space_mismatch(self, x2a, x3z):
        with pytest.raises(DomainMismatchError):
            intersect(principal_filter(x2a, ["a"]), principal_filter(x3z, ["a"]))


class TestImageFilter:
    def test_constant_map(self, x2a):
        fmap = {"a": "b", "b": "b"}
        assert image_filter(fmap, principal_filter(x2a, ["a"]), x2a).core == ("b",)

    def test_improper_maps_to_improper(self, x2a):
        assert not image_filter(
            {"a": "a", "b": "b"}, improper_filter(x2a), x2a
        ).proper

    def test_identity(self, x2a):
        f = principal_filter(x2a, ["a", "b"])
        assert image_filter({"a": "a", "b": "b"}, f, x2a) == f

    def test_family_definition_agrees(self, x3z):
        # S is in the image iff its preimage covers the core
        fmap = {"a": "c", "b": "c", "c": "a"}
        f = principal_filter(x3z, ["a", "b"])
        img = image_filter(fmap, f, x3z)
        for smask in range(1 << 3):
            names = x3z.names_of(smask)
            pre = [p for p in x3z.points if fmap[p] in names]
            assert img.contains(names) == f.contains(pre)


class TestPointFilter:
    def test_x2a(self, x2a):
        assert point_filter(x2a, "a").core == ("a",)

    def test_x3z_zero_neighbour(self, x3z):
        # oracle: intersect the raw balls over the test set
        core = set(x3z.points)
        for eps in x3z.test_values:
            core &= ball_raw(list(x3z.points), x3z.dmat, "a", eps)
        assert core == {"a", "b"}
        assert point_filter(x3z, "a").core == ("a", "b")

    def test_degenerate_whole_carrier(self, xq1):
        assert point_filter(xq1, "p").core == ("p", "q")

    def test_backward_side(self, x2n):
        assert point_filter(x2n, "b", "backward").core == ("a", "b")
        assert point_filter(x2n, "b", "forward").core == ("b",)

    def test_roundify_of_principal_point(self, x2a, x3z):
        # the point filter is the roundification of the principal filter
        for space in (x2a, x3z):
            for p in space.points:
                assert point_filter(space, p) == roundify(
                    principal_filter(space, [p])
                )


class TestCauchy:
    def test_point_core_is_cauchy(self, x2a):
        assert is_cauchy(principal_filter(x2a, ["a"])).ok

    def test_spread_core_fails_with_witness(self, x2a):
        verdict = is_cauchy(principal_filter(x2a, ["a", "b"]))
        assert not verdict.ok
        assert verdict.witness == {"epsilon": "1/2"}

    def test_improper_cauchy(self, x2a):
        assert is_cauchy(improper_filter(x2a)).ok

    def test_backward_differs_from_forward(self):
        # c absorbs everything at distance 0, so only backward balls at c
        # ever cover {a,b}
        sink = VSpace(
            E,
            ["a", "b", "c"],
            [[0, 1, 0], [1, 0, 0], [1, 1, 0]],
        )
        f = principal_filter(sink, ["a", "b"])
        assert is_cauchy(f, "backward").ok
        verdict = is_cauchy(f, "forward")
        assert not verdict.ok and verdict.witness == {"epsilon": "1/2"}


class TestRound:
    def test_point_filter_round(self, x2a):
        assert is_round(point_filter(x2a, "a")).ok

    def test_whole_carrier_round(self, x2a):
        assert is_round(principal_filter(x2a, ["a", "b"])).ok

    def test_tight_core_not_round(self, x3z):
        assert not is_round(principal_filter(x3z, ["a"])).ok

    def test_nothing_round_over_degenerate(self, xq1):
        # no positive radius exists, so the absorption quantifier is empty
        assert not is_round(principal_filter(xq1, ["p", "q"])).ok


class TestRoundify:
    def test_pulls_in_zero_neighbours(self, x3z):
        assert roundify(principal_filter(x3z, ["a"])).core == ("a", "b")

    def test_fixes_point_filters(self, x2a):
        pf = point_filter(x2a, "a")
        assert roundify(pf) == pf

    def test_no_zero_neighbours_fixed(self, x2a):
        f = principal_filter(x2a, ["a"])
        assert roundify(f) == f

    def test_coarsens_the_filter(self, x2a, x2n, x3z):
        for space in (x2a, x2n, x3z):
            for mask in range(space.full_mask + 1):
                f = Filter(space, mask)
                r = roundify(f)
                assert f.core_mask | r.core_mask == r.core_mask

    def test_improper_stays_improper_with_positives(self, x2a):
        assert not roundify(improper_filter(x2a)).proper

    def test_degenerate_least_filter(self, xq1):
        assert roundify(improper_filter(xq1)).core == ("p", "q")

    def test_idempotent(self, x2a, x2n, x3z, xq1):
        for space in (x2a, x2n, x3z, xq1):
            for mask in range(space.full_mask + 1):
                once = roundify(Filter(space, mask))
                assert roundify(once) == once


class TestMinimalCauchy:
    def test_point_filter_minimal(self, x2a):
        # definitional: only strict superset core is {a,b}, which is not Cauchy
        assert not is_cauchy(principal_filter(x2a, ["a", "b"])).ok
        assert is_minimal_cauchy(point_filter(x2a, "a")).ok

    def test_smaller_core_not_minimal(self, x3z):
        verdict = is_minimal_cauchy(principal_filter(x3z, ["a"]))
        assert not verdict.ok
        assert verdict.witness["core"] == ("a", "b")

    def test_non_cauchy_not_minimal(self, x2a):
        verdict = is_minimal_cauchy(principal_filter(x2a, ["a", "b"]))
        assert not verdict.ok
        assert verdict.witness["reason"] == "not cauchy"

    def test_improper_refused(self, x2a):
        with pytest.raises(PreconditionError):
            is_minimal_cauchy(improper_filter(x2a))

    def test_characterization_matches_on_uva(self, x2a, x3z):
        for space in (x2a, x3z):
            for mask in range(1, space.full_mask + 1):
                f = Filter(space, mask)
                assert is_minimal_cauchy(f).ok == (is_cauchy(f).ok and is_round(f).ok)

    def test_characterization_holds_without_uva(self, x2n):
        # minimal Cauchy is Cauchy and round with positive test values,
        # with or without uniformly vanishing asymmetry
        cores = {}
        for mask in range(1, x2n.full_mask + 1):
            f = Filter(x2n, mask)
            cores[f.core] = is_minimal_cauchy(f).ok
            assert cores[f.core] == (is_cauchy(f).ok and is_round(f).ok)
        assert cores == {("a",): False, ("b",): False, ("a", "b"): True}

    def test_closed_form_matches_enumeration(self, x2n, xq1):
        # xq1 has no test values: every filter is Cauchy, none is round, and
        # only the core X is minimal
        from qc.verify import _oracle_battery, definitional_is_minimal_cauchy

        assert is_minimal_cauchy(Filter(xq1, xq1.full_mask)).ok
        spaces = [s for n in (1, 2, 3) for s in _oracle_battery(n)] + [x2n, xq1]
        outcomes = set()
        for space in spaces:
            for mask in range(1, space.full_mask + 1):
                f = Filter(space, mask)
                closed = is_minimal_cauchy(f)
                assert closed == definitional_is_minimal_cauchy(f), (space, mask)
                outcomes.add((closed.ok, (closed.witness or {}).get("reason")))
        assert outcomes == {
            (True, None), (False, "not cauchy"), (False, "proper cauchy subfilter")
        }

    def test_one_element_quantale(self, Q1):
        # Q1 has no test values, and every distance is 0: each zero
        # neighbourhood is the carrier, so each point filter is {X} on both
        # sides and X is the only minimal Cauchy core
        from qc.verify import definitional_is_minimal_cauchy

        for n in range(5):
            names = [f"p{i}" for i in range(n)]
            space = VSpace(Q1, names, [[0] * n for _ in range(n)])
            assert not space.test_values
            assert space.zero_fwd == space.zero_bwd == (space.full_mask,) * n
            for p in names:
                for side in ("forward", "backward"):
                    assert point_filter(space, p, side).core == tuple(names)
            for mask in range(1, space.full_mask + 1):
                f = Filter(space, mask)
                got = is_minimal_cauchy(f)
                assert got == definitional_is_minimal_cauchy(f)
                if mask == space.full_mask:
                    assert got.ok
                else:
                    want = {"reason": "proper cauchy subfilter", "core": tuple(names)}
                    assert got.witness == want


class TestConverges:
    def test_principal_converges_to_its_point(self, x2a, x3z):
        for space in (x2a, x3z):
            for p in space.points:
                assert converges(principal_filter(space, [p]), p).ok

    def test_non_unique_limits(self, x3z):
        # d(a,b)=0 keeps b inside every forward ball around a
        assert converges(principal_filter(x3z, ["b"]), "a").ok
        assert converges(principal_filter(x3z, ["b"]), "b").ok

    def test_divergent(self, x2a):
        verdict = converges(principal_filter(x2a, ["b"]), "a")
        assert not verdict.ok
        assert verdict.witness == {"epsilon": "1/2"}

    def test_matches_point_filter_inclusion(self, x2a, x2n, x3z):
        for space in (x2a, x2n, x3z):
            for mask in range(space.full_mask + 1):
                f = Filter(space, mask)
                for p in space.points:
                    expected = (
                        f.core_mask | point_filter(space, p).core_mask
                    ) == point_filter(space, p).core_mask
                    assert converges(f, p).ok == expected


class TestFilterDistance:
    def test_embedding_values(self, x2a):
        assert filter_distance(point_filter(x2a, "a"), point_filter(x2a, "b")) == 1
        assert filter_distance(point_filter(x2a, "b"), point_filter(x2a, "a")) == 2

    def test_self_distance_zero(self, x3z):
        for mask in range(1, x3z.full_mask + 1):
            f = Filter(x3z, mask)
            assert filter_distance(f, f) == 0

    def test_improper_gives_top(self, x2a):
        assert filter_distance(
            principal_filter(x2a, ["a"]), improper_filter(x2a)
        ) == INF

    def test_equals_core_set_distance(self, x3z):
        for m1 in range(x3z.full_mask + 1):
            for m2 in range(x3z.full_mask + 1):
                f, g = Filter(x3z, m1), Filter(x3z, m2)
                assert filter_distance(f, g) == set_distance(x3z, f.core, g.core)

    def test_space_mismatch(self, x2a, x3z):
        with pytest.raises(DomainMismatchError):
            filter_distance(improper_filter(x2a), improper_filter(x3z))


class TestFilterMorphism:
    def test_identity_always(self, x2a):
        for mask in range(x2a.full_mask + 1):
            f = Filter(x2a, mask)
            assert is_filter_morphism({"a": "a", "b": "b"}, f, f).ok

    def test_powerset_source_accepts_all_uc(self, x2a, x3z):
        # uniformly continuous maps out of the improper filter hit any target
        fmap = {"a": "c", "b": "c"}
        for mask in range(x3z.full_mask + 1):
            assert is_filter_morphism(
                fmap, improper_filter(x2a), Filter(x3z, mask)
            ).ok

    def test_swap_on_x2n_fails(self, x2n):
        verdict = is_filter_morphism(
            {"a": "b", "b": "a"},
            principal_filter(x2n, ["a"]),
            principal_filter(x2n, ["a"]),
        )
        assert not verdict.ok
        assert verdict.witness["reason"] == "not uniformly continuous"

    def test_core_condition(self, x2a):
        ident = {"a": "a", "b": "b"}
        small = principal_filter(x2a, ["a"])
        big = principal_filter(x2a, ["a", "b"])
        assert is_filter_morphism(ident, small, big).ok
        assert not is_filter_morphism(ident, big, small).ok
