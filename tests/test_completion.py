from fractions import Fraction

import pytest

from qc import (
    EXT_RATIONAL,
    INF,
    Filter,
    InstanceGenerator,
    InvariantError,
    PreconditionError,
    VSpace,
    canonical_embedding,
    cauchy_filter_space,
    classify,
    complete,
    extend_to_completion,
    filter_distance,
    filter_point_name,
    has_uniformly_vanishing_asymmetry,
    induced_completion_map,
    is_cauchy,
    is_cauchy_complete,
    is_minimal_cauchy,
    is_uniformly_continuous,
    minimal_cauchy_filters,
    point_filter,
    separation_quotient,
    validate_vspace,
    zero_distance_intersection_cauchy,
)
from qc.verify import definitional_extension
from helpers import ball_raw, generated, leq_ext

E = EXT_RATIONAL


def cauchy_cores_oracle(space):
    """Proper Cauchy cores from first principles: every test radius has a
    covering ball."""
    out = []
    pts = list(space.points)
    for mask in range(1, 1 << space.size):
        core = {p for i, p in enumerate(pts) if mask >> i & 1}
        ok = all(
            any(
                core <= ball_raw(pts, space.dmat, x, eps)
                for x in pts
            )
            for eps in space.test_values
        )
        if ok:
            out.append(frozenset(core))
    return out


class TestCauchyFilterSpace:
    def test_x2a(self, x2a):
        result = cauchy_filter_space(x2a)
        assert [f.core for f in result.filters] == [("a",), ("b",)]
        assert result.space.d("{a}", "{b}") == 1
        assert result.space.d("{b}", "{a}") == 2

    def test_x3z_cores_match_oracle(self, x3z):
        result = cauchy_filter_space(x3z)
        got = [frozenset(f.core) for f in result.filters]
        assert got == cauchy_cores_oracle(x3z)
        assert sorted(map(sorted, got)) == [["a"], ["a", "b"], ["b"], ["c"]]

    def test_one_point(self):
        one = VSpace(E, ["p"], [[0]])
        assert len(cauchy_filter_space(one).filters) == 1

    def test_non_uva_base_enumerated(self, x2n):
        # without UVA the filters are still every proper Cauchy core
        result = cauchy_filter_space(x2n)
        assert [frozenset(f.core) for f in result.filters] == cauchy_cores_oracle(x2n)

    def test_size_cap(self, monkeypatch):
        # the 2^n oracles refuse carriers past a fixed 16 points; no
        # environment variable or parameter moves that limit
        space = VSpace(E, [f"p{i}" for i in range(17)], [[0] * 17 for _ in range(17)])
        monkeypatch.setenv("QC_MAX_POINTS", "64")
        for oracle in (
            cauchy_filter_space,
            is_cauchy_complete,
            zero_distance_intersection_cauchy,
        ):
            with pytest.raises(PreconditionError) as err:
                oracle(space)
            assert "at most 16" in str(err.value)


class TestComplete:
    def test_x2a_already_complete(self, x2a):
        comp = complete(x2a)
        assert comp.space.points == ("{a}", "{b}")
        assert comp.space.d("{a}", "{b}") == 1
        assert comp.embedding == {"a": 0, "b": 1}

    def test_x3z_two_points(self, x3z):
        comp = complete(x3z)
        assert comp.space.points == ("{a,b}", "{c}")
        assert comp.space.d("{a,b}", "{c}") == 1
        assert comp.space.d("{c}", "{a,b}") == 1
        assert comp.embedding == {"a": 0, "b": 0, "c": 1}

    def test_one_point(self):
        comp = complete(VSpace(E, ["p"], [[0]]))
        assert comp.space.points == ("{p}",)

    def test_refuses_non_uva(self, x2n):
        with pytest.raises(PreconditionError) as err:
            complete(x2n)
        assert "uniformly vanishing asymmetry" in str(err.value)

    def test_filters_are_minimal_cauchy(self, x3z):
        comp = complete(x3z)
        for f in comp.filters:
            assert f.proper
            assert is_cauchy(f).ok
            assert is_minimal_cauchy(f).ok

    def test_result_separated_uva(self, x2a, x3z, xq1):
        for space in (x2a, x3z, xq1):
            comp = complete(space)
            assert classify(comp.space)["separated"]
            assert has_uniformly_vanishing_asymmetry(comp.space).ok
            assert validate_vspace(comp.space).ok

    def test_degenerate_single_point(self, xq1):
        comp = complete(xq1)
        assert comp.space.points == ("{p,q}",)

    def test_large_clustered_space(self):
        # points in interleaved zero-distance clusters, far past the 2^n
        # reach: the closed form still yields one filter per cluster.  The
        # 20-cluster skeleton has asymmetric distances in [2, 3], so every
        # two-step sum exceeds every distance.
        wide = [
            [0 if a == b else 2 + Fraction((7 * a + 3 * b) % 5, 4) for b in range(20)]
            for a in range(20)
        ]
        for n, skeleton in ((24, [[0, 1, 2], [2, 0, 1], [3, 1, 0]]), (200, wide)):
            c = len(skeleton)
            space = VSpace(
                E,
                [f"p{i}" for i in range(n)],
                [[skeleton[i % c][j % c] for j in range(n)] for i in range(n)],
            )
            comp = complete(space)
            assert len(comp.filters) == c
            assert [f.core for f in comp.filters] == [
                tuple(f"p{i}" for i in range(n) if i % c == k) for k in range(c)
            ]
            assert comp.embedding == {f"p{i}": i % c for i in range(n)}
            assert [list(row) for row in comp.space.dmat] == skeleton
            assert validate_vspace(comp.space).ok

    def test_idempotent_up_to_isometry(self, x3z):
        comp = complete(x3z)
        again = complete(comp.space)
        assert len(again.filters) == len(comp.filters)
        assert sorted(again.embedding.values()) == list(range(len(again.filters)))


class TestCanonicalEmbedding:
    def test_x2a(self, x2a):
        emb = canonical_embedding(x2a)
        assert emb["a"].core == ("a",)
        assert filter_distance(emb["a"], emb["b"]) == 1

    def test_x3z_collapses(self, x3z):
        emb = canonical_embedding(x3z)
        assert emb["a"] == emb["b"]
        assert emb["a"].core == ("a", "b")

    def test_injective_iff_separated(self, x2a, x3z):
        assert len(set(canonical_embedding(x2a).values())) == x2a.size
        assert len(set(canonical_embedding(x3z).values())) < x3z.size

    def test_refuses_non_uva(self, x2n):
        with pytest.raises(PreconditionError):
            canonical_embedding(x2n)

    def test_is_the_completion_embedding(self, x2a, x3z, Q1, Q3, chain4, pinched):
        # over each quantale (Q1 has no test values) and the empty carrier
        spaces = [x2a, x3z, VSpace(E, [], [])]
        spaces += [s for _, s in generated(InstanceGenerator(seed=31, force_uva=True), 40)]
        for k, q in enumerate((Q1, Q3, chain4, pinched)):
            gen = InstanceGenerator(seed=700 + k, quantale=q, min_points=1, max_points=6,
                                    zero_weight=1, force_uva=True)
            spaces += [s for _, s in generated(gen, 40)]
        assert 0 < sum(not classify(s)["separated"] for s in spaces) < len(spaces)
        assert any(not s.test_values for s in spaces)
        for space in spaces:
            comp = complete(space)
            emb = canonical_embedding(space)
            assert emb == {p: comp.filters[comp.embedding[p]] for p in space.points}
            assert all(f == point_filter(space, p) for p, f in emb.items())


class TestPointCores:
    """`complete` reads each point-filter core from the zero masks without
    calling `point_filter`."""

    def test_no_point_filter_and_one_filter_per_completion_point(self, monkeypatch, x3z):
        import qc.completion as completion
        import qc.filters as filters

        def refuse(*args, **kwargs):
            raise AssertionError("point_filter called")

        built = []

        def counted(*args):
            built.append(args)
            return Filter(*args)

        monkeypatch.setattr(filters, "point_filter", refuse)
        monkeypatch.setattr(completion, "point_filter", refuse, raising=False)
        monkeypatch.setattr(completion, "Filter", counted)
        spaces = [x3z] + [s for _, s in generated(InstanceGenerator(seed=41, force_uva=True), 20)]
        for space in spaces:
            built.clear()
            comp = complete(space)
            assert len(built) == len(comp.filters)


class TestCauchyComplete:
    def test_x2a(self, x2a):
        assert is_cauchy_complete(x2a).ok

    def test_completion_is_complete(self, x3z):
        assert is_cauchy_complete(complete(x3z).space).ok

    def test_empty_space_vacuous(self):
        assert is_cauchy_complete(VSpace(E, [], [])).ok

    def test_incomplete_space_witness(self, x3z):
        # remove the collapsed representative: {a,b} has no limit among
        # the surviving points of this asymmetric-free example
        space = VSpace(
            E,
            ["a", "b", "c"],
            [[0, 1, 2], [1, 0, 2], [2, 2, 0]],
        )
        # every singleton converges; {a,b} is not Cauchy here, so complete
        assert is_cauchy_complete(space).ok

    def test_op_completeness_matches_on_uva(self, x2a, x3z, xq1):
        for space in (x2a, x3z, xq1):
            assert is_cauchy_complete(space).ok == is_cauchy_complete(space.dual()).ok


def definitional_minimal_masks(space):
    """Cores of the minimal Cauchy filters by enumeration: the Cauchy cores
    no strictly larger Cauchy core contains, ascending."""
    cauchy = [m for m in range(1, space.full_mask + 1) if is_cauchy(Filter(space, m))]
    return [m for m in cauchy if not any(c != m and c & m == m for c in cauchy)]


class TestMinimalFilters:
    def test_closed_form_matches_enumeration(self, Q1, Q3, chain4, pinched):
        compared = multi = non_uva = 0
        for k, q in enumerate((E, Q1, Q3, chain4, pinched)):
            for force_uva in (False, True):
                # a low zero weight keeps clusters apart, so many spaces
                # have several minimal filters
                gen = InstanceGenerator(
                    seed=900 + 2 * k + force_uva, quantale=q, min_points=1,
                    max_points=6, zero_weight=1, force_uva=force_uva,
                )
                for _, space in generated(gen, 100):
                    got = [f.core_mask for f in minimal_cauchy_filters(space)]
                    assert got == definitional_minimal_masks(space), space.dmat
                    compared += 1
                    multi += len(got) > 1
                    non_uva += not has_uniformly_vanishing_asymmetry(space)
        assert compared == 1000
        assert multi >= 300 and non_uva >= 200

    def test_maximal_zero_classes(self, x3z):
        cores = [f.core for f in minimal_cauchy_filters(x3z)]
        assert cores == [("a", "b"), ("c",)]

    def test_empty_space(self):
        assert minimal_cauchy_filters(VSpace(E, [], [])) == ()


class TestFilterSpaceBuilder:
    """The rank-class builder behind `complete` and `cauchy_filter_space`
    against the checked meet of every cross pair, entry by entry."""

    @staticmethod
    def _assert_matches_definition(space):
        from qc.completion import _filters_to_space
        from qc.verify import definitional_set_distance

        masks = range(1, space.full_mask + 1)
        built = _filters_to_space(space, [Filter(space, m) for m in masks])
        for a, sm in enumerate(masks):
            for b, tm in enumerate(masks):
                want = definitional_set_distance(space, sm, tm)
                assert built.dmat[a][b] == want, (space.dmat, sm, tm)
        return built

    def test_matches_definitional_set_distance(self, Q3, chain4, pinched):
        import random

        from test_vspace import _raw_space

        rng = random.Random(20261020)
        kinds = {True: 0, False: 0}
        for k, q in enumerate((E, Q3, chain4, pinched)):
            spaces = [_raw_space(rng, q, rng.randint(1, 4)) for _ in range(15)]
            for force_uva in (False, True):
                gen = InstanceGenerator(
                    seed=700 + 2 * k + force_uva, quantale=q, min_points=1,
                    max_points=4, zero_weight=1, force_uva=force_uva,
                )
                spaces += [space for _, space in generated(gen, 15)]
            for space in spaces:
                self._assert_matches_definition(space)
                kinds[bool(has_uniformly_vanishing_asymmetry(space))] += 1
        assert min(kinds.values()) >= 30, kinds

    def test_checks_no_value(self, Q3, pinched):
        # the meets are elements of the base's quantale already: building the
        # filter space makes no `quantale.check` call, while a space built
        # from the same matrix checks its entries
        import random

        from helpers import count_checks
        from qc.completion import _filters_to_space
        from test_vspace import _raw_space

        rng = random.Random(20261024)
        built = 0
        for t in range(60):
            q = (E, Q3, pinched)[t % 3]
            space = _raw_space(rng, q, rng.randint(1, 4))
            filters = [Filter(space, m) for m in range(1, space.full_mask + 1)]
            assert count_checks(lambda: _filters_to_space(space, filters)) == 0
            tilde = _filters_to_space(space, filters)
            assert count_checks(lambda: VSpace(q, tilde.points, tilde.dmat)) == len(tilde._ranks.values)
            built += len(filters) > 1
        assert built > 30

    def test_meet_outside_the_base(self, pinched):
        # a and b are incomparable; the distance from {x} to {y,z} is their
        # meet e, which no entry of the base holds
        names = {n: i for i, n in enumerate(pinched.names)}
        z, e, a, b, top = (names[n] for n in ("0", "e", "a", "b", "T"))
        space = VSpace(pinched, ["x", "y", "z"], [[z, a, b], [top, z, top], [top, top, z]])
        assert validate_vspace(space).ok and e not in space._ranks.values
        built = self._assert_matches_definition(space)
        assert built.d("{x}", "{y,z}") == e
        assert built._ranks.values == tuple(sorted(built._ranks.values, key=pinched.sort_key))


class TestExtension:
    def test_identity_extension(self, x2a):
        comp = complete(x2a)
        fmap = {
            p: filter_point_name(comp.filters[comp.embedding[p]]) for p in x2a.points
        }
        result = extend_to_completion(fmap, comp, comp.space)
        # the embedding is onto, so the extension is the identity
        assert result.completion is comp
        assert result.mapping == {p: p for p in comp.space.points}
        assert definitional_extension(fmap, comp, comp.space) == result.mapping

    def test_projection_extension(self, x3z):
        # a non-separated source: a and b are one class, sent to one point
        comp = complete(x3z)
        fmap = {"a": "{a,b}", "b": "{a,b}", "c": "{c}"}
        result = extend_to_completion(fmap, comp, comp.space)
        assert result.mapping == {"{a,b}": "{a,b}", "{c}": "{c}"}
        assert definitional_extension(fmap, comp, comp.space) == result.mapping
        for p in x3z.points:
            assert result.mapping[comp.space.points[comp.embedding[p]]] == fmap[p]

    def test_constant_extension(self, x2a, x3z):
        target = complete(x3z).space
        fmap = {p: "{c}" for p in x2a.points}
        result = extend_to_completion(fmap, complete(x2a), target)
        assert set(result.mapping.values()) == {"{c}"}

    def test_hypotheses_reported(self, x2s, x3z):
        comp = complete(x3z)
        # splits the zero-distance class {a, b} of the non-separated source
        split = {"a": "a", "b": "b", "c": "a"}
        assert not is_uniformly_continuous(split, x3z, x2s)
        with pytest.raises(PreconditionError) as err:
            extend_to_completion(split, comp, x2s)
        assert str(err.value) == "map is not uniformly continuous"
        with pytest.raises(PreconditionError) as err:
            extend_to_completion({"a": "a", "b": "c", "c": "c"}, comp, x3z)
        assert str(err.value) == (
            "target is not separated; map is not uniformly continuous"
        )


    def test_closed_form_matches_limit_construction(self):
        # every uniformly continuous map between UVA battery spaces over
        # one quantale, then five maps from each of 40 free UVA instances,
        # 22 of them not separated; the target is always a completion
        import random
        from itertools import product

        from qc.verify import _oracle_battery

        def uc_maps(source, target):
            for values in product(target.points, repeat=source.size):
                fmap = dict(zip(source.points, values))
                if is_uniformly_continuous(fmap, source, target):
                    yield fmap

        def assert_matches(fmap, comp, target):
            closed = extend_to_completion(fmap, comp, target).mapping
            assert closed == definitional_extension(fmap, comp, target), fmap

        battery = [
            s for n in (1, 2, 3) for s in _oracle_battery(n)
            if has_uniformly_vanishing_asymmetry(s)
        ]
        checked = 0
        for source in battery:
            comp = complete(source)
            for base in battery:
                if base.quantale == source.quantale:
                    target = complete(base).space
                    for fmap in uc_maps(source, target):
                        assert_matches(fmap, comp, target)
                        checked += 1
        rng = random.Random(44)
        free = [s for _, s in generated(InstanceGenerator(seed=44, max_points=4), 200)
                if has_uniformly_vanishing_asymmetry(s)][:40]
        targets = generated(InstanceGenerator(seed=45, max_points=3, force_uva=True), 40)
        for source, (_, base) in zip(free, targets):
            comp, target = complete(source), complete(base).space
            maps = list(uc_maps(source, target))
            for fmap in rng.sample(maps, min(5, len(maps))):
                assert_matches(fmap, comp, target)
        assert checked == 703 and len(free) == 40
        assert sum(not classify(s)["separated"] for s in free) == 22


class TestFunctorial:
    def test_induced_map_commutes(self, x2a, x3z):
        source = x2a
        target, _ = separation_quotient(x3z)
        fmap = {"a": "a", "b": "c"}
        cs, ct = complete(source), complete(target)
        induced = induced_completion_map(fmap, cs, ct)
        for p in source.points:
            via = induced[filter_point_name(cs.filters[cs.embedding[p]])]
            direct = filter_point_name(ct.filters[ct.embedding[fmap[p]]])
            assert via == direct


class TestZeroDistanceIntersection:
    def test_holds_on_uva(self, x2a, x3z, xq1):
        for space in (x2a, x3z, xq1):
            assert zero_distance_intersection_cauchy(space).ok


class TestEmptySpace:
    def test_empty_completion(self):
        empty = VSpace(E, [], [])
        comp = complete(empty)
        assert comp.filters == ()
        assert comp.space.size == 0
        assert comp.embedding == {}


class TestRepeatedCompletions:
    def test_hold_no_memory(self):
        # the tuples a parse and a completion build are freed whole: none is
        # built by resizing, which on CPython parks a tuple on the free list
        # of its final size each time, until thousands are held
        import gc
        import random
        import sys

        from qc import serialize

        rng = random.Random(20261019)
        payloads = []
        for n in (6, 7, 8, 9, 11):
            site = [rng.randrange(3) for _ in range(n)]
            d = [["0" if site[i] == site[j] else str(2 + abs(site[i] - site[j]))
                  for j in range(n)] for i in range(n)]
            payloads.append({"quantale": "ext_rational",
                             "points": [f"p{i}" for i in range(n)], "d": d})

        def run(times):
            for _ in range(times):
                for payload in payloads:
                    comp = complete(serialize.parse_space(payload))
                    [f.core for f in comp.filters]

        # a full collection empties the free lists, so none may run between
        # the two counts; nothing here makes a reference cycle
        run(20)
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            run(300)
            held = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        assert held < 300
