from fractions import Fraction

import pytest

from qc import (
    EXT_RATIONAL,
    INF,
    DomainMismatchError,
    FiniteQuantale,
    PreconditionError,
    StructureError,
    VSpace,
    ball,
    ball_of_set,
    classify,
    combined_test_values,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    separation_quotient,
    set_distance,
    symmetry_modulus,
    validate_vspace,
    Verdict,
)

from helpers import ball_raw, saturating_add, triangle_holds

E = EXT_RATIONAL


class TestValidate:
    def test_x2a_valid(self, x2a):
        # oracle: all 8 triples checked directly on the matrix
        assert triangle_holds(x2a.dmat)
        assert validate_vspace(x2a).ok

    def test_triangle_violation_with_witness(self):
        space = VSpace(
            E, ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [1, 1, 0]]
        )
        report = validate_vspace(space)
        assert not report.ok
        assert report.failures[0].check == "triangle"
        assert report.failures[0].witness["triple"] == ("a", "b", "c")

    def test_nonzero_diagonal_invalid(self):
        space = VSpace(E, ["a"], [[1]])
        report = validate_vspace(space)
        assert report.failed_checks() == ("zero-diagonal",)

    def test_shape_errors(self):
        with pytest.raises(StructureError):
            VSpace(E, ["a", "b"], [[0, 1]])
        with pytest.raises(StructureError):
            VSpace(E, ["a", "a"], [[0, 0], [0, 0]])
        with pytest.raises(DomainMismatchError):
            VSpace(E, ["a"], [[0.5]])


class TestDual:
    def test_transpose(self, x2a):
        op = x2a.dual()
        assert op.d("a", "b") == 2 and op.d("b", "a") == 1
        # the transposed ranks, over the same values and keys objects
        form, opf = x2a._ranks, op._ranks
        assert opf.values is form.values and opf.keys is form.keys
        assert tuple(map(tuple, opf.rank)) == tuple(zip(*form.rank))
        assert opf.transpose is form.rank

    def test_symmetric_fixed(self, x2s):
        assert x2s.dual() == x2s

    def test_involution(self, x2a):
        # built once and linked back: an involution on objects
        assert x2a.dual().dual() is x2a
        assert x2a.dual() is x2a.dual()


class TestCarrierAttributes:
    def test_size_and_full_mask_follow_the_points(self, x3z):
        from qc import complete

        spaces = [VSpace(E, [f"p{i}" for i in range(n)], [[0] * n for _ in range(n)])
                  for n in range(5)]
        spaces += [x3z.dual(), separation_quotient(x3z)[0], complete(x3z).space]
        for space in spaces:
            assert space.size == len(space.points)
            assert space.full_mask == (1 << len(space.points)) - 1


class TestBalls:
    def test_forward(self, x2a):
        assert ball(x2a, "a", Fraction(1)) == frozenset({"a", "b"})
        assert ball(x2a, "a", Fraction(1)) == ball_raw(
            list(x2a.points), x2a.dmat, "a", Fraction(1)
        )

    def test_backward(self, x2a):
        assert ball(x2a, "a", Fraction(1), "backward") == frozenset({"a"})

    def test_top_radius_covers(self, x2a, x3z):
        for space in (x2a, x3z):
            for p in space.points:
                assert ball(space, p, INF) == frozenset(space.points)

    def test_backward_equals_forward_on_dual(self, x2a, x3z):
        for space in (x2a, x3z):
            for p in space.points:
                for eps in space.test_values:
                    assert ball(space, p, eps, "backward") == ball(
                        space.dual(), p, eps, "forward"
                    )

    def test_unknown_point(self, x2a):
        with pytest.raises(StructureError):
            ball(x2a, "z", Fraction(1))

    def test_monotone_in_radius(self, x3z):
        tv = x3z.test_values
        for p in x3z.points:
            for small, big in zip(tv, tv[1:]):
                assert ball(x3z, p, small) <= ball(x3z, p, big)
            assert p in ball(x3z, p, Fraction(0))


class TestBallOfSet:
    def test_zero_radius_contains_centres(self, x2a):
        assert ball_of_set(x2a, ["a", "b"], Fraction(0)) == frozenset({"a", "b"})

    def test_empty_union(self, x2a):
        assert ball_of_set(x2a, [], Fraction(1)) == frozenset()

    def test_x3z_half(self, x3z):
        assert ball_of_set(x3z, ["a"], Fraction(1, 2)) == frozenset({"a", "b"})

    def test_monotone(self, x3z):
        small = ball_of_set(x3z, ["a"], Fraction(1, 2))
        bigger_set = ball_of_set(x3z, ["a", "c"], Fraction(1, 2))
        bigger_eps = ball_of_set(x3z, ["a"], Fraction(2))
        assert small <= bigger_set and small <= bigger_eps


class TestSetDistance:
    def test_singletons(self, x2a):
        assert set_distance(x2a, ["a"], ["b"]) == Fraction(1)

    def test_overlap_gives_zero(self, x2a):
        assert set_distance(x2a, ["a", "b"], ["b"]) == 0

    def test_empty_gives_top(self, x2a):
        assert set_distance(x2a, [], ["b"]) == INF
        assert set_distance(x2a, ["a"], []) == INF

    def test_antitone(self, x3z):
        d_small = set_distance(x3z, ["a"], ["c"])
        d_big = set_distance(x3z, ["a", "c"], ["c"])
        assert E.leq(d_big, d_small)


class TestClassify:
    def test_x2a(self, x2a):
        assert classify(x2a) == {"symmetric": False, "separated": True}

    def test_x3z(self, x3z):
        assert classify(x3z) == {"symmetric": True, "separated": False}

    def test_one_point(self):
        assert classify(VSpace(E, ["p"], [[0]])) == {
            "symmetric": True,
            "separated": True,
        }


class TestSeparationQuotient:
    def test_x3z_quotient(self, x3z):
        quotient, projection = separation_quotient(x3z)
        assert quotient.points == ("a", "c")
        assert quotient.d("a", "c") == 1 and quotient.d("c", "a") == 1
        assert projection == {"a": "a", "b": "a", "c": "c"}
        assert classify(quotient)["separated"]

    def test_separated_input_identity(self, x2a):
        quotient, projection = separation_quotient(x2a)
        assert quotient == x2a
        assert projection == {"a": "a", "b": "b"}

    def test_degenerate_collapses(self, xq1):
        quotient, projection = separation_quotient(xq1)
        assert quotient.size == 1
        assert set(projection.values()) == {"p"}

    def test_projection_preserves_distance(self, x3z):
        quotient, projection = separation_quotient(x3z)
        for x in x3z.points:
            for y in x3z.points:
                assert quotient.d(projection[x], projection[y]) == x3z.d(x, y)

    def test_matches_per_entry_definition(self, Q1, Q3, chain4, pinched):
        # classes and representative independence are read off the rank
        # form; the reference compares entries
        import random

        from qc.errors import InvariantError

        rng = random.Random(20261020)
        quantales = (E, Q1, Q3, chain4, pinched)
        refused = collapsed = 0
        for t in range(400):
            q = quantales[t % len(quantales)]
            space = _raw_space(rng, q, rng.randint(0, 6))
            d, n = space.dmat, space.size
            rep = list(range(n))
            for i in range(n):
                for j in range(i):
                    if d[i][j] == d[j][i] == q.bottom and rep[i] == i:
                        rep[i] = rep[j]
            reps = sorted(set(rep))
            if any(d[i][j] != d[rep[i]][rep[j]] for i in range(n) for j in range(n)):
                refused += 1
                with pytest.raises(InvariantError, match="representative independent"):
                    separation_quotient(space)
                continue
            collapsed += len(reps) < n
            quotient, projection = separation_quotient(space)
            assert quotient.points == tuple(space.points[r] for r in reps)
            assert quotient.dmat == tuple(tuple(d[r][s] for s in reps) for r in reps)
            assert projection == {space.points[i]: space.points[rep[i]] for i in range(n)}
            # the rank form is the base's, selected: the same values and keys
            # objects, equal to the form the constructor builds from entries
            form, built = quotient._ranks, VSpace(q, quotient.points, quotient.dmat)._ranks
            assert form.values is space._ranks.values and form.keys is space._ranks.keys
            assert (form.values, form.rank, form.keys) == (built.values, built.rank, built.keys)
        assert refused > 20 and collapsed > 20, (refused, collapsed)

    def test_checks_no_value(self, Q3, pinched):
        # a profiler counts the `quantale.check` calls: building the quotient
        # makes none, while building a space from the same entries does
        import random
        import sys

        import qc.quantale
        from qc.errors import InvariantError

        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name == "check":
                if code.co_filename == qc.quantale.__file__:
                    calls.append(code.co_name)

        def count(build):
            del calls[:]
            old = sys.getprofile()
            sys.setprofile(profile)
            try:
                build()
            finally:
                sys.setprofile(old)
            return len(calls)

        rng = random.Random(20261021)
        quantales = (E, Q3, pinched)
        collapsed = 0
        for t in range(90):
            q = quantales[t % 3]
            # copies of the points of a raw space, at distance 0 from each other
            d = [list(row) for row in _raw_space(rng, q, rng.randint(1, 4)).dmat]
            for i, row in enumerate(d):
                row[i] = q.bottom
            src = [rng.randrange(len(d)) for _ in range(rng.randint(1, 7))]
            space = VSpace(q, [f"p{x}" for x in range(len(src))], [[d[a][b] for b in src] for a in src])
            base = count(lambda: VSpace(q, space.points, space.dmat))
            assert base > 0
            try:
                separation_quotient(space)
            except InvariantError:
                continue
            quotient = []
            assert count(lambda: quotient.append(separation_quotient(space)[0])) == 0
            collapsed += quotient[0].size < space.size
        assert collapsed > 40, collapsed


class TestEpsilonTestSet:
    def test_x2a_values(self, x2a):
        assert x2a.test_values == (Fraction(1, 2), Fraction(1), Fraction(2), INF)

    def test_finite_quantale_positives(self, Q3):
        space = VSpace(Q3, ["a", "b"], [[0, 1], [1, 0]])
        assert space.test_values == Q3.positives
        assert [Q3.format(e) for e in Q3.positives] == ["0", "1", "inf"]

    def test_all_zero_space(self):
        space = VSpace(E, ["a", "b"], [[0, 0], [0, 0]])
        assert space.test_values == (Fraction(1), INF)

    def test_all_values_positive(self, x2a, x3z):
        for space in (x2a, x3z):
            for eps in space.test_values:
                assert E.well_above(eps, Fraction(0))


class TestSymmetryModulus:
    def test_x2a_uniform(self, x2a):
        # oracle: direct scan of the flip condition over the test set
        def flips(delta, eps):
            return all(
                not E.leq(x2a.d(y, x), delta) or E.leq(x2a.d(x, y), eps)
                for x in x2a.points
                for y in x2a.points
            )

        working = [d for d in x2a.test_values if flips(d, Fraction(1))]
        assert working == [Fraction(1, 2)]
        assert symmetry_modulus(x2a, Fraction(1)) == Fraction(1, 2)

    def test_x2n_absent(self, x2n):
        assert symmetry_modulus(x2n, Fraction(1, 2)) is None

    def test_symmetric_space_epsilon_is_admissible(self, x2s):
        # on a symmetric space eps itself flips bounds, so a modulus always
        # exists and the returned one is at least eps
        from qc.vspace import _uniform_flip_ok

        for eps in x2s.test_values:
            assert _uniform_flip_ok(x2s, eps, eps) is None
            delta = symmetry_modulus(x2s, eps)
            assert delta is not None
            assert E.leq(eps, delta)

    def test_pointwise_mode(self, x2n):
        assert symmetry_modulus(x2n, Fraction(1, 2), "pointwise", "a") is None
        assert symmetry_modulus(x2n, INF, "pointwise", "b") is not None

    def test_requires_positive_epsilon(self, x2a):
        with pytest.raises(PreconditionError):
            symmetry_modulus(x2a, Fraction(0))

    def test_bisection_computes_logarithmically_many_balls(self, monkeypatch):
        # 64 points with d(i, j) = 1 + (64i + j)/10000 off the diagonal and
        # 4,034 test values: a chain, so each modulus is a bisection.  A
        # delta is admissible iff it lies below every d(y, x) whose flip
        # d(x, y) exceeds eps (pointwise at x, also with x and y swapped), so
        # the modulus is the largest test value below the least such entry
        from qc.vspace import _RankForm

        n = 64
        names = [f"p{i}" for i in range(n)]
        d = [[0 if i == j else 1 + Fraction(64 * i + j, 10000) for j in range(n)] for i in range(n)]
        space = VSpace(E, names, d)
        tv = space.test_values
        assert len(tv) == 4034

        def expected(eps, pairs):
            bounds = [d[y][x] for x, y in pairs if not E.leq(d[x][y], eps)]
            below = [t for t in tv if all(E.leq(t, b) and t != b for b in bounds)]
            return below[-1] if below else None

        every_pair = [(x, y) for x in range(n) for y in range(n)]
        computed = 0
        masks = _RankForm.masks

        def counting(form, ranks, forward):
            nonlocal computed
            computed += 1
            return masks(form, ranks, forward)

        monkeypatch.setattr(_RankForm, "masks", counting)
        for eps in (tv[0], tv[1], tv[len(tv) // 2], tv[-2], INF):
            for mode, x in (("uniform", None), ("pointwise", 0), ("pointwise", 37)):
                space._ball_cache.clear()
                computed = 0
                if x is None:
                    want = expected(eps, every_pair)
                else:
                    want = expected(eps, [(x, y) for y in range(n)] + [(y, x) for y in range(n)])
                assert symmetry_modulus(space, eps, mode, None if x is None else names[x]) == want
                # one bisection step reads the delta balls of its side(s)
                # beside the eps balls computed once
                assert 0 < computed <= 3 * len(tv).bit_length(), (eps, mode, computed)


class TestAsymmetryClasses:
    def test_x2a_uva(self, x2a):
        assert has_uniformly_vanishing_asymmetry(x2a).ok

    def test_x2n_witness(self, x2n):
        verdict = has_uniformly_vanishing_asymmetry(x2n)
        assert not verdict.ok
        assert verdict.witness["epsilon"] == "1/2"

    def test_symmetric_always_uva(self, x2s, x3z):
        assert has_uniformly_vanishing_asymmetry(x2s).ok
        assert has_uniformly_vanishing_asymmetry(x3z).ok

    def test_uva_implies_va(self, x2a, x2n, x2s, x3z, xq1):
        for space in (x2a, x2n, x2s, x3z, xq1):
            uva = has_uniformly_vanishing_asymmetry(space)
            va = has_vanishing_asymmetry(space)
            assert not uva.ok or va.ok

    def test_degenerate_quantale_vacuous(self, xq1):
        assert has_uniformly_vanishing_asymmetry(xq1).ok
        assert has_vanishing_asymmetry(xq1).ok

    def test_quotient_inherits(self, x3z):
        quotient, _ = separation_quotient(x3z)
        assert has_uniformly_vanishing_asymmetry(quotient).ok


class TestUniformContinuity:
    def test_identity(self, x2a):
        assert is_uniformly_continuous({"a": "a", "b": "b"}, x2a, x2a).ok

    def test_swap_on_x2n(self, x2n):
        verdict = is_uniformly_continuous({"a": "b", "b": "a"}, x2n, x2n)
        assert not verdict.ok
        assert verdict.witness == {"epsilon": "1/2", "pair": ("a", "b")}

    def test_constant_maps(self, x2a, x3z):
        for target_point in x3z.points:
            fmap = {p: target_point for p in x2a.points}
            assert is_uniformly_continuous(fmap, x2a, x3z).ok

    def test_quantale_mismatch(self, x2a, Q3):
        other = VSpace(Q3, ["a", "b"], [[0, 1], [1, 0]])
        with pytest.raises(DomainMismatchError):
            is_uniformly_continuous({"a": "a", "b": "b"}, x2a, other)

    def test_partial_map_is_structural(self, x2a):
        with pytest.raises(StructureError):
            is_uniformly_continuous({"a": "a"}, x2a, x2a)


class TestNameAndBitLookups:
    # `_as_index_map` and `VSpace.mask` read names in one comprehension and
    # fall back to a loop that names what is wrong; `_bits` reads a table
    # below 256 and peels bits above

    def _calls(self, fmap, space):
        from qc import Filter, image_filter, is_filter_morphism

        f = Filter(space, 1)
        return (
            lambda: is_uniformly_continuous(fmap, space, space),
            lambda: image_filter(fmap, f, space),
            lambda: is_filter_morphism(fmap, f, f),
        )

    def test_partial_map_names_the_missing_point(self, x3z):
        for call in self._calls({"a": "a", "c": "a"}, x3z):
            with pytest.raises(StructureError, match="map is not total: missing point 'b'"):
                call()

    def test_image_outside_the_target_is_an_unknown_point(self, x2a):
        for fmap, name in (({"a": "a", "b": "z"}, "'z'"), ({"a": ["a"], "b": "b"}, r"\['a'\]")):
            for call in self._calls(fmap, x2a):
                with pytest.raises(StructureError, match=f"unknown point {name}"):
                    call()

    def test_index_map_reads_the_target_order(self):
        # the names are shared, at other positions in the target
        from qc import Filter, image_filter
        from qc.vspace import _as_index_map

        source = VSpace(E, ["a", "b", "c"], [[0] * 3 for _ in range(3)])
        target = VSpace(E, ["c", "a"], [[0] * 2 for _ in range(2)])
        fmap = {"a": "a", "b": "c", "c": "a"}
        assert _as_index_map(fmap, source, target) == (1, 0, 1)
        assert image_filter(fmap, Filter(source, 0b010), target).core == ("c",)
        assert image_filter(fmap, Filter(source, 0b101), target).core == ("a",)

    def test_mask(self, x3z):
        assert x3z.mask(["c", "a", "a"]) == 0b101
        assert x3z.mask(p for p in ("b", "c")) == 0b110
        assert x3z.mask(frozenset()) == 0
        with pytest.raises(StructureError, match="unknown point 'z'"):
            x3z.mask(["a", "z"])
        # a generator is read again by the loop that names the unknown point
        with pytest.raises(StructureError, match="unknown point 'z'"):
            x3z.mask(p for p in ("a", "z"))
        with pytest.raises(StructureError, match=r"unknown point \['a'\]"):
            x3z.mask(["b", ["a"]])

    def test_bits_match_bit_peeling(self):
        from qc.vspace import _bits

        for mask in [*range(1 << 10), (1 << 40) | 5]:
            want, rest = [], mask
            while rest:
                low = rest & -rest
                rest ^= low
                want.append(low.bit_length() - 1)
            got = _bits(mask)
            assert type(got) is tuple and list(got) == want == sorted(want), mask


class TestEmptySpace:
    def test_empty_is_legal(self):
        empty = VSpace(E, [], [])
        assert validate_vspace(empty).ok
        assert classify(empty) == {"symmetric": True, "separated": True}
        assert has_uniformly_vanishing_asymmetry(empty).ok
        assert empty.test_values == (Fraction(1), INF)


def _entry_drawer(rng, q):
    """A draw of one random entry: any element, or on the extended
    rationals one of a small pool with 0, INF and shared denominators."""
    if q.is_finite:
        return lambda: rng.randrange(q.size)
    pool = [Fraction(0), INF] + [Fraction(a, b) for a in (1, 2, 3, 5) for b in (1, 2, 3)]
    return lambda: rng.choice(pool)


def _raw_space(rng, q, n):
    """Random matrix, no repair: mostly triangle-invalid, some diagonals off."""
    draw = _entry_drawer(rng, q)
    d = [[draw() for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.8:
        for i in range(n):
            d[i][i] = q.bottom
    return VSpace(q, [f"p{i}" for i in range(n)], d)


def _assert_zero_forms_match_loops(rng, space, target):
    """The zero-mask forms against the test-value loops that define them,
    witnesses included: every filter predicate on every core (on larger
    carriers the empty core, the singletons, the carrier and a few random
    ones), and uniform continuity of random maps into `target`."""
    from qc import Filter, converges, is_cauchy, is_round, point_filter
    from qc.structures import uniformities_equal
    from qc.errors import InvariantError
    from qc.verify import (
        _base_refinement,
        _cauchy_over,
        _converges_over,
        _has_uva_over,
        _has_va_over,
        _point_core_over,
        _round_over,
        _uc_over,
    )

    q, tv, n = space.quantale, space.test_values, space.size

    def first_bad(eps):
        return Verdict(True) if eps is None else Verdict(False, {"epsilon": q.format(eps)})

    assert has_vanishing_asymmetry(space) == _has_va_over(space, tv, tv)
    assert has_uniformly_vanishing_asymmetry(space) == _has_uva_over(space, tv, tv)
    try:
        assert uniformities_equal(space).ok == _base_refinement(space)
    except InvariantError:  # a non-reflexive entourage core: invalid diagonal
        assert any(space.dmat[i][i] != q.bottom for i in range(n))
    sides = ((True, "forward"), (False, "backward"))
    for i, p in enumerate(space.points):
        for forward, side in sides:
            want = _point_core_over(space, i, tv, forward)
            assert point_filter(space, p, side).core_mask == want
    full = space.full_mask
    if n <= 4:
        cores = range(full + 1)
    else:
        cores = [0, full] + [1 << i for i in range(n)] + [rng.randrange(full) for _ in range(4)]
    for m in cores:
        f = Filter(space, m)
        want = Verdict(True) if _round_over(f, tv) else Verdict(False, {"member": f.core})
        assert is_round(f) == want, (space.dmat, m)
        for forward, side in sides:
            assert is_cauchy(f, side) == first_bad(_cauchy_over(f, tv, forward))
            for i, p in enumerate(space.points):
                assert converges(f, p, side) == first_bad(_converges_over(f, i, tv, forward))
    if n and not target.size:
        return  # no map into the empty carrier
    both = combined_test_values(space, target)
    for _ in range(3):
        fidx = tuple(rng.randrange(target.size) for _ in range(n))
        fmap = {p: target.points[k] for p, k in zip(space.points, fidx)}
        assert is_uniformly_continuous(fmap, space, target) == _uc_over(
            fidx, space, target, both, both
        ), (space.dmat, target.dmat, fidx)


class TestCompiledKernels:
    def test_match_definitions(self, Q1, Q3, chain4, pinched, diamond_tables):
        # the mask kernels against the per-entry definitions, and the zero-mask
        # forms against their test-value loops, witnesses and failure order
        # included, on raw (mostly invalid) matrices
        import random

        from qc import quasi_uniformity_of, topology_of
        from qc.errors import InvariantError
        from qc.verify import (
            _has_uva_over,
            _has_va_over,
            _uc_violation,
            definitional_balls,
            definitional_entourage_core,
            definitional_set_distance,
            definitional_symmetry_moduli,
            definitional_validate_vspace,
        )

        rng = random.Random(20261018)
        aux = random.Random(7)  # maps, targets and cores for the zero-mask forms
        quantales = (E, Q1, Q3, chain4, pinched)
        invalid = off_diagonal = 0
        for t in range(1000):
            q = quantales[t % len(quantales)]
            space = _raw_space(rng, q, rng.randint(1, 7))
            want = definitional_validate_vspace(space)
            assert validate_vspace(space).failures == want.failures, space.dmat
            invalid += "triangle" in want.failed_checks()
            off_diagonal += "zero-diagonal" in want.failed_checks()
            tv = space.test_values
            assert has_vanishing_asymmetry(space) == _has_va_over(space, tv, tv)
            assert has_uniformly_vanishing_asymmetry(space) == _has_uva_over(space, tv, tv)
            if t % 2 == 0:  # 100 spaces per quantale
                _assert_zero_forms_match_loops(aux, space, _raw_space(aux, q, aux.randint(1, 4)))
            for forward, side in ((True, "forward"), (False, "backward")):
                core = definitional_entourage_core(space, forward)
                if all(core[i][i] for i in range(space.size)):
                    assert quasi_uniformity_of(space, side).core == core
                else:
                    with pytest.raises(InvariantError):
                        quasi_uniformity_of(space, side)
            # set distances: every subset pair up to 4 points; beyond that
            # the empty set, the singletons and the carrier
            n, full = space.size, space.full_mask
            masks = [m for m in range(full + 1) if n <= 4 or bin(m).count("1") in (0, 1, n)]
            for sm in masks:
                for tm in masks:
                    assert set_distance(
                        space, space.names_of(sm), space.names_of(tm)
                    ) == definitional_set_distance(space, sm, tm), (space.dmat, sm, tm)
            for eps in space.test_values + (q.bottom, q.top):
                assert (space._balls(eps, True), space._balls(eps, False)) == (
                    definitional_balls(space, eps)
                )
            fidx = [rng.randrange(space.size) for _ in space.points]
            p = rng.choice(space.points)
            uniform_moduli = definitional_symmetry_moduli(space)
            pointwise_moduli = definitional_symmetry_moduli(space, p)
            for eps in space.test_values:
                delta = rng.choice(space.test_values)
                assert _uc_violation(
                    fidx, space, space._balls(delta, True), space._balls(eps, True)
                ) == next(
                    (
                        (space.points[i], space.points[j])
                        for i in range(space.size)
                        for j in range(space.size)
                        if q.leq(space.dmat[i][j], delta)
                        and not q.leq(space.dmat[fidx[i]][fidx[j]], eps)
                    ),
                    None,
                )
                assert symmetry_modulus(space, eps) == uniform_moduli[eps]
                assert symmetry_modulus(space, eps, "pointwise", p) == pointwise_moduli[eps]
        assert invalid > 500 and off_diagonal >= 100, (invalid, off_diagonal)

        # the empty carrier, with and without test values (Q1 has none)
        for q in (E, Q1):
            empty = VSpace(q, [], [])
            for target in (empty, _raw_space(rng, q, 2)):
                _assert_zero_forms_match_loops(rng, empty, target)
                _assert_zero_forms_match_loops(rng, target, empty)

        # every value quantale on the lattices of at most 5 elements with
        # pinched's addition (any two nonzero elements sum to the top)
        from qc.quantale import validate_value_quantale
        from test_acceptance import lattice_corpus

        accepted = 0
        for leq in lattice_corpus():
            add = saturating_add(leq)
            names = [f"e{i}" for i in range(len(leq))]
            if not validate_value_quantale(names, leq, add).ok:
                continue
            accepted += 1
            q = FiniteQuantale(names, leq, add)
            for _ in range(12):
                space = _raw_space(rng, q, rng.randint(1, 6))
                _assert_zero_forms_match_loops(rng, space, _raw_space(rng, q, rng.randint(1, 4)))
        assert accepted >= 15, accepted

        # tables that fail the axioms may have positives without 0, where the
        # zero masks do not decide the quantifiers: every predicate refuses
        from qc import Filter, converges, is_cauchy, is_round, point_filter

        space = _raw_space(rng, FiniteQuantale(*diamond_tables), 3)
        f = Filter(space, 1)
        for call in (
            lambda: has_vanishing_asymmetry(space),
            lambda: has_uniformly_vanishing_asymmetry(space),
            lambda: is_uniformly_continuous({p: p for p in space.points}, space, space),
            lambda: point_filter(space, "p0"),
            lambda: is_cauchy(f),
            lambda: is_round(f),
            lambda: converges(f, "p0"),
            lambda: quasi_uniformity_of(space),
            lambda: topology_of(space),
        ):
            with pytest.raises(PreconditionError, match="not a value quantale"):
                call()

        # the exact keys of the extended rationals: large coprime denominators
        # (lcm keys past the budget, so the keyless routes run), INF entries,
        # and rows of all-distinct values
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121]
        fallback = distinct = 0
        for t in range(240):
            n = rng.randint(1, 7)
            if t % 3 == 0:
                pool = [Fraction(0), INF] + [Fraction(rng.randint(1, 10**7), p) for p in primes]
                draw = lambda: rng.choice(pool)  # noqa: E731
            elif t % 3 == 1:
                draw = lambda: (  # noqa: E731
                    INF if rng.random() < 0.15
                    else Fraction(rng.randint(1, 10**7), rng.choice(primes))
                )
            else:
                draw = lambda: Fraction(rng.randint(1, 10**4), rng.randint(1, 12))  # noqa: E731
            d = [[draw() for _ in range(n)] for _ in range(n)]
            if rng.random() < 0.8:
                for i in range(n):
                    d[i][i] = Fraction(0)
            space = VSpace(E, [f"p{i}" for i in range(n)], d)
            fallback += space._ranks.keys is None
            distinct += all(len(set(row)) == n for row in d)
            assert validate_vspace(space).failures == definitional_validate_vspace(space).failures
            # 10**12 is finite but above the INF key's sentinel
            for eps in space.test_values + (Fraction(0), INF, Fraction(10**12)):
                assert (space._balls(eps, True), space._balls(eps, False)) == (
                    definitional_balls(space, eps)
                )
            tv = space.test_values
            assert has_vanishing_asymmetry(space) == _has_va_over(space, tv, tv)
            assert has_uniformly_vanishing_asymmetry(space) == _has_uva_over(space, tv, tv)
            # the moduli without keys too: uniform, and pointwise at every point
            uniform_moduli = definitional_symmetry_moduli(space)
            for eps in tv:
                assert symmetry_modulus(space, eps) == uniform_moduli[eps]
            for p in space.points:
                pointwise_moduli = definitional_symmetry_moduli(space, p)
                for eps in tv:
                    assert symmetry_modulus(space, eps, "pointwise", p) == pointwise_moduli[eps]
        assert fallback > 40 and distinct > 60, (fallback, distinct)

    def test_hostile_denominators_have_no_keys(self):
        # distances with distinct ~20-bit prime denominators: lcm keys would
        # grow with the number of values, so past the budget the values have
        # no keys and stay as small as the entries
        from qc.quantale import _KEY_SCALE_BITS
        from qc.verify import definitional_validate_vspace

        def primes_from(start, count):
            out, p = [], start
            while len(out) < count:
                p += 1
                if all(p % f for f in range(2, int(p**0.5) + 1)):
                    out.append(p)
            return out

        n = 16  # plus a far point at distance INF from every other
        dens = iter(primes_from(2**20, n * (n - 1) // 2))
        d = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
        for i in range(n):
            for j in range(i):
                d[i][j] = d[j][i] = 1 + Fraction(1, next(dens))
            d[i][n] = d[n][i] = INF
        space = VSpace(E, [f"p{i}" for i in range(n + 1)], d)
        values = space._ranks.values
        assert space._ranks.keys is None and len(values) == n * (n - 1) // 2 + 2
        assert values[-1] is INF and all(isinstance(v, Fraction) for v in values[:-1])
        assert max(v.denominator.bit_length() for v in values[:-1]) <= 21
        assert max(v.numerator.bit_length() for v in values[:-1]) <= 23
        assert validate_vspace(space).ok and definitional_validate_vspace(space).ok
        # the same values on three points stay within the budget as ints
        small = VSpace(E, ["a", "b", "c"], [row[:3] for row in d[:3]])
        keys = small._ranks.keys
        assert keys.scale.bit_length() <= _KEY_SCALE_BITS
        assert all(type(k) is int for k in keys.keys)


def _planted_twins(rng, q):
    """A matrix with planted twins, perturbed, and the kind of perturbation.

    A base matrix on 1-4 points, triangle-repaired or raw, is blown up:
    each base point gets 1-3 copies with its row and its column, so the
    copies are twins and fail the triangle law where their originals do.
    Then one entry may change: anywhere; in a copy's column, off the copy's
    class ("row": the copy keeps its row but not its column); or in a
    copy's row, off its class ("column").
    """
    from qc.verify import triangle_repair

    draw = _entry_drawer(rng, q)
    m = rng.randint(1, 4)
    base = [[draw() for _ in range(m)] for _ in range(m)]
    if rng.random() < 0.9:
        for i in range(m):
            base[i][i] = q.bottom
    if rng.random() < 0.5:
        base = triangle_repair(q, base)[0]
    src = [i for i in range(m) for _ in range(rng.randint(1, 3))]
    rng.shuffle(src)
    n = len(src)
    d = [[base[a][b] for b in src] for a in src]
    kind = rng.choice(("none", "entry", "row", "column"))
    if kind == "entry":
        d[rng.randrange(n)][rng.randrange(n)] = draw()
    elif kind in ("row", "column"):
        x = rng.randrange(n)
        others = [z for z in range(n) if src[z] != src[x]]
        if others:
            z = rng.choice(others)
            value = draw()
            if kind == "row":
                d[z][x] = value
            else:
                d[x][z] = value
    return d, kind


class TestTwinClasses:
    # the triangle check visits twin representatives only: points with an
    # equal row and an equal column, told apart by exact equality
    def test_planted_twins_match_definitions(self, Q3, chain4, pinched):
        import random

        from qc import quasi_uniformity_of
        from qc.errors import InvariantError
        from qc.verify import definitional_entourage_core, definitional_validate_vspace
        from qc.vspace import _twins

        rng = random.Random(20261020)
        quantales = (E, chain4, Q3, pinched)
        twin_failures = row_only = column_only = 0
        for t in range(600):
            q = quantales[t % len(quantales)]
            d, kind = _planted_twins(rng, q)
            n = len(d)
            space = VSpace(q, [f"p{i}" for i in range(n)], d)
            cols = list(zip(*space.dmat))
            classes = {}
            for i in range(n):
                classes.setdefault((space.dmat[i], cols[i]), []).append(i)
            assert list(_twins(space._ranks).values()) == list(classes.values()), d
            copies = {space.points[i] for c in classes.values() for i in c[1:]}
            for i in range(n):
                for j in range(i):
                    same_row, same_col = space.dmat[i] == space.dmat[j], cols[i] == cols[j]
                    row_only += same_row and not same_col
                    column_only += same_col and not same_row
            want = definitional_validate_vspace(space)
            assert validate_vspace(space).failures == want.failures, (d, kind)
            # a failure (i, j, k) with j a twin but not its class's first
            # point is found only by filling in the twin columns
            twin_failures += any(
                f.check == "triangle" and f.witness["triple"][1] in copies
                for f in want.failures
            )
            assert classify(space) == {
                "symmetric": all(space.dmat[i][j] == cols[i][j] for i in range(n) for j in range(n)),
                "separated": not any(
                    space.dmat[i][j] == q.bottom == space.dmat[j][i]
                    for i in range(n) for j in range(i)
                ),
            }, d
            for forward, side in ((True, "forward"), (False, "backward")):
                core = definitional_entourage_core(space, forward)
                if all(core[i][i] for i in range(n)):
                    assert quasi_uniformity_of(space, side).core == core, d
                else:
                    with pytest.raises(InvariantError):
                        quasi_uniformity_of(space, side)
        assert twin_failures > 100 and row_only > 150 and column_only > 150, (
            twin_failures, row_only, column_only,
        )


def _zero_entries(space, forward):
    """Per point, the mask of the entries of its row (column) equal to 0."""
    bottom, n = space.quantale.bottom, space.size
    d = space.dmat if forward else [list(col) for col in zip(*space.dmat)]
    return tuple(sum(1 << j for j in range(n) if d[i][j] == bottom) for i in range(n))


def _many_values_space(rng, n):
    """An extended-rational matrix on n points with about n * n distinct
    values, a zero diagonal and some zeros off it."""
    d = [[Fraction(rng.randint(1, 10**6), rng.randint(1, 50)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
        d[i][rng.randrange(n)] = Fraction(0)
        d[rng.randrange(n)][i] = Fraction(0)
    return VSpace(E, [f"p{i}" for i in range(n)], d)


class TestRankMatrixForms:
    # the rank matrix is a space's only stored form: zero masks, balls and
    # strict balls are gathered from it by one kernel, `_RankForm.masks`,
    # and symmetry, twins and set distances read it and its transpose
    def test_zero_masks_match_entries(self, Q1, Q3, chain4, pinched):
        import random

        rng = random.Random(20261101)
        quantales = (E, Q1, Q3, chain4, pinched)
        spaces = [_raw_space(rng, quantales[t % 5], rng.randint(0, 9)) for t in range(400)]
        spaces += [_many_values_space(rng, n) for n in (18, 20, 24, 32)]
        # no entry equal to 0: the zero masks are empty
        spaces += [VSpace(q, ["a", "b"], [[1, 1], [1, 1]]) for q in (E, Q3, chain4, pinched)]
        many = 0
        for space in spaces:
            many += len(space._ranks.values) > 256
            for forward in (True, False):
                got = space.zero_fwd if forward else space.zero_bwd
                assert got == _zero_entries(space, forward), (space.dmat, forward)
                assert got == space._ranks.zero_masks(space.quantale.bottom, forward)
            assert space.dual().zero_fwd == space.zero_bwd
            assert space.dual().zero_bwd == space.zero_fwd
        assert many == 4
        assert any(s.quantale is pinched and any(s.zero_fwd) for s in spaces)
        assert any(s.quantale is Q1 and s.size >= 2 for s in spaces)

    def test_symmetry_matches_entries(self, Q3, chain4, pinched):
        import random

        rng = random.Random(20261102)
        quantales = (E, Q3, chain4, pinched)
        symmetric = 0
        for t in range(400):
            q = quantales[t % 4]
            space = _raw_space(rng, q, rng.randint(0, 5))
            if t % 2:  # mirror the upper triangle
                d = [list(row) for row in space.dmat]
                for i in range(space.size):
                    for j in range(i):
                        d[i][j] = d[j][i]
                space = VSpace(q, space.points, d)
            want = all(row == col for row, col in zip(space.dmat, zip(*space.dmat)))
            symmetric += want
            assert classify(space)["symmetric"] == want, space.dmat
        assert 150 < symmetric < 300, symmetric

    def test_masks_past_256_values_match_definitions(self):
        # the per-entry path of `_RankForm.masks`: balls on both sides, strict
        # balls of the space and its dual, and set distances both ways
        import random

        from qc.verify import definitional_balls, definitional_set_distance

        rng = random.Random(20261103)
        for n in (18, 20, 24):
            space = _many_values_space(rng, n)
            values = space._ranks.values
            assert len(values) > 256
            some = [values[k] for k in (0, 1, 2, len(values) // 3, len(values) // 2, -2, -1)]
            radii = some + [v + Fraction(1, 7) for v in some] + [INF]
            for eps in radii:
                assert (space._balls(eps, True), space._balls(eps, False)) == (
                    definitional_balls(space, eps)
                ), eps
            singles = [1 << i for i in range(n)]
            masks = singles + [rng.getrandbits(n) for _ in range(60)] + [0, space.full_mask]
            for sm in masks:
                for tm in (rng.choice(masks), rng.choice(singles)):
                    for a, b in ((sm, tm), (tm, sm)):
                        assert set_distance(
                            space, space.names_of(a), space.names_of(b)
                        ) == definitional_set_distance(space, a, b), (a, b)

    def test_rows_are_bytes_up_to_256_values(self, chain4):
        # a rank row is a byte string while every rank fits in a byte and a
        # tuple of ints past 256 values; the transpose, the dual and the
        # quotient keep the type, and the entries read the same either way
        import random

        from qc import serialize

        rng = random.Random(20261104)
        n = 17  # 272 entries off the diagonal
        for count, kind in ((256, bytes), (257, tuple)):
            off = [Fraction(v, 3) for v in rng.sample(range(1, 10**6), count - 1)]
            off += [rng.choice(off) for _ in range(n * (n - 1) - len(off))]
            rng.shuffle(off)
            d = [[Fraction(0) if i == j else off.pop() for j in range(n)] for i in range(n)]
            space = VSpace(E, [f"p{i}" for i in range(n)], d)
            form = space._ranks
            assert len(form.values) == count
            for rows in (form.rank, form.transpose, space.dual()._ranks.rank,
                         separation_quotient(space)[0]._ranks.rank):
                assert {type(row) for row in rows} == {kind}
            assert tuple(map(tuple, form.transpose)) == tuple(zip(*map(tuple, form.rank)))
            assert space.dmat == tuple(map(tuple, d))
        # more entry classes than a byte holds, denoting two values: byte rows
        payload = {"quantale": "ext_rational", "points": [f"p{i}" for i in range(n)],
                   "d": [["0" if i == j else f"{i * n + j}/{i * n + j}" for j in range(n)]
                         for i in range(n)]}
        form = serialize.parse_space(payload)._ranks
        assert form.values == (0, 1)
        assert tuple(map(tuple, form.rank)) == tuple(
            tuple(int(i != j) for j in range(n)) for i in range(n)
        )
        assert all(type(row) is bytes for row in form.rank)
        assert type(VSpace(chain4, ["a"], [[0]])._ranks.rank[0]) is bytes
        assert VSpace(E, [], [])._ranks.transpose == ()

    def test_restricted_selects_entries(self, chain4):
        # `restricted` gathers with one itemgetter per row from two points
        # on, and entry by entry below that; on byte rows and on tuple rows
        # (past 256 values) it must select the entries of the points given
        import random

        rng = random.Random(20261105)
        spaces = [_raw_space(rng, q, n) for q in (E, chain4) for n in (1, 2, 5, 9)]
        spaces += [_many_values_space(rng, n) for n in (17, 18)]
        kinds = set()
        for space in spaces:
            form, n = space._ranks, space.size
            kind = type(form.rank[0])
            kinds.add(kind)
            last = [n - 1]
            selections = [[], [0], last, [0, n - 1], list(range(n))]
            selections += [sorted(rng.sample(range(n), rng.randint(0, n))) for _ in range(6)]
            for points in selections:
                got = form.restricted(points)
                assert got.rank == tuple(kind([form.rank[r][s] for s in points]) for r in points), (
                    points
                )
                assert got.values is form.values and got.keys is form.keys
        assert kinds == {bytes, tuple}

    def test_least_test_value_matches_combined(self, Q3):
        from qc.verify import _oracle_battery
        from qc.vspace import _least_test_value

        far = VSpace(E, ["a", "b"], [[0, 4], [INF, 0]])  # its least test value is 2, above 1
        spaces = [s for n in (1, 2, 3) for s in _oracle_battery(n)] + [far]
        spaces += [VSpace(Q3, ["a"], [[0]]), VSpace(E, [], [])]
        pairs = 0
        for s in spaces:
            for t in spaces:
                if s.quantale != t.quantale or not s.test_values:
                    continue
                pairs += 1
                assert _least_test_value(s, t) == combined_test_values(s, t)[0], (s.dmat, t.dmat)
        zero = VSpace(E, ["a", "b"], [[0, 0], [0, 0]])  # no finite positive distance
        assert _least_test_value(far, zero) == _least_test_value(zero, far) == 2
        assert _least_test_value(zero, zero) == 1
        assert pairs > 300, pairs


def _lane_space(q, far, src):
    """A space whose only triangle failures sit in the lane of one point.

    Base point 0 is at distance `far` from base point 1 and every other
    base distance off the diagonal is 1, so the failures are the (i, j, k)
    with i a copy of 1 and k the copy of 0; `src` maps each point to its
    base point, and points with one base point are twins.
    """
    base = [[q.bottom if a == b else 1 for b in range(4)] for a in range(4)]
    base[1][0] = far
    return VSpace(q, [f"p{x}" for x in range(len(src))], [[base[a][b] for b in src] for a in src])


class TestRadiusCache:
    # balls are cached on the identity of the radius, each
    # entry holding its radius so that its id is not reused; equal radii
    # that are distinct objects, and fresh radii that CPython places where
    # freed ones were, must still read the per-entry definitions
    @staticmethod
    def _assert_balls(space, eps):
        from qc.verify import definitional_balls

        assert (space._balls(eps, True), space._balls(eps, False)) == (
            definitional_balls(space, eps)
        ), (space.dmat, eps)

    @staticmethod
    def _spaces(rng, Q3, pinched):
        spaces = [_raw_space(rng, q, rng.randint(1, 6)) for q in (E, Q3, pinched) for _ in range(20)]
        return spaces + [_many_values_space(rng, n) for n in (18, 20)]

    def test_equal_radii_of_distinct_objects(self, Q3, pinched):
        import random

        rng = random.Random(20261022)
        for space in self._spaces(rng, Q3, pinched):
            if space.quantale.is_finite:
                radii = list(space.quantale.elements())
            else:
                values = space._ranks.values
                some = rng.sample(values, min(6, len(values))) + [space.test_values[0]]
                copies = [Fraction(v.numerator, v.denominator) for v in some if v != INF]
                radii = [Fraction(1, 2), Fraction(1, 2), 1, Fraction(1), INF, type(INF)()]
                radii += some + copies
            for eps in radii:
                self._assert_balls(space, eps)
            # every radius read again, now from the cache
            for eps in radii:
                self._assert_balls(space, eps)

    def test_fresh_radii_that_reuse_ids(self, Q3, pinched):
        import random

        # the premise: a freed Fraction's id goes to the next one allocated
        ids = set()
        for k in range(50):
            eps = Fraction(k, 3)
            ids.add(id(eps))
            del eps
        assert len(ids) < 50
        rng = random.Random(20261023)
        for space in self._spaces(rng, Q3, pinched):
            top = int(2 * max([v for v in space._ranks.values if v != INF], default=4)) + 2
            for _ in range(20 if space.size > 6 else 60):
                if space.quantale.is_finite:
                    self._assert_balls(space, rng.randrange(space.quantale.size))
                else:
                    self._assert_balls(space, Fraction(rng.randint(0, 4 * top), rng.randint(1, 4)))

    def test_fresh_radii_do_not_grow_the_cache(self):
        from qc.vspace import _RADIUS_CACHE_LIMIT

        space = VSpace(E, ["a", "b"], [[0, 1], [2, 0]])
        for k in range(3 * _RADIUS_CACHE_LIMIT):
            # an int radius is checked into a fresh Fraction on every call
            assert ball(space, "a", k % 3) == ({"a"} if k % 3 == 0 else {"a", "b"})
        assert 0 < len(space._ball_cache) <= _RADIUS_CACHE_LIMIT


class TestTriangleKernels:
    # validate_vspace against the triple loop on every route into the two
    # triangle kernels, with the kernel that ran asserted, so that a
    # routing error fails as well as a wrong answer
    @pytest.fixture
    def ran(self, monkeypatch):
        import qc.vspace as V

        ran = []
        for kernel in ("packed", "table"):
            name = f"_{kernel}_triangle_violations"

            def spy(space, twins, run=getattr(V, name), kernel=kernel):
                ran.append(kernel)
                return run(space, twins)

            monkeypatch.setattr(V, name, spy)
        return ran

    @staticmethod
    def _agrees(ran, space, kernel):
        from qc.verify import definitional_validate_vspace

        ran.clear()
        got = validate_vspace(space).failures
        assert got == definitional_validate_vspace(space).failures, space.dmat
        assert ran == [kernel], (space.quantale.label, ran)
        return got

    def test_int_keys_with_inf(self, ran):
        import random

        rng = random.Random(20261019)
        invalid = 0
        # the second pool puts 2 * K + 1 at exactly 8 bits (K = 81, the INF
        # sentinel over 40), where a lane one bit short borrows
        pools = (
            [Fraction(0), INF, Fraction(1, 2), Fraction(1), Fraction(5, 3), Fraction(3)],
            [Fraction(0), INF, Fraction(1), Fraction(2), Fraction(40)],
        )
        for t in range(120):
            pool = pools[t % 2]
            n = rng.randint(1, 7)
            d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                d[i][i] = Fraction(0)
            space = VSpace(E, [f"p{i}" for i in range(n)], d)
            assert space._ranks.keys is not None
            invalid += bool(self._agrees(ran, space, "packed"))
        assert invalid > 60, invalid
        wide = VSpace(E, ["a", "b"], [[0, 40], [INF, 0]])
        assert (2 * max(wide._ranks.keys.keys) + 1).bit_length() == 8

    def test_capped_chains(self, ran, Q3, chain4):
        import random

        from qc.quantale import BUILTIN_QUANTALES

        rng = random.Random(11)
        for q in (BUILTIN_QUANTALES["Q2"], Q3, chain4):
            assert q._chain_keys == tuple(range(q.size))
            for _ in range(30):
                self._agrees(ran, _raw_space(rng, q, rng.randint(1, 7)), "packed")

    def test_capped_chain_listed_out_of_order(self, ran, chain4):
        # chain4's tables with the elements listed as inf, 1, 0, 2: the keys
        # come from the order and addition tables, not from the listing
        import random

        from qc.serialize import parse_quantale
        from qc.verify import definitional_balls

        order = [3, 1, 0, 2]  # new index -> chain4 element
        new = {e: x for x, e in enumerate(order)}
        q = parse_quantale({
            "kind": "finite",
            "elements": [chain4.names[e] for e in order],
            "leq": [[chain4.leq(a, b) for b in order] for a in order],
            "add": [[new[chain4.add(a, b)] for b in order] for a in order],
        })
        assert q._chain_keys == (3, 1, 0, 2)
        rng = random.Random(5)
        for _ in range(40):
            space = _raw_space(rng, q, rng.randint(1, 6))
            self._agrees(ran, space, "packed")
            for eps in q.elements():
                assert (space._balls(eps, True), space._balls(eps, False)) == (
                    definitional_balls(space, eps)
                )

    def test_tables_that_are_not_capped_chains(self, ran, pinched):
        # a chain whose addition is max is no capped chain, and pinched is
        # no chain: both take the class kernel
        import random

        chain_max = FiniteQuantale(
            ["0", "1", "2"],
            [[a <= b for b in range(3)] for a in range(3)],
            [[max(a, b) for b in range(3)] for a in range(3)],
        )
        assert chain_max._chain_keys is None and pinched._chain_keys is None
        rng = random.Random(12)
        invalid = 0
        for q in (chain_max, pinched):
            for _ in range(30):
                invalid += bool(self._agrees(ran, _raw_space(rng, q, rng.randint(1, 6)), "table"))
        assert invalid > 20, invalid

    def test_past_the_budget_takes_the_class_kernel(self, ran):
        import random

        rng = random.Random(13)
        primes = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099, 1000117, 1000121]
        pool = [Fraction(0), INF] + [Fraction(rng.randint(1, 4 * p), p) for p in primes]
        invalid = 0
        for _ in range(25):
            n = rng.randint(4, 6)
            d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            cells = [(i, j) for i in range(n) for j in range(n) if i != j]
            for (i, j), v in zip(rng.sample(cells, 8), pool[2:]):
                d[i][j] = v  # every denominator occurs: L passes the budget
            for i in range(n):
                d[i][i] = Fraction(0)
            space = VSpace(E, [f"p{i}" for i in range(n)], d)
            assert space._ranks.keys is None
            invalid += bool(self._agrees(ran, space, "table"))
        assert invalid > 10, invalid

    def test_planted_twins(self, ran, Q3, chain4, pinched):
        import random

        rng = random.Random(14)
        for t in range(80):
            q = (E, Q3, chain4, pinched)[t % 4]
            d, _ = _planted_twins(rng, q)
            space = VSpace(q, [f"p{i}" for i in range(len(d))], d)
            self._agrees(ran, space, "table" if q is pinched else "packed")

    @pytest.mark.parametrize("qname", ["ext_rational", "chain4"])
    def test_violations_in_the_first_and_last_lane(self, ran, qname):
        from qc.quantale import BUILTIN_QUANTALES
        from qc.vspace import _twins

        q = BUILTIN_QUANTALES[qname]
        far = q.top if q.is_finite else 3
        for src, lane in (([0, 1, 1, 2, 2, 3], 0), ([1, 1, 2, 3, 3, 0], 5)):
            space = _lane_space(q, far, src)
            assert len(_twins(space._ranks)) == 4
            got = self._agrees(ran, space, "packed")
            assert got and {f.witness["triple"][2] for f in got} == {f"p{lane}"}

    @pytest.mark.parametrize("top, lanes", [(63, "byte"), (64, "joined")])
    def test_lane_width_at_one_byte(self, ran, monkeypatch, top, lanes):
        # the largest key 63 gives 2 * K + 1 = 127, one-byte lanes built by
        # translate; 64 gives 129, two-byte lanes joined per key.  Integer
        # entries have L = 1, so a key is its value; with INF, K = 63 is
        # INF's sentinel over a largest finite key of 31
        import random

        import qc.vspace as V
        from qc.vspace import _twins

        built = []
        for name in ("byte", "joined"):
            def spy(*args, run=getattr(V, f"_{name}_lanes"), name=name):
                built.append(name)
                return run(*args)

            monkeypatch.setattr(V, f"_{name}_lanes", spy)

        def check(space):
            assert max(space._ranks.keys.keys) == top
            built.clear()
            got = self._agrees(ran, space, "packed")
            assert built == [lanes]
            return got

        # the failures (i, j, k) have k the copy of base point 0, whose class
        # is the first lane, then the last
        for src, lane in (([0, 1, 1, 2, 2, 3], 0), ([1, 1, 2, 3, 3, 0], 5)):
            space = _lane_space(E, top, src)
            assert len(_twins(space._ranks)) == 4
            got = check(space)
            assert got and {f.witness["triple"][2] for f in got} == {f"p{lane}"}
        rng = random.Random(f"lane-width:{top}")
        pools = [[0, 1, 2, top // 2, top]]
        if top % 2:
            pools.append([0, 1, top // 4, top // 2, INF])
        invalid = 0
        for t in range(60):
            pool = pools[t % len(pools)]
            n = rng.randint(2, 8)
            d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                d[i][i] = 0
            d[0][n - 1], d[n - 1][0] = pool[-1], pool[-2]  # the largest key occurs
            invalid += bool(check(VSpace(E, [f"p{i}" for i in range(n)], d)))
        assert invalid > 20, invalid

    @pytest.mark.parametrize("qname", ["ext_rational", "Q3", "pinched"])
    def test_zero_and_one_point(self, ran, qname, pinched):
        from qc.quantale import BUILTIN_QUANTALES

        q = pinched if qname == "pinched" else BUILTIN_QUANTALES[qname]
        kernel = "table" if q is pinched else "packed"
        self._agrees(ran, VSpace(q, [], []), kernel)
        self._agrees(ran, VSpace(q, ["p"], [[q.bottom]]), kernel)
        got = self._agrees(ran, VSpace(q, ["p"], [[q.top]]), kernel)
        assert [f.check for f in got] == ["zero-diagonal"]

    @pytest.mark.parametrize("case", ["byte-lanes", "wide-lanes", "chain4", "many-values"])
    def test_clustered_twins_with_planted_violations(self, ran, case, chain4):
        # clusters of twins at mutual distance 0: the packed kernel reads one
        # lane per twin class and gives each flagged representative k the
        # mask of its class, so a failure (i, j, k) with k a later twin is
        # found only through that mask
        import random

        from qc.vspace import _twins

        rng = random.Random(f"clustered-twins:{case}")
        q = chain4 if case == "chain4" else E
        many = case == "many-values"
        sizes = [0, 1] + ([17, 17, 17] if many else [rng.randint(3, 7) for _ in range(14)])
        widths, later_k = set(), 0
        for m in sizes:
            base = _cluster_base(rng, case, m)
            src = [a for a in range(m) for _ in range(rng.randint(1, 3))]
            rng.shuffle(src)
            if m > 2:
                # plant d(a,b) above d(a,x) + d(x,b) in the base: twins stay twins
                a, x = rng.sample(range(m), 2)
                b = rng.choice([y for y in src if y not in (a, x)])
                base[a][b] = q.top
                base[a][x] = base[x][b] = min(v for row in base for v in row if v != q.bottom)
            d = [[base[a][b] for b in src] for a in src]
            if len(src) > 1 and rng.random() < 0.3:  # one entry alone: a twin breaks away
                x, z = rng.sample(range(len(src)), 2)
                d[x][z] = q.top
            space = VSpace(q, [f"p{i}" for i in range(len(src))], d)
            form = space._ranks
            classes = list(_twins(form).values())
            assert len(classes) <= m + 2
            got = self._agrees(ran, space, "packed")
            later = {space.points[i] for members in classes for i in members[1:]}
            later_k += any(f.check == "triangle" and f.witness["triple"][2] in later for f in got)
            if m > 2:
                widths.add((2 * max(form.keys.keys) + 1).bit_length() // 8 + 1)
            if m == 17:
                assert len(form.values) > 256 and all(type(row) is tuple for row in form.rank)
        assert later_k >= (2 if many else 8), later_k
        if case in ("byte-lanes", "chain4"):
            assert widths == {1}
        else:
            assert min(widths) > 1


def _cluster_base(rng, case, m):
    """A valid base matrix on m points for `test_clustered_twins_with_planted_violations`.

    Byte lanes: extended rationals whose largest key K keeps 2 * K + 1
    below 128, and chain4: random entries, triangle-repaired.  Wide lanes
    and many values: distinct entries in [lo, 2 * lo), each at most the sum
    of any two, with keys past one byte, and on 17 points more than 256
    values.
    """
    from qc import BUILTIN_QUANTALES
    from qc.verify import triangle_repair

    if case in ("wide-lanes", "many-values"):
        lo, den = (40, 3) if case == "wide-lanes" else (10**6, 1)
        entries = iter(rng.sample(range(lo * den, 2 * lo * den), m * m))
        return [[Fraction(0) if a == b else Fraction(next(entries), den) for b in range(m)]
                for a in range(m)]
    if case == "chain4":
        q, pool = BUILTIN_QUANTALES["chain4"], [1, 2, 3]
    else:
        q, pool = E, [Fraction(1, 2), Fraction(1), INF]
    base = [[q.bottom if a == b else rng.choice(pool) for b in range(m)] for a in range(m)]
    return triangle_repair(q, base)[0]


def _literal(rng, q, e):
    """One of the literals that parse to element e."""
    if q.is_finite:
        return rng.choice([e, q.names[e]])
    if e == INF:
        return "inf"
    forms = [str(e), f"{2 * e.numerator}/{2 * e.denominator}"]
    if e.denominator == 1:
        forms.append(e.numerator)
    if 1000 % e.denominator == 0:
        forms.append(str(e.numerator * (1000 // e.denominator) / 1000))
    return rng.choice(forms)


class TestBuildPath:
    # parse_space and VSpace(q, points, distances) build the same rank form:
    # each distinct entry is checked once, and entries that denote the same
    # element share one value
    @pytest.mark.parametrize("qname", ["ext_rational", "chain4"])
    @pytest.mark.parametrize(
        "earlier,later",
        [(1, True), ("1", 1.0), (1, 1.0), ("0", float("nan")), (1, [1]), ("1", {"a": 1})],
    )
    def test_entries_of_other_types_not_merged(self, qname, earlier, later):
        from qc import BUILTIN_QUANTALES, serialize

        payload = {"quantale": qname, "points": ["a", "b"], "d": [["0", earlier], [later, "0"]]}
        with pytest.raises(StructureError):
            serialize.parse_space(payload)
        q = BUILTIN_QUANTALES[qname]
        with pytest.raises(DomainMismatchError):
            VSpace(q, ["a", "b"], [[0, 1], [later, 0]])

    def test_unchecked_entries_still_refused(self, Q3, pinched):
        # only entry classes marked checked skip the element check: a public
        # matrix, or entry classes without the mark, with a negative, bool or
        # out-of-range entry is refused as before
        from qc.vspace import _EntryClasses

        for q, bad in ((E, -1), (E, Fraction(-1, 2)), (E, True), (Q3, True), (Q3, -1), (pinched, 9)):
            with pytest.raises(DomainMismatchError):
                VSpace(q, ["a", "b"], [[q.bottom, bad], [q.bottom, q.bottom]])
            with pytest.raises(DomainMismatchError):
                VSpace(q, ["a", "b"], _EntryClasses([q.bottom, bad], [[0, 1], [0, 0]]))

    def test_equivalent_literals_share_a_value(self, chain4):
        from qc import serialize

        space = serialize.parse_space(
            {
                "quantale": "ext_rational",
                "points": ["a", "b", "c"],
                "d": [["0", "1/2", "2/4"], ["0.5", 0, "05/10"], [1, "1.0", "0"]],
            }
        )
        form = space._ranks
        assert form.values == (0, Fraction(1, 2), 1)
        assert tuple(map(tuple, form.rank)) == ((0, 1, 1), (1, 0, 1), (2, 2, 0))
        h = Fraction(1, 2)
        assert space == VSpace(E, ["a", "b", "c"], [[0, h, h], [h, 0, h], [1, 1, 0]])
        space = serialize.parse_space(
            {"quantale": "chain4", "points": ["a", "b"], "d": [["0", 1], ["1", 0]]}
        )
        assert space._ranks.values == (0, 1)
        assert tuple(map(tuple, space._ranks.rank)) == ((0, 1), (1, 0))

    def test_parse_and_construct_agree(self, Q1, Q3, chain4, pinched):
        import random

        from qc import serialize

        rng = random.Random(20261019)
        quantales = (E, Q1, Q3, chain4, pinched)
        for t in range(250):
            q = quantales[t % len(quantales)]
            space = _raw_space(rng, q, rng.randint(0, 6))
            payload = serialize.space_to_payload(space)
            payload["d"] = [[_literal(rng, q, e) for e in row] for row in space.dmat]
            parsed = serialize.parse_space(payload)
            built = VSpace(q, space.points, [list(row) for row in space.dmat])
            assert parsed == built == space and hash(parsed) == hash(built)
            for field in ("values", "rank", "keys"):
                assert getattr(parsed._ranks, field) == getattr(built._ranks, field), field
            assert parsed.dmat == space.dmat
            assert serialize.space_to_payload(parsed) == serialize.space_to_payload(space)

    def test_entry_classes_match_typed_loop(self):
        # the whole-row lookup of str entries against the per-entry loop it
        # falls back on: the same classes and values, the same entries parsed
        # in the same order, the same parse error, and iterator rows read once
        import random

        from qc.vspace import _entry_classes

        texts = ["0", "1", "1/2", "2/4", "inf", "0.5", "1.0", "True", "x"]
        others = [0, 1, True, False, 1.0, 0.5, float("nan"), Fraction(1, 2), Fraction(1),
                  INF, None, (1,), [1], {"a": 1}]
        rng = random.Random(20261020)
        whole = partial = raised = 0
        for _ in range(400):
            n = rng.randint(0, 7)
            pool = texts[: rng.randint(1, len(texts))]
            rows, seen = [], set()
            for _ in range(n):
                row = [rng.choice(pool) for _ in range(n)]
                if n and rng.random() < 0.35:
                    row[rng.randrange(n)] = rng.choice(others + texts)
                known = [type(e) is str and e in seen for e in row]
                whole += all(known)
                partial += any(known) and not all(known)
                seen.update(e for e in row if type(e) is str)
                rows.append(row)
            shapes = [rng.choice((list, tuple, iter, "generator")) for _ in rows]

            def feed():
                for shape, row in zip(shapes, rows):
                    yield (e for e in row) if shape == "generator" else shape(row)

            def run(build, refuse):
                log = []

                def parse(e):
                    log.append(e)
                    if refuse and type(e) is str and e == "x":
                        raise StructureError(f"bad literal {e!r} after {len(log)}")
                    return ("value", len(log))

                try:
                    got = build(feed(), parse)
                except StructureError as exc:
                    got = str(exc)
                return got, log

            refuse = rng.random() < 0.5
            got, log = run(_entry_classes, refuse)
            want, want_log = run(_typed_entry_classes, refuse)
            assert got == want and len(log) == len(want_log), rows
            assert all(a is b for a, b in zip(log, want_log)), rows
            raised += isinstance(got, str)
            got, want = _entry_classes(feed()), _typed_entry_classes(feed())
            assert got.classes == want.classes, rows
            assert len(got.values) == len(want.values)
            assert all(a is b for a, b in zip(got.values, want.values)), rows
        assert whole > 300 and partial > 300 and raised > 20, (whole, partial, raised)

    def test_literal_fast_path_matches_fraction(self):
        # "n" and "p/q" are read as ints; every grammar-valid literal reads
        # as Fraction(text) does, and "1/0" fails with its message
        import random

        from qc.quantale import _literal_digit_limit

        rng = random.Random(20261021)

        def digits(k):
            return "".join(rng.choice("0123456789") for _ in range(k))

        literals = ["0", "00", "007", "1/1", "0/5", "00/01", "10/4", "1/0", "007/000",
                    "1.5", ".5", "5.", "2e3", "1E-2", "1e-3", "-0", "-0/3", "-3", "-1/2", "-1.5",
                    "-0.5"]
        for _ in range(300):
            literals.append(digits(rng.randint(1, 30)))
            literals.append(f"{digits(rng.randint(1, 30))}/{digits(rng.randint(1, 3))}")
        zero_den = 0
        for text in literals:
            try:
                want = Fraction(text)
            except ZeroDivisionError as exc:
                zero_den += 1
                with pytest.raises(StructureError) as info:
                    E.parse(text)
                assert str(info.value) == f"bad rational literal {text!r}: {exc}"
                continue
            if want < 0:
                with pytest.raises(StructureError, match="negative"):
                    E.parse(text)
                continue
            got = E.parse(text)
            assert type(got) is Fraction and got == want, text
        assert zero_den >= 5, zero_den
        # over the digit limit, and digits or signs outside the grammar
        limit = _literal_digit_limit()
        if limit:
            assert E.parse("9" * limit) == Fraction("9" * limit)
            for text in ("1" * (limit + 1), "1/" + "1" * (limit + 1), "0" * (limit + 1)):
                with pytest.raises(StructureError, match="too large"):
                    E.parse(text)
        for text in ("١", "١/٢", "1/٢", "²", "１", "1_0", " 1", "+1", "1/+2", "1/-2", "1/2/3", "/2"):
            with pytest.raises(StructureError, match="bad rational literal"):
                E.parse(text)


def _kernel_and_oracle(q, rows, parse=None):
    """The rank form of `rows` and the sorting build's `(values, rank, keys)`."""
    from qc.vspace import _RankForm, _entry_classes

    from helpers import sorted_rank_values

    entries = _entry_classes(rows, parse)
    checked = [q.check(v) for v in entries.values]
    values, renumber, keys = sorted_rank_values(q, checked)
    rank = tuple(tuple(renumber[c] for c in row) for row in entries.classes)
    return _RankForm(q, entries), (values, rank, keys)


def _assert_same_build(form, want):
    values, rank, keys = want
    assert form.values == values and list(map(type, form.values)) == list(map(type, values))
    assert tuple(map(tuple, form.rank)) == rank
    if keys is None:
        assert form.keys is None
    else:
        got = (form.keys.keys, form.keys.scale, form.keys.finite)
        assert got == keys and list(map(type, got[0])) == list(map(type, keys[0]))


class TestOnePassBuild:
    # `_RankForm` takes its values, ranks and keys from one pass of
    # `ValueQuantale._rank_values`, on int keys wherever the quantale has
    # them; `helpers.sorted_rank_values` is the build that sorts the checked
    # elements with `sort_key` and keys them afterwards

    def test_matches_sorting_build(self, Q1, Q3, chain4, pinched):
        import random

        from qc import BUILTIN_QUANTALES

        rng = random.Random(20261019)
        # denominators whose lcm has at most 128 bits (2**127 has exactly
        # 128), and ones that pass the budget: 2**128 alone, 2**127 times 3,
        # or the product of two large primes
        inside, past = [1, 2, 2**126, 2**127], [3, 2**127, 2**128, 2**89 - 1, 2**107 - 1]
        literals = ["0", "1/2", "2/4", "0.5", "05/10", "inf", "3", "6/2", "3.0", "1/3", "2/6"]
        sides = fallback = 0
        for t in range(700):
            q = (E, E, E, Q1, BUILTIN_QUANTALES["Q2"], Q3, chain4, pinched)[t % 8]
            n = rng.randint(0, 6)
            parse = None
            if q.is_finite:
                d = [[rng.randrange(q.size) for _ in range(n)] for _ in range(n)]
            elif t % 8 == 0:
                parse = E.parse
                d = [[rng.choice(literals) for _ in range(n)] for _ in range(n)]
            else:
                dens = {1: [1, 2, 3, 4, 6], 2: inside}.get(t // 8 % 3, past)
                pool = [0, 2, 7, Fraction(0), Fraction(2), INF] + [
                    Fraction(rng.randint(1, 60), rng.choice(dens)) for _ in range(4)
                ]
                d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                if dens is inside and n:
                    d[-1][0] = Fraction(rng.randrange(1, 99, 2), 2**127)
            form, want = _kernel_and_oracle(q, d, parse)
            _assert_same_build(form, want)
            if not q.is_finite and n:
                fallback += form.keys is None
                sides += form.keys is not None and form.keys.scale.bit_length() == 128
        assert fallback > 20 and sides > 20, (fallback, sides)

    @pytest.mark.parametrize(
        "rows,values,keys",
        [
            ([], (), ((), 1, 0)),
            ([[0, 0], [0, 0]], (0,), ((0,), 1, 1)),
            ([[INF]], (INF,), ((1,), 1, 0)),
            ([[0, INF], [INF, 0]], (0, INF), ((0, 1), 1, 1)),
            ([[Fraction(1, 2), 3], [INF, 0]], (0, Fraction(1, 2), 3, INF), ((0, 1, 6, 13), 2, 3)),
            # the budget's edge: L = 2**127 has 128 bits and keys as ints
            ([[Fraction(1, 2**127), INF]], (Fraction(1, 2**127), INF), ((1, 3), 2**127, 1)),
        ],
    )
    def test_small_forms(self, rows, values, keys):
        form, want = _kernel_and_oracle(E, rows)
        _assert_same_build(form, want)
        assert (form.values, (form.keys.keys, form.keys.scale, form.keys.finite)) == (values, keys)

    def test_past_the_budget_keeps_fractions(self):
        # L = 2**128 has 129 bits: the values are sorted as Fractions and
        # have no keys
        a, b = Fraction(1, 2**128), Fraction(3, 2)
        form, want = _kernel_and_oracle(E, [[b, a, INF], [a, 0, b]])
        _assert_same_build(form, want)
        assert (form.values, form.keys) == ((0, a, b, INF), None)
        assert all(type(v) is Fraction for v in form.values[:-1])

    def test_equal_entries_merge_on_their_keys(self):
        checked = [Fraction(1, 2), INF, Fraction(0), Fraction(2, 4), INF, Fraction(3), Fraction(0)]
        values, renumber, keys = E._rank_values(checked)
        assert values == (0, Fraction(1, 2), 3, INF)
        assert renumber == [1, 3, 0, 1, 3, 2, 0]
        assert keys == ((0, 1, 6, 13), 2, 3)

    def test_int_keyed_build_hashes_and_compares_no_fraction(self, chain4):
        # a profiler counts the Fraction hashes and comparisons a build makes;
        # past the key budget it sees the sort, so a zero is not vacuous
        import fractions
        import random
        import sys

        from qc.vspace import _RankForm, _entry_classes

        watched = {"__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "_richcmp"}
        calls = []

        def profile(frame, event, arg):
            code = frame.f_code
            if event == "call" and code.co_name in watched:
                if code.co_filename == fractions.__file__:
                    calls.append(code.co_name)

        def count(q, rows):
            entries = _entry_classes(rows)
            del calls[:]
            old = sys.getprofile()
            sys.setprofile(profile)
            try:
                form = _RankForm(q, entries)
            finally:
                sys.setprofile(old)
            return form, len(calls)

        rng = random.Random(20261020)
        for _ in range(60):
            n = rng.randint(1, 8)
            pool = [0, 3, Fraction(0), INF] + [
                Fraction(rng.randint(1, 90), rng.randint(1, 12)) for _ in range(5)
            ]
            form, made = count(E, [[rng.choice(pool) for _ in range(n)] for _ in range(n)])
            assert form.keys is not None and made == 0
        form, made = count(E, [[Fraction(1, 2**128), Fraction(1, 3), Fraction(1, 2**128)]])
        assert form.keys is None and made > 0
        form, made = count(chain4, [[0, 3], [2, 0]])
        assert made == 0


def _typed_entry_classes(rows, parse=None):
    """`_entry_classes` by the per-entry loop alone: entries told apart by
    type and value, numbered in order of first occurrence."""
    from qc.vspace import _EntryClasses

    memo, values, classes = {}, [], []
    for row in rows:
        out = []
        for e in row:
            key = (type(e), e)
            try:
                c = memo.get(key)
            except TypeError:
                c = key = None
            if c is None:
                c = len(values)
                values.append(e if parse is None else parse(e))
                if key is not None:
                    memo[key] = c
            out.append(c)
        classes.append(out)
    return _EntryClasses(values, classes)
