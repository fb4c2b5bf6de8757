from fractions import Fraction
from functools import reduce
from operator import and_

import pytest

from qc import (
    EXT_RATIONAL,
    INF,
    StructureError,
    VSpace,
    ball,
    classify,
    has_vanishing_asymmetry,
    quasi_uniformity_of,
    topology_of,
    topology_of_relation,
    uva_equivalence_report,
    va_equivalence_report,
)

from helpers import generated

E = EXT_RATIONAL


class TestTopology:
    def test_sierpinski_forward(self, x2n):
        assert _open_masks(topology_of(x2n)) == {0b00, 0b10, 0b11}

    def test_sierpinski_backward(self, x2n):
        assert _open_masks(topology_of(x2n, "backward")) == {0b00, 0b01, 0b11}

    def test_symmetric_two_points_discrete(self, x2s):
        assert topology_of(x2s).is_discrete

    def test_closure_under_union_and_intersection(self, x3z):
        top = topology_of(x3z)
        opens = [frozenset(x3z.names_of(m)) for m in _open_masks(top)]
        for a in opens:
            for b in opens:
                assert top.is_open(a | b)
                assert top.is_open(a & b)
        assert top.is_open(()) and top.is_open(x3z.points)

    def test_neighbourhoods(self, x2n, x3z):
        assert topology_of(x2n).neighbourhoods == (0b11, 0b10)
        assert topology_of(x2n, "backward").neighbourhoods == (0b01, 0b11)
        assert topology_of(x3z).neighbourhoods == (0b011, 0b011, 0b100)

    def test_unknown_point(self, x2n):
        with pytest.raises(StructureError, match="unknown point 'zz'"):
            topology_of(x2n).is_open({"zz"})

    def test_degenerate_indiscrete(self, xq1):
        assert _open_masks(topology_of(xq1)) == {0b00, 0b11}

    def test_zero_identified_points_share_opens(self, x3z):
        for m in _open_masks(topology_of(x3z)):
            assert (m & 1) == (m >> 1 & 1)


class TestQuasiUniformity:
    def test_x2a_diagonal(self, x2a):
        assert quasi_uniformity_of(x2a).core == ((True, False), (False, True))

    def test_x2n_extra_pair(self, x2n):
        core = quasi_uniformity_of(x2n).core
        assert core == ((True, True), (False, True))
        assert quasi_uniformity_of(x2n).related("a", "b")

    def test_unknown_point(self, x2n):
        with pytest.raises(StructureError, match="unknown point 'zz'"):
            quasi_uniformity_of(x2n).related("a", "zz")

    def test_symmetric_sides_agree(self, x2s, x3z):
        for space in (x2s, x3z):
            assert (
                quasi_uniformity_of(space).core
                == quasi_uniformity_of(space, "backward").core
            )

    def test_core_rows_shared_by_mask(self, chain4):
        # the expanded rows are kept on the space, keyed by zero mask: both
        # sides in either order, on fresh and warm spaces, must read the
        # per-entry zero relation, and where a point's masks on the two sides
        # agree its rows are one object
        import random

        rng = random.Random(20261023)
        pools = {E: [0, 0, Fraction(1, 2), 1, INF], chain4: [0, 0, 1, 2, 3]}
        differ = shared = 0
        for t in range(200):
            q = (E, chain4)[t % 2]
            n = rng.randint(1, 12)
            rows = [[rng.choice(pools[q]) for _ in range(n)] for _ in range(n)]
            for i in range(n):
                rows[i][i] = 0
            space = VSpace(q, [f"p{i}" for i in range(n)], rows)
            want = {
                "forward": tuple(tuple(e == q.bottom for e in row) for row in space.dmat),
                "backward": tuple(tuple(e == q.bottom for e in col) for col in zip(*space.dmat)),
            }
            order = ("forward", "backward") if t % 4 < 2 else ("backward", "forward")
            for side in order + order:
                assert quasi_uniformity_of(space, side).core == want[side], (rows, side)
            fwd, bwd = (quasi_uniformity_of(space, side).core for side in ("forward", "backward"))
            for i, (f, b) in enumerate(zip(space.zero_fwd, space.zero_bwd)):
                if f == b:
                    assert fwd[i] is bwd[i]
                    shared += 1
            differ += space.zero_fwd != space.zero_bwd
        assert differ > 100 and shared > 50, (differ, shared)

    def test_degenerate_full_relation(self, xq1):
        assert quasi_uniformity_of(xq1).core == ((True, True), (True, True))

    def test_relation_topology_matches_ball_topology(self, x2a, x2n, x3z, xq1):
        for space in (x2a, x2n, x3z, xq1):
            for side in ("forward", "backward"):
                uni = quasi_uniformity_of(space, side)
                assert (
                    topology_of_relation(space.points, uni.core)
                    == topology_of(space, side)
                )


class TestEquivalenceReports:
    def test_x2a_all_true(self, x2a):
        report = uva_equivalence_report(x2a)
        assert report.holds
        assert all(bool(v) for v in report.conditions.values())

    def test_x2n_all_false_with_witnesses(self, x2n):
        report = uva_equivalence_report(x2n)
        assert not report.holds
        assert not any(bool(v) for v in report.conditions.values())
        assert report.conditions["uniform_modulus"].witness["epsilon"] == "1/2"
        assert report.conditions["identity_uniformly_continuous"].witness is not None
        assert report.conditions["uniformities_equal"].witness == {"pair": ("a", "b")}

    def test_va_symmetric_space(self, x2s):
        report = va_equivalence_report(x2s)
        assert report.holds

    def test_va_x2n_false(self, x2n):
        report = va_equivalence_report(x2n)
        assert not report.holds
        assert not any(bool(v) for v in report.conditions.values())
        # {b} is the neighbourhood of b forward, and not open backward
        assert report.conditions["identity_homeomorphism"].witness == {"open_set": ("b",)}
        assert report.conditions["topologies_equal"].witness == {"point": "a"}

    def test_va_on_large_spaces(self):
        # 64 points at distance 1 or 5/4: separated and symmetric, so the
        # topology is discrete; 40 points in a chain, d(i, j) = 0 for i <= j
        # and 1 otherwise: the forward neighbourhoods are the up-sets
        n = 64
        names = [f"p{i}" for i in range(n)]
        discrete = VSpace(
            E, names,
            [[0 if i == j else 1 + Fraction((i + j) % 2, 4) for j in range(n)] for i in range(n)],
        )
        report = va_equivalence_report(discrete)
        assert report.holds and all(report.conditions.values())
        assert topology_of(discrete).is_discrete
        n = 40
        chain = VSpace(E, names[:n], [[int(i > j) for j in range(n)] for i in range(n)])
        report = va_equivalence_report(chain)
        assert not report.holds and not any(report.conditions.values())
        assert report.conditions["identity_homeomorphism"].witness == {"open_set": tuple(names[1:n])}
        assert report.conditions["topologies_equal"].witness == {"point": "p0"}
        top = topology_of(chain)
        assert top.neighbourhoods == tuple((1 << n) - (1 << i) for i in range(n))
        assert top.is_open(names[30:n]) and not top.is_open(names[:30])

    def test_va_on_many_distinct_distances(self):
        # 64 points with d(i, j) = 1 + (64i + j)/10000 off the diagonal:
        # 4,032 distinct distances and 4,034 test values.  The report and
        # both topologies read the zero masks and cache no ball
        n = 64
        space = VSpace(E, [f"p{i}" for i in range(n)], [
            [0 if i == j else 1 + Fraction(64 * i + j, 10000) for j in range(n)]
            for i in range(n)
        ])
        assert len(space.test_values) == 4034
        report = va_equivalence_report(space)
        assert report.holds and all(report.conditions.values())
        assert topology_of(space).is_discrete
        assert topology_of(space, "backward").is_discrete
        assert space._ball_cache == {} and space.dual()._ball_cache == {}

    def test_degenerate_reports(self, xq1):
        assert va_equivalence_report(xq1).holds
        assert uva_equivalence_report(xq1).holds


class TestClosedBalls:
    def test_backward_balls_closed_in_forward_topology(self, x2a, x2n, x3z):
        for space in (x2a, x2n, x3z):
            top = topology_of(space)
            for p in space.points:
                for eps in space.test_values:
                    b = ball(space, p, eps, "backward")
                    complement = frozenset(space.points) - b
                    assert top.is_open(complement)

    def test_forward_balls_closed_when_va(self, x2a, x2s, x3z):
        for space in (x2a, x2s, x3z):
            assert has_vanishing_asymmetry(space).ok
            top = topology_of(space)
            for p in space.points:
                for eps in space.test_values:
                    b = ball(space, p, eps, "forward")
                    complement = frozenset(space.points) - b
                    assert top.is_open(complement)

    def test_forward_ball_open_counterexample_without_va(self, x2n):
        # B_{1/2}(b) = {b} but {a} is not open: the literal same-orientation
        # statement needs vanishing asymmetry
        top = topology_of(x2n)
        assert ball(x2n, "b", Fraction(1, 2)) == frozenset({"b"})
        assert not top.is_open({"a"})


class TestHausdorff:
    def test_separated_va_implies_discrete(self, x2a, x2s):
        for space in (x2a, x2s):
            assert classify(space)["separated"]
            assert has_vanishing_asymmetry(space).ok
            assert topology_of(space).is_discrete

    def test_non_separated_not_discrete(self, x3z):
        assert not topology_of(x3z).is_discrete


def _open_masks(top) -> set[int]:
    """The open masks of `top`, by `_is_open_mask` on every subset."""
    return {m for m in range(1 << len(top.points)) if top._is_open_mask(m)}


def _assert_agrees(top, opens):
    """`top` has exactly the open masks `opens`, by `_is_open_mask` on every
    subset, and each point's neighbourhood is the AND of the opens holding it."""
    points = top.points
    assert _open_masks(top) == opens
    full = (1 << len(points)) - 1
    assert top.neighbourhoods == tuple(
        reduce(and_, [m for m in opens if m >> i & 1], full) for i in range(len(points))
    )


class TestTopologyOracles:
    """The neighbourhood forms against the closure of the strict-ball base
    and the scan of every subset, compared by their open sets."""

    def test_closure_is_the_least_closed_family(self):
        # the worklist closure against rounds over every pair until none adds a set
        import random

        from qc.verify import _close_under_union_intersection

        rng = random.Random(20261031)
        for _ in range(300):
            base = {rng.getrandbits(6) for _ in range(rng.randint(0, 6))}
            want = base | {0}
            while True:
                more = {c for a in want for b in want for c in (a | b, a & b)} - want
                if not more:
                    break
                want |= more
            assert _close_under_union_intersection(base) == want, base

    def test_generated_spaces(self, Q1, Q3, chain4, pinched):
        from qc import InstanceGenerator
        from qc.verify import definitional_topology

        count = 0
        for t, q in enumerate((E, Q1, Q3, chain4, pinched)):
            for _, space in generated(InstanceGenerator(seed=900 + t, quantale=q), 120):
                for side in ("forward", "backward"):
                    _assert_agrees(topology_of(space, side), definitional_topology(space, side))
                    count += 1
        assert count == 1200

    def test_raw_matrices(self, Q1, Q3, chain4, pinched):
        # random entries with no triangle repair; every other matrix has a
        # zero diagonal, so that its zero relation is reflexive and often
        # not transitive.  A valid space gets the oracle's neighbourhoods; a
        # zero relation that is not a preorder is refused, and so is every
        # matrix the oracle refuses, as a point in no strict ball has a
        # nonzero diagonal
        import random

        from qc import InvariantError, validate_vspace
        from qc.verify import definitional_topology

        rng = random.Random(20261020)
        pools = {E: [0, Fraction(1, 2), 1, 2, INF], Q1: [0], Q3: [0, 1, 2],
                 chain4: [0, 1, 2, 3], pinched: [0, 1, 2, 3, 4]}
        agreed = refused = intransitive = 0
        for t in range(1000):
            q = (E, Q1, Q3, chain4, pinched)[t % 5]
            n = rng.randint(0, 5)
            rows = [[rng.choice(pools[q]) for _ in range(n)] for _ in range(n)]
            for i in range(n if t % 2 else 0):
                rows[i][i] = 0
            space = VSpace(q, [f"p{i}" for i in range(n)], rows)
            valid = validate_vspace(space).ok
            for side in ("forward", "backward"):
                d = space.dmat if side == "forward" else tuple(zip(*space.dmat))
                zero = [[q.leq(e, q.bottom) for e in row] for row in d]
                reflexive = all(zero[i][i] for i in range(n))
                transitive = all(
                    zero[i][k] for i in range(n) for j in range(n) for k in range(n)
                    if zero[i][j] and zero[j][k]
                )
                try:
                    want = definitional_topology(space, side)
                except InvariantError:
                    want = None
                if space.test_values and not (reflexive and transitive):
                    assert not valid
                    with pytest.raises(InvariantError, match="not a preorder"):
                        topology_of(space, side)
                    refused += 1
                    intransitive += reflexive
                    continue
                assert want is not None
                top = topology_of(space, side)
                if valid:
                    _assert_agrees(top, want)
                    agreed += 1
        assert agreed >= 900 and refused >= 30 and intransitive >= 100, (
            agreed, refused, intransitive
        )

    def test_neighbourhoods_are_least_strict_balls(self, Q1, Q3, chain4, pinched):
        # on a valid space each neighbourhood is a strict ball centred at its
        # point and lies inside every strict ball, of any centre, that holds
        # the point.  Strict balls are read per entry with `well_above`, on
        # each key form of the extended rationals (int keys, no keys past
        # the int scale, INF entries, 0 and 1 points) and on generated
        # spaces over the finite quantales
        from qc import InstanceGenerator, validate_vspace

        h = Fraction(1, 2)
        big = [2**89 - 1, 2**107 - 1, 2**127 - 1]
        int_keyed = [
            VSpace(E, [], []),
            VSpace(E, ["a"], [[0]]),
            VSpace(E, ["a", "b", "c"], [[0, 0, 1], [h, 0, 1], [h, h, 0]]),
            VSpace(E, ["a", "b", "c"], [[0, 0, INF], [INF, 0, INF], [INF, 1, 0]]),
            VSpace(E, ["a", "b", "c"], [[0, h, INF], [INF, 0, INF], [INF, INF, 0]]),
            VSpace(E, ["a", "b"], [[0, INF], [INF, 0]]),
        ]
        wide = [
            VSpace(E, ["a", "b", "c"], [[1 + Fraction(i + j, big[(i + 2 * j) % 3]) if i != j else 0
                                        for j in range(3)] for i in range(3)]),
            VSpace(E, ["a", "b", "c"], [[0, 0, 1 + Fraction(1, big[0])],
                                        [Fraction(1, big[2]), 0, 1 + Fraction(1, big[0])],
                                        [INF, INF, 0]]),
        ]
        assert all(s._ranks.keys is not None for s in int_keyed)
        assert all(s._ranks.keys is None for s in wide)
        spaces = int_keyed + wide
        for t, q in enumerate((Q1, Q3, chain4, pinched)):
            spaces += [s for _, s in generated(InstanceGenerator(seed=950 + t, quantale=q), 30)]
        non_discrete = 0
        for space in spaces:
            assert validate_vspace(space).ok, space.dmat
            q, n = space.quantale, space.size
            for side in ("forward", "backward"):
                d = space.dmat if side == "forward" else tuple(zip(*space.dmat))
                balls = [
                    [sum(1 << j for j, e in enumerate(row) if q.well_above(eps, e)) for row in d]
                    for eps in space.test_values
                ]
                nbs = topology_of(space, side).neighbourhoods
                for i in range(n):
                    if not balls:
                        assert nbs[i] == space.full_mask
                        continue
                    assert nbs[i] in [b[i] for b in balls], (space.dmat, side, i)
                    for b in balls:
                        for m in b:
                            if m >> i & 1:
                                assert nbs[i] & ~m == 0, (space.dmat, side, i, m)
                    non_discrete += nbs[i] != 1 << i
        assert non_discrete >= 50, non_discrete

    def test_strict_ball_bases_of_the_dual(self, Q3, pinched):
        # the oracle builds both sides' bases in one pass over `dmat`: the
        # backward base is the dual's forward base and the other way round,
        # on valid and raw matrices alike
        import random

        from qc.verify import _strict_ball_bases

        rng = random.Random(20261022)
        pools = {E: [0, Fraction(1, 3), 1, INF], Q3: [0, 1, 2], pinched: [0, 1, 2, 3, 4]}
        asymmetric = 0
        for t in range(150):
            q = (E, Q3, pinched)[t % 3]
            n = rng.randint(0, 5)
            rows = [[rng.choice(pools[q]) for _ in range(n)] for _ in range(n)]
            space = VSpace(q, [f"p{i}" for i in range(n)], rows)
            fwd, bwd = _strict_ball_bases(space)
            assert (bwd, fwd) == _strict_ball_bases(space.dual()), rows
            asymmetric += fwd != bwd
        assert asymmetric >= 50, asymmetric

    def test_relations(self):
        # neither reflexive nor transitive in general
        import random

        from qc.verify import definitional_relation_topology

        rng = random.Random(20261021)
        intransitive = 0
        for _ in range(300):
            n = rng.randint(0, 6)
            core = [[rng.random() < 0.3 for _ in range(n)] for _ in range(n)]
            points = [f"p{i}" for i in range(n)]
            _assert_agrees(
                topology_of_relation(points, core), definitional_relation_topology(points, core)
            )
            intransitive += any(
                core[i][j] and core[j][k] and not core[i][k]
                for i in range(n) for j in range(n) for k in range(n)
            )
        assert intransitive >= 100, intransitive
