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

E = EXT_RATIONAL


class TestTopology:
    def test_sierpinski_forward(self, x2n):
        assert topology_of(x2n).open_sets() == ((), ("b",), ("a", "b"))

    def test_sierpinski_backward(self, x2n):
        assert topology_of(x2n, "backward").open_sets() == ((), ("a",), ("a", "b"))

    def test_symmetric_two_points_discrete(self, x2s):
        assert topology_of(x2s).is_discrete

    def test_closure_under_union_and_intersection(self, x3z):
        top = topology_of(x3z)
        opens = [frozenset(names) for names in top.open_sets()]
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
        assert topology_of(xq1).open_sets() == ((), ("p", "q"))

    def test_zero_identified_points_share_opens(self, x3z):
        top = topology_of(x3z)
        for names in top.open_sets():
            assert ("a" in names) == ("b" in names)


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


def _assert_agrees(top, opens):
    """`top` has the open masks `opens`, listed as `open_sets` lists them,
    and each point's neighbourhood is the AND of the opens holding it."""
    points = top.points
    assert top.open_sets() == tuple(
        tuple(p for i, p in enumerate(points) if m >> i & 1) for m in sorted(opens)
    )
    full = (1 << len(points)) - 1
    assert top.neighbourhoods == tuple(
        reduce(and_, [m for m in opens if m >> i & 1], full) for i in range(len(points))
    )


class TestTopologyOracles:
    """The neighbourhood forms against the closure of the strict-ball base
    and the scan of every subset, compared by their open sets."""

    def test_generated_spaces(self, Q1, Q3, chain4, pinched):
        from qc import InstanceGenerator
        from qc.verify import definitional_topology

        count = 0
        for t, q in enumerate((E, Q1, Q3, chain4, pinched)):
            for _, space in InstanceGenerator(seed=900 + t, quantale=q).instances(120):
                for side in ("forward", "backward"):
                    _assert_agrees(topology_of(space, side), definitional_topology(space, side))
                    count += 1
        assert count == 1200

    def test_raw_matrices(self, Q1, Q3, chain4, pinched):
        # random entries, diagonals included, with no triangle repair: a
        # point may lie in no strict ball, or only in balls centred elsewhere
        import random

        from qc import InvariantError
        from qc.verify import definitional_topology

        rng = random.Random(20261020)
        pools = {E: [0, Fraction(1, 2), 1, 2, INF], Q1: [0], Q3: [0, 1, 2],
                 chain4: [0, 1, 2, 3], pinched: [0, 1, 2, 3, 4]}
        agreed = refused = 0
        for t in range(1000):
            q = (E, Q1, Q3, chain4, pinched)[t % 5]
            n = rng.randint(0, 5)
            space = VSpace(q, [f"p{i}" for i in range(n)],
                           [[rng.choice(pools[q]) for _ in range(n)] for _ in range(n)])
            for side in ("forward", "backward"):
                try:
                    want = definitional_topology(space, side)
                except InvariantError:
                    with pytest.raises(InvariantError, match="fail to cover"):
                        topology_of(space, side)
                    refused += 1
                    continue
                _assert_agrees(topology_of(space, side), want)
                agreed += 1
        assert agreed >= 1800 and refused >= 30, (agreed, refused)

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
