"""Topology and quasi-uniformity derived from a distance matrix.

The topology is generated by the strict balls {y : eps well-above d(x,y)}
over the test values; the quasi-uniformity by the relations d(x,y) <= eps.
On a finite carrier both structures are principal, so equality questions
reduce to comparing open-set families and core relations.  The two
three-way equivalence lists for vanishing and uniformly vanishing
asymmetry are evaluated condition by condition and must agree.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError
from .reporting import Verdict
from .vspace import (
    VSpace,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    _forward,
    _zero_masks,
)


class FiniteTopology(NamedTuple):
    points: tuple[str, ...]
    opens: frozenset  # masks

    def open_sets(self) -> tuple[tuple[str, ...], ...]:
        """Open sets as sorted name tuples, smallest mask first."""
        by_mask = sorted(self.opens)
        return tuple(
            tuple(p for i, p in enumerate(self.points) if m >> i & 1)
            for m in by_mask
        )

    def is_open(self, names) -> bool:
        m = 0
        index = {p: i for i, p in enumerate(self.points)}
        for p in names:
            m |= 1 << index[p]
        return m in self.opens

    @property
    def is_discrete(self) -> bool:
        return len(self.opens) == 1 << len(self.points)


def _close_under_union_intersection(n: int, base: set) -> frozenset:
    sets = set(base)
    sets.add(0)
    if n == 0:
        return frozenset(sets)
    changed = True
    while changed:
        changed = False
        current = list(sets)
        for i, a in enumerate(current):
            for b in current[i:]:
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        changed = True
    return frozenset(sets)


def topology_of(space: VSpace, side: str = "forward") -> FiniteTopology:
    """Opens generated by strict balls; backward uses the dual space."""
    if not _forward(side):
        return topology_of(space.dual(), "forward")
    if not space.size:
        return FiniteTopology(space.points, frozenset({0}))
    if not space.test_values:
        # no positive radii means no basic balls: the indiscrete topology
        return FiniteTopology(space.points, frozenset({0, space.full_mask}))
    base = set()
    for eps in space.test_values:
        base.update(space._strict_balls(eps))
    opens = _close_under_union_intersection(space.size, base)
    if space.full_mask not in opens:
        raise InvariantError("strict balls fail to cover the carrier")
    return FiniteTopology(space.points, opens)


# the bits of each byte, lowest first, as bools: a core row is read a byte at a time
_BYTE_ROWS = tuple(tuple([bool(b >> j & 1) for j in range(8)]) for b in range(256))


class QuasiUniformity(NamedTuple):
    """Principal entourage filter, stored by its core relation."""

    points: tuple[str, ...]
    core: tuple  # boolean matrix rows

    def related(self, x, y) -> bool:
        index = {p: i for i, p in enumerate(self.points)}
        return self.core[index[x]][index[y]]


def quasi_uniformity_of(space: VSpace, side: str = "forward") -> QuasiUniformity:
    """Intersection of the test-value entourages; reflexive by construction.

    That is the zero relation, the entourage of the least test value, or
    every pair when there are no test values.  Each distinct zero mask is
    expanded into a row once, a byte at a time through `_BYTE_ROWS`, and
    points with equal masks (twins among them) share it.
    """
    zeros = _zero_masks(space, side)
    n = space.size
    rows = zeros if space.test_values else [space.full_mask] * n
    width, row_of_byte = (n + 7) // 8, _BYTE_ROWS.__getitem__
    expanded = {
        r: sum(map(row_of_byte, r.to_bytes(width, "little")), ())[:n] for r in set(rows)
    }
    if any(not r >> i & 1 for i, r in enumerate(rows)):
        raise InvariantError("entourage core is not reflexive")
    return QuasiUniformity(space.points, tuple([expanded[r] for r in rows]))


def uniformities_equal(space: VSpace) -> Verdict:
    """U(X) = U(X^op), by core equality; verify re-checks it by base refinement."""
    fwd = quasi_uniformity_of(space, "forward")
    bwd = quasi_uniformity_of(space, "backward")
    if fwd.core == bwd.core:
        return Verdict(True)
    diff = next(
        (fwd.points[i], fwd.points[j])
        for i in range(space.size)
        for j in range(space.size)
        if fwd.core[i][j] != bwd.core[i][j]
    )
    return Verdict(False, {"pair": diff})


def topology_of_relation(points, core) -> FiniteTopology:
    """Standard topology of a principal quasi-uniformity: O open iff
    every point of O has its core neighbourhood inside O."""
    n = len(points)
    opens = set()
    for m in range(1 << n):
        ok = True
        for i in range(n):
            if m >> i & 1:
                for j in range(n):
                    if core[i][j] and not m >> j & 1:
                        ok = False
                        break
            if not ok:
                break
        if ok:
            opens.add(m)
    return FiniteTopology(tuple(points), frozenset(opens))


class EquivalenceReport(NamedTuple):
    """Per-condition verdicts of one of the three-way equivalence lists."""

    kind: str
    conditions: dict
    holds: bool


def _identity_continuous(src_top: FiniteTopology, tgt_top: FiniteTopology) -> Verdict:
    """The identity map is continuous iff target opens are source opens."""
    missing = sorted(tgt_top.opens - src_top.opens)
    if missing:
        names = tuple(
            p for i, p in enumerate(tgt_top.points) if missing[0] >> i & 1
        )
        return Verdict(False, {"open_set": names})
    return Verdict(True)


def va_equivalence_report(space: VSpace) -> EquivalenceReport:
    """Pointwise moduli, identity homeomorphism, equality of topologies.

    `holds` is the pointwise-modulus verdict.  That the three conditions
    agree is the theorem check `structures.va_conditions_agree` in
    `qc.verify`.
    """
    modulus = has_vanishing_asymmetry(space)
    fwd = topology_of(space, "forward")
    bwd = topology_of(space, "backward")
    into = _identity_continuous(bwd, fwd)
    outof = _identity_continuous(fwd, bwd)
    if into and outof:
        homeo = Verdict(True)
    else:
        homeo = Verdict(False, (into.witness or outof.witness))
    equal = (
        Verdict(True)
        if fwd.opens == bwd.opens
        else Verdict(False, {"difference": len(fwd.opens ^ bwd.opens)})
    )
    conditions = {
        "pointwise_modulus": modulus,
        "identity_homeomorphism": homeo,
        "topologies_equal": equal,
    }
    return EquivalenceReport("va", conditions, modulus.ok)


def uva_equivalence_report(space: VSpace) -> EquivalenceReport:
    """Uniform modulus, uniformly continuous identities, equal uniformities.

    All three are read off the zero masks, so they agree by construction;
    qc.verify compares them with their test-value loops.
    """
    modulus = has_uniformly_vanishing_asymmetry(space)
    ident = {p: p for p in space.points}
    op = space.dual()
    into = is_uniformly_continuous(ident, op, space)
    outof = is_uniformly_continuous(ident, space, op)
    if into and outof:
        both = Verdict(True)
    else:
        both = Verdict(False, (into.witness or outof.witness))
    equal = uniformities_equal(space)
    conditions = {
        "uniform_modulus": modulus,
        "identity_uniformly_continuous": both,
        "uniformities_equal": equal,
    }
    return EquivalenceReport("uva", conditions, modulus.ok)
