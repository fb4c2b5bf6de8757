"""Topology and quasi-uniformity derived from a distance matrix.

The topology is generated by the strict balls {y : eps well-above d(x,y)}
over the test values; the quasi-uniformity by the relations d(x,y) <= eps.
On a finite carrier both are principal: the topology is stored by each
point's least open neighbourhood and the quasi-uniformity by its core
relation, so equality questions compare one mask or row per point, and
nothing here lists the up to 2^n open sets: `is_open` tests one.  On a
valid space both are read off the zero masks, as the quantified
predicates of `qc.vspace` are.  The closure of the strict-ball base under
union and intersection and the subset scan for the opens of a relation
are oracles in `qc.verify`.  The two three-way equivalence lists for
vanishing and uniformly vanishing asymmetry are evaluated condition by
condition and must agree.
"""

from __future__ import annotations

from functools import reduce
from operator import or_
from typing import NamedTuple

from .errors import InvariantError, StructureError
from .reporting import Verdict
from .vspace import (
    VSpace,
    _bits,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    _zero_masks,
)


def _index(points: tuple, name) -> int:
    try:
        return points.index(name)
    except ValueError:
        raise StructureError(f"unknown point {name!r}") from None


class FiniteTopology(NamedTuple):
    """A finite topology, stored by each point's least open neighbourhood.

    A mask is open iff it contains the neighbourhood of each of its points.
    """

    points: tuple[str, ...]
    neighbourhoods: tuple[int, ...]  # masks

    def _is_open_mask(self, m: int) -> bool:
        return all(self.neighbourhoods[i] | m == m for i in _bits(m))

    def is_open(self, names) -> bool:
        return self._is_open_mask(sum({1 << _index(self.points, p) for p in names}))

    @property
    def is_discrete(self) -> bool:
        return all(nb == 1 << i for i, nb in enumerate(self.neighbourhoods))


def topology_of(space: VSpace, side: str = "forward") -> FiniteTopology:
    """Strict-ball topology of a valid space, by its zero masks.

    A point's least open neighbourhood is its zero mask: that is its
    strict ball at the least test value, and the triangle law puts it
    inside every strict ball that holds the point.  With no test values
    there are no balls, and the topology is indiscrete.  The guard refuses
    masks that do not come from a preorder.
    """
    nbs = _zero_masks(space, side) if space.test_values else (space.full_mask,) * space.size
    for i, m in enumerate(nbs):
        if not m >> i & 1 or reduce(or_, [nbs[j] for j in _bits(m)], m) != m:
            raise InvariantError("zero distance is not a preorder")
    return FiniteTopology(space.points, tuple(nbs))


# the bits of each byte, lowest first, as bools: a core row is read a byte at a time
_BYTE_ROWS = tuple(tuple([bool(b >> j & 1) for j in range(8)]) for b in range(256))


class QuasiUniformity(NamedTuple):
    """Principal entourage filter, stored by its core relation."""

    points: tuple[str, ...]
    core: tuple  # boolean matrix rows

    def related(self, x, y) -> bool:
        return self.core[_index(self.points, x)][_index(self.points, y)]


def quasi_uniformity_of(space: VSpace, side: str = "forward") -> QuasiUniformity:
    """Intersection of the test-value entourages; reflexive by construction.

    That is the zero relation, the entourage of the least test value, or
    every pair when there are no test values.  Each distinct zero mask is
    expanded into a row once per space, a byte at a time through
    `_BYTE_ROWS`, and kept on the space keyed by the mask, so points with
    equal masks (twins among them) share it, and so do the two sides: on a
    space with uniformly vanishing asymmetry the backward masks are the
    forward ones, and the second side only looks its rows up.
    """
    n = space.size
    rows = _zero_masks(space, side) if space.test_values else [space.full_mask] * n
    if any(not r >> i & 1 for i, r in enumerate(rows)):
        raise InvariantError("entourage core is not reflexive")
    cache, width, row_of_byte = space._core_rows, (n + 7) // 8, _BYTE_ROWS.__getitem__
    for r in set(rows).difference(cache):
        cache[r] = sum(map(row_of_byte, r.to_bytes(width, "little")), ())[:n]
    # from a list: tuple() over a map resizes its result, and in a long run the
    # tuples it frees raised peak memory (as in `_RankForm.masks`)
    return QuasiUniformity(space.points, tuple([cache[r] for r in rows]))


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
    every point of O has its core neighbourhood inside O.  A point's least
    open neighbourhood is the point plus all it reaches along the core."""
    grown = [sum(1 << j for j, r in enumerate(row) if r) | 1 << i for i, row in enumerate(core)]
    nbs = None
    while grown != nbs:
        # each round adds the points reached so far from the points reached
        nbs, grown = grown, [reduce(or_, [grown[j] for j in _bits(m)], m) for m in grown]
    return FiniteTopology(tuple(points), tuple(nbs))


class EquivalenceReport(NamedTuple):
    """Per-condition verdicts of one of the three-way equivalence lists."""

    kind: str
    conditions: dict
    holds: bool


def _not_open(src_top: FiniteTopology, tgt_top: FiniteTopology) -> list[int]:
    """The target neighbourhoods that are not open in the source: the
    identity map is continuous iff there is none."""
    return [m for m in tgt_top.neighbourhoods if not src_top._is_open_mask(m)]


def va_equivalence_report(space: VSpace) -> EquivalenceReport:
    """Pointwise moduli, identity homeomorphism, equality of topologies.

    `holds` is the pointwise-modulus verdict.  That the three conditions
    agree is the theorem check `structures.va_conditions_agree` in
    `qc.verify`.
    """
    modulus = has_vanishing_asymmetry(space)
    fwd = topology_of(space, "forward")
    bwd = topology_of(space, "backward")
    # the witness is the first neighbourhood that fails, backward into forward first
    bad = _not_open(bwd, fwd) + _not_open(fwd, bwd)
    homeo = Verdict(False, {"open_set": space.names_of(bad[0])}) if bad else Verdict(True)
    differs = [p for p, f, b in zip(space.points, fwd.neighbourhoods, bwd.neighbourhoods) if f != b]
    equal = Verdict(False, {"point": differs[0]}) if differs else Verdict(True)
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
