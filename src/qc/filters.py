"""Filters on finite continuity spaces, in principal-core form.

Every filter on a finite carrier is the set of supersets of its least
member, so a filter is stored as its space plus a core bitmask; the
improper filter is the empty core.  The family-level definitions
(membership, image, intersection, roundification, filter distance, the
round predicate) collapse to core formulas; the verify module re-derives
each collapse from the family-level definitions on small carriers before
the fast paths here are trusted.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DomainMismatchError, PreconditionError, StructureError
from .reporting import Verdict
from .vspace import (
    VSpace,
    _as_index_map,
    _bits,
    _set_distance_masks,
    _uc_witness,
    _zero_masks,
)


class _FilterFields(NamedTuple):
    space: VSpace
    core_mask: int


class Filter(_FilterFields):
    """All supersets of `core`; proper exactly when the core is non-empty."""

    __slots__ = ()

    def __new__(cls, space: VSpace, core_mask: int):
        if not 0 <= core_mask <= space.full_mask:
            raise StructureError(f"core mask {core_mask} out of range")
        return tuple.__new__(cls, (space, core_mask))

    @classmethod
    def _make(cls, iterable):
        # `_replace` builds through `_make`: keep the range check there too
        return cls(*iterable)

    @property
    def core(self) -> tuple[str, ...]:
        return self.space.names_of(self.core_mask)

    @property
    def proper(self) -> bool:
        return self.core_mask != 0

    def contains(self, names) -> bool:
        """Membership: a subset belongs to the filter iff it covers the core."""
        m = self.space.mask(names)
        return (m | self.core_mask) == m

    def __repr__(self):
        label = ",".join(self.core) if self.proper else "improper"
        return f"<Filter {{{label}}} on {list(self.space.points)}>"


def principal_filter(space: VSpace, names) -> Filter:
    return Filter(space, space.mask(names))


def improper_filter(space: VSpace) -> Filter:
    return Filter(space, 0)


def filter_from_base(space: VSpace, family) -> Filter:
    """Least filter containing every member of the family.

    The core is the intersection of the members; the empty family yields
    the filter {X}.  Disjoint members force the improper filter.
    """
    core = space.full_mask
    for subset in family:
        core &= space.mask(subset)
    return Filter(space, core)


def _same_space(f: Filter, g: Filter):
    if f.space is not g.space and f.space != g.space:
        raise DomainMismatchError("filters live on different spaces")


def intersect(f: Filter, g: Filter) -> Filter:
    """Family intersection; in core form the union of the cores."""
    _same_space(f, g)
    return Filter(f.space, f.core_mask | g.core_mask)


def image_filter(fmap: dict, f: Filter, target: VSpace) -> Filter:
    """Push a filter along a point map: sets whose preimage is a member."""
    return Filter(target, _image_core(_as_index_map(fmap, f.space, target), f.core_mask))


def _image_core(fidx, core: int) -> int:
    """The image of a core mask under an index map."""
    m = 0
    for i in _bits(core):
        m |= 1 << fidx[i]
    return m


def point_filter(space: VSpace, x, side: str = "forward") -> Filter:
    """Filter generated by the balls around a point.

    The core is the intersection of the test-value balls, the ball of the
    least one: the zero neighbourhood.  With no positive test values (a
    one-element quantale such as Q1) the base is empty and the least filter
    {X} results, which is the zero neighbourhood too: every distance is 0.
    """
    i = space.index(x)
    space.test_values  # refuses a table with positives but without 0
    return Filter(space, _zero_masks(space, side)[i])


def is_cauchy(f: Filter, side: str = "forward") -> Verdict:
    """Some ball of every radius is a member: a zero neighbourhood covers the core."""
    zeros, core, tv = _zero_masks(f.space, side), f.core_mask, f.space.test_values
    if tv and not any(z | core == z for z in zeros):
        return Verdict(False, {"epsilon": f.space.quantale.format(tv[0])})
    return Verdict(True)


def is_round(f: Filter) -> Verdict:
    """Every member absorbs all sufficiently small covering balls.

    Checked on the core only: a radius that works for the core works for
    every superset, and the least test value works if any does, so no zero
    neighbourhood may strictly contain the core.  The verify module
    re-checks the reduction against the all-members definition.
    """
    core = f.core_mask
    if f.space.test_values and not any(z | core == z != core for z in f.space.zero_fwd):
        return Verdict(True)
    return Verdict(False, {"member": f.core})


def roundify(f: Filter) -> Filter:
    """Filter generated by the fattened members.

    In core form: points at zero distance from some core point.  With no
    positive test values the generating base is empty and the result is the
    least filter {X}.
    """
    space = f.space
    if not space.test_values:
        return Filter(space, space.full_mask)
    zeros, m = space.zero_fwd, 0
    for i in _bits(f.core_mask):
        m |= zeros[i]
    return Filter(space, m)


def is_minimal_cauchy(f: Filter) -> Verdict:
    """No strictly smaller proper Cauchy filter exists.

    A core is Cauchy iff a zero neighbourhood covers it, and every subset
    of a Cauchy core is Cauchy.  So a Cauchy core is minimal iff no zero
    neighbourhood strictly contains it, which makes it a maximal zero
    neighbourhood.  With no positive test values (a one-element quantale)
    every filter is Cauchy, and only the core X is minimal: every zero
    neighbourhood is X.  The witness is the zero neighbourhood of largest
    mask strictly above the core: the first Cauchy core that the superset
    enumeration `qc.verify.definitional_is_minimal_cauchy` finds.
    """
    if not f.proper:
        raise PreconditionError("minimality is asked of proper filters only")
    cau = is_cauchy(f)
    if not cau:
        return Verdict(False, {"reason": "not cauchy", **(cau.witness or {})})
    space, core = f.space, f.core_mask
    above = [z for z in space.zero_fwd if z | core == z != core]
    if above:
        return Verdict(
            False, {"reason": "proper cauchy subfilter", "core": space.names_of(max(above))}
        )
    return Verdict(True)


def converges(f: Filter, x, side: str = "forward") -> Verdict:
    """Every ball around x is a member: the core lies in x's zero neighbourhood."""
    space = f.space
    i = space.index(x)
    zero = _zero_masks(space, side)[i]
    tv = space.test_values
    if tv and zero | f.core_mask != zero:
        return Verdict(False, {"epsilon": space.quantale.format(tv[0])})
    return Verdict(True)


def filter_distance(f: Filter, g: Filter):
    """Join over members of the set distance; attained at the cores."""
    _same_space(f, g)
    return _set_distance_masks(f.space, f.core_mask, g.core_mask)


def is_filter_morphism(fmap: dict, f: Filter, g: Filter) -> Verdict:
    """Uniformly continuous map whose image filter refines the target filter."""
    if f.space.quantale != g.space.quantale:
        raise DomainMismatchError("filter morphisms need a shared quantale")
    # one index map serves the continuity test and the image
    fidx = _as_index_map(fmap, f.space, g.space)
    uc = _uc_witness(fidx, f.space, g.space)
    if uc is not None:
        return Verdict(False, {"reason": "not uniformly continuous", **uc})
    # the image filter contains g iff its core lies in g's; the masks decide
    # it, and the names are read only for the witness
    image, target = _image_core(fidx, f.core_mask), g.core_mask
    if image | target != target:
        return Verdict(
            False,
            {
                "reason": "image filter does not contain the target filter",
                "image_core": g.space.names_of(image),
                "target_core": g.core,
            },
        )
    return Verdict(True)
