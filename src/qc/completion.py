"""Completion of a finite continuity space by minimal Cauchy filters.

`minimal_cauchy_filters` finds the minimal Cauchy filters in closed form:
they are the filters whose cores are the maximal point-filter cores (the
proof sketch is in its docstring), which are the forward zero masks the
space stores (`VSpace.zero_fwd`).  `complete` equips them with the filter
distance, and the canonical embedding sends a point to its point filter.
The same argument shows that every finite space is Cauchy complete.  On a
finite UVA space the embedding is onto, so `extend_to_completion` extends a
map in closed form, through the inverse of the embedding.

A space of filters is built straight into rank form (`_filters_to_space`):
each pair of filters is classed by the mask of the base ranks met between
their cores, an int (`qc.vspace._cross_ranks`, the kernel behind
`filter_distance`), and the meet is taken once per class, as an element
already checked (`_distance_classes`).

This module only constructs.  The definitional enumerations over all 2^n
cores (the space of every proper Cauchy filter, Cauchy completeness,
Cauchy intersections of zero-distance filters) and the extension by limits
of image filters live in `qc.verify`.  There they serve as oracles, and
its theorem checks prove what the paper states about the construction on
generated instances: the embedding is an isometry
(`completion.embedding_isometry_iff_uva`) and onto
(`completion.embedding_dense`), uniformly continuous maps extend uniquely
(`completion.universal_property`), and roundification maps the separation
quotient of the Cauchy filter space isometrically onto the completion
(`completion.minimal_space_isometric_to_quotient`).
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import InvariantError, PreconditionError
from .filters import Filter, image_filter, roundify
from .vspace import (
    VSpace,
    _EntryClasses,
    _bits,
    _cross_ranks,
    classify,
    has_uniformly_vanishing_asymmetry,
    is_uniformly_continuous,
)


def filter_point_name(f: Filter) -> str:
    return "{" + ",".join(f.core) + "}"


def _filters_to_space(base: VSpace, filters: list[Filter]) -> VSpace:
    """The filters with the filter distance, built straight into rank form
    from their `_distance_classes`."""
    names = [filter_point_name(f) for f in filters]
    return VSpace(base.quantale, names, _distance_classes(base, [f.core_mask for f in filters]))


def _distance_classes(base: VSpace, cores: list[int]) -> _EntryClasses:
    """The set distances between the cores as entry classes, one per mask of
    base ranks met (`_cross_ranks`), each core's points and rows listed once.

    The meets are elements of the base's quantale, so they are not checked
    again; one the base does not hold (on a finite quantale that is not a
    chain) is placed by `_RankForm` like any other entry.
    """
    rank, values = base._ranks.rank, base._ranks.values
    points = [_bits(m) for m in cores]
    memo, meets, classes = {}, [], []
    for source in points:
        rows = [rank[s] for s in source]
        row = []
        for targets in points:
            ranks = _cross_ranks(rows, targets)
            c = memo.get(ranks)
            if c is None:
                c = memo[ranks] = len(meets)
                meets.append(base.quantale._meet_ranks(values, ranks))
            row.append(c)
        classes.append(row)
    return _EntryClasses(meets, classes, True)


def minimal_cauchy_filters(space: VSpace) -> tuple[Filter, ...]:
    """Proper Cauchy filters with no proper Cauchy subfilter, in closed form.

    One filter per maximal point-filter core, in ascending core-mask order.
    Proof sketch: the meet of two positive test values is positive, so the
    finitely many test values have a least one, m, and B_m(x) is the core
    of the point filter of x.  Balls grow with the radius, so a filter is
    Cauchy iff its core lies in some B_m(x), i.e. in some point-filter core.
    A smaller filter has a larger core, so the minimal Cauchy filters are
    those whose cores are the maximal point-filter cores.  With no test
    values (a one-element quantale: every distance is 0) every filter is
    Cauchy, every zero mask is the whole carrier, and the single filter {X}
    results; an empty carrier has none.
    """
    cores = set(space.zero_fwd)
    # from a list, as in `VSpace.__init__`: tuple() over a generator resizes
    return tuple([
        Filter(space, m)
        for m in sorted(cores)
        if not any(m != c and m | c == c for c in cores)
    ])


class CompletionSpace(NamedTuple):
    """Minimal Cauchy filters with the filter distance plus embedding data."""

    base: VSpace
    space: VSpace
    filters: tuple[Filter, ...]
    embedding: dict


def complete(space: VSpace) -> CompletionSpace:
    """Build the space of minimal Cauchy filters over a UVA base.

    Refuses bases without uniformly vanishing asymmetry, quoting the
    witness.  Each point embeds as the minimal filter whose core is its
    forward zero mask (its point filter's core), found by a dict lookup.
    That the embedding is isometric and that the result is the separation
    quotient of the Cauchy filter space under roundification are the
    theorem checks
    `completion.embedding_isometry_iff_uva` and
    `completion.minimal_space_isometric_to_quotient` in `qc.verify`.
    """
    uva = has_uniformly_vanishing_asymmetry(space)
    if not uva:
        raise PreconditionError(
            f"completion needs uniformly vanishing asymmetry; fails at {uva.witness}"
        )
    filters = minimal_cauchy_filters(space)
    by_mask = {f.core_mask: i for i, f in enumerate(filters)}
    embedding = {}
    for p, core in zip(space.points, space.zero_fwd):
        idx = by_mask.get(core)
        if idx is None:
            raise InvariantError(
                f"point filter of {p!r} is not minimal Cauchy on a UVA base"
            )
        embedding[p] = idx
    return CompletionSpace(
        base=space,
        space=_filters_to_space(space, filters),
        filters=filters,
        embedding=embedding,
    )


def canonical_embedding(space: VSpace) -> dict:
    """Each point's point filter, the minimal Cauchy filter `complete`
    embeds it as; refuses bases without uniformly vanishing asymmetry."""
    comp = complete(space)
    return {p: comp.filters[comp.embedding[p]] for p in space.points}


class ExtensionResult(NamedTuple):
    """The completion the map was extended over, and the extended map,
    keyed by the completion's point names.  That it restricts to the map,
    is uniformly continuous and equals the extension by limits of image
    filters is the theorem check `completion.universal_property` in
    `qc.verify`."""

    completion: CompletionSpace
    mapping: dict


def extend_to_completion(fmap: dict, completion: CompletionSpace,
                         target: VSpace) -> ExtensionResult:
    """Extend a uniformly continuous map from `completion.base` along the
    canonical embedding ι, in closed form: f ∘ ι⁻¹.

    Requires: the target separated with uniformly vanishing asymmetry (it
    is Cauchy complete, as every finite space is), and the map uniformly
    continuous.  The source has UVA, since it has a completion; it need not
    be separated.  ι is onto (`completion.embedding_dense`), so each
    completion point is read as ι of its first preimage in carrier order.
    The choice of preimage does not matter: points with one image under ι
    have one point-filter core, so they are at zero distance both ways; a
    uniformly continuous map keeps zero distances zero (`qc.vspace.
    is_uniformly_continuous`), so their images are at zero distance both
    ways too, and in a separated target they are equal.  A map that splits
    a zero-distance class is therefore not uniformly continuous and is
    refused with the rest.
    """
    failed = []
    if not classify(target)["separated"]:
        failed.append("target is not separated")
    if not has_uniformly_vanishing_asymmetry(target):
        failed.append("target lacks uniformly vanishing asymmetry")
    if not is_uniformly_continuous(fmap, completion.base, target):
        failed.append("map is not uniformly continuous")
    if failed:
        raise PreconditionError("; ".join(failed))
    preimage = {}
    for x in completion.base.points:
        preimage.setdefault(completion.embedding[x], x)
    mapping = {p: fmap[preimage[i]] for i, p in enumerate(completion.space.points)}
    return ExtensionResult(completion, mapping)


def induced_completion_map(fmap: dict, source_comp: CompletionSpace,
                           target_comp: CompletionSpace) -> dict:
    """Functorial action: roundified image filters between completions."""
    out = {}
    target_by_mask = {
        f.core_mask: filter_point_name(f) for f in target_comp.filters
    }
    for f in source_comp.filters:
        rounded = roundify(image_filter(fmap, f, target_comp.base))
        name = target_by_mask.get(rounded.core_mask)
        if name is None:
            raise InvariantError(
                "roundified image of a minimal Cauchy filter is not minimal"
            )
        out[filter_point_name(f)] = name
    return out

