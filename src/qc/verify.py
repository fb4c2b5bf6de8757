"""Oracles and the machine-checked theorem suite.

Five layers of defence:

* family-level oracles re-derive every collapsed core formula (membership,
  image, intersection, roundification, filter distance, the round
  reduction) from the set-of-subsets definitions on small carriers, and
  confirm that every upward- and intersection-closed family is principal;
* the dense-sampling oracle replays each epsilon-quantified predicate with
  quantifiers ranging over stratified random rationals instead of the
  finite test set, and demands identical verdicts; those test-value loops
  are in turn the oracles for the zero-mask closed forms of the library;
* the definitional enumerations over all 2^n filter cores (the space of
  every proper Cauchy filter, Cauchy completeness, Cauchy intersections of
  zero-distance filters, and `definitional_is_minimal_cauchy`, which tries
  every core above a filter's) and the extension of a map by limits of
  image filters (`definitional_extension`) are oracles for the closed
  forms the library uses, as are the closure of the strict balls (one
  `well_above` per entry) under union and intersection
  (`definitional_topology`) and the scan of every subset for the opens of
  a relation (`definitional_relation_topology`) for the neighbourhood
  forms of `qc.structures`, whose topology reads the zero masks and no
  strict ball; the theorem suite reads the Cauchy and minimal verdicts of
  the test-value loop for all 2^n cores at once, as lane tables (one
  2^n-bit int per verdict, see `_SpaceState`), and the tests compare those
  lanes with `_cauchy_over` and `definitional_is_minimal_cauchy`;
* the per-entry definitions of the triangle law, balls and set distances
  are oracles for the rank-compiled kernels of `qc.vspace`, and the
  checked triangle repair for the keyed one the generator uses; the
  per-entry ε references (the entourage core, and the symmetry moduli,
  which check the uniform flip) read `definitional_balls`, while VA and
  UVA are checked by the test-value loops; the test suite compares each
  with its oracle;
* the theorem suite runs every structural statement about filters,
  completions, and the asymmetry classes over the instances of a source
  (seeded generated ones, `InstanceGenerator.contexts`, or the census of
  the one-point quantale, `q1_census`), recording failures as data (the
  seed, the instance and the witness; see `run_theorem_suite`) rather
  than raising.

The suite refuses to run unless the first two oracle layers (the oracle
gate) pass first; a process compares the library's answers with the
oracles' pinned ones (`oracle_gate`).
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cached_property, lru_cache, partial, reduce
from itertools import product
from operator import and_
from typing import NamedTuple

from . import serialize
from .completion import (
    CompletionSpace,
    _distance_classes,
    _filters_to_space,
    complete,
    extend_to_completion,
    filter_point_name,
    induced_completion_map,
    minimal_cauchy_filters,
)
from .errors import InvariantError, PreconditionError, QcError
from .filters import (
    Filter,
    _image_core,
    converges,
    filter_distance,
    image_filter,
    intersect,
    is_cauchy,
    is_filter_morphism,
    is_round,
    point_filter,
    roundify,
)
from .quantale import EXT_RATIONAL, INF, BUILTIN_QUANTALES, ValueQuantale
from .reporting import CheckFailure, ValidationReport, Verdict
from .structures import (
    topology_of,
    topology_of_relation,
    quasi_uniformity_of,
    uva_equivalence_report,
    va_equivalence_report,
)
from .vspace import (
    VSpace,
    _EntryClasses,
    _bits,
    _entry_classes,
    _forward,
    _set_distance_masks,
    _uniform_flip_ok,
    classify,
    combined_test_values,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    separation_quotient,
    validate_vspace,
)


class VerificationReport:
    """Aggregated outcome of one check across many instances; the suite
    counts into it as it runs."""

    __slots__ = ("id", "instances", "passes", "failures", "runtime")

    def __init__(self, id: str, instances: int = 0, passes: int = 0,
                 failures: tuple = (), runtime: float = 0.0):
        self.id = id
        self.instances = instances
        self.passes = passes
        self.failures = failures
        self.runtime = runtime

    @property
    def ok(self) -> bool:
        return not self.failures

    def payload(self) -> dict:
        # runtime is deliberately excluded: structured reports must be
        # byte-identical across runs with the same seed
        return {
            "id": self.id,
            "instances": self.instances,
            "passes": self.passes,
            "failures": list(self.failures),
        }


# ---------------------------------------------------------------------------
# instance generation


class InstanceGenerator(NamedTuple):
    """Seeded stream of valid spaces over one quantale.

    Identical parameters reproduce identical streams.  Raw random entries
    are repaired to satisfy the triangle law by relaxing each entry to the
    meet of itself and all two-step path sums until a fixed point, which
    only ever lowers entries.
    """

    seed: int
    quantale: ValueQuantale = EXT_RATIONAL
    min_points: int = 2
    max_points: int = 5
    zero_weight: int = 3
    force_uva: bool = False
    force_separated: bool = False

    def child_seeds(self, count: int) -> list[int]:
        master = random.Random(f"qc:{self.seed}")
        return [master.getrandbits(63) for _ in range(count)]

    def contexts(self, count: int):
        """The theorem-suite instances at the first `count` child seeds
        (`_Ctx.generated`), built and derived through one `_Suite`; a
        failure replays from its child seed."""
        suite = _Suite()
        for child in self.child_seeds(count):
            yield _Ctx.generated(self, child, suite)


def _draw_value(gen: InstanceGenerator, rng: random.Random):
    q = gen.quantale
    if q.is_finite:
        n = q.size
        weights = [gen.zero_weight if e == q.bottom else 1 for e in range(n)]
        return rng.choices(range(n), weights=weights, k=1)[0]
    # 0 at zero_weight, INF at 1, and n/d with n in 1..4 and d in 1..3 at 6
    roll = rng.randrange(gen.zero_weight + 7)
    if roll < gen.zero_weight:
        return q.bottom
    if roll == gen.zero_weight:
        return INF
    return _DRAWN_VALUES[rng.randint(1, 4), rng.randint(1, 3)]


# the positive finite values `_draw_value` draws, n/d for n in 1..4 and d in
# 1..3, each built once: a Fraction is immutable, so the draws share them
_DRAWN_VALUES = {(n, d): Fraction(n, d) for n in range(1, 5) for d in range(1, 4)}


def triangle_repair(quantale: ValueQuantale, dmat) -> tuple[list, int]:
    """Relax every entry below all two-step path sums until stable.

    Entries never increase; the pass stabilises within |X|^3 full rounds.
    Entries are checked once, on the way in.  The loop is the one of
    `definitional_triangle_repair`, run on table indices for a finite
    quantale and on exact keys on the extended rationals (value * L with L
    the lcm of the denominators, or the values themselves past the key
    budget, where they have no keys; INF is None, since relaxed sums
    outgrow any top sentinel), and it returns the same matrix and the same
    number of rounds.
    """
    keys, scale, rounds = _repair_keys(quantale, dmat)
    value = _key_value(scale)
    return [[value(c) for c in row] for row in keys], rounds


def _repair_keys(quantale: ValueQuantale, dmat):
    """`triangle_repair` on the keys: the repaired matrix of keys, the key
    scale (see `_key_value`), and the number of rounds.

    The keys are table indices on a finite quantale, and on the extended
    rationals the int keys of the rank form's kernel, or the values
    themselves where it gives none, with None for INF.  Either way a sum
    of keys is the key of the sum, and a value is 0 iff its key is the key
    of 0.
    """
    # each distinct entry object is checked once: a drawn matrix repeats the
    # shared zero and INF, and a finite quantale's small int indices
    checked = {id(e): e for row in dmat for e in row}
    checked = dict(zip(checked, [quantale.check(e) for e in checked.values()]))
    if quantale.is_finite:
        d = [[checked[id(e)] for e in row] for row in dmat]
        return d, None, _relax(d, _tables(quantale))
    # the keys of the rank form's kernel, with None for INF's rank
    values, renumber, okeys = quantale._rank_values(list(checked.values()))
    if okeys is None:
        keys, scale = [None if v is INF else v for v in values], None
    else:
        keys, scale = okeys.keys[: okeys.finite] + (None,), okeys.scale
    key = dict(zip(checked, [keys[r] for r in renumber]))
    k = [[key[id(e)] for e in row] for row in dmat]
    return k, scale, _relax(k, None)


def _key_value(scale):
    """The map from a key to its value.  With scale None the keys are the
    values themselves: a finite quantale's table indices, and the extended
    rationals past the key budget.  Other keys are value * scale.  None,
    the key of INF, never occurs on a finite quantale."""

    def value(c):
        if c is None:
            return INF
        return c if scale is None else Fraction(c, scale)

    return value


def _tables(quantale: ValueQuantale):
    """The (add, leq, meet) tables `_relax` runs on; None on the extended rationals."""
    return (quantale._add, quantale._leq, quantale._meet_t) if quantale.is_finite else None


def _relax(d, tables) -> int:
    """`definitional_triangle_repair`'s loop, in place; the number of rounds.

    With `tables` (add, leq, meet) the entries are indices of a finite
    quantale; with None they are keys of a chain, None standing for its top.
    """
    add, leq, meet = tables or (None, None, None)
    n = len(d)
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds > n * n * n + 1:
            raise InvariantError("triangle repair failed to stabilise")
        for i in range(n):
            row = d[i]
            for k in range(n):
                best = row[k]
                if tables is None:
                    for j in range(n):
                        a, b = row[j], d[j][k]
                        if a is None or b is None:
                            continue
                        cand = a + b
                        if best is None or cand < best:
                            best = cand
                    increased = best != row[k] and row[k] is not None and best > row[k]
                else:
                    for j in range(n):
                        cand = add[row[j]][d[j][k]]
                        if not leq[best][cand]:
                            best = meet[best][cand]
                    increased = not leq[best][row[k]]
                if best != row[k]:
                    if increased:
                        raise InvariantError("triangle repair increased a distance")
                    row[k] = best
                    changed = True
    return rounds


def _generate_space(gen: InstanceGenerator, rng: random.Random, max_points=None,
                    built: dict | None = None) -> VSpace:
    """The next space of `gen`'s stream, drawn from `rng`.

    With a table `built` (`_keyed_space`), a repaired key matrix met before
    returns the space built for it then; every draw is still made, so the
    stream does not move.
    """
    q = gen.quantale
    hi = gen.max_points if max_points is None else min(gen.max_points, max_points)
    lo = min(gen.min_points, hi)
    n = rng.randint(lo, hi)
    d = [[_draw_value(gen, rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = q.bottom
    # the space is repaired and made UVA on the keys of `_repair_keys`, and
    # each distinct key is turned into its value once
    k, scale, _ = _repair_keys(q, d)
    if gen.force_uva:
        zero = q.bottom if q.is_finite else 0
        for _ in range(n * n + 1):
            changed = False
            for i in range(n):
                for j in range(n):
                    if k[i][j] == zero and k[j][i] != zero:
                        k[j][i] = k[i][j]
                        changed = True
            if not changed:
                break
            _relax(k, _tables(q))
    return _keyed_space(gen, k, scale, {} if built is None else built)


def _keyed_space(gen: InstanceGenerator, k, scale, built: dict) -> VSpace:
    """The space of the repaired key matrix `k` at key scale `scale`, built
    and checked once per table `built`.

    The table's key is the quantale, the scale, `force_separated` and the
    key matrix, which together fix the space: on the extended rationals a
    key is value * scale, so one key matrix at two scales is two spaces.
    A hit returns the stored space without building or checking it again:
    the guards are functions of the key and passed for it.  The UVA guard
    ran only if a generator that forces UVA built the entry, so a hit from
    such a generator runs it on an entry built without it, once.
    """
    q = gen.quantale
    key = (q, scale, gen.force_separated, tuple(map(tuple, k)))
    space, guarded = built.get(key, (None, False))
    if space is None:
        # the repaired values are elements already, so they are not checked again
        value = _key_value(scale)
        entries = _entry_classes(k, value)._replace(checked=True)
        space = VSpace(q, [f"p{i}" for i in range(len(k))], entries)
        if gen.force_separated:
            space, _ = separation_quotient(space)
        check = validate_vspace(space)
        if not check.ok:
            raise InvariantError(f"generator produced an invalid space: {check.failures[0]}")
    if gen.force_uva and not guarded:
        if not has_uniformly_vanishing_asymmetry(space):
            raise InvariantError("generator failed to force uniformly vanishing asymmetry")
        guarded = True
    built[key] = (space, guarded)
    return space


# ---------------------------------------------------------------------------
# family-level filter oracle


def _family_is_filter(n: int, members: frozenset) -> bool:
    if not members:
        return False
    nsub = 1 << n
    for s in members:
        for t in range(nsub):
            if s | t == t and t not in members:
                return False
    for a in members:
        for b in members:
            if a & b not in members:
                return False
    return True


def enumerate_filter_families(n: int):
    """All nonempty, upward-closed, intersection-closed families; n <= 3."""
    if n > 3:
        raise PreconditionError("family enumeration is 2^(2^n); capped at n = 3")
    nsub = 1 << n
    for fam in range(1, 1 << nsub):
        members = frozenset(s for s in range(nsub) if fam >> s & 1)
        if _family_is_filter(n, members):
            yield members


def _family_of_core(n: int, core: int) -> frozenset:
    return frozenset(s for s in range(1 << n) if s & core == core)


def _family_core(members: frozenset) -> int:
    it = iter(members)
    core = next(it)
    for s in it:
        core &= s
    return core


def _family_generated(n: int, base) -> frozenset:
    """Least filter containing a (possibly empty) filter base."""
    # the empty base generates {X}, as the base {X} does
    base = set(base) or {(1 << n) - 1}
    return frozenset(t for t in range(1 << n) if any(c & t == c for c in base))


def _preimages(fidx, n: int) -> list[int]:
    """Per subset s of the n target points, the mask of its preimage."""
    out = []
    for s in range(1 << n):
        pre = 0
        for i, j in enumerate(fidx):
            if s >> j & 1:
                pre |= 1 << i
        out.append(pre)
    return out


def _family_image(preimages, members: frozenset) -> frozenset:
    """The sets whose preimage (read from `_preimages`) is a member."""
    return frozenset([s for s, pre in enumerate(preimages) if pre in members])


def _family_distance(q: ValueQuantale, table: _EntryClasses, m1: frozenset, m2: frozenset):
    """Join over member pairs of their set distance, read from `table`.

    `table` numbers the set distances by class (`_distance_classes`), so
    the pairs are gathered as ints; the join is idempotent, so it runs over
    the distinct classes read.  The class values are meets, elements
    already, so the join checks none of them again.
    """
    classes = table.classes
    return q._join([table.values[c] for c in {classes[s][t] for s in m1 for t in m2}])


def _family_roundify(space: VSpace, radii, members: frozenset) -> frozenset:
    """`radii` holds the forward balls of each test value."""
    base = []
    for s in sorted(members):
        for balls in radii:
            m = 0
            for i in range(space.size):
                if s >> i & 1:
                    m |= balls[i]
            base.append(m)
    fam = _family_generated(space.size, base)
    if not _family_is_filter(space.size, fam):
        raise InvariantError("fattened base did not generate a filter")
    return fam


def _family_is_round(radii, members: frozenset) -> bool:
    for fp in sorted(members):
        found = False
        for balls in radii:
            ok = True
            for b in balls:
                if b in members and (b | fp) != fp:
                    ok = False
                    break
            if ok:
                found = True
                break
        if not found:
            return False
    return True


def _oracle_battery(n: int) -> list[VSpace]:
    """Deterministic spaces exercising zeros, asymmetry, infinities."""
    names = [f"p{i}" for i in range(n)]
    ext = EXT_RATIONAL
    spaces = []

    def mk(q, fn):
        d = [[q.bottom if i == j else fn(i, j) for j in range(n)] for i in range(n)]
        spaces.append(VSpace(q, names, d))

    mk(ext, lambda i, j: Fraction(0))
    mk(ext, lambda i, j: Fraction(0) if i < j else Fraction(1))
    mk(ext, lambda i, j: Fraction(abs(i - j)))
    mk(ext, lambda i, j: INF)
    mk(ext, lambda i, j: Fraction(1, 2) if (i + j) % 2 else Fraction(1))
    q3 = BUILTIN_QUANTALES["Q3"]
    mk(q3, lambda i, j: 1)
    mk(q3, lambda i, j: 0 if i < j else 1)
    q1 = BUILTIN_QUANTALES["Q1"]
    mk(q1, lambda i, j: 0)
    return spaces


# filter pairs compared in full; past it, pairs of cores of at most two points
_PAIR_LIMIT = 64


def _battery_maps(n: int) -> list:
    """The self-maps of an n-point battery space that filters are pushed
    along, as index tuples."""
    return [tuple(0 for _ in range(n)), tuple(range(n)),
            tuple(min(i + 1, n - 1) for i in range(n)),
            tuple(n - 1 - i for i in range(n))]


def _battery_pairs(n: int) -> list:
    """The core pairs whose intersection and filter distance are compared."""
    cores = range(1 << n)
    pairs = [(a, b) for a in cores for b in cores]
    if len(pairs) > _PAIR_LIMIT:
        pairs = [(a, b) for a, b in pairs if bin(a).count("1") <= 2 and bin(b).count("1") <= 2]
    return pairs


def _value_form(v) -> tuple:
    """A quantale value as two ints, equal exactly when the values are: a
    rational or a table index as numerator and denominator, inf as (1, 0)."""
    return (1, 0) if v is INF else (v.numerator, v.denominator)


def _collapsed_library(space: VSpace) -> tuple:
    """The library's side of the collapsed-formula battery on `space`, in
    ints and bools: per core, its member mask over the subsets, its image
    cores under `_battery_maps`, its roundified core and its round verdict;
    then per pair of `_battery_pairs`, the core of the intersection and the
    filter distance (`_value_form`)."""
    n = space.size
    points = space.points
    subsets = [space.names_of(s) for s in range(1 << n)]
    fmaps = [dict(zip(points, [points[j] for j in fidx])) for fidx in _battery_maps(n)]
    filters = [Filter(space, c) for c in range(1 << n)]
    per_core = tuple([
        (sum([f.contains(names) << s for s, names in enumerate(subsets)]),
         tuple([image_filter(fmap, f, space).core_mask for fmap in fmaps]),
         roundify(f).core_mask,
         bool(is_round(f)))
        for f in filters
    ])
    pairs = tuple([
        (intersect(filters[a], filters[b]).core_mask,
         _value_form(filter_distance(filters[a], filters[b])))
        for a, b in _battery_pairs(n)
    ])
    return per_core, pairs


def _principal_core(n: int, members: frozenset) -> int:
    """The core of a principal family on n points; -1, no core, for any other."""
    core = _family_core(members)
    return core if members == _family_of_core(n, core) else -1


def _collapsed_oracle(space: VSpace) -> tuple:
    """`_collapsed_library`'s answers, read from the family-level definitions."""
    n = space.size
    cores = range(1 << n)
    families = [_family_of_core(n, c) for c in cores]
    maps = _battery_maps(n)
    preimages = [_preimages(fidx, n) for fidx in maps]
    radii = [space._balls(eps, True) for eps in space.test_values]
    per_core = tuple([
        (sum([1 << s for s in fam]),
         tuple([_principal_core(n, _family_image(pre, fam)) for pre in preimages]),
         _principal_core(n, _family_roundify(space, radii, fam)),
         _family_is_round(radii, fam))
        for fam in families
    ])
    # the members of the families are subsets, so their set distances are
    # tabled once, classed by the ranks met as the filter space's are
    q, table = space.quantale, _distance_classes(space, cores)
    pairs = tuple([
        (_principal_core(n, families[a] & families[b]),
         _value_form(_family_distance(q, table, families[a], families[b])))
        for a, b in _battery_pairs(n)
    ])
    return per_core, pairs


def _principality_failures(n: int, got: tuple, want: tuple) -> list:
    """Where the filter families on n points (`_family_cores`) are not the
    library's filters, one per core (`_library_cores`): a family count other
    than theirs, then each family that is not principal, by its core."""
    failures = []
    if len(want) != len(got):
        failures.append({"check": "principality-count", "found": len(want)})
    # the answers keep no family, so they are enumerated again to name them
    failures += [{"check": "principality", "core": _family_core(fam)}
                 for fam in enumerate_filter_families(n) if _principal_core(n, fam) < 0]
    return failures


def _collapsed_formula_failures(space: VSpace, answers: tuple, wanted: tuple) -> list:
    """Where the collapsed core formulas on `space` (`_collapsed_library`'s
    `answers`) differ from the family-level definitions (`wanted`)."""
    failures = []

    def fail(kind, **data):
        failures.append({"check": kind, "space": serialize.space_to_payload(space), **data})

    (cores, pairs), (want_cores, want_pairs) = answers, wanted
    names_of = space.names_of
    for c, (got, want) in enumerate(zip(cores, want_cores, strict=True)):
        core = names_of(c)
        for s in _bits(got[0] ^ want[0]):
            fail("membership", core=core, subset=names_of(s))
        for fidx, image, expected in zip(_battery_maps(space.size), got[1], want[1], strict=True):
            if image != expected:
                fail("image", core=core, map=list(fidx))
        if got[2] != want[2]:
            fail("roundify", core=core, collapsed=names_of(got[2]))
        if got[3] != want[3]:
            fail("round-reduction", core=core)
    for (a, b), got, want in zip(_battery_pairs(space.size), pairs, want_pairs, strict=True):
        if got[0] != want[0]:
            fail("intersection", cores=(names_of(a), names_of(b)))
        if got[1] != want[1]:
            fail("filter-distance", cores=(names_of(a), names_of(b)))
    return failures


def _battery_row(n: int, principality: bool) -> tuple:
    """A gate report's id and items (see `_gate_items`) for the filter
    battery on n points, after the filters themselves when `principality`."""
    items = [("collapsed", space) for space in _oracle_battery(n)]
    if principality:
        return f"oracle.filters.n{n}", [("cores", n)] + items
    return f"oracle.collapsed.n{n}", items


# ---------------------------------------------------------------------------
# definitional enumerations over every filter core


ORACLE_MAX_POINTS = 16


def _refuse_large(space: VSpace) -> None:
    if space.size > ORACLE_MAX_POINTS:
        raise PreconditionError(
            f"carrier has {space.size} points; this oracle enumerates all 2^n "
            f"cores and takes at most {ORACLE_MAX_POINTS}"
        )


class CauchyFilterSpace(NamedTuple):
    """Every proper Cauchy filter with the filter distance."""

    base: VSpace
    space: VSpace
    filters: tuple[Filter, ...]


def cauchy_filter_space(space: VSpace) -> CauchyFilterSpace:
    """Enumerate proper Cauchy filters by core, in ascending mask order.

    Works on any valid space; when the base lacks uniformly vanishing
    asymmetry the structural guarantees about the result are void.
    """
    _refuse_large(space)
    cores = (Filter(space, m) for m in range(1, space.full_mask + 1))
    filters = [f for f in cores if is_cauchy(f)]
    return CauchyFilterSpace(
        base=space,
        space=_filters_to_space(space, filters),
        filters=tuple(filters),
    )


def _divergent_cauchy_core(space: VSpace, cauchy):
    """First proper core passing `cauchy(mask)` that converges nowhere, or None."""
    for mask in range(1, space.full_mask + 1):
        if cauchy(mask):
            f = Filter(space, mask)
            if not any(converges(f, x) for x in space.points):
                return f.core
    return None


def is_cauchy_complete(space: VSpace) -> Verdict:
    """Every proper Cauchy filter converges; witness is a divergent core."""
    _refuse_large(space)
    core = _divergent_cauchy_core(space, lambda m: is_cauchy(Filter(space, m)))
    return Verdict(True) if core is None else Verdict(False, {"core": core})


def definitional_is_minimal_cauchy(f: Filter) -> Verdict:
    """`is_minimal_cauchy` by enumerating every proper subfilter: the
    cores strictly above the filter's, largest mask first."""
    if not f.proper:
        raise PreconditionError("minimality is asked of proper filters only")
    space = f.space
    cau = is_cauchy(f)
    if not cau:
        return Verdict(False, {"reason": "not cauchy", **(cau.witness or {})})
    rest = space.full_mask & ~f.core_mask
    extra = rest
    while extra:
        bigger = f.core_mask | extra
        if is_cauchy(Filter(space, bigger)):
            return Verdict(
                False,
                {"reason": "proper cauchy subfilter", "core": space.names_of(bigger)},
            )
        extra = (extra - 1) & rest
    return Verdict(True)


def _zero_distance_failure(tilde: CauchyFilterSpace):
    # the filter space's matrix holds the filter distances; its zero masks
    # list the pairs at distance 0 in the order of a nested loop.  The
    # intersection's core is the union of the two cores, so each union is
    # decided once; it joins `passed` only after passing, so the first
    # failing pair is still the one reported
    filters = tilde.filters
    cores = [f.core_mask for f in filters]
    passed = set()
    for f, core, zeros in zip(filters, cores, tilde.space.zero_fwd):
        for k in _bits(zeros):
            g = filters[k]
            union = core | cores[k]
            if union not in passed:
                if not is_cauchy(intersect(f, g)):
                    return {"cores": (f.core, g.core)}
                passed.add(union)
    return None


def zero_distance_intersection_cauchy(space: VSpace) -> Verdict:
    """Zero-distance proper Cauchy filters have Cauchy intersections."""
    witness = _zero_distance_failure(cauchy_filter_space(space))
    return Verdict(witness is None, witness)


def definitional_extension(fmap: dict, comp: CompletionSpace, target: VSpace) -> dict:
    """The extension of `fmap` to the completion `comp` by the paper's
    construction: each minimal Cauchy filter goes to the unique limit of
    its roundified image filter.  The oracle for the closed form
    `extend_to_completion` builds."""
    mapping = {}
    for f in comp.filters:
        rounded = roundify(image_filter(fmap, f, target))
        limits = [y for y in target.points if converges(rounded, y)]
        if len(limits) != 1:
            raise InvariantError(
                f"expected a unique limit for the image of {f!r}, got {limits}"
            )
        mapping[filter_point_name(f)] = limits[0]
    return mapping


# ---------------------------------------------------------------------------
# per-entry definitions behind the rank-compiled space kernels
#
# `qc.vspace` decides balls, the uniform flip, the entourage core, the
# triangle law and set distances on bitmasks over a space's distinct values
# (on exact integer keys for the extended rationals), and `triangle_repair`
# relaxes keys or table indices.  These are the definitions they replace,
# one checked quantale call per matrix entry (per triple for the triangle
# law and the repair); tests compare the two exactly.


def definitional_triangle_repair(quantale: ValueQuantale, dmat) -> tuple[list, int]:
    """`triangle_repair` with one checked quantale call per operation."""
    n = len(dmat)
    d = [list(row) for row in dmat]
    rounds = 0
    changed = True
    while changed:
        changed = False
        rounds += 1
        if rounds > n * n * n + 1:
            raise InvariantError("triangle repair failed to stabilise")
        for i in range(n):
            for k in range(n):
                best = d[i][k]
                for j in range(n):
                    cand = quantale.add(d[i][j], d[j][k])
                    if not quantale.leq(best, cand):
                        best = quantale.meet([best, cand])
                if best != d[i][k]:
                    if not quantale.leq(best, d[i][k]):
                        raise InvariantError("triangle repair increased a distance")
                    d[i][k] = best
                    changed = True
    return d, rounds


def definitional_validate_vspace(space: VSpace) -> ValidationReport:
    """Zero-diagonal and triangle failures by the n^3 triple loop."""
    q = space.quantale
    failures = []
    for i in range(space.size):
        if space.dmat[i][i] != q.bottom:
            failures.append(
                CheckFailure(
                    "zero-diagonal",
                    {"point": space.points[i], "value": q.format(space.dmat[i][i])},
                )
            )
    for i in range(space.size):
        for j in range(space.size):
            for k in range(space.size):
                lhs = space.dmat[i][k]
                rhs = q.add(space.dmat[i][j], space.dmat[j][k])
                if not q.leq(lhs, rhs):
                    failures.append(
                        CheckFailure(
                            "triangle",
                            {
                                "triple": tuple(space.points[x] for x in (i, j, k)),
                                "lhs": q.format(lhs),
                                "rhs": q.format(rhs),
                            },
                        )
                    )
    return ValidationReport("vspace", tuple(failures))


def definitional_set_distance(space: VSpace, smask: int, tmask: int):
    """Checked meet of d(s,t) over the cross pairs of two point masks."""
    n = space.size
    return space.quantale.meet(
        space.dmat[i][j]
        for i in range(n)
        if smask >> i & 1
        for j in range(n)
        if tmask >> j & 1
    )


def definitional_balls(space: VSpace, eps) -> tuple:
    """Per point i, the masks of the j with d(i,j) <= eps (forward) and
    with d(j,i) <= eps (backward); one checked `leq` per entry."""
    q, d, n = space.quantale, space.dmat, space.size
    fwd, bwd = [0] * n, [0] * n
    for i in range(n):
        for j in range(n):
            if q.leq(d[i][j], eps):
                fwd[i] |= 1 << j
                bwd[j] |= 1 << i
    return tuple(fwd), tuple(bwd)


def _close_under_union_intersection(base: set) -> frozenset:
    """The least family holding `base` and 0 that is closed under union and
    intersection.  A worklist: each set taken is paired with itself and the
    sets taken before it, so every pair is met once, when its later set is
    taken, and each new union or intersection joins the worklist."""
    sets = set(base)
    sets.add(0)
    todo, taken = list(sets), []
    while todo:
        a = todo.pop()
        taken.append(a)
        for b in taken:
            for c in (a | b, a & b):
                if c not in sets:
                    sets.add(c)
                    todo.append(c)
    return frozenset(sets)


def _strict_ball_bases(space: VSpace) -> tuple[set, set]:
    """The forward and backward strict balls over the test values, from
    one `well_above` per distinct entry of `dmat` and test value, read
    back per entry through the entry's index among the distinct ones."""
    q, dmat = space.quantale, space.dmat
    values = list(dict.fromkeys([e for row in dmat for e in row]))
    index = {e: u for u, e in enumerate(values)}
    cells = [[index[e] for e in row] for row in dmat]
    fwd, bwd = set(), set()
    for eps in space.test_values:
        above = [q.well_above(eps, e) for e in values]
        strict = [[above[u] for u in row] for row in cells]
        fwd.update([sum(1 << j for j, s in enumerate(row) if s) for row in strict])
        bwd.update([sum(1 << i for i, s in enumerate(col) if s) for col in zip(*strict)])
    return fwd, bwd


def _ball_closure(space: VSpace, base: set) -> frozenset:
    if not space.test_values:
        return frozenset({0, space.full_mask})
    opens = _close_under_union_intersection(base)
    if space.full_mask not in opens:
        raise InvariantError("strict balls fail to cover the carrier")
    return opens


def definitional_topology(space: VSpace, side: str = "forward") -> frozenset:
    """The open masks of `topology_of`: the strict balls over the test
    values closed under union and intersection, which must cover the
    carrier; the indiscrete topology when there are no test values."""
    return _ball_closure(space, _strict_ball_bases(space)[not _forward(side)])


def definitional_relation_topology(points, core) -> frozenset:
    """The open masks of `topology_of_relation`, one test per subset: O is
    open iff every point of O has its core neighbourhood inside O."""
    n = len(points)
    return frozenset(
        m for m in range(1 << n)
        if all(m >> j & 1 for i in range(n) if m >> i & 1 for j in range(n) if core[i][j])
    )


def definitional_entourage_core(space: VSpace, forward: bool) -> tuple:
    """Boolean rows: (i, j) related iff the distance is <= every test value,
    the AND of the `definitional_balls` masks over the test values."""
    rows = [space.full_mask] * space.size
    for eps in space.test_values:
        rows = [r & b for r, b in zip(rows, definitional_balls(space, eps)[not forward])]
    return tuple(tuple(bool(r >> j & 1) for j in range(space.size)) for r in rows)


def definitional_symmetry_moduli(space: VSpace, point=None) -> dict:
    """`symmetry_modulus` (uniform, or pointwise at `point`) per entry, for
    every test value eps, as a dict eps -> delta: the largest delta whose
    `definitional_balls` put bwd_delta inside fwd_eps at every point, or at
    `point` both that and fwd_delta inside bwd_eps; None when none does.
    Each side is read as its rows side by side in one int, n bits a row,
    so each admissibility test is one subset test."""
    q, n = space.quantale, space.size
    i = None if point is None else space.index(point)

    def rows(a, b):
        return sum(m << n * k for k, m in enumerate(a if i is None else (a[i], b[i])))

    sides = []
    for t in space.test_values:
        fwd, bwd = definitional_balls(space, t)
        sides.append((t, rows(bwd, fwd), rows(fwd, bwd)))
    deltas = sorted(sides, key=lambda side: q.sort_key(side[0]), reverse=True)
    return {
        eps: next((delta for delta, inner, _ in deltas if not inner & ~outer), None)
        for eps, _, outer in sides
    }


# ---------------------------------------------------------------------------
# test-value loops: the quantified definitions behind the zero-mask forms


def _has_uva_over(space: VSpace, eps_values, delta_values) -> Verdict:
    q = space.quantale
    for eps in eps_values:
        found = False
        for delta in delta_values:
            if _uniform_flip_ok(space, delta, eps) is None:
                found = True
                break
        if not found:
            witness = {"epsilon": q.format(eps)}
            bad = _uniform_flip_ok(space, delta_values[0], eps) if delta_values else None
            if bad is not None:
                witness["pair"] = bad
            return Verdict(False, witness)
    return Verdict(True)


def _has_va_over(space: VSpace, eps_values, delta_values) -> Verdict:
    q = space.quantale
    # each radius's balls are fetched once; the loops read them per point
    eps_balls = [(eps, space._balls(eps, True), space._balls(eps, False)) for eps in eps_values]
    delta_balls = [(space._balls(d, True), space._balls(d, False)) for d in delta_values]
    for i in range(space.size):
        for eps, fwd_e, bwd_e in eps_balls:
            fwd_ei, bwd_ei = fwd_e[i], bwd_e[i]
            if not any(
                not bwd_d[i] & ~fwd_ei and not fwd_d[i] & ~bwd_ei
                for fwd_d, bwd_d in delta_balls
            ):
                return Verdict(
                    False, {"point": space.points[i], "epsilon": q.format(eps)}
                )
    return Verdict(True)


def _uc_violation(fidx, source: VSpace, near_balls, image_balls):
    """A pair within a source ball whose image leaves the target ball.

    `near_balls` are the source's forward balls at some delta and
    `image_balls` the target's at some eps; None or the witness pair.
    """
    for i, near in enumerate(near_balls):
        within = image_balls[fidx[i]]
        for j in _bits(near):
            if not within >> fidx[j] & 1:
                return (source.points[i], source.points[j])
    return None


def _uc_over(fidx, source: VSpace, target: VSpace, eps_values, delta_values) -> Verdict:
    near = [source._balls(delta, True) for delta in delta_values]
    for eps in eps_values:
        images = target._balls(eps, True)
        if not any(
            _uc_violation(fidx, source, balls, images) is None
            for balls in near
        ):
            witness = {"epsilon": target.quantale.format(eps)}
            bad = _uc_violation(fidx, source, near[0], images) if near else None
            if bad is not None:
                witness["pair"] = bad
            return Verdict(False, witness)
    return Verdict(True)


def _point_core_over(space: VSpace, i: int, values, fwd: bool) -> int:
    core = space.full_mask
    for eps in values:
        core &= space._ball(i, eps, fwd)
    return core


def _cauchy_over(f: Filter, values, fwd: bool):
    """First radius with no ball covering the core, or None."""
    core = f.core_mask
    for eps in values:
        if not any(b | core == b for b in f.space._balls(eps, fwd)):
            return eps
    return None


@lru_cache(maxsize=1024)
def _down_lanes(mask: int) -> int:
    """The lanes of every subset of `mask`: bit c is set iff c is a subset."""
    lanes, sub = 1, mask  # lane 0: the empty core
    while sub:
        lanes |= 1 << sub
        sub = (sub - 1) & mask
    return lanes


def _cauchy_lanes(space: VSpace, fwd: bool) -> int:
    """`_cauchy_over` on every core at once: bit c is set iff core c passes
    the test-value loop.  A core is covered by a ball of radius eps iff it
    is a subset of one, so the lanes are the AND over the test values of
    the OR over the points of the down-set lanes of their balls."""
    lanes = (1 << (1 << space.size)) - 1
    for eps in space.test_values:
        covered = 0
        for b in space._balls(eps, fwd):
            covered |= _down_lanes(b)
        lanes &= covered
    return lanes


def _minimal_lanes(space: VSpace, cauchy: int) -> int:
    """The proper cores of the lanes `cauchy` with no Cauchy core strictly
    above them.  Cauchy cores are a down-set, so a core has a Cauchy
    core strictly above iff it has one with one point more: the lanes
    one point below a Cauchy lane, one shift per point."""
    full, every = space.full_mask, (1 << (1 << space.size)) - 1
    below = 0
    for x in range(space.size):
        holding = every ^ _down_lanes(full ^ 1 << x)
        below |= (cauchy & holding) >> (1 << x)
    return cauchy & ~below & ~1


def _round_over(f: Filter, values) -> bool:
    core = f.core_mask
    for eps in values:
        if not any(b | core == b != core for b in f.space._balls(eps, True)):
            return True
    return False


def _converges_over(f: Filter, i: int, values, fwd: bool):
    """First radius whose ball around point i misses the core, or None."""
    space = f.space
    for eps in values:
        b = space._ball(i, eps, fwd)
        if (b | f.core_mask) != b:
            return eps
    return None


def _refines(a, b) -> bool:
    """Relation a is contained in relation b (both as per-point row masks)."""
    return all(not x & ~y for x, y in zip(a, b))


def _base_refinement(space: VSpace) -> bool:
    """U(X) = U(X^op) by mutual refinement of the test-value entourage bases."""
    tv = space.test_values
    return all(
        any(_refines(space._balls(d, False), space._balls(e, True)) for d in tv)
        for e in tv
    ) and all(
        any(_refines(space._balls(d, True), space._balls(e, False)) for d in tv)
        for e in tv
    )


# ---------------------------------------------------------------------------
# dense epsilon-reduction oracle


PREDICATE_IDS = (
    "has_va",
    "has_uva",
    "modulus_exists",
    "is_cauchy",
    "is_round",
    "converges",
    "point_filter",
    "uniform_continuity",
)


def _dense_values(space: VSpace, samples: int, seed: int) -> list:
    """Stratified positive rationals covering every threshold cell, plus inf."""
    rng = random.Random(f"qc-dense:{seed}")
    # the distinct values ascend: 0, when present, first and INF last
    bounds = [Fraction(0)] + [v for v in space._ranks.values if v and v is not INF]
    last = bounds[-1]
    # per cell, lo and the span hi - lo as numerators and denominators, so
    # that lo + span * num / den is one Fraction built on ints
    cells = [(lo, hi - lo) for lo, hi in zip(bounds, bounds[1:])] + [(last, Fraction(2))]
    cells = [(lo.numerator, lo.denominator, s.numerator, s.denominator) for lo, s in cells]

    def draw(a, b, c, d):
        den = rng.randint(1, 12) * 4
        num = rng.randint(1, den - 1)
        return Fraction(a * d * den + c * num * b, b * d * den)

    out = []
    per = max(1, samples // len(cells))
    for cell in cells:
        out += [draw(*cell) for _ in range(per)]
    while len(out) < samples:
        out.append(draw(*cells[-1]))
    out.append(INF)
    return out


def _dedupe_by_pattern(space: VSpace, values) -> tuple:
    """One representative per threshold-comparison pattern, ascending.

    Every predicate consulted here depends on a candidate value only
    through its comparisons with the distance entries, so equal patterns
    give equal inner verdicts and the quantifiers over the full sample set
    equal the quantifiers over the representatives.  A pattern is the
    checked comparisons e <= v and v <= e with each distinct entry e; the
    first value of each pattern stands for it.
    """
    q, entries = space.quantale, space._ranks.values
    seen = {}
    for v in values:
        seen.setdefault(tuple([q.leq(e, v) for e in entries] + [q.leq(v, e) for e in entries]), v)
    return tuple(sorted(seen.values(), key=q.sort_key))


@lru_cache(maxsize=64)
def _dense_representatives(space: VSpace, samples: int, seed: int) -> tuple:
    """The deduped dense samples, shared by every predicate on one space."""
    return _dedupe_by_pattern(space, _dense_values(space, samples, seed))


def _predicate_profile(space: VSpace, predicate: str, values) -> tuple:
    n = space.size
    cores = range(1 << n)
    if predicate == "has_va":
        return (_has_va_over(space, values, values).ok,)
    if predicate == "has_uva":
        return (_has_uva_over(space, values, values).ok,)
    if predicate == "modulus_exists":
        return tuple(
            any(_uniform_flip_ok(space, d, e) is None for d in values)
            for e in space.test_values
        )
    if predicate == "is_cauchy":
        return tuple(
            _cauchy_over(Filter(space, m), values, fwd) is None
            for m in cores
            for fwd in (True, False)
        )
    if predicate == "is_round":
        return tuple(_round_over(Filter(space, m), values) for m in cores)
    if predicate == "converges":
        return tuple(
            _converges_over(Filter(space, m), i, values, True) is None
            for m in cores
            for i in range(n)
        )
    if predicate == "point_filter":
        return tuple(
            _point_core_over(space, i, values, fwd)
            for i in range(n)
            for fwd in (True, False)
        )
    if predicate == "uniform_continuity":
        maps = [tuple(0 for _ in range(n)), tuple(range(n)),
                tuple(n - 1 - i for i in range(n))]
        return tuple(
            _uc_over(fidx, space, space, values, values).ok for fidx in maps
        )
    raise PreconditionError(f"unknown predicate {predicate!r}; known: {PREDICATE_IDS}")


def _epsilon_battery() -> list[VSpace]:
    ext = EXT_RATIONAL
    return [
        VSpace(ext, ["a", "b"], [[0, 1], [2, 0]]),
        VSpace(ext, ["a", "b"], [[0, 0], [1, 0]]),
        VSpace(ext, ["a", "b", "c"], [[0, 0, 1], [0, 0, 1], [1, 1, 0]]),
        VSpace(
            ext,
            ["a", "b", "c"],
            [[0, Fraction(1, 2), INF], [Fraction(3, 2), 0, INF], [INF, INF, 0]],
        ),
    ]


# the epsilon battery's dense samples: how many are drawn, and their seed
_GATE_SAMPLES, _GATE_SEED = 160, 11


def _gate_items() -> list:
    """The oracle gate's reports, each as its id and its items.  An item is
    what one answer is about: ("cores", n), the filters on n <= 3 points;
    ("collapsed", space), the collapsed formulas on a filter battery space;
    or ("profile", space, predicate), a predicate's verdicts on an epsilon
    battery space."""
    rows = [_battery_row(n, n < 4) for n in (1, 2, 3, 4)]
    # one battery for every predicate, so each space's ball cache serves all
    battery = _epsilon_battery()
    rows += [(f"oracle.epsilon.{predicate}", [("profile", space, predicate) for space in battery])
             for predicate in PREDICATE_IDS]
    return rows


def _gate_answers(cores, collapsed, profile, rows=None) -> list:
    """One side of the gate's comparison: per report of `rows` (by default
    `_gate_items`), its id, its items, their answers and the seconds they
    took.  An item's answer is `cores(n)`, `collapsed(space)` or
    `profile(space, predicate)`, by its kind."""
    side = {"cores": cores, "collapsed": collapsed, "profile": profile}
    out = []
    for rid, items, *_ in rows or _gate_items():
        start = time.monotonic()
        answers = tuple([side[kind](*args) for kind, *args in items])
        out.append((rid, items, answers, time.monotonic() - start))
    return out


def _library_cores(n: int) -> tuple:
    """The filters on n points as the library stores them: one per core mask."""
    return tuple(range(1 << n))


def _family_cores(n: int) -> tuple:
    """The cores of the enumerated filter families, ascending; -1 for a
    family that is not principal."""
    return tuple(sorted([_principal_core(n, fam) for fam in enumerate_filter_families(n)]))


def _test_value_profile(space: VSpace, predicate: str) -> tuple:
    return _predicate_profile(space, predicate, space.test_values)


def _dense_profile(space: VSpace, predicate: str, samples: int = _GATE_SAMPLES,
                   seed: int = _GATE_SEED) -> tuple:
    return _predicate_profile(space, predicate, _dense_representatives(space, samples, seed))


def _profile_failures(space: VSpace, predicate: str, got: tuple, want: tuple) -> list:
    """The test-value profile `got` differs from the dense-sample one."""
    return [{"check": "epsilon-reduction", "predicate": predicate,
             "space": serialize.space_to_payload(space)}]


# the witnesses of an unequal pair of answers, by the kind of their item
_ITEM_FAILURES = {
    "cores": _principality_failures,
    "collapsed": _collapsed_formula_failures,
    "profile": _profile_failures,
}


def _gate_reports(rows, wanted) -> list[VerificationReport]:
    """The gate's one comparison: each answer of the library's `rows`
    against the same answer of the oracles' `wanted` (both `_gate_answers`).
    An item passes when they are equal, and otherwise when its kind finds
    no witness (`_ITEM_FAILURES`); a report's runtime is the seconds both
    sides took for it."""
    reports = []
    for (rid, items, got, seconds), (_, _, want, more) in zip(rows, wanted, strict=True):
        found = [[] if g == w else _ITEM_FAILURES[kind](*args, g, w)
                 for (kind, *args), g, w in zip(items, got, want, strict=True)]
        reports.append(VerificationReport(rid, len(items), found.count([]),
                                          tuple([f for fs in found for f in fs]),
                                          seconds + more))
    return reports


def _compared(row, profile=_dense_profile) -> VerificationReport:
    """The report of one row of the gate, both sides computed."""
    # the oracles' side first: past three points the family enumeration
    # refuses before the library's side has run
    wanted = _gate_answers(_family_cores, _collapsed_oracle, profile, [row])
    rows = _gate_answers(_library_cores, _collapsed_library, _test_value_profile, [row])
    return _gate_reports(rows, wanted)[0]


def oracle_filters(n: int) -> VerificationReport:
    """Principality of all families plus the collapsed-formula battery."""
    return _compared(_battery_row(n, True))


def oracle_collapsed_formulas(n: int = 4) -> VerificationReport:
    """Collapsed-formula battery alone, for carriers too big to enumerate."""
    return _compared(_battery_row(n, False))


def oracle_epsilon_reduction(space: VSpace, predicate: str, samples: int = 1000,
                             seed: int = 0) -> VerificationReport:
    """Test-set evaluation must equal dense-sample evaluation exactly."""
    if space.quantale.is_finite:
        raise PreconditionError(
            "dense sampling applies to the extended-rational family only"
        )
    return _compared((f"oracle.epsilon.{predicate}", [("profile", space, predicate)]),
                     partial(_dense_profile, samples=samples, seed=seed))


def _gate_digest(rows) -> int:
    """`hash` of the answers of `_gate_answers`.

    They hold only tuples, ints and bools, whose hashes no PYTHONHASHSEED
    moves.  On 64-bit CPython `hash` is one-to-one on the ints from -1 to
    2**61 - 2, where theirs lie (cores, -1 for none, and the numerators and
    denominators of values), and a tuple mixes its items' hashes into 64
    bits by xxHash64's round, so a false match is as unlikely as with a
    64-bit digest.
    """
    return hash(tuple([answers for _, _, answers, _ in rows]))


# `_gate_digest` of the oracles' answers (`_family_cores`, `_collapsed_oracle`,
# `_dense_profile`) on 64-bit CPython, where every process then skips the
# oracles; elsewhere the digest differs and each computes them.
# tests/test_verify.py::TestGatePin re-derives it and prints the new value.
_GATE_PIN = 3008329935789549966

_GATE_CACHE: list | None = None


def oracle_gate() -> list[VerificationReport]:
    """Oracle battery the theorem suite insists on before trusting fast paths.

    Built once per process.  The oracles' answers do not depend on the
    library, so they are pinned (`_GATE_PIN`): the gate computes the
    library's side of every comparison (the filters by core,
    `_collapsed_library` on the filter batteries, the test-value profiles
    of the epsilon battery) and compares its digest with the pin.  On a
    match the pin stands for the oracles' answers, which then equal the
    library's and cost nothing; on any mismatch the oracles' side is
    computed.  Either way the reports, failures and witnesses included,
    are the comparison of the two sides (`_gate_reports`).
    """
    global _GATE_CACHE
    if _GATE_CACHE is None:
        rows = _gate_answers(_library_cores, _collapsed_library, _test_value_profile)
        if _gate_digest(rows) == _GATE_PIN:
            wanted = [(rid, items, answers, 0.0) for rid, items, answers, _ in rows]
        else:
            wanted = _gate_answers(_family_cores, _collapsed_oracle, _dense_profile, rows)
        _GATE_CACHE = _gate_reports(rows, wanted)
    return list(_GATE_CACHE)


# ---------------------------------------------------------------------------
# theorem suite


class _SpaceState:
    """What the theorem checks derive from one space alone.

    One per distinct space of a source's `_Suite` (`_Suite.state`), read
    by every instance whose space, sibling, separation quotient or
    Cauchy filter space equals it.  Built with the state: the UVA
    and VA verdicts.  Built on first read and then kept:

    * the Cauchy verdicts of every core on both sides and the minimal ones,
      as lane tables (`lanes`: one 2^n-bit int each, bit c for core c, so
      `_Ctx.cauchy` and `_Ctx.minimal` are bit tests).  The Cauchy lanes
      are `_cauchy_over` on every core at once, the AND over the test values
      of the OR over the points of the down-set lanes of their balls
      (`_cauchy_lanes`); the minimal lanes are the proper Cauchy lanes minus
      those one point below a Cauchy lane (`_minimal_lanes`, one shift per
      point), which `definitional_is_minimal_cauchy` decides core by core in
      the tests;
    * the round and roundified verdicts per core (`round`, `roundified`,
      filled by `_Ctx`), which call the library they test;
    * the loop point filters, the Cauchy filter space (`tilde`), the
      separation quotient with its projection, and the completion;
    * the oracle values the structures checks compare the library with,
      which read nothing but the space: the VA and UVA test-value loops, the
      topologies of the strict-ball closure, the identity's uniform
      continuity into and out of the dual, the base refinement and the
      symmetry of the zero pattern.
    """

    def __init__(self, space: VSpace):
        self.space = space
        self.uva = has_uniformly_vanishing_asymmetry(space)
        self.va = has_vanishing_asymmetry(space)
        self.round, self.roundified = {}, {}
        self._point_filters: dict = {}

    @cached_property
    def lanes(self) -> tuple[int, int, int]:
        """The lane tables: Cauchy forward, Cauchy backward, minimal."""
        cauchy = _cauchy_lanes(self.space, True)
        return cauchy, _cauchy_lanes(self.space, False), _minimal_lanes(self.space, cauchy)

    def point_filters(self, fwd: bool) -> tuple:
        """Point filters by their test-value loop, not the library's zero masks."""
        filters = self._point_filters.get(fwd)
        if filters is None:
            space = self.space
            filters = self._point_filters[fwd] = tuple(
                Filter(space, _point_core_over(space, i, space.test_values, fwd))
                for i in range(space.size)
            )
        return filters

    @cached_property
    def tilde(self) -> CauchyFilterSpace:
        return cauchy_filter_space(self.space)

    @cached_property
    def quotient(self) -> tuple:
        """`separation_quotient(space)`: the quotient and the projection."""
        return separation_quotient(self.space)

    @cached_property
    def completion(self) -> CompletionSpace:
        return complete(self.space)

    @cached_property
    def va_loop(self) -> Verdict:
        tv = self.space.test_values
        return _has_va_over(self.space, tv, tv)

    @cached_property
    def uva_loop(self) -> Verdict:
        tv = self.space.test_values
        return _has_uva_over(self.space, tv, tv)

    @cached_property
    def va_topologies(self) -> dict:
        return _definitional_va_topologies(self.space)

    @cached_property
    def identity_uc(self) -> tuple[Verdict, Verdict]:
        """The identity by `_uc_over`, from the dual into the space and from
        the space into the dual."""
        space, tv = self.space, self.space.test_values
        # the dual holds the same distance values, so it shares the test values
        op, ident = space.dual(), tuple(range(space.size))
        return _uc_over(ident, op, space, tv, tv), _uc_over(ident, space, op, tv, tv)

    @cached_property
    def base_refinement(self) -> bool:
        return _base_refinement(self.space)

    @cached_property
    def zero_symmetric(self) -> bool:
        return _zero_pattern_symmetric(self.space)


class _Suite:
    """The tables one source of instances shares between them.

    `spaces` maps a generator key to its space (`_keyed_space`), `states`
    a space to its `_SpaceState`, and `uc` a (source, target) pair to the
    pair's combined test values and, per index map, whether it is uniformly
    continuous (by the test-value loop `_uc_over`); the test values are one
    tuple per pair, so the balls of its radii are identity hits in each
    space's cache (`qc.vspace`).  Every table is keyed on the objects,
    compared by value (a `VSpace` by its quantale, points and distances),
    never on `id()`, which a dead space hands on to the next one.  The
    tables live as long as the suite object, which its source drops when
    it is used up.
    """

    def __init__(self):
        self.spaces: dict = {}
        self.states: dict = {}
        self.uc: dict = {}

    def state(self, space: VSpace) -> _SpaceState:
        state = self.states.get(space)
        if state is None:
            state = self.states[space] = _SpaceState(space)
        return state


class _Ctx:
    """One instance of the theorem suite, as the checks read it.

    Per instance: the child seed (so `check_rng` draws the same numbers
    whatever the other instances are) and the sibling.  Per space, read
    from the space's `_SpaceState` in the suite's tables (`state`): the
    (U)VA verdicts, the lane tables, the round and roundified tables, the
    point filters, the filter space, the separation quotient, and the
    completion of each space asked for (`completion_of`: the instance's
    space, its separation quotient and the sibling's).  Per (source,
    target) pair, read from the suite: the uniform continuity of each index
    map (`uc`).  The lanes and the per-core tables are attributes set here,
    read without a memo call.  Each check still compares on every instance;
    only what it compares with is shared.  A check's runtime includes
    filling any state it is the first to ask for, so runtimes move between
    checks and instances when the order, the set of checks or the repeats
    change; verdicts and witnesses do not.
    """

    def __init__(self, suite: _Suite, state: _SpaceState, sibling: VSpace, seed: int):
        self.seed = seed
        self.suite, self.state, self.sibling = suite, state, sibling
        self.space, self.uva, self.va = state.space, state.uva, state.va
        # lane tables, bit c for core c: Cauchy forward and backward, minimal
        self._cauchy, self._cauchy_op, self._minimal = state.lanes
        # per core: round, roundified
        self._round, self._roundified = state.round, state.roundified

    @classmethod
    def generated(cls, gen: InstanceGenerator, child_seed: int, suite: _Suite) -> "_Ctx":
        """The instance of `gen` at `child_seed`: its space, then a sibling
        of at most 4 points with UVA, not forced separated, both drawn from
        one `random.Random(child_seed)`.  Built and derived through the
        tables of `suite`.  Two key matrices can give equal spaces, so both
        spaces are taken from their states: equal spaces are one object."""
        rng = random.Random(child_seed)
        space = _generate_space(gen, rng, built=suite.spaces)
        sibling_gen = gen._replace(force_uva=True, force_separated=False)
        sibling = _generate_space(sibling_gen, rng, max_points=4, built=suite.spaces)
        return cls(suite, suite.state(space), suite.state(sibling).space, child_seed)

    def check_rng(self, check_id: str) -> random.Random:
        return random.Random(f"qc-check:{self.seed}:{check_id}")

    @property
    def cores(self):
        return range(1, self.space.full_mask + 1)

    def cauchy(self, mask: int, fwd: bool = True) -> bool:
        return bool((self._cauchy if fwd else self._cauchy_op) >> mask & 1)

    def round_(self, mask: int) -> bool:
        verdict = self._round.get(mask)
        if verdict is None:
            verdict = self._round[mask] = bool(is_round(Filter(self.space, mask)))
        return verdict

    def roundified(self, mask: int) -> int:
        core = self._roundified.get(mask)
        if core is None:
            core = self._roundified[mask] = roundify(Filter(self.space, mask)).core_mask
        return core

    def minimal(self, mask: int) -> bool:
        return bool(self._minimal >> mask & 1)

    def point_filters(self, fwd: bool = True):
        return self.state.point_filters(fwd)

    @property
    def tilde(self):
        return self.state.tilde

    @property
    def completion(self):
        return self.state.completion

    def completion_of(self, space: VSpace):
        """`complete(space)`, built once per distinct space."""
        return self.suite.state(space).completion

    @property
    def quotient(self) -> tuple:
        return self.state.quotient

    @property
    def separated(self):
        return self.state.quotient[0]

    @property
    def sep_sibling(self):
        return self.suite.state(self.sibling).quotient[0]

    def uc(self, fidx, source: VSpace, target: VSpace) -> bool:
        """Whether the index map `fidx` is uniformly continuous from
        `source` to `target`, by the test-value loop, decided once."""
        key = (source, target)
        pair = self.suite.uc.get(key)
        if pair is None:
            pair = self.suite.uc[key] = (combined_test_values(source, target), {})
        tv, table = pair
        verdict = table.get(fidx)
        if verdict is None:
            verdict = table[fidx] = bool(_uc_over(fidx, source, target, tv, tv))
        return verdict

    def uc_maps(self, source: VSpace, target: VSpace) -> list[tuple]:
        """The uniformly continuous index maps from `source` to `target`."""
        return [
            fidx for fidx in product(range(target.size), repeat=source.size)
            if self.uc(fidx, source, target)
        ]


def q1_census(max_points: int):
    """Every space over the one-point quantale Q1 on 1 to `max_points`
    points p0, p1, ... (all distances 0: one per size), as suite instances
    sharing one `_Suite`.  The sibling is the census space of min(n, 4)
    points; the seed is the census index n - 1, which replays it."""
    q1 = BUILTIN_QUANTALES["Q1"]
    suite = _Suite()
    spaces = [
        VSpace(q1, [f"p{i}" for i in range(n)], [[q1.bottom] * n for _ in range(n)])
        for n in range(1, max_points + 1)
    ]
    for index, space in enumerate(spaces):
        yield _Ctx(suite, suite.state(space), spaces[min(index, 3)], index)


def _zero_pattern_symmetric(space: VSpace) -> bool:
    bot = space.quantale.bottom
    return all(
        (space.dmat[i][j] == bot) == (space.dmat[j][i] == bot)
        for i in range(space.size)
        for j in range(space.size)
    )


def _check_cauchy_round_implies_minimal(ctx: _Ctx):
    for m in ctx.cores:
        if ctx.cauchy(m) and ctx.round_(m) and not ctx.minimal(m):
            return {"core": ctx.space.names_of(m)}
    return None


def _check_roundify_preserves_cauchy(ctx: _Ctx):
    for m in range(ctx.space.full_mask + 1):
        if ctx.cauchy(m) and not ctx.cauchy(ctx.roundified(m)):
            return {"core": ctx.space.names_of(m)}
    return None


def _zero_asymmetry(space: VSpace):
    """The first pair (a, b) of indices, in row-major order of `zero_fwd`,
    with d(a, b) = 0 != d(b, a); None when there is none.  On a finite
    space that is exactly when UVA holds
    (`structures.finite_model_collapse_zero_pattern`)."""
    fwd = space.zero_fwd
    return next(
        ((a, b) for a in range(space.size) for b in range(space.size)
         if fwd[a] >> b & 1 and not fwd[b] >> a & 1),
        None,
    )


def _non_uva_pair(ctx: _Ctx):
    pair = _zero_asymmetry(ctx.space)
    if pair is None:
        raise InvariantError("no UVA, yet every zero distance is symmetric")
    return pair


def _check_roundify_round_iff_uva(ctx: _Ctx):
    """With positive test values, every roundification is round iff UVA.

    Under UVA the zero distance is symmetric, so with the triangle law it
    is an equivalence and the zero neighbourhoods are its classes.  A
    roundified core is a union of classes, and a class that contains a
    non-empty union of classes is that union, so no zero neighbourhood
    strictly contains it: it is round.  Without UVA take the first pair
    with d(a, b) = 0 != d(b, a).  The roundification of {b} has core
    z(b), the points at distance 0 from b.  For y in z(b),
    d(a, y) <= d(a, b) + d(b, y) = 0, so z(b) lies in z(a); a is in z(a)
    but not in z(b).  So z(a) strictly contains z(b), and the
    roundification of {b} is not round.
    """
    space = ctx.space
    if ctx.uva:
        for m in ctx.cores:
            if not ctx.round_(ctx.roundified(m)):
                return {"core": space.names_of(m)}
        return None
    _, b = _non_uva_pair(ctx)
    if is_round(roundify(Filter(space, 1 << b))):
        return {"core": space.names_of(1 << b)}
    return None


def _check_minimal_iff(ctx: _Ctx):
    """With positive test values, a proper filter is minimal Cauchy iff it
    is Cauchy and round; no UVA is needed.

    A core is Cauchy iff some zero neighbourhood covers it, every subset of
    a Cauchy core is Cauchy, and a core is round iff no zero neighbourhood
    strictly contains it.  A Cauchy core with a zero neighbourhood strictly
    above has that neighbourhood as a proper Cauchy subfilter.  A Cauchy
    core with none strictly above is minimal: a Cauchy core strictly above
    it would lie in a zero neighbourhood, strictly above it too.  Without
    positive test values every filter is Cauchy and none is round, while X
    is minimal, hence the gate.
    """
    for m in ctx.cores:
        if ctx.minimal(m) != (ctx.cauchy(m) and ctx.round_(m)):
            return {"core": ctx.space.names_of(m)}
    return None


def _check_point_filters_coincide(ctx: _Ctx):
    """Under VA the forward and backward point filters coincide.  Gated on
    `uva`: the library's VA and UVA closed forms both say that the zero
    relation is symmetric, so the two gates open on the same instances."""
    fwd = ctx.point_filters(True)
    bwd = ctx.point_filters(False)
    for p, f, g in zip(ctx.space.points, fwd, bwd):
        if f.core_mask != g.core_mask:
            return {"point": p, "forward": f.core, "backward": g.core}
    return None


def _check_cauchy_iff_op(ctx: _Ctx):
    for m in range(ctx.space.full_mask + 1):
        if ctx.cauchy(m, True) != ctx.cauchy(m, False):
            return {"core": ctx.space.names_of(m)}
    return None


def _check_roundify_idempotent(ctx: _Ctx):
    for m in ctx.cores:
        once = ctx.roundified(m)
        if ctx.roundified(once) != once:
            return {"core": ctx.space.names_of(m)}
    return None


def _check_ball_distance_bounds(ctx: _Ctx):
    space = ctx.space
    tv = space.test_values
    if not tv:
        return None
    q = space.quantale
    rng = ctx.check_rng("ball-bounds")
    for _ in range(8):
        x = rng.randrange(space.size)
        y = rng.randrange(space.size)
        delta = tv[rng.randrange(len(tv))]
        eps = tv[rng.randrange(len(tv))]
        bx = space._ball(x, delta, False)
        by = space._ball(y, eps, True)
        smask = bx & rng.getrandbits(space.size) | 1 << x
        tmask = by & rng.getrandbits(space.size) | 1 << y
        dst = _set_distance_masks(space, smask, tmask)
        bound = q.add(q.add(space.dmat[x][y], delta), eps)
        if not q.leq(dst, bound):
            return {"pair": (space.points[x], space.points[y])}
        dts = _set_distance_masks(space, tmask, smask)
        bound2 = q.add(q.add(dts, delta), eps)
        if not q.leq(space.dmat[y][x], bound2):
            return {"pair": (space.points[y], space.points[x])}
    return None


def _morphism_ok(uc: bool, image: int, gmask: int) -> bool:
    """A filter morphism: a uniformly continuous map whose image of the
    source core (`_image_core`) lies in the target core."""
    return uc and image | gmask == gmask


def _check_roundify_functorial(ctx: _Ctx):
    x, y = ctx.space, ctx.sibling
    ry = {m: roundify(Filter(y, m)).core_mask for m in range(y.full_mask + 1)}
    rx = [ctx.roundified(m) for m in range(x.full_mask + 1)]
    for fidx in product(range(y.size), repeat=x.size):
        if not ctx.uc(fidx, x, y):
            continue
        for fm in range(x.full_mask + 1):
            # a morphism iff the image lies in the target core (the map is
            # uniformly continuous here), so the images are taken once
            img = _image_core(fidx, fm)
            rimg = _image_core(fidx, rx[fm])
            for gm in range(y.full_mask + 1):
                if img | gm == gm and rimg | ry[gm] != ry[gm]:
                    return {
                        "map": list(fidx),
                        "source_core": x.names_of(fm),
                        "target_core": y.names_of(gm),
                    }
    return None


def _check_roundify_adjunction(ctx: _Ctx):
    x, y = ctx.space, ctx.sibling
    cauchy = ctx.suite.state(y).lanes[0]
    y_cr = [
        m
        for m in range(1, y.full_mask + 1)
        if cauchy >> m & 1 and _round_over(Filter(y, m), y.test_values)
    ]
    x_c = [(m, ctx.roundified(m)) for m in ctx.cores if ctx.cauchy(m)]
    for fidx in product(range(y.size), repeat=x.size):
        uc = ctx.uc(fidx, x, y)
        for fm, rfm in x_c:
            # the images of a core and of its roundification, taken once
            img, rimg = _image_core(fidx, fm), _image_core(fidx, rfm)
            for gm in y_cr:
                lhs = _morphism_ok(uc, rimg, gm)
                rhs = _morphism_ok(uc, img, gm)
                if lhs != rhs:
                    return {
                        "map": list(fidx),
                        "source_core": x.names_of(fm),
                        "target_core": y.names_of(gm),
                    }
    return None


def _check_identity_morphism(ctx: _Ctx):
    """The identity map is a filter morphism from each filter to itself."""
    x = ctx.space
    ident = {p: p for p in x.points}
    for m in range(x.full_mask + 1):
        f = Filter(x, m)
        if not is_filter_morphism(ident, f, f):
            return {"core": x.names_of(m)}
    return None


def _check_morphism_composition(ctx: _Ctx):
    """Filter morphisms compose: ten random maps x -> y -> x, each target
    core drawn above the image of the source core, so the premise holds
    whenever both maps are uniformly continuous."""
    x, y = ctx.space, ctx.sibling
    rng = ctx.check_rng("composition")
    for _ in range(10):
        fidx = [rng.randrange(y.size) for _ in range(x.size)]
        gidx = [rng.randrange(x.size) for _ in range(y.size)]
        fm = rng.getrandbits(x.size)
        gm = _image_core(fidx, fm) | rng.getrandbits(y.size)
        hm = _image_core(gidx, gm) | rng.getrandbits(x.size)
        fmap = {p: y.points[v] for p, v in zip(x.points, fidx)}
        gmap = {q: x.points[v] for q, v in zip(y.points, gidx)}
        f, g, h = Filter(x, fm), Filter(y, gm), Filter(x, hm)
        if (
            is_filter_morphism(fmap, f, g)
            and is_filter_morphism(gmap, g, h)
            and not is_filter_morphism({p: gmap[fmap[p]] for p in x.points}, f, h)
        ):
            return {"f": fmap, "g": gmap, "cores": (f.core, g.core, h.core)}
    return None


def _check_tilde_is_uva_vspace(ctx: _Ctx):
    tilde = ctx.tilde
    rep = validate_vspace(tilde.space)
    if not rep.ok:
        f = rep.failures[0]
        return {"check": f.check, **f.witness}
    uva = has_uniformly_vanishing_asymmetry(tilde.space)
    if not uva:
        return {"check": "uva", **(uva.witness or {})}
    return None


def _check_quotient_inherits(ctx: _Ctx):
    quotient = ctx.separated
    if ctx.uva and not has_uniformly_vanishing_asymmetry(quotient):
        return {"check": "uva"}
    if ctx.va and not has_vanishing_asymmetry(quotient):
        return {"check": "va"}
    return None


def _check_minimal_filters_closed_form(ctx: _Ctx):
    closed = [f.core_mask for f in minimal_cauchy_filters(ctx.space)]
    definitional = [m for m in ctx.cores if ctx.minimal(m)]
    if closed != definitional:
        names = ctx.space.names_of
        return {
            "closed_form": [names(m) for m in closed],
            "definitional": [names(m) for m in definitional],
        }
    return None


def _check_finite_cauchy_complete(ctx: _Ctx):
    core = _divergent_cauchy_core(ctx.space, ctx.cauchy)
    return None if core is None else {"core": core}


def _check_completion_isometric_to_quotient(ctx: _Ctx):
    """Roundification maps the separation quotient of the Cauchy filter
    space bijectively and isometrically onto the completion.

    Each proper Cauchy filter must lie inside its roundification, the
    roundifications must be exactly the minimal filters, roundification
    must be constant on each mutual-zero-distance class and tell distinct
    classes apart, and quotient distances must equal completion distances.
    """
    comp, tilde = ctx.completion, ctx.tilde
    rounded = {}
    for f in tilde.filters:
        r = ctx.roundified(f.core_mask)
        if f.core_mask | r != r:
            return {"check": "roundification dropped part of a core", "core": f.core}
        rounded[filter_point_name(f)] = r
    mask_to_idx = {f.core_mask: i for i, f in enumerate(comp.filters)}
    if set(rounded.values()) != set(mask_to_idx):
        return {"check": "roundification does not map Cauchy filters onto minimal filters"}
    quotient, projection = ctx.suite.state(tilde.space).quotient
    class_image = {}
    for name, cls in projection.items():
        if class_image.setdefault(cls, rounded[name]) != rounded[name]:
            return {"check": "roundification is not constant on a zero-distance class",
                    "class": cls}
    if len(class_image) != len(comp.filters):
        return {"check": "roundification does not biject filter classes onto minimal filters"}
    qidx = {p: i for i, p in enumerate(quotient.points)}
    for cls_a, mask_a in class_image.items():
        for cls_b, mask_b in class_image.items():
            da = quotient.dmat[qidx[cls_a]][qidx[cls_b]]
            db = comp.space.dmat[mask_to_idx[mask_a]][mask_to_idx[mask_b]]
            if da != db:
                return {"check": "quotient and completion distances differ",
                        "classes": (cls_a, cls_b)}
    return None


def _check_embedding_isometry_iff_uva(ctx: _Ctx):
    """The point-filter embedding is an isometry iff UVA.

    Under UVA the point-filter cores are the zero classes, and the filter
    distance, the meet of d over the two cores, is d(x, y): every pair of
    the classes of x and y is at distance d(x, y) by the triangle law.  The
    completion built by `complete` must hold the same distance between the
    embedded points.
    Without UVA take the first pair with d(a, b) = 0 != d(b, a).  The point
    b lies in its own point-filter core and, as d(a, b) = 0, in that of a,
    so the filter distance from b to a is at most d(b, b) = 0, not d(b, a).
    With no positive test values every distance is 0, which is UVA.
    """
    space = ctx.space
    if ctx.uva:
        pfs = ctx.point_filters(True)
        comp = ctx.completion
        cd, at = comp.space.dmat, [comp.embedding[p] for p in space.points]
        for i in range(space.size):
            for j in range(space.size):
                if filter_distance(pfs[i], pfs[j]) != space.dmat[i][j]:
                    return {"pair": (space.points[i], space.points[j])}
                if cd[at[i]][at[j]] != space.dmat[i][j]:
                    return {"check": "completion distance",
                            "pair": (space.points[i], space.points[j])}
        return None
    a, b = _non_uva_pair(ctx)
    pa, pb = space.points[a], space.points[b]
    if filter_distance(point_filter(space, pb), point_filter(space, pa)) == space.dmat[b][a]:
        return {"pair": (pb, pa)}
    return None


def _check_embedding_dense(ctx: _Ctx):
    """The canonical embedding is dense, which on a finite completion means
    onto, so this checks that every completion point is the image of a
    point.

    Denseness asks, for each completion point g and each eps above 0, for a
    point x with d(g, ι(x)) <= eps.  Balls grow with eps, so it suffices to
    ask at the completion's least test value, whose balls are its zero
    neighbourhoods (`qc.vspace`): some x with d(g, ι(x)) = 0.  The
    completion is separated and UVA (`completion.completion_separated_uva`),
    so its zero distance is symmetric and then means equality: g = ι(x).
    With no positive test values the quantifier is vacuous, and the
    completion of a non-empty space is the single filter {X}, which is the
    image of every point.
    """
    comp = ctx.completion
    hit = set(comp.embedding.values())
    for gi in range(len(comp.filters)):
        if gi not in hit:
            return {"filter": comp.filters[gi].core}
    return None


def _check_completion_complete(ctx: _Ctx):
    verdict = is_cauchy_complete(ctx.completion.space)
    return None if verdict else verdict.witness


def _check_completion_separated_uva(ctx: _Ctx):
    comp = ctx.completion
    if not classify(comp.space)["separated"]:
        return {"check": "separated"}
    uva = has_uniformly_vanishing_asymmetry(comp.space)
    if not uva:
        return {"check": "uva", **(uva.witness or {})}
    return None


def _check_zero_distance_intersection(ctx: _Ctx):
    return _zero_distance_failure(ctx.tilde)


def _check_completion_idempotent(ctx: _Ctx):
    comp = ctx.completion
    again = complete(comp.space)
    if len(again.filters) != len(comp.filters):
        return {"first": len(comp.filters), "second": len(again.filters)}
    if len(set(again.embedding.values())) != len(again.filters):
        return {"check": "embedding not bijective"}
    return None


def _check_completion_functorial(ctx: _Ctx):
    x, y = ctx.separated, ctx.sep_sibling
    maps = ctx.uc_maps(x, y)
    rng = ctx.check_rng("functorial")
    fmap = dict(zip(x.points, [y.points[v] for v in maps[rng.randrange(len(maps))]]))
    cx, cy = ctx.completion_of(x), ctx.completion_of(y)
    induced = induced_completion_map(fmap, cx, cy)
    uc = is_uniformly_continuous(induced, cx.space, cy.space)
    if not uc:
        return {"check": "induced map not uniformly continuous", **(uc.witness or {})}
    for p in x.points:
        via = induced[filter_point_name(cx.filters[cx.embedding[p]])]
        direct = filter_point_name(cy.filters[cy.embedding[fmap[p]]])
        if via != direct:
            return {"check": "embedding square", "point": p}
    return None


def _check_universal_property(ctx: _Ctx):
    """A uniformly continuous map into a separated, complete UVA target
    extends along the embedding: the extension restricts to the map, is
    uniformly continuous by the test-value loop, and equals the extension
    by limits of image filters (`definitional_extension`).  It is the only
    extension, because the embedding is onto (`completion.embedding_dense`).

    The source is the instance's own space, separated or not.  Every
    uniformly continuous map into a separated target is constant on
    zero-distance classes (`extend_to_completion`), so it is g ∘ π for the
    projection π onto the separation quotient and a uniformly continuous g
    on the quotient; g is drawn from the quotient's maps.
    """
    quotient, projection = ctx.quotient
    target = ctx.completion_of(ctx.sep_sibling).space
    maps = ctx.uc_maps(quotient, target)
    fidx = maps[ctx.check_rng("universal").randrange(len(maps))]
    g = dict(zip(quotient.points, [target.points[v] for v in fidx]))
    fmap = {p: g[projection[p]] for p in ctx.space.points}
    comp = ctx.completion
    mapping = extend_to_completion(fmap, comp, target).mapping
    points = comp.space.points
    for p in ctx.space.points:
        if mapping[points[comp.embedding[p]]] != fmap[p]:
            return {"check": "extension does not restrict to the map", "point": p}
    if not ctx.uc(tuple(target.index(mapping[p]) for p in points), comp.space, target):
        return {"check": "extension is not uniformly continuous"}
    if mapping != definitional_extension(fmap, comp, target):
        return {"check": "extension differs from the limit construction"}
    return None


def _definitional_va_topologies(space: VSpace) -> dict:
    """The two topology conditions of the VA report, witnesses included,
    read off the opens of `definitional_topology` on both sides."""
    opens = [_ball_closure(space, base) for base in _strict_ball_bases(space)]
    # a point's least open neighbourhood: the meet of the opens holding it
    least = [
        [reduce(and_, [m for m in o if m >> i & 1], space.full_mask) for i in range(space.size)]
        for o in opens
    ]
    stray = next((m for nbs, o in zip(least, opens[::-1]) for m in nbs if m not in o), None)
    differs = next((p for p, f, b in zip(space.points, *least) if f != b), None)
    homeo = Verdict(True) if stray is None else Verdict(False, {"open_set": space.names_of(stray)})
    equal = Verdict(True) if differs is None else Verdict(False, {"point": differs})
    return {"identity_homeomorphism": homeo, "topologies_equal": equal}


def _check_va_conditions(ctx: _Ctx):
    """The library's VA report against the modulus loop and the opens of
    the strict-ball closure on both sides, witnesses included."""
    report = va_equivalence_report(ctx.space)
    oracles = {"pointwise_modulus": ctx.state.va_loop, **ctx.state.va_topologies}
    closed = report.conditions
    votes = {bool(v) for v in oracles.values()}
    if votes != {report.holds} or any(closed[k] != v for k, v in oracles.items()):
        return {"holds": report.holds,
                "closed": {k: bool(v) for k, v in closed.items()},
                "oracles": {k: bool(v) for k, v in oracles.items()}}
    return None


def _check_uva_conditions(ctx: _Ctx):
    """The library's UVA report against the three conditions by their loops."""
    state = ctx.state
    report = uva_equivalence_report(ctx.space)
    into, outof = state.identity_uc
    loops = {
        "uniform_modulus": state.uva_loop,
        "identity_uniformly_continuous": (
            Verdict(True) if into and outof
            else Verdict(False, (into.witness or outof.witness))
        ),
        "uniformities_equal": state.base_refinement,
    }
    votes = {bool(v) for v in loops.values()}
    closed = report.conditions
    if (
        votes != {report.holds}
        or closed["uniform_modulus"] != loops["uniform_modulus"]
        or closed["identity_uniformly_continuous"] != loops["identity_uniformly_continuous"]
        or bool(closed["uniformities_equal"]) != loops["uniformities_equal"]
    ):
        return {"holds": report.holds,
                "closed": {k: bool(v) for k, v in closed.items()},
                "loops": {k: bool(v) for k, v in loops.items()}}
    return None


def _check_uva_implies_va(ctx: _Ctx):
    if ctx.uva and not ctx.va:
        return {"uva": True, "va": False}
    return None


def _check_finite_collapse(ctx: _Ctx):
    """The gate of the zero-mask forms: VA, UVA and U(X) = U(X^op) by their
    test-value loops, the library's verdicts and witnesses, and the
    per-entry zero pattern all agree, and each point filter's closed-form
    core equals its loop core on both sides."""
    space, state = ctx.space, ctx.state
    va, uva = state.va_loop, state.uva_loop
    if va != ctx.va or uva != ctx.uva:
        return {"va": va.witness, "uva": uva.witness,
                "closed_va": ctx.va.witness, "closed_uva": ctx.uva.witness}
    zero_sym = state.zero_symmetric
    mutual = state.base_refinement
    if not (va.ok == uva.ok == zero_sym == mutual):
        return {"va": va.ok, "uva": uva.ok, "zero_symmetric": zero_sym, "base_refinement": mutual}
    for fwd in (True, False):
        for i, f in enumerate(ctx.point_filters(fwd)):
            g = point_filter(space, space.points[i], "forward" if fwd else "backward")
            if f.core_mask != g.core_mask:
                return {"point": space.points[i], "forward": fwd,
                        "loop": f.core, "closed": g.core}
    return None


def _check_balls_closed(ctx: _Ctx):
    """Closed balls versus the ball topologies.

    The orientation that holds on every space pairs a ball with the
    opposite topology: {y : d(y,x) <= eps} is closed among the opens
    generated by {y : d(x,y) strictly below eps}, and dually.  The
    same-orientation statement fails without vanishing asymmetry (two
    points with d(a,b)=0, d(b,a)=1 witness it), so it is asserted only
    when the space has vanishing asymmetry, where the two topologies
    coincide.
    """
    space = ctx.space
    fwd_top = topology_of(space, "forward")
    bwd_top = topology_of(space, "backward")
    radii = [(eps, space._balls(eps, True), space._balls(eps, False)) for eps in space.test_values]
    full = space.full_mask
    for i in range(space.size):
        for eps, fwd_balls, bwd_balls in radii:
            fwd_ball, bwd_ball = fwd_balls[i], bwd_balls[i]
            if not fwd_top._is_open_mask(full & ~bwd_ball):
                side = "backward ball in forward topology"
            elif not bwd_top._is_open_mask(full & ~fwd_ball):
                side = "forward ball in backward topology"
            elif ctx.va and not fwd_top._is_open_mask(full & ~fwd_ball):
                side = "forward ball in forward topology"
            else:
                continue
            # the witness is formatted only for the failing (point, radius)
            return {"point": space.points[i], "epsilon": space.quantale.format(eps), "side": side}
    return None


def _check_uniformity_topology(ctx: _Ctx):
    space = ctx.space
    for side in ("forward", "backward"):
        uni = quasi_uniformity_of(space, side)
        from_relation = topology_of_relation(space.points, uni.core)
        direct = topology_of(space, side)
        if from_relation.neighbourhoods != direct.neighbourhoods:
            return {"side": side}
    return None


def _check_separated_va_discrete(ctx: _Ctx):
    if classify(ctx.space)["separated"] and ctx.va:
        if not topology_of(ctx.space).is_discrete:
            return {"check": "topology not discrete"}
    return None


def _check_quotient_separated_isometric(ctx: _Ctx):
    quotient, projection = ctx.quotient
    if not classify(quotient)["separated"]:
        return {"check": "not separated"}
    for x in ctx.space.points:
        for y in ctx.space.points:
            if quotient.d(projection[x], projection[y]) != ctx.space.d(x, y):
                return {"pair": (x, y)}
    return None


def _check_degenerate_uva(ctx: _Ctx):
    return None if ctx.uva else {"witness": ctx.uva.witness}


def _check_degenerate_all_cauchy(ctx: _Ctx):
    for m in range(ctx.space.full_mask + 1):
        if not ctx.cauchy(m):
            return {"core": ctx.space.names_of(m)}
    return None


def _check_degenerate_single_point(ctx: _Ctx):
    if ctx.space.size == 0:
        return None
    comp = ctx.completion
    if len(comp.filters) != 1:
        return {"points": len(comp.filters)}
    return None


class TheoremCheck(NamedTuple):
    id: str
    fn: object
    gates: tuple = ()


THEOREM_CHECKS = (
    TheoremCheck("filters.cauchy_round_implies_minimal", _check_cauchy_round_implies_minimal),
    TheoremCheck("filters.roundify_preserves_cauchy", _check_roundify_preserves_cauchy),
    TheoremCheck("filters.roundify_round_iff_uva", _check_roundify_round_iff_uva, ("positives",)),
    TheoremCheck("filters.minimal_iff_cauchy_round", _check_minimal_iff, ("positives",)),
    TheoremCheck("filters.point_filters_coincide_under_va", _check_point_filters_coincide, ("uva",)),
    TheoremCheck("filters.cauchy_iff_op_cauchy_under_uva", _check_cauchy_iff_op, ("uva",)),
    TheoremCheck("filters.roundify_idempotent", _check_roundify_idempotent, ("uva",)),
    TheoremCheck("filters.ball_set_distance_bounds", _check_ball_distance_bounds),
    TheoremCheck("filters.roundify_functorial", _check_roundify_functorial, ("uva", "pair<=3")),
    TheoremCheck("filters.roundify_adjunction", _check_roundify_adjunction, ("uva", "pair<=3")),
    TheoremCheck("filters.identity_morphism", _check_identity_morphism),
    TheoremCheck("filters.morphism_composition", _check_morphism_composition),
    TheoremCheck("completion.minimal_filters_closed_form", _check_minimal_filters_closed_form),
    TheoremCheck("completion.finite_spaces_cauchy_complete", _check_finite_cauchy_complete),
    TheoremCheck("completion.cauchy_space_is_uva_vspace", _check_tilde_is_uva_vspace, ("uva",)),
    TheoremCheck("completion.quotient_inherits_asymmetry", _check_quotient_inherits),
    TheoremCheck("completion.minimal_space_isometric_to_quotient", _check_completion_isometric_to_quotient, ("uva",)),
    TheoremCheck("completion.embedding_isometry_iff_uva", _check_embedding_isometry_iff_uva),
    TheoremCheck("completion.embedding_dense", _check_embedding_dense, ("uva",)),
    TheoremCheck("completion.completion_is_cauchy_complete", _check_completion_complete, ("uva",)),
    TheoremCheck("completion.completion_separated_uva", _check_completion_separated_uva, ("uva",)),
    TheoremCheck("completion.zero_distance_intersection_cauchy", _check_zero_distance_intersection, ("uva",)),
    TheoremCheck("completion.idempotent_up_to_isometry", _check_completion_idempotent, ("uva",)),
    TheoremCheck("completion.functorial_on_maps", _check_completion_functorial, ("uva", "sep_pair<=4")),
    TheoremCheck("completion.universal_property", _check_universal_property, ("uva",)),
    TheoremCheck("structures.va_conditions_agree", _check_va_conditions),
    TheoremCheck("structures.uva_conditions_agree", _check_uva_conditions),
    TheoremCheck("structures.uva_implies_va", _check_uva_implies_va),
    TheoremCheck("structures.finite_model_collapse_zero_pattern", _check_finite_collapse),
    TheoremCheck("structures.balls_closed_in_topology", _check_balls_closed),
    TheoremCheck("structures.uniformity_topology_consistent", _check_uniformity_topology),
    TheoremCheck("structures.separated_va_hausdorff_discrete", _check_separated_va_discrete),
    TheoremCheck("vspace.quotient_separated_isometric", _check_quotient_separated_isometric),
    TheoremCheck("degenerate.uva_everywhere", _check_degenerate_uva, ("degenerate",)),
    TheoremCheck("degenerate.all_filters_cauchy", _check_degenerate_all_cauchy, ("degenerate",)),
    TheoremCheck("degenerate.completion_single_point", _check_degenerate_single_point, ("degenerate",)),
)


def _gates_open(ctx: _Ctx, gates) -> bool:
    for gate in gates:
        if gate == "uva" and not ctx.uva:
            return False
        if gate == "positives" and not ctx.space.test_values:
            return False
        if gate == "degenerate" and ctx.space.test_values:
            return False
        if gate == "pair<=3" and (ctx.space.size > 3 or ctx.sibling.size > 3):
            return False
        if gate == "sep_pair<=4" and (
            ctx.separated.size > 4 or ctx.sep_sibling.size > 4
        ):
            return False
    return True


def run_theorem_suite(instances, checks=THEOREM_CHECKS,
                      timings: dict | None = None) -> list[VerificationReport]:
    """Run every theorem check over `instances`, an iterable of `_Ctx`
    (`InstanceGenerator.contexts`, `q1_census`).

    The oracle gate runs first and the suite refuses to start on any gate
    failure; its reports are `oracle_gate()`'s, not repeated here.  Returns
    one aggregated report per theorem, 0-instance ones included.  A failure
    holds the instance's seed (its source's replay key), the serialized
    instance and the witness, and not the sibling: a check that reads the
    instance alone replays from the failure, while the five pair checks
    that also read the sibling (`filters.roundify_functorial`,
    `filters.roundify_adjunction`, `filters.morphism_composition`,
    `completion.functorial_on_maps`, `completion.universal_property`)
    replay only by drawing the instance again from its source, whose
    parameters the failure does not hold either.

    Every check runs on every instance whose gates are open.  A source
    shares each distinct space's derived state between its instances
    (`_Suite`, `_SpaceState`), so the first instance of a space pays for
    its derivation: when `timings` is given, the seconds spent drawing the
    instances (for a new space, with its (U)VA verdicts and lane tables)
    are added to its "generate" entry, and the rest of the derivation to
    the runtime of the first check that asks for it.
    """
    gate = oracle_gate()
    if any(r.failures for r in gate):
        bad = [r.id for r in gate if r.failures]
        raise InvariantError(f"oracle gate failed: {bad}; fast paths are not trusted")
    tallies = {c.id: VerificationReport(id=c.id) for c in checks}
    generating = 0.0
    drawn = time.monotonic()
    for ctx in instances:
        generating += time.monotonic() - drawn
        payload = None
        for check in checks:
            if not _gates_open(ctx, check.gates):
                continue
            report = tallies[check.id]
            report.instances += 1
            start = time.monotonic()
            try:
                witness = check.fn(ctx)
            except QcError as exc:
                witness = {"error": str(exc)}
            report.runtime += time.monotonic() - start
            if witness is None:
                report.passes += 1
            else:
                if payload is None:
                    payload = serialize.space_to_payload(ctx.space)
                report.failures += (
                    {"seed": ctx.seed, "instance": payload, "witness": witness},
                )
        drawn = time.monotonic()
    if timings is not None:
        timings["generate"] = timings.get("generate", 0.0) + generating
    return [tallies[c.id] for c in checks]
