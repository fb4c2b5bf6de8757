"""Finite continuity spaces: a carrier plus a quantale-valued distance matrix.

Point subsets are bitmasks internally; the public API speaks point names
and frozensets.  `_bits` lists the points of a mask in ascending order: a
mask below 256 (any subset of a carrier of at most 8 points) is read from
a table of bit-position tuples, and a larger one is peeled one low bit at
a time.  Names become indices in one comprehension over the point index
(`VSpace.mask`, `_as_index_map`); a missing, unknown or unhashable name
falls to a loop that raises `StructureError` naming it.

Every "for every eps above 0 there is a delta" predicate is decided on the
zero masks.  The predicates see a radius only through balls, which grow
with it, so a radius that witnesses an existential can be shrunk, and so
can one that refutes a universal: each predicate holds iff it holds with
eps = delta = t, the least test value, and when it fails t is the first
failing eps.  The balls of radius t are the zero masks.  On the extended
rationals t is half the least positive distance (1 when there is none).
On a finite value quantale t is 0: the approximation axiom at 0 makes 0
the meet of the positives, and the positive-meet axiom makes that finite
meet well above 0.  `combined_test_values` refuses a table with positives
but without 0 among them; with no positives (Q1) every quantifier is
vacuous.  The test-value loops that define VA, UVA, uniform continuity,
the point filter, the Cauchy, round and convergence tests and the
entourage core are oracles in `qc.verify`.  `symmetry_modulus` (the
largest delta, not a monotone quantifier) keeps a search over the test
values: a bisection on chains, where balls grow with the radius, and
elsewhere a scan in descending order, sorted once per space.

A space is stored in rank form, built at construction in one pass of the
quantale's kernel `ValueQuantale._rank_values`: its distinct distance
values in `sort_key` order, the rank of each entry among them, and the
values' order keys.  The rank matrix is the only stored form of the
distances.  With at most 256 values each of its rows is a byte string,
one byte per rank; past that a row is a tuple of ints.  Readers only
index or iterate rows, so either type serves.  Construction checks each
distinct entry once, after telling entries apart by type and value
(`_entry_classes`); reading a space file
parses each distinct literal once the same way, checks no parsed value
again (`parse` returns elements), and entries that denote one element
share a value.  `dmat` is a read-only view of the matrix
built on first use.  Every order-only predicate reads the rank form: the
order is consulted once per (space, eps object) over the distinct values
to select the ranks of a ball (the values <= eps) or a zero mask (rank
0, as 0 sorts first), and one kernel, `_RankForm.masks`,
gathers per row the lanes of the selected ranks, one `bytes.translate`
per byte row.  Balls, zero neighbourhoods, the separation test and the
uniform flip behind symmetry moduli are mask operations; the symmetry
test and the twin classes compare rank rows with those of the
transpose, whose byte rows are strided slices of the rows joined.  Balls
are cached per space on the identity
of the radius, each entry holding its radius so that the id is not
reused: a hit hashes no Fraction, and an equal radius that is another
object misses and gets the same masks.  A run of fresh radius objects
empties the cache rather than grow it.  `dual()` takes the transposed
ranks and `separation_quotient` the representatives' rows and columns
(one `itemgetter` per row), over the base's values and keys with no
value checked again; the dual is built once and linked back, so
`space.dual().dual() is space`.  A set distance lists the points of
both masks by `_bits`, collects the ranks of the cross entries as a mask
(`_cross_ranks`) and takes their meet in one private quantale kernel,
`ValueQuantale._meet_ranks` (the lowest rank on the extended-rational
chain, a fold of the meet table on finite quantales), so filter distances
make no checked element call per value.  A space of filters is classed by
those rank masks, with one meet per class
(`qc.completion._distance_classes`), and handed to `VSpace` as
`_EntryClasses` marked checked: its entries are never hashed one by one,
and the meets, elements already, are not checked again.

The rank form also holds one int order key per value, or no keys at all.
On the extended rationals a key is value * L, with L the lcm of the
denominators and a top sentinel for INF; the kernel keys each checked
entry first and sorts and merges the int keys, so building such a space
hashes, compares and sorts no Fraction.  When L would pass the
quantale's bit budget, the values are sorted as Fractions and have no
keys.  On a finite quantale whose tables make it a capped chain (such as
Q2, Q3 and chain4) the key is the element's position in the chain; the
quantale decides this once, from its order and addition tables.  Other
finite tables have no keys, and no chain is assumed.  Either way
x <= a + b iff key(x) <= key(a) + key(b).  A ball bisects the keys at the
radius's key (floor(eps * L) on the extended rationals); without keys it
selects the values below the radius with the quantale's `_below_mask`.

The triangle check in `validate_vspace` has two kernels.  With keys it
packs each row of keys into one int, a lane per twin class with a guard
bit above each lane, and tests a row against every other row with one
subtraction (`_packed_triangle_violations`); one-byte lanes are built by
`translate` through a table of keys.  Without keys (extended rationals
past the budget, and tables that are not capped chains, such as
`pinched`) the class kernel takes each sum of two values once with the
quantale addition, selects the ranks not below it once, and reads row
i's points at those ranks once per row (`_table_triangle_violations`).

The triangle check works once per twin class.  Twins are points with an
equal row and an equal column of ranks, found by exact equality (keyed
on the pair of rank rows), never by zero distance, so the check
assumes nothing of the law it checks.  On a valid space the points at
mutual distance 0 are twins, so a space of c clusters costs the check
about c * c pairs (i, j) instead of n * n; twins of i share i's
violations, and twins of j get j's.  The packed kernel reads the third
point k over the representatives too, c lanes per row instead of n, and
a flagged k stands for its whole class.  The per-entry definitions of the
triangle law, balls and set distances are kept in `qc.verify` as oracles;
its per-entry ε references (the entourage core, the symmetry moduli and
through them the flip) read its per-entry balls, and VA and UVA are
checked by its test-value loops.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainMismatchError, InvariantError, PreconditionError, StructureError
from .quantale import INF, ValueQuantale, _Infinity
from .reporting import CheckFailure, ValidationReport, Verdict


class VSpace:
    """Finite carrier with distances in a value quantale.

    Construction checks shapes and element membership only; use
    `validate_vspace` for the zero-diagonal and triangle laws.  Each
    distinct entry is checked once, and the matrix is stored in rank form
    (`_RankForm`); `dmat` is a read-only view built on first use.
    """

    def __init__(self, quantale: ValueQuantale, points, distances):
        if not isinstance(quantale, ValueQuantale):
            raise StructureError(f"not a quantale: {quantale!r}")
        if not isinstance(distances, _EntryClasses):
            distances = _entry_classes(distances)
        # a list, not a generator: tuple() over a generator starts at a guessed
        # size and resizes, so in a long run the tuples it frees pile up on
        # CPython's per-size free lists (up to 2000 of each size)
        points = tuple([str(p) for p in points])
        if len(set(points)) != len(points) or any(not p for p in points):
            raise StructureError("point names must be unique and non-empty")
        n = len(points)
        classes = distances.classes
        if len(classes) != n or any(len(row) != n for row in classes):
            raise StructureError(f"distance matrix must be {n}x{n}")
        self._adopt(quantale, points, _RankForm(quantale, distances))

    def _adopt(self, quantale: ValueQuantale, points: tuple, form: "_RankForm") -> None:
        self.quantale = quantale
        self.points = points
        # read on every mask operation: plain attributes, not properties
        self.size = len(points)
        self.full_mask = (1 << self.size) - 1
        self._ranks = form
        self._pindex = {p: i for i, p in enumerate(points)}
        self._ball_cache: dict = {}
        # zero mask -> its entourage core row (`structures.quasi_uniformity_of`)
        self._core_rows: dict = {}
        self._dual = None

    def index(self, point) -> int:
        try:
            return self._pindex[point]
        except (KeyError, TypeError):
            raise StructureError(f"unknown point {point!r}") from None

    def d(self, x, y):
        form = self._ranks
        return form.values[form.rank[self.index(x)][self.index(y)]]

    @cached_property
    def dmat(self) -> tuple:
        """The distance matrix as a tuple of rows, read from the rank form."""
        values = self._ranks.values
        return tuple([tuple([values[r] for r in row]) for row in self._ranks.rank])

    def mask(self, names) -> int:
        """The mask of the named points, read in one comprehension; on an
        unknown or unhashable name the loop below raises `StructureError`."""
        if not isinstance(names, (list, tuple, set, frozenset)):
            names = list(names)  # the loop may read the names again
        try:
            # a set of bits: a repeated name is counted once
            return sum({1 << self._pindex[p] for p in names})
        except (KeyError, TypeError):
            pass  # the loop below names the unknown point
        m = 0
        for p in names:
            m |= 1 << self.index(p)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple([p for i, p in enumerate(self.points) if mask >> i & 1])

    def _balls(self, eps, forward: bool) -> tuple[int, ...]:
        """Per point, the mask of the ball of radius eps around it.

        Cached on the identity of `eps`: each entry holds `eps`, so its id is
        not reused while the entry lives, and a hit hashes no Fraction.  The
        key is the id forward and its complement backward: ids are not
        negative, so the two sides never share a key.
        """
        key = id(eps) if forward else ~id(eps)
        hit = self._ball_cache.get(key)
        if hit is None:
            form, q = self._ranks, self.quantale
            if form.keys is None:
                below = q._below_mask(form.values, eps)
            else:
                below = (1 << q._count_below(form.keys, eps)) - 1
            # a run of fresh radius objects (int radii given to the public
            # calls) empties the cache instead of growing it
            if len(self._ball_cache) >= _RADIUS_CACHE_LIMIT:
                self._ball_cache.clear()
            hit = self._ball_cache[key] = (eps, form.masks(below, forward))
        return hit[1]

    def _ball(self, i: int, eps, forward: bool) -> int:
        return self._balls(eps, forward)[i]

    @cached_property
    def zero_fwd(self) -> tuple[int, ...]:
        """Per point, the mask of points at outgoing distance 0."""
        return self._ranks.zero_masks(self.quantale.bottom, True)

    @cached_property
    def zero_bwd(self) -> tuple[int, ...]:
        return self._ranks.zero_masks(self.quantale.bottom, False)

    @cached_property
    def test_values(self) -> tuple:
        return combined_test_values(self)

    @cached_property
    def _moduli_candidates(self) -> tuple:
        """The test values in descending `sort_key` order, the order in which
        `symmetry_modulus` tries them on tables that are not chains; sorted
        once per space."""
        return tuple(sorted(self.test_values, key=self.quantale.sort_key, reverse=True))

    def dual(self) -> "VSpace":
        """The transposed space, built once; the dual of the dual is `self`.

        Its rank form is this one's transposed (`_RankForm.transposed`): no
        value is checked again and nothing is renumbered.
        """
        op = self._dual
        if op is None:
            op = self._dual = VSpace.__new__(VSpace)
            op._adopt(self.quantale, self.points, self._ranks.transposed())
            op._dual = self
        return op

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, VSpace)
            and self.quantale == other.quantale
            and self.points == other.points
            and self._ranks.values == other._ranks.values
            and self._ranks.rank == other._ranks.rank
        )

    @cached_property
    def _hash(self):
        return hash((self.quantale, self.points, self._ranks.values, self._ranks.rank))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<VSpace {list(self.points)} over {self.quantale.label}>"


class _EntryClasses(NamedTuple):
    """A distance matrix as its distinct entries and a class per entry.

    `classes[i][j]` indexes `values`, and every value is the class of some
    entry.  Values need not be checked elements yet, and two of them may
    denote the same element: `_RankForm` checks each once, unless `checked`
    says they are elements of the space's quantale already, and merges
    equal ones.
    """

    values: Sequence
    classes: Sequence
    checked: bool = False


def _entry_classes(rows, parse=None) -> _EntryClasses:
    """Number the distinct entries of `rows` in order of first occurrence.

    Entries are told apart by type and value, so True never shares the
    class of 1, nor 1.0 that of 1; `parse`, when given, turns each distinct
    entry into its value.  An unhashable entry gets a class of its own and
    is left for `parse` or the element check to refuse.

    Each row is first looked up whole, at C level, in a memo of the `str`
    entries already numbered; no other built-in type equals a `str`, and a
    `str` subclass equal to one is the same literal.  A row with an entry
    not found there (a new literal, another type, an unhashable entry) is
    numbered one entry at a time.  The lookup assigns no class and parses
    nothing, so the numbering and the order of parse errors do not change.
    """
    memo, texts, values, classes = {}, {}, [], []
    known = texts.__getitem__
    for row in rows:
        if not isinstance(row, (list, tuple)):
            row = list(row)  # a row the lookup misses is read again
        try:
            classes.append(list(map(known, row)))
            continue
        except (KeyError, TypeError):
            pass
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
                    if key[0] is str:
                        texts[e] = c
            out.append(c)
        classes.append(out)
    return _EntryClasses(values, classes)


class _RankForm:
    """A distance matrix compiled over its distinct values.

    `values` holds the distinct entries in `sort_key` order; the rank of an
    entry is its index there, and `rank[i][j]` is the rank of d(i,j).  A
    row is `bytes` with at most 256 values and a tuple past that
    (`_row_type`).  `transpose` is `rank` transposed, built on first read,
    with rows of the same type.  `keys` holds
    the values' int order keys, and is None where they have none (finite
    tables that are not capped chains, extended rationals past the key
    budget).  All
    three come from one pass of `ValueQuantale._rank_values` over the
    checked entries: on int-keyed spaces the values are sorted and merged
    on their int keys, and no Fraction is hashed or compared.

    `rank` is the only stored form of the distances: every mask is
    gathered from it or its transpose by `masks`, given the ranks an
    operation selects.  The forms of the dual (`transposed`) and of the
    separation quotient (`restricted`) reuse this form's `values` and
    `keys` objects.
    """

    __slots__ = ("values", "rank", "keys", "_transpose")

    def __init__(self, quantale: ValueQuantale, entries: _EntryClasses):
        # one check per distinct entry not checked yet, then one pass of the
        # quantale's kernel sorts the values, merges entries denoting one
        # element and keys them
        checked = entries.values
        if not entries.checked:
            checked = [quantale.check(v) for v in checked]
        self.values, renumber, self.keys = quantale._rank_values(checked)
        rows = entries.classes
        if len(renumber) <= 256:
            # each class is a byte: one C-level translate per row renumbers it
            table = bytes(renumber).ljust(256, b"\0")
            self.rank = tuple([bytes(row).translate(table) for row in rows])
        else:
            row_of = _row_type(self.values)
            self.rank = tuple([row_of([renumber[c] for c in row]) for row in rows])
        self._transpose = None

    def _sharing(self, rank, transpose=None) -> "_RankForm":
        """A form of `rank` over this form's values and keys, checking nothing."""
        op = _RankForm.__new__(_RankForm)
        op.values, op.keys, op.rank, op._transpose = self.values, self.keys, rank, transpose
        return op

    def transposed(self) -> "_RankForm":
        """The form of the transposed matrix, over the same values and keys."""
        return self._sharing(self.transpose, self.rank)

    def restricted(self, points: list[int]) -> "_RankForm":
        """The form of the rows and columns of `points`, over the same values
        and keys; every value must occur among them.

        One `itemgetter(*points)` gathers the selected rows and, per row,
        the selected entries at C level.  With fewer than two points it
        would raise (none) or return an entry, not a tuple (one), so those
        select entry by entry.
        """
        rank, row_of = self.rank, _row_type(self.values)
        if len(points) < 2:
            return self._sharing(tuple([row_of([rank[r][s] for s in points]) for r in points]))
        pick = itemgetter(*points)
        return self._sharing(tuple([row_of(pick(row)) for row in pick(rank)]))

    @property
    def transpose(self) -> tuple:
        if self._transpose is None:
            rank = self.rank
            if len(self.values) > 256:
                # through a list: zip gives tuple() no length to start from
                self._transpose = tuple(list(zip(*rank)))
            else:
                # column j of byte rows: every n-th byte of the rows joined
                flat, n = b"".join(rank), len(rank)
                self._transpose = tuple([flat[j::n] for j in range(n)])
        return self._transpose

    def masks(self, ranks: int, forward: bool) -> tuple[int, ...]:
        """Per row (forward) or column, the mask of the lanes whose rank is in
        the mask `ranks`.

        With at most 256 values a row of ranks is a byte string: reversed, so
        that lane j lands on bit j, each byte is translated to the digit 1
        if its rank is selected and to 0 otherwise, and the digits are read
        as one binary int.  Past 256 values each row is read entry by entry.
        """
        rows = self.rank if forward else self.transpose
        # tuples are built from lists: tuple() over a generator grows and
        # then shrinks its result, which on 16-64 point spaces fragmented
        # the heap enough to raise peak memory by about 1 MB
        if len(self.values) > 256:
            return tuple([sum([1 << j for j, r in enumerate(row) if ranks >> r & 1]) for row in rows])
        # bit u of `ranks` becomes byte u; the zero masks' table is a constant
        table = _RANK_ZERO_DIGITS if ranks == 1 else f"{ranks:0256b}"[::-1].encode()
        return tuple([int(row[::-1].translate(table), 2) for row in rows])

    def zero_masks(self, bottom, forward: bool) -> tuple[int, ...]:
        """Per row (forward) or column, the mask of the entries equal to
        `bottom`: the lanes of rank 0, since the bottom sorts first."""
        if not self.values or self.values[0] != bottom:
            return (0,) * len(self.rank)
        return self.masks(1, forward)


def _row_type(values) -> type:
    """The type of a rank row over `values`: bytes, one byte per rank, while
    every rank fits in a byte, and a tuple of ints past 256 values."""
    return bytes if len(values) <= 256 else tuple


# entries of a space's radius cache before it is emptied
_RADIUS_CACHE_LIMIT = 1024

# per byte of rank: the binary digit of "rank 0"
_RANK_ZERO_DIGITS = b"1" + b"0" * 255


def _masks_by_rank(rows) -> tuple[dict, ...]:
    """Per row of ranks, the mask of the positions holding each rank: the
    rows of the class triangle kernel.

    Equal rows share one dict, built once; the dicts are read-only.
    """
    memo, out = {}, []
    for row in rows:
        masks = memo.get(row)
        if masks is None:
            masks = memo[row] = {}
            for j, r in enumerate(row):
                masks[r] = masks.get(r, 0) | 1 << j
        out.append(masks)
    return tuple(out)


def _union(classes, ranks: int) -> int:
    """Union of the masks of the (rank, mask) pairs whose rank is in `ranks`."""
    m = 0
    for u, mask in classes:
        if ranks >> u & 1:
            m |= mask
    return m


def combined_test_values(*spaces: VSpace) -> tuple:
    """Epsilon candidates sufficient for the quantified predicates.

    Finite quantales: every element well above 0, which on a value quantale
    starts with 0 itself (module docstring); a table with positives but
    without 0 among them is refused.  Extended rationals: half the least
    positive distance, every positive distance value of the given spaces,
    and infinity; the representative below the positives is 1 when there
    are no finite positive distances.  Either way the balls of the first
    test value are the zero masks.
    """
    q = spaces[0].quantale
    for s in spaces[1:]:
        if s.quantale != q:
            raise DomainMismatchError("spaces live over different quantales")
    if q.is_finite:
        if q.positives and q.positives[0] != q.bottom:
            raise PreconditionError(
                f"{q.label} is not a value quantale: 0 is not well above 0"
            )
        return q.positives
    if len(spaces) == 1:
        values = spaces[0]._ranks.values
    else:
        values = sorted({v for s in spaces for v in s._ranks.values}, key=q.sort_key)
    # distinct and ascending: 0, when present, is first and INF last
    lo = 1 if values and not values[0] else 0
    hi = len(values) - (bool(values) and isinstance(values[-1], _Infinity))
    finite = values[lo:hi]
    below = finite[0] / 2 if finite else Fraction(1)
    return (below, *finite, INF)


def validate_vspace(space: VSpace) -> ValidationReport:
    """Report zero-diagonal and triangle violations with witnesses.

    Triangle failures come in ascending (i, j, k) order, one per triple
    with d(i,k) not below d(i,j) + d(j,k).
    """
    q = space.quantale
    values, rank = space._ranks.values, space._ranks.rank
    # 0 sorts first, so a diagonal entry is 0 iff its rank is 0 and values[0] is 0
    zero = 0 if values and values[0] == q.bottom else -1
    failures = []
    for i, row in enumerate(rank):
        if row[i] != zero:
            failures.append(
                CheckFailure(
                    "zero-diagonal",
                    {"point": space.points[i], "value": q.format(values[row[i]])},
                )
            )
    for i, row in _triangle_violations(space):
        for j, bad in enumerate(row):
            for k in _bits(bad):
                lhs = values[rank[i][k]]
                rhs = q.add(values[rank[i][j]], values[rank[j][k]])
                failures.append(
                    CheckFailure(
                        "triangle",
                        {
                            "triple": (
                                space.points[i],
                                space.points[j],
                                space.points[k],
                            ),
                            "lhs": q.format(lhs),
                            "rhs": q.format(rhs),
                        },
                    )
                )
    return ValidationReport("vspace", tuple(failures))


def _twins(form: _RankForm) -> dict[int, list[int]]:
    """Each twin class, as its first point mapped to its members in order.

    Twins are points with an equal rank row and an equal rank column: they
    are keyed on the pair (row of `rank`, row of `transpose`).  They are
    told apart by exact equality, never by zero distance, so the triangle
    check assumes nothing of the law it checks.
    """
    first, classes = {}, {}
    for i, key in enumerate(zip(form.rank, form.transpose)):
        classes.setdefault(first.setdefault(key, i), []).append(i)
    return classes


def _triangle_violations(space: VSpace) -> list[tuple[int, list[int]]]:
    """Per point i with a violation, in ascending order, the row of masks
    whose entry j holds the k with d(i,k) not <= d(i,j) + d(j,k).

    The kernels visit the twin representatives of i and j only, and the
    packed kernel those of k too.  A twin i' of i has the row of i, so its
    violations are those of i; a twin j' of j has d(i,j') = d(i,j) by the
    equal columns and d(j',k) = d(j,k) by the equal rows, so the mask of
    (i, j') is that of (i, j).  The rows are filled in from the representatives,
    and twins share them.  A space with order keys takes the packed-lane
    kernel, one without them the class kernel.
    """
    form = space._ranks
    twins = _twins(form)
    if form.keys is not None:
        found = _packed_triangle_violations(space, twins)
    else:
        found = _table_triangle_violations(space, twins)
    rows = {}
    for i, members in twins.items():
        if found[i]:
            row = [0] * space.size
            for j, ks in found[i].items():
                for t in twins[j]:
                    row[t] = ks
            for t in members:
                rows[t] = row
    return sorted(rows.items())


def _packed_triangle_violations(space: VSpace, twins: dict) -> dict[int, dict[int, int]]:
    """The triangle check on int order keys, one lane per twin class.

    The kernel reads the matrix between the twin representatives alone
    (`_triangle_violations`): a twin k' of k has the column of k, so
    d(i,k') = d(i,k) and d(j,k') = d(j,k), and k' fails with (i, j) iff k
    does.  A row of that matrix is packed into one int, key[d(i,k)] in the
    lane of representative k.  A lane is a whole number of bytes: value
    bits below a guard bit, enough of them that 2 * K + 1 fits, for K the
    largest key.  With G the guard bits and ONES the lowest bit of each
    lane, lane k of

        ((P_i | G) - (P_j + (key[d(i,j)] + 1) * ONES)) & G

    is set iff key[d(i,k)] >= key[d(i,j)] + key[d(j,k)] + 1, that is, iff
    d(i,k) is not below d(i,j) + d(j,k) (`ValueQuantale._rank_values`):
    each lane's difference is non-negative and below twice the guard, so
    no lane borrows from the next.  The rows P_j of the representatives j
    are laid side by side in one int, so one subtraction tests a
    representative i against all of them.  With one-byte lanes (K <= 63)
    the rows laid side by side are one `translate` of the joined rank rows
    through a 256-byte table of keys, and each P_i | G one `translate` of
    row i through the keys with the guard bit set (`_byte_lanes`); wider
    lanes join the byte strings of each row's keys (`_joined_lanes`).
    Lanes are unpacked only when
    the result is not zero, each flagged representative k giving the mask
    of its class.  The result maps each representative i to its
    representatives j with a violation, and to their masks.
    """
    if not twins:
        return {}
    form = space._ranks
    keys, reps = form.keys.keys, list(twins)
    c = len(reps)
    rows = form.rank if c == space.size else form.restricted(reps).rank
    members = [sum([1 << t for t in twins[k]]) for k in reps]
    width = (2 * max(keys) + 1).bit_length() // 8 + 1  # bytes per lane
    flag = 1 << 8 * width - 1  # the guard bit of a lane
    steps = [(key + 1).to_bytes(width, "little") * c for key in keys]
    size = c * c * width  # bytes of the rows side by side
    guard = int.from_bytes(flag.to_bytes(width, "little") * (c * c), "little")
    if width == 1:
        others, tops = _byte_lanes(rows, keys, flag)
    else:
        others, tops = _joined_lanes(rows, keys, flag, width)
    others = int.from_bytes(others, "little")
    out = {}
    for i, row, top in zip(reps, rows, tops):
        top = int.from_bytes(top * c, "little")
        step = int.from_bytes(b"".join(map(steps.__getitem__, row)), "little")
        bad = (top - (others + step)) & guard
        bad_i = out[i] = {}
        if bad:
            flags = bad.to_bytes(size, "little")[width - 1::width]
            for t, j in enumerate(reps):
                # the classes are disjoint: their sum is their union
                ks = sum([members[u] for u, f in enumerate(flags[t * c:(t + 1) * c]) if f])
                if ks:
                    bad_i[j] = ks
    return out


def _byte_lanes(rows, keys, flag: int) -> tuple[bytes, list[bytes]]:
    """The lanes of `_packed_triangle_violations` one byte wide: the rows
    side by side and each row with its guard bits, one `translate` each.

    One-byte lanes mean keys of at most 63, so at most 64 values: the rows
    are bytes, and a 256-byte table maps each rank to its lane.
    """
    lanes = bytes(keys).ljust(256, b"\0")
    guarded = bytes([key | flag for key in keys]).ljust(256, b"\0")
    return b"".join(rows).translate(lanes), [row.translate(guarded) for row in rows]


def _joined_lanes(rows, keys, flag: int, width: int) -> tuple[bytes, list[bytes]]:
    """`_byte_lanes` for lanes of any width: each row joins the byte
    strings of its ranks' keys."""
    lanes = [key.to_bytes(width, "little") for key in keys]
    guarded = [(key | flag).to_bytes(width, "little") for key in keys]
    others = b"".join([b"".join(map(lanes.__getitem__, row)) for row in rows])
    return others, [b"".join(map(guarded.__getitem__, row)) for row in rows]


def _table_triangle_violations(space: VSpace, twins: dict) -> dict[int, dict[int, int]]:
    """The triangle check over value classes, with the quantale's own sum.

    No chain is assumed.  For a pair (i, j) with d(i,j) = values[a], the
    violations are the union over the classes b of row j of the points of
    class b where row i holds a rank not below values[a] + values[b].  Two
    memos share the work.  Per rank pair (a, b): the ranks not below the
    sum, from one exact quantale addition and one `_below_mask` over the
    values (the order table of a finite quantale, or a bisection on the
    extended-rational chain).  Per (i, those ranks): the points of row i
    at them.  Only twin representatives i and j are visited, and the
    result has the shape of `_packed_triangle_violations`.
    """
    q = space.quantale
    form = space._ranks
    values, rows = form.values, _masks_by_rank(form.rank)
    every = (1 << len(values)) - 1
    reps = sum(1 << i for i in twins)
    above, points, out = {}, {}, {}
    for i in twins:
        row_i = rows[i]
        bad_i = out[i] = {}
        for a, pairs in row_i.items():
            pairs &= reps
            while pairs:
                low = pairs & -pairs
                j = low.bit_length() - 1
                pairs ^= low
                ks = 0
                for b, mask_j in rows[j].items():
                    ranks = above.get((a, b))
                    if ranks is None:
                        s = q.add(values[a], values[b])
                        ranks = above[a, b] = every & ~q._below_mask(values, s)
                    hit = points.get((i, ranks))
                    if hit is None:
                        hit = points[i, ranks] = _union(row_i.items(), ranks)
                    ks |= mask_j & hit
                if ks:
                    bad_i[j] = ks
    return out


def ball(space: VSpace, x, eps, side: str = "forward") -> frozenset:
    """B_eps(x) (forward: d(x,y) <= eps) or B^eps(x) (backward: d(y,x) <= eps)."""
    eps = space.quantale.check(eps)
    i = space.index(x)
    m = space._ball(i, eps, _forward(side))
    return frozenset(space.names_of(m))


def ball_of_set(space: VSpace, names, eps, side: str = "forward") -> frozenset:
    eps = space.quantale.check(eps)
    fwd = _forward(side)
    m = 0
    for p in names:
        m |= space._ball(space.index(p), eps, fwd)
    return frozenset(space.names_of(m))


def _forward(side: str) -> bool:
    if side == "forward":
        return True
    if side == "backward":
        return False
    raise ValueError(f"side must be 'forward' or 'backward', got {side!r}")


def set_distance(space: VSpace, source, target):
    """Meet of d(s,t) over the cross pairs; top when either set is empty."""
    return _set_distance_masks(space, space.mask(source), space.mask(target))


def _set_distance_masks(space: VSpace, smask: int, tmask: int):
    # the meet is idempotent, so it runs over the ranks of the values that occur
    form = space._ranks
    rows = [form.rank[s] for s in _bits(smask)]
    return space.quantale._meet_ranks(form.values, _cross_ranks(rows, _bits(tmask)))


def _cross_ranks(rows, targets) -> int:
    """The mask of the ranks row[t], over the rows of ranks and the targets."""
    ranks = 0
    for row in rows:
        for t in targets:
            ranks |= 1 << row[t]
    return ranks


def _bits(mask: int) -> tuple[int, ...]:
    """The positions of the set bits of `mask`, ascending.

    Masks below 256 (every carrier of at most 8 points) are read from
    `_BITS`; larger ones peel their lowest bit at a time.
    """
    if mask < 256:
        return _BITS[mask]
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return tuple(out)


# per mask below 256, the positions of its set bits, ascending
_BITS = tuple([tuple([j for j in range(8) if m >> j & 1]) for m in range(256)])


def classify(space: VSpace) -> dict:
    """Symmetry and separation of the distance matrix."""
    form = space._ranks
    symmetric = form.rank == form.transpose
    separated = all(
        not f & b & ~(1 << i)
        for i, (f, b) in enumerate(zip(space.zero_fwd, space.zero_bwd))
    )
    return {"symmetric": symmetric, "separated": separated}


def separation_quotient(space: VSpace) -> tuple[VSpace, dict]:
    """Collapse mutually zero-distance points.

    Returns the quotient space and the projection point -> class name,
    where a class is named after its first member in carrier order.  The
    induced distance is checked for representative independence, which
    fails only on input that breaks the triangle law.  That the quotient is
    separated and the projection isometric is the theorem check
    `vspace.quotient_separated_isometric` in `qc.verify`.
    """
    form = space._ranks
    rank = form.rank
    n = space.size
    rep = list(range(n))
    for i, (f, b) in enumerate(zip(space.zero_fwd, space.zero_bwd)):
        earlier = f & b & ((1 << i) - 1)
        if earlier:
            rep[i] = rep[(earlier & -earlier).bit_length() - 1]
    # with every point its own representative nothing can differ; else row i
    # must read as its representative's row at the representatives' columns,
    # which one `itemgetter` gathers (over two points at least: some i > 0 moved)
    if rep != list(range(n)):
        pick = itemgetter(*rep)
        if any(tuple(rank[i]) != pick(rank[r]) for i, r in enumerate(rep)):
            raise InvariantError(
                "quotient distance is not representative independent; "
                "the input space violates the triangle law"
            )
    reps = sorted(set(rep))
    # built the way dual() is: every value occurs between representatives,
    # since each entry equals one, so none is checked or ranked again
    out = VSpace.__new__(VSpace)
    out._adopt(space.quantale, tuple([space.points[r] for r in reps]), form.restricted(reps))
    projection = {space.points[i]: space.points[rep[i]] for i in range(n)}
    return out, projection


# ---------------------------------------------------------------------------
# quantified predicates, decided on the zero masks (module docstring)


def _zero_masks(space: VSpace, side: str) -> tuple[int, ...]:
    """Per point, its zero neighbourhood on `side`: the ball of the least test value."""
    return space.zero_fwd if _forward(side) else space.zero_bwd


def _uniform_flip_ok(space: VSpace, delta, eps):
    """d(y,x) <= delta implies d(x,y) <= eps for all pairs; None or witness."""
    for i, (near, within) in enumerate(
        zip(space._balls(delta, False), space._balls(eps, True))
    ):
        bad = near & ~within
        if bad:
            return (space.points[i], space.points[(bad & -bad).bit_length() - 1])
    return None


def _pointwise_modulus_ok(space: VSpace, i: int, delta, eps) -> bool:
    fwd_e = space._ball(i, eps, True)
    bwd_e = space._ball(i, eps, False)
    fwd_d = space._ball(i, delta, True)
    bwd_d = space._ball(i, delta, False)
    return (bwd_d | fwd_e) == fwd_e and (fwd_d | bwd_e) == bwd_e


def has_uniformly_vanishing_asymmetry(space: VSpace) -> Verdict:
    """For every eps some delta makes d(y,x) <= delta imply d(x,y) <= eps.

    Holds iff d(y,x) = 0 implies d(x,y) = 0; the witness is the least test
    value and the first pair (x, y) that breaks it.
    """
    tv = space.test_values
    if tv:
        for i, (back, out) in enumerate(zip(space.zero_bwd, space.zero_fwd)):
            bad = back & ~out
            if bad:
                pair = (space.points[i], space.points[(bad & -bad).bit_length() - 1])
                return Verdict(False, {"epsilon": space.quantale.format(tv[0]), "pair": pair})
    return Verdict(True)


def has_vanishing_asymmetry(space: VSpace) -> Verdict:
    """At each x, every eps has a delta with B^delta(x) in B_eps(x) and dually.

    Holds iff each point's forward and backward zero masks agree; the
    witness is the first point where they differ and the least test value.
    """
    tv = space.test_values
    if tv:
        for i, (out, back) in enumerate(zip(space.zero_fwd, space.zero_bwd)):
            if out != back:
                return Verdict(
                    False, {"point": space.points[i], "epsilon": space.quantale.format(tv[0])}
                )
    return Verdict(True)


def symmetry_modulus(space: VSpace, eps, mode: str = "uniform", point=None):
    """Largest admissible delta from the test set, or None when absent.

    Balls grow with the radius, so on a chain (the extended rationals and
    the capped chains) the admissible deltas are a prefix of the ascending
    test values, and a bisection finds its last one.  On other tables the
    test values are tried from the largest down, in `sort_key` order.
    """
    q = space.quantale
    eps = q.check(eps)
    if not q.well_above(eps, q.bottom):
        raise PreconditionError(f"{q.format(eps)} is not well above 0")
    if mode == "uniform":
        def admissible(delta):
            return _uniform_flip_ok(space, delta, eps) is None
    elif mode == "pointwise":
        i = space.index(point)

        def admissible(delta):
            return _pointwise_modulus_ok(space, i, delta, eps)
    else:
        raise ValueError(f"mode must be 'uniform' or 'pointwise', got {mode!r}")
    if q.is_finite and q._chain_keys is None:
        return next(filter(admissible, space._moduli_candidates), None)
    tv = space.test_values
    lo, hi = 0, len(tv)
    while lo < hi:
        mid = (lo + hi) // 2
        if admissible(tv[mid]):
            lo = mid + 1
        else:
            hi = mid
    return tv[lo - 1] if lo else None


def _as_index_map(fmap, source: VSpace, target: VSpace) -> tuple[int, ...]:
    """Per source point, the target index of its image under the name map,
    read in one comprehension; on a missing or unknown name the loop below
    raises `StructureError`."""
    try:
        return tuple([target._pindex[fmap[p]] for p in source.points])
    except (KeyError, TypeError):
        pass  # the loop below names what is wrong
    out = []
    for p in source.points:
        if p not in fmap:
            raise StructureError(f"map is not total: missing point {p!r}")
        out.append(target.index(fmap[p]))
    return tuple(out)


def is_uniformly_continuous(fmap: dict, source: VSpace, target: VSpace) -> Verdict:
    """For every eps above 0 some delta bounds image distances by eps.

    Holds iff the map keeps zero distances zero; the witness is the least
    test value of the two spaces and the first pair it sends apart.
    """
    if source.quantale != target.quantale:
        raise DomainMismatchError("uniform continuity needs a shared quantale")
    witness = _uc_witness(_as_index_map(fmap, source, target), source, target)
    return Verdict(witness is None, witness)


def _uc_witness(fidx, source: VSpace, target: VSpace) -> dict | None:
    """`is_uniformly_continuous` on an index map over one quantale: None
    when the map is uniformly continuous, else the witness."""
    # over one quantale the test values of one space are empty iff those of
    # any spaces are
    if source.test_values:
        images = target.zero_fwd
        for i, near in enumerate(source.zero_fwd):
            within = images[fidx[i]]
            for j in _bits(near):
                if not within >> fidx[j] & 1:
                    pair = (source.points[i], source.points[j])
                    eps = _least_test_value(source, target)
                    return {"epsilon": target.quantale.format(eps), "pair": pair}
    return None


def _least_test_value(*spaces: VSpace):
    """`combined_test_values(*spaces)[0]`, read from each space's cached test values.

    On a finite quantale every space's test values are the quantale's
    positives.  On the extended rationals the least is half the least
    finite positive distance of all the spaces: the least first test value
    of the spaces with a finite positive distance (those whose test values
    hold more than that half and INF), and 1 when none has one.
    """
    if spaces[0].quantale.is_finite:
        return spaces[0].test_values[0]
    halves = [s.test_values[0] for s in spaces if len(s.test_values) > 2]
    return min(halves, default=Fraction(1))

