"""Value quantales: complete lattices carrying a meet-distributing addition.

Two instance families are provided.  `FiniteQuantale` is presented by
explicit order and addition tables and supports exhaustive reasoning;
`ExtendedRationalQuantale` is the symbolic chain of non-negative rationals
with a point at infinity.  All arithmetic is exact: table indices,
`fractions.Fraction`, and the `INF` sentinel.  No floats anywhere.

Elements are plain values (an int index, a Fraction, or INF) and are only
meaningful relative to their owning quantale; every public operation
normalises and checks its element arguments.  Private rank kernels work on
a compiled space's distinct values, which were checked when the space was
built, so they make no check per value.  `_meet_ranks` is the meet behind
set and filter distances.  `_rank_values` compiles a space's checked
entries in one pass: their distinct values in `sort_key` order, the rank
of each entry, and an int key per value where the quantale has them,
with x <= a + b iff key(x) <= key(a) + key(b).  A key is always an int;
a space has keys or it has none.  On the extended-rational chain a key
is value * L with L the lcm of the denominators, taken per entry before
anything is sorted: the int keys order and identify the values, so
equal elements merge on their keys and no Fraction is hashed or
compared.  INF, always the last value, gets a top sentinel above every
sum of two finite keys.  When L would pass `_KEY_SCALE_BITS` bits (many
coprime denominators), the values are sorted as Fractions and have no
keys, so the size of a key is bounded.  A finite quantale has keys
when its tables make it a capped chain: a chain whose sum is the element
at position min(key(a) + key(b), key(top)), its key being its position.
It decides this once, when it is built; no key exceeds the top's, so the
sum of two keys needs no cap.
Order tests and sums then run on keys: `_count_below` for balls, in
`qc.vspace` the packed-lane triangle check, and in `qc.verify`
`triangle_repair` on the extended rationals.  Without keys the order
test is `_below_mask`, for balls and for the class triangle kernel in
`qc.vspace`: the order table of a finite quantale, or a bisection on the
extended-rational chain.

The well-above relation on finite tables is computed by the closed form

    a well_above b   iff   meet{s : not s <= a} is not <= b

which is equivalent to the subset-quantified definition on any complete
lattice (the set on the left is the worst-case witness family).  The test
suite re-derives the equivalence against the 2^|V|-subset oracle on a
corpus of small lattices before anything downstream relies on it.
"""

from __future__ import annotations

import json
import re
import sys
from bisect import bisect_right
from fractions import Fraction
from functools import reduce
from math import lcm
from typing import NamedTuple

from .errors import DomainMismatchError, StructureError
from .reporting import CheckFailure, ValidationReport


class _Infinity:
    """Symbolic top of the extended rationals; absorbing under addition."""

    __slots__ = ()

    def __repr__(self):
        return "inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity)

    def __hash__(self):
        return hash("qc.infinity")

    def __lt__(self, other):
        if isinstance(other, (_Infinity, int, Fraction)):
            return False
        return NotImplemented

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return True
        if isinstance(other, (int, Fraction)):
            return False
        return NotImplemented

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return False
        if isinstance(other, (int, Fraction)):
            return True
        return NotImplemented

    def __ge__(self, other):
        if isinstance(other, (_Infinity, int, Fraction)):
            return True
        return NotImplemented

    def __add__(self, other):
        if isinstance(other, (_Infinity, int, Fraction)):
            return self
        return NotImplemented

    __radd__ = __add__


INF = _Infinity()

# Bit budget for the scale L of extended-rational order keys.  Past it the
# values have no keys: L grows with the number of coprime denominators,
# and lcm keys of a few dozen ~20-bit prime denominators already cost
# more memory than the Fractions they would replace.
_KEY_SCALE_BITS = 128


class _OrderKeys(NamedTuple):
    """Exact int order keys for the values of a compiled space on a chain.

    Built with the values by `ValueQuantale._rank_values`, which gives None
    in their place where the values have no keys.

    On the extended rationals `keys[u]` is `values[u] * scale`.  When INF
    occurs it is the last value, and its key is a top sentinel above the
    sum of any two finite keys.  `finite` counts the finite values.  On a
    capped chain `keys[u]` is the position of `values[u]`, `scale` is 1
    and `finite` counts every value.  Keys are ascending ints, and x <= a + b
    iff key(x) <= key(a) + key(b).
    """

    keys: tuple
    scale: int
    finite: int


def _rank_by(checked, key) -> tuple[tuple, list[int]]:
    """The distinct elements of `checked` sorted by `key`, and each entry's index there."""
    values = tuple(sorted(set(checked), key=key))
    rank_of = {v: r for r, v in enumerate(values)}
    return values, [rank_of[v] for v in checked]


class ValueQuantale:
    """Interface shared by the quantale families.

    Subclasses provide: check, leq, add, meet, join, well_above, sort_key,
    format, parse, bottom, top, the unchecked join `_join` of elements
    already checked, and the rank kernels _rank_values, _meet_ranks,
    _below_mask, and _count_below where the quantale has order keys.
    `_rank_values` is the one pass that compiles a space: it sorts and
    merges the checked entries and gives the values their order keys
    together, on int keys wherever the quantale has them.  `parse` returns
    checked elements (`check` leaves them as they are), so a space read
    from a file checks no value again.
    """

    is_finite: bool = False
    label: str = "quantale"

    def check(self, element):
        """Normalise an element, raising DomainMismatchError if foreign."""
        raise NotImplementedError

    def _rank_values(self, checked) -> tuple[tuple, list[int], _OrderKeys | None]:
        """Compile checked entries: `(values, renumber, keys)`.

        `checked` holds normalised elements, such as the distinct entries
        of a matrix, each checked once; two of them may denote the same
        element.  `values` is the tuple of the distinct elements in
        `sort_key` order, `renumber[c]` the index of `checked[c]` in it,
        and `keys` the values' int order keys, or None where they have
        none.  Nothing is checked.
        """
        raise NotImplementedError

    def _meet_ranks(self, values, ranks: int):
        """Meet of the values[u] with bit u set in `ranks`; top when none is.

        `values` is as returned by `_rank_values`.  Nothing is checked: this
        is the internal kernel behind set and filter distances.
        """
        raise NotImplementedError

    def contains(self, element) -> bool:
        try:
            self.check(element)
        except DomainMismatchError:
            return False
        return True

    def __repr__(self):
        return f"<{type(self).__name__} {self.label}>"


class ExtendedRationalQuantale(ValueQuantale):
    """Non-negative rationals with infinity, ordinary order, truncated sum.

    The carrier is symbolic: elements are `Fraction` values >= 0 or `INF`.
    well_above coincides with strict order, where INF is well above
    everything but itself; the witness families behind that reduction are
    the geometric sequences (meet 0, no member below 0) and the tail sets
    (a, inf] (meet a, not attained).
    """

    is_finite = False
    label = "ext_rational"

    @property
    def bottom(self):
        return _ZERO

    @property
    def top(self):
        return INF

    def check(self, element):
        # a Fraction, the common case, takes one type test
        if not isinstance(element, Fraction):
            if isinstance(element, _Infinity):
                return INF
            if isinstance(element, bool):
                raise DomainMismatchError("booleans are not extended-rational elements")
            if not isinstance(element, int):
                raise DomainMismatchError(f"not an extended-rational element: {element!r}")
            element = Fraction(element)
        # the denominator of a Fraction is positive, so the sign is the
        # numerator's; this skips Fraction's rich comparison
        if element.numerator < 0:
            raise DomainMismatchError(f"negative value {element} is not in [0, inf]")
        return element

    def leq(self, a, b):
        a, b = self.check(a), self.check(b)
        if isinstance(b, _Infinity):
            return True
        if isinstance(a, _Infinity):
            return False
        return a <= b

    def add(self, a, b):
        a, b = self.check(a), self.check(b)
        if isinstance(a, _Infinity) or isinstance(b, _Infinity):
            return INF
        return a + b

    def _rank_values(self, checked):
        # each entry gets its int key value * L first; the keys order and
        # identify the values, so the sort and the merge of equal elements
        # ("1/2" and "0.5") run on ints.  INF is keyed -1 until its sentinel
        # is known: 2 * the largest finite key + 1, or 1 when it stands alone.
        # Past the key budget the values are sorted as themselves, unkeyed
        scale = lcm(*{v.denominator for v in checked if v is not INF})
        if scale.bit_length() > _KEY_SCALE_BITS:
            return (*_rank_by(checked, self.sort_key), None)
        ints = [-1 if v is INF else v.numerator * (scale // v.denominator) for v in checked]
        order = sorted(set(ints))
        if order and order[0] < 0:
            order.append(order.pop(0))
        rank_of = {k: r for r, k in enumerate(order)}
        # the first entry of each key stands for its value, as set() keeps it
        first = dict(zip(reversed(ints), reversed(checked)))
        values = tuple([first[k] for k in order])
        finite = len(order) - (bool(order) and order[-1] < 0)
        if finite < len(order):
            order[-1] = 2 * order[finite - 1] + 1 if finite else 1
        return values, [rank_of[k] for k in ints], _OrderKeys(tuple(order), scale, finite)

    def _count_below(self, okeys: _OrderKeys, element) -> int:
        """Number of the keyed values <= element; they are a prefix.

        Only `element` is checked: this is the internal kernel behind balls.
        """
        element = self.check(element)
        if isinstance(element, _Infinity):
            return len(okeys.keys)
        # v <= element iff key(v) <= floor(element * L); a finite element
        # never reaches the sentinel, however large it is
        key = element.numerator * okeys.scale // element.denominator
        return bisect_right(okeys.keys, key, 0, okeys.finite)

    def _below_mask(self, values, element) -> int:
        """Bit u set iff values[u] <= element, found by bisection.

        `values` is as returned by `_rank_values`, or a subsequence of such
        values, so those below `element` are a prefix.  Only `element` is
        checked: this is the order test of balls and of the class triangle
        kernel on values without keys (past the key budget).
        """
        return (1 << bisect_right(values, self.check(element))) - 1

    def _meet_ranks(self, values, ranks: int):
        # a chain sorted ascending: the meet is the value at the lowest rank
        return values[(ranks & -ranks).bit_length() - 1] if ranks else INF

    def meet(self, elements):
        return min(map(self.check, elements), default=INF)

    def join(self, elements):
        return self._join(map(self.check, elements))

    def _join(self, checked):
        return max(checked, default=_ZERO)

    def well_above(self, a, b):
        a, b = self.check(a), self.check(b)
        if isinstance(a, _Infinity):
            return not isinstance(b, _Infinity)
        if isinstance(b, _Infinity):
            return False
        return a > b

    def sort_key(self, element):
        element = self.check(element)
        if isinstance(element, _Infinity):
            return (1, _ZERO)
        return (0, element)

    def format(self, element) -> str:
        element = self.check(element)
        return "inf" if isinstance(element, _Infinity) else str(element)

    def parse(self, text):
        limit = _literal_digit_limit()
        if isinstance(text, (int, Fraction)) and not isinstance(text, bool):
            # a negative number in a file is malformed input, as "-1" is
            try:
                value = self.check(text)
            except DomainMismatchError as exc:
                raise StructureError(str(exc)) from None
            top = max(value.numerator, value.denominator)
            # 2**(3 * limit) < 10**limit, so shorter ints need no power of ten
            if limit and top.bit_length() > 3 * limit and top >= 10**limit:
                raise _too_large(f"rational value of {top.bit_length()} bits", limit)
            return value
        if not isinstance(text, str):
            raise StructureError(f"cannot parse element from {text!r}")
        if text == "inf":
            return INF
        # without an exponent, no number Fraction builds has more digits than
        # the literal has characters
        suspect = len(text) > limit or "e" in text or "E" in text
        if limit and suspect and _literal_digits(text) > limit:
            shown = repr(text) if len(text) <= 40 else repr(text[:40]) + "..."
            raise _too_large(f"rational literal {shown}", limit)
        if not _GRAMMAR_LITERAL.match(text):
            raise StructureError(
                f"bad rational literal {text!r}: expected \"p/q\", \"n\", \"inf\", "
                f"or a decimal with an optional exponent, in ASCII digits"
            )
        # the grammar admits ASCII digits only, so "n" and "p/q" are unsigned
        # ints; the other forms, signed ones included, go to Fraction
        num, slash, den = text.partition("/")
        try:
            if num.isdigit():
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
            value = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise StructureError(f"bad rational literal {text!r}: {exc}") from None
        if value < 0:
            raise StructureError(f"negative rational literal {text!r}")
        return value

    def __eq__(self, other):
        return isinstance(other, ExtendedRationalQuantale)

    def __hash__(self):
        return hash("qc.ext_rational")


EXT_RATIONAL = ExtendedRationalQuantale()

# the zero of the extended rationals; a Fraction is immutable, so one serves
_ZERO = Fraction(0)


def _literal_digit_limit() -> int:
    """Most digits a numerator or denominator read from input may have.

    Fewer than half of sys.get_int_max_str_digits(): a sum of two values
    read, the largest number qc derives from its input and prints (as a
    triangle witness), then has at most that many digits and still prints.
    0 when ints print without a limit.
    """
    limit = sys.get_int_max_str_digits()
    return (limit - 1) // 2 if limit else 0


def _too_large(what: str, limit: int) -> StructureError:
    return StructureError(
        f"{what} is too large: its numerator or denominator would exceed "
        f"{limit} digits, fewer than half the {sys.get_int_max_str_digits()} "
        f"digits an int may print, so that sums of two values stay printable"
    )


# the "num/den", decimal and exponent forms `Fraction` accepts (`\d` as
# there: any Unicode decimal digit)
_RATIONAL_LITERAL = re.compile(
    r"[-+]?(?P<whole>[\d_]*)"
    r"(?:/(?P<den>[\d_]*)|(?:\.(?P<frac>[\d_]*))?(?:[eE](?P<exp>[-+]?[\d_]+))?)\Z"
)


# the literals qc reads: "p/q", "n", and decimals with an optional exponent,
# in ASCII digits, with no sign but "-" (refused as negative afterwards), no
# "_" separators and no surrounding space
_GRAMMAR_LITERAL = re.compile(
    r"-?(?:[0-9]+/[0-9]+|(?=\.?[0-9])[0-9]*(?:\.[0-9]*)?(?:[eE][-+]?[0-9]+)?)\Z"
)


def _literal_digits(s: str) -> int:
    """Digits of the numerator or denominator `Fraction(s)` would build.

    An upper bound taken before the fraction is reduced, computed without
    building either number, so "1e999999999" costs nothing to refuse.  0 for
    anything that is not a rational literal.
    """
    m = _RATIONAL_LITERAL.match(s)
    if m is None:
        return 0
    whole, den, frac, exp = (
        (g or "").replace("_", "") for g in m.group("whole", "den", "frac", "exp")
    )
    if den:
        return max(len(whole), len(den))
    digits = exp.lstrip("+-")
    if len(digits) > 18:
        return sys.maxsize
    power = int(exp) if digits else 0
    # Fraction multiplies the mantissa by 10**power, or the denominator
    # 10**len(frac) by 10**-power
    return max(len(whole + frac) + max(power, 0), len(frac) - min(power, 0) + 1)


def _normalise_tables(names, leq, add):
    """Shape-check raw tables; raises StructureError on malformed input."""
    names = tuple(str(x) for x in names)
    n = len(names)
    if n == 0:
        raise StructureError("a quantale needs at least one element")
    if len(set(names)) != n or any(not s for s in names):
        raise StructureError("element names must be unique and non-empty")
    if len(leq) != n or any(len(row) != n for row in leq):
        raise StructureError(f"leq table must be {n}x{n}")
    if len(add) != n or any(len(row) != n for row in add):
        raise StructureError(f"add table must be {n}x{n}")
    leq_t = []
    for row in leq:
        out = []
        for v in row:
            if not isinstance(v, (bool, int)) or v not in (0, 1, True, False):
                raise StructureError(f"leq entries must be booleans, got {v!r}")
            out.append(bool(v))
        leq_t.append(tuple(out))
    add_t = []
    for row in add:
        out = []
        for v in row:
            if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < n:
                raise StructureError(f"add entries must be indices in [0,{n}), got {v!r}")
            out.append(v)
        add_t.append(tuple(out))
    return names, tuple(leq_t), tuple(add_t)


def _partial_order_witness(leq):
    """Return a witness dict if leq is not a partial order, else None."""
    n = len(leq)
    for i in range(n):
        if not leq[i][i]:
            return {"law": "reflexivity", "element": i}
    for i in range(n):
        for j in range(n):
            if i != j and leq[i][j] and leq[j][i]:
                return {"law": "antisymmetry", "pair": (i, j)}
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                for k in range(n):
                    if leq[j][k] and not leq[i][k]:
                        return {"law": "transitivity", "triple": (i, j, k)}
    return None


class _LatticeProblem(Exception):
    def __init__(self, witness):
        super().__init__(str(witness))
        self.witness = witness


def _lattice_tables(leq):
    """Pairwise meet/join tables plus bottom and top.

    On a finite poset these exist for all pairs exactly when every subset
    has a meet and a join, so this decides lattice completeness.  Raises
    _LatticeProblem with a witness when the structure is missing.
    """
    n = len(leq)
    # a finite poset has a bottom (top) iff it has one minimal (maximal)
    # element, so a missing one is named by the candidates it has instead
    bottoms = [i for i in range(n) if sum(leq[j][i] for j in range(n)) == 1]
    if len(bottoms) != 1:
        raise _LatticeProblem({"law": "bottom", "candidates": tuple(bottoms)})
    tops = [i for i in range(n) if sum(leq[i]) == 1]
    if len(tops) != 1:
        raise _LatticeProblem({"law": "top", "candidates": tuple(tops)})
    meet_t = [[0] * n for _ in range(n)]
    join_t = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            lower = [k for k in range(n) if leq[k][i] and leq[k][j]]
            glb = [k for k in lower if all(leq[x][k] for x in lower)]
            if len(glb) != 1:
                raise _LatticeProblem({"law": "meet", "pair": (i, j)})
            meet_t[i][j] = glb[0]
            upper = [k for k in range(n) if leq[i][k] and leq[j][k]]
            lub = [k for k in upper if all(leq[k][x] for x in upper)]
            if len(lub) != 1:
                raise _LatticeProblem({"law": "join", "pair": (i, j)})
            join_t[i][j] = lub[0]
    return tuple(map(tuple, meet_t)), tuple(map(tuple, join_t)), bottoms[0], tops[0]


class FiniteQuantale(ValueQuantale):
    """Quantale presented by element names, an order table, and a sum table.

    Construction requires the order to be a complete lattice (shape or
    lattice defects raise StructureError) but does not check the value
    quantale axioms; use `validate_value_quantale` for that.  Elements are
    indices into `names`.
    """

    is_finite = True

    def __init__(self, names, leq, add, label=None):
        names, leq_t, add_t = _normalise_tables(names, leq, add)
        po = _partial_order_witness(leq_t)
        if po is not None:
            po = json.dumps(_fmt_witness(names, po), sort_keys=True)
            raise StructureError(f"order table is not a partial order: {po}")
        try:
            meet_t, join_t, bottom, top = _lattice_tables(leq_t)
        except _LatticeProblem as exc:
            w = json.dumps(_fmt_witness(names, exc.witness), sort_keys=True)
            raise StructureError(f"order table is not a complete lattice: {w}") from None
        self.names = names
        self.label = label or "finite[" + ",".join(names) + "]"
        self._leq = leq_t
        self._add = add_t
        self._meet_t = meet_t
        self._join_t = join_t
        self._bottom = bottom
        self._top = top
        n = len(names)
        # rank in a fixed linear extension; used for deterministic tie-breaks
        self._rank = tuple(sum(leq_t[x][e] for x in range(n)) for e in range(n))
        # closed-form well-above: meet of everything not below a
        wa = []
        for a in range(n):
            outside = [s for s in range(n) if not leq_t[s][a]]
            m = reduce(lambda p, q: meet_t[p][q], outside, top)
            wa.append(tuple(not leq_t[m][b] for b in range(n)))
        self._wa = tuple(wa)
        self.positives = tuple(
            sorted((e for e in range(n) if self._wa[e][bottom]), key=self.sort_key)
        )
        # order keys on a capped chain: each element's position, with a + b
        # the element at position min(key(a) + key(b), key(top)); since no
        # key passes the top's, x <= a + b iff key(x) <= key(a) + key(b)
        # (the positions in `sort_key` order, which `_rank_values` sorts on)
        chain = sorted(range(n), key=self._rank.__getitem__)
        keys = [0] * n
        for pos, e in enumerate(chain):
            keys[e] = pos
        self._position = tuple(keys)
        is_chain = all(leq_t[a][b] for a, b in zip(chain, chain[1:]))
        capped = all(
            add_t[a][b] == chain[min(keys[a] + keys[b], n - 1)] for a in range(n) for b in range(n)
        )
        self._chain_keys = self._position if is_chain and capped else None
        self._hash = hash((names, leq_t, add_t))

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def bottom(self):
        return self._bottom

    @property
    def top(self):
        return self._top

    def elements(self):
        return range(len(self.names))

    def check(self, element):
        if isinstance(element, bool) or not isinstance(element, int):
            raise DomainMismatchError(f"not an element index: {element!r}")
        if not 0 <= element < len(self.names):
            raise DomainMismatchError(
                f"index {element} out of range for {self.label}"
            )
        return element

    def leq(self, a, b):
        return self._leq[self.check(a)][self.check(b)]

    def add(self, a, b):
        return self._add[self.check(a)][self.check(b)]

    def _below_mask(self, values, element) -> int:
        """Bit u set iff values[u] <= element, read from the order table.

        `values` is as returned by `_rank_values`, or a subsequence of such
        values.  Only `element` is checked: this is the internal kernel
        behind balls and the triangle check.
        """
        col = self.check(element)
        leq = self._leq
        m = 0
        for u, v in enumerate(values):
            if leq[v][col]:
                m |= 1 << u
        return m

    def _rank_values(self, checked):
        values, renumber = _rank_by(checked, self._position.__getitem__)
        # positions on a capped chain (see __init__); no chain is assumed otherwise
        keys = self._chain_keys
        if keys is not None:
            keys = _OrderKeys(tuple([keys[v] for v in values]), 1, len(values))
        return values, renumber, keys

    def _count_below(self, okeys: _OrderKeys, element) -> int:
        """Number of the keyed values <= element on a capped chain; a prefix."""
        return bisect_right(okeys.keys, self._chain_keys[self.check(element)])

    def _meet_ranks(self, values, ranks: int):
        # no chain is assumed: fold the meet table over the set ranks
        meet_t = self._meet_t
        m = self._top
        while ranks:
            low = ranks & -ranks
            m = meet_t[m][values[low.bit_length() - 1]]
            ranks ^= low
        return m

    def meet(self, elements):
        return reduce(
            lambda p, q: self._meet_t[p][q], (self.check(e) for e in elements), self._top
        )

    def join(self, elements):
        return self._join(self.check(e) for e in elements)

    def _join(self, checked):
        return reduce(lambda p, q: self._join_t[p][q], checked, self._bottom)

    def well_above(self, a, b):
        return self._wa[self.check(a)][self.check(b)]

    def sort_key(self, element):
        element = self.check(element)
        return (self._rank[element], element)

    def format(self, element) -> str:
        return self.names[self.check(element)]

    def parse(self, text):
        if isinstance(text, int) and not isinstance(text, bool):
            # an index out of range in a file is malformed input
            try:
                return self.check(text)
            except DomainMismatchError as exc:
                raise StructureError(str(exc)) from None
        if isinstance(text, str):
            try:
                return self.names.index(text)
            except ValueError:
                raise StructureError(
                    f"unknown element name {text!r} in {self.label}"
                ) from None
        raise StructureError(f"cannot parse element from {text!r}")

    def __eq__(self, other):
        return (
            isinstance(other, FiniteQuantale)
            and self.names == other.names
            and self._leq == other._leq
            and self._add == other._add
        )

    def __hash__(self):
        return self._hash


def capped_chain(length: int, label: str | None = None) -> FiniteQuantale:
    """Chain quantale 0 < 1 < ... < inf with addition truncated at the top."""
    if not isinstance(length, int) or length < 1:
        raise StructureError("chain length must be a positive integer")
    if length == 1:
        names = ["0"]
    else:
        names = [str(i) for i in range(length - 1)] + ["inf"]
    leq = [[i <= j for j in range(length)] for i in range(length)]
    add = [[min(i + j, length - 1) for j in range(length)] for i in range(length)]
    return FiniteQuantale(names, leq, add, label=label or f"chain{length}")


BUILTIN_QUANTALES = {
    "ext_rational": EXT_RATIONAL,
    "Q1": capped_chain(1, label="Q1"),
    "Q2": capped_chain(2, label="Q2"),
    "Q3": capped_chain(3, label="Q3"),
    "chain4": capped_chain(4, label="chain4"),
}


# ---------------------------------------------------------------------------
# value quantale validation


AXIOM_UNIT = "x+0 = x"
AXIOM_APPROX = "x = ⋀{y ≻ x}"
AXIOM_DISTRIB = "x+⋀S = ⋀(x+S)"
AXIOM_POSITIVE_MEET = "a∧b ≻ 0"


def validate_value_quantale(names, leq, add) -> ValidationReport:
    """Exhaustively check the value-quantale axioms on candidate tables.

    Malformed tables raise StructureError; mathematical defects (order not
    a complete lattice, addition laws, the four axioms) are reported as
    failures with one witness each.

    Meet-distributivity x+⋀S = ⋀(x+S) is checked on the empty meet and on
    every pair, which decides it for every subset of a finite lattice, by
    induction on |S|: for S = {s} ∪ R with s not in R,

        x+⋀S = x+(s∧⋀R) = (x+s)∧(x+⋀R) = (x+s)∧⋀(x+R) = ⋀(x+S),

    the second step by the pair case for s and the element ⋀R (trivial
    when they are equal), the third by the hypothesis on R (the empty case
    when R is empty).  Singletons hold trivially and are skipped.
    """
    names, leq_t, add_t = _normalise_tables(names, leq, add)
    n = len(names)
    failures = []

    po = _partial_order_witness(leq_t)
    if po is not None:
        return ValidationReport(
            "value-quantale", (CheckFailure("partial-order", _fmt_witness(names, po)),)
        )
    try:
        q = FiniteQuantale(names, leq_t, add_t)
    except StructureError:
        try:
            _lattice_tables(leq_t)
        except _LatticeProblem as exc:
            w = _fmt_witness(names, exc.witness)
            return ValidationReport(
                "value-quantale", (CheckFailure("complete-lattice", w),)
            )
        raise

    def fmt(e):
        return names[e]

    def first_failure(check, witness):
        if all(f.check != check for f in failures):
            failures.append(CheckFailure(check, witness))

    for a in range(n):
        for b in range(n):
            if add_t[a][b] != add_t[b][a]:
                first_failure("addition-commutative", {"pair": (fmt(a), fmt(b))})
            for c in range(n):
                if add_t[add_t[a][b]][c] != add_t[a][add_t[b][c]]:
                    first_failure(
                        "addition-associative", {"triple": (fmt(a), fmt(b), fmt(c))}
                    )

    for x in range(n):
        if add_t[x][q.bottom] != x:
            first_failure(AXIOM_UNIT, {"x": fmt(x)})

    for x in range(n):
        for y in range(n):
            if leq_t[x][y]:
                for a in range(n):
                    if not leq_t[add_t[x][a]][add_t[y][a]]:
                        first_failure(
                            "addition-monotone",
                            {"x": fmt(x), "y": fmt(y), "a": fmt(a)},
                        )

    subsets = [()] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    for x in range(n):
        for members in subsets:
            lhs = add_t[x][q.meet(members)]
            rhs = q.meet(add_t[x][s] for s in members)
            if lhs != rhs:
                first_failure(
                    AXIOM_DISTRIB,
                    {
                        "x": fmt(x),
                        "S": tuple(fmt(s) for s in members),
                        "lhs": fmt(lhs),
                        "rhs": fmt(rhs),
                    },
                )
                break

    for x in range(n):
        above = [y for y in range(n) if q.well_above(y, x)]
        if q.meet(above) != x:
            first_failure(
                AXIOM_APPROX, {"x": fmt(x), "meet": fmt(q.meet(above))}
            )

    for a in q.positives:
        for b in q.positives:
            if not q.well_above(q.meet([a, b]), q.bottom):
                first_failure(AXIOM_POSITIVE_MEET, {"a": fmt(a), "b": fmt(b)})

    return ValidationReport("value-quantale", tuple(failures))


def _fmt_witness(names, value):
    """`value` with each table index named, through tuples and dict values."""
    if isinstance(value, dict):
        return {k: _fmt_witness(names, v) for k, v in value.items()}
    if isinstance(value, int) and 0 <= value < len(names):
        return names[value]
    if isinstance(value, tuple):
        return tuple(_fmt_witness(names, v) for v in value)
    return value

