"""Finite continuity spaces: a carrier plus a quantale-valued distance matrix.

Point subsets are bitmasks internally; the public API speaks point names
and frozensets.  Quantified definitions (vanishing asymmetry, uniform
continuity, moduli) are decided over a finite epsilon test set: for finite
quantales the full set of elements well above 0, and for the extended
rationals one representative per threshold cell of the space's distance
values.  The sufficiency of that reduction is not assumed here; the verify
module re-checks it against dense random sampling.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import DomainMismatchError, InvariantError, PreconditionError, StructureError
from .quantale import INF, ValueQuantale, QuantaleMorphism, validate_quantale_morphism
from .reporting import CheckFailure, ValidationReport, Verdict


class VSpace:
    """Finite carrier with distances in a value quantale.

    Construction checks shapes and element membership only; use
    `validate_vspace` for the zero-diagonal and triangle laws.
    """

    def __init__(self, quantale: ValueQuantale, points, distances):
        if not isinstance(quantale, ValueQuantale):
            raise StructureError(f"not a quantale: {quantale!r}")
        points = tuple(str(p) for p in points)
        if len(set(points)) != len(points) or any(not p for p in points):
            raise StructureError("point names must be unique and non-empty")
        n = len(points)
        distances = tuple(tuple(row) for row in distances)
        if len(distances) != n or any(len(row) != n for row in distances):
            raise StructureError(f"distance matrix must be {n}x{n}")
        self.quantale = quantale
        self.points = points
        self.dmat = tuple(
            tuple(quantale.check(e) for e in row) for row in distances
        )
        self._pindex = {p: i for i, p in enumerate(points)}
        self._ball_cache: dict = {}

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, point) -> int:
        try:
            return self._pindex[point]
        except (KeyError, TypeError):
            raise StructureError(f"unknown point {point!r}") from None

    def d(self, x, y):
        return self.dmat[self.index(x)][self.index(y)]

    def _d(self, i: int, j: int):
        return self.dmat[i][j]

    def mask(self, names) -> int:
        m = 0
        for p in names:
            m |= 1 << self.index(p)
        return m

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.points) if mask >> i & 1)

    def _ball(self, i: int, eps, forward: bool) -> int:
        key = (forward, i, eps)
        m = self._ball_cache.get(key)
        if m is None:
            q = self.quantale
            m = 0
            for j in range(self.size):
                dd = self.dmat[i][j] if forward else self.dmat[j][i]
                if q.leq(dd, eps):
                    m |= 1 << j
            self._ball_cache[key] = m
        return m

    @cached_property
    def zero_fwd(self) -> tuple[int, ...]:
        """Per point, the mask of points at outgoing distance 0."""
        bot = self.quantale.bottom
        out = []
        for i in range(self.size):
            m = 0
            for j in range(self.size):
                if self.dmat[i][j] == bot:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    @cached_property
    def zero_bwd(self) -> tuple[int, ...]:
        bot = self.quantale.bottom
        out = []
        for i in range(self.size):
            m = 0
            for j in range(self.size):
                if self.dmat[j][i] == bot:
                    m |= 1 << j
            out.append(m)
        return tuple(out)

    @cached_property
    def test_values(self) -> tuple:
        return combined_test_values(self)

    def dual(self) -> "VSpace":
        return VSpace(
            self.quantale,
            self.points,
            tuple(
                tuple(self.dmat[j][i] for j in range(self.size))
                for i in range(self.size)
            ),
        )

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, VSpace)
            and self.quantale == other.quantale
            and self.points == other.points
            and self.dmat == other.dmat
        )

    @cached_property
    def _hash(self):
        return hash((self.quantale, self.points, self.dmat))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"<VSpace {list(self.points)} over {self.quantale.label}>"


def combined_test_values(*spaces: VSpace) -> tuple:
    """Epsilon candidates sufficient for the quantified predicates.

    Finite quantales: every element well above 0.  Extended rationals: half
    the least positive distance, every positive distance value of the given
    spaces, and infinity; the representative below the positives is 1 when
    there are no finite positive distances.
    """
    q = spaces[0].quantale
    for s in spaces[1:]:
        if s.quantale != q:
            raise DomainMismatchError("spaces live over different quantales")
    if q.is_finite:
        return q.positives
    values = set()
    for s in spaces:
        for row in s.dmat:
            for e in row:
                if e != Fraction(0):
                    values.add(e)
    finite = sorted(v for v in values if v != INF)
    below = Fraction(1) if not finite else finite[0] / 2
    return tuple([below] + finite + [INF])


def validate_vspace(space: VSpace) -> ValidationReport:
    """Report zero-diagonal and triangle violations with witnesses."""
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
    q = space.quantale
    si = [space.index(p) for p in source]
    ti = [space.index(p) for p in target]
    return q.meet(space.dmat[i][j] for i in si for j in ti)


def _set_distance_masks(space: VSpace, smask: int, tmask: int):
    q = space.quantale
    return q.meet(
        space.dmat[i][j]
        for i in range(space.size)
        if smask >> i & 1
        for j in range(space.size)
        if tmask >> j & 1
    )


def classify(space: VSpace) -> dict:
    """Symmetry and separation of the distance matrix."""
    q = space.quantale
    symmetric = all(
        space.dmat[i][j] == space.dmat[j][i]
        for i in range(space.size)
        for j in range(space.size)
    )
    separated = True
    for i in range(space.size):
        for j in range(space.size):
            if i != j and space.dmat[i][j] == q.bottom and space.dmat[j][i] == q.bottom:
                separated = False
    return {"symmetric": symmetric, "separated": separated}


def separation_quotient(space: VSpace) -> tuple[VSpace, dict]:
    """Collapse mutually zero-distance points.

    Returns the quotient space and the projection point -> class name,
    where a class is named after its first member in carrier order.  The
    induced distance is checked for representative independence.
    """
    q = space.quantale
    n = space.size
    rep = list(range(n))
    for i in range(n):
        for j in range(i):
            if (
                space.dmat[i][j] == q.bottom
                and space.dmat[j][i] == q.bottom
                and rep[i] == i
            ):
                rep[i] = rep[j]
    reps = sorted(set(rep))
    classes = {r: [i for i in range(n) if rep[i] == r] for r in reps}
    dmat = [
        [space.dmat[r][s] for s in reps]
        for r in reps
    ]
    for a, r in enumerate(reps):
        for b, s in enumerate(reps):
            for i in classes[r]:
                for j in classes[s]:
                    if space.dmat[i][j] != dmat[a][b]:
                        raise InvariantError(
                            "quotient distance is not representative independent; "
                            "the input space violates the triangle law"
                        )
    out = VSpace(q, [space.points[r] for r in reps], dmat)
    projection = {space.points[i]: space.points[rep[i]] for i in range(n)}
    if not classify(out)["separated"]:
        raise InvariantError("separation quotient failed to separate")
    return out, projection


# ---------------------------------------------------------------------------
# quantified predicates over explicit candidate value lists


def _uniform_flip_ok(space: VSpace, delta, eps):
    """d(y,x) <= delta implies d(x,y) <= eps for all pairs; None or witness."""
    q = space.quantale
    for i in range(space.size):
        for j in range(space.size):
            if q.leq(space.dmat[j][i], delta) and not q.leq(space.dmat[i][j], eps):
                return (space.points[i], space.points[j])
    return None


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


def _pointwise_modulus_ok(space: VSpace, i: int, delta, eps) -> bool:
    fwd_e = space._ball(i, eps, True)
    bwd_e = space._ball(i, eps, False)
    fwd_d = space._ball(i, delta, True)
    bwd_d = space._ball(i, delta, False)
    return (bwd_d | fwd_e) == fwd_e and (fwd_d | bwd_e) == bwd_e


def _has_va_over(space: VSpace, eps_values, delta_values) -> Verdict:
    q = space.quantale
    for i in range(space.size):
        for eps in eps_values:
            if not any(
                _pointwise_modulus_ok(space, i, delta, eps) for delta in delta_values
            ):
                return Verdict(
                    False, {"point": space.points[i], "epsilon": q.format(eps)}
                )
    return Verdict(True)


def has_uniformly_vanishing_asymmetry(space: VSpace) -> Verdict:
    tv = space.test_values
    return _has_uva_over(space, tv, tv)


def has_vanishing_asymmetry(space: VSpace) -> Verdict:
    tv = space.test_values
    return _has_va_over(space, tv, tv)


def symmetry_modulus(space: VSpace, eps, mode: str = "uniform", point=None):
    """Largest admissible delta from the test set, or None when absent."""
    q = space.quantale
    eps = q.check(eps)
    if not q.well_above(eps, q.bottom):
        raise PreconditionError(f"{q.format(eps)} is not well above 0")
    candidates = sorted(space.test_values, key=q.sort_key, reverse=True)
    if mode == "uniform":
        for delta in candidates:
            if _uniform_flip_ok(space, delta, eps) is None:
                return delta
        return None
    if mode == "pointwise":
        i = space.index(point)
        for delta in candidates:
            if _pointwise_modulus_ok(space, i, delta, eps):
                return delta
        return None
    raise ValueError(f"mode must be 'uniform' or 'pointwise', got {mode!r}")


def _as_index_map(fmap, source: VSpace, target: VSpace) -> tuple[int, ...]:
    out = []
    for p in source.points:
        if p not in fmap:
            raise StructureError(f"map is not total: missing point {p!r}")
        out.append(target.index(fmap[p]))
    return tuple(out)


def _uc_violation(fidx, source: VSpace, target: VSpace, delta, eps):
    """A pair within delta whose image is not within eps; None or witness."""
    qs, qt = source.quantale, target.quantale
    for i in range(source.size):
        for j in range(source.size):
            if qs.leq(source.dmat[i][j], delta) and not qt.leq(
                target.dmat[fidx[i]][fidx[j]], eps
            ):
                return (source.points[i], source.points[j])
    return None


def _uc_over(fidx, source: VSpace, target: VSpace, eps_values, delta_values) -> Verdict:
    for eps in eps_values:
        if not any(
            _uc_violation(fidx, source, target, delta, eps) is None
            for delta in delta_values
        ):
            witness = {"epsilon": target.quantale.format(eps)}
            bad = (
                _uc_violation(fidx, source, target, delta_values[0], eps)
                if delta_values
                else None
            )
            if bad is not None:
                witness["pair"] = bad
            return Verdict(False, witness)
    return Verdict(True)


def is_uniformly_continuous(fmap: dict, source: VSpace, target: VSpace) -> Verdict:
    """For every eps above 0 some delta bounds image distances by eps."""
    if source.quantale != target.quantale:
        raise DomainMismatchError("uniform continuity needs a shared quantale")
    fidx = _as_index_map(fmap, source, target)
    tv = combined_test_values(source, target)
    return _uc_over(fidx, source, target, tv, tv)


def pushforward(morphism: QuantaleMorphism, space: VSpace) -> VSpace:
    """Apply a quantale morphism entrywise; the result is re-validated."""
    report = validate_quantale_morphism(morphism)
    if not report.ok:
        raise PreconditionError(
            f"morphism is invalid: {', '.join(report.failed_checks())}"
        )
    if morphism.source != space.quantale:
        raise DomainMismatchError("space is not over the morphism's source quantale")
    out = VSpace(
        morphism.target,
        space.points,
        [[morphism(e) for e in row] for row in space.dmat],
    )
    check = validate_vspace(out)
    if not check.ok:
        raise InvariantError(
            f"pushforward broke the space laws: {check.failures[0]}"
        )
    return out
