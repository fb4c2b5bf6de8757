"""Independent oracles used by the tests.

Everything here works from raw data (distance matrices, order tables,
plain fractions) without going through the library predicates under test,
so a test can compare a fast library answer against a first-principles
computation.
"""

import random
from itertools import product
from math import lcm

from qc import INF
from qc.verify import _generate_space


def leq_ext(a, b) -> bool:
    if isinstance(b, type(INF)):
        return True
    if isinstance(a, type(INF)):
        return False
    return a <= b


def ball_raw(points, dmat, x, eps, forward=True) -> frozenset:
    """Ball computed straight from the matrix."""
    i = points.index(x)
    out = set()
    for j, p in enumerate(points):
        d = dmat[i][j] if forward else dmat[j][i]
        if leq_ext(d, eps):
            out.add(p)
    return frozenset(out)


def triangle_holds(dmat) -> bool:
    n = len(dmat)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                lhs = dmat[i][k]
                s = (
                    INF
                    if isinstance(dmat[i][j], type(INF)) or isinstance(dmat[j][k], type(INF))
                    else dmat[i][j] + dmat[j][k]
                )
                if not leq_ext(lhs, s):
                    return False
    return True


def finite_meet(leq, members, top) -> int:
    """Greatest lower bound by scanning the order table."""
    n = len(leq)
    lower = [k for k in range(n) if all(leq[k][m] for m in members)]
    glb = [k for k in lower if all(leq[x][k] for x in lower)]
    assert len(glb) == 1, f"no unique glb for {members}"
    return glb[0] if members else top


def subset_well_above(leq, add, a, b) -> bool:
    """Definitional well-above: quantify over all 2^n subsets."""
    n = len(leq)
    tops = [t for t in range(n) if all(leq[x][t] for x in range(n))]
    top = tops[0]
    for smask in range(1 << n):
        members = [s for s in range(n) if smask >> s & 1]
        m = finite_meet(leq, members, top) if members else top
        if leq[m][b]:
            if not any(leq[s][a] for s in members):
                return False
    return True


def saturating_add(leq):
    """pinched's addition on any lattice: 0 is the unit, other sums are the top."""
    n = len(leq)
    bot = next(b for b in range(n) if all(leq[b]))
    top = next(t for t in range(n) if all(row[t] for row in leq))
    return [[j if i == bot else i if j == bot else top for j in range(n)] for i in range(n)]


def subset_distributive(leq, add) -> bool:
    """Definitional meet-distributivity: x+meet(S) = meet(x+S) on all 2^n S."""
    n = len(leq)
    top = next(t for t in range(n) if all(leq[x][t] for x in range(n)))
    for smask in range(1 << n):
        members = [s for s in range(n) if smask >> s & 1]
        m = finite_meet(leq, members, top)
        for x in range(n):
            if add[x][m] != finite_meet(leq, [add[x][s] for s in members], top):
                return False
    return True


def generated(gen, count):
    """`(child seed, space)` for the first `count` spaces of the generator
    `gen`'s stream, each drawn from a `random.Random` of its child seed, as
    `InstanceGenerator.contexts` draws its instances."""
    for child in gen.child_seeds(count):
        yield child, _generate_space(gen, random.Random(child))


def all_maps(src_points, tgt_points):
    for values in product(tgt_points, repeat=len(src_points)):
        yield dict(zip(src_points, values))



def sorted_rank_values(q, checked, budget=128):
    """The rank form's build by sorting elements: `(values, renumber, keys)`.

    The distinct checked elements sorted with `q.sort_key`, the index of
    each entry among them, and their order keys as `(keys, scale, finite)`:
    on the extended rationals value * L with L the lcm of the denominators
    and the sentinel 2 * max + 1 (1 alone) for INF, or None when L has more
    than `budget` bits; on a capped chain the chain positions; None on other
    tables.
    """
    values = tuple(sorted(set(checked), key=q.sort_key))
    rank_of = {v: r for r, v in enumerate(values)}
    renumber = [rank_of[v] for v in checked]
    if q.is_finite:
        chain = q._chain_keys
        keys = None if chain is None else (tuple(chain[v] for v in values), 1, len(values))
        return values, renumber, keys
    finite = len(values) - (bool(values) and values[-1] == INF)
    scale = lcm(*[v.denominator for v in values[:finite]])
    if scale.bit_length() > budget:
        return values, renumber, None
    ks = [v.numerator * (scale // v.denominator) for v in values[:finite]]
    if finite < len(values):
        ks.append(2 * ks[-1] + 1 if ks else 1)
    return values, renumber, (tuple(ks), scale, finite)


def count_checks(build) -> int:
    """The number of `check` calls of the quantales in `qc.quantale` that
    `build()` makes, counted by a profiler."""
    import sys

    import qc.quantale

    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "check" and code.co_filename == qc.quantale.__file__:
            calls += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        build()
    finally:
        sys.setprofile(old)
    return calls
