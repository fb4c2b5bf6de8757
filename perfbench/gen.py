"""Seeded input generators for the benchmark workloads.

The generators are benchmark-owned: they do not use `qc.verify`'s
instance generator or `triangle_repair`, so later changes to those leave
the benchmark inputs unchanged.  Every space is built from a *skeleton*: a
few sites with a random directed quasi-metric (see `make_case`), each
site expanded into a cluster of points at mutual distance zero.
Optional one-way zero edges between sites make the zero pattern
asymmetric, which removes (uniformly) vanishing asymmetry.

Because the structure is known by construction, every expected answer the
benchmark checks is a closed form of the skeleton:

* the space is valid, symmetric iff the skeleton is, separated iff every
  cluster is a single point;
* vanishing and uniformly vanishing asymmetry both hold iff the zero
  pattern is symmetric, i.e. there are no one-way zero edges (the least
  test value lies below every positive distance);
* both quasi-uniformity cores are the zero relation, forward and reversed;
* the minimal Cauchy filters of a UVA space are its clusters, the filter
  distance between two of them is the skeleton distance between their
  sites, and each point embeds into its own cluster; the space has
  sum(2^|cluster| - 1) proper Cauchy filters.

Distances are `Fraction`s (ext_rational) or chain indices (chain4);
`INF` stands for the top element in both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

INF = None  # top element of either quantale
CHAIN4_NAMES = ("0", "1", "2", "inf")
CHAIN4_TOP = 3
# quotient check in qc.completion switches from the explicit quotient to a
# linear certificate past this many proper Cauchy filters
EXPLICIT_QUOTIENT_LIMIT = 256


@dataclass(frozen=True)
class SpaceCase:
    """One generated space with the answers the benchmark expects."""

    label: str
    quantale: str  # "ext_rational" or "chain4"
    points: tuple
    site_of: tuple  # point index -> site index
    skeleton: tuple  # site x site distances: Fraction, chain index or INF
    one_way_zeros: int

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def clusters(self) -> tuple:
        out = {}
        for p, s in zip(self.points, self.site_of):
            out.setdefault(s, []).append(p)
        return tuple(frozenset(out[s]) for s in sorted(out))

    @property
    def cauchy_filters(self) -> int:
        return sum(2 ** len(c) - 1 for c in self.clusters)

    @property
    def uva(self) -> bool:
        return self.one_way_zeros == 0

    def dist(self, i: int, j: int):
        return self.skeleton[self.site_of[i]][self.site_of[j]]

    def fmt(self, value) -> str:
        if value is INF:
            return "inf"
        if self.quantale == "chain4":
            return CHAIN4_NAMES[value]
        return str(value)

    def payload(self) -> dict:
        n = self.size
        return {
            "quantale": self.quantale,
            "points": list(self.points),
            "d": [[self.fmt(self.dist(i, j)) for j in range(n)] for i in range(n)],
        }

    def symmetric(self) -> bool:
        k = len(self.skeleton)
        return all(
            self.skeleton[a][b] == self.skeleton[b][a] for a in range(k) for b in range(a)
        )

    def expected_classification(self) -> dict:
        """Answers for classify-large, from the construction alone."""
        n = self.size
        zero = [[self.dist(i, j) == 0 for j in range(n)] for i in range(n)]
        return {
            "valid": True,
            "symmetric": self.symmetric(),
            "separated": all(len(c) == 1 for c in self.clusters),
            "va": self.uva,
            "uva": self.uva,
            "forward_core": zero,
            "backward_core": [[zero[j][i] for j in range(n)] for i in range(n)],
        }

    def expected_completion(self) -> dict:
        """Answers for complete-mixed: cores, their distances, the embedding.

        Cores are sorted point-name lists, one per site; distances and the
        embedding refer to cores by position in that list.
        """
        sites = sorted(set(self.site_of))
        return {
            "cores": [sorted(p for p, t in zip(self.points, self.site_of) if t == s)
                      for s in sites],
            "distance": [[a, b, self.fmt(self.skeleton[sa][sb])]
                         for a, sa in enumerate(sites) for b, sb in enumerate(sites)],
            "embedding": {p: sites.index(s) for p, s in zip(self.points, self.site_of)},
        }


def _add(quantale: str, a, b):
    if a is INF or b is INF:
        return INF
    if quantale == "chain4":
        return INF if a + b >= CHAIN4_TOP else a + b
    return a + b


def _less(a, b) -> bool:
    if a is INF:
        return False
    return b is INF or a < b


def _shortest_paths(quantale: str, w: list) -> list:
    k = len(w)
    d = [row[:] for row in w]
    for m in range(k):
        for a in range(k):
            for b in range(k):
                via = _add(quantale, d[a][m], d[m][b])
                if _less(via, d[a][b]):
                    d[a][b] = via
    return d


def _draw_distance(rng: random.Random, quantale: str):
    # every positive finite distance lies in [2, 4] (ext_rational) or in
    # {1, 2} (chain4), so any two-step path is at least as long as any
    # direct distance: the triangle law holds without repair, and the
    # number of distinct values (the epsilon test set) barely depends on
    # the seed
    if quantale == "chain4":
        return rng.choice((1, 2))
    return Fraction(rng.randint(8, 16), 4)


def make_case(rng: random.Random, label: str, cluster_sizes, *, quantale="ext_rational",
              symmetric=False, one_way_zeros=0) -> SpaceCase:
    """A space whose sites carry `cluster_sizes` points each.

    Distances from the first quarter of the sites to the rest are
    infinite (both ways when symmetric), which keeps the triangle law and
    fixes the share of infinite entries.  One-way zero edges join two sites
    on the same side of that split, from lower to higher index, so they
    never close a zero cycle and the clusters stay exactly as requested;
    shortest paths then lower the entries the triangle law needs lowered,
    to values already present.
    """
    k = len(cluster_sizes)
    group = [int(a >= k // 4) for a in range(k)]
    w = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            w[a][b] = _draw_distance(rng, quantale)
            w[b][a] = w[a][b] if symmetric else _draw_distance(rng, quantale)
            if group[a] != group[b]:
                lo, hi = (a, b) if group[a] < group[b] else (b, a)
                w[lo][hi] = INF
                if symmetric:
                    w[hi][lo] = INF
    zero_pairs = [(a, b) for a in range(k) for b in range(a + 1, k) if group[a] == group[b]]
    zero_pairs = rng.sample(zero_pairs, min(one_way_zeros, len(zero_pairs)))
    for a, b in zero_pairs:
        w[a][b] = 0
    skeleton = _shortest_paths(quantale, w)
    site_of = [s for s, c in enumerate(cluster_sizes) for _ in range(c)]
    rng.shuffle(site_of)
    points = tuple(f"x{i}" for i in range(len(site_of)))
    return SpaceCase(label, quantale, points, tuple(site_of),
                     tuple(tuple(row) for row in skeleton), len(zero_pairs))


# --- complete-mixed ---------------------------------------------------------
#
# One pass of the mix: (label, cluster sizes); the carrier size is their
# sum.  Completion cost is set by the carrier size (2^n cores are
# enumerated) and by the proper-Cauchy-filter count, which decides whether
# the quotient check builds the explicit filter-distance matrix (count <=
# 256, quadratic in the count) or uses the linear certificate (> 256).  The
# costliest explicit case (an 8-point cluster, 255 filters, about 4.7 s) is
# left out so that no single operation dominates a pass; the 7-point
# cluster stands for that side of the limit.  Shapes are fixed and only
# distances and point order follow the seed, so a pass costs about the
# same for every seed.  The cost of spaces with small clusters depends on
# their distances, so a percentile that fell among them would land on a
# different space for each seed.  Instead, nine separated 9-point spaces,
# whose cost hardly depends on the distances, hold the middle of the mix,
# with 22 spaces costing less and 22 more (extra separated 6- and 7-point
# spaces make the two sides even); and the 90th percentile lies among the
# six 8-point spaces with a 6-point cluster, which also cost about the
# same.  So neither percentile falls on a step between two very different
# operations.
COMPLETE_MIX = (
    *(("separated", (1,) * n) for n in (6,) * 5 + (7,) * 5 + (8, 10)),
    *(("separated", (1,) * 9) for _ in range(9)),
    ("small-clusters", (2, 2, 1, 1)),
    ("small-clusters", (3, 2, 1)),
    ("small-clusters", (2, 1, 1, 1, 1)),
    ("small-clusters", (3, 2, 2)),
    ("small-clusters", (2, 2, 1, 1, 1)),
    ("small-clusters", (3, 1, 1, 1, 1)),
    ("small-clusters", (2, 2, 2, 2)),
    ("small-clusters", (3, 3, 2)),
    ("small-clusters", (3, 2, 1, 1, 1)),
    ("small-clusters", (2, 2, 2, 1, 1)),
    ("small-clusters", (3, 3, 3)),
    ("small-clusters", (3, 2, 2, 2)),
    ("small-clusters", (2, 2, 2, 1, 1, 1)),
    ("small-clusters", (3, 2, 1, 1, 1, 1)),
    ("small-clusters", (3, 3, 2, 2)),
    ("small-clusters", (2, 2, 2, 2, 2)),
    ("small-clusters", (3, 3, 1, 1, 1, 1)),
    ("small-clusters", (3, 3, 3, 2)),
    ("small-clusters", (3, 2, 2, 2, 1, 1)),
    ("small-clusters", (3, 3, 3, 3)),
    ("cluster5-explicit", (5, 1, 1)),
    ("cluster5-explicit", (5, 1, 1, 1)),
    *(("cluster6-explicit", (6, 1, 1)) for _ in range(6)),
    ("cluster7-explicit", (7, 1)),
    ("cluster9-certificate", (9,)),
    ("cluster9-certificate", (9, 1)),
    ("clusters8+2-certificate", (8, 2)),
)


def complete_mixed_inputs(seed: int) -> list[SpaceCase]:
    """One pass of the complete-mixed mix, in a seeded order."""
    rng = random.Random(f"perfbench:complete-mixed:{seed}")
    cases = [make_case(rng, f"{label}-n{sum(shape)}", shape) for label, shape in COMPLETE_MIX]
    rng.shuffle(cases)
    return cases


# --- classify-large ---------------------------------------------------------
#
# One pass of the mix: (label, quantale, carrier size, sites, symmetric,
# one-way zero edges, copies).  Most spaces are extended-rational; chain4
# runs the finite-table element operations.  The triangle check in
# validate_vspace is cubic in the carrier size and dominates; spaces with
# one-way zero edges lack (U)VA, so the asymmetry predicates stop at their
# first witness, whose position follows the seed.  Nine cheaper spaces
# come first, so the median (the 11th of 21) is the middle of the three
# symmetric 24-point spaces and the 90th percentile (the 19th) the middle
# of the three 64-point chain4 spaces; all six have (U)VA, so their cost
# barely depends on the seed, and neither percentile falls on a step
# between two very different operations.
CLASSIFY_MIX = (
    ("ext-separated", "ext_rational", 16, 16, False, 0, 4),
    ("chain4-clustered", "chain4", 32, 16, False, 0, 2),
    ("chain4-not-uva", "chain4", 32, 16, False, 2, 1),
    ("ext-not-uva", "ext_rational", 20, 10, False, 2, 2),
    ("ext-clustered", "ext_rational", 24, 12, False, 0, 5),
    ("ext-symmetric", "ext_rational", 24, 16, True, 0, 3),
    ("chain4-clustered", "chain4", 64, 32, False, 0, 3),
    ("ext-large", "ext_rational", 40, 20, False, 0, 1),
)


def classify_large_inputs(seed: int) -> list[SpaceCase]:
    """One pass of the classify-large mix, in a seeded order."""
    rng = random.Random(f"perfbench:classify-large:{seed}")
    cases = []
    for label, quantale, n, sites, symmetric, one_way, copies in CLASSIFY_MIX:
        # equal clusters: the share of infinite entries, and with it the
        # share of cheap additions, stays the same for every seed
        sizes = [n // sites + (i < n % sites) for i in range(sites)]
        for _ in range(copies):
            cases.append(make_case(rng, f"{label}-n{n}", sizes, quantale=quantale,
                                   symmetric=symmetric, one_way_zeros=one_way))
    rng.shuffle(cases)
    return cases


# --- verify-cli ---------------------------------------------------------------


# `qc verify --seed` values timed by verify-cli.  One verify seed's run
# takes up to 30% more or less time than another's, so a run drawing its
# own verify seeds would mostly measure the draw; these three were picked
# from twelve screened seeds (42 among them) because their runs cost the
# same within about 5%.  The pool is the same for every benchmark seed,
# which orders it.
VERIFY_POOL = (99, 1000, 31337)


def verify_seeds(seed: int) -> list[int]:
    order = list(VERIFY_POOL)
    random.Random(f"perfbench:verify-cli:{seed}").shuffle(order)
    return order
