"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.  Tolerances are exact (all arithmetic is exact);
time budgets follow the stated limits.
"""

import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    FiniteQuantale,
    InstanceGenerator,
    capped_chain,
    complete,
    extend_to_completion,
    has_uniformly_vanishing_asymmetry,
    oracle_epsilon_reduction,
    oracle_filters,
    run_theorem_suite,
    validate_value_quantale,
)
from qc.cli import main
from qc.verify import PREDICATE_IDS, THEOREM_CHECKS, definitional_extension, q1_census

from helpers import generated, subset_well_above


@contextmanager
def criterion(number, description, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"acceptance {number:2d} FAIL: {description}")
        raise
    elapsed = time.monotonic() - start
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s > {budget}s"
    print(f"acceptance {number:2d} PASS: {description} ({elapsed:.1f}s)")


def test_criterion_1_quantale_axioms(diamond_tables):
    with criterion(1, "quantale axiom validation accepts chains, rejects diamond", 1.0):
        for name in ("Q1", "Q3", "chain4"):
            q = BUILTIN_QUANTALES[name]
            assert validate_value_quantale(q.names, q._leq, q._add).ok
        names, leq, join = diamond_tables
        report = validate_value_quantale(names, leq, join)
        assert not report.ok
        assert report.failed_checks() == ("a∧b ≻ 0",)


def _lattice_from_covers(n, covers):
    leq = [[i == j for j in range(n)] for i in range(n)]
    for lo, hi in covers:
        leq[lo][hi] = True
    for k in range(n):
        for i in range(n):
            if leq[i][k]:
                for j in range(n):
                    if leq[k][j]:
                        leq[i][j] = True
    return leq


_LATTICE_BASES = [
    (1, []),
    (2, [(0, 1)]),
    (3, [(0, 1), (1, 2)]),
    (4, [(0, 1), (1, 2), (2, 3)]),
    (4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    (5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    (5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
    (5, [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)]),
    (5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]),
    (5, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]),
]


def _permute(leq, perm):
    n = len(leq)
    out = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = leq[i][j]
    return out


def lattice_corpus():
    """Every isomorphism class of lattices with at most 5 elements, each
    under several labelings; at least 20 table presentations in total."""
    corpus = []
    for n, covers in _LATTICE_BASES:
        base = _lattice_from_covers(n, covers)
        perms = [tuple(range(n))]
        if n >= 2:
            perms.append(tuple(reversed(range(n))))
        if n >= 3:
            perms.append(tuple((i + 1) % n for i in range(n)))
        for perm in perms:
            corpus.append(_permute(base, perm))
    return corpus


def test_criterion_2_well_above_closed_form():
    with criterion(2, "closed-form well-above matches the 2^|V| subset oracle", 10.0):
        corpus = lattice_corpus()
        assert len(corpus) >= 20
        for leq in corpus:
            n = len(leq)
            names = [f"e{i}" for i in range(n)]
            trivial_add = [[0] * n for _ in range(n)]
            q = FiniteQuantale(names, leq, trivial_add)
            for a in range(n):
                for b in range(n):
                    assert q.well_above(a, b) == subset_well_above(
                        leq, trivial_add, a, b
                    ), (leq, a, b)


def test_criterion_3_filter_collapse_oracles():
    with criterion(3, "family-level filter oracles pass at n = 1, 2, 3", 30.0):
        for n in (1, 2, 3):
            report = oracle_filters(n)
            assert report.ok, report.failures
            assert report.passes == report.instances


def test_criterion_4_epsilon_reduction():
    with criterion(4, "test-set evaluation equals 1000-sample dense evaluation"):
        gen = InstanceGenerator(seed=20240810, max_points=5)
        spaces = [space for _, space in generated(gen, 50)]
        for space in spaces:
            for predicate in PREDICATE_IDS:
                report = oracle_epsilon_reduction(space, predicate, samples=1000, seed=6)
                assert report.ok, (predicate, report.failures)


THEOREM_IDS = (
    "filters.cauchy_round_implies_minimal",
    "filters.roundify_preserves_cauchy",
    "filters.roundify_round_iff_uva",
    "filters.minimal_iff_cauchy_round",
    "filters.point_filters_coincide_under_va",
    "filters.cauchy_iff_op_cauchy_under_uva",
    "completion.cauchy_space_is_uva_vspace",
    "completion.minimal_space_isometric_to_quotient",
    "completion.embedding_isometry_iff_uva",
    "completion.embedding_dense",
    "completion.completion_is_cauchy_complete",
    "completion.completion_separated_uva",
)


def test_criterion_5_theorem_suite():
    with criterion(5, "theorem suite: 200 UVA rational + 100 chain instances", 300.0):
        ext = InstanceGenerator(seed=20240810, force_uva=True, max_points=5)
        q3 = InstanceGenerator(
            seed=20240810, quantale=BUILTIN_QUANTALES["Q3"], force_uva=True, max_points=5
        )
        for gen, count in ((ext, 200), (q3, 100)):
            reports = {r.id: r for r in run_theorem_suite(gen.contexts(count))}
            for theorem in THEOREM_IDS:
                report = reports[theorem]
                assert report.instances == count, theorem
                assert not report.failures, (theorem, report.failures[:1])
            for report in reports.values():
                assert not report.failures, (report.id, report.failures[:1])


def test_criterion_6_universal_property():
    with criterion(6, "universal property with enumerated uniqueness on 50 pairs"):
        # the sources are not quotiented: 42 of the 50 are not separated
        src_gen = InstanceGenerator(seed=77, force_uva=True, max_points=4)
        tgt_gen = InstanceGenerator(
            seed=78, force_uva=True, force_separated=True, max_points=4
        )
        import random
        from itertools import product

        from qc import classify, is_uniformly_continuous

        def uc_maps(source, target):
            for values in product(target.points, repeat=source.size):
                fmap = dict(zip(source.points, values))
                if is_uniformly_continuous(fmap, source, target):
                    yield fmap

        pairs = list(zip(generated(src_gen, 50), generated(tgt_gen, 50)))
        for (child, source), (_, target_base) in pairs:
            target = complete(target_base).space
            assert target.size <= 4
            rng = random.Random(child)
            candidates = list(uc_maps(source, target))
            fmap = candidates[rng.randrange(len(candidates))]
            comp = complete(source)
            result = extend_to_completion(fmap, comp, target)
            assert result.mapping == definitional_extension(fmap, comp, target)
            # the one uniformly continuous map restricting to fmap, found by
            # enumerating every map from the completion into the target
            restricting = [
                ext for ext in uc_maps(comp.space, target)
                if all(ext[comp.space.points[comp.embedding[p]]] == fmap[p]
                       for p in source.points)
            ]
            assert restricting == [result.mapping]
        assert sum(classify(source)["separated"] for (_, source), _ in pairs) == 8


EQUIVALENCE_IDS = (
    "structures.va_conditions_agree",
    "structures.uva_conditions_agree",
    "structures.uva_implies_va",
    "structures.finite_model_collapse_zero_pattern",
)


def test_criterion_7_equivalence_lists():
    with criterion(7, "asymmetry equivalence lists agree; finite collapse holds"):
        gen = InstanceGenerator(seed=20240810, max_points=5)
        count = 100
        reports = {r.id: r for r in run_theorem_suite(gen.contexts(count))}
        for check_id in EQUIVALENCE_IDS:
            report = reports[check_id]
            assert report.instances == count
            assert not report.failures, (check_id, report.failures[:1])


def test_criterion_8_category_laws():
    with criterion(8, "filter-morphism identity and composition laws over 50 seeds"):
        ids = ("filters.identity_morphism", "filters.morphism_composition")
        checks = tuple(c for c in THEOREM_CHECKS if c.id in ids)
        gen = InstanceGenerator(seed=20240810, max_points=3)
        reports = run_theorem_suite(gen.contexts(50), checks=checks)
        assert [r.id for r in reports] == list(ids)
        for report in reports:
            assert report.instances == 50
            assert not report.failures, (report.id, report.failures[:1])


def test_criterion_9_degenerate_quantale():
    with criterion(9, "degenerate one-point quantale: UVA, single-point completions"):
        # the whole Q1 census on 1 to 6 points: one space per carrier size
        count = 6
        reports = {r.id: r for r in run_theorem_suite(q1_census(count))}
        for check_id in (
            "degenerate.uva_everywhere",
            "degenerate.all_filters_cauchy",
            "degenerate.completion_single_point",
        ):
            report = reports[check_id]
            assert report.instances == count
            assert not report.failures
        for report in reports.values():
            assert not report.failures, (report.id, report.failures[:1])


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "verify --suite all --seed 42 is byte-identical"):
        paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for path in paths:
            code = main(
                [
                    "--format",
                    "structured",
                    "--output",
                    str(path),
                    "verify",
                    "--suite",
                    "all",
                    "--seed",
                    "42",
                    "--instances",
                    "8",
                ]
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
