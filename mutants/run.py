"""Mutation gate for the fast kernels and the zero-mask closed forms.

Each mutant is one named source substitution in `src/qc`.  The script
copies `src/qc` to a temporary directory, applies one mutant at a time,
and runs that mutant's tier-1 selection against the copy, one pytest
process after another.  A mutant the selection does not catch survives.

    python3 mutants/run.py

Exit status: 0 when every mutant is caught, 1 when one survives, 2 when a
substitution no longer matches the source exactly once or the selection
fails on the unmutated copy.  A surviving mutant is mended with a
stronger oracle, not by dropping it; a change that adds a fast path adds
its mutants here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
KERNELS = "tests/test_vspace.py::TestCompiledKernels::test_match_definitions"
# the qc verify theorem checks that compare the closed forms with their loops
GATE = "tests/test_acceptance.py::test_criterion_7_equivalence_lists"
TWINS = "tests/test_vspace.py::TestTwinClasses"
ZERO_MASKS = "tests/test_vspace.py::TestRankMatrixForms::test_zero_masks_match_entries"
MANY_VALUES = "tests/test_vspace.py::TestRankMatrixForms::test_masks_past_256_values_match_definitions"
QUOTIENT = "tests/test_vspace.py::TestSeparationQuotient"
SYMMETRY = "tests/test_vspace.py::TestRankMatrixForms::test_symmetry_matches_entries"
LEAST_TEST_VALUE = "tests/test_vspace.py::TestRankMatrixForms::test_least_test_value_matches_combined"
BUILD = "tests/test_vspace.py::TestBuildPath"
ONE_PASS = "tests/test_vspace.py::TestOnePassBuild"
UC_MEMO = "tests/test_verify.py::TestUcMemo"
GENERATOR = "tests/test_verify.py::TestGenerator::test_key_space_matches_value_route"
MORPHISMS = "tests/test_verify.py::TestFilterMorphismChecks"
BUILDER = "tests/test_completion.py::TestFilterSpaceBuilder"
SHARPNESS = "tests/test_verify.py::TestUvaSharpness"
TRIANGLE = "tests/test_vspace.py::TestTriangleKernels"
SUITE = "tests/test_verify.py::TestTheoremSuite::test_uva_run_passes"
EXTENSION = "tests/test_completion.py::TestExtension"
# theorem checks run against a planted fault in the library result they check
DENSE = "tests/test_verify.py::TestTheoremSuite::test_embedding_check_catches_a_missed_point"
VA_AGREE = "tests/test_verify.py::TestTheoremSuite::test_va_check_catches_disagreeing_topology_condition"
FILTER_RANGE = "tests/test_records.py::TestFilterRange"
CARRIER = "tests/test_vspace.py::TestCarrierAttributes"
HELD_MEMORY = "tests/test_completion.py::TestRepeatedCompletions"
RADIUS_CACHE = "tests/test_vspace.py::TestRadiusCache"
LANES = "tests/test_verify.py::TestCoreLanes"
MINIMAL = "tests/test_completion.py::TestMinimalFilters"
LITERALS = "tests/test_vspace.py::TestBuildPath::test_literal_fast_path_matches_fraction"
CHECK = "tests/test_quantale.py::TestMeetJoin::test_check_rejects_negatives_by_sign"
TOPOLOGY = "tests/test_structures.py::TestTopologyOracles"
LANE_WIDTH = "tests/test_vspace.py::TestTriangleKernels::test_lane_width_at_one_byte"
RESTRICTED = "tests/test_vspace.py::TestRankMatrixForms::test_restricted_selects_entries"
SHARING = "tests/test_verify.py::TestSuiteSharing"
CORE_ROWS = "tests/test_structures.py::TestQuasiUniformity::test_core_rows_shared_by_mask"
LOOKUPS = "tests/test_vspace.py::TestNameAndBitLookups"
CLOSURE = "tests/test_structures.py::TestTopologyOracles::test_closure_is_the_least_closed_family"
DRAWS = "tests/test_verify.py::TestGenerator::test_draws_match_their_definition"
TOPOLOGY_CLI = "tests/test_cli.py::TestTopologyUniformity"
CENSUS = "tests/test_verify.py::TestTheoremSuite::test_q1_census_has_one_space_per_size"
RAN_ONLY = "tests/test_cli.py::TestVerifyCommand::test_lists_only_checks_that_ran"
MODULI = "tests/test_vspace.py::TestSymmetryModulus"
PROCESS = "tests/test_cli.py::TestProcessEntry"
COLLECTOR = "tests/test_cli.py::TestCollector"
PIN = "tests/test_verify.py::TestGatePin::test_pin_is_the_oracles_answers"
NO_ORACLE = "tests/test_verify.py::TestGatePin::test_verify_runs_no_oracle"
FALLBACK = "tests/test_verify.py::TestGatePin::test_mismatch_runs_the_full_gate"
PROFILE_FAULT = "tests/test_verify.py::TestGatePin::test_profile_mismatch_fails_its_epsilon_report"
PLANTED_FAMILY = "tests/test_verify.py::TestFamilyOracle::test_planted_family_is_named"


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/qc
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant(
        "uva-witness-fwd-bwd-swapped",
        "vspace.py",
        "enumerate(zip(space.zero_bwd, space.zero_fwd))",
        "enumerate(zip(space.zero_fwd, space.zero_bwd))",
        (KERNELS,),
    ),
    Mutant(
        "round-not-strict",
        "filters.py",
        "any(z | core == z != core for z in f.space.zero_fwd)",
        "any(z | core == z for z in f.space.zero_fwd)",
        (KERNELS,),
    ),
    Mutant(
        "cauchy-without-test-values-guard",
        "filters.py",
        "if tv and not any(z | core == z for z in zeros):",
        "if not any(z | core == z for z in zeros):",
        (KERNELS,),
    ),
    Mutant(
        "test-values-accept-positives-without-zero",
        "vspace.py",
        "if q.positives and q.positives[0] != q.bottom:",
        "if False:",
        (KERNELS,),
    ),
    Mutant(
        "point-filter-ignores-side",
        "filters.py",
        "return Filter(space, _zero_masks(space, side)[i])",
        "return Filter(space, space.zero_fwd[i])",
        (GATE,),
    ),
    Mutant(
        "uniform-continuity-backward-images",
        "vspace.py",
        "images = target.zero_fwd",
        "images = target.zero_bwd",
        (GATE,),
    ),
    Mutant(
        "twins-keyed-on-rows-alone",
        "vspace.py",
        "zip(form.rank, form.transpose)",
        "zip(form.rank, form.rank)",
        (TWINS,),
    ),
    Mutant(
        "zero-mask-lanes-reversed",
        "vspace.py",
        "int(row[::-1].translate(table), 2)",
        "int(row.translate(table), 2)",
        (ZERO_MASKS,),
    ),
    Mutant(
        "zero-mask-table-marks-rank-one",
        "vspace.py",
        '_RANK_ZERO_DIGITS = b"1" + b"0" * 255',
        '_RANK_ZERO_DIGITS = b"11" + b"0" * 254',
        (ZERO_MASKS,),
    ),
    Mutant(
        "mask-table-not-reversed",
        "vspace.py",
        'f"{ranks:0256b}"[::-1].encode()',
        'f"{ranks:0256b}".encode()',
        (KERNELS,),
    ),
    Mutant(
        "mask-fallback-selects-rank-zero",
        "vspace.py",
        "for j, r in enumerate(row) if ranks >> r & 1]",
        "for j, r in enumerate(row) if not r]",
        (MANY_VALUES,),
    ),
    Mutant(
        "set-distance-reads-transposed-entry",
        "vspace.py",
        "rows = [form.rank[s] for s in _bits(smask)]",
        "rows = [form.transpose[s] for s in _bits(smask)]",
        (KERNELS,),
    ),
    Mutant(
        "quotient-selects-transposed-entries",
        "vspace.py",
        "[row_of(pick(row)) for row in pick(rank)]",
        "[row_of(pick(row)) for row in pick(tuple(zip(*rank)))]",
        (QUOTIENT,),
    ),
    Mutant(
        "symmetry-compares-rank-with-itself",
        "vspace.py",
        "symmetric = form.rank == form.transpose",
        "symmetric = form.rank == form.rank",
        (SYMMETRY,),
    ),
    Mutant(
        "twin-columns-not-expanded",
        "vspace.py",
        "for t in twins[j]:",
        "for t in [j]:",
        (TWINS,),
    ),
    Mutant(
        "packed-broadcast-not-strict",
        "vspace.py",
        'steps = [(key + 1).to_bytes(width, "little") * c for key in keys]',
        'steps = [key.to_bytes(width, "little") * c for key in keys]',
        (TRIANGLE,),
    ),
    Mutant(
        "packed-lane-one-bit-short",
        "vspace.py",
        "width = (2 * max(keys) + 1).bit_length() // 8 + 1",
        "width = ((2 * max(keys) + 1).bit_length() + 7) // 8",
        (TRIANGLE,),
    ),
    Mutant(
        "packed-k-representative-not-expanded-to-twins",
        "vspace.py",
        "members = [sum([1 << t for t in twins[k]]) for k in reps]",
        "members = [1 << k for k in reps]",
        (TRIANGLE,),
    ),
    Mutant(
        "packed-lane-table-from-ranks-not-keys",
        "vspace.py",
        'lanes = [key.to_bytes(width, "little") for key in keys]',
        'lanes = [key.to_bytes(width, "little") for key in range(len(keys))]',
        (TRIANGLE,),
    ),
    Mutant(
        "class-sum-memo-keyed-on-a-alone",
        "vspace.py",
        "ranks = above.get((a, b))\n"
        "                    if ranks is None:\n"
        "                        s = q.add(values[a], values[b])\n"
        "                        ranks = above[a, b] =",
        "ranks = above.get(a)\n"
        "                    if ranks is None:\n"
        "                        s = q.add(values[a], values[b])\n"
        "                        ranks = above[a] =",
        (TRIANGLE,),
    ),
    Mutant(
        "class-ranks-below-the-sum-taken-as-violations",
        "vspace.py",
        "every & ~q._below_mask(values, s)",
        "every & q._below_mask(values, s)",
        (TRIANGLE,),
    ),
    Mutant(
        "class-points-memo-keyed-without-row",
        "vspace.py",
        "hit = points.get((i, ranks))\n"
        "                    if hit is None:\n"
        "                        hit = points[i, ranks] =",
        "hit = points.get(ranks)\n"
        "                    if hit is None:\n"
        "                        hit = points[ranks] =",
        (TRIANGLE,),
    ),
    Mutant(
        "triangle-dispatch-inverted",
        "vspace.py",
        "    if form.keys is not None:\n        found = _packed_triangle_violations",
        "    if form.keys is None:\n        found = _packed_triangle_violations",
        (TRIANGLE,),
    ),
    Mutant(
        "capped-chain-test-skips-addition-table",
        "quantale.py",
        "self._position if is_chain and capped else None",
        "self._position if is_chain else None",
        (TRIANGLE,),
    ),
    Mutant(
        "packed-unpacking-drops-last-lane",
        "vspace.py",
        "enumerate(flags[t * c:(t + 1) * c])",
        "enumerate(flags[t * c:(t + 1) * c - 1])",
        (TRIANGLE,),
    ),
    Mutant(
        "entry-classes-memo-keyed-on-value-alone",
        "vspace.py",
        "key = (type(e), e)",
        "key = e",
        (BUILD,),
    ),
    Mutant(
        "entry-classes-fast-row-skips-fallback",
        "vspace.py",
        "        except (KeyError, TypeError):\n            pass\n",
        "        except (KeyError, TypeError):\n            continue\n",
        (BUILD,),
    ),
    Mutant(
        "entry-classes-unhashable-row-not-caught",
        "vspace.py",
        "            continue\n        except (KeyError, TypeError):\n",
        "            continue\n        except KeyError:\n",
        (BUILD,),
    ),
    Mutant(
        "entry-classes-text-memo-takes-any-type",
        "vspace.py",
        "if key[0] is str:",
        "if True:",
        (BUILD,),
    ),
    Mutant(
        "literal-p-over-q-loses-denominator",
        "quantale.py",
        "return Fraction(int(num), int(den)) if slash",
        "return Fraction(int(num)) if slash",
        (BUILD,),
    ),
    Mutant(
        "relax-keyed-off-by-one",
        "verify.py",
        "                        cand = a + b\n",
        "                        cand = a + b + 1\n",
        (GENERATOR,),
    ),
    Mutant(
        "generator-uva-skips-re-relaxation",
        "verify.py",
        "            _relax(k, _tables(q))\n",
        "            pass\n",
        (GENERATOR,),
    ),
    Mutant(
        "rank-form-no-merge-of-equal-values",
        "quantale.py",
        "order = sorted(set(ints))",
        "order = sorted(ints)",
        (BUILD, ONE_PASS),
    ),
    Mutant(
        "key-budget-one-bit-short",
        "quantale.py",
        "if scale.bit_length() > _KEY_SCALE_BITS:",
        "if scale.bit_length() >= _KEY_SCALE_BITS:",
        (ONE_PASS,),
    ),
    Mutant(
        "count-below-unbounded",
        "quantale.py",
        "return bisect_right(okeys.keys, key, 0, okeys.finite)",
        "return bisect_right(okeys.keys, key)",
        (KERNELS,),
    ),
    Mutant(
        "inf-sentinel-max-plus-one",
        "quantale.py",
        "order[-1] = 2 * order[finite - 1] + 1 if finite else 1",
        "order[-1] = order[finite - 1] + 1 if finite else 1",
        (KERNELS, ONE_PASS),
    ),
    Mutant(
        "meet-ranks-highest-on-chain",
        "quantale.py",
        "return values[(ranks & -ranks).bit_length() - 1] if ranks else INF",
        "return values[ranks.bit_length() - 1] if ranks else INF",
        ("tests/test_quantale.py::TestMeetJoin",),
    ),
    Mutant(
        "meet-ranks-table-fold-from-bottom",
        "quantale.py",
        "m = self._top\n        while ranks:",
        "m = self._bottom\n        while ranks:",
        ("tests/test_quantale.py::TestMeetJoin",),
    ),
    Mutant(
        "distributivity-skips-pairs-with-last-element",
        "quantale.py",
        "for j in range(i + 1, n)]",
        "for j in range(i + 1, n - 1)]",
        ("tests/test_quantale.py::TestValidateQuantale::test_distributivity_failure_reported",),
    ),
    Mutant(
        "completion-distances-transposed",
        "completion.py",
        "rank, values = base._ranks.rank, base._ranks.values",
        "rank, values = base._ranks.transpose, base._ranks.values",
        ("tests/test_completion.py",),
    ),
    Mutant(
        "filter-space-join-not-meet",
        "completion.py",
        "meets.append(base.quantale._meet_ranks(values, ranks))",
        "meets.append(values[ranks.bit_length() - 1])",
        (BUILDER,),
    ),
    Mutant(
        "dual-of-dual-not-self",
        "vspace.py",
        "op._dual = self",
        "op._dual = op",
        ("tests/test_vspace.py::TestDual",),
    ),
    Mutant(
        "down-lanes-drop-empty-core",
        "verify.py",
        "lanes, sub = 1, mask",
        "lanes, sub = 0, mask",
        (LANES,),
    ),
    Mutant(
        "minimal-lanes-subtract-non-strict-down-closure",
        "verify.py",
        "return cauchy & ~below & ~1",
        "return cauchy & ~(below | cauchy) & ~1",
        (LANES,),
    ),
    Mutant(
        "cauchy-lanes-or-over-radii",
        "verify.py",
        "lanes &= covered",
        "lanes |= covered",
        (LANES,),
    ),
    Mutant(
        "uc-witness-source-test-values",
        "vspace.py",
        "eps = _least_test_value(source, target)",
        "eps = source.test_values[0]",
        (KERNELS,),
    ),
    Mutant(
        "least-test-value-counts-spaces-without-positives",
        "vspace.py",
        "halves = [s.test_values[0] for s in spaces if len(s.test_values) > 2]",
        "halves = [s.test_values[0] for s in spaces]",
        (LEAST_TEST_VALUE,),
    ),
    Mutant(
        "uc-memo-ignores-direction",
        "verify.py",
        "key = (source, target)",
        "key = ()",
        (UC_MEMO,),
    ),
    Mutant(
        "zero-distance-union-marked-unchecked",
        "verify.py",
        "            if union not in passed:\n"
        "                if not is_cauchy(intersect(f, g)):\n"
        "                    return {\"cores\": (f.core, g.core)}\n"
        "                passed.add(union)\n",
        "            passed.add(union)\n"
        "            if union not in passed:\n"
        "                if not is_cauchy(intersect(f, g)):\n"
        "                    return {\"cores\": (f.core, g.core)}\n",
        ("tests/test_verify.py::TestTheoremSuite::test_zero_distance_check_catches_non_cauchy_union",),
    ),
    Mutant(
        "theorem-check-always-fails",
        "verify.py",
        "return None if verdict else verdict.witness",
        "return {\"complete\": bool(verdict)}",
        (SUITE,),
    ),
    Mutant(
        "roundify-witness-core-a",
        "verify.py",
        "    _, b = _non_uva_pair(ctx)\n",
        "    b, _ = _non_uva_pair(ctx)\n",
        (SHARPNESS,),
    ),
    Mutant(
        "isometry-witness-compares-d-a-b",
        "verify.py",
        "== space.dmat[b][a]:",
        "== space.dmat[a][b]:",
        (SHARPNESS,),
    ),
    Mutant(
        "embedding-entry-compared-with-d-y-x",
        "verify.py",
        "if cd[at[i]][at[j]] != space.dmat[i][j]:",
        "if cd[at[i]][at[j]] != space.dmat[j][i]:",
        (SUITE,),
    ),
    Mutant(
        "embedding-onto-skips-last-point",
        "verify.py",
        "for gi in range(len(comp.filters)):",
        "for gi in range(len(comp.filters) - 1):",
        (DENSE,),
    ),
    Mutant(
        "extension-preimage-of-next-point",
        "completion.py",
        "preimage.setdefault(completion.embedding[x], x)",
        "preimage.setdefault((completion.embedding[x] + 1) % completion.space.size, x)",
        (EXTENSION,),
    ),
    Mutant(
        "filter-morphism-containment-flipped",
        "filters.py",
        "if image | target != target:",
        "if image | target != image:",
        (MORPHISMS,),
    ),
    Mutant(
        "va-conditions-skip-topology",
        "verify.py",
        "any(closed[k] != v for k, v in oracles.items())",
        'any(closed[k] != v for k, v in oracles.items() if k != "topologies_equal")',
        (VA_AGREE,),
    ),
    Mutant(
        "minimal-closed-form-drops-larger-zero-mask-test",
        "filters.py",
        "    if above:\n",
        "    if False:\n",
        ("tests/test_filters.py::TestMinimalCauchy",),
    ),
    Mutant(
        "uc-over-images-at-delta",
        "verify.py",
        "_uc_violation(fidx, source, balls, images) is None\n            for balls in near\n",
        "_uc_violation(fidx, source, balls, target._balls(delta, True)) is None\n"
        "            for delta, balls in zip(delta_values, near)\n",
        (UC_MEMO,),
    ),
    Mutant(
        "filter-core-mask-range-one-short",
        "filters.py",
        "if not 0 <= core_mask <= space.full_mask:",
        "if not 0 <= core_mask < space.full_mask:",
        (FILTER_RANGE,),
    ),
    Mutant(
        "points-tuple-from-generator",
        "vspace.py",
        "points = tuple([str(p) for p in points])",
        "points = tuple(str(p) for p in points)",
        (HELD_MEMORY,),
    ),
    Mutant(
        "transpose-tuple-from-generator",
        "vspace.py",
        "self._transpose = tuple([flat[j::n] for j in range(n)])",
        "self._transpose = tuple(flat[j::n] for j in range(n))",
        (HELD_MEMORY,),
    ),
    Mutant(
        "transpose-slice-stride-off-by-one",
        "vspace.py",
        "[flat[j::n] for j in range(n)]",
        "[flat[j::n + 1] for j in range(n)]",
        ("tests/test_vspace.py::TestDual",),
    ),
    Mutant(
        "ball-cache-entry-drops-radius",
        "vspace.py",
        "hit = self._ball_cache[key] = (eps, form.masks(below, forward))",
        "hit = self._ball_cache[key] = (None, form.masks(below, forward))",
        (RADIUS_CACHE,),
    ),
    Mutant(
        "rank-form-skips-check-on-unchecked-entries",
        "vspace.py",
        "if not entries.checked:",
        "if False:",
        (BUILD,),
    ),
    Mutant(
        "preimage-table-of-next-map",
        "verify.py",
        "_preimages(fidx, n)",
        "_preimages(maps[(maps.index(fidx) + 1) % len(maps)], n)",
        ("tests/test_verify.py::TestFamilyOracle", PIN),
    ),
    Mutant(
        "gate-library-side-drops-pair-answers",
        "verify.py",
        "_gate_answers(_library_cores, _collapsed_library, _test_value_profile)",
        "_gate_answers(_library_cores, lambda space: _collapsed_library(space)[:1],\n"
        "                             _test_value_profile)",
        (NO_ORACLE,),
    ),
    Mutant(
        "gate-mismatch-taken-as-pass",
        "verify.py",
        "if _gate_digest(rows) == _GATE_PIN:",
        "if True:",
        (FALLBACK,),
    ),
    Mutant(
        "gate-skips-filter-batteries-n1-n3",
        "verify.py",
        "for n in (1, 2, 3, 4)]",
        "for n in (4,)]",
        (NO_ORACLE,),
    ),
    Mutant(
        "gate-cores-item-reports-nothing",
        "verify.py",
        '"cores": _principality_failures,',
        '"cores": lambda n, got, want: [],',
        (PLANTED_FAMILY,),
    ),
    Mutant(
        "gate-diff-skips-epsilon-rows",
        "verify.py",
        "[] if g == w else _ITEM_FAILURES[kind](*args, g, w)",
        '[] if g == w or kind == "profile" else _ITEM_FAILURES[kind](*args, g, w)',
        (PROFILE_FAULT,),
    ),
    Mutant(
        "gate-battery-diff-names-wrong-space",
        "verify.py",
        'failures.append({"check": kind, "space": serialize.space_to_payload(space), **data})',
        'failures.append({"check": kind, **data,\n'
        '                         "space": serialize.space_to_payload(_oracle_battery(space.size)[0])})',
        (FALLBACK,),
    ),
    Mutant(
        "intersect-meets-cores",
        "filters.py",
        "return Filter(f.space, f.core_mask | g.core_mask)",
        "return Filter(f.space, f.core_mask & g.core_mask)",
        ("tests/test_verify.py::TestFamilyOracle::test_oracle_filters_pass",),
    ),
    Mutant(
        "filters-to-space-targets-from-source-core",
        "completion.py",
        "ranks = _cross_ranks(rows, targets)",
        "ranks = _cross_ranks(rows, source)",
        (BUILDER,),
    ),
    Mutant(
        "full-mask-attribute-off-by-one",
        "vspace.py",
        "self.full_mask = (1 << self.size) - 1",
        "self.full_mask = 1 << self.size",
        (CARRIER,),
    ),
    Mutant(
        "completion-cores-from-zero-bwd",
        "completion.py",
        "cores = set(space.zero_fwd)",
        "cores = set(space.zero_bwd)",
        (MINIMAL,),
    ),
    Mutant(
        "parse-accepts-negative-decimals",
        "quantale.py",
        "if value < 0:",
        "if False:",
        (LITERALS,),
    ),
    Mutant(
        "check-refuses-zero",
        "quantale.py",
        "if element.numerator < 0:",
        "if element.numerator <= 0:",
        (CHECK,),
    ),
    Mutant(
        "topology-reads-the-other-side-zero-masks",
        "structures.py",
        "nbs = _zero_masks(space, side) if space.test_values",
        "nbs = _zero_masks(space.dual(), side) if space.test_values",
        (TOPOLOGY,),
    ),
    Mutant(
        "topology-guard-skips-transitivity",
        "structures.py",
        "if not m >> i & 1 or reduce(or_, [nbs[j] for j in _bits(m)], m) != m:",
        "if not m >> i & 1:",
        (TOPOLOGY,),
    ),
    Mutant(
        "topology-skips-test-value-refusal",
        "structures.py",
        "nbs = _zero_masks(space, side) if space.test_values",
        "nbs = _zero_masks(space, side) if space.size",
        (KERNELS,),
    ),
    Mutant(
        "relation-neighbourhood-without-transitive-closure",
        "structures.py",
        "[reduce(or_, [grown[j] for j in _bits(m)], m) for m in grown]",
        "[reduce(or_, [], m) for m in grown]",
        (TOPOLOGY,),
    ),
    Mutant(
        "open-test-skips-a-point",
        "structures.py",
        "for i in _bits(m))",
        "for i in _bits(m)[1:])",
        (TOPOLOGY,),
    ),
    Mutant(
        "topology-cli-prints-other-side",
        "cli.py",
        "nbs = topology_of(space, side).neighbourhoods",
        'nbs = topology_of(space, {"forward": "backward"}.get(side, "forward")).neighbourhoods',
        (TOPOLOGY_CLI,),
    ),
    Mutant(
        "topology-cli-drops-a-name",
        "cli.py",
        "list(space.names_of(m))",
        "list(space.names_of(m & m - 1))",
        (TOPOLOGY_CLI,),
    ),
    Mutant(
        "generator-entries-not-marked-checked",
        "verify.py",
        "_entry_classes(k, value)._replace(checked=True)",
        "_entry_classes(k, value)",
        ("tests/test_verify.py::TestGenerator::test_checks_each_drawn_entry_once",),
    ),
    Mutant(
        "one-byte-lane-guard-bit-dropped",
        "vspace.py",
        "guarded = bytes([key | flag for key in keys])",
        "guarded = bytes([key for key in keys])",
        (LANE_WIDTH,),
    ),
    Mutant(
        "translate-lanes-at-two-byte-width",
        "vspace.py",
        "    if width == 1:\n        others, tops = _byte_lanes(",
        "    if width <= 2:\n        others, tops = _byte_lanes(",
        (LANE_WIDTH,),
    ),
    Mutant(
        "restricted-itemgetter-drops-last-point",
        "vspace.py",
        "pick = itemgetter(*points)",
        "pick = itemgetter(*points[:-1])",
        (RESTRICTED,),
    ),
    Mutant(
        "core-rows-cache-keyed-on-point",
        "structures.py",
        "    for r in set(rows).difference(cache):\n"
        "        cache[r] = sum(map(row_of_byte, r.to_bytes(width, \"little\")), ())[:n]\n",
        "    for i in set(range(n)).difference(cache):\n"
        "        cache[i] = sum(map(row_of_byte, rows[i].to_bytes(width, \"little\")), ())[:n]\n"
        "    rows = range(n)\n",
        (CORE_ROWS,),
    ),
    Mutant(
        "suite-space-key-drops-scale",
        "verify.py",
        "key = (q, scale, gen.force_separated, tuple(map(tuple, k)))",
        "key = (q, gen.force_separated, tuple(map(tuple, k)))",
        (SHARING,),
    ),
    Mutant(
        "suite-state-keyed-on-points",
        "verify.py",
        "        state = self.states.get(space)\n"
        "        if state is None:\n"
        "            state = self.states[space] = _SpaceState(space)\n",
        "        state = self.states.get(space.points)\n"
        "        if state is None:\n"
        "            state = self.states[space.points] = _SpaceState(space)\n",
        (SHARING,),
    ),
    Mutant(
        "suite-uc-table-keyed-on-source-only",
        "verify.py",
        "key = (source, target)",
        "key = source",
        (UC_MEMO, SHARING),
    ),
    Mutant(
        "pointwise-modulus-drops-backward-half",
        "vspace.py",
        "return (bwd_d | fwd_e) == fwd_e and (fwd_d | bwd_e) == bwd_e",
        "return (bwd_d | fwd_e) == fwd_e",
        (KERNELS,),
    ),
    Mutant(
        "modulus-candidates-ascending",
        "vspace.py",
        "sorted(self.test_values, key=self.quantale.sort_key, reverse=True)",
        "sorted(self.test_values, key=self.quantale.sort_key)",
        (KERNELS,),
    ),
    Mutant(
        "uniform-flip-reads-forward-near-ball",
        "vspace.py",
        "zip(space._balls(delta, False), space._balls(eps, True))",
        "zip(space._balls(delta, True), space._balls(eps, True))",
        (KERNELS,),
    ),
    Mutant(
        "bit-table-entries-descending",
        "vspace.py",
        "tuple([tuple([j for j in range(8) if m >> j & 1]) for m in range(256)])",
        "tuple([tuple([j for j in range(8) if m >> j & 1][::-1]) for m in range(256)])",
        (LOOKUPS,),
    ),
    Mutant(
        "bit-table-drops-bit-seven",
        "vspace.py",
        "[j for j in range(8) if m >> j & 1]",
        "[j for j in range(7) if m >> j & 1]",
        (LOOKUPS,),
    ),
    Mutant(
        "index-map-fast-path-reads-source-index",
        "vspace.py",
        "return tuple([target._pindex[fmap[p]] for p in source.points])",
        "return tuple([source._pindex[fmap[p]] for p in source.points])",
        (LOOKUPS,),
    ),
    Mutant(
        "mask-fast-path-counts-repeated-names",
        "vspace.py",
        "return sum({1 << self._pindex[p] for p in names})",
        "return sum([1 << self._pindex[p] for p in names])",
        (LOOKUPS,),
    ),
    Mutant(
        "mask-reads-a-generator-once",
        "vspace.py",
        "            names = list(names)  # the loop may read the names again\n",
        "            pass\n",
        (LOOKUPS,),
    ),
    Mutant(
        "ball-cache-key-ignores-side",
        "vspace.py",
        "key = id(eps) if forward else ~id(eps)",
        "key = id(eps)",
        (KERNELS,),
    ),
    Mutant(
        "quotient-independence-reads-own-columns",
        "vspace.py",
        "any(tuple(rank[i]) != pick(rank[r]) for i, r in enumerate(rep))",
        "any(tuple(rank[i]) != tuple(rank[r]) for i, r in enumerate(rep))",
        (QUOTIENT,),
    ),
    Mutant(
        "divergent-core-skips-cauchy-test",
        "verify.py",
        "        if cauchy(mask):\n            f = Filter(space, mask)\n",
        "        if True:\n            f = Filter(space, mask)\n",
        ("tests/test_completion.py::TestCauchyComplete",),
    ),
    Mutant(
        "closure-pairs-each-set-with-itself",
        "verify.py",
        "        for b in taken:\n",
        "        for b in (a,):\n",
        (CLOSURE,),
    ),
    Mutant(
        "drawn-values-inverted",
        "verify.py",
        "{(n, d): Fraction(n, d) for n in",
        "{(n, d): Fraction(d, n) for n in",
        (DRAWS,),
    ),
    Mutant(
        "q1-census-drops-largest-size",
        "verify.py",
        "for n in range(1, max_points + 1)",
        "for n in range(1, max_points)",
        (CENSUS,),
    ),
    Mutant(
        "verify-cli-keeps-0-instance-reports",
        "cli.py",
        "reports = [r for r in sections[name](spent) if r.instances]",
        "reports = list(sections[name](spent))",
        (RAN_ONLY,),
    ),
    Mutant(
        "modulus-bisection-returns-first-inadmissible",
        "vspace.py",
        "return tv[lo - 1] if lo else None",
        "return tv[lo] if lo else None",
        (MODULI, KERNELS),
    ),
    Mutant(
        "modulus-bisection-on-a-non-chain",
        "vspace.py",
        "if q.is_finite and q._chain_keys is None:",
        "if False:",
        (KERNELS,),
    ),
    Mutant(
        "exit-freeze-inside-main",
        "cli.py",
        "    out = _Out(args.format, args.output)\n",
        "    gc.freeze()\n    out = _Out(args.format, args.output)\n",
        (COLLECTOR,),
    ),
    Mutant(
        "exit-path-drops-code",
        "cli.py",
        "sys.exit(code)",
        "sys.exit()",
        (PROCESS,),
    ),
)


def _copy_source(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src" / "qc", src / "qc", ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _run_tests(src: Path, tests) -> bool:
    """True when the selection passes against the package under `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="qc-mutants-") as tmp:
        src = _copy_source(Path(tmp))
        for m in MUTANTS:
            count = (src / "qc" / m.path).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"error: {m.name}: the substitution matches {m.path} {count} times",
                      file=sys.stderr)
                return 2
        selection = sorted({t for m in MUTANTS for t in m.tests})
        if not _run_tests(src, selection):
            print("error: the selection fails on the unmutated source", file=sys.stderr)
            return 2
        survivors = []
        for m in MUTANTS:
            target = src / "qc" / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.monotonic()
            caught = not _run_tests(src, m.tests)
            target.write_text(original, encoding="utf-8")
            print(f"{'caught' if caught else 'SURVIVED':8} {m.name} ({time.monotonic() - start:.1f} s)")
            if not caught:
                survivors.append(m.name)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main())
