from fractions import Fraction

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    INF,
    Filter,
    InstanceGenerator,
    PreconditionError,
    VSpace,
    enumerate_filter_families,
    filter_distance,
    has_uniformly_vanishing_asymmetry,
    is_round,
    oracle_collapsed_formulas,
    oracle_epsilon_reduction,
    oracle_filters,
    point_filter,
    roundify,
    run_theorem_suite,
    triangle_repair,
    validate_vspace,
)
from qc.verify import _dense_values, _generate_space, _zero_asymmetry, q1_census

from helpers import generated

E = EXT_RATIONAL


class TestGenerator:
    def test_determinism(self):
        gen = InstanceGenerator(seed=99)
        first = list(generated(gen, 8))
        second = list(generated(gen, 8))
        assert [s for _, s in first] == [s for _, s in second]
        assert [c for c, _ in first] == [c for c, _ in second]

    def test_seed_changes_stream(self):
        a = [s for _, s in generated(InstanceGenerator(seed=1), 5)]
        b = [s for _, s in generated(InstanceGenerator(seed=2), 5)]
        assert a != b

    def test_generated_spaces_valid(self):
        for _, space in generated(InstanceGenerator(seed=5), 20):
            assert validate_vspace(space).ok
            assert 2 <= space.size <= 5

    def test_force_uva(self):
        gen = InstanceGenerator(seed=5, force_uva=True)
        for _, space in generated(gen, 20):
            assert has_uniformly_vanishing_asymmetry(space).ok

    def test_force_separated(self):
        from qc import classify

        gen = InstanceGenerator(seed=5, force_separated=True)
        for _, space in generated(gen, 20):
            assert classify(space)["separated"]

    def test_finite_quantale_generation(self):
        gen = InstanceGenerator(seed=5, quantale=BUILTIN_QUANTALES["Q3"])
        for _, space in generated(gen, 10):
            assert validate_vspace(space).ok
            assert space.quantale == BUILTIN_QUANTALES["Q3"]

    def test_key_space_matches_value_route(self):
        # the generator repairs and zero-symmetrises on keys; the same draws
        # repaired on values by the checked loop give the same spaces
        configs = [
            {},
            {"force_uva": True},
            {"force_separated": True},
            {"force_uva": True, "force_separated": True},
            {"force_uva": True, "max_points": 7},
            {"quantale": BUILTIN_QUANTALES["Q3"]},
            {"quantale": BUILTIN_QUANTALES["Q3"], "force_uva": True},
        ]
        import random

        seeds = relaxed = 0
        for t, config in enumerate(configs):
            gen = InstanceGenerator(seed=700 + t, **config)
            for child in gen.child_seeds(45):
                want, again = _generate_by_values(gen, child)
                got = _generate_space(gen, random.Random(child))
                assert (got.points, got.dmat) == (want.points, want.dmat), (config, child)
                seeds += 1
                relaxed += again
        assert seeds >= 300 and relaxed >= 30, (seeds, relaxed)

    def test_draws_match_their_definition(self):
        # the drawn values against the weights they are defined by, on one
        # stream each: 0 at zero_weight, INF at 1, n/d (n in 1..4, d in 1..3) at 6
        import random

        from qc.verify import _draw_value

        for seed, weight in ((3, 3), (4, 0), (5, 1)):
            gen = InstanceGenerator(seed=seed, zero_weight=weight)
            rng, ref = random.Random(seed), random.Random(seed)
            seen = set()
            for _ in range(2000):
                roll = ref.randrange(weight + 7)
                if roll < weight:
                    want = Fraction(0)
                elif roll == weight:
                    want = INF
                else:
                    want = Fraction(ref.randint(1, 4), ref.randint(1, 3))
                got = _draw_value(gen, rng)
                assert got == want and type(got) is type(want)
                seen.add(want)
            assert len(seen) == 10 + (weight > 0)  # 9 distinct n/d, INF and 0

    def test_checks_each_drawn_entry_once(self):
        # the repair checks each distinct drawn entry object; the space is
        # built from its values, elements already, with no check of its own
        import random

        from helpers import count_checks

        from qc.verify import _draw_value

        configs = [
            {},
            {"force_uva": True},
            {"force_separated": True},
            {"quantale": BUILTIN_QUANTALES["Q3"], "force_uva": True},
            {"quantale": BUILTIN_QUANTALES["Q1"]},
        ]
        for t, config in enumerate(configs):
            gen = InstanceGenerator(seed=800 + t, **config)
            for child in gen.child_seeds(20):
                rng = random.Random(child)
                n = rng.randint(gen.min_points, gen.max_points)
                d = [[_draw_value(gen, rng) for _ in range(n)] for _ in range(n)]
                for i in range(n):
                    d[i][i] = gen.quantale.bottom
                drawn = len({id(e) for row in d for e in row})
                got = count_checks(lambda: _generate_space(gen, random.Random(child)))
                assert got == drawn, (config, child)


def _generate_by_values(gen, child):
    """The instance generator's space for `child`, built on values: each
    repair by the checked loop `definitional_triangle_repair`, and zeros
    tested against the quantale's bottom.  Also whether a repair after a
    zero-symmetrisation lowered an entry."""
    import random

    from qc import separation_quotient
    from qc.verify import _draw_value, definitional_triangle_repair

    rng = random.Random(child)
    q = gen.quantale
    n = rng.randint(min(gen.min_points, gen.max_points), gen.max_points)
    d = [[_draw_value(gen, rng) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = q.bottom
    d, _ = definitional_triangle_repair(q, d)
    again = False
    if gen.force_uva:
        for _ in range(n * n + 1):
            changed = False
            for i in range(n):
                for j in range(n):
                    if d[i][j] == q.bottom and d[j][i] != q.bottom:
                        d[j][i] = q.bottom
                        changed = True
            if not changed:
                break
            before = [list(row) for row in d]
            d, _ = definitional_triangle_repair(q, d)
            again = again or d != before
    space = VSpace(q, [f"p{i}" for i in range(n)], d)
    if gen.force_separated:
        space, _ = separation_quotient(space)
    assert validate_vspace(space).ok
    return space, again


class TestTriangleRepair:
    def test_never_increases_and_bounded(self):
        import random

        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 5)
            raw = [
                [
                    Fraction(0)
                    if i == j
                    else Fraction(rng.randint(0, 5), rng.randint(1, 3))
                    for j in range(n)
                ]
                for i in range(n)
            ]
            repaired, rounds = triangle_repair(E, raw)
            assert rounds <= n * n * n
            for i in range(n):
                for j in range(n):
                    assert E.leq(repaired[i][j], raw[i][j])
            assert validate_vspace(
                VSpace(E, [f"p{i}" for i in range(n)], repaired)
            ).ok

    def test_fixpoint_state(self, x2a):
        repaired, rounds = triangle_repair(E, x2a.dmat)
        assert [list(r) for r in x2a.dmat] == repaired

    def test_checks_each_distinct_entry_once(self, Q3):
        # one `quantale.check` per distinct entry object, however often it
        # occurs in the matrix
        import random

        from helpers import count_checks

        rng = random.Random(20261025)
        for t in range(40):
            q = (E, Q3)[t % 2]
            pool = list(range(q.size)) if q.is_finite else [Fraction(0), INF, Fraction(1, 2), 3, Fraction(3)]
            n = rng.randint(1, 6)
            d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
            distinct = len({id(e) for row in d for e in row})
            assert count_checks(lambda: triangle_repair(q, d)) == distinct, d

    def test_matches_definition(self, Q1, Q3, chain4, pinched):
        # the keyed and table loops against the checked one, on raw matrices
        # (diagonals off, INF, ints, and denominators whose lcm passes the
        # key budget, so both key kinds run)
        import random

        from qc.verify import definitional_triangle_repair

        rng = random.Random(20261018)
        big = [2**89 - 1, 2**107 - 1, 2**127 - 1]
        changed = fallback = 0
        for t in range(600):
            q = (E, Q1, Q3, chain4, pinched)[t % 5]
            n = rng.randint(0, 6)
            if q.is_finite:
                d = [[rng.randrange(q.size) for _ in range(n)] for _ in range(n)]
            else:
                dens = big if t % 2 else [1, 2, 3, 7]
                pool = [Fraction(0), INF, 0, 2] + [
                    Fraction(rng.randint(1, 60), rng.choice(dens)) for _ in range(5)
                ]
                d = [[rng.choice(pool) for _ in range(n)] for _ in range(n)]
                finite = sorted({E.check(e) for row in d for e in row} - {INF})
                fallback += E._rank_values(finite)[2] is None
            want = definitional_triangle_repair(q, d)
            assert triangle_repair(q, d) == want, (q.label, d)
            changed += want[1] > 1
        assert changed > 200 and fallback > 20, (changed, fallback)


class TestFamilyOracle:
    @pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8)])
    def test_family_counts(self, n, count):
        assert len(list(enumerate_filter_families(n))) == count

    def test_enumeration_capped(self):
        with pytest.raises(PreconditionError):
            list(enumerate_filter_families(4))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_oracle_filters_pass(self, n):
        report = oracle_filters(n)
        assert report.ok
        assert report.passes == report.instances

    def test_planted_family_is_named(self, monkeypatch):
        # a family that is not principal, planted in the enumeration on two
        # points, fails the count and is named by the meet of its members
        import qc.verify as verify

        real = verify.enumerate_filter_families

        def planted(n):
            yield from real(n)
            if n == 2:
                yield frozenset({0b01, 0b10, 0b11})

        monkeypatch.setattr(verify, "enumerate_filter_families", planted)
        report = oracle_filters(2)
        assert report.failures == ({"check": "principality-count", "found": 5},
                                   {"check": "principality", "core": 0})
        assert (report.instances, report.passes) == (9, 8)
        assert oracle_filters(3).ok

    def test_collapsed_formulas_pass_at_four(self):
        report = oracle_collapsed_formulas(4)
        assert report.ok

    def test_collapsed_formulas_catch_wrong_filter_distance(self, monkeypatch):
        # the tabled family distance must still tell a wrong collapse apart
        import qc.verify as verify

        real = verify.filter_distance

        def wrong(f, g):
            d = real(f, g)
            if (f.core_mask, g.core_mask) == (0b01, 0b10):
                q = f.space.quantale
                return q.bottom if d == q.top else q.top
            return d

        monkeypatch.setattr(verify, "filter_distance", wrong)
        report = oracle_collapsed_formulas(4)
        # every battery space but the one over Q1, which has a single value
        assert report.instances == 8 and report.passes == 1
        assert [f["check"] for f in report.failures] == ["filter-distance"] * 7
        assert all(f["cores"] == (("p0",), ("p1",)) for f in report.failures)


class TestGatePin:
    # each process computes the library's side of the oracle gate and
    # compares its digest with `_GATE_PIN`, the oracles' side pinned
    ORACLES = ("enumerate_filter_families", "_family_of_core", "_family_distance",
               "_family_roundify", "_dense_values")

    def test_pin_is_the_oracles_answers(self):
        # an intentional change to the oracles re-pins by the printed line
        import qc.verify as verify

        rows = verify._gate_answers(verify._family_cores, verify._collapsed_oracle,
                                    verify._dense_profile)
        pin = verify._gate_digest(rows)
        assert pin == verify._GATE_PIN, f"re-derived pin: _GATE_PIN = {pin}"

        # hashed through hash(): nothing whose hash PYTHONHASHSEED moves,
        # and only ints on which hash is one-to-one
        def ints(value):
            if isinstance(value, tuple):
                return all(ints(v) for v in value)
            return type(value) in (int, bool) and -1 <= value < 2**61 - 1

        assert all(ints(answers) for _, _, answers, _ in rows)

    def test_verify_runs_no_oracle(self, monkeypatch, capsys):
        # counted as TestSuiteSharing counts: a stale pin falls back to the
        # full gate, which calls every one of them
        import qc.verify as verify
        from qc.cli import main

        calls = dict.fromkeys(self.ORACLES, 0)

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in self.ORACLES:
            monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
        monkeypatch.setattr(verify, "_GATE_CACHE", None)
        code = main(["--format", "structured", "verify", "--seed", "3", "--instances", "2"])
        capsys.readouterr()
        assert code == 0
        assert calls == dict.fromkeys(self.ORACLES, 0)

    def test_pinned_path_under_two_hash_seeds(self):
        import os
        import subprocess
        import sys

        import qc

        script = (
            "import qc.verify as verify\n"
            "def oracle(*args):\n"
            "    raise SystemExit('an oracle row was computed')\n"
            "verify._family_cores = verify._collapsed_oracle = verify._dense_profile = oracle\n"
            "reports = verify.oracle_gate()\n"
            "assert len(reports) == 12 and all(r.ok and r.passes == r.instances for r in reports)\n"
        )
        src = os.path.dirname(os.path.dirname(qc.__file__))
        for seed in ("0", "4242"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, "-c", script], env=env,
                                  capture_output=True, text=True)
            assert proc.returncode == 0, (seed, proc.stderr)

    def test_pinned_reports_equal_the_full_gate(self, monkeypatch):
        # the pinned reports are those of the library's answers compared
        # with the oracles' answers computed
        import qc.verify as verify

        monkeypatch.setattr(verify, "_GATE_CACHE", None)
        pinned = [r.payload() for r in verify.oracle_gate()]
        rows = verify._gate_answers(verify._library_cores, verify._collapsed_library,
                                    verify._test_value_profile)
        wanted = verify._gate_answers(verify._family_cores, verify._collapsed_oracle,
                                      verify._dense_profile, rows)
        assert pinned == [r.payload() for r in verify._gate_reports(rows, wanted)]
        assert [r["id"] for r in pinned] == [rid for rid, _, _, _ in rows]

    @pytest.mark.parametrize("fault", ["filter_distance", "intersect"])
    def test_mismatch_runs_the_full_gate(self, monkeypatch, fault):
        # the fault of TestFamilyOracle's wrong filter distance, and a wrong
        # intersection core, which the gate reads from `filters.intersect`
        import qc.verify as verify
        from qc import InvariantError, serialize

        real = getattr(verify, fault)

        def wrong(f, g):
            out = real(f, g)
            if (f.core_mask, g.core_mask) != (0b01, 0b10):
                return out
            if fault == "intersect":
                return Filter(f.space, 0b01)
            q = f.space.quantale
            return q.bottom if out == q.top else q.top

        monkeypatch.setattr(verify, fault, wrong)
        monkeypatch.setattr(verify, "_GATE_CACHE", None)
        gate = verify.oracle_gate()
        failed = {r.id: {f["check"] for f in r.failures} for r in gate if r.failures}
        check = "filter-distance" if fault == "filter_distance" else "intersection"
        assert failed == dict.fromkeys(["oracle.filters.n2", "oracle.filters.n3",
                                        "oracle.collapsed.n4"], {check})
        # one witness per battery space, in battery order, each naming its
        # space; every distance over Q1, the last space, is equal
        for report in gate:
            if report.failures:
                n = int(report.id[-1])
                spaces = [serialize.space_to_payload(s) for s in verify._oracle_battery(n)]
                if fault == "filter_distance":
                    spaces.pop()
                assert [f["space"] for f in report.failures] == spaces
                assert all(f["cores"] == (("p0",), ("p1",)) for f in report.failures)
                assert report.passes == report.instances - len(spaces)
        with pytest.raises(InvariantError, match="oracle gate failed"):
            run_theorem_suite(InstanceGenerator(seed=1).contexts(1))

    def test_profile_mismatch_fails_its_epsilon_report(self, monkeypatch):
        # a wrong test-value verdict of one predicate on one epsilon battery
        # space fails that predicate's report, with that space as witness
        import qc.verify as verify
        from qc import InvariantError, serialize

        target = serialize.space_to_payload(verify._epsilon_battery()[1])
        real = verify._test_value_profile

        def wrong(space, predicate):
            out = real(space, predicate)
            if predicate == "is_round" and serialize.space_to_payload(space) == target:
                return (not out[0],) + out[1:]
            return out

        monkeypatch.setattr(verify, "_test_value_profile", wrong)
        monkeypatch.setattr(verify, "_GATE_CACHE", None)
        failed = [r.payload() for r in verify.oracle_gate() if r.failures]
        assert failed == [{"id": "oracle.epsilon.is_round", "instances": 4, "passes": 3,
                           "failures": [{"check": "epsilon-reduction", "predicate": "is_round",
                                         "space": target}]}]
        with pytest.raises(InvariantError, match="oracle gate failed"):
            run_theorem_suite(InstanceGenerator(seed=1).contexts(1))


class TestEpsilonOracle:
    @pytest.mark.parametrize(
        "predicate",
        ["has_va", "has_uva", "is_cauchy", "is_round", "converges", "point_filter"],
    )
    def test_reduction_on_fixtures(self, predicate, x2a, x2n, x3z):
        for space in (x2a, x2n, x3z):
            report = oracle_epsilon_reduction(space, predicate, samples=300, seed=2)
            assert report.ok, report.failures

    def test_finite_quantale_refused(self, Q3):
        space = VSpace(Q3, ["a"], [[0]])
        with pytest.raises(PreconditionError):
            oracle_epsilon_reduction(space, "has_va")

    def test_dense_values_are_exact_positives(self, x2a):
        values = _dense_values(x2a, 200, seed=1)
        assert values[-1] == INF
        for v in values[:-1]:
            assert isinstance(v, Fraction) and v > 0

    def test_unknown_predicate(self, x2a):
        with pytest.raises(PreconditionError):
            oracle_epsilon_reduction(x2a, "nonsense")


class TestTheoremSuite:
    def test_uva_run_passes(self):
        reports = run_theorem_suite(InstanceGenerator(seed=13, force_uva=True).contexts(12))
        assert all(r.ok for r in reports), [r.id for r in reports if not r.ok]
        ran = {r.id for r in reports if r.instances}
        assert "completion.universal_property" in ran
        assert "filters.minimal_iff_cauchy_round" in ran

    def test_unconstrained_run_passes(self):
        reports = run_theorem_suite(InstanceGenerator(seed=14).contexts(12))
        assert all(r.ok for r in reports), [r.id for r in reports if not r.ok]

    def test_q3_run_passes(self):
        gen = InstanceGenerator(
            seed=15, quantale=BUILTIN_QUANTALES["Q3"], force_uva=True
        )
        reports = run_theorem_suite(gen.contexts(10))
        assert all(r.ok for r in reports)

    def test_q1_census_exercises_degenerate_checks(self):
        reports = run_theorem_suite(q1_census(5))
        assert all(r.ok for r in reports)
        by_id = {r.id: r for r in reports}
        for check_id in ("degenerate.uva_everywhere", "degenerate.all_filters_cauchy",
                         "degenerate.completion_single_point"):
            assert by_id[check_id].instances == by_id[check_id].passes == 5
        # roundness lemmas need a positive cone and must not run over Q1
        assert by_id["filters.roundify_round_iff_uva"].instances == 0
        assert by_id["filters.minimal_iff_cauchy_round"].instances == 0

    def test_q1_census_has_one_space_per_size(self):
        # over Q1 every distance is 0: one space per carrier size, none with
        # a test value, so the degenerate gate opens on every instance and
        # the positives gate on none
        from qc.verify import THEOREM_CHECKS, _gates_open

        Q1 = BUILTIN_QUANTALES["Q1"]
        for max_points in (1, 4, 6):
            census = list(q1_census(max_points))
            assert [ctx.seed for ctx in census] == list(range(max_points))
            assert [ctx.space.size for ctx in census] == list(range(1, max_points + 1))
            for ctx in census:
                n = ctx.space.size
                assert ctx.space.quantale == Q1 and ctx.space.test_values == ()
                assert ctx.space.points == tuple(f"p{i}" for i in range(n))
                assert all(e == Q1.bottom for row in ctx.space.dmat for e in row)
                assert ctx.sibling is census[min(n, 4) - 1].space
                assert ctx.state is ctx.suite.state(ctx.space)
                for check in THEOREM_CHECKS:
                    if "degenerate" in check.gates:
                        assert _gates_open(ctx, check.gates)
                    if "positives" in check.gates:
                        assert not _gates_open(ctx, check.gates)

    def test_closed_form_checks_run_ungated(self, pinched):
        # the closed form and Cauchy completeness hold on every finite space,
        # so these checks run with or without uniformly vanishing asymmetry
        from qc.verify import THEOREM_CHECKS

        ids = ("completion.minimal_filters_closed_form",
               "completion.finite_spaces_cauchy_complete")
        checks = tuple(c for c in THEOREM_CHECKS if c.id in ids)
        for gen in (
            InstanceGenerator(seed=19, zero_weight=1),
            InstanceGenerator(seed=20, quantale=pinched),
            InstanceGenerator(seed=21, quantale=BUILTIN_QUANTALES["Q1"]),
        ):
            reports = run_theorem_suite(gen.contexts(6), checks=checks)[-2:]
            assert [r.id for r in reports] == list(ids)
            assert all(r.ok and r.instances == r.passes == 6 for r in reports)

    def test_closed_form_check_catches_wrong_order(self, monkeypatch):
        import qc.verify as verify

        real = verify.minimal_cauchy_filters
        monkeypatch.setattr(verify, "minimal_cauchy_filters", lambda s: real(s)[::-1])
        check = verify.TheoremCheck(
            "closed_form", verify._check_minimal_filters_closed_form
        )
        report = run_theorem_suite(InstanceGenerator(seed=19, zero_weight=1).contexts(6),
                                   checks=(check,))[-1]
        assert report.failures

    def test_quotient_check_catches_wrong_distances(self, monkeypatch):
        import qc.verify as verify

        real = verify.complete
        monkeypatch.setattr(
            verify, "complete", lambda s: real(s)._replace(space=real(s).space.dual())
        )
        check = next(c for c in verify.THEOREM_CHECKS
                     if c.id == "completion.minimal_space_isometric_to_quotient")
        report = run_theorem_suite(InstanceGenerator(seed=13, force_uva=True).contexts(12),
                                   checks=(check,))[-1]
        assert report.failures
        witness = report.failures[0]["witness"]
        assert witness["check"] == "quotient and completion distances differ"

    def _planted_failures(self, check_id, gen, count):
        import qc.verify as verify

        check = next(c for c in verify.THEOREM_CHECKS if c.id == check_id)
        report = run_theorem_suite(gen.contexts(count), checks=(check,))[-1]
        assert report.instances > 0
        return report

    def test_embedding_check_catches_wrong_completion_distances(self, monkeypatch):
        import qc.verify as verify

        real = verify.complete
        monkeypatch.setattr(
            verify, "complete", lambda s: real(s)._replace(space=real(s).space.dual())
        )
        report = self._planted_failures(
            "completion.embedding_isometry_iff_uva", InstanceGenerator(seed=13, force_uva=True), 12
        )
        assert report.failures
        assert report.failures[0]["witness"]["check"] == "completion distance"

    def test_universal_property_check_catches_wrong_extension(self, monkeypatch):
        # one completion point is sent elsewhere whenever the target allows it
        import qc.verify as verify

        real = verify.extend_to_completion

        def moved(fmap, completion, target):
            result = real(fmap, completion, target)
            first = next(iter(result.mapping))
            other = next((t for t in target.points if t != result.mapping[first]), None)
            if other is None:
                return result
            return result._replace(mapping={**result.mapping, first: other})

        monkeypatch.setattr(verify, "extend_to_completion", moved)
        report = self._planted_failures(
            "completion.universal_property", InstanceGenerator(seed=13, force_uva=True), 12
        )
        assert report.failures
        witness = report.failures[0]["witness"]
        assert witness["check"] == "extension does not restrict to the map"

    def test_embedding_check_catches_a_missed_point(self, monkeypatch):
        # the points embedded as the last completion point are sent to the
        # first, so the embedding misses the last point of every completion
        # with two or more
        import qc.verify as verify
        from qc import serialize

        real = verify.complete

        def missing_last(space):
            comp = real(space)
            last = len(comp.filters) - 1
            if last < 1:
                return comp
            return comp._replace(embedding={
                p: 0 if i == last else i for p, i in comp.embedding.items()
            })

        monkeypatch.setattr(verify, "complete", missing_last)
        report = self._planted_failures(
            "completion.embedding_dense", InstanceGenerator(seed=13, force_uva=True), 12
        )
        assert 0 < len(report.failures) < report.instances
        for record in report.failures:
            space = serialize.parse_space(record["instance"])
            assert record["witness"] == {"filter": real(space).filters[-1].core}

    def test_va_check_catches_disagreeing_topology_condition(self, monkeypatch):
        import qc.verify as verify
        from qc import Verdict

        real = verify.va_equivalence_report

        def flipped(space):
            report = real(space)
            equal = report.conditions["topologies_equal"]
            conditions = {**report.conditions, "topologies_equal": Verdict(not equal)}
            return report._replace(conditions=conditions)

        monkeypatch.setattr(verify, "va_equivalence_report", flipped)
        report = self._planted_failures(
            "structures.va_conditions_agree", InstanceGenerator(seed=14), 8
        )
        assert len(report.failures) == report.instances == 8
        for f in report.failures:
            closed, oracles = f["witness"]["closed"], f["witness"]["oracles"]
            assert closed["topologies_equal"] != oracles["topologies_equal"]
            assert closed["pointwise_modulus"] == oracles["pointwise_modulus"]

    def test_zero_distance_check_catches_non_cauchy_union(self, monkeypatch):
        # two zero-distance clusters; the union core {c, d} is declared not
        # Cauchy, so the first zero-distance pair meeting there is reported
        import qc.verify as verify
        from qc import Filter, Verdict, is_cauchy
        from qc.verify import definitional_set_distance

        space = VSpace(E, list("abcd"), [
            [0 if i // 2 == j // 2 else 1 for j in range(4)] for i in range(4)
        ])
        target = space.mask("cd")
        monkeypatch.setattr(
            verify,
            "is_cauchy",
            lambda f, side="forward": (
                Verdict(False, {}) if f.core_mask == target else is_cauchy(f, side)
            ),
        )
        cores = [m for m in range(1, 16) if m != target and is_cauchy(Filter(space, m))]
        expected = next(
            (space.names_of(a), space.names_of(b))
            for a in cores
            for b in cores
            if a | b == target and definitional_set_distance(space, a, b) == 0
        )
        assert expected == (("c",), ("d",))
        verdict = verify.zero_distance_intersection_cauchy(space)
        assert not verdict.ok and verdict.witness == {"cores": expected}

    def test_reports_are_replayable(self):
        gen = InstanceGenerator(seed=17, force_uva=True)
        reports = run_theorem_suite(gen.contexts(3))
        payloads = [r.payload() for r in reports]
        for p in payloads:
            assert set(p) == {"id", "instances", "passes", "failures"}

    def test_determinism_of_payloads(self):
        gen = InstanceGenerator(seed=18, force_uva=True)
        a = [r.payload() for r in run_theorem_suite(gen.contexts(5))]
        b = [r.payload() for r in run_theorem_suite(gen.contexts(5))]
        assert a == b


class TestFilterMorphismChecks:
    CHECKS = ("filters.identity_morphism", "filters.morphism_composition")

    def _run(self, gen, count):
        import qc.verify as verify

        checks = tuple(c for c in verify.THEOREM_CHECKS if c.id in self.CHECKS)
        return run_theorem_suite(gen.contexts(count), checks=checks)

    def test_checks_hold(self):
        reports = self._run(InstanceGenerator(seed=21), 15)
        assert [r.id for r in reports] == list(self.CHECKS)
        assert all(r.ok and r.instances == 15 for r in reports)

    def test_run_on_every_instance(self):
        # ungated: five-point carriers and spaces without UVA included
        gen = InstanceGenerator(seed=22, max_points=5)
        reports = self._run(gen, 5)
        assert all(r.ok and r.instances == 5 for r in reports)
        spaces = [s for _, s in generated(gen, 5)]
        assert max(s.size for s in spaces) == 5
        assert not all(has_uniformly_vanishing_asymmetry(s) for s in spaces)

    def test_morphism_loop_matches_library(self):
        # `_morphism_ok` over the memoised verdict, as the adjunction check
        # reads it, against `is_filter_morphism` on every map of each
        # battery space into itself and every pair of cores
        from itertools import product

        from qc import is_filter_morphism
        from qc.filters import _image_core
        from qc.verify import _Ctx, _Suite, _morphism_ok, _oracle_battery

        ctx = _Ctx.generated(InstanceGenerator(seed=41), 0, _Suite())
        verdicts = set()
        for x in (s for n in (1, 2, 3) for s in _oracle_battery(n)):
            for fidx in product(range(x.size), repeat=x.size):
                fmap = {p: x.points[v] for p, v in zip(x.points, fidx)}
                uc = ctx.uc(fidx, x, x)
                for fm in range(x.full_mask + 1):
                    for gm in range(x.full_mask + 1):
                        lib = is_filter_morphism(fmap, Filter(x, fm), Filter(x, gm))
                        loop = _morphism_ok(uc, _image_core(fidx, fm), gm)
                        assert bool(lib) == loop, (x, fidx, fm, gm)
                        verdicts.add((uc, loop))
        assert verdicts == {(True, True), (True, False), (False, False)}


class TestUvaSharpness:
    CHECKS = (
        "filters.roundify_round_iff_uva",
        "filters.minimal_iff_cauchy_round",
        "completion.embedding_isometry_iff_uva",
    )

    def test_roundify_witness_on_x2n(self, x2n):
        # d(a, b) = 0 != d(b, a): the roundification of {b} is not round
        a, b = _zero_asymmetry(x2n)
        assert (x2n.points[a], x2n.points[b]) == ("a", "b")
        f = Filter(x2n, 1 << b)
        assert f.core == ("b",)
        assert not is_round(roundify(f))

    def test_isometry_witness_on_x2n(self, x2n):
        a, b = _zero_asymmetry(x2n)
        pa, pb = x2n.points[a], x2n.points[b]
        assert (pb, pa) == ("b", "a")
        assert filter_distance(point_filter(x2n, pb), point_filter(x2n, pa)) == 0
        assert x2n.d(pb, pa) == 1

    def test_no_witness_under_uva(self, x2a, x3z, xq1):
        for space in (x2a, x3z, xq1):
            assert _zero_asymmetry(space) is None
        gen = InstanceGenerator(seed=26)
        for _, space in generated(gen, 40):
            uva = has_uniformly_vanishing_asymmetry(space).ok
            assert (_zero_asymmetry(space) is None) == uva

    def test_checks_pass_on_non_uva_instances(self):
        from qc.verify import THEOREM_CHECKS, _Ctx, _Suite

        checks = tuple(c for c in THEOREM_CHECKS if c.id in self.CHECKS)
        assert [c.id for c in checks] == list(self.CHECKS)
        gen = InstanceGenerator(seed=25)
        count, non_uva = 40, 0
        for child in gen.child_seeds(count):
            ctx = _Ctx.generated(gen, child, _Suite())
            if not ctx.uva:
                non_uva += 1
                for check in checks:
                    assert check.fn(ctx) is None, (check.id, child)
        assert 0 < non_uva < count
        # the checks run on every instance, UVA or not
        for report in run_theorem_suite(gen.contexts(count), checks=checks):
            assert report.instances == report.passes == count, report.id


class TestCrossSpaceReduction:
    def test_uc_between_different_spaces_matches_dense(self, x2a, x3z):
        # the combined test set must decide uniform continuity exactly as a
        # dense stratified sample over both spaces' threshold cells does
        import random

        from qc.verify import _uc_over
        from qc.vspace import combined_test_values
        from helpers import all_maps

        rng = random.Random(9)
        dense = sorted(
            {
                Fraction(rng.randint(1, 40), rng.randint(1, 12))
                for _ in range(400)
            }
        ) + [INF]
        tv = combined_test_values(x2a, x3z)
        for fmap in all_maps(list(x2a.points), list(x3z.points)):
            fidx = tuple(x3z.index(fmap[p]) for p in x2a.points)
            assert bool(_uc_over(fidx, x2a, x3z, tv, tv)) == bool(
                _uc_over(fidx, x2a, x3z, dense, dense)
            )


class TestCoreLanes:
    # `_Ctx` reads the Cauchy verdicts (both sides) and the minimal ones of
    # every core as bits of 2^n-lane ints; the per-core test-value loop
    # `_cauchy_over` and the superset enumeration
    # `definitional_is_minimal_cauchy` are their oracles
    @staticmethod
    def _spaces(Q1, Q3, pinched):
        spaces = []
        for q in (E, Q3, Q1, pinched):
            for uva in (True, False):
                gen = InstanceGenerator(seed=20261019, quantale=q, force_uva=uva, max_points=5)
                spaces += [s for _, s in generated(gen, 12)]
        for q in (E, Q3, Q1, pinched):
            spaces += [VSpace(q, [], []), VSpace(q, ["a"], [[q.bottom]])]
        return spaces

    def test_lanes_match_loops(self, Q1, Q3, pinched):
        from qc.verify import (
            _cauchy_lanes,
            _cauchy_over,
            _minimal_lanes,
            definitional_is_minimal_cauchy,
        )

        seen = set()
        for space in self._spaces(Q1, Q3, pinched):
            tv, lanes = space.test_values, 1 << (1 << space.size)
            fwd, bwd = _cauchy_lanes(space, True), _cauchy_lanes(space, False)
            minimal = _minimal_lanes(space, fwd)
            assert fwd < lanes and bwd < lanes and minimal < lanes
            # the improper filter (the empty core) is never minimal
            assert not minimal & 1
            for m in range(space.full_mask + 1):
                f = Filter(space, m)
                for side, got in ((True, fwd), (False, bwd)):
                    want = _cauchy_over(f, tv, side) is None
                    assert bool(got >> m & 1) == want, (space.dmat, m, side)
                    seen.add(("cauchy", want))
                if m:
                    want = bool(definitional_is_minimal_cauchy(f))
                    assert bool(minimal >> m & 1) == want, (space.dmat, m)
                    seen.add(("minimal", want, bool(fwd >> m & 1)))
        # both verdicts occur, and Cauchy cores that are not minimal too
        assert seen == {("cauchy", True), ("cauchy", False), ("minimal", True, True),
                        ("minimal", False, True), ("minimal", False, False)}

    def test_ctx_reads_its_lanes(self, Q3):
        from qc.verify import _Ctx, _Suite, _cauchy_over, definitional_is_minimal_cauchy

        for q in (E, Q3):
            gen = InstanceGenerator(seed=20261020, quantale=q, max_points=4)
            for child in gen.child_seeds(6):
                ctx = _Ctx.generated(gen, child, _Suite())
                space = ctx.space
                for m in range(space.full_mask + 1):
                    f = Filter(space, m)
                    for side in (True, False):
                        want = _cauchy_over(f, space.test_values, side) is None
                        assert ctx.cauchy(m, side) is want
                    if m:
                        assert ctx.minimal(m) is bool(definitional_is_minimal_cauchy(f))


class TestUcMemo:
    def test_memo_matches_loop_and_closed_form(self, Q3, pinched):
        # every index map in all three directions, plus a target equal to
        # (but not the same object as) the source; x -> y runs first, so a
        # memo that forgot the direction would hand its verdicts to x -> x
        from itertools import product

        from qc import is_uniformly_continuous
        from qc.verify import _Ctx, _Suite, _uc_over
        from qc.vspace import combined_test_values

        def directions(x, y):
            twin = VSpace(x.quantale, x.points, x.dmat)
            assert twin == x and twin is not x
            return ((x, y), (y, x), (x, x), (x, twin), (twin, x))

        cases = []
        for q in (E, Q3, pinched):
            gen = InstanceGenerator(seed=41, quantale=q, max_points=3)
            for child in gen.child_seeds(4):
                ctx = _Ctx.generated(gen, child, _Suite())
                cases.append((ctx, directions(ctx.space, ctx.sibling)))
        # zero distance in x, distance 1 in y: the map (0, 1) is the
        # identity on x but not uniformly continuous into y
        ctx = _Ctx.generated(InstanceGenerator(seed=41), 0, _Suite())
        x = VSpace(E, ["a", "b"], [[0, 0], [0, 0]])
        y = VSpace(E, ["u", "v", "w"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        cases.append((ctx, directions(x, y)))
        verdicts = set()
        for ctx, pairs in cases:
            for source, target in pairs:
                tv = combined_test_values(source, target)
                for fidx in product(range(target.size), repeat=source.size):
                    fmap = {p: target.points[v] for p, v in zip(source.points, fidx)}
                    memo = ctx.uc(fidx, source, target)
                    loop = bool(_uc_over(fidx, source, target, tv, tv))
                    closed = bool(is_uniformly_continuous(fmap, source, target))
                    assert memo == loop == closed, (source, target, fidx)
                    verdicts.add(memo)
        assert verdicts == {True, False}


class TestSuiteSharing:
    # one `run_theorem_suite` call builds, validates and derives each
    # distinct space once (`_Suite`); every check still runs on every
    # instance, and reads what an instance that shares nothing derives.
    # The generators are `qc verify`'s at seed 99: its theorems section
    # draws 13 distinct spaces in 25 ext_rational instances and 4 in 12 Q3
    # ones, its structures section 25 in 25
    @staticmethod
    def _generators():
        Q3 = BUILTIN_QUANTALES["Q3"]
        return (
            (InstanceGenerator(seed=99, force_uva=True), 25),
            (InstanceGenerator(seed=100, quantale=Q3, force_uva=True), 12),
            (InstanceGenerator(seed=101), 25),
            (InstanceGenerator(seed=43, quantale=Q3, force_separated=True), 8),
        )

    @staticmethod
    def _derived(ctx):
        """What the instance reads from the suite's tables, as plain data."""
        from itertools import product

        space, sibling, state = ctx.space, ctx.sibling, ctx.state
        cores = range(space.full_mask + 1)
        rng = ctx.check_rng("test.derived")
        maps = [(tuple(rng.randrange(t.size) for _ in range(s.size)), s, t)
                for s, t in product((space, sibling), repeat=2) for _ in range(6)]
        quotient, projection = ctx.quotient
        out = {
            "space": (space.points, space.dmat, sibling.points, sibling.dmat),
            "verdicts": (ctx.uva, ctx.va),
            "cauchy": [(ctx.cauchy(m, True), ctx.cauchy(m, False), ctx.minimal(m)) for m in cores],
            "round": [(ctx.round_(m), ctx.roundified(m)) for m in cores],
            "point_filters": [f.core_mask for fwd in (True, False) for f in ctx.point_filters(fwd)],
            "tilde": ([f.core_mask for f in ctx.tilde.filters], ctx.tilde.space.dmat),
            "quotient": (quotient.points, quotient.dmat, projection),
            "sep_sibling": (ctx.sep_sibling.points, ctx.sep_sibling.dmat),
            "oracles": (state.va_loop, state.uva_loop, state.va_topologies, state.identity_uc,
                        state.base_refinement, state.zero_symmetric),
            "uc": [ctx.uc(fidx, s, t) for fidx, s, t in maps],
        }
        completions = [ctx.completion_of(ctx.sep_sibling)]
        if ctx.uva:
            # off UVA the filter space breaks the triangle law, and has no quotient
            tilde_quotient, tilde_projection = ctx.suite.state(ctx.tilde.space).quotient
            out["tilde_quotient"] = (tilde_quotient.points, tilde_quotient.dmat, tilde_projection)
            completions += [ctx.completion, ctx.completion_of(quotient)]
        out["completions"] = [([f.core_mask for f in c.filters], c.space.dmat, c.embedding)
                              for c in completions]
        return out

    def test_checks_read_what_an_unshared_instance_derives(self):
        from qc.verify import THEOREM_CHECKS, TheoremCheck, _Ctx, _Suite, _gates_open

        def logged(check, log):
            def fn(ctx):
                witness = check.fn(ctx)
                log.append((check.id, ctx.seed, witness))
                return witness

            return TheoremCheck(check.id, fn, check.gates)

        checks = THEOREM_CHECKS + (TheoremCheck("test.derived", self._derived),)
        for gen, count in self._generators():
            shared, alone = [], []
            reports = run_theorem_suite(gen.contexts(count), checks=[logged(c, shared) for c in checks])
            for child in gen.child_seeds(count):
                ctx = _Ctx.generated(gen, child, _Suite())
                alone += [(c.id, child, c.fn(ctx)) for c in checks if _gates_open(ctx, c.gates)]
            assert len(shared) == len(alone) and shared == alone, gen
            # every check ran on every instance it ran on before, and only
            # the probe, whose witness is its data, failed
            for report in reports:
                ran = [w for cid, _, w in alone if cid == report.id]
                assert report.instances == len(ran), report.id
                assert report.passes == ran.count(None), report.id
                assert report.ok == (report.id != "test.derived"), report.id

    def test_equal_spaces_share_one_object_and_state(self):
        from qc.verify import THEOREM_CHECKS, TheoremCheck

        for gen, count in self._generators():
            seen = []
            probe = TheoremCheck("test.seen", lambda ctx: seen.append(ctx))
            run_theorem_suite(gen.contexts(count), checks=THEOREM_CHECKS[:1] + (probe,))
            assert len(seen) == count
            for a in seen:
                for b in seen:
                    assert (a.space == b.space) == (a.space is b.space) == (a.state is b.state)
                    assert (a.sibling == b.sibling) == (a.sibling is b.sibling)
                    if a.sibling == b.sibling:
                        assert a.suite.state(a.sibling) is b.suite.state(b.sibling)
                assert a.suite is seen[0].suite and a.state is a.suite.state(a.space)
            distinct = len({id(ctx.state) for ctx in seen})
            if gen.force_uva:
                assert distinct < count, gen

    def test_each_space_quotiented_once(self, monkeypatch):
        # one suite run takes the separation quotient of each space object
        # once: a generated space, a sibling, or a shared Cauchy filter space
        import qc.verify as verify

        quotiented, built = [], []
        quotient, filter_space = verify.separation_quotient, verify.cauchy_filter_space
        monkeypatch.setattr(verify, "separation_quotient",
                            lambda space: quotiented.append(space) or quotient(space))
        monkeypatch.setattr(verify, "cauchy_filter_space",
                            lambda space: built.append(filter_space(space)) or built[-1])
        gen, count = self._generators()[0]
        run_theorem_suite(gen.contexts(count))
        assert len({id(space) for space in quotiented}) == len(quotiented)
        tildes = {id(tilde.space) for tilde in built}
        assert sum(id(space) in tildes for space in quotiented) == len(built) > 0

    def test_spaces_apart_when_only_the_key_differs(self):
        # a key is value * scale on the extended rationals; past the key
        # budget the keys are Fractions, equal to another quantale's table
        # indices; and a forced separation changes the space of a key
        from qc.verify import _keyed_space

        Q3 = BUILTIN_QUANTALES["Q3"]
        ext, q3 = InstanceGenerator(seed=0), InstanceGenerator(seed=0, quantale=Q3)
        table = {}
        at_one = _keyed_space(ext, [[0, 2], [2, 0]], 1, table)
        at_two = _keyed_space(ext, [[0, 2], [2, 0]], 2, table)
        assert (at_one.d("p0", "p1"), at_two.d("p0", "p1")) == (2, 1)
        assert _keyed_space(ext, [[0, 2], [2, 0]], 2, table) is at_two
        fractions = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
        ranks = _keyed_space(ext, fractions, None, table)
        indices = _keyed_space(q3, [[0, 1], [1, 0]], None, table)
        assert (ranks.quantale, indices.quantale) == (E, Q3)
        both = _keyed_space(ext, [[0, 0], [0, 0]], 1, table)
        one = _keyed_space(ext._replace(force_separated=True), [[0, 0], [0, 0]], 1, table)
        assert (both.size, one.size) == (2, 1)
        spaces = [at_one, at_two, ranks, indices, both, one]
        assert len(table) == len({id(s) for s in spaces}) == len(spaces)
        assert all(validate_vspace(s).ok for s in spaces)

    def test_uva_guard_runs_once_on_a_shared_space(self):
        # a space first built without forcing UVA is checked for it when a
        # generator that forces UVA meets its key
        from qc import InvariantError
        from qc.verify import _keyed_space

        table = {}
        free, uva = InstanceGenerator(seed=0), InstanceGenerator(seed=0, force_uva=True)
        built = _keyed_space(free, [[0, 0], [1, 0]], 1, table)
        with pytest.raises(InvariantError, match="uniformly vanishing asymmetry"):
            _keyed_space(uva, [[0, 0], [1, 0]], 1, table)
        assert _keyed_space(free, [[0, 0], [1, 0]], 1, table) is built
        symmetric = _keyed_space(free, [[0, 1], [1, 0]], 1, table)
        assert _keyed_space(uva, [[0, 1], [1, 0]], 1, table) is symmetric

    def test_states_apart_when_only_the_points_or_distances_differ(self):
        from qc.verify import _Suite

        suite = _Suite()
        a = VSpace(E, ["a", "b"], [[0, 1], [0, 0]])
        renamed = VSpace(E, ["b", "a"], [[0, 1], [0, 0]])
        other = VSpace(E, ["a", "b"], [[0, 2], [0, 0]])
        twin = VSpace(E, ["a", "b"], [[0, 1], [0, 0]])
        states = [suite.state(s) for s in (a, renamed, other)]
        assert len({id(s) for s in states}) == 3
        assert [s.space for s in states] == [a, renamed, other]
        assert suite.state(twin) is states[0]

    def test_no_state_outlives_the_call(self):
        import gc
        import weakref

        from qc.verify import THEOREM_CHECKS, TheoremCheck

        refs = []

        def keep(ctx):
            refs.extend(weakref.ref(o) for o in (ctx.suite, ctx.state, ctx.space, ctx.sibling))

        checks = THEOREM_CHECKS + (TheoremCheck("test.keep", keep),)
        run_theorem_suite(InstanceGenerator(seed=99, force_uva=True).contexts(6), checks=checks)
        gc.collect()
        assert len(refs) == 24 and all(r() is None for r in refs)


class TestFailureReporting:
    def test_failing_check_recorded_as_data(self):
        from qc.verify import TheoremCheck, run_theorem_suite

        def bad(ctx):
            return {"boom": True}

        gen = InstanceGenerator(seed=31, force_uva=True)
        reports = run_theorem_suite(gen.contexts(3), checks=(TheoremCheck("test.always_fails", bad),))
        report = [r for r in reports if r.id == "test.always_fails"][0]
        assert report.instances == 3 and report.passes == 0
        assert len(report.failures) == 3
        for record in report.failures:
            assert set(record) == {"seed", "instance", "witness"}
            assert record["witness"] == {"boom": True}
            assert record["instance"]["points"]

    def test_raising_check_becomes_witness(self):
        from qc import PreconditionError as PE
        from qc.verify import TheoremCheck, run_theorem_suite

        def explodes(ctx):
            raise PE("deliberate")

        gen = InstanceGenerator(seed=32, force_uva=True)
        reports = run_theorem_suite(gen.contexts(2), checks=(TheoremCheck("test.raises", explodes),))
        report = [r for r in reports if r.id == "test.raises"][0]
        assert report.failures
        assert report.failures[0]["witness"] == {"error": "deliberate"}


class TestNonChainSuite:
    def test_theorem_suite_over_pinched_diamond(self, pinched):
        gen = InstanceGenerator(seed=606, quantale=pinched, force_uva=True)
        reports = run_theorem_suite(gen.contexts(10))
        assert all(r.ok for r in reports), [r.id for r in reports if not r.ok]

    def test_filter_morphism_checks_over_pinched_diamond(self, pinched):
        import qc.verify as verify

        checks = tuple(c for c in verify.THEOREM_CHECKS
                       if c.id in TestFilterMorphismChecks.CHECKS)
        reports = run_theorem_suite(InstanceGenerator(seed=608, quantale=pinched).contexts(6),
                                    checks=checks)
        assert all(r.ok and r.instances == 6 for r in reports)


class TestLazyImport:
    def test_import_qc_leaves_the_oracles_unloaded(self):
        # a fresh interpreter: this one has loaded qc.verify already
        import os
        import subprocess
        import sys

        import qc

        script = (
            "import sys, qc\n"
            "assert 'qc.verify' not in sys.modules\n"
            "assert qc.serialize.parse_space\n"
            "assert qc.triangle_repair is qc.verify.triangle_repair\n"
            "from qc import oracle_gate\n"
        )
        src = os.path.dirname(os.path.dirname(qc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        with pytest.raises(AttributeError, match="no_such_name"):
            qc.no_such_name

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # records are named tuples: `dataclasses` would pull in `inspect`
        # and `ast` on every process start
        import os
        import subprocess
        import sys

        import qc

        script = (
            "import sys\n"
            "import qc, qc.cli, qc.verify\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
        )
        src = os.path.dirname(os.path.dirname(qc.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"


class TestSubsetScansStayInVerify:
    def test_no_subset_loop_outside_verify(self):
        # exponential enumerations are oracles in `qc.verify`; the library
        # itself uses closed forms
        from pathlib import Path

        import qc

        hits = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(Path(qc.__file__).parent.glob("*.py"))
            if path.name != "verify.py"
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if "range(1 <<" in line
        ]
        assert hits == []
