"""The records of `qc` are immutable named tuples: their checks,
truthiness and generator streams, and that none reaches an output."""

import hashlib

import pytest

from qc import (
    BUILTIN_QUANTALES,
    EXT_RATIONAL,
    Filter,
    InstanceGenerator,
    StructureError,
    Verdict,
    VSpace,
    complete,
    extend_to_completion,
    has_uniformly_vanishing_asymmetry,
    has_vanishing_asymmetry,
    is_uniformly_continuous,
    quasi_uniformity_of,
    serialize,
    topology_of,
    uva_equivalence_report,
    va_equivalence_report,
    validate_value_quantale,
    validate_vspace,
)
from qc.reporting import CheckFailure, ValidationReport
from qc.structures import uniformities_equal
from qc.verify import THEOREM_CHECKS, _Ctx, _Suite, cauchy_filter_space

from helpers import generated


def _records(space):
    comp = complete(space)
    return [
        Verdict(True),
        CheckFailure("triangle", {}),
        ValidationReport("space"),
        Filter(space, 1),
        comp,
        extend_to_completion({p: p for p in space.points}, comp, space),
        serialize.completion_space_doc(comp),
        topology_of(space),
        quasi_uniformity_of(space),
        va_equivalence_report(space),
        InstanceGenerator(seed=1),
        cauchy_filter_space(space),
        THEOREM_CHECKS[0],
    ]


def _is_record(obj):
    return isinstance(obj, tuple) and hasattr(obj, "_fields")


def _contains_record(obj):
    if _is_record(obj):
        return True
    if isinstance(obj, dict):
        return any(_contains_record(k) or _contains_record(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return any(_contains_record(v) for v in obj)
    return False


class TestFrozen:
    def test_every_field_is_read_only(self, x2s):
        records = _records(x2s)
        assert len({type(r) for r in records}) == 13
        for record in records:
            assert _is_record(record)
            for field in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, None)
            with pytest.raises(AttributeError):
                record.extra = None

    def test_the_suite_report_stays_mutable(self):
        from qc.verify import VerificationReport

        report = VerificationReport("check")
        report.instances += 1
        assert (report.id, report.instances, report.passes, report.failures) == (
            "check", 1, 0, ()
        )
        with pytest.raises(AttributeError):
            report.extra = None


class TestFilterRange:
    def test_core_mask_ends(self, x3z):
        assert Filter(x3z, 0).core_mask == 0
        assert Filter(x3z, x3z.full_mask).core == x3z.points
        for bad in (-1, x3z.full_mask + 1):
            with pytest.raises(StructureError, match=f"core mask {bad} out of range"):
                Filter(x3z, bad)

    def test_replace_keeps_the_check(self, x3z):
        f = Filter(x3z, 1)
        assert f._replace(core_mask=x3z.full_mask) == Filter(x3z, x3z.full_mask)
        assert type(f._replace(core_mask=2)) is Filter
        with pytest.raises(StructureError):
            f._replace(core_mask=x3z.full_mask + 1)


class TestTruthiness:
    def test_verdict_follows_ok(self):
        assert Verdict(True) and Verdict(True, {"why": 1})
        # a tuple of two fields would be true; the verdict is not
        assert not Verdict(False) and not Verdict(False, {"pair": ("a", "b")})

    def test_validation_report_follows_failures(self):
        assert ValidationReport("space")
        failed = ValidationReport("space", (CheckFailure("triangle", {}),))
        assert not failed and not failed.ok
        assert failed.failed_checks() == ("triangle",)


class TestGeneratorReplace:
    # the first four sibling spaces of each generator, as dumped by
    # `serialize.dumps_canonical`, pinned when the records were dataclasses
    PINNED = (
        (InstanceGenerator(seed=42),
         [1612804596903181184, 2281845767306575217, 3761874727305115637, 3048177228795838303],
         "f3a8ebe015392b97fd4ee5b769cb5d41513e2fa63d03f0ad30b9ec35c9991e88"),
        (InstanceGenerator(seed=43, quantale=BUILTIN_QUANTALES["Q3"], force_separated=True),
         [4884409779251268803, 2826176049873762135, 7386733248170854856, 3376233547665659701],
         "b68ecb3fcd90696343f12223b411d77244b76a07de3b9e3e13aa518613436bf6"),
    )

    @pytest.mark.parametrize("gen, seeds, digest", PINNED)
    def test_sibling_streams_unchanged(self, gen, seeds, digest):
        assert gen.child_seeds(4) == seeds
        blob = "".join(
            serialize.dumps_canonical(serialize.space_to_payload(_Ctx.generated(gen, c, _Suite()).sibling))
            for c in seeds
        )
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_replace_equals_construction(self):
        gen = InstanceGenerator(seed=5, max_points=4, force_separated=True)
        sibling = gen._replace(force_uva=True, force_separated=False)
        direct = InstanceGenerator(seed=5, max_points=4, force_uva=True)
        assert type(sibling) is InstanceGenerator and sibling == direct
        assert sibling.child_seeds(6) == direct.child_seeds(6)
        assert list(generated(sibling, 6)) == list(generated(direct, 6))


class TestNoRecordInOutput:
    """Records are tuples, so `json.dumps`, `cli._jsonable` and
    `isinstance(..., tuple)` would write one as a list instead of refusing
    it or writing its `str()`.  No witness or report carries one."""

    def test_witnesses_hold_plain_values(self, diamond_tables, saturated_diamond_tables):
        witnesses = []
        for gen in (InstanceGenerator(seed=44, max_points=4),
                    InstanceGenerator(seed=45, quantale=BUILTIN_QUANTALES["Q3"])):
            for _, space in generated(gen, 30):
                op = space.dual()
                ident = {p: p for p in space.points}
                verdicts = [
                    has_vanishing_asymmetry(space),
                    has_uniformly_vanishing_asymmetry(space),
                    uniformities_equal(space),
                    is_uniformly_continuous(ident, space, op),
                    *va_equivalence_report(space).conditions.values(),
                    *uva_equivalence_report(space).conditions.values(),
                ]
                witnesses += [v.witness for v in verdicts]
        bad = VSpace(EXT_RATIONAL, ["a", "b", "c"], [[0, 1, 5], [1, 0, 1], [1, 1, 2]])
        for report in (validate_vspace(bad), validate_value_quantale(*diamond_tables),
                       validate_value_quantale(*saturated_diamond_tables)):
            assert report.failures
            witnesses += [f.witness for f in report.failures]
        assert any(w for w in witnesses)
        assert not any(_contains_record(w) for w in witnesses)

    def test_failed_suite_report_holds_plain_values(self, monkeypatch):
        import qc.verify as verify

        real = verify.complete
        monkeypatch.setattr(
            verify, "complete", lambda s: real(s)._replace(space=real(s).space.dual())
        )
        reports = verify.run_theorem_suite(InstanceGenerator(seed=13, force_uva=True).contexts(6))
        failures = [rec for r in reports for rec in r.failures]
        assert failures
        assert not any(_contains_record(r.payload()) for r in reports)
