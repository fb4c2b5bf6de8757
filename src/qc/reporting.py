"""Small result types shared by validators and predicates.

Records are `typing.NamedTuple`s, here and across `qc`: immutable, cheap
to build, and loaded without `dataclasses` (whose import pulls in
`inspect` and `ast`, a cost every fresh `qc` process would pay).
"""

from __future__ import annotations

from typing import NamedTuple


class Verdict(NamedTuple):
    """Boolean outcome carrying a witness for diagnosability.

    Predicates return a Verdict instead of a bare bool so that a negative
    answer always explains itself (the failing epsilon, the offending pair,
    the missing point).  Truthiness follows `ok`.
    """

    ok: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.ok


class CheckFailure(NamedTuple):
    check: str
    witness: dict


class ValidationReport(NamedTuple):
    """Outcome of a structural or axiomatic validation run."""

    subject: str
    failures: tuple[CheckFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.ok

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(f.check for f in self.failures)
