"""Property tests drawn by hypothesis, when it is installed.

`qc validate-space` runs in process on drawn space files, and its
structured failures are compared with the triple loop of
`definitional_validate_vspace` on the parsed space.
"""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qc import serialize  # noqa: E402
from qc.cli import _jsonable, main  # noqa: E402
from qc.verify import definitional_validate_vspace  # noqa: E402

# four distinct primes just above 2**40: the lcm of all four has 161 bits,
# past the 128-bit key budget, and that of any three 121 bits, within it
# as wide int lanes
PRIMES = (1099511627791, 1099511627803, 1099511627831, 1099511627873)
QUARTERS = ["0", "1/4", "1/2", "3/4", "1", "5/4", "3/2", "2", "inf"]
PRIMED = ["0", "inf"] + [f"{k * p + 1}/{p}" for p in PRIMES for k in (0, 1, 2)]


@pytest.fixture(scope="module")
def pools(pinched):
    return {
        "quarters": ("ext_rational", QUARTERS),
        "primes": ("ext_rational", PRIMED),
        "pinched": (serialize.quantale_to_payload(pinched), list(range(pinched.size))),
    }


def test_validate_space_matches_the_triple_loop(pools, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("drawn") / "space.json")
    routes = set()

    @st.composite
    def documents(draw):
        kind = draw(st.sampled_from(sorted(pools)))
        quantale, pool = pools[kind]
        n = draw(st.integers(1, 6))
        entry = st.sampled_from(pool)
        d = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        if draw(st.booleans()):
            for i in range(n):
                d[i][i] = pool[0]
        return kind, {"quantale": quantale, "points": [f"p{i}" for i in range(n)], "d": d}

    @hypothesis.settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @hypothesis.given(documents())
    def check(drawn):
        kind, doc = drawn
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps_canonical(serialize.envelope("space", doc)))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["validate-space", path, "--format", "structured"])
        assert code in (0, 1)
        got = serialize.loads_envelope(out.getvalue(), "report")[1]["failures"]
        space = serialize.parse_space(doc)
        want = [{"check": f.check, "witness": _jsonable(f.witness)}
                for f in definitional_validate_vspace(space).failures]
        assert got == json.loads(json.dumps(want)), doc
        assert code == (1 if want else 0)
        routes.add((kind, space._ranks.keys is None))

    check()
    # every pool ran, and the primes both with keys and without
    assert routes == {("quarters", False), ("primes", False), ("primes", True),
                      ("pinched", True)}, routes
