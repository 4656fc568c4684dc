"""Generated inputs: command lines exit 0, 1 or 2 without a traceback; canonical_json matches json.dumps."""

import contextlib
import io
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from qpolar.cli import canonical_json, main  # noqa: E402

# a few tokens that are not integers, which argparse itself rejects
NOT_INT = st.sampled_from(["x", "1.5", ""])
N = st.integers(-1, 6).map(str) | NOT_INT
LIMIT = st.integers(-1, 3).map(str) | NOT_INT
WORD = st.text("IXYZ", max_size=13) | st.text(max_size=4)


def optional(*strategies):
    """Either nothing or the drawn tokens, as one list."""
    return st.just([]) | st.tuples(*strategies).map(list)


def fmt(*choices):
    return optional(st.just("--format"), st.sampled_from(choices))


ARGVS = st.one_of(
    st.tuples(st.just(["verify"]), N.map(lambda n: [n]), optional(st.just("--oracle")), fmt("text", "json")),
    st.tuples(st.just(["generators"]), N.map(lambda n: [n]), fmt("text", "json")),
    st.tuples(
        st.just(["spread"]),
        N.map(lambda n: [n]),
        optional(st.just("--method"), st.sampled_from(["desarguesian", "search"])),
        optional(st.just("--all")),
        optional(st.just("--limit"), LIMIT),
        fmt("text", "json"),
    ),
    st.tuples(st.just(["graph"]), N.map(lambda n: [n]), fmt("dot", "json")),
    # "--" ends the options, so a word may start with "-"
    st.tuples(st.just(["commute"]), optional(st.just("--oracle")), st.tuples(st.just("--"), WORD, WORD).map(list)),
).map(lambda parts: [token for part in parts for token in part])


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(ARGVS)
# argvs the derandomized draw never reaches: below and above the caps
@hypothesis.example(["graph", "-1"])
@hypothesis.example(["verify", "-1"])
@hypothesis.example(["generators", "4"])
@hypothesis.example(["generators", "6"])
@hypothesis.example(["graph", "4"])
def test_generated_argv_exits_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        assert out.getvalue() == ""
    else:
        assert err.getvalue() == ""


# JSON payloads: non-ASCII and control-character strings, ints, bools, None,
# and empty containers, in nested lists, tuples and dicts with str keys (or
# int keys, which json converts to strings), and lists of non-empty string
# lists, the shape of the generators output
TEXT = st.text(max_size=6) | st.sampled_from(["", "\x00\t\n\"\\", "\u00e9\u2028\U0001d54f"])
SCALARS = st.none() | st.booleans() | st.integers() | TEXT
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(TEXT, max_size=4)
    | st.lists(st.lists(TEXT, min_size=1, max_size=4), min_size=1, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(TEXT, inner, max_size=4)
    | st.dictionaries(st.integers(), inner, max_size=3),
    max_leaves=20,
)


@hypothesis.settings(max_examples=100, deadline=None, database=None, derandomize=True)
@hypothesis.given(PAYLOADS)
@hypothesis.example({"data": [[], {}, ("IX", "XI")], "kind": "generators", "n": 2})
@hypothesis.example(["IX", 1])
# a list of string lists with an empty item or a str item: not one nested join
@hypothesis.example([["IX"], []])
@hypothesis.example([["IX"], "XI"])
def test_canonical_json_matches_json_dumps(payload):
    assert canonical_json(payload) == json.dumps(payload, sort_keys=True, indent=2)
