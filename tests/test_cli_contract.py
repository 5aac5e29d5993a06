"""The CLI's exit-code contract under generated input: every subcommand
that reads an ideal answers 0, 1 or 2, and no exception escapes main."""

import contextlib
import io
import json
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cellres.cli import main

# every subcommand that takes an input, with the flags that pick its path
COMMANDS = [
    ["check"],
    ["check", "--require", "cointerval"],
    ["resolve", "--method", "ht"],
    ["resolve", "--method", "hom"],
    ["resolve", "--method", "taylor"],
    ["complex", "--method", "ek", "--format", "json"],
    ["complex", "--method", "hom", "--format", "off"],
    ["betti", "--format", "csv"],
    ["betti", "--format", "json"],
    ["enumerate-rules"],
    ["verify"],
]

MAX_N = 6  # variables
MAX_K = 6  # generators, so that verify stays fast


def _of_degree(n, d):
    """Exponent vectors of the monomials of degree d in n variables."""
    return [
        tuple(sum(1 for i in c if i == v) for v in range(n))
        for c in combinations_with_replacement(range(n), d)
    ]


# distinct generators of one degree are always minimal
exponent_vectors = st.tuples(st.integers(1, MAX_N), st.integers(1, 3)).flatmap(
    lambda nd: st.lists(
        st.sampled_from(_of_degree(*nd)), min_size=1, max_size=MAX_K, unique=True
    )
)


def _monomial_text(e):
    factors = [
        "x%d" % i if a == 1 else "x%d^%d" % (i, a)
        for i, a in enumerate(e, start=1)
        if a
    ]
    return "*".join(factors) or "1"


@st.composite
def ideal_texts(draw):
    """A small ideal spelled as monomials, bracket tuples, or a JSON
    object."""
    gens = draw(exponent_vectors)
    form = draw(st.sampled_from(["factors", "tuples", "json"]))
    if form == "json":
        return json.dumps({"n": len(gens[0]), "gens": gens})
    spell = _monomial_text if form == "factors" else lambda e: json.dumps(list(e))
    sep = draw(st.sampled_from([", ", "\n", ","]))
    return sep.join(spell(e) for e in gens)


@st.composite
def dgraph_texts(draw):
    """A small d-graph, or a bare header "d 0", which has no vertices."""
    d = draw(st.integers(1, 3))
    n = draw(st.sampled_from([0, *range(d, MAX_N + 1)]))
    if not n:
        return "%d 0" % d
    edges = draw(
        st.lists(
            st.sampled_from(list(combinations(range(1, n + 1), d))),
            min_size=1,
            max_size=MAX_K,
            unique=True,
        )
    )
    return "%d %d\n" % (d, n) + "\n".join(" ".join(map(str, e)) for e in edges)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "gens", "x"]), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def mangled_texts(draw):
    """A well-formed input with one character dropped, replaced or added."""
    text = draw(st.one_of(ideal_texts(), dgraph_texts()))
    i = draw(st.integers(0, len(text)))
    return text[:i] + draw(st.text(max_size=1)) + text[i + 1 :]


malformed = st.one_of(
    st.text(alphabet="x0123456789*^,[]{}\": \n-.", max_size=30),
    json_values.map(json.dumps),
    mangled_texts(),
)


@settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    st.sampled_from(COMMANDS),
    st.one_of(ideal_texts(), dgraph_texts(), malformed),
)
def test_exit_codes_on_generated_input(command, text):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(command + ["--", text])  # "--": text may start with "-"
    assert code in (0, 1, 2), (command, text, code)
    if code == 2:
        assert err.getvalue().startswith("input error: "), err.getvalue()


@pytest.mark.parametrize("text", ["1 0", "3 0", "2 0\n"])
def test_a_dgraph_with_no_vertices_is_an_input_error(text):
    for command in COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(command + ["--", text])
        assert code == 2, (command, text)
        assert err.getvalue() == "input error: edge ideal of an empty graph\n"
