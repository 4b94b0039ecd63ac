"""Every text source the package reads: ``.stp`` files, DIMACS CNF, the
vertex-cover and exact-cover sources, and generator specs.  Each either
gives a value or raises a ``ValueError``; token soups drawn from each
format's own vocabulary look for any other exception.  Declared sizes stay
small (integer tokens below 10), so a soup never asks for a large graph."""

from contextlib import suppress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit.generators import parse_generator_spec
from steinerkit.reductions import (
    parse_dimacs,
    parse_mvc_source,
    parse_x3c_source,
    reduce_mvc,
    reduce_sat,
    reduce_x3c,
)
from steinerkit.steinlib import MAGIC, SteinlibParseError, parse_steinlib

STP = f"{MAGIC}\nSECTION Graph\nNodes 3\nE 1 2 1\nE 2 3 1\nEND\nSECTION Terminals\nT 1\nT 3\nEND\nEOF\n"


@pytest.mark.parametrize("parse, text, line, token", [
    (parse_steinlib, STP.replace("Nodes 3", "Nodes 3.0"), 3, "3.0"),
    (parse_steinlib, STP.replace("E 2 3 1", "E 2 x 1"), 5, "x"),
    (parse_steinlib, STP.replace("T 3", "T t3"), 9, "t3"),
    (parse_dimacs, "c cnf\np cnf 2 1\n1 -x 0\n", 3, "-x"),
    (parse_mvc_source, "3 2 1\n0 x\n1 2\n", 2, "x"),
    (parse_x3c_source, "6 1\n\n0 1 y\n", 3, "y"),
])
def test_bad_integer_token_names_line_and_token(parse, text, line, token):
    with pytest.raises(SteinlibParseError) as exc:
        parse(text)
    assert exc.value.line_no == line
    assert str(exc.value) == f"line {line}: {token!r} is not an integer"


NUMBERS = ["-2", "-1", "0", "1", "2", "3", "5", "9", "1.5", "1e2", "inf", "nan", "x", ""]


@st.composite
def soup(draw, words, base):
    """The well-formed source ``base`` after up to four edits, each inserting
    a line of a few tokens from ``words`` or replacing a line with one.
    Edits of a valid text reach further into a reader than random text."""
    lines = base.splitlines()
    token_line = st.lists(st.sampled_from(words), max_size=5).map(" ".join)
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()) and at < len(lines):
            del lines[at]
        lines.insert(at, draw(token_line))
    return "\n".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=soup(["33D32945", "SECTION", "Comment", "Graph", "Terminals", "Coordinates",
                  "END", "EOF", "Name", '"b02"', "Opt", "Bound", "Nodes", "Edges",
                  "E", "A", "T", "#", *NUMBERS], STP))
def test_stp_soup(text):
    with suppress(ValueError):
        parse_steinlib(text)


@settings(max_examples=300, deadline=None)
@given(text=soup(["p", "cnf", "c", "%", *NUMBERS], "p cnf 3 2\n1 -2 0\n3 0\n"))
def test_dimacs_soup(text):
    with suppress(ValueError):
        reduce_sat(*parse_dimacs(text))


@settings(max_examples=300, deadline=None)
@given(text=soup(["#", *NUMBERS], "3 2 1\n0 1\n1 2\n"), complete=st.booleans())
def test_mvc_soup(text, complete):
    with suppress(ValueError):
        n, edges, k = parse_mvc_source(text)
        reduce_mvc(n, edges, k, complete=complete)


@settings(max_examples=300, deadline=None)
@given(text=soup(["#", *NUMBERS], "6 2\n0 1 2\n3 4 5\n"))
def test_x3c_soup(text):
    with suppress(ValueError):
        reduce_x3c(*parse_x3c_source(text))


SPEC_ITEM = st.builds("{}={}".format,
                      st.sampled_from(["n", "m", "w", "d", "p", "k", "beta", "N", ""]),
                      st.sampled_from([*NUMBERS, "0.2", "1:5", "2:", ":3", "1:x"]))


@settings(max_examples=300, deadline=None)
@given(spec=st.builds("{}:{}".format, st.sampled_from(["rr", "er", "ws", "RR", "tree", ""]),
                      st.lists(SPEC_ITEM | st.sampled_from(NUMBERS), max_size=5).map(",".join)))
def test_generator_spec_soup(spec):
    with suppress(ValueError):
        parse_generator_spec(spec)
