import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinerkit.graph import StpInstance, WeightedGraph
from steinerkit.steinlib import (
    KNOWN_OPTIMA,
    MAGIC,
    SteinlibParseError,
    edge_list_text,
    parse_steinlib,
    parse_steinlib_file,
    write_steinlib,
    write_steinlib_file,
)

SAMPLE = """33D32945 STP File, STP Format Version 1.0

SECTION Comment
Name "toy"
Creator "test"
END

SECTION Graph
Nodes 4
Edges 5
E 1 2 1
E 1 3 4
E 2 3 2
E 2 4 5
E 3 4 1
END

SECTION Terminals
Terminals 2
T 1
T 4
END

EOF
"""


def test_parse_sample():
    inst = parse_steinlib(SAMPLE)
    assert inst.name == "toy"
    assert inst.graph.vertex_count == 4
    assert inst.graph.edge_count == 5
    assert inst.terminal_list == [0, 3]  # T 1, T 4 remapped to 0-based
    assert inst.graph.weight(0, 1) == 1.0
    assert inst.graph.weight(2, 3) == 1.0


def test_parse_ignores_unknown_sections_and_blank_lines():
    text = SAMPLE.replace(
        "SECTION Terminals",
        "SECTION Coordinates\nDD 1 0 0\nEND\n\nSECTION Terminals",
    )
    inst = parse_steinlib(text)
    assert inst.terminal_list == [0, 3]


def test_parse_accepts_arc_lines_as_undirected():
    text = SAMPLE.replace("E 3 4 1", "A 3 4 1")
    inst = parse_steinlib(text)
    assert inst.graph.weight(2, 3) == 1.0


def test_opt_and_bound_comments_round_trip():
    text = SAMPLE.replace('Name "toy"', 'Name "toy"\nOpt 6\nBound 9.5')
    inst = parse_steinlib(text)
    assert inst.known_opt == 6.0
    assert inst.bound == 9.5
    again = parse_steinlib(write_steinlib(inst))
    assert again.known_opt == 6.0 and again.bound == 9.5


def test_registry_fallback_for_known_instances():
    text = SAMPLE.replace('Name "toy"', 'Name "b02"')
    assert parse_steinlib(text).known_opt == KNOWN_OPTIMA["b02"] == 83


def test_explicit_opt_beats_registry():
    text = SAMPLE.replace('Name "toy"', 'Name "b02"\nOpt 99')
    assert parse_steinlib(text).known_opt == 99.0


def test_missing_graph_section():
    with pytest.raises(SteinlibParseError, match="missing SECTION Graph"):
        parse_steinlib(MAGIC + "\nSECTION Comment\nEND\nEOF\n")


@pytest.mark.parametrize("mutation, message", [
    (("SECTION Terminals", "SECTION Terms"), "missing SECTION Terminals"),
    (("E 3 4 1", "E 3 4 1\nE 4 3 2"), "duplicate edge"),
    (("E 3 4 1", "E 3 9 1"), "out of range"),
    (("E 3 4 1", "E 3 4 0"), "non-positive weight"),
    (("E 3 4 1", "E 3 3 1"), "self loop"),
    (("T 4", "T 9"), "out of range"),
    (("Nodes 4", "Nodes"), "line 9: expected 'Nodes n', got 'Nodes'"),
    (("T 4", "T"), "line 21: expected 'T id', got 'T'"),
    (('Creator "test"', "Opt inf"), "line 5: non-finite Opt: 'inf'"),
    (('Creator "test"', "Bound nan"), "line 5: non-finite Bound: 'nan'"),
    (("E 3 4 1", "E 3 4 inf"), "line 15: non-finite edge weight: 'inf'"),
])
def test_parse_errors_name_the_problem(mutation, message):
    old, new = mutation
    with pytest.raises(SteinlibParseError, match=message):
        parse_steinlib(SAMPLE.replace(old, new))


def test_parse_error_carries_line_number():
    bad = SAMPLE.replace("E 3 4 1", "E 3 4 0")
    with pytest.raises(SteinlibParseError) as exc_info:
        parse_steinlib(bad)
    assert exc_info.value.line_no == 15  # the mutated edge line
    assert "line 15" in str(exc_info.value)


def test_terminals_required_nonempty():
    text = SAMPLE.replace("T 1\nT 4\n", "")
    with pytest.raises(SteinlibParseError, match="no terminals"):
        parse_steinlib(text)


def test_write_round_trip_structural_equality():
    inst = parse_steinlib(SAMPLE)
    again = parse_steinlib(write_steinlib(inst))
    assert again.graph == inst.graph
    assert again.terminals == inst.terminals
    assert again.name == inst.name


def test_write_starts_with_magic_and_integers_have_no_decimal():
    inst = parse_steinlib(SAMPLE)
    text = write_steinlib(inst)
    assert text.startswith(MAGIC)
    assert "E 1 2 1\n" in text
    assert "E 1 2 1.0" not in text


def test_file_round_trip(tmp_path):
    inst = parse_steinlib(SAMPLE)
    path = tmp_path / "toy.stp"
    write_steinlib_file(inst, path)
    assert parse_steinlib_file(path).graph == inst.graph


def test_fractional_weights_round_trip_exactly():
    g = WeightedGraph(3, [(0, 1, 0.1), (1, 2, 2.5)])
    inst = StpInstance(graph=g, terminals=frozenset({0, 2}), name="frac")
    again = parse_steinlib(write_steinlib(inst))
    assert again.graph.weight(0, 1) == 0.1
    assert again.graph.weight(1, 2) == 2.5


def test_edge_list_text_is_one_based_and_sorted():
    text = edge_list_text([(2, 3, 1.0), (0, 1, 2.5)])
    assert text == "1 2 2.5\n3 4 1\n"
    assert edge_list_text([]) == ""


@st.composite
def stp_instances(draw):
    """Instances with float or integer weights, isolated vertices, and
    optional name, optimum and bound."""
    n = draw(st.integers(1, 15))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    weight = st.integers(1, 10**6).map(float) | st.floats(1e-6, 1e9)
    graph = WeightedGraph(n, [(u, v, draw(weight)) for u, v in chosen])
    component = sorted(graph.component_of(draw(st.integers(0, n - 1))))
    terminals = draw(st.sets(st.sampled_from(component), min_size=1))
    name = draw(st.none() | st.from_regex(r"[a-z][a-z0-9_.-]{0,11}", fullmatch=True)
                .filter(lambda s: s not in KNOWN_OPTIMA))
    value = st.none() | st.integers(0, 10**6).map(float) | st.floats(0, 1e9)
    return StpInstance(graph=graph, terminals=frozenset(terminals),
                       known_opt=draw(value), bound=draw(value), name=name)


@settings(max_examples=150, deadline=None)
@given(inst=stp_instances())
def test_write_parse_round_trips(inst):
    text = write_steinlib(inst)
    again = parse_steinlib(text)
    assert again == inst
    assert write_steinlib(again) == text
