"""Graph-manifold bookkeeping: spec validation, the additivity engine,
cycle consistency, and the torus-knot gluing family."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repvol import jsj, seifert
from repvol.exact import ExactVolume, NumericVolume, Refusal, _shown
from repvol.jsj import (
    DirectVolume,
    Edge,
    FilledSeifert,
    GraphManifoldSpec,
    Piece,
    SmallImage,
    additivity_sum,
    load_graph_document,
    motegi_case,
    motegi_spec,
    rw_consistency,
    validate_spec,
)
from repvol.seifert import SeifertInvariants, dehn_fill, parse_seifert


def _data(name):
    return json.loads(
        resources.files("repvol").joinpath("data", name).read_text("utf-8")
    )


def two_piece_spec(killed=(2, 1)):
    """Two one-holed Seifert pieces glued along their single tori.

    The gluing ((3, -4), (2, -3)) has determinant -1 and fixes the slope
    (2, 1), so both sides kill the same pair.
    """
    seifert = SeifertInvariants(genus=1, pairs=((2, 1),), boundary_count=1)
    pieces = (
        Piece(id="P", kind="seifert", slots=("t",), seifert=seifert),
        Piece(id="Q", kind="seifert", slots=("t",), seifert=seifert),
    )
    edges = (
        Edge(
            a=("P", "t"),
            b=("Q", "t"),
            gluing=((3, -4), (2, -3)),
            killed_slope=killed,
        ),
    )
    return GraphManifoldSpec(pieces=pieces, edges=edges)


# ---------------------------------------------------------------- validation


def test_validate_accepts_two_piece_spec():
    assert validate_spec(two_piece_spec()) == []


def test_validate_motegi_spec():
    assert validate_spec(motegi_spec(2, 3, 2, 5)) == []


def test_validate_rejects_positive_determinant():
    spec = two_piece_spec()
    bad = GraphManifoldSpec(
        pieces=spec.pieces,
        edges=(
            Edge(a=("P", "t"), b=("Q", "t"), gluing=((1, 0), (0, 1))),
        ),
    )
    problems = validate_spec(bad)
    assert any("determinant" in p for p in problems)


def test_validate_rejects_nonprimitive_killed_slope():
    spec = two_piece_spec(killed=(2, 2))
    assert any("not primitive" in p for p in validate_spec(spec))


def test_validate_rejects_slot_reuse_and_unknowns():
    seifert = SeifertInvariants(genus=1, pairs=(), boundary_count=1)
    pieces = (
        Piece(id="P", kind="seifert", slots=("t",), seifert=seifert),
        Piece(id="Q", kind="seifert", slots=("t",), seifert=seifert),
    )
    edges = (
        Edge(a=("P", "t"), b=("Q", "t"), gluing=((0, 1), (1, 0))),
        Edge(a=("P", "t"), b=("R", "t"), gluing=((0, 1), (1, 0))),
    )
    problems = validate_spec(GraphManifoldSpec(pieces=pieces, edges=edges))
    assert any("used more than once" in p for p in problems)
    assert any("unknown piece" in p for p in problems)


def test_validate_rejects_boundary_slot_mismatch():
    piece = Piece(
        id="P",
        kind="seifert",
        slots=("t", "u"),
        seifert=SeifertInvariants(genus=0, pairs=(), boundary_count=1),
    )
    problems = validate_spec(GraphManifoldSpec(pieces=(piece,), edges=()))
    assert any("boundary count" in p for p in problems)


def test_validate_cross_edge_killed_slopes():
    spec = two_piece_spec()
    edge = spec.edges[0]
    # push of (2,1) through the gluing is (2,1); declaring its negative is fine
    ok = Edge(
        a=edge.a, b=edge.b, gluing=edge.gluing,
        killed_slope=(2, 1), killed_slope_b=(-2, -1),
    )
    assert validate_spec(GraphManifoldSpec(spec.pieces, (ok,))) == []
    bad = Edge(
        a=edge.a, b=edge.b, gluing=edge.gluing,
        killed_slope=(2, 1), killed_slope_b=(1, 0),
    )
    problems = validate_spec(GraphManifoldSpec(spec.pieces, (bad,)))
    assert any("declares" in p for p in problems)


def test_validate_duplicate_ids_resolve_against_first_piece():
    seifert = SeifertInvariants(genus=1, pairs=(), boundary_count=1)
    pieces = (
        Piece(id="P", kind="seifert", slots=("t",), seifert=seifert),
        Piece(id="P", kind="seifert", slots=("u",), seifert=seifert),
        Piece(id="P", kind="seifert", slots=("v",), seifert=seifert),
        Piece(id="Q", kind="seifert", slots=("t",), seifert=seifert),
    )
    edges = (
        Edge(a=("P", "t"), b=("Q", "t"), gluing=((0, 1), (1, 0))),
        Edge(a=("P", "u"), b=("P", "v"), gluing=((0, 1), (1, 0))),
    )
    assert validate_spec(GraphManifoldSpec(pieces=pieces, edges=edges)) == [
        "duplicate piece id 'P'",
        "duplicate piece id 'P'",
        "edge 1: piece P has no slot 'u'",
        "edge 1: piece P has no slot 'v'",
    ]


def test_edge_push_to_b():
    edge = Edge(a=("P", "t"), b=("Q", "t"), gluing=((0, 1), (1, 0)))
    assert edge.push_to_b((2, 3)) == (3, 2)


@pytest.mark.parametrize(
    "field, value",
    [
        ("a", ("P", "t", "x")),
        ("a", ("P",)),
        ("b", ["H", "t", "x"]),
        ("b", ()),
        ("killed_slope", (1, 0, 7)),
        ("killed_slope", [1]),
        ("killed_slope_b", (0, 1, 0)),
    ],
)
def test_edge_refuses_pairs_without_two_items(field, value):
    fields = {"a": ("P", "t"), "b": ("H", "t"), "gluing": ((0, 1), (1, 0)), "killed_slope": (1, 0)}
    fields[field] = value
    shape = "[piece, slot]" if field in ("a", "b") else "[a, b]"
    # a longer tuple was once cut to its first two items without a word
    with pytest.raises(TypeError) as info:
        Edge(**fields)
    assert str(info.value) == f"{field} {value!r} is not {shape}"


def _edge(**fields):
    return Edge(**{"a": ("P", "t"), "b": ("H", "t"), "gluing": ((0, 1), (1, 0)), **fields})


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: _edge(a="Pt"), "a 'Pt' is not [piece, slot]"),
        (lambda: _edge(b="Ht"), "b 'Ht' is not [piece, slot]"),
        (lambda: _edge(killed_slope="21"), "killed_slope '21' is not [a, b]"),
        (lambda: _edge(killed_slope_b="21"), "killed_slope_b '21' is not [a, b]"),
        (lambda: _edge(gluing=["34", "23"]), "gluing ['34', '23'] is not a 2x2 matrix"),
        (lambda: _edge(gluing=((3, -4),)), "gluing ((3, -4),) is not a 2x2 matrix"),
        (lambda: SeifertInvariants(1, ["21"], 1), "pairs ['21'] are not all [a, b]"),
        (lambda: FilledSeifert("P", {"t": "21"}, 0), "fillings {'t': '21'} are not all [slot, [a, b]]"),
        (lambda: _edge(a=["P", "t", "junk"]), "a ['P', 't', 'junk'] is not [piece, slot]"),
        (lambda: _edge(b=["H", "t", "junk"]), "b ['H', 't', 'junk'] is not [piece, slot]"),
        (lambda: _edge(killed_slope=[2, 1, 7]), "killed_slope [2, 1, 7] is not [a, b]"),
        (lambda: _edge(killed_slope=[2]), "killed_slope [2] is not [a, b]"),
        (lambda: _edge(killed_slope_b=[2, 1, 0]), "killed_slope_b [2, 1, 0] is not [a, b]"),
        (lambda: Piece(id="P", kind="seifert", slots="tu"), "slots 'tu' is not a list of names"),
        (lambda: _edge(a={"P": 1, "t": 2}), "a {'P': 1, 't': 2} is not [piece, slot]"),
        (lambda: Piece(id="P", kind="seifert", slots={"t": 1}), "slots {'t': 1} is not a list of names"),
        (
            lambda: FilledSeifert("P", [("t", (2, 1)), ("t", (-2, -1))], Fraction(1, 4)),
            "fillings [('t', (2, 1)), ('t', (-2, -1))] fill a slot twice",
        ),
    ],
    ids=[
        "edge_a",
        "edge_b",
        "killed_slope",
        "killed_slope_b",
        "gluing_rows",
        "gluing_one_row",
        "seifert_pair",
        "filling_slope",
        "endpoint_a_too_long",
        "endpoint_b_too_long",
        "slope_too_long",
        "slope_too_short",
        "slope_b_too_long",
        "slots_a_string",
        "edge_a_object",
        "slots_an_object",
        "filling_slot_twice",
    ],
)
def test_records_refuse_the_shapes_the_loader_refuses(build, message):
    # The loader passes JSON values to these constructors unchanged, so
    # each text is the one that graph validate prints inside "malformed
    # entry (...)" (test_cli.py).  A case's killed_slopes[i] is checked by
    # the loader itself, which names the index.
    with pytest.raises(TypeError) as info:
        build()
    assert str(info.value) == message


def test_records_keep_names_as_given():
    # A library caller's names are compared as given, as rw_consistency
    # compares its vertices: piece 1 and piece "1" are two pieces.
    ones = Piece(id=1, kind="hyperbolic", slots=[1, "T"], label="h")
    text = Piece(id="1", kind="hyperbolic", slots=("T",), label="h")
    edge = Edge(a=(1, "T"), b=["1", "T"], gluing=((0, 1), (1, 0)))
    assert (ones.slots, edge.a, edge.b) == ((1, "T"), (1, "T"), ("1", "T"))
    assert validate_spec(GraphManifoldSpec((ones, text), (edge,))) == []
    crossed = Edge(a=("1", 1), b=(1, 1), gluing=((0, 1), (1, 0)))
    assert validate_spec(GraphManifoldSpec((ones, text), (crossed,))) == ["edge 0: piece 1 has no slot 1"]
    filled = FilledSeifert(piece_id=1, fillings=[(1, (2, 1))], coeff=Fraction(1, 4))
    assert (filled.piece_id, filled.fillings) == (1, ((1, (2, 1)),))


def test_names_of_two_types_are_never_compared():
    # names sort by type first, so an int and a string name never meet in a bare sort
    filled = FilledSeifert("P", [("s", (1, 0)), (1, (1, 0))], 0)
    assert filled.fillings == ((1, (1, 0)), ("s", (1, 0)))
    pieces = (Piece(id=1, kind="hyperbolic", slots=("t",), label="a"), Piece(id="Q", kind="hyperbolic", slots=("t",), label="b"))
    spec = GraphManifoldSpec(pieces, (Edge(a=(1, "t"), b=("Q", "t"), gluing=((0, 1), (1, 0)), killed_slope=(1, 0)),))
    volumes = [DirectVolume(1, ExactVolume(1)), DirectVolume("Q", ExactVolume(2))]
    assert additivity_sum(spec, volumes) == ExactVolume(3)
    with pytest.raises(ValueError) as info:
        additivity_sum(spec, volumes[1:])
    assert str(info.value) == "assignments cover ['Q'], expected exactly [1, 'Q']"
    seifert = SeifertInvariants(genus=1, pairs=((2, 1),), boundary_count=2)
    piece = Piece(id="P", kind="seifert", slots=("s", 1), seifert=seifert)
    spec = GraphManifoldSpec((piece,), (Edge(a=("P", 1), b=("P", "s"), gluing=((3, -4), (2, -3)), killed_slope=(2, 1)),))
    with pytest.raises(ValueError) as info:
        additivity_sum(spec, [FilledSeifert("P", [(1, (2, 1))], 0)])
    assert str(info.value) == "piece P: fillings must cover slots [1, 's']"


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"pieces": [{"id": 1, "kind": "hyperbolic", "label": "h", "slots": ["t"]}]},
            "pieces[0].id: expected a string, got 1",
        ),
        (
            {"pieces": [{"id": "P", "kind": "hyperbolic", "label": "h", "slots": ["t"]}], "cases": [{"name": None}]},
            "cases[0].name: expected a string, got None",
        ),
        (
            {"pieces": [], "assignments": [{"piece": 2, "assign": "small_image"}]},
            "assignments[0].piece: expected a string, got 2",
        ),
        (
            {"pieces": [], "edges": [{"a": [["P"], "t"], "b": ["H", "t"], "gluing": [[0, 1], [1, 0]]}]},
            "edges[0].a[0]: expected a string, got ['P']",
        ),
        (
            {"pieces": [], "edges": [{"a": ["P", "t"], "b": ["H", {"t": 1}], "gluing": [[0, 1], [1, 0]]}]},
            "edges[0].b[1]: expected a string, got {'t': 1}",
        ),
        (
            # the names of an endpoint are read after every other field of its edge
            {"pieces": [], "edges": [{"a": [["P"], "t"], "b": ["H", "t"], "gluing": [[0, 1], ["x", 0]]}]},
            "edges[0]: malformed entry (gluing[1][0] 'x' is not an integer)",
        ),
    ],
    ids=["piece_id", "case_name", "assignment_piece", "endpoint_list", "endpoint_object", "endpoint_after_gluing"],
)
def test_loader_reads_names_as_strings_only(doc, message):
    with pytest.raises(ValueError) as info:
        load_graph_document(doc)
    assert str(info.value) == message


# ---------------------------------------------------------------- refusal order

LONG = "9" * 5000  # more digits than int() reads from a string
LONG_SHOWN = "'" + "9" * 32 + "…' (5000 characters)"
DELETE = object()
# Per record: the fields of a valid instance, then one row per check in
# the order the constructor runs them: the faulty field values and the
# refusal, as "<type>: <text>".
REFUSAL_ORDER = {
    "Piece": (
        {"id": "P", "kind": "seifert", "slots": ["t", "u"], "seifert": None, "label": None},
        [
            ({"id": ["P"]}, "ShapeRefusal: id ['P'] is not a name"),
            ({"slots": "tu"}, "ShapeRefusal: slots 'tu' is not a list of names"),
            ({"slots": {"t": 1}}, "ShapeRefusal: slots {'t': 1} is not a list of names"),
            ({"slots": 7}, "ShapeRefusal: slots 7 is not a list of names"),
            ({"kind": "torus"}, "Refusal: piece P: unknown kind 'torus'"),
            ({"slots": ["t", "t"]}, "Refusal: piece P: duplicate slot names"),
        ],
    ),
    "Edge": (
        {"a": ["P", "t"], "b": ["H", "t"], "gluing": [[0, 1], [1, 0]], "killed_slope": [1, 0], "killed_slope_b": None},
        [
            ({"gluing": [[3, -4]]}, "ShapeRefusal: gluing [[3, -4]] is not a 2x2 matrix"),
            ({"gluing": "34"}, "ShapeRefusal: gluing '34' is not a 2x2 matrix"),
            ({"gluing": [5, [1, 0]]}, "ShapeRefusal: gluing [5, [1, 0]] is not a 2x2 matrix"),
            ({"a": "Pt"}, "ShapeRefusal: a 'Pt' is not [piece, slot]"),
            ({"a": 5}, "ShapeRefusal: a 5 is not [piece, slot]"),
            ({"a": [["P"], "t"]}, "ShapeRefusal: a [['P'], 't'] is not [piece, slot]"),
            ({"b": ["H"]}, "ShapeRefusal: b ['H'] is not [piece, slot]"),
            ({"b": None}, "ShapeRefusal: b None is not [piece, slot]"),
            ({"b": ["H", {"t": 1}]}, "ShapeRefusal: b ['H', {'t': 1}] is not [piece, slot]"),
            ({"killed_slope": [2, 1, 7]}, "ShapeRefusal: killed_slope [2, 1, 7] is not [a, b]"),
            ({"killed_slope": 5}, "ShapeRefusal: killed_slope 5 is not [a, b]"),
            ({"killed_slope_b": "21"}, "ShapeRefusal: killed_slope_b '21' is not [a, b]"),
            ({"gluing": [[1, None], [0, 1]]}, "ShapeRefusal: gluing[0][1] None is not an integer"),
            ({"gluing": [["a", 1], [1, 0]]}, "ShapeRefusal: gluing[0][0] 'a' is not an integer"),
            ({"gluing": [[1, 0], [LONG, -1]]}, f"ShapeRefusal: gluing[1][0] {LONG_SHOWN} is not an integer"),
            ({"gluing": [[0.5, 1], [1, 0.2]]}, "ShapeRefusal: gluing[0][0] 0.5 is not an integer"),
            ({"gluing": [[0, 1], [True, 0]]}, "ShapeRefusal: gluing[1][0] True is not an integer"),
            ({"killed_slope": ["x", 1]}, "ShapeRefusal: killed_slope[0] 'x' is not an integer"),
            ({"killed_slope": [2, LONG]}, f"ShapeRefusal: killed_slope[1] {LONG_SHOWN} is not an integer"),
            ({"killed_slope": [1.9, 0]}, "ShapeRefusal: killed_slope[0] 1.9 is not an integer"),
            ({"killed_slope": [1, False]}, "ShapeRefusal: killed_slope[1] False is not an integer"),
            ({"killed_slope_b": [float("nan"), 1]}, "ShapeRefusal: killed_slope_b[0] nan is not an integer"),
            ({"killed_slope_b": [LONG, 1]}, f"ShapeRefusal: killed_slope_b[0] {LONG_SHOWN} is not an integer"),
        ],
    ),
    "SeifertInvariants": (
        {"genus": 1, "pairs": [[2, 1]], "boundary_count": 1},
        [
            ({"pairs": 5}, "ShapeRefusal: pairs 5 are not all [a, b]"),
            ({"pairs": None}, "ShapeRefusal: pairs None are not all [a, b]"),
            ({"pairs": ["21"]}, "ShapeRefusal: pairs ['21'] are not all [a, b]"),
            ({"pairs": [[2]]}, "ShapeRefusal: pairs [[2]] are not all [a, b]"),
            ({"pairs": [5]}, "ShapeRefusal: pairs [5] are not all [a, b]"),
            ({"pairs": [["x", 1]]}, "ShapeRefusal: pairs[0][0] 'x' is not an integer"),
            ({"pairs": [[2, 1], [1, "-" + LONG]]}, "ShapeRefusal: pairs[1][1] '-" + "9" * 31 + "…' (5001 characters) is not an integer"),
            ({"pairs": [[2.9, 1]]}, "ShapeRefusal: pairs[0][0] 2.9 is not an integer"),
            ({"pairs": [[True, 1]]}, "ShapeRefusal: pairs[0][0] True is not an integer"),
            ({"genus": 1.5}, "ShapeRefusal: genus 1.5 is not an integer"),
            ({"genus": True}, "ShapeRefusal: genus True is not an integer"),
            ({"genus": -1}, "Refusal: base genus must be >= 0, got -1"),
            ({"boundary_count": 0.5}, "ShapeRefusal: boundary_count 0.5 is not an integer"),
            ({"boundary_count": False}, "ShapeRefusal: boundary_count False is not an integer"),
            ({"boundary_count": -2}, "Refusal: boundary count must be >= 0, got -2"),
            ({"pairs": [[2, 1], [0, 1]]}, "Refusal: pair 2: multiplicity must be positive, got 0"),
            ({"pairs": [[4, 2]]}, "Refusal: pair 1: 2/4 is not in lowest terms"),
        ],
    ),
    "FilledSeifert": (
        {"piece_id": "P", "fillings": {"t": [2, 1]}, "coeff": Fraction(1, 4)},
        [
            ({"piece_id": ["P"]}, "ShapeRefusal: piece_id ['P'] is not a name"),
            ({"fillings": 5}, "ShapeRefusal: fillings 5 are not all [slot, [a, b]]"),
            ({"fillings": {"t": "21"}}, "ShapeRefusal: fillings {'t': '21'} are not all [slot, [a, b]]"),
            ({"fillings": [["t", [2]]]}, "ShapeRefusal: fillings [['t', [2]]] are not all [slot, [a, b]]"),
            ({"fillings": [5]}, "ShapeRefusal: fillings [5] are not all [slot, [a, b]]"),
            ({"fillings": [["t", 5]]}, "ShapeRefusal: fillings [['t', 5]] are not all [slot, [a, b]]"),
            ({"fillings": {"t": [2, "x"]}}, "ShapeRefusal: fillings['t'][1] 'x' is not an integer"),
            ({"fillings": {"t": [LONG, 1]}}, f"ShapeRefusal: fillings['t'][0] {LONG_SHOWN} is not an integer"),
            ({"coeff": "a/b"}, "Refusal: not a rational number: 'a/b'"),
        ],
    ),
    "SmallImage": ({"piece_id": "P"}, [({"piece_id": {"P": 1}}, "ShapeRefusal: piece_id {'P': 1} is not a name")]),
    # DirectVolume checks its name (see test_a_name_that_cannot_be_hashed_is_no_name);
    # the loader reads its entry, and refuses any name that is no string first
    "DirectVolume": (
        {"piece": "H", "assign": "direct", "exact": "1/2"},
        [
            ({"piece": DELETE}, "Refusal: assignments[0].piece: missing"),
            ({"piece": ["H"]}, "Refusal: assignments[0].piece: expected a string, got ['H']"),
            ({"exact": "x"}, "Refusal: assignments[0]: malformed entry (bad exact 'x')"),
            ({"exact": "1e999999999"}, "Refusal: assignments[0]: malformed entry (bad exact '1e999999999')"),
            ({"exact": "-1/2"}, "Refusal: exact volume coefficient must be >= 0, got -1/2"),
            ({"exact": DELETE, "numeric": "x"}, "Refusal: assignments[0]: malformed entry (bad numeric 'x')"),
            ({"exact": DELETE, "numeric": float("inf")}, "Refusal: assignments[0]: malformed entry (bad numeric inf)"),
            ({"exact": DELETE, "numeric": True}, "Refusal: assignments[0]: malformed entry (bad numeric True)"),
            ({"exact": DELETE}, "Refusal: direct assignment {'piece': 'H', 'assign': 'direct'} needs 'exact' or 'numeric'"),
        ],
    ),
}


def _build(record, fields):
    if record == "DirectVolume":
        doc = {"pieces": [{"id": "H", "kind": "hyperbolic", "label": "h", "slots": []}], "edges": [], "assignments": [fields]}
        return load_graph_document(doc)
    return getattr(jsj, record)(**fields)


@pytest.mark.parametrize(
    "record, k",
    [(record, k) for record, (_, rows) in REFUSAL_ORDER.items() for k in range(len(rows))],
)
def test_refusals_come_in_check_order(record, k):
    # Row k's fault plus the faults of every later row on other fields:
    # row k's refusal must come first, with exactly its text.
    base, rows = REFUSAL_ORDER[record]
    fields, touched = dict(base), set()
    for changes, _ in rows[k:]:
        if touched.isdisjoint(changes):
            touched.update(changes)
            for name, value in changes.items():
                if value is DELETE:
                    del fields[name]
                else:
                    fields[name] = value
    with pytest.raises((TypeError, ValueError)) as info:
        _build(record, fields)
    assert f"{type(info.value).__name__}: {info.value}" == rows[k][1]


def test_refusal_order_rows_are_each_refused_alone():
    for record, (base, rows) in REFUSAL_ORDER.items():
        _build(record, base)  # the base is valid
        for changes, message in rows:
            fields = {name: value for name, value in {**base, **changes}.items() if value is not DELETE}
            with pytest.raises((TypeError, ValueError)) as info:
                _build(record, fields)
            assert f"{type(info.value).__name__}: {info.value}" == message


# ---------------------------------------------------------------- the pair rule

_ATOMS = st.one_of(st.integers(), st.floats(), st.none(), st.text(max_size=3))
_HASHABLE = st.one_of(st.integers(), st.none(), st.text(max_size=3))
_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(
        st.sets(_HASHABLE, max_size=3),
        st.frozensets(_HASHABLE, max_size=3),
        st.dictionaries(st.text(max_size=2), inner, max_size=3),
        st.lists(inner, max_size=3),
        st.lists(inner, max_size=3).map(tuple),
    ),
    max_leaves=6,
)
# Per place a pair is read: a build that puts the value there, and the
# record's shape refusal for it.
PAIR_READERS = {
    "killed_slope": (
        lambda v: Edge(("P", "t"), ("Q", "t"), ((0, 1), (1, 0)), killed_slope=v),
        lambda v: f"killed_slope {_shown(v)} is not [a, b]",
    ),
    "pairs_row": (lambda v: SeifertInvariants(1, [v], 0), lambda v: f"pairs {_shown([v])} are not all [a, b]"),
    "fillings_row": (lambda v: FilledSeifert("P", [v], 0), lambda v: f"fillings {_shown([v])} are not all [slot, [a, b]]"),
    "fillings_slope": (
        lambda v: FilledSeifert("P", [("t", v)], 0),
        lambda v: f"fillings {_shown([('t', v)])} are not all [slot, [a, b]]",
    ),
    "dehn_fill": (lambda v: dehn_fill(1, 1, [v]), lambda v: f"fillings {_shown([v])} are not all [a, b]"),
}


@given(_VALUES)
def test_only_a_list_or_tuple_of_two_items_is_a_pair(value):
    # a set, a string, a number or a dict is never unpacked as a pair:
    # each record refuses it with its own shape text, never Python's
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return
    for place, (build, shape) in PAIR_READERS.items():
        if place == "killed_slope" and value is None:
            continue  # an edge that declares no killed slope
        with pytest.raises(TypeError) as info:
            build(value)
        assert str(info.value) == shape(value)


# ---------------------------------------------------------------- the whole-list rule

# Per place a whole list is read: a build that puts the value there, and
# its refusal in the record's (or, for a case, the loader's) own text.
LIST_READERS = {
    "slots": (lambda v: Piece("P", "hyperbolic", v, label="h"), lambda v: f"slots {_shown(v)} is not a list of names"),
    "pairs": (lambda v: SeifertInvariants(1, v), lambda v: f"pairs {_shown(v)} are not all [a, b]"),
    "fillings": (lambda v: FilledSeifert("P", v, 0), lambda v: f"fillings {_shown(v)} are not all [slot, [a, b]]"),
    "dehn_fill": (lambda v: dehn_fill(1, 1, v), lambda v: f"fillings {_shown(v)} are not all [a, b]"),
    "killed_slopes": (
        lambda v: load_graph_document({"pieces": [], "cases": [{"name": "c", "killed_slopes": v}]}),
        lambda v: f"cases[0]: malformed entry (killed_slopes {_shown(v)} is not a list of slopes)",
    ),
    "pieces": (lambda v: GraphManifoldSpec(v, ()), lambda v: f"pieces {_shown(v)} is not a list of pieces"),
    "edges": (lambda v: GraphManifoldSpec((), v), lambda v: f"edges {_shown(v)} is not a list of edges"),
}


@given(_VALUES)
def test_only_a_list_or_tuple_is_a_whole_list(value):
    # a number, None, a string, a set or a dict is never counted or walked
    # as a list: each place refuses it with its own text, never Python's;
    # only FilledSeifert reads a mapping, as slot -> slope
    if isinstance(value, (list, tuple)):
        return
    for place, (build, shape) in LIST_READERS.items():
        if (place == "killed_slopes" and value is None) or (place == "fillings" and isinstance(value, dict)):
            continue  # a case that kills no slopes; fillings given by slot
        with pytest.raises((TypeError, ValueError)) as info:
            build(value)
        assert str(info.value) == shape(value)


@pytest.mark.parametrize("place", LIST_READERS)
def test_a_generator_a_set_or_a_mapping_is_not_a_whole_list(place):
    # Python would walk each of these as a list; only FilledSeifert reads a
    # mapping, as slot -> slope
    build, shape = LIST_READERS[place]
    values = [iter([(2, 1)]), (row for row in [("t", (2, 1))]), {(2, 1)}]
    if place != "fillings":
        values.append({"t": [2, 1]})
    for value in values:
        with pytest.raises((TypeError, ValueError)) as info:
            build(value)
        assert str(info.value) == shape(value)


@pytest.mark.parametrize(
    "place, items",
    [
        ("pieces", [5]),
        ("pieces", [None]),
        ("pieces", [_edge()]),
        ("edges", [Piece("P", "hyperbolic", ["t"], label="h")]),
        ("edges", [5]),
        ("edges", ["e"]),
    ],
    ids=["int_piece", "null_piece", "edge_among_pieces", "piece_among_edges", "int_edge", "string_edge"],
)
def test_a_spec_holds_only_pieces_and_edges(place, items):
    # a wrong item is refused when the spec is built, with its list's text,
    # not later by validate_spec with Python's AttributeError
    with pytest.raises(TypeError) as info:
        GraphManifoldSpec(**{"pieces": (), "edges": (), place: items})
    assert str(info.value) == f"{place} {_shown(items)} is not a list of {place}"


@pytest.mark.parametrize("name", [["t"], {"t": 1}, ("t", ["u"])], ids=["list", "object", "tuple_of_a_list"])
def test_a_slot_name_that_cannot_be_hashed_is_no_name(name):
    # slots are told apart by a set, and fillings by a mapping, so a name
    # that cannot be hashed gets its record's shape text, not Python's
    with pytest.raises(TypeError) as info:
        Piece("P", "hyperbolic", ["s", name], label="h")
    assert str(info.value) == f"slots {_shown(['s', name])} is not a list of names"
    fillings = [("s", (2, 1)), (name, (2, 1))]
    with pytest.raises(TypeError) as info:
        FilledSeifert("P", fillings, 0)
    assert str(info.value) == f"fillings {_shown(fillings)} are not all [slot, [a, b]]"


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda name: Piece(name, "hyperbolic", (), label="h"), "id {} is not a name"),
        (lambda name: Edge((name, "t"), ("Q", "t"), ((0, 1), (1, 0))), "a ({}, 't') is not [piece, slot]"),
        (lambda name: Edge(("P", name), ("Q", "t"), ((0, 1), (1, 0))), "a ('P', {}) is not [piece, slot]"),
        (lambda name: Edge(("P", "t"), [name, "t"], ((0, 1), (1, 0))), "b [{}, 't'] is not [piece, slot]"),
        (lambda name: Edge(("P", "t"), ["Q", name], ((0, 1), (1, 0))), "b ['Q', {}] is not [piece, slot]"),
        (lambda name: SmallImage(name), "piece_id {} is not a name"),
        (lambda name: DirectVolume(name, ExactVolume(1)), "piece_id {} is not a name"),
        (lambda name: FilledSeifert(name, (("T", (1, 0)),), 0), "piece_id {} is not a name"),
    ],
    ids=["piece_id", "endpoint_a_piece", "endpoint_a_slot", "endpoint_b_piece", "endpoint_b_slot", "small_image", "direct", "filled"],
)
@pytest.mark.parametrize("name", [["E1"], {"E1": 1}, ("E1", ["T"])], ids=["list", "object", "tuple_of_a_list"])
def test_a_name_that_cannot_be_hashed_is_no_name(build, message, name):
    # every name a record keeps is read by _hashable, so the walk's tables,
    # the cover check and piece() can be built from it: each record refuses
    # such a name in its own words, never with Python's "unhashable type"
    with pytest.raises(TypeError) as info:
        build(name)
    assert str(info.value) == message.format(_shown(name))


def test_piece_is_the_walks_first_piece_with_its_id():
    first = Piece("P", "hyperbolic", ("t",), label="first")
    spec = GraphManifoldSpec((first, Piece("P", "hyperbolic", (), label="second")), ())
    assert spec.piece("P") is first
    for unknown in ("Q", ["x"]):
        with pytest.raises(ValueError) as info:
            spec.piece(unknown)
        assert str(info.value) == f"unknown piece {unknown!r}"


def test_piece_refuses_a_spec_whose_walk_refuses():
    # piece() reads the walk's table, so a spec the walk cannot finish, here
    # a gluing determinant too long to print, refuses there as validate_spec does
    big = 10 ** (sys.get_int_max_str_digits() // 2 + 1)
    pieces = tuple(Piece(name, "hyperbolic", ("t",), label="h") for name in "PQ")
    spec = GraphManifoldSpec(pieces, (Edge(("P", "t"), ("Q", "t"), ((big, 0), (0, big))),))
    with pytest.raises(ValueError) as walked:
        validate_spec(spec)
    assert str(walked.value).startswith("edge 0: gluing determinant is too large to print")
    with pytest.raises(ValueError) as info:
        spec.piece("P")
    assert str(info.value) == str(walked.value)


# ---------------------------------------------------------------- one validation per spec


def test_validate_then_additivity_walks_the_spec_once(monkeypatch):
    walks = []
    real = jsj._spec_problems
    monkeypatch.setattr(jsj, "_spec_problems", lambda spec: walks.append(spec) or real(spec))
    spec = two_piece_spec()
    fresh = two_piece_spec()
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (2, 1)),), coeff=Fraction(1, 4)),
        SmallImage(piece_id="Q"),
    ]
    problems = validate_spec(spec)
    assert additivity_sum(spec, assignments) == ExactVolume(Fraction(1, 4))
    assert walks == [spec]
    # the kept answer is no field: repr, equality and hash are unchanged
    assert (repr(spec), spec, hash(spec)) == (repr(fresh), fresh, hash(fresh))
    # each call returns a new list, so editing one changes no later answer
    problems.append("edited")
    assert validate_spec(spec) == []
    assert validate_spec(spec) is not validate_spec(spec)


def test_a_kept_problem_list_cannot_be_edited_from_outside(monkeypatch):
    walks = []
    real = jsj._spec_problems
    monkeypatch.setattr(jsj, "_spec_problems", lambda spec: walks.append(spec) or real(spec))
    spec = two_piece_spec()
    bad = GraphManifoldSpec(spec.pieces, (Edge(("P", "t"), ("Q", "t"), ((1, 0), (0, 1)), (2, 1)),))
    expected = ["edge 0: gluing determinant is 1, expected -1"]
    first = validate_spec(bad)
    assert first == expected
    first.clear()
    assert validate_spec(bad) == expected
    with pytest.raises(ValueError, match=r"^invalid spec: edge 0: gluing determinant is 1, expected -1$"):
        additivity_sum(bad, [SmallImage("P"), SmallImage("Q")])
    assert walks == [bad]


def _facts_oracle(spec):
    """The id table, killed-slope table and first unglued slot, by the
    loops ``additivity_sum`` ran before the walk kept these facts."""
    killed = {}
    for edge in spec.edges:
        killed[edge.a] = edge.killed_slope
        if edge.killed_slope_b is not None:
            killed[edge.b] = edge.killed_slope_b
        elif edge.killed_slope is not None:
            killed[edge.b] = edge.push_to_b(edge.killed_slope)
        else:
            killed[edge.b] = None
    pieces, unglued = {}, None
    for piece in spec.pieces:
        pieces[piece.id] = piece
        for slot in piece.slots:
            if unglued is None and (piece.id, slot) not in killed:
                unglued = (piece.id, slot)
    return pieces, killed, unglued


WALK_GLUINGS = (((0, 1), (1, 0)), ((1, 0), (0, -1)), ((3, -4), (2, -3)), ((2, 1), (1, 0)), ((-1, 0), (0, 1)))
WALK_SLOPES = ((1, 0), (0, 1), (2, 1), (1, -3), (3, 2), (-5, 2))
# planted faults, each a validation problem; an open slot is planted apart
WALK_FAULTS = ("duplicate", "unknown", "missing_slot", "reused", "self", "determinant", "nonprimitive")


def _walk_spec(rng):
    """A seeded chain, tree or cycle of pieces with up to two planted
    faults, and whether the spec has a validation problem: a planted
    fault other than "open", or a side-b slope that does not match."""
    n = rng.randint(1, 7)
    shape = rng.choice(("chain", "tree", "cycle"))
    links = [(rng.randrange(i) if shape == "tree" else i - 1, i) for i in range(1, n)]
    if shape == "cycle" and n > 2:
        links.append((n - 1, 0))
    slots = [[] for _ in range(n)]

    def fresh(i):
        slots[i].append(f"s{len(slots[i])}")
        return (f"P{i}", slots[i][-1])

    edges, mismatched = [], False
    for u, v in links:
        a, b, gluing = fresh(u), fresh(v), rng.choice(WALK_GLUINGS)
        edges.append([a, b, gluing, None, None])
    for edge in edges:
        slope = rng.choice(WALK_SLOPES)
        pushed = Edge(edge[0], edge[1], edge[2]).push_to_b(slope)
        side = "mismatch" if rng.random() < 0.03 else rng.choice(("none", "a", "b", "both", "both_flipped"))
        if side in ("a", "both", "both_flipped", "mismatch"):
            edge[3] = slope
        if side == "b":
            edge[4] = pushed
        elif side in ("both", "both_flipped"):
            edge[4] = pushed if side == "both" else tuple(-x for x in pushed)
        elif side == "mismatch":
            edge[4] = (1, 0) if jsj._normalize_slope(pushed) != (1, 0) else (0, 1)
            mismatched = True
    faults = rng.sample(WALK_FAULTS, rng.choice((0, 0, 1, 1, 2)))
    if rng.random() < 0.3:
        faults.append("open")  # unglued slots, which validation accepts
    pieces = [[f"P{i}", slots[i]] for i in range(n)]
    for fault in list(faults):
        if fault == "duplicate":
            pieces.insert(rng.randint(0, len(pieces)), [f"P{rng.randrange(n)}", ["d"]])
        elif fault == "open":
            for _ in range(rng.randint(1, 3)):
                fresh(rng.randrange(n))
        elif fault == "self":
            end = fresh(rng.randrange(n))
            edges.append([end, end, rng.choice(WALK_GLUINGS), None, None])
        elif fault == "determinant":
            edges.append([fresh(rng.randrange(n)), fresh(rng.randrange(n)), ((1, 0), (0, 1)), None, None])
        elif fault == "nonprimitive":
            edges.append([fresh(rng.randrange(n)), fresh(rng.randrange(n)), rng.choice(WALK_GLUINGS), (2, 4), None])
        elif not edges:
            faults.remove(fault)  # no glued slot to reuse or rename
        elif fault == "reused":
            end = rng.choice(edges)[rng.randrange(2)]
            edges.append([fresh(rng.randrange(n)), end, rng.choice(WALK_GLUINGS), rng.choice(WALK_SLOPES), None])
        else:
            k, side = rng.randrange(len(edges)), rng.randrange(2)
            pid, slot = edges[k][side]
            edges[k][side] = ("Z", slot) if fault == "unknown" else (pid, "nope")
    spec = GraphManifoldSpec(
        tuple(Piece(pid, "hyperbolic", tuple(names), label="h") for pid, names in pieces),
        tuple(Edge(*edge) for edge in edges),
    )
    return spec, mismatched or any(fault != "open" for fault in faults)


def test_the_walk_derives_the_facts_additivity_read_before():
    # the id table, killed-slope table and first unglued slot that the one
    # walk returns are those additivity_sum's own loops built, on seeded
    # specs with faults planted; the facts are read only on a valid spec
    rng = random.Random("one walk")
    valid = unglued_seen = 0
    for _ in range(400):
        spec, faulty = _walk_spec(rng)
        problems, pieces, killed, unglued = jsj._spec_problems(spec)
        assert bool(problems) == faulty, (spec, problems)
        oracle = _facts_oracle(spec)
        assert list(pieces) == list(oracle[0])
        if problems:
            continue
        valid += 1
        unglued_seen += unglued is not None
        assert (pieces, killed, unglued) == oracle
        with pytest.raises(ValueError) as info:
            additivity_sum(spec, [])
        if unglued:
            assert str(info.value) == f"slot {unglued[0]}.{unglued[1]} is unglued; additivity needs a closed manifold"
        else:
            assert str(info.value).startswith("assignments cover [], expected exactly ")
    assert valid >= 120 and unglued_seen >= 30, (valid, unglued_seen)


# ---------------------------------------------------------------- trusted construction


def _random_pairs(rng, count):
    pairs = []
    for _ in range(count):
        a = rng.randint(1, 9)
        pairs.append((a, rng.choice([b for b in range(-2 * a, 2 * a + 1) if math.gcd(a, abs(b)) == 1])))
    return tuple(pairs)


def _built(build):
    try:
        record = build()
    except ValueError as exc:
        return f"ValueError: {exc}"
    return repr(record), record, hash(record), vars(record)


def test_fill_equals_the_constructor():
    # the closed piece _fill (and so dehn_fill) builds past the constructor
    # is the constructor's record for the filled pairs: same repr, equality,
    # hash and fields; and it refuses exactly when the constructor or the
    # count of fillings does
    rng = random.Random("trusted-fill")
    refused = 0
    for _ in range(400):
        genus = rng.randint(0, 3)
        pairs = _random_pairs(rng, rng.randint(0, 3))
        fillings = list(_random_pairs(rng, rng.randint(0, 3)))
        if fillings and rng.random() < 0.2:
            k = rng.randrange(len(fillings))
            fillings[k] = rng.choice([(0, 1), (-2, 1), (4, 2)])
        boundary = len(fillings) + rng.choice((0, 0, 1, -1))
        if boundary < 0:
            continue
        inv = SeifertInvariants(genus, pairs, boundary)
        filled = _built(lambda: seifert._fill(inv, fillings))
        if len(fillings) > boundary:
            assert filled == f"ValueError: {len(fillings)} fillings exceed {boundary} open boundaries"
        else:
            built = _built(lambda: SeifertInvariants(genus, pairs + tuple(fillings), boundary - len(fillings)))
            assert isinstance(filled, str) == isinstance(built, str)
            if not isinstance(built, str):
                assert filled == built
        assert _built(lambda: dehn_fill(genus, boundary, fillings, existing_pairs=pairs)) == filled
        refused += isinstance(filled, str)
    assert refused > 20


def test_parsed_symbol_equals_the_checked_record():
    rng = random.Random("trusted-parse")
    for _ in range(300):
        genus, pairs = rng.randint(0, 4), _random_pairs(rng, rng.randint(0, 4))
        text = f"({genus}; {', '.join(f'{b}/{a}' for a, b in pairs)})"
        parsed, built = parse_seifert(text), SeifertInvariants(genus, pairs)
        assert (repr(parsed), parsed, hash(parsed), vars(parsed)) == (repr(built), built, hash(built), vars(built))


# ---------------------------------------------------------------- additivity


def test_additivity_two_filled_pieces():
    spec = two_piece_spec()
    # each filled piece closes up to (1; 1/2, 1/2) whose spectrum is {0, 1/4, 1}
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (2, 1)),), coeff=Fraction(1, 4)),
        FilledSeifert(piece_id="Q", fillings=(("t", (2, 1)),), coeff=Fraction(1)),
    ]
    assert additivity_sum(spec, assignments) == ExactVolume(Fraction(5, 4))


def test_additivity_accepts_sign_flipped_filling():
    spec = two_piece_spec()
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (-2, -1)),), coeff=Fraction(0)),
        SmallImage(piece_id="Q"),
    ]
    assert additivity_sum(spec, assignments) == ExactVolume(Fraction(0))


def test_additivity_is_order_independent():
    spec = two_piece_spec()
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (2, 1)),), coeff=Fraction(1, 4)),
        FilledSeifert(piece_id="Q", fillings=(("t", (2, 1)),), coeff=Fraction(1)),
    ]
    for perm in itertools.permutations(assignments):
        assert additivity_sum(spec, list(perm)) == ExactVolume(Fraction(5, 4))


def test_additivity_rejects_wrong_slope():
    spec = two_piece_spec()
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (1, 0)),), coeff=Fraction(0)),
        SmallImage(piece_id="Q"),
    ]
    with pytest.raises(ValueError, match="does not match the killed slope"):
        additivity_sum(spec, assignments)


def test_additivity_rejects_coefficient_outside_spectrum():
    spec = two_piece_spec()
    assignments = [
        FilledSeifert(piece_id="P", fillings=(("t", (2, 1)),), coeff=Fraction(1, 3)),
        SmallImage(piece_id="Q"),
    ]
    with pytest.raises(ValueError, match="not in"):
        additivity_sum(spec, assignments)


@pytest.mark.parametrize("filled, small", [("P", "Q"), ("Q", "P")])
def test_additivity_rejects_filled_piece_on_edge_without_slope(filled, small):
    spec = two_piece_spec(killed=None)
    assignments = [
        FilledSeifert(piece_id=filled, fillings=(("t", (2, 1)),), coeff=Fraction(0)),
        SmallImage(piece_id=small),
    ]
    with pytest.raises(ValueError, match=f"edge at {filled}.t declares no killed slope"):
        additivity_sum(spec, assignments)


def test_additivity_uses_side_b_slope():
    spec = two_piece_spec(killed=None)
    edge = spec.edges[0]
    # side a declares no slope: side b's can only come from killed_slope_b
    only_b = GraphManifoldSpec(
        spec.pieces,
        (Edge(a=edge.a, b=edge.b, gluing=edge.gluing, killed_slope_b=(2, 1)),),
    )
    assert validate_spec(only_b) == []
    filled_q = [
        SmallImage(piece_id="P"),
        FilledSeifert(piece_id="Q", fillings=(("t", (2, 1)),), coeff=Fraction(1, 4)),
    ]
    assert additivity_sum(only_b, filled_q) == ExactVolume(Fraction(1, 4))
    with pytest.raises(ValueError, match="edge at P.t declares no killed slope"):
        additivity_sum(
            only_b,
            [
                FilledSeifert(piece_id="P", fillings=(("t", (2, 1)),), coeff=Fraction(0)),
                SmallImage(piece_id="Q"),
            ],
        )


def test_additivity_requires_full_assignment():
    spec = two_piece_spec()
    with pytest.raises(ValueError, match="assignments cover"):
        additivity_sum(spec, [SmallImage(piece_id="P")])


def test_additivity_requires_closed_graph():
    seifert = SeifertInvariants(genus=1, pairs=(), boundary_count=1)
    spec = GraphManifoldSpec(
        pieces=(Piece(id="P", kind="seifert", slots=("t",), seifert=seifert),),
        edges=(),
    )
    with pytest.raises(ValueError, match="unglued"):
        additivity_sum(spec, [SmallImage(piece_id="P")])


def test_additivity_degenerate_closed_piece_matches_spectrum():
    # a closed Seifert manifold as a one-piece graph with no tori:
    # the engine must agree with the plain spectrum
    closed = parse_seifert("(1; 1/2, 1/2)")
    spec = GraphManifoldSpec(
        pieces=(Piece(id="M", kind="seifert", slots=(), seifert=closed),),
        edges=(),
    )
    got = additivity_sum(
        spec, [FilledSeifert(piece_id="M", fillings=(), coeff=Fraction(1, 4))]
    )
    assert got == ExactVolume(Fraction(1, 4))
    with pytest.raises(ValueError, match="not in"):
        additivity_sum(
            spec, [FilledSeifert(piece_id="M", fillings=(), coeff=Fraction(1, 2))]
        )


def test_additivity_mixed_numeric():
    spec = two_piece_spec()
    assignments = [
        DirectVolume(piece_id="P", volume=NumericVolume(2.5)),
        SmallImage(piece_id="Q"),
    ]
    total = additivity_sum(spec, assignments)
    assert isinstance(total, NumericVolume)
    assert abs(total.value - 2.5) < 1e-12


def test_additivity_all_small_image_is_zero():
    spec = motegi_spec(2, 3, 2, 5)
    total = additivity_sum(
        spec, [SmallImage(piece_id="E1"), SmallImage(piece_id="E2")]
    )
    assert total == ExactVolume(Fraction(0))


# ---------------------------------------------------------------- documents


def test_shipped_motegi_document():
    document = load_graph_document(_data("motegi_2_3_2_5.json"))
    assert [name for name, _, _ in document.cases] == ["default"]
    name, spec, assignments = document.cases[0]
    assert validate_spec(spec) == []
    assert spec == motegi_spec(2, 3, 2, 5)
    assert additivity_sum(spec, assignments) == ExactVolume(Fraction(0))


def test_shipped_prop73_document_both_cases():
    document = load_graph_document(_data("prop73_zero_hv.json"))
    assert [name for name, _, _ in document.cases] == ["s_kill", "h_kill"]
    for name, spec, assignments in document.cases:
        assert validate_spec(spec) == []
        assert additivity_sum(spec, assignments) == ExactVolume(Fraction(0))


def test_document_rejects_unknown_assignment_kind():
    doc = _data("motegi_2_3_2_5.json")
    doc["assignments"][0] = {"piece": "E1", "assign": "mystery"}
    with pytest.raises(ValueError, match="assign"):
        load_graph_document(doc)


# ---------------------------------------------------------------- motegi


def test_motegi_worked_cases():
    result = motegi_case(2, 3, 2, 5)
    assert (result.h1_order, result.nontrivial, result.sv_coeff) == (59, True, Fraction(0))
    result = motegi_case(2, 3, 2, 3)
    assert (result.h1_order, result.nontrivial) == (35, True)
    result = motegi_case(2, 2, 2, 2)
    assert (result.h1_order, result.nontrivial) == (15, False)


def test_motegi_rejects_small_parameters():
    with pytest.raises(ValueError, match=">= 2"):
        motegi_case(1, 3, 2, 5)


def test_motegi_spec_requires_coprime_pairs():
    with pytest.raises(ValueError, match="gcd"):
        motegi_spec(2, 2, 2, 2)


def test_motegi_spec_seifert_data():
    spec = motegi_spec(2, 3, 2, 5)
    e1 = spec.piece("E1").seifert
    e2 = spec.piece("E2").seifert
    # q*b1 + p*b2 = 1 for each exterior
    assert sorted(e1.pairs) == [(2, 1), (3, -1)]
    assert sorted(e2.pairs) == [(2, 1), (5, -2)]
    assert spec.edges[0].gluing == ((0, 1), (1, 0))


# ---------------------------------------------------------------- cycles


def _exhaustive_consistent(vertices, edges):
    """Oracle: check every edge-simple closed trail's product.

    Potentials exist iff every such trail multiplies to 1, and any
    fundamental cycle is itself edge-simple, so this is equivalent to
    the spanning-forest criterion.  Exponential, fine at test sizes.
    """
    arcs = {}
    for eid, (u, v, ratio) in enumerate(edges):
        arcs.setdefault(u, []).append((v, ratio, eid))
        arcs.setdefault(v, []).append((u, 1 / ratio, eid))
    for start in vertices:
        stack = [(start, Fraction(1), frozenset())]
        while stack:
            node, product, used = stack.pop()
            for nxt, ratio, eid in arcs.get(node, ()):
                if eid in used:
                    continue
                if nxt == start:
                    if product * ratio != 1:
                        return False
                    continue
                stack.append((nxt, product * ratio, used | {eid}))
    return True


def test_rw_consistent_triangle():
    edges = [
        ("a", "b", Fraction(2)),
        ("b", "c", Fraction(3)),
        ("c", "a", Fraction(1, 6)),
    ]
    assert rw_consistency(["a", "b", "c"], edges).consistent


def test_rw_inconsistent_triangle_witness():
    edges = [
        ("a", "b", Fraction(2)),
        ("b", "c", Fraction(3)),
        ("c", "a", Fraction(1)),
    ]
    result = rw_consistency(["a", "b", "c"], edges)
    assert not result.consistent
    assert result.product != 1
    # the witness cycle must multiply out to the reported product
    product = Fraction(1)
    for step, (u, v, ratio) in enumerate(result.witness_cycle):
        product *= ratio
        if step:
            assert result.witness_cycle[step - 1][1] == u
    assert result.witness_cycle[0][0] == result.witness_cycle[-1][1]
    assert product == result.product


def test_rw_forest_is_consistent():
    edges = [("a", "b", Fraction(5)), ("c", "d", Fraction(7))]
    result = rw_consistency(["a", "b", "c", "d", "e"], edges)
    assert result.consistent


def test_rw_parallel_edges():
    edges = [("a", "b", Fraction(2)), ("a", "b", Fraction(2))]
    assert rw_consistency(["a", "b"], edges).consistent
    edges = [("a", "b", Fraction(2)), ("a", "b", Fraction(3))]
    result = rw_consistency(["a", "b"], edges)
    assert not result.consistent


def test_rw_self_loop():
    assert rw_consistency(["a"], [("a", "a", Fraction(1))]).consistent
    result = rw_consistency(["a"], [("a", "a", Fraction(2))])
    assert not result.consistent
    assert result.product == 2


def test_rw_rejects_nonpositive_ratio():
    with pytest.raises(ValueError, match="positive"):
        rw_consistency(["a", "b"], [("a", "b", Fraction(-2))])


def test_rw_matches_exhaustive_oracle_randomized():
    rng = random.Random(20240817)
    ratio_pool = [Fraction(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
    for trial in range(60):
        n = rng.randint(1, 6)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for _ in range(rng.randint(0, 8)):
            u = rng.choice(vertices)
            v = rng.choice(vertices)
            if u == v:
                continue
            edges.append((u, v, rng.choice(ratio_pool)))
        result = rw_consistency(vertices, edges)
        assert result.consistent == _exhaustive_consistent(vertices, edges)
        if not result.consistent:
            product = Fraction(1)
            for _, _, ratio in result.witness_cycle:
                product *= ratio
            assert product == result.product != 1


def test_rw_witness_is_a_short_fundamental_cycle():
    # A ratio graph like the planted ones of the benchmark: a random
    # spanning tree plus V extra edges, ratios read off vertex potentials,
    # and one extra edge scaled so that it closes an inconsistent cycle.
    rng = random.Random(20261018)
    v = 2000
    potential = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(v)]
    pairs = [(rng.randrange(i), i) for i in range(1, v)]
    pairs += [tuple(rng.sample(range(v), 2)) for _ in range(v)]
    edges = [(a, b, potential[b] / potential[a]) for a, b in pairs]
    k = rng.randrange(v - 1, len(edges))
    a, b, ratio = edges[k]
    edges[k] = (a, b, ratio * Fraction(3, 2))

    result = rw_consistency(list(range(v)), edges)
    assert not result.consistent
    cycle = result.witness_cycle
    steps = {(a, b, r) for a, b, r in edges} | {(b, a, 1 / r) for a, b, r in edges}
    for (u, w, r), (following, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert w == following
        assert (u, w, r) in steps
    assert math.prod(r for _, _, r in cycle) == result.product != 1

    # The forest is breadth-first from vertex 0, so the cycle climbs from
    # each end of the offending edge at most ecc(0) tree steps.
    neighbours = {x: [] for x in range(v)}
    for a, b, _ in edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    distance = {0: 0}
    queue = [0]
    for x in queue:
        for y in neighbours[x]:
            if y not in distance:
                distance[y] = distance[x] + 1
                queue.append(y)
    assert len(cycle) <= 2 * max(distance.values()) + 1


def _fraction_forest(vertices, edges):
    """Oracle: the breadth-first forest of ``Fraction`` potentials, first
    offending edge and fundamental cycle, written out independently of the
    integer potentials in ``rw_consistency``."""
    adjacency = {v: [] for v in vertices}
    checked = []
    for u, v, ratio in edges:
        try:
            ratio = Fraction(ratio)
        except ValueError:  # a string that is no rational, in the library's text
            raise Refusal(f"not a rational number: {ratio!r}") from None
        try:
            known = u in adjacency and v in adjacency
        except TypeError:  # an end that cannot be hashed names no vertex
            known = False
        if not known:
            raise Refusal(f"edge ({u!r}, {v!r}) uses unknown vertices")
        if ratio <= 0:
            raise Refusal(f"edge ratio must be positive, got {ratio}")
        checked.append((u, v, ratio))
        adjacency[u].append((v, ratio))
        adjacency[v].append((u, 1 / ratio))
    potential, into = {}, {}
    for root in adjacency:
        if root in potential:
            continue
        potential[root] = Fraction(1)
        queue = [root]
        for u in queue:
            for v, step in adjacency[u]:
                if v not in potential:
                    potential[v] = potential[u] * step
                    into[v] = (u, v, step)
                    queue.append(v)
    for u, v, ratio in checked:
        if potential[u] * ratio == potential[v]:
            continue
        up_v, up_u = [], []
        for x, up in ((v, up_v), (u, up_u)):
            while x in into:
                up.append(into[x])
                x = into[x][0]
        while up_v and up_u and up_v[-1] == up_u[-1]:
            up_v.pop()
            up_u.pop()
        cycle = [(u, v, ratio)] + [(b, a, 1 / r) for a, b, r in up_v] + up_u[::-1]
        return False, tuple(cycle), math.prod(r for _, _, r in cycle)
    return True, None, None


def _random_ratio_graph(rng):
    """A small multigraph with self-loops, parallel edges, disconnected
    parts and repeated vertex names; ratios are ``Fraction``, ``int`` or
    ``"p/q"``, and a few edges are malformed on purpose."""
    names = [f"v{i}" for i in range(rng.randint(1, 7))]
    vertices = names + rng.choices(names, k=rng.randint(0, 2))
    rng.shuffle(vertices)
    # potentials on a few classes, so most graphs are consistent or nearly so
    potential = {name: Fraction(rng.randint(1, 4), rng.randint(1, 4)) for name in names}
    edges = []
    for _ in range(rng.randint(0, 10)):
        u, v = rng.choice(names), rng.choice(names)
        ratio = potential[v] / potential[u]
        if rng.random() < 0.15:
            ratio *= rng.choice((2, 3, Fraction(1, 2)))
        form = rng.random()
        if ratio.denominator == 1 and form < 0.3:
            ratio = int(ratio)
        elif form < 0.6:
            ratio = f"{ratio.numerator}/{ratio.denominator}"
        edges.append((u, v, ratio))
    if edges and rng.random() < 0.04:
        # each part may be bad at once, so the order of the checks shows
        k = rng.randrange(len(edges))
        u, v, ratio = edges[k]
        edges[k] = (
            rng.choice((u, "w", ("w",), ["w"])),
            rng.choice((v, "w", ["w"])),
            rng.choice((ratio, 0, "-3/2", "x/2", None)),
        )
    return vertices, edges


def _outcome(check, vertices, edges):
    try:
        return check(vertices, edges)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)


def test_rw_matches_fraction_forest_on_random_multigraphs():
    rng = random.Random(20261019)
    inconsistent = refused = 0
    for _ in range(20000):
        vertices, edges = _random_ratio_graph(rng)
        expected = _outcome(_fraction_forest, vertices, edges)
        result = _outcome(rw_consistency, vertices, edges)
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            refused += 1
            assert result == expected
            continue
        assert (result.consistent, result.witness_cycle, result.product) == expected
        if not result.consistent:
            inconsistent += 1
            assert type(result.product) is Fraction
            assert all(type(r) is Fraction for _, _, r in result.witness_cycle)
    # the generator reaches every branch
    assert 2000 < inconsistent < 18000
    assert refused > 100


def test_rw_deep_chain_with_big_integer_potentials():
    v = 5000
    path = [(i, i + 1, 2) for i in range(v - 1)]
    closed = rw_consistency(range(v), path + [(v - 1, 0, Fraction(1, 2**4999))])
    assert closed.consistent

    result = rw_consistency(range(v), path + [(v - 1, 0, Fraction(1, 2**4998))])
    assert not result.consistent
    cycle = result.witness_cycle
    assert len(cycle) == v
    assert {u for u, _, _ in cycle} == set(range(v))
    for (_, w, _), (following, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
        assert w == following
    assert result.product == 2 == math.prod(r for _, _, r in cycle)
    assert (False, cycle, result.product) == _fraction_forest(
        range(v), path + [(v - 1, 0, Fraction(1, 2**4998))]
    )


def test_rw_tree_steps_reduce_by_cross_gcds(monkeypatch):
    # On a 3/2 chain the potential at depth d is 3^d / 2^d.  Each tree step
    # reduces as Fraction.__mul__ does, by gcd(num, q) and gcd(p, den), so
    # every gcd has an edge term as one operand; the gcd of two potentials,
    # which costs about the square of the depth, is never taken.
    v = 2000
    edges = [(i, i + 1, Fraction(3, 2)) for i in range(v - 1)]
    calls = []
    real = math.gcd

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(math, "gcd", spy)
    result = rw_consistency(range(v), edges)
    monkeypatch.undo()
    assert result.consistent
    assert len(calls) == 2 * (v - 1)
    assert all(3 in args or 2 in args for args in calls)


def _mid_size_ratio_graph(rng, v):
    """A ratio multigraph of ``v`` vertices in several components, each a
    random tree plus extra edges, with parallel edges, self-loops, isolated
    vertices and repeated names; ratios are ``Fraction``, ``int`` or
    ``"p/q"``.  About half the graphs get one bad ratio somewhere, and a few
    get a malformed edge, so inconsistent outcomes and refusals show too."""
    names = [f"v{i}" for i in range(v)]
    potential = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(v)]
    cuts = sorted(rng.sample(range(1, v), rng.randint(2, 6)))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [v]):
        members = list(range(lo, hi))
        rng.shuffle(members)
        if rng.random() < 0.2:
            members.pop()  # left isolated
        pairs = [(rng.choice(members[:i]), x) for i, x in enumerate(members) if i]
        pairs += [(rng.choice(members), rng.choice(members)) for _ in range(len(members) // 2)]
        pairs += rng.sample(pairs, len(pairs) // 10)  # parallel edges
        pairs += [(x, x) for x in rng.sample(members, min(3, len(members)))]
        edges += pairs
    rng.shuffle(edges)
    ratios = [potential[b] / potential[a] for a, b in edges]
    if rng.random() < 0.5:
        k = rng.randrange(len(ratios))
        ratios[k] *= rng.choice((2, Fraction(1, 3), Fraction(5, 4)))
    graph = []
    for (a, b), ratio in zip(edges, ratios):
        form = rng.random()
        if ratio.denominator == 1 and form < 0.3:
            ratio = int(ratio)
        elif form < 0.6:
            ratio = f"{ratio.numerator}/{ratio.denominator}"
        graph.append((names[a], names[b], ratio))
    if rng.random() < 0.15:
        k = rng.randrange(len(graph))
        graph[k] = (graph[k][0], rng.choice(("w", graph[k][1])), rng.choice(("0", "x/2")))
    vertices = names + rng.choices(names, k=v // 10)
    rng.shuffle(vertices)
    return vertices, graph


def test_rw_matches_fraction_forest_at_mid_size():
    # Exact equality with the oracle pins the walk order at scale: which
    # vertex roots each tree, which side reaches each vertex first, which
    # edge fails first and so which cycle is the witness.
    rng = random.Random(20261023)
    outcomes = set()
    for v in (200, 300, 500, 800, 1200, 2000, 3000, 400):
        vertices, edges = _mid_size_ratio_graph(rng, v)
        expected = _outcome(_fraction_forest, vertices, edges)
        result = _outcome(rw_consistency, vertices, edges)
        if isinstance(expected[0], type):
            outcomes.add("refused")
            assert result == expected
            continue
        assert (result.consistent, result.witness_cycle, result.product) == expected
        outcomes.add("consistent" if result.consistent else "inconsistent")
    assert outcomes == {"consistent", "inconsistent", "refused"}


def test_rw_working_set_per_side():
    # The planted graph of test_rw_witness_is_a_short_fundamental_cycle's
    # generator at V = 20,000 (39,999 edges, so 79,998 sides).  The traced
    # peak of the call per side, on Python 3.10-3.13: 97.6-99.6 bytes with
    # a list of sides per vertex and the name index kept to the end,
    # 72.9-76.8 with linked sides and the index dropped, 44.9-45.0 with
    # the side tables in arrays.  The bound leaves at least 10% on each
    # side of the last two.
    import tracemalloc

    rng = random.Random(20261018)
    v = 20000
    potential = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(v)]
    pairs = [(rng.randrange(i), i) for i in range(1, v)]
    pairs += [tuple(rng.sample(range(v), 2)) for _ in range(v)]
    edges = [(a, b, potential[b] / potential[a]) for a, b in pairs]
    k = rng.randrange(v - 1, len(edges))
    a, b, ratio = edges[k]
    edges[k] = (a, b, ratio * Fraction(3, 2))
    vertices = list(range(v))

    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = rw_consistency(vertices, edges)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert not result.consistent
    assert peak / (2 * len(edges)) < 58


def _planted_ratio_graph(v):
    """The planted graph of test_rw_witness_is_a_short_fundamental_cycle
    and test_rw_working_set_per_side: a random spanning tree on ``v``
    vertices plus ``v`` extra edges, ratios read off vertex potentials, and
    one extra edge scaled so that it closes an inconsistent cycle."""
    rng = random.Random(20261018)
    potential = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(v)]
    pairs = [(rng.randrange(i), i) for i in range(1, v)]
    pairs += [tuple(rng.sample(range(v), 2)) for _ in range(v)]
    edges = [(a, b, potential[b] / potential[a]) for a, b in pairs]
    k = rng.randrange(v - 1, len(edges))
    a, b, ratio = edges[k]
    edges[k] = (a, b, ratio * Fraction(3, 2))
    return list(range(v)), edges


def test_rw_matches_fraction_forest_on_the_working_set_graph():
    # At a size where the side tables' storage matters, exact equality with
    # the oracle pins the walk order, the first offending edge and its cycle.
    vertices, edges = _planted_ratio_graph(20000)
    result = rw_consistency(vertices, edges)
    assert (result.consistent, result.witness_cycle, result.product) == _fraction_forest(
        vertices, edges
    )
    assert not result.consistent


@pytest.mark.parametrize(
    "vertices, edges, refusal",
    [
        (*_planted_ratio_graph(2000), None),
        (["u", "v", "w"], [("u", "v", 2), ("v", "x", 3)], "edge ('v', 'x') uses unknown vertices"),
        (["u", "v", "w"], [("u", "v", 2), ("v", "w", -3)], "edge ratio must be positive, got -3"),
        (["u", "v", "w"], [("u", "v", 2), ("v", "w", "x/2")], "not a rational number: 'x/2'"),
    ],
    ids=["planted", "unknown_vertex", "nonpositive_ratio", "unreadable_ratio"],
)
def test_rw_reads_each_argument_once(vertices, edges, refusal):
    # iterators have no len and can be read only once
    expected = _outcome(rw_consistency, vertices, edges)
    assert _outcome(rw_consistency, iter(vertices), iter(edges)) == expected
    if refusal is None:
        assert not expected.consistent
    else:
        assert expected == (Refusal, refusal)


@pytest.mark.parametrize(
    "vertices, edges, refusal",
    [
        ([["a"]], [], "vertices [['a']] are not all names"),
        (["a", "b", {"c": 1}], [("a", "b", 2)], "vertices ['a', 'b', {'c': 1}] are not all names"),
        (["a"], [(["a"], "a", 1)], "edge (['a'], 'a') uses unknown vertices"),
        (["a", "b"], [("a", "b", 2), ("a", {"b"}, 1)], "edge ('a', {'b'}) uses unknown vertices"),
    ],
    ids=["vertex", "last_vertex", "tail", "head"],
)
def test_rw_refuses_a_name_that_cannot_be_hashed(vertices, edges, refusal):
    # no vertex can be named by a value that cannot be hashed, so it is
    # refused in rw_consistency's own words, as a Refusal like its others
    assert _outcome(rw_consistency, vertices, edges) == (Refusal, refusal)
