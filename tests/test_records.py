"""The record contract of the 20 public record classes: frozen fields,
pickle and copy round trips, the ``Name(field=value, ...)`` repr without
the derived ``_`` fields, equality only within one class, and keyword
construction with defaults."""

import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction

import pytest

from repvol.covers import ColoredMergeCounts, MergeCounts, TorusCoverDatum
from repvol.ehn import VolumeWitness
from repvol.exact import GAUSSIAN_ZERO, ExactVolume, GaussianRational, NumericVolume, PiScalar
from repvol.jsj import (
    DirectVolume,
    Edge,
    FilledSeifert,
    GraphDocument,
    GraphManifoldSpec,
    MotegiResult,
    Piece,
    RWResult,
    SmallImage,
)
from repvol.liecs import ExteriorForm, GramForm, LieAlgebraSpec
from repvol.seifert import SeifertInvariants

INV = SeifertInvariants(genus=2, pairs=((1, 1),), boundary_count=0)
PIECE = Piece(id="P", kind="hyperbolic", slots=("t",), seifert=None, label="L")
EDGE = Edge(a=("P", "t"), b=("H", "t"), gluing=((0, 1), (1, 0)), killed_slope=(1, 0), killed_slope_b=None)
SPEC = GraphManifoldSpec(pieces=(PIECE,), edges=())

# (class, every field as a keyword in declaration order, the defaults)
RECORDS = [
    (ExactVolume, {"coeff": Fraction(3, 7)}, {}),
    (NumericVolume, {"value": 1.5}, {}),
    (PiScalar, {"coeff": GaussianRational(Fraction(1, 2), -3), "pi_power": -2}, {"coeff": GAUSSIAN_ZERO, "pi_power": 0}),
    (SeifertInvariants, {"genus": 1, "pairs": ((2, 1), (3, -1)), "boundary_count": 1}, {"pairs": (), "boundary_count": 0}),
    (
        VolumeWitness,
        {"inv": INV, "n_values": (0,), "n": -2, "zeta": Fraction(2), "z_values": (Fraction(-2),), "coeff": Fraction(4)},
        {},
    ),
    (
        LieAlgebraSpec,
        {
            "basis": ("H", "E", "F"),
            "brackets": (((0, 1), (PiScalar(0), PiScalar(2), PiScalar(0))),),
            "check_jacobi": False,
        },
        {"check_jacobi": True},
    ),
    (ExteriorForm, {"dim": 3, "degree": 1, "terms": (((0,), PiScalar(1)),)}, {"terms": ()}),
    (GramForm, {"entries": ((PiScalar(1), PiScalar(0)), (PiScalar(0), PiScalar(1, 1)))}, {}),
    (
        Piece,
        {"id": "Q", "kind": "seifert", "slots": ("t", "u"), "seifert": SeifertInvariants(1, (), 2), "label": "S"},
        {"seifert": None, "label": None},
    ),
    (
        Edge,
        {"a": ("P", "t"), "b": ("H", "t"), "gluing": ((0, 1), (1, 0)), "killed_slope": (1, 0), "killed_slope_b": (0, 1)},
        {"killed_slope": None, "killed_slope_b": None},
    ),
    (GraphManifoldSpec, {"pieces": (PIECE,), "edges": (EDGE,)}, {}),
    (FilledSeifert, {"piece_id": "P", "fillings": (("t", (2, 1)),), "coeff": Fraction(1, 4)}, {}),
    (DirectVolume, {"piece_id": "H", "volume": NumericVolume(2.0)}, {}),
    (SmallImage, {"piece_id": "P"}, {}),
    (
        RWResult,
        {"consistent": False, "witness_cycle": (("a", "b", Fraction(2)),), "product": Fraction(2)},
        {"witness_cycle": None, "product": None},
    ),
    (MotegiResult, {"h1_order": 59, "nontrivial": True, "sv_coeff": Fraction(0)}, {}),
    (GraphDocument, {"spec": SPEC, "cases": (("default", SPEC, (SmallImage("P"),)),)}, {}),
    (TorusCoverDatum, {"torus_degree": 4, "curve_degree": 2}, {}),
    (MergeCounts, {"common_degree": 4, "copies": (2, 1), "per_torus_elevations": 2}, {}),
    (
        ColoredMergeCounts,
        {
            "common_degree": 6,
            "central_positive": 6,
            "central_negative": 6,
            "corridor_copies": (3, 4),
            "matched_elevations": (6, 12),
        },
        {},
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def test_every_public_record_class_is_listed():
    classes = set()
    for module in ("exact", "seifert", "ehn", "liecs", "jsj", "covers"):
        home = importlib.import_module(f"repvol.{module}")
        classes.update(getattr(home, name) for name in home.__all__)
    records = {cls for cls in classes if isinstance(cls, type) and hasattr(cls, "__match_args__")}
    assert records == {cls for cls, _, _ in RECORDS}


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(cls, fields, defaults):
    record = cls(**fields)
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert cls(**fields) == record


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
@pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)
def test_pickle_and_copy_round_trip(cls, fields, defaults, clone):
    record = cls(**fields)
    twin = clone(record)
    assert type(twin) is cls
    assert twin == record
    assert hash(twin) == hash(record)
    # the derived fields come along too
    assert vars(twin) == vars(record)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_repr_lists_the_public_fields_in_order(cls, fields, defaults):
    record = cls(**fields)
    shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_repr_leaves_out_derived_fields():
    spec = LieAlgebraSpec(basis=("X",), brackets=())
    gram = GramForm(entries=((PiScalar(1),),))
    assert repr(spec) == "LieAlgebraSpec(basis=('X',), brackets=(), check_jacobi=True)"
    assert repr(gram) == "GramForm(entries=((PiScalar(coeff=GaussianRational(re=Fraction(1, 1), im=Fraction(0, 1)), pi_power=0),),))"
    assert (spec._den, spec._table, spec._by_target, gram._den, gram._rows) == (1, {}, [[]], 1, [{0: (1, 0, 0)}])


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=IDS)
def test_records_of_different_classes_are_unequal(index):
    cls, fields, _ = RECORDS[index]
    record = cls(**fields)
    for other_cls, other_fields, _ in RECORDS[:index] + RECORDS[index + 1 :]:
        other = other_cls(**other_fields)
        assert record != other
        assert not record == other


def test_records_with_equal_field_values_are_unequal_across_classes():
    # the same field values, in two classes
    assert ExactVolume(Fraction(2)) != NumericVolume(Fraction(2))
    assert ExactVolume(Fraction(2)).__eq__(NumericVolume(Fraction(2))) is NotImplemented


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=IDS)
def test_keyword_construction_and_defaults(cls, fields, defaults):
    record = cls(**fields)
    assert record == cls(*fields.values())
    assert all(getattr(record, name) == value for name, value in fields.items())
    required = {name: value for name, value in fields.items() if name not in defaults}
    bare = cls(**required)
    assert all(getattr(bare, name) == value for name, value in defaults.items())
    if required:
        missing = next(iter(required))
        with pytest.raises(TypeError, match=f"missing 1 required positional argument: '{missing}'"):
            cls(**{name: value for name, value in required.items() if name != missing})


def test_hash_is_the_hash_of_the_field_tuple():
    # as a frozen dataclass hashes; SeifertInvariants hashes its pair multiset
    assert hash(MergeCounts(4, (2, 1), 2)) == hash((4, (2, 1), 2))
    assert hash(ExactVolume(Fraction(3, 7))) == hash((Fraction(3, 7),))
    assert hash(PiScalar(GaussianRational(2), 1)) == hash((GaussianRational(2), 1))
