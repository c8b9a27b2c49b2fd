"""Graph manifolds as JSJ graphs, and exact additivity of volumes.

A graph manifold is recorded combinatorially: pieces with named torus
boundary slots, and edges carrying the gluing matrix in (section, fiber)
coordinates.  When a representation kills one slope on every gluing
torus, its volume is the sum of the closed pieces' volumes; this module
checks the bookkeeping of that statement and evaluates the sum, both
from one walk of the spec, kept with it from the first call.

Each record's constructor, ``NumericVolume``'s among them, checks its
own fields, such as "a list or tuple of two items" for an endpoint, and
raises ``ShapeRefusal``; names it keeps as given, once ``_hashable`` has
read them, so every table of names can be built.  The JSON loader hands it
the values unchanged, and walks a whole list only after the record's rule
has read it, so library and CLI refuse the same shapes with the same text;
it also refuses a non-string name by its path (an endpoint's names are
read before its ``Edge`` is built, which then reads the other fields).
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Mapping
from fractions import Fraction
from typing import Hashable, Optional, Sequence, Union

from . import _HOMES
from .exact import (
    ExactVolume,
    NumericVolume,
    Refusal,
    ShapeRefusal,
    VolumeValue,
    _Record,
    _as_fraction,
    _document,
    _each,
    _entries,
    _field,
    _hashable,
    _int_pair,
    _integer,
    _is_pair,
    _name,
    _printed,
    _rational,
    _require_pair,
    _rows,
    _set,
    _shown,
    volume_sum,
)
from .seifert import SeifertInvariants, _fill

__all__ = [*_HOMES["jsj"], "PieceAssignment", "GraphDocument"]

Slope = tuple[int, int]
GluingMatrix = tuple[tuple[int, int], tuple[int, int]]
Endpoint = tuple[str, str]

# The whole-list refusals of Piece.slots and FilledSeifert.fillings; the loader reads by them too.
_SLOTS = "slots {} is not a list of names"
_FILLINGS = "fillings {} are not all [slot, [a, b]]"


def _require_name(name: object, what: str) -> None:
    """A ``ShapeRefusal`` reading ``<what> <name> is not a name`` unless ``_hashable(name)``."""
    if not _hashable(name):
        raise ShapeRefusal(f"{what} {_shown(name)} is not a name")


class Piece(_Record):
    """One JSJ piece: a Seifert piece with invariants, or a labeled
    hyperbolic piece whose volume data is supplied externally."""

    id: str
    kind: str
    slots: tuple[str, ...]
    seifert: Optional[SeifertInvariants] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        _require_name(self.id, "id")
        _set(self, "slots", slots := tuple(_rows(self.slots, _SLOTS, _hashable)))
        if self.kind not in ("seifert", "hyperbolic"):
            raise Refusal(f"piece {self.id}: unknown kind {_shown(self.kind)}")
        if len(set(slots)) != len(slots):
            raise Refusal(f"piece {self.id}: duplicate slot names")


class Edge(_Record):
    """A gluing torus between two slots.

    ``gluing`` maps side-a (section, fiber) coordinates to side-b ones
    and must have determinant -1 (orientation-reversing on the torus).
    ``killed_slope`` is a primitive pair in side-a coordinates; a slope
    declared independently on side b must match it through the gluing up
    to sign.
    """

    a: Endpoint
    b: Endpoint
    gluing: GluingMatrix
    killed_slope: Optional[Slope] = None
    killed_slope_b: Optional[Slope] = None

    def __post_init__(self) -> None:
        a, b, gluing = self.a, self.b, self.gluing
        if not (_is_pair(gluing) and _is_pair(gluing[0]) and _is_pair(gluing[1])):
            raise ShapeRefusal(f"gluing {_shown(gluing)} is not a 2x2 matrix")
        for side, end in (("a", a), ("b", b)):
            # a tuple hashes when both its items do
            if not (_is_pair(end) and _hashable((end[0], end[1]))):
                raise ShapeRefusal(f"{side} {_shown(end)} is not [piece, slot]")
        slopes = [name for name in ("killed_slope", "killed_slope_b") if getattr(self, name) is not None]
        for name in slopes:
            _require_pair(getattr(self, name), name, "[a, b]")
        _set(self, "a", (a[0], a[1]))
        _set(self, "b", (b[0], b[1]))
        # every shape is refused before any entry is read
        _set(self, "gluing", (_int_pair(gluing[0], "gluing[0][{}]"), _int_pair(gluing[1], "gluing[1][{}]")))
        for name in slopes:
            _set(self, name, _int_pair(getattr(self, name), "{}[{}]", name))

    def push_to_b(self, slope: Slope) -> Slope:
        (m00, m01), (m10, m11) = self.gluing
        return (m00 * slope[0] + m01 * slope[1], m10 * slope[0] + m11 * slope[1])


class GraphManifoldSpec(_Record):
    pieces: tuple[Piece, ...]
    edges: tuple[Edge, ...]
    # _spec_problems's answer, kept from the first walk of this spec
    _walk: Optional[tuple] = None

    def __post_init__(self) -> None:
        _set(self, "pieces", tuple(_rows(self.pieces, "pieces {} is not a list of pieces", lambda row: isinstance(row, Piece))))
        _set(self, "edges", tuple(_rows(self.edges, "edges {} is not a list of edges", lambda row: isinstance(row, Edge))))

    def piece(self, piece_id: str) -> Piece:
        """The first piece with this id, from the walk's table; a spec whose
        walk refuses refuses here the same way."""
        first_with_id = _walked(self)[1]
        try:
            return first_with_id[piece_id]
        except (KeyError, TypeError):  # a TypeError: an id that cannot be hashed
            raise Refusal(f"unknown piece {_shown(piece_id)}") from None


def validate_spec(spec: GraphManifoldSpec) -> list[str]:
    """All structural problems, as human-readable strings; empty means ok.

    A spec is frozen, so it is walked once, by the first call here or in
    ``additivity_sum``, and the walk is kept with it; each call returns a
    new list.
    """
    return list(_walked(spec)[0])


def _walked(spec: GraphManifoldSpec) -> tuple:
    """``_spec_problems(spec)``, kept with ``spec`` from the first call."""
    if spec._walk is None:
        _set(spec, "_walk", _spec_problems(spec))
    return spec._walk


def _spec_problems(spec: GraphManifoldSpec) -> tuple:
    """The one walk of a spec, over its pieces and then its edges: its
    problems, and three facts read only when there are none.  These are
    the first piece with each id; each glued slot's killed slope in its
    own coordinates (side b's declared slope, else side a's pushed
    through the gluing, else ``None``); and the first unglued slot in
    piece and slot order, or ``None``."""
    problems: list[str] = []
    first_with_id: dict[str, Piece] = {}
    for piece in spec.pieces:
        if piece.id in first_with_id:
            problems.append(f"duplicate piece id {piece.id!r}")
        else:
            first_with_id[piece.id] = piece
        if piece.kind == "seifert":
            if piece.seifert is None:
                problems.append(f"piece {piece.id}: seifert piece without invariants")
            elif piece.seifert.boundary_count != len(piece.slots):
                problems.append(f"piece {piece.id}: boundary count {piece.seifert.boundary_count} != {len(piece.slots)} slots")
        elif not piece.label:
            problems.append(f"piece {piece.id}: hyperbolic piece without label")
    killed: dict[Endpoint, Optional[Slope]] = {}
    for n, edge in enumerate(spec.edges):
        slope, slope_b = edge.killed_slope, edge.killed_slope_b
        on_b = slope_b if slope_b is not None or slope is None else edge.push_to_b(slope)
        for endpoint, own in ((edge.a, slope), (edge.b, on_b)):
            pid, slot = endpoint
            piece = first_with_id.get(pid)
            if piece is None:
                problems.append(f"edge {n}: unknown piece {pid!r}")
                continue
            if slot not in piece.slots:
                problems.append(f"edge {n}: piece {pid} has no slot {slot!r}")
            if endpoint in killed:
                problems.append(f"edge {n}: slot {pid}.{slot} used more than once")
            killed[endpoint] = own
        if edge.a == edge.b:
            problems.append(f"edge {n}: glues a slot to itself")
        (m00, m01), (m10, m11) = edge.gluing
        det = m00 * m11 - m01 * m10
        if det != -1:
            det = _printed(det, f"edge {n}: gluing determinant")
            problems.append(f"edge {n}: gluing determinant is {det}, expected -1")
        for name, declared in (("killed_slope", slope), ("killed_slope_b", slope_b)):
            if declared is not None and math.gcd(*declared) != 1:
                problems.append(f"edge {n}: {name} {declared} is not primitive")
        if slope is not None and slope_b is not None:
            pushed = edge.push_to_b(slope)
            if _normalize_slope(pushed) != _normalize_slope(slope_b):
                pushed = _printed(pushed, f"edge {n}: pushed killed slope")
                problems.append(f"edge {n}: killed slope {slope} maps to {pushed}, but side b declares {slope_b}")
    slots = ((piece.id, slot) for piece in spec.pieces for slot in piece.slots)
    unglued = next((endpoint for endpoint in slots if endpoint not in killed), None)
    return tuple(problems), first_with_id, killed, unglued


class FilledSeifert(_Record):
    """The piece stays Seifert after killing the boundary slopes; its
    contribution is a chosen coefficient from the closed piece's spectrum."""

    piece_id: str
    fillings: tuple[tuple[str, Slope], ...]
    coeff: Fraction

    def __post_init__(self) -> None:
        _require_name(self.piece_id, "piece_id")
        rows = _rows(self.fillings, _FILLINGS, lambda row: _is_pair(row) and _hashable(row[0]) and _is_pair(row[1]), True)
        if len({slot for slot, _ in rows}) != len(rows):
            raise ShapeRefusal(f"fillings {_shown(self.fillings)} fill a slot twice")
        filled = [(slot, _int_pair(slope, "fillings[{!r}][{}]", slot)) for slot, slope in rows]
        _set(self, "fillings", tuple(sorted(filled, key=lambda row: (_by_type(row[0]), row[1]))))
        _set(self, "coeff", _as_fraction(self.coeff))


class DirectVolume(_Record):
    """Externally supplied contribution (e.g. a hyperbolic piece)."""

    piece_id: str
    volume: VolumeValue

    def __post_init__(self) -> None:
        _require_name(self.piece_id, "piece_id")


class SmallImage(_Record):
    """Restriction has finite or infinite cyclic image, so it contributes 0."""

    piece_id: str

    def __post_init__(self) -> None:
        _require_name(self.piece_id, "piece_id")


PieceAssignment = Union[FilledSeifert, DirectVolume, SmallImage]
_ASSIGNMENTS = (FilledSeifert, DirectVolume, SmallImage)


def _normalize_slope(slope: Slope) -> Slope:
    """Flip sign so the section coordinate is positive (slopes are +/-)."""
    c_s, c_h = slope
    if c_s < 0 or (c_s == 0 and c_h < 0):
        return (-c_s, -c_h)
    return (c_s, c_h)


def _by_type(name: Hashable) -> tuple:
    """A sort key for names kept as given: by type, then by value, so two
    names of different types are never compared; strings sort as
    themselves."""
    return (type(name).__name__, name)


def _cover_problem(spec: GraphManifoldSpec, assignments: Sequence[PieceAssignment]) -> Optional[str]:
    """The refusal of assignments that do not name each piece of ``spec``
    exactly once, or ``None``: ``additivity_sum`` raises it, and
    ``repvol graph validate`` lists it for a case with assignments."""
    assigned = [a.piece_id for a in assignments]
    expected = _walked(spec)[1].keys()
    if Counter(assigned) != Counter(expected):
        assigned, expected = sorted(assigned, key=_by_type), sorted(expected, key=_by_type)
        return f"assignments cover {assigned}, expected exactly {expected}"
    return None


def additivity_sum(spec: GraphManifoldSpec, assignments: Sequence[PieceAssignment]) -> VolumeValue:
    """Sum of per-piece contributions for a representation that kills the
    declared slope on every gluing torus.

    Every piece must be assigned exactly once.  A ``FilledSeifert``
    assignment must fill exactly the killed slopes of its incident edges
    (up to sign), and its coefficient must lie in the volume spectrum of
    the filled closed piece.  ``assignments`` is read first, by the
    whole-list rule: a list or tuple of these three records, or a
    ``ShapeRefusal``.
    """
    from .ehn import spectrum_contains  # only additivity reads a spectrum, so no other graph command loads ehn

    assignments = _rows(assignments, "assignments {} is not a list of assignments", lambda row: isinstance(row, _ASSIGNMENTS))
    problems, pieces, killed, unglued = _walked(spec)
    if problems:
        raise Refusal("invalid spec: " + "; ".join(problems))
    if unglued is not None:
        raise Refusal(f"slot {unglued[0]}.{unglued[1]} is unglued; additivity needs a closed manifold")
    problem = _cover_problem(spec, assignments)
    if problem:
        raise Refusal(problem)
    contributions: list[VolumeValue] = []
    for assignment in assignments:
        piece = pieces[assignment.piece_id]
        if isinstance(assignment, SmallImage):
            continue  # it contributes 0
        elif isinstance(assignment, DirectVolume):
            contributions.append(assignment.volume)
        else:  # a FilledSeifert, the one other row additivity reads
            if piece.kind != "seifert":
                raise Refusal(f"piece {piece.id} is not a Seifert piece")
            filled_slots = dict(assignment.fillings)
            if filled_slots.keys() != set(piece.slots):
                raise Refusal(f"piece {piece.id}: fillings must cover slots {sorted(piece.slots, key=_by_type)}")
            # slopes are unoriented; fill with the positive representative
            fills = []
            for slot in piece.slots:
                slope = killed[(piece.id, slot)]
                if slope is None:
                    raise Refusal(f"edge at {piece.id}.{slot} declares no killed slope")
                slope, filling = _normalize_slope(slope), _normalize_slope(filled_slots[slot])
                if filling != slope:
                    raise Refusal(
                        f"piece {piece.id}.{slot}: filling {filled_slots[slot]} "
                        f"does not match the killed slope {_printed(slope, 'killed slope')}"
                    )
                fills.append(filling)
            closed = _fill(piece.seifert, fills)
            if not spectrum_contains(closed, assignment.coeff):
                raise Refusal(
                    f"piece {piece.id}: coefficient {_printed(assignment.coeff, 'coefficient')} is not in "
                    f"the spectrum of the filled piece {_printed(closed, 'filled piece')}"
                )
            contributions.append(ExactVolume(assignment.coeff))
    return volume_sum(contributions)


class RWResult(_Record):
    """Outcome of the edge-ratio consistency check."""

    consistent: bool
    witness_cycle: Optional[tuple[tuple[Hashable, Hashable, Fraction], ...]] = None
    product: Optional[Fraction] = None


def _numbered(
    vertices: Sequence[Hashable],
    edges: Sequence[tuple[Hashable, Hashable, Fraction]],
) -> tuple[list[Hashable], list[int], list[int]]:
    """The distinct vertex names in input order, and the edges over their
    numbers.  Edge k is stored once: ``end[2k]`` and ``end[2k + 1]`` are its
    tail and head, ``term[2k]`` and ``term[2k + 1]`` its ratio's numerator
    and denominator.  The name index lives only here.  A name that cannot
    be hashed, a vertex or an edge's end, is refused as a ``Refusal``;
    ``edges`` is read once by ``_each``, and an edge that is not three
    items as a ``ShapeRefusal``."""
    try:
        index = {name: i for i, name in enumerate(dict.fromkeys(vertices))}
    except TypeError:  # a name that cannot be hashed
        raise Refusal(f"vertices {_shown(vertices)} are not all names") from None
    end: list[int] = []
    term: list[int] = []
    for edge in _each(edges, "edges"):
        try:
            u, v, ratio = edge
        except (TypeError, ValueError):  # no iterable of three items
            raise ShapeRefusal(f"edge {_shown(edge)} is not [u, v, ratio]") from None
        if type(ratio) is not Fraction:
            ratio = _as_fraction(ratio)
        try:
            tail, head = index[u], index[v]
        except (KeyError, TypeError):  # a TypeError: an end that cannot be hashed, so no vertex
            raise Refusal(f"edge ({_shown(u)}, {_shown(v)}) uses unknown vertices") from None
        # ratio is exactly a Fraction here, so its slots are read directly
        numerator = ratio._numerator
        if numerator <= 0:
            raise Refusal(f"edge ratio must be positive, got {ratio}")
        end += (tail, head)
        term += (numerator, ratio._denominator)
    return list(index), end, term


def rw_consistency(
    vertices: Sequence[Hashable],
    edges: Sequence[tuple[Hashable, Hashable, Fraction]],
) -> RWResult:
    """Decide whether positive edge ratios extend to a vertex potential.

    Each directed edge (u, v, ratio) implicitly carries the reverse edge
    with the inverse ratio.  Ratios are multiplicative, so consistency
    means every cycle multiplies to exactly 1; the check grows a
    breadth-first spanning forest of potentials, each tree rooted at the
    first vertex of its component in input order, and tests every edge
    in input order.  A repeated vertex name names one vertex.  The
    vertices are numbered once and the name index is then dropped; each
    vertex's edge sides are linked in input order through two flat tables,
    with no list per vertex.  The side-number tables ``first``, ``nxt``
    and ``into`` are ``array("q")``s, which hold each entry in 8 bytes with
    no int object behind it.  Potentials are kept as integer numerators
    and denominators in lowest terms; a tree step reduces by the two cross
    gcds gcd(num, q) and gcd(p, den), as ``Fraction.__mul__`` does, so no
    gcd pairs two potentials, whose size grows with the depth.  An edge
    u -> v with ratio p/q is tested by comparing cross products, so no
    ``Fraction`` is built unless an edge fails.  On failure the
    fundamental cycle of the first offending edge is returned with its
    ratios and product as ``Fraction``s; the product is then necessarily
    != 1.  The cycle runs through the tree only, so it has at most
    2 * (eccentricity of its root) + 1 steps.
    """
    names, end, term = _numbered(vertices, edges)
    # Side s (2k or 2k + 1) is edge k seen from end[s]: the step to
    # end[s ^ 1] multiplies the potential by term[s] / term[s ^ 1].
    # first[i] is vertex i's first side and nxt[s] the next side seen from
    # end[s], both in input order; -1 ends a chain.
    first = array("q", [-1]) * len(names)
    nxt = array("q", [-1]) * len(end)
    for side, x in zip(range(len(end) - 1, -1, -1), reversed(end)):
        nxt[side] = first[x]
        first[x] = side

    # potential of vertex i = num[i] / den[i]; num[i] == 0 means unreached
    num = [0] * len(names)
    den = [0] * len(names)
    # into[i] = the side its parent sees i's tree edge from; roots have -1
    into = array("q", [-1]) * len(names)
    gcd = math.gcd
    for root in range(len(names)):
        if num[root]:
            continue
        num[root] = den[root] = 1
        queue = [root]
        for u in queue:
            side = first[u]
            while side >= 0:
                v = end[side ^ 1]
                if not num[v]:
                    p, q = term[side], term[side ^ 1]
                    g = gcd(num[u], q)
                    h = gcd(p, den[u])
                    num[v] = (num[u] // g) * (p // h)
                    den[v] = (den[u] // h) * (q // g)
                    into[v] = side
                    queue.append(v)
                side = nxt[side]

    for side in range(0, len(end), 2):
        u, v = end[side], end[side + 1]
        if num[u] * term[side] * den[v] == num[v] * den[u] * term[side + 1]:
            continue
        v_steps, u_steps = [], []
        for x, steps in ((v, v_steps), (u, u_steps)):
            while into[x] >= 0:
                steps.append(x)
                x = end[into[x]]
        # both walks end at the same root; the shared tail lies above the
        # two endpoints' lowest common ancestor
        while v_steps and u_steps and v_steps[-1] == u_steps[-1]:
            v_steps.pop()
            u_steps.pop()
        cycle = [(names[u], names[v], Fraction(term[side], term[side + 1]))]
        for x in v_steps:
            s = into[x]
            cycle.append((names[x], names[end[s]], Fraction(term[s ^ 1], term[s])))
        for x in reversed(u_steps):
            s = into[x]
            cycle.append((names[end[s]], names[x], Fraction(term[s], term[s ^ 1])))
        product = math.prod(step for _, _, step in cycle)
        return RWResult(consistent=False, witness_cycle=tuple(cycle), product=product)
    return RWResult(consistent=True)


class MotegiResult(_Record):
    h1_order: int
    nontrivial: bool
    sv_coeff: Fraction


def _torus_knot_pairs(p: int, q: int) -> tuple[Slope, Slope]:
    """Seifert data of the (p, q) torus-knot exterior: two exceptional
    fibers whose coefficients solve q*b1 + p*b2 = 1."""
    b1 = pow(q, -1, p) if p > 1 else 0
    b2 = (1 - q * b1) // p
    return ((p, b1), (q, b2))


def _validate_motegi_params(p1: int, q1: int, p2: int, q2: int) -> None:
    """Refuse a parameter that ``_integer`` does not read, or one below 2."""
    for name, value in (("p1", p1), ("q1", q1), ("p2", p2), ("q2", q2)):
        if _integer(value, name) < 2:
            raise Refusal(f"{name} must be >= 2, got {value}")


def motegi_case(p1: int, q1: int, p2: int, q2: int) -> MotegiResult:
    """Two torus-knot exteriors glued exchanging meridian and fiber.

    The first homology is cyclic of order p1*q1*p2*q2 - 1; the result is
    a nontrivial graph manifold exactly when that order exceeds 15, and
    its volume coefficient is always 0.  The order formula needs no
    coprimality, so only the >= 2 bound is enforced here.
    """
    _validate_motegi_params(p1, q1, p2, q2)
    order = p1 * q1 * p2 * q2 - 1
    return MotegiResult(h1_order=order, nontrivial=order > 15, sv_coeff=Fraction(0))


def motegi_spec(p1: int, q1: int, p2: int, q2: int) -> GraphManifoldSpec:
    """The JSJ graph of the glued torus-knot exteriors: the gluing swaps
    meridian and fiber, i.e. the matrix [[0, 1], [1, 0]]."""
    _validate_motegi_params(p1, q1, p2, q2)
    pieces = []
    for i, (p, q) in enumerate(((p1, q1), (p2, q2)), 1):
        if math.gcd(p, q) != 1:
            raise Refusal(f"gcd(p{i}, q{i}) must be 1, got gcd({p}, {q})")
        seifert = SeifertInvariants(genus=0, pairs=_torus_knot_pairs(p, q), boundary_count=1)
        pieces.append(Piece(id=f"E{i}", kind="seifert", slots=("T",), seifert=seifert))
    edge = Edge(a=("E1", "T"), b=("E2", "T"), gluing=((0, 1), (1, 0)))
    return GraphManifoldSpec(pieces=tuple(pieces), edges=(edge,))


class GraphDocument(_Record):
    """A graph spec plus one or more named assignment cases."""

    spec: GraphManifoldSpec
    cases: tuple[tuple[str, GraphManifoldSpec, tuple[PieceAssignment, ...]], ...]


def _piece_from_json(entry: Mapping, path: str) -> Piece:
    kind = _name(_field(entry, "kind", path), "{}.kind", path)
    slots = _rows(_field(entry, "slots", path), _SLOTS)
    seifert = SeifertInvariants(_field(entry, "genus", path), entry.get("pairs", ()), len(slots)) if kind == "seifert" else None
    piece_id = _name(_field(entry, "id", path), "{}.id", path)
    for j, slot in enumerate(slots):
        if type(slot) is not str:
            _name(slot, "{}.slots[{}]", path, j)
    return Piece(piece_id, kind, slots, seifert, entry.get("label"))


def _edge_from_json(entry: Mapping, path: str) -> Edge:
    a, b, gluing = _field(entry, "a", path), _field(entry, "b", path), _field(entry, "gluing", path)
    for side, end in (("a", a), ("b", b)):
        if _is_pair(end) and not (type(end[0]) is str and type(end[1]) is str):
            _name(end[0], "{}.{}[0]", path, side)
            _name(end[1], "{}.{}[1]", path, side)
    return Edge(a, b, gluing, entry.get("killed_slope"), entry.get("killed_slope_b"))


def _volume_from_json(entry: Mapping, path: str) -> VolumeValue:
    if "exact" in entry:
        return ExactVolume(_rational(entry["exact"], path, "malformed entry (bad exact {})"))
    if "numeric" in entry:
        return NumericVolume(entry["numeric"])
    raise Refusal(f"direct assignment {_shown(entry)} needs 'exact' or 'numeric'")


def _assignment_from_json(entry: Mapping, path: str) -> PieceAssignment:
    piece_id = _name(_field(entry, "piece", path), "{}.piece", path)
    kind = entry.get("assign")
    if kind == "small_image":
        return SmallImage(piece_id)
    if kind == "direct":
        return DirectVolume(piece_id, _volume_from_json(entry, path))
    if kind == "filled":
        fillings = _field(entry, "fillings", path)
        coeff = _rational(_field(entry, "coeff", path), path, "malformed entry (bad coeff {})")
        for j, row in enumerate(_rows(fillings, _FILLINGS, mapping=True)):
            if _is_pair(row) and type(row[0]) is not str:
                _name(row[0], "{}.fillings[{}][0]", path, j)
        return FilledSeifert(piece_id, fillings, coeff)
    raise Refusal(f"assignment {_shown(entry)} needs assign: small_image|direct|filled")


def _case_from_json(spec: GraphManifoldSpec, case: Mapping, path: str):
    name = _name(_field(case, "name", path), "{}.name", path)
    slopes = case.get("killed_slopes")
    if slopes is not None:
        slopes = _rows(slopes, "killed_slopes {} is not a list of slopes")
        if len(slopes) != len(spec.edges):
            raise Refusal(f"case {name}: {len(slopes)} killed slopes for {len(spec.edges)} edges")
        for i, slope in enumerate(slopes):
            if slope is not None:
                _require_pair(slope, f"killed_slopes[{i}]", "[a, b]")
        # each slope is read at its own place; the spec's edges are checked
        slopes = [None if s is None else _int_pair(s, "killed_slopes[{}][{}]", i) for i, s in enumerate(slopes)]
        edges = tuple(
            Edge._trusted(a=edge.a, b=edge.b, gluing=edge.gluing, killed_slope=slope, killed_slope_b=None)
            for edge, slope in zip(spec.edges, slopes)
        )
        spec = GraphManifoldSpec._trusted(pieces=spec.pieces, edges=edges)  # without them a case shares the document's spec
    assignments = _entries(case.get("assignments", []), f"{path}.assignments", _assignment_from_json)
    return (name, spec, assignments)


def load_graph_document(doc: Mapping) -> GraphDocument:
    """Parse the JSON graph-manifold format (see the README for the schema).

    A malformed document raises ``Refusal`` naming the path of the bad
    part, such as ``pieces[0].kind: missing``; so does a case name used
    twice, at its second case, since each case names one total.
    """
    doc = _document(doc, "pieces", "edges")
    pieces = _entries(_field(doc, "pieces"), "pieces", _piece_from_json)
    spec = GraphManifoldSpec(pieces, _entries(doc.get("edges", []), "edges", _edge_from_json))
    if "cases" in doc:
        cases = _entries(doc["cases"], "cases", lambda case, path: _case_from_json(spec, case, path))
        names = set()
        for i, (name, _, _) in enumerate(cases):
            if name in names:
                raise Refusal(f"cases[{i}]: duplicate case name {_shown(name)}")
            names.add(name)
    elif "assignments" in doc:
        assignments = _entries(doc["assignments"], "assignments", _assignment_from_json)
        cases = (("default", spec, assignments),)
    else:
        cases = (("default", spec, ()),)
    return GraphDocument(spec=spec, cases=cases)
