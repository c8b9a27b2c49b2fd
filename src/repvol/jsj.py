"""Graph manifolds as JSJ graphs, and exact additivity of volumes.

A graph manifold is recorded combinatorially: pieces with named torus
boundary slots, and edges carrying the gluing matrix in (section, fiber)
coordinates.  When a representation kills one slope on every gluing
torus, its volume is the sum of the closed pieces' volumes; this module
checks the bookkeeping of that statement and evaluates the sum.

Each record's constructor checks the shapes of its own fields, such as
"two items, never a string or an object" for an endpoint, and raises
``TypeError``.  The JSON loader hands it the values unchanged, so the
library and the CLI refuse the same shapes with the same text.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Mapping
from fractions import Fraction
from typing import Hashable, Optional, Sequence, Union

from .ehn import spectrum_contains
from .exact import (
    ExactVolume,
    NumericVolume,
    VolumeValue,
    _Record,
    _document,
    _ITERABLE,
    _entries,
    _field,
    _integer,
    _printed,
    _require_pair,
    _set,
    _shown,
    _two_each,
    parse_rational,
    volume_sum,
)
from .seifert import SeifertInvariants, _fill

__all__ = [
    "Piece",
    "Edge",
    "GraphManifoldSpec",
    "FilledSeifert",
    "DirectVolume",
    "SmallImage",
    "PieceAssignment",
    "validate_spec",
    "additivity_sum",
    "RWResult",
    "rw_consistency",
    "MotegiResult",
    "motegi_case",
    "motegi_spec",
    "GraphDocument",
    "load_graph_document",
]

Slope = tuple[int, int]
GluingMatrix = tuple[tuple[int, int], tuple[int, int]]
Endpoint = tuple[str, str]


class Piece(_Record):
    """One JSJ piece: a Seifert piece with invariants, or a labeled
    hyperbolic piece whose volume data is supplied externally."""

    id: str
    kind: str
    slots: tuple[str, ...]
    seifert: Optional[SeifertInvariants] = None
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if isinstance(self.slots, (str, dict)):
            raise TypeError(f"slots {_shown(self.slots)} is not a list of names")
        _set(self, "slots", slots := tuple(map(str, self.slots)))
        if self.kind not in ("seifert", "hyperbolic"):
            raise ValueError(f"piece {self.id}: unknown kind {_shown(self.kind)}")
        if len(set(slots)) != len(slots):
            raise ValueError(f"piece {self.id}: duplicate slot names")


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
        if isinstance(gluing, _ITERABLE) and not _two_each((gluing, *gluing)):
            raise TypeError(f"gluing {_shown(gluing)} is not a 2x2 matrix")
        _require_pair(a, "a", "[piece, slot]")
        _require_pair(b, "b", "[piece, slot]")
        _require_pair(self.killed_slope, "killed_slope", "[a, b]")
        _require_pair(self.killed_slope_b, "killed_slope_b", "[a, b]")
        _set(self, "a", (str(a[0]), str(a[1])))
        _set(self, "b", (str(b[0]), str(b[1])))
        (m00, m01), (m10, m11) = gluing
        first = (_integer(m00, "gluing[0][0]"), _integer(m01, "gluing[0][1]"))
        _set(self, "gluing", (first, (_integer(m10, "gluing[1][0]"), _integer(m11, "gluing[1][1]"))))
        for name in ("killed_slope", "killed_slope_b"):
            slope = getattr(self, name)
            if slope is not None:
                _set(self, name, (_integer(slope[0], "{}[0]", name), _integer(slope[1], "{}[1]", name)))

    def push_to_b(self, slope: Slope) -> Slope:
        (m00, m01), (m10, m11) = self.gluing
        return (m00 * slope[0] + m01 * slope[1], m10 * slope[0] + m11 * slope[1])


class GraphManifoldSpec(_Record):
    pieces: tuple[Piece, ...]
    edges: tuple[Edge, ...]
    # validate_spec's answer, kept from its first call on this spec
    _problems: Optional[tuple[str, ...]] = None

    def __post_init__(self) -> None:
        _set(self, "pieces", tuple(self.pieces))
        _set(self, "edges", tuple(self.edges))

    def piece(self, piece_id: str) -> Piece:
        for piece in self.pieces:
            if piece.id == piece_id:
                return piece
        raise ValueError(f"unknown piece {piece_id!r}")


def validate_spec(spec: GraphManifoldSpec) -> list[str]:
    """All structural problems, as human-readable strings; empty means ok.

    A spec is frozen, so its problems are found once, by the first call,
    and kept with it; each call returns a new list.
    """
    if spec._problems is None:
        _set(spec, "_problems", _spec_problems(spec))
    return list(spec._problems)


def _spec_problems(spec: GraphManifoldSpec) -> tuple[str, ...]:
    """``validate_spec``'s walk over the pieces and then the edges."""
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
                count = piece.seifert.boundary_count
                problems.append(f"piece {piece.id}: boundary count {count} != {len(piece.slots)} slots")
        elif not piece.label:
            problems.append(f"piece {piece.id}: hyperbolic piece without label")
    used: set[Endpoint] = set()
    for n, edge in enumerate(spec.edges):
        for endpoint in (edge.a, edge.b):
            pid, slot = endpoint
            piece = first_with_id.get(pid)
            if piece is None:
                problems.append(f"edge {n}: unknown piece {pid!r}")
                continue
            if slot not in piece.slots:
                problems.append(f"edge {n}: piece {pid} has no slot {slot!r}")
            if endpoint in used:
                problems.append(f"edge {n}: slot {pid}.{slot} used more than once")
            used.add(endpoint)
        if edge.a == edge.b:
            problems.append(f"edge {n}: glues a slot to itself")
        (m00, m01), (m10, m11) = edge.gluing
        det = m00 * m11 - m01 * m10
        if det != -1:
            det = _printed(det, f"edge {n}: gluing determinant")
            problems.append(f"edge {n}: gluing determinant is {det}, expected -1")
        slope, slope_b = edge.killed_slope, edge.killed_slope_b
        if slope is not None and math.gcd(*slope) != 1:
            problems.append(f"edge {n}: killed_slope {slope} is not primitive")
        if slope_b is not None and math.gcd(*slope_b) != 1:
            problems.append(f"edge {n}: killed_slope_b {slope_b} is not primitive")
        if slope is not None and slope_b is not None:
            pushed = edge.push_to_b(slope)
            if _normalize_slope(pushed) != _normalize_slope(slope_b):
                pushed = _printed(pushed, f"edge {n}: pushed killed slope")
                problems.append(
                    f"edge {n}: killed slope {slope} maps to {pushed}, "
                    f"but side b declares {slope_b}"
                )
    return tuple(problems)


class FilledSeifert(_Record):
    """The piece stays Seifert after killing the boundary slopes; its
    contribution is a chosen coefficient from the closed piece's spectrum."""

    piece_id: str
    fillings: tuple[tuple[str, Slope], ...]
    coeff: Fraction

    def __post_init__(self) -> None:
        fillings = self.fillings
        rows = list(fillings.items() if type(fillings) is dict or isinstance(fillings, Mapping) else fillings)
        # a string or object row fails the test below whatever its slope
        slopes = [row[1] for row in rows if isinstance(row, (list, tuple)) and len(row) == 2]
        if not (_two_each(rows) and _two_each(slopes)):
            raise TypeError(f"fillings {_shown(fillings)} are not all [slot, [a, b]]")
        filled = []
        for slot, (a, b) in rows:
            filled.append((str(slot), (_integer(a, "fillings[{!r}][0]", slot), _integer(b, "fillings[{!r}][1]", slot))))
        _set(self, "fillings", tuple(sorted(filled)))
        if type(self.coeff) is not Fraction:
            _set(self, "coeff", Fraction(self.coeff))


class DirectVolume(_Record):
    """Externally supplied contribution (e.g. a hyperbolic piece)."""

    piece_id: str
    volume: VolumeValue


class SmallImage(_Record):
    """Restriction has finite or infinite cyclic image, so it contributes 0."""

    piece_id: str


PieceAssignment = Union[FilledSeifert, DirectVolume, SmallImage]


def _normalize_slope(slope: Slope) -> Slope:
    """Flip sign so the section coordinate is positive (slopes are +/-)."""
    c_s, c_h = slope
    if c_s < 0 or (c_s == 0 and c_h < 0):
        return (-c_s, -c_h)
    return (c_s, c_h)


def _cover_problem(spec: GraphManifoldSpec, assignments: Sequence[PieceAssignment]) -> Optional[str]:
    """The refusal of assignments that do not name each piece of ``spec``
    exactly once, or ``None``: ``additivity_sum`` raises it, and
    ``repvol graph validate`` lists it for a case with assignments."""
    assigned = sorted([a.piece_id for a in assignments])
    expected = sorted({piece.id for piece in spec.pieces})
    if assigned != expected:
        return f"assignments cover {assigned}, expected exactly {expected}"
    return None


def additivity_sum(spec: GraphManifoldSpec, assignments: Sequence[PieceAssignment]) -> VolumeValue:
    """Sum of per-piece contributions for a representation that kills the
    declared slope on every gluing torus.

    Every piece must be assigned exactly once.  A ``FilledSeifert``
    assignment must fill exactly the killed slopes of its incident edges
    (up to sign), and its coefficient must lie in the volume spectrum of
    the filled closed piece.
    """
    problems = validate_spec(spec)
    if problems:
        raise ValueError("invalid spec: " + "; ".join(problems))
    # A valid spec puts every slot on at most one edge, so one pass finds
    # each glued slot's killed slope in its own side's coordinates.
    killed: dict[Endpoint, Optional[Slope]] = {}
    for edge in spec.edges:
        killed[edge.a] = edge.killed_slope
        if edge.killed_slope_b is not None:
            killed[edge.b] = edge.killed_slope_b
        elif edge.killed_slope is not None:
            killed[edge.b] = edge.push_to_b(edge.killed_slope)
        else:
            killed[edge.b] = None
    pieces: dict[str, Piece] = {}
    for piece in spec.pieces:
        pieces[piece.id] = piece
        for slot in piece.slots:
            if (piece.id, slot) not in killed:
                raise ValueError(f"slot {piece.id}.{slot} is unglued; additivity needs a closed manifold")
    problem = _cover_problem(spec, assignments)
    if problem:
        raise ValueError(problem)
    contributions: list[VolumeValue] = []
    for assignment in assignments:
        piece = pieces[assignment.piece_id]
        if isinstance(assignment, SmallImage):
            continue  # it contributes 0
        elif isinstance(assignment, DirectVolume):
            contributions.append(assignment.volume)
        elif isinstance(assignment, FilledSeifert):
            if piece.kind != "seifert" or piece.seifert is None:
                raise ValueError(f"piece {piece.id} is not a Seifert piece")
            filled_slots = dict(assignment.fillings)
            if sorted(filled_slots) != sorted(piece.slots):
                raise ValueError(f"piece {piece.id}: fillings must cover slots {sorted(piece.slots)}")
            # slopes are unoriented; fill with the positive representative
            fills = []
            for slot in piece.slots:
                slope = killed[(piece.id, slot)]
                if slope is None:
                    raise ValueError(f"edge at {piece.id}.{slot} declares no killed slope")
                slope, filling = _normalize_slope(slope), _normalize_slope(filled_slots[slot])
                if filling != slope:
                    raise ValueError(
                        f"piece {piece.id}.{slot}: filling {filled_slots[slot]} "
                        f"does not match the killed slope {_printed(slope, 'killed slope')}"
                    )
                fills.append(filling)
            closed = _fill(piece.seifert, fills)
            if not spectrum_contains(closed, assignment.coeff):
                raise ValueError(
                    f"piece {piece.id}: coefficient {_printed(assignment.coeff, 'coefficient')} is not in "
                    f"the spectrum of the filled piece {_printed(closed, 'filled piece')}"
                )
            contributions.append(ExactVolume(assignment.coeff))
        else:
            raise TypeError(f"unknown assignment {assignment!r}")
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
    and denominator.  The name index lives only here."""
    index = {name: i for i, name in enumerate(dict.fromkeys(vertices))}
    end: list[int] = []
    term: list[int] = []
    for u, v, ratio in edges:
        if type(ratio) is not Fraction:
            ratio = Fraction(ratio)
        try:
            tail, head = index[u], index[v]
        except KeyError:
            raise ValueError(f"edge ({_shown(u)}, {_shown(v)}) uses unknown vertices") from None
        # ratio is exactly a Fraction here, so its slots are read directly
        numerator = ratio._numerator
        if numerator <= 0:
            raise ValueError(f"edge ratio must be positive, got {ratio}")
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
    for name, value in (("p1", p1), ("q1", q1), ("p2", p2), ("q2", q2)):
        if value < 2:
            raise ValueError(f"{name} must be >= 2, got {value}")


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
    if math.gcd(p1, q1) != 1:
        raise ValueError(f"gcd(p1, q1) must be 1, got gcd({p1}, {q1})")
    if math.gcd(p2, q2) != 1:
        raise ValueError(f"gcd(p2, q2) must be 1, got gcd({p2}, {q2})")
    pieces = []
    for name, (p, q) in (("E1", (p1, q1)), ("E2", (p2, q2))):
        pieces.append(
            Piece(
                id=name,
                kind="seifert",
                slots=("T",),
                seifert=SeifertInvariants(
                    genus=0, pairs=_torus_knot_pairs(p, q), boundary_count=1
                ),
            )
        )
    edge = Edge(a=("E1", "T"), b=("E2", "T"), gluing=((0, 1), (1, 0)))
    return GraphManifoldSpec(pieces=tuple(pieces), edges=(edge,))


class GraphDocument(_Record):
    """A graph spec plus one or more named assignment cases."""

    spec: GraphManifoldSpec
    cases: tuple[tuple[str, GraphManifoldSpec, tuple[PieceAssignment, ...]], ...]


def _piece_from_json(entry: Mapping, path: str) -> Piece:
    kind = _field(entry, "kind", path)
    slots = _field(entry, "slots", path)
    seifert = None
    if kind == "seifert":
        seifert = SeifertInvariants(_field(entry, "genus", path), entry.get("pairs", ()), len(slots))
    return Piece(str(_field(entry, "id", path)), str(kind), slots, seifert, entry.get("label"))


def _edge_from_json(entry: Mapping, path: str) -> Edge:
    a, b, gluing = _field(entry, "a", path), _field(entry, "b", path), _field(entry, "gluing", path)
    return Edge(a, b, gluing, entry.get("killed_slope") or None, entry.get("killed_slope_b") or None)


def _volume_from_json(entry: Mapping, path: str) -> VolumeValue:
    if "exact" in entry:
        return ExactVolume(parse_rational(str(entry["exact"]), path, "malformed entry (bad exact {})"))
    if "numeric" in entry:
        raw = entry["numeric"]
        try:
            value = float(raw)
        except ValueError:
            value = math.nan  # an unreadable string is refused like "nan"
        if not math.isfinite(value):
            raise TypeError(f"bad numeric {_shown(raw)}")
        return NumericVolume(value)
    raise ValueError(f"direct assignment {_shown(entry)} needs 'exact' or 'numeric'")


def _assignment_from_json(entry: Mapping, path: str) -> PieceAssignment:
    piece_id = str(_field(entry, "piece", path))
    kind = entry.get("assign")
    if kind == "small_image":
        return SmallImage(piece_id)
    if kind == "direct":
        return DirectVolume(piece_id, _volume_from_json(entry, path))
    if kind == "filled":
        fillings = _field(entry, "fillings", path)
        coeff = parse_rational(str(_field(entry, "coeff", path)), path, "malformed entry (bad coeff {})")
        return FilledSeifert(piece_id, fillings, coeff)
    raise ValueError(f"assignment {_shown(entry)} needs assign: small_image|direct|filled")


def _case_from_json(spec: GraphManifoldSpec, case: Mapping, path: str):
    name = str(_field(case, "name", path))
    edges = spec.edges
    slopes = case.get("killed_slopes")
    if slopes is not None:
        if len(slopes) != len(edges):
            raise ValueError(f"case {name}: {len(slopes)} killed slopes for {len(edges)} edges")
        slopes = [slope or None for slope in slopes]
        for i, slope in enumerate(slopes):
            _require_pair(slope, f"killed_slopes[{i}]", "[a, b]")
        # each slope is read at its own place; the spec's edges are checked
        slopes = [
            s and (_integer(s[0], "killed_slopes[{}][0]", i), _integer(s[1], "killed_slopes[{}][1]", i))
            for i, s in enumerate(slopes)
        ]
        edges = tuple(
            Edge._trusted(a=edge.a, b=edge.b, gluing=edge.gluing, killed_slope=slope, killed_slope_b=None)
            for edge, slope in zip(edges, slopes)
        )
    assignments = _entries(case.get("assignments", []), f"{path}.assignments", _assignment_from_json)
    return (name, GraphManifoldSpec(pieces=spec.pieces, edges=edges), assignments)


def load_graph_document(doc: Mapping) -> GraphDocument:
    """Parse the JSON graph-manifold format (see the README for the schema).

    A malformed document raises ``ValueError`` naming the path of the bad
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
                raise ValueError(f"cases[{i}]: duplicate case name {_shown(name)}")
            names.add(name)
    elif "assignments" in doc:
        assignments = _entries(doc["assignments"], "assignments", _assignment_from_json)
        cases = (("default", spec, assignments),)
    else:
        cases = (("default", spec, ()),)
    return GraphDocument(spec=spec, cases=cases)
