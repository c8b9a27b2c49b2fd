"""Volume spectra of closed Seifert spaces with sl2r-tilde geometry.

A transversely projective horizontal foliation exists for the data
(g; n_1/a_1, ..., n_p/a_p, n) exactly when

    sum(floor(n_i / a_i)) - n <= 2g - 2   and
    sum(ceil(n_i / a_i))  - n >= 2 - 2g,

and every representation volume of the fibration equals

    (sum(n_i / a_i) - n)^2 / |e|

in units of 4*pi^2 for some such tuple.  Shifting any n_i by a_i while
shifting n by 1 changes neither the constraints nor the value, so the
residues 0 <= r_i < a_i with 2 - 2g <= m <= 2g - 2 + #{i : r_i > 0}
already give the whole spectrum.  The value sees the residues only
through s = sum(r_i * lcm/a_i), as t^2 * E_den / (lcm^2 * |E_num|) with
t = s - m * lcm and e = E_num / E_den, so the fibres fold into sumset
layers, each mapping a residue sum s of the first k fibres to the most
nonzero residues reaching it; that is exact, since only the upper end of
the m range depends on the count and grows with it.

Each space has one fibre table (``_fibres``), kept in its
``SeifertInvariants._table`` from the first call on: an O(p) header (e,
lcm, scale, denom and the steps lcm/a_i), and the layers, folded once
(``_fold``) by the first call that needs them; ``seifert_volume_max``,
``spectrum_size_bound`` and the ``VolumeWitness`` constructor never
fold.  A space refused for its geometry writes no table.  The table
lives on the record, never in a map keyed by it: two equal records may
list their fibres in different orders, and the layers and witnesses
follow each record's own order.  ``volume_set`` groups the last layer's
sums by count and shifts each group by every m it admits.
``spectrum_contains`` and ``witnesses_for`` read a coefficient and its
roots t from the header before any fold, by one reader (``_offsets``),
so only a root folds; each m is then one lookup in the last layer.
``witnesses_for`` sorts each layer's keys into classes mod its fibre's
step (``_classes``), one sort per layer per call, and walks back through
the layers on an explicit stack.  A frame at sum s reads only the keys
of the layer below in s's class inside its window [s - lcm + step, s],
found by two bisections, and steps to those that can still reach the
count they need, down to layers[1], whose sum fixes the first fibre's
residue.  Every frame it pushes leads to a witness, so a frame costs its
children plus two bisections, besides one test per key of its window
that falls short of its count.  Its budget counts the leaves of that
tree over the same layers and the same index by window sums
(``_tree_size``).  Each witness is derived in
integers over the common denominator lcm * |E_num| and checked by
integer tests.  Every witness under one root t shares zeta, and z_i
depends only on t and (i, n_i), so ``witnesses_for`` builds zeta once
per root and each z_i once per root and (i, n_i) met (``_fields``, the
rule the constructor checks by).  Values and fields come from
``exact._fraction``, one ``gcd`` per value.  Each budget is refused by
``exact._check_budget`` in the function that would spend the work,
before it starts: the spectrum bound in ``volume_set`` and ``_offsets``,
on every call, the oracle window in ``volume_set_bruteforce``, and the
witness count in ``witnesses_for``.

The maximum needs no enumeration: the largest |t| is |chi| * lcm,
attained by the residues a_i - 1 with m = 2 - 2g, so
``seifert_volume_max`` computes that one integer t, in O(p), and checks
its coefficient against chi^2/|e|.  ``volume_set_bruteforce`` tests the
defining constraints over a plain integer window and shares no code
with any of these: it sums e and chi as plain ``Fraction``s itself,
collects the integers |t|, and builds one ``Fraction`` per distinct |t|.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import getitem, mul
from typing import Callable, Iterable, Iterator

from . import _HOMES
from .exact import MAX_VALUES, Refusal, _Record, _as_fraction, _check_budget, _fraction, _integer, _printed, _set
from .seifert import SeifertInvariants, _over_lcm, _require_closed, euler_number, orbifold_chi

__all__ = [*_HOMES["ehn"]]


def foliation_exists(genus: int, slopes: Iterable[Fraction]) -> bool:
    """Horizontal-foliation test for a closed fibration over genus >= 1: the
    genus read by ``_integer``, and any iterable of slopes, each by ``_as_fraction``."""
    if _integer(genus, "genus") < 1:
        raise Refusal("foliation criterion requires base genus >= 1")
    slopes = tuple(map(_as_fraction, slopes))  # read once, as slopes may be an iterator
    floor_sum = sum(map(math.floor, slopes))
    ceil_sum = sum(map(math.ceil, slopes))
    return floor_sum <= 2 * genus - 2 and ceil_sum >= 2 - 2 * genus


def _fibres(inv: SeifertInvariants) -> tuple[Fraction, int, int, int, list[int], tuple[dict[int, int], ...] | None]:
    """The fibre table of ``inv``: (e, lcm, scale, denom, steps, layers).

    Each value is t^2 * scale / denom with integer t = s - m * lcm, and
    steps[i] = lcm/a_i, so residue r of fibre i adds r * steps[i] to s.
    ``layers`` is ``None`` until ``_fold`` builds it.  The first call
    writes the table into ``inv._table``; later calls read it there.

    A ``Refusal`` unless the geometry of ``inv`` is sl2r-tilde and its
    base genus is >= 1; such a space keeps no table, so each call refuses
    it again, with the same text.
    """
    table = inv._table
    if table is None:
        lcm, steps, e_lcm, chi_lcm = _over_lcm(inv, "euler_number")
        _require_volume_geometry(inv, lcm, e_lcm, chi_lcm)
        e = _fraction(e_lcm, lcm)
        table = (e, lcm, e.denominator, lcm * lcm * abs(e.numerator), steps, None)
        _set(inv, "_table", table)
    return table


def _fold(inv: SeifertInvariants) -> tuple[Fraction, int, int, int, list[int], tuple[dict[int, int], ...]]:
    """The fibre table of ``inv`` with its sumset layers: layers[k] maps each
    residue sum of the first k fibres to the most nonzero residues reaching
    it.  Folded by the first call, which writes them into the table; each
    caller has refused a space whose ``spectrum_size_bound`` is over its limit."""
    table = _fibres(inv)
    if table[5] is None:
        lcm, steps = table[1], table[4]
        layers = itertools.accumulate((range(step, lcm, step) for step in steps), _add_fibre, initial={0: 0})
        table = (*table[:5], tuple(layers))
        _set(inv, "_table", table)
    return table


def _t_of(lcm: int, steps: list[int], n_values: Iterable[int], n: int) -> int:
    """t = sum(n_i * lcm/a_i) - n * lcm of the data (n_values, n), so that
    sum(n_i/a_i) - n = t/lcm."""
    return sum(map(mul, n_values, steps)) - n * lcm


def _require_volume_geometry(inv: SeifertInvariants, lcm: int, e: int | Fraction, chi: int | Fraction) -> None:
    """A ``Refusal`` unless e != 0, chi < 0 and the base genus is >= 1,
    for e and chi over ``lcm``: ``seifert._over_lcm``'s integers, or
    ``Fraction``s over 1."""
    if not e or chi >= 0:
        e = _printed(Fraction(e, lcm), "Euler number")
        chi = _printed(Fraction(chi, lcm), "orbifold Euler characteristic")
        raise Refusal(f"volume spectrum needs sl2r-tilde geometry (e = {e}, chi = {chi})")
    if inv.genus < 1:
        raise Refusal("volume spectrum requires base genus >= 1")


def _add_fibre(layer: dict[int, int], offsets: range) -> dict[int, int]:
    """Next sumset layer: residue sum s -> most nonzero residues reaching s.

    Each s walks its offsets in order and stops after the first t that
    the input layer reaches with at least s's count: t's own window covers
    the rest of s's, with a count at least as large.  So the sums that
    visit one cell have counts falling strictly as the sums rise, and a
    cell of layer k is visited at most k times."""
    out = dict(layer)  # residue 0 keeps both the sum and the count
    for s, count in layer.items():
        for d in offsets:
            t = s + d
            have = out.get(t)
            if have is None:  # a cell new to out is no key of layer
                out[t] = count + 1
            else:
                if have <= count:
                    out[t] = count + 1
                if layer.get(t, -1) >= count:
                    break
    return out


def volume_set(inv: SeifertInvariants, *, limit: int = MAX_VALUES) -> list[Fraction]:
    """All volume coefficients (units of 4*pi^2), ascending and exact, or refused over ``limit``."""
    _check_budget(spectrum_size_bound(inv), limit)
    _, lcm, scale, denom, _, layers = _fold(inv)
    groups: dict[int, list[int]] = {}
    for s, count in layers[-1].items():
        groups.setdefault(count, []).append(s)
    lo, hi = 2 - 2 * inv.genus, 2 * inv.genus - 2
    t_abs: set[int] = set()
    for count, group in groups.items():
        for shift in range(lo * lcm, (hi + count + 1) * lcm, lcm):  # m * lcm
            t_abs.update([abs(s - shift) for s in group])
    # the value grows with |t|, so ascending |t| is ascending value
    return [_fraction(t * t * scale, denom) for t in sorted(t_abs)]


def spectrum_size_bound(inv: SeifertInvariants) -> int:
    """Upper bound on ``len(volume_set(inv))``, in O(p) and without the sumset.

    The sumset holds at most min(prod(a_i), sum((a_i - 1) * lcm/a_i) + 1)
    residue sums, and each gives at most 4g - 3 + p offsets m.  Not in
    ``__all__``; ``volume_set`` and ``_offsets`` refuse a space over its limit.

    The work each path spends per counted value: the fold visits a cell
    of layer k at most k times (``_add_fibre``), so at most p/2 cell
    visits; ``volume_set`` makes at most one shift, and ``_offsets`` reads
    4g - 3 + p cells in all; ``_tree_size`` visits at most 2p (key, need)
    pairs, each once in a running sum, and makes two bisections per state.
    The walk of ``witnesses_for`` is counted by its own budget, in
    witnesses: a frame costs its children plus two bisections, none for
    the first fibre, after one sort of each layer per call (``_classes``).
    """
    lcm = _fibres(inv)[1]
    moduli = [a for a, _ in inv.pairs]
    sums = min(math.prod(moduli), sum((a - 1) * (lcm // a) for a in moduli) + 1)
    return sums * (4 * inv.genus - 3 + len(moduli))


def _offsets(inv: SeifertInvariants, coeff: Fraction, limit: int) -> tuple[Fraction, list[tuple[int, int]]]:
    """``coeff`` by ``_as_fraction``, after the geometry and the budget, and its
    pairs (t, m): the roots t of t^2 * scale / denom == coeff, from the header,
    then s = t + m * lcm in the last layer with >= m - (2g - 2) nonzero residues."""
    _check_budget(spectrum_size_bound(inv), limit)
    _, lcm, scale, denom, _, _ = _fibres(inv)
    coeff = _as_fraction(coeff)
    t_sq, rest = divmod(coeff.numerator * denom, coeff.denominator * scale)
    t_abs = math.isqrt(max(t_sq, 0))
    if rest or t_sq != t_abs * t_abs:
        return coeff, []
    sums, lo, hi = _fold(inv)[5][-1], 2 - 2 * inv.genus, 2 * inv.genus - 2
    return coeff, [
        (t, m)
        for t, m in itertools.product({t_abs, -t_abs}, range(lo, hi + len(inv.pairs) + 1))
        if sums.get(t + m * lcm, m - hi - 1) >= m - hi
    ]


def spectrum_contains(inv: SeifertInvariants, coeff: Fraction) -> bool:
    """Whether ``coeff`` is in ``volume_set(inv)``, without building it:
    the coefficient and its t^2 lattice roots are read from the header
    before any fold, then one sumset lookup per offset m; refused over
    ``MAX_VALUES`` as ``volume_set`` is.  Not in ``__all__``;
    ``jsj.additivity_sum`` checks assignments with it."""
    return bool(_offsets(inv, coeff, MAX_VALUES)[1])


def volume_set_bruteforce(inv: SeifertInvariants, *, limit: int = MAX_VALUES) -> list[Fraction]:
    """Same spectrum from the defining constraints over a finite window.

    Every tuple (n_1, ..., n_p, n) with all entries in [-B, B] is tested
    against the two inequalities directly; B = ``_oracle_bound(inv)`` is
    wide enough to contain every canonical representative.  Each
    admissible tuple gives the integer t = sum(n_i * lcm/a_i) - n * lcm,
    and each distinct |t| the value t^2 / (lcm^2 * |e|).  A window of
    more than ``limit`` (tuple, n) pairs is refused before any is tested.
    This path deliberately shares no code with ``volume_set``: e and chi
    are summed here as plain ``Fraction``s, and each value is built as one.
    """
    # volume_set's refusals, word for word
    _require_closed(inv, "euler_number")
    g = inv.genus
    a_list = [a for a, _ in inv.pairs]
    e = sum((Fraction(b, a) for a, b in inv.pairs), Fraction(0))
    chi = 2 - 2 * g - sum((Fraction(a - 1, a) for a in a_list), Fraction(0))
    _require_volume_geometry(inv, 1, e, chi)
    _check_budget(_oracle_window(inv), limit, "oracle (tuple, n) pairs")
    bound = _oracle_bound(inv)
    lcm = math.lcm(*a_list) if a_list else 1
    window = range(-bound, bound + 1)
    # Per coordinate: (floor(v/a), ceil(v/a), v scaled to the common denominator).
    tables = [
        [(v // a, -((-v) // a), v * (lcm // a)) for v in window]
        for a in a_list
    ]
    t_values: set[int] = set()
    hi_shift = 2 * g - 2
    for combo in itertools.product(*tables):
        floor_sum = 0
        ceil_sum = 0
        s = 0
        for f, c, sv in combo:
            floor_sum += f
            ceil_sum += c
            s += sv
        n_lo = max(floor_sum - hi_shift, -bound)
        n_hi = min(ceil_sum + hi_shift, bound)
        # t = s - n * lcm for n = n_hi, ..., n_lo
        t_values.update(range(s - n_hi * lcm, s - n_lo * lcm + 1, lcm))
    # the value grows with |t|, so ascending |t| is ascending value
    scale, denom = e.denominator, lcm * lcm * abs(e.numerator)
    return [Fraction(t * t * scale, denom) for t in sorted({abs(t) for t in t_values})]


def _oracle_bound(inv: SeifertInvariants) -> int:
    """B = 2 + 2g + sum(a_i): ``volume_set_bruteforce`` tests every entry in [-B, B]."""
    return 2 + 2 * inv.genus + sum(a for a, _ in inv.pairs)


def _oracle_window(inv: SeifertInvariants) -> int:
    """How many (tuple, n) pairs ``volume_set_bruteforce`` tests, for the
    genus >= 1 it runs on: each of its (2B+1)^p tuples walks at most
    min(2B+1, p + 4g - 3) values of n, since its range of n is
    ceil_sum - floor_sum + 4g - 3 <= p + 4g - 3 wide and lies in [-B, B]."""
    width, p = 2 * _oracle_bound(inv) + 1, len(inv.pairs)
    return width**p * min(width, p + 4 * inv.genus - 3)


def _fields(inv: SeifertInvariants, e: Fraction, lcm: int, t: int) -> tuple[Fraction, Callable[[int, int], Fraction]]:
    """zeta, and z_i as a function of (i, n_i), for the data of ``inv`` with
    t = sum(n_i * lcm/a_i) - n * lcm: the one rule for both.

    With e = E_num / E_den each field is an integer over the common
    denominator c = lcm * |E_num|: with u = sign(E_num) * t * E_den,
    zeta = u / c and z_i = (n_i * c - b_i * u) / (a_i * c).  So zeta
    depends only on t, and z_i only on t and (i, n_i).
    """
    common = lcm * abs(e.numerator)
    shift = t * e.denominator if e.numerator > 0 else -t * e.denominator

    def z(i: int, ni: int) -> Fraction:
        a, b = inv.pairs[i]
        return _fraction(ni * common - b * shift, a * common)

    return _fraction(shift, common), z


def seifert_volume_max(inv: SeifertInvariants) -> Fraction:
    """Largest coefficient; must agree with chi^2/|e| or something is wrong.

    It is read off one integer, in O(p): the residues a_i - 1 with
    m = 2 - 2g give the largest |t| = |chi| * lcm.
    """
    _, lcm, scale, denom, steps, _ = _fibres(inv)
    t = _t_of(lcm, steps, [a - 1 for a, _ in inv.pairs], 2 - 2 * inv.genus)
    enumerated = _fraction(t * t * scale, denom)
    # the closed form reads seifert's own e and chi, not the integers above
    chi = orbifold_chi(inv)
    closed_form = chi * chi / abs(euler_number(inv))
    if enumerated != closed_form:
        raise RuntimeError(
            f"volume maximum mismatch: enumeration gives {enumerated}, "
            f"closed form gives {closed_form}"
        )
    return enumerated


class VolumeWitness(_Record):
    """Foliation data certifying one volume coefficient.

    ``n_values``/``n`` satisfy the two defining inequalities, ``zeta`` is
    the common translation length (sum(n_i/a_i) - n) / e, and each
    ``z_values[i]`` equals n_i/a_i - (b_i/a_i) * zeta.  ``inv`` must have
    sl2r-tilde geometry and base genus >= 1.
    """

    inv: SeifertInvariants
    n_values: tuple[int, ...]
    n: int
    zeta: Fraction
    z_values: tuple[Fraction, ...]
    coeff: Fraction

    def __post_init__(self) -> None:
        # tuples, as witnesses_for builds them, so that equality and hash hold
        _set(self, "n_values", tuple(self.n_values))
        _set(self, "z_values", tuple(self.z_values))
        inv = self.inv
        e, lcm, scale, denom, steps, _ = _fibres(inv)
        if len(self.n_values) != len(inv.pairs):
            raise Refusal("witness length does not match exceptional data")
        g = inv.genus
        if sum(ni // a for ni, (a, _) in zip(self.n_values, inv.pairs)) - self.n > 2 * g - 2:
            raise Refusal("witness violates the floor inequality")
        if sum(-(-ni // a) for ni, (a, _) in zip(self.n_values, inv.pairs)) - self.n < 2 - 2 * g:
            raise Refusal("witness violates the ceiling inequality")
        t = _t_of(lcm, steps, self.n_values, self.n)
        zeta, z = _fields(inv, e, lcm, t)
        if self.zeta != zeta:
            raise Refusal("witness zeta does not match its data")
        if self.z_values != tuple(itertools.starmap(z, enumerate(self.n_values))):
            raise Refusal("witness z-values do not match its data")
        if self.coeff != _fraction(t * t * scale, denom):
            raise Refusal("witness coefficient does not match its data")


def _classes(layer: dict[int, int], d: int) -> dict[int, list[int]]:
    """The keys of ``layer`` by class mod ``d``, each class ascending: one
    sort of the keys, each then appended to its class."""
    classes: dict[int, list[int]] = {}
    for s in sorted(layer):
        classes.setdefault(s % d, []).append(s)
    return classes


def _tree_size(layers: tuple[dict[int, int], ...], index: tuple[dict[int, list[int]], ...], steps: list[int],
               lcm: int, starts: Iterable[tuple[int, int]]) -> int:
    """The leaves of ``witnesses_for``'s walk from the (sum, need) ``starts``,
    counted down to layers[1], whose sum fixes the first fibre's residue,
    with one (sum, need) -> multiplicity map per fibre.

    With step d = lcm/a, a state (s, need) goes to (s, need) by residue 0
    and to (u, need - 1) by residue (s - u) / d, for each key u of the
    layer below in its class mod d in [s - lcm + d, s) (``index``, as the
    walk reads it) that reaches need - 1.  Each state adds its
    multiplicity over that window of its class's keys in one difference
    run per (class, need), and one running sum reads every key's total;
    a fibre of order 1 has an empty window."""
    states = dict.fromkeys(starts, 1)
    for below, classes, d in zip(layers[-2:0:-1], index[-1:0:-1], steps[:0:-1]):
        runs: dict[tuple[int, int], list[int]] = {}  # (class, need) -> difference run over the class's keys
        for (s, need), n in states.items():
            keys = classes[s % d]
            # get first: a setdefault alone would build a run per state
            run = runs.get((s % d, need)) or runs.setdefault((s % d, need), [0] * (len(keys) + 1))
            run[bisect_left(keys, s - lcm + d)] += n
            run[bisect_left(keys, s)] -= n
        states = {(s, need): n for (s, need), n in states.items() if below.get(s, need - 1) >= need}
        for (c, need), run in runs.items():
            for u, n in zip(classes[c], itertools.accumulate(run)):
                if n and below[u] >= need - 1:
                    states[u, need - 1] = states.get((u, need - 1), 0) + n
    return sum(states.values())


def witnesses_for(inv: SeifertInvariants, coeff: Fraction, *, limit: int = MAX_VALUES) -> list[VolumeWitness]:
    """All canonical tuples attaining ``coeff``, as full witnesses, its
    roots read from the header before any fold; refused over ``limit`` as
    ``volume_set`` is, and when the walk's own tree over the same layers
    (``_tree_size``) has more than ``limit`` leaves, before any is built."""
    coeff, offsets = _offsets(inv, coeff, limit)
    if not offsets:
        raise Refusal(f"coefficient {_printed(coeff, 'coefficient')} is not in the volume spectrum")
    e, lcm, _, _, steps, layers = _fold(inv)
    # index[k]: the keys of layers[k] by class mod steps[k], for the walk and its count
    lo, hi, p, index = 2 - 2 * inv.genus, 2 * inv.genus - 2, len(steps), tuple(map(_classes, layers, steps))
    # each residue tuple meets each root +-t at one m, so 2 * prod(a_i) bounds the list
    if 2 * math.prod(a for a, _ in inv.pairs) > limit:
        starts = [(t + m * lcm, m - hi) for t, m in offsets]
        _check_budget(_tree_size(layers, index, steps, lcm, starts), limit, "witnesses")

    def tuples(s: int, need: int) -> Iterator[tuple[int, ...]]:
        # residues summing to s, >= need of them nonzero, walked back on an
        # explicit stack: one Python frame per fibre would overflow at a few
        # thousand fibres.  A frame (k, s, need, r) still has the first k
        # fibres to choose, has given fibre k residue r (slot p is a dummy),
        # and is only pushed when layers[k] reaches s with >= need nonzero.
        residues = [0] * (p + 1)
        stack = [(p, s, need, 0)]
        while stack:
            k, s, need, r = stack.pop()
            residues[k] = r
            if k == 1:  # layers[1] maps r * steps[0] to [r > 0], so s fixes fibre 0's residue
                residues[0] = s // steps[0]
                yield tuple(residues[:p])
                continue
            # residue r of fibre k - 1 adds r * step to s, so the children are the
            # keys u of layers[k-1] in s's class in [s - lcm + step, s] that reach
            # need - 1 nonzero residues, or need at u = s (residue 0)
            below, step = layers[k - 1], steps[k - 1]
            keys = index[k - 1][s % step]
            for u in keys[bisect_left(keys, s - lcm + step) : bisect_right(keys, s)]:
                if below[u] >= need - (u < s):
                    stack.append((k - 1, u, need - (u < s), (s - u) // step))

    data = []
    for t, m in offsets:
        for residues in tuples(t + m * lcm, m - hi):
            # canonical residues: floor(r_i/a_i) = 0 and ceil(r_i/a_i) = [r_i > 0];
            # t passed _offsets' test t^2 * scale / denom == coeff in integers,
            # so the residues' own t equal to it checks the coefficient too
            count = p - residues.count(0)
            if m < lo or count - m < lo or _t_of(lcm, steps, residues, m) != t:
                raise RuntimeError(f"witness {residues}, {m} fails its own constraints")
            data.append((m, residues, t))
    data.sort()  # by n, then n_values: (n, n_values) fixes t
    # the fields of each root once: zeta, and z_i of each residue met in fibre i
    fields = {}
    for t in {t for t, _ in offsets}:
        zeta, z = _fields(inv, e, lcm, t)
        columns = zip(*[residues for _, residues, u in data if u == t])
        fields[t] = zeta, [{r: z(i, r) for r in set(column)} for i, column in enumerate(columns)]
    found = []
    for m, residues, t in data:
        zeta, rows = fields[t]
        z_values = tuple(map(getitem, rows, residues))
        found.append(VolumeWitness._trusted(inv=inv, n_values=residues, n=m, zeta=zeta, z_values=z_values, coeff=coeff))
    return found
