"""Oracles from the paper's own relations between spectra.

Every other oracle is a second implementation of the path it checks, and
shares that path's reading of the input.  These check answers against
each other instead:

- a representation of pi1(M) pulls back to a degree-d cover with d times
  its volume, so d * vol(M) is contained in vol(cover) for the fiber and
  base covers of a circle bundle;
- a Seifert symbol names its manifold up to moving whole turns between
  fibres: (a_i, b_i) -> (a_i, b_i + k_i * a_i) with sum(k_i) = 0, the pairs
  in any order, names the same manifold, so its spectrum is the same;
- under that move, with the pairs kept in order, e and the fibre orders
  stay, so each witness keeps (n_values, n, zeta, coeff) and its place in
  the list, and z_i = n_i/a_i - (b_i/a_i) * zeta becomes z_i - k_i * zeta;
- a graph manifold's additivity sum reads a filled piece only through its
  closed space, so the same move on a piece's pairs leaves it unchanged.

None of these relations sees a fault that maps every spectrum to itself
under the moves, such as a uniform sign flip of every b_i.
"""

import math
import random
from fractions import Fraction

from repvol.ehn import VolumeWitness, volume_set, witnesses_for
from repvol.exact import Refusal
from repvol.jsj import Edge, FilledSeifert, GraphManifoldSpec, Piece, additivity_sum
from repvol.seifert import SeifertInvariants, base_cover, circle_bundle, dehn_fill, fiber_cover


def _outcome(inv):
    """The spectrum of ``inv``, or the text of its refusal."""
    try:
        return volume_set(inv)
    except Refusal as exc:
        return str(exc)


def test_a_cover_holds_d_times_each_volume():
    # circle_bundle(g, e) for g = 1..3 and e = 1..12, each fiber and base
    # cover of degree 1..6; a pair is refused only for its geometry (a
    # genus-1 base has chi = 0) or because a fiber cover needs d | e
    held = refused = 0
    for genus in range(1, 4):
        for euler in range(1, 13):
            bundle = circle_bundle(genus, euler)
            for cover in (fiber_cover, base_cover):
                for degree in range(1, 7):
                    where = (genus, euler, cover.__name__, degree)
                    expect_refusal = genus == 1 or (cover is fiber_cover and euler % degree != 0)
                    try:
                        below, above = volume_set(bundle), set(volume_set(cover(bundle, degree)))
                    except Refusal:
                        assert expect_refusal, where
                        refused += 1
                        continue
                    assert not expect_refusal, where
                    assert {degree * v for v in below} <= above, where
                    held += 1
    assert (held, refused) == (202, 230)


def _symbol(rng, fibres=(1, 4)):
    """A seeded closed symbol: genus 1 or 2, one to four fibres (or
    ``fibres`` many) of order 2..9."""
    pairs = []
    for _ in range(rng.randint(*fibres)):
        a = rng.randint(2, 9)
        pairs.append((a, rng.choice([b for b in range(1 - a, a) if math.gcd(a, b) == 1])))
    return rng.randint(1, 2), pairs


def _turns(rng, pairs):
    """Whole turns k_i in -2..2, one per pair, summing to 0."""
    turns = [0] * len(pairs)
    if len(pairs) > 1:
        turns = [rng.randint(-2, 2) for _ in pairs]
        while sum(turns):
            turns = [rng.randint(-2, 2) for _ in pairs]
    return turns


def _moved(pairs, turns):
    """The pairs with b_i moved by k_i whole turns, in their order."""
    return [(a, b + k * a) for (a, b), k in zip(pairs, turns)]


def _equivalent(rng, pairs):
    """The pairs with whole turns k_i in -2..2, summing to 0, moved between
    them, and shuffled."""
    moved = _moved(pairs, _turns(rng, pairs))
    rng.shuffle(moved)
    return moved


def test_equivalent_symbols_have_one_spectrum():
    rng = random.Random("equivalent-symbols")
    spectra = moved = 0
    for _ in range(400):
        genus, pairs = _symbol(rng)
        other = _equivalent(rng, pairs)
        expected = _outcome(SeifertInvariants(genus, tuple(pairs)))
        assert _outcome(SeifertInvariants(genus, tuple(other))) == expected, (genus, pairs, other)
        spectra += not isinstance(expected, str)
        moved += sorted(other) != sorted(pairs)
    # most symbols have a spectrum, and most moves change the symbol
    assert (spectra, moved) == (394, 265)


def test_moved_turns_shift_each_witness_by_its_zeta():
    # seeded symbols of genus 1 or 2, up to three coefficients of each
    # spectrum: the same witnesses in the same order, each z_i less k_i * zeta,
    # and the moved witness is one by VolumeWitness's own rule
    rng = random.Random("witness-shift")
    checked = witnesses = 0
    for _ in range(300):
        genus, pairs = _symbol(rng)
        turns = _turns(rng, pairs)
        inv, moved = SeifertInvariants(genus, tuple(pairs)), SeifertInvariants(genus, tuple(_moved(pairs, turns)))
        try:
            values = volume_set(inv)
        except Refusal:
            continue
        for coeff in rng.sample(values, min(3, len(values))):
            before, after = witnesses_for(inv, coeff), witnesses_for(moved, coeff)
            assert len(after) == len(before), (pairs, turns, coeff)
            for w, m in zip(before, after):
                z_values = tuple(z - k * w.zeta for z, k in zip(w.z_values, turns))
                assert m == VolumeWitness(moved, w.n_values, w.n, w.zeta, z_values, w.coeff), (pairs, turns, coeff)
            checked += 1
            witnesses += len(before)
    assert (checked, witnesses) == (894, 9292)


def _glued(pieces):
    """Seifert pieces P and Q, each (genus, pairs) with one boundary slot t,
    glued so that both kill the slope (2, 1)."""
    seifert = [SeifertInvariants(genus, tuple(pairs), 1) for genus, pairs in pieces]
    spec = tuple(Piece(id=name, kind="seifert", slots=("t",), seifert=inv) for name, inv in zip("PQ", seifert))
    return GraphManifoldSpec(spec, (Edge(a=("P", "t"), b=("Q", "t"), gluing=((3, -4), (2, -3)), killed_slope=(2, 1)),))


def _additivity(pieces, coeffs):
    """The additivity sum of ``_glued(pieces)`` with each piece filled by
    (2, 1) at its coefficient, or the text of its refusal up to the filled
    piece's symbol, which the move rewrites."""
    try:
        return additivity_sum(_glued(pieces), [FilledSeifert(name, {"t": (2, 1)}, c) for name, c in zip("PQ", coeffs)])
    except Refusal as exc:
        return str(exc).partition(" of the filled piece")[0]


def test_moved_turns_in_a_filled_piece_keep_the_additivity_sum():
    # two pieces of two or three fibres each; a coefficient from the filled
    # piece's spectrum three times in four, otherwise a seeded rational
    rng = random.Random("graph-shift")
    sums = 0
    for _ in range(300):
        pieces = [_symbol(rng, (2, 3)) for _ in "PQ"]
        coeffs = []
        for genus, pairs in pieces:
            try:
                values = volume_set(dehn_fill(genus, 1, [(2, 1)], pairs))
            except Refusal:
                values = []
            member = values and rng.random() < 0.75
            coeffs.append(rng.choice(values) if member else Fraction(rng.randint(1, 60), rng.randint(1, 9)))
        moved = [(genus, _moved(pairs, _turns(rng, pairs))) for genus, pairs in pieces]
        expected = _additivity(pieces, coeffs)
        assert _additivity(moved, coeffs) == expected, (pieces, moved, coeffs)
        sums += not isinstance(expected, str)
    assert sums == 151
