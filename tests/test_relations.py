"""Oracles from the paper's own relations between spectra.

Every other oracle is a second implementation of the path it checks, and
shares that path's reading of the input.  These check answers against
each other instead:

- a representation of pi1(M) pulls back to a degree-d cover with d times
  its volume, so d * vol(M) is contained in vol(cover) for the fiber and
  base covers of a circle bundle;
- a Seifert symbol names its manifold up to moving whole turns between
  fibres: (a_i, b_i) -> (a_i, b_i + k_i * a_i) with sum(k_i) = 0, the pairs
  in any order, names the same manifold, so its spectrum is the same.

Neither relation sees a fault that maps every spectrum to itself under
both moves, such as a uniform sign flip of every b_i.
"""

import math
import random

from repvol.ehn import volume_set
from repvol.exact import Refusal
from repvol.seifert import SeifertInvariants, base_cover, circle_bundle, fiber_cover


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


def _symbol(rng):
    """A seeded closed symbol: genus 1 or 2, one to four fibres of order 2..9."""
    pairs = []
    for _ in range(rng.randint(1, 4)):
        a = rng.randint(2, 9)
        pairs.append((a, rng.choice([b for b in range(1 - a, a) if math.gcd(a, b) == 1])))
    return rng.randint(1, 2), pairs


def _equivalent(rng, pairs):
    """The pairs with whole turns k_i in -2..2, summing to 0, moved between
    them, and shuffled."""
    turns = [0] * len(pairs)
    if len(pairs) > 1:
        turns = [rng.randint(-2, 2) for _ in pairs]
        while sum(turns):
            turns = [rng.randint(-2, 2) for _ in pairs]
    moved = [(a, b + k * a) for (a, b), k in zip(pairs, turns)]
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
