"""Seifert fibered spaces over orientable closed base orbifolds.

A space is recorded by its unnormalized Seifert invariants
``(g; b_1/a_1, ..., b_p/a_p)``: base genus ``g`` and exceptional data
pairs ``(a_i, b_i)`` with ``a_i >= 1`` and ``gcd(a_i, |b_i|) = 1``.
Pairs with ``a_i = 1`` are legal and are kept as written; the volume
and Euler-number formulas do not depend on how the data is normalized.
"""

from __future__ import annotations

import enum
import math
import re
from fractions import Fraction
from typing import Sequence

from . import _HOMES
from .exact import Refusal, _Record, _fraction, _int_pair, _integer, _is_pair, _positive, _rows, _set, _shown, _too_long

__all__ = [*_HOMES["seifert"]]


class ParseError(Refusal):
    """Seifert notation error carrying the character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _check_pair(a: int, b: int, what: str, k: int) -> None:
    if a <= 0:
        raise Refusal(f"{what} {k}: multiplicity must be positive, got {a}")
    if math.gcd(a, abs(b)) != 1:
        raise Refusal(f"{what} {k}: {b}/{a} is not in lowest terms")


class SeifertInvariants(_Record):
    """Unnormalized invariants (genus; pairs) plus open boundary count.

    Equality treats the pair list as a multiset: two records differing
    only in pair order describe the same space.  ``_table`` is the
    fibre table of ``ehn``, written by ``ehn`` on first use and kept with
    this record, in its own pair order; like every derived field it takes
    no part in the repr, ``==`` or ``hash``.  A pickled or copied space may
    carry its table.
    """

    genus: int
    pairs: tuple[tuple[int, int], ...] = ()
    boundary_count: int = 0
    _table: tuple | None = None

    def __post_init__(self) -> None:
        rows = _rows(self.pairs, "pairs {} are not all [a, b]", _is_pair)
        _set(self, "pairs", pairs := tuple([_int_pair(row, "pairs[{}][{}]", i) for i, row in enumerate(rows)]))
        if (genus := _integer(self.genus, "genus")) < 0:
            raise Refusal(f"base genus must be >= 0, got {genus}")
        if (count := _integer(self.boundary_count, "boundary_count")) < 0:
            raise Refusal(f"boundary count must be >= 0, got {count}")
        for k, (a, b) in enumerate(pairs, start=1):
            _check_pair(a, b, "pair", k)

    @property
    def is_closed(self) -> bool:
        return self.boundary_count == 0

    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    def _key(self) -> tuple:
        return (self.genus, self.boundary_count, self.sorted_pairs())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SeifertInvariants):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        return format_seifert(self)


class GeometryTag(enum.Enum):
    SL2R_TILDE = "sl2r-tilde"
    OTHER = "other"


def _require_closed(inv: SeifertInvariants, what: str) -> None:
    if not inv.is_closed:
        raise Refusal(f"{what} requires a closed space, got boundary count {inv.boundary_count}")


def _over_lcm(inv: SeifertInvariants, what: str) -> tuple[int, list[int], int, int]:
    """(lcm, steps, e, chi) of a closed space, ``what`` naming the refusal
    of one with boundary: lcm = lcm(a_i), steps[i] = lcm/a_i, and the
    integers e = lcm * sum(b_i/a_i) and chi = lcm * (2 - 2g - sum(1 - 1/a_i)).
    The one derivation of e and chi, for this module and ``ehn``."""
    _require_closed(inv, what)
    lcm = math.lcm(*[a for a, _ in inv.pairs])
    steps = [lcm // a for a, _ in inv.pairs]
    e = sum([b * step for (_, b), step in zip(inv.pairs, steps)])
    return lcm, steps, e, (2 - 2 * inv.genus - len(steps)) * lcm + sum(steps)


def euler_number(inv: SeifertInvariants) -> Fraction:
    """Euler number e = sum(b_i / a_i) of a closed Seifert fibration."""
    lcm, _, e, _ = _over_lcm(inv, "euler_number")
    return _fraction(e, lcm)


def orbifold_chi(inv: SeifertInvariants) -> Fraction:
    """Orbifold Euler characteristic 2 - 2g - sum(1 - 1/a_i) of the base."""
    lcm, _, _, chi = _over_lcm(inv, "orbifold_chi")
    return _fraction(chi, lcm)


def classify_geometry(inv: SeifertInvariants) -> GeometryTag:
    """SL2R_TILDE exactly when e != 0 and the base orbifold is hyperbolic."""
    _, _, e, chi = _over_lcm(inv, "classify_geometry")
    return GeometryTag.SL2R_TILDE if e and chi < 0 else GeometryTag.OTHER


def dehn_fill(
    genus: int,
    open_boundary: int,
    fillings: Sequence[tuple[int, int]],
    existing_pairs: Sequence[tuple[int, int]] = (),
) -> SeifertInvariants:
    """Fill ``len(fillings)`` of the ``open_boundary`` torus boundaries.

    Each filling pair (a, b) becomes new exceptional data; it must have
    a > 0 and be in lowest terms.  The result is closed when every
    boundary is filled.
    """
    return _fill(SeifertInvariants(genus, existing_pairs, open_boundary), fillings)


def _fill(inv: SeifertInvariants, fillings: Sequence[tuple[int, int]]) -> SeifertInvariants:
    """``inv`` with each filling, a pair of integers (a, b) with a > 0 in
    lowest terms, added to its pairs and closing one open boundary: the one
    reader of fillings.  ``inv`` is checked, so the result skips the constructor."""
    rows = _rows(fillings, "fillings {} are not all [a, b]", _is_pair)
    filled = tuple([_int_pair(row, "fillings[{}][{}]", i) for i, row in enumerate(rows)])
    if len(filled) > inv.boundary_count:
        raise Refusal(f"{len(filled)} fillings exceed {inv.boundary_count} open boundaries")
    for k, (a, b) in enumerate(filled, start=1):
        _check_pair(a, b, "filling", k)
    pairs, boundary_count = inv.pairs + filled, inv.boundary_count - len(filled)
    return SeifertInvariants._trusted(genus=inv.genus, pairs=pairs, boundary_count=boundary_count)


def circle_bundle(genus: int, euler: int) -> SeifertInvariants:
    """Closed orientable circle bundle with integer Euler number, read by ``_integer``."""
    pairs = ((1, euler),) if _integer(euler, "euler") else ()
    return SeifertInvariants(genus=genus, pairs=pairs)


def _require_bundle(inv: SeifertInvariants, what: str) -> int:
    """The integer Euler number of a closed circle bundle."""
    lcm, _, e, _ = _over_lcm(inv, what)
    if lcm != 1:
        raise Refusal(f"{what} requires a circle bundle (all multiplicities 1)")
    return e


def fiber_cover(inv: SeifertInvariants, degree: int) -> SeifertInvariants:
    """Degree-d cover along the fiber direction: divides the Euler number."""
    e = _require_bundle(inv, "fiber_cover")
    _positive(degree, "cover degree")
    if e % degree != 0:
        raise Refusal(f"fiber cover degree {degree} does not divide Euler number {e}")
    return circle_bundle(inv.genus, e // degree)


def base_cover(inv: SeifertInvariants, degree: int) -> SeifertInvariants:
    """Pullback along a degree-k cover of the base surface (genus >= 1).

    The base genus becomes k(g-1)+1 and the Euler number is multiplied
    by k.
    """
    e = _require_bundle(inv, "base_cover")
    _positive(degree, "cover degree")
    if inv.genus < 1:
        raise Refusal("base_cover requires base genus >= 1")
    return circle_bundle(degree * (inv.genus - 1) + 1, degree * e)


# One token per match: an integer, a punctuation mark, or (group 3) any
# other visible character, which the notation refuses.
_TOKEN = re.compile(r"\s*(?:(-?\d+)|([();,/])|(\S))")


def _mark(token: tuple[str, int], marks: tuple[str, ...], what: str) -> str:
    """The punctuation mark ``token`` holds, one of ``marks``; any other
    token, or the end of input, is "expected <what>" at its position."""
    tok, pos = token
    if tok not in marks:
        raise ParseError(f"expected {what}, found {tok or 'end of input'}", pos)
    return tok


def _number(token: tuple[str, int], what: str) -> int:
    """The integer ``token`` holds: a punctuation mark or the end of input
    is refused by ``_mark`` (with no mark allowed), and an integer too long
    to read is a ``ParseError`` naming ``what``, at the token's position."""
    tok, pos = token
    if tok in "();,/":  # so is "", the end of input
        _mark(token, (), what)
    try:
        return int(tok)
    except ValueError:  # a -?\d+ token fails only when too long
        raise ParseError(_too_long(tok, what), pos) from None


def parse_seifert(text: str) -> SeifertInvariants:
    """Parse ``(g; b1/a1, b2/a2, ...)`` notation for a closed space.

    A bare integer entry means b/1.  The base must be orientable, so a
    negative genus is rejected.  A character outside the notation is
    refused before the grammar is read.
    """
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[3]:
            raise ParseError(f"unexpected character {m[3]!r}", m.start(3))
        tokens.append((m[m.lastindex], m.start(m.lastindex)))
    # The end of input is the token "", which every rule below refuses,
    # so no read passes it.  A token not in "();,/" is an integer.
    tokens.append(("", len(text)))
    _mark(tokens[0], ("(",), "'('")
    genus = _number(tokens[1], "genus")
    if genus < 0:
        raise ParseError("negative genus (non-orientable bases are not supported)", tokens[1][1])
    _mark(tokens[2], (";",), "';'")
    i = 3
    pairs: list[tuple[int, int]] = []
    while tokens[i][0] != ")":
        k = len(pairs) + 1
        # pos is the multiplicity's, or the numerator's when there is none
        b, a, pos = _number(tokens[i], f"numerator of pair {k}"), 1, tokens[i][1]
        i += 1
        if tokens[i][0] == "/":
            a, pos = _number(tokens[i + 1], f"multiplicity of pair {k}"), tokens[i + 1][1]
            i += 2
        try:
            _check_pair(a, b, "pair", k)
        except ValueError as exc:
            raise ParseError(str(exc), pos) from None
        pairs.append((a, b))
        if _mark(tokens[i], (",", ")"), "',' or ')'") == ",":
            i += 1
            if tokens[i][0] == ")":
                raise ParseError("trailing comma", tokens[i - 1][1])
    tok, pos = tokens[i + 1]
    if tok:
        raise ParseError(f"unexpected trailing {_shown(tok)}", pos)
    # every pair has passed the constructor's checks above
    return SeifertInvariants._trusted(genus=genus, pairs=tuple(pairs), boundary_count=0)


def format_seifert(inv: SeifertInvariants) -> str:
    """Canonical notation: pairs in lowest terms, sorted by (a, b)."""
    body = ", ".join(f"{b}/{a}" for a, b in inv.sorted_pairs())
    return f"({inv.genus}; {body})" if body else f"({inv.genus};)"
