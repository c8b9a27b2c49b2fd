"""Exact scalar types shared by every other module, and the refusal types.

``Refusal`` (a ``ValueError``) is what every refusal the package writes
raises, and ``ShapeRefusal`` (a ``Refusal`` and a ``TypeError``) the
refusal of a value of the wrong type or shape.  Nothing else is one: a
builtin ``ValueError`` or ``TypeError`` out of repvol is a fault, and
``cli.main`` exits 1 on a ``Refusal`` or an ``OSError`` alone.  A
builtin error that input reaches is converted where the input is read,
such as ``NumericVolume``'s ``float()``.

Rational arithmetic is stdlib ``fractions.Fraction`` (already normalized,
positive denominator, arbitrary precision).  On top of that this module
provides Gaussian rationals, rational multiples of integer powers of pi,
and the tagged volume values produced by the enumeration code.

``GaussianRational`` is an immutable ``__slots__`` class holding three
ints ``(a, b, den)``, the value ``(a + b*i) / den``, with ``den > 0`` and
``gcd(a, b, den) == 1``, so each value has one representation (zero is
``(0, 0, 1)``).  Each operator has one arithmetic path on the ints, with
one ``math.gcd`` per result; ``re`` and ``im`` are ``Fraction``s built
on demand.  A ``PiScalar`` is a record (``_Record``, below) of a
``GaussianRational`` coefficient and an int power of pi.

``__post_init__`` is the single place values are normalized (the triple
divided by its gcd; a ``PiScalar`` coefficient made a ``GaussianRational``
and zero given pi power 0), and every construction route goes through
it.  The routes are the public constructors, ``GaussianRational.of`` and
``PiScalar.of``, and the internal constructors ``_gaussian`` and ``_pi``
that arithmetic uses.  One input is not constructed at all: for an int k
with |k| <= 16 and pi power 0, ``PiScalar.of`` returns a scalar shared by
every caller, built once at import by the public constructor (``PI_ZERO``
for k = 0).  Structure constants, Gram entries and form coefficients are
such ints, so a count of ``__post_init__`` calls (the benchmark's
``exact.pi_scalars_built``) sees only the scalars that inputs outside
that range and arithmetic results build.

``_fraction(n, d)`` is the matching internal constructor of a plain
``Fraction`` from ints with ``d > 0``: one ``math.gcd`` and the two
slots, without ``Fraction``'s argument parsing.  ``seifert`` and ``ehn``
build e, chi, every spectrum value and every witness field with it.

``_pi_power`` owns the pi-power addition rule: ``PiScalar.__add__``
adds by ``_pi_sum``, which follows it, and so do the Gaussian-integer
sums of ``liecs``.

The three JSON document formats read each kind of value with one
reader: ``_name`` a name, never coerced; ``_integer`` an integer, an
``int`` and nothing else (``_int_pair`` two, ``_positive`` a positive
one); ``_rational`` a rational, and so every string ``_as_fraction``
reads for the library.  ``int()`` reads only text, and ``_too_long``
alone names digits too long to read.  ``_is_pair`` tests a pair,
``_rows`` a list.
"""

from __future__ import annotations

import math
import sys
from math import gcd as _gcd
from collections.abc import Mapping
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from . import _HOMES

__all__ = [*_HOMES["exact"], "RationalLike", "FOUR_PI_SQUARED"]

Rational = Fraction
RationalLike = Union[int, Fraction]

FOUR_PI_SQUARED = 4.0 * math.pi * math.pi


class Refusal(ValueError):
    """Input repvol refuses, with the text a user reads (see the module
    docstring).  It is a ``ValueError``, so a caller that catches one
    keeps working."""


class ShapeRefusal(Refusal, TypeError):
    """A refusal of a value of the wrong type or shape, such as a float
    where an integer belongs; ``_entries`` names the document entry that
    holds it.  It is a ``TypeError`` too."""


def _rational(value: object, path: str, problem: str) -> RationalLike:
    """The rational number ``value`` stands for: an int as itself, a string
    as the integer, decimal or ``p/q`` it spells, and a float as its
    ``repr`` spells, so ``1.5`` is 3/2.

    Anything else, a bool among them, is a ``Refusal`` reading
    ``<path>: <problem>``, with ``value`` formatted into ``problem`` as
    ``_shown`` shows it, except that a run of digits too long to read is
    named by ``_too_long``.  Exponent forms such as ``'1e999999999'`` and
    ``1e-07`` are refused too: ``Fraction`` would compute
    ``10**999999999``, which never finishes.
    """
    if type(value) is int:
        return value
    if type(value) is float:
        value = repr(value)
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except ZeroDivisionError:
            pass
        except ValueError:  # int() reads each run of decimal digits unless it is too long
            for digits in "".join(c if c.isdecimal() else " " for c in value).split():
                if message := _too_long(digits, "{}: the value", path):
                    raise Refusal(message) from None
    raise Refusal(f"{path}: " + problem.format(_shown(value)))


def _as_fraction(value: object) -> Fraction:
    """The one reader of a library caller's rational: a string by ``_rational``,
    as the CLI reads an option, and any other value by ``Fraction``."""
    if isinstance(value, str):
        return _rational(value, "not a rational number", "{}")
    return value if type(value) is Fraction else Fraction(value)


def _shown(value: object) -> str:
    """``repr(value)`` for a refusal, not echoed whole: a string of more
    than 64 characters is shown as its first 32, then ``…`` and its length,
    and any other value whose repr is longer than 64 characters as that
    repr's first 32 characters, then ``…`` and the repr's length."""
    if isinstance(value, str):
        if len(value) > 64:
            return f"{value[:32] + '…'!r} ({len(value)} characters)"
    elif len(text := repr(value)) > 64:
        return f"{text[:32]}… ({len(text)} characters)"
    return repr(value)


def _too_long(text: object, what: str, *at: object) -> str | None:
    """``<what> is too long to read: over <limit> digits``, ``what``
    formatted with ``at``, if ``text`` is a string of more digits than
    Python converts (4300 by default); otherwise ``None``."""
    limit = sys.get_int_max_str_digits()
    if isinstance(text, str) and 0 < limit < sum(c.isdigit() for c in text):
        return f"{what.format(*at)} is too long to read: over {limit} digits"
    return None


def _read_int(text: str) -> int:
    """``int(text)``, the JSON decoder's ``parse_int``."""
    try:
        return int(text)
    except ValueError:  # json hands over -?\d+, which fails only when too long
        raise Refusal(_too_long(text, "a JSON number")) from None


def _integer(value: object, what: str, *at: object) -> int:
    """``value`` itself, if its type is ``int``: the one integer rule.
    Nothing is converted, so a string (``"2"`` or ``"x"``), a float (2.0,
    2.5 or NaN), a bool, ``None`` or an ``int`` subclass is a
    ``ShapeRefusal`` reading ``<what> <value> is not an integer``, ``what``
    formatted with ``at`` and the value shown by ``_shown``: a wrong
    value inside a document entry, at its path."""
    if type(value) is not int:
        raise ShapeRefusal(f"{what.format(*at)} {_shown(value)} is not an integer")
    return value


def _int_pair(pair: object, what: str, *at: object) -> tuple[int, int]:
    """``pair`` unpacked, each item read by ``_integer`` as ``what`` formatted with ``at`` and its index."""
    a, b = pair
    if type(a) is not int or type(b) is not int:  # two ints, the common case, need no reading
        a, b = _integer(a, what, *at, 0), _integer(b, what, *at, 1)
    return a, b


def _positive(value: int, name: str) -> int:
    """``value`` itself, if it is an ``int`` by ``_integer``'s rule and positive;
    anything else, such as 0, 2.5, "3" or True, is a ``Refusal``.  The
    one rule for cover degrees, in ``covers`` and ``seifert``."""
    if type(value) is not int or value <= 0:
        raise Refusal(f"{name} must be a positive integer, got {_shown(value)}")
    return value


def _printed(value: object, what: str) -> str:
    """``str(value)``; a number with more digits than Python converts to
    text (4300 by default) is a ``Refusal`` reading ``<what> is too large
    to print: over <limit> digits``, the one writer of that refusal.  The
    limit itself is left alone: it is process-wide."""
    try:
        return str(value)
    except ValueError:
        raise Refusal(f"{what} is too large to print: over {sys.get_int_max_str_digits()} digits") from None


def _is_pair(value: object) -> bool:
    """Whether ``value`` is a pair: a list or tuple of two items.  Nothing
    else, such as ``"Pt"``, ``{"P": 1, "t": 2}``, ``5`` or ``{1, 2}``, is one."""
    return isinstance(value, (list, tuple)) and len(value) == 2


def _require_pair(value: object, name: str, shape: str) -> None:
    """A ``ShapeRefusal`` reading ``<name> <value> is not <shape>`` unless ``value`` is a pair."""
    if not _is_pair(value):
        raise ShapeRefusal(f"{name} {_shown(value)} is not {shape}")


def _rows(value: object, refusal: str, row: Callable | None = None, mapping: bool = False) -> Sequence:
    """``value``, a list or tuple (a mapping's items, with ``mapping``) whose items all pass ``row``;
    any other, such as 7, "ab", a set or a generator, is a ``ShapeRefusal``: ``refusal`` formatted with it."""
    rows = tuple(value.items()) if mapping and (type(value) is dict or isinstance(value, Mapping)) else value
    if not isinstance(rows, (list, tuple)) or row and not all(map(row, rows)):
        raise ShapeRefusal(refusal.format(_shown(value)))
    return rows


# Work that may exceed this many spectrum values, oracle (tuple, n) pairs
# or witnesses is refused unless the caller raises the limit (``limit=``
# in ``ehn``).  The cost grows with the count: (1; 1/571, 1/577), bound
# 988401, prints its 493627 values through the CLI in about 3 s on a
# 2-CPU machine.  It lives here, with the rest of the input boundary and
# ``_check_budget``, its one writer, so the CLI parser can show it and
# any module can refuse by it without loading ``ehn``.
MAX_VALUES = 1_000_000


def _check_budget(count: int, limit: int = MAX_VALUES, unit: str = "values") -> None:
    """Refuse work that may exceed ``limit``: a ``Refusal`` reading
    ``spectrum too large: up to <count> <unit>, over the limit of <limit>``.
    ``limit`` is read by ``_integer``, so "5", None, 2.5 or True is a ``ShapeRefusal``."""
    if count > _integer(limit, "limit"):
        # str() refuses ints of more than 4300 digits, so a huge count is
        # shown by the power of two above it
        shown = count if count.bit_length() <= 4096 else f"2^{count.bit_length()}"
        raise Refusal(f"spectrum too large: up to {shown} {unit}, over the limit of {limit}")


def _document(doc: object, first: str, second: str) -> Mapping:
    """``doc`` if it is a JSON object; otherwise a ``Refusal`` naming
    the two keys it should hold."""
    if not isinstance(doc, Mapping):
        raise Refusal(f"document: expected an object with {first!r} and {second!r}")
    return doc


def _field(entry: Mapping, key: str, path: str = ""):
    """``entry[key]``; a missing key is a ``Refusal`` naming its path
    (just ``key`` at the top level, where ``path`` is empty)."""
    if key not in entry:
        raise Refusal(f"{path}.{key}: missing" if path else f"{key}: missing")
    return entry[key]


def _list(value: object, path: str, of: str) -> Sequence:
    """``value`` if it is a JSON list; otherwise a ``Refusal`` reading
    ``<path>: expected a list of <of>``."""
    if not isinstance(value, (list, tuple)):
        raise Refusal(f"{path}: expected a list of {of}")
    return value


def _name(value: object, path: str, *at: object) -> str:
    """``value`` if it is a string.  Names are never coerced, so JSON
    ``1``, ``"1"`` and ``null`` cannot read as one name.  A refusal reads
    ``<path>: expected a string, got <value>``, ``path`` formatted with
    ``at`` only then."""
    if not isinstance(value, str):
        raise Refusal(f"{path.format(*at)}: expected a string, got {_shown(value)}")
    return value


def _entries(value: object, path: str, parse: Callable[[Mapping, str], object]) -> tuple:
    """``parse(entry, path)`` for each object in the JSON list at ``path``.

    A value of the wrong type or shape inside an entry (a ``ShapeRefusal``)
    is reported as a ``Refusal`` naming that entry.  Any other exception
    passes as it is: a builtin ``TypeError`` there is a fault in repvol.
    """
    parsed = []
    for i, entry in enumerate(_list(value, path, "objects")):
        at = f"{path}[{i}]"
        if type(entry) is not dict and not isinstance(entry, Mapping):  # the ABC check is slow
            raise Refusal(f"{at}: expected an object, got {_shown(entry)}")
        try:
            parsed.append(parse(entry, at))
        except ShapeRefusal as exc:
            raise Refusal(f"{at}: malformed entry ({exc})") from None
    return tuple(parsed)


_ZERO = Fraction(0)
_new = object.__new__
_set = object.__setattr__


class _Frozen:
    """Immutable ``__slots__`` base: fields are written once, by ``_set``.
    ``dataclasses`` is imported only to raise its ``FrozenInstanceError``:
    it loads ``inspect``, which costs every command several milliseconds."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class _Record(_Frozen):
    """Base of the public record classes, behaving as a frozen dataclass.

    The annotated fields, in order, are the ``__init__`` parameters, and
    class attributes are their defaults; ``__init__`` writes each with
    ``_set`` and then runs ``__post_init__`` if the class has one.  The
    same fields, as ``__match_args__``, make up ``repr``, ``==`` (only
    between records of one class) and ``hash``.  A field named with a
    leading underscore is derived, written by ``__post_init__`` or by the
    function that derives it, and takes no part in any of these.
    Instances keep a ``__dict__``, so pickle and ``copy`` need no hooks.
    """

    def __init_subclass__(cls) -> None:
        names = tuple(name for name in cls.__annotations__ if not name.startswith("_"))
        params = ", ".join(f"{name}=_d[{name!r}]" if name in cls.__dict__ else name for name in names)
        body = "".join(f"\n    _set(self, {name!r}, {name})" for name in names)
        if hasattr(cls, "__post_init__"):
            body += "\n    self.__post_init__()"
        # A generated def, as in dataclasses, keeps each class's signature
        # and Python's own missing-argument TypeError text.
        scope = {"_set": _set, "_d": cls.__dict__}
        exec(f"def __init__(self, {params}):{body}", scope)
        scope["__init__"].__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = scope["__init__"]
        cls.__match_args__ = names

    @classmethod
    def _trusted(cls, **fields: object):
        """The instance with these fields, each named, built past
        ``__post_init__``: for values the package has checked."""
        record = _new(cls)
        record.__dict__.update(fields)
        return record

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())


Pair = tuple[int, int]  # a Gaussian integer re + im*i, as liecs and linalg hold one


class GaussianRational(_Frozen):
    """Complex number with exact rational real and imaginary parts, held
    as three ints: the value is ``(_a + _b*i) / _den``."""

    __slots__ = ("_a", "_b", "_den")

    def __init__(self, re: RationalLike = _ZERO, im: RationalLike = _ZERO) -> None:
        p, q = _ratio(re)
        r, s = _ratio(im)
        _set(self, "_a", p * s)
        _set(self, "_b", r * q)
        _set(self, "_den", q * s)
        self.__post_init__()

    def __post_init__(self) -> None:
        a, b, den = self._a, self._b, self._den
        g = _gcd(a, b, den)
        if g != 1:
            _set(self, "_a", a // g)
            _set(self, "_b", b // g)
            _set(self, "_den", den // g)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._den)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._den)

    @staticmethod
    def of(value: "GaussianLike") -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        p, q = _ratio(value)
        return _gaussian(p, 0, q)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._a == other._a and self._b == other._b and self._den == other._den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __add__(self, other: "GaussianLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        d, f = self._den, other._den
        return _gaussian(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self._a, -self._b, self._den)

    def __sub__(self, other: "GaussianLike") -> "GaussianRational":
        return self + -GaussianRational.of(other)

    def __rsub__(self, other: "GaussianLike") -> "GaussianRational":
        return -self + other

    def __mul__(self, other: "GaussianLike") -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _gaussian(a * c - b * e, a * e + b * c, self._den * other._den)

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return _gaussian(self._a, -self._b, self._den)

    def __truediv__(self, other: "GaussianLike") -> "GaussianRational":
        # ((a + b i) / d) / ((c + e i) / f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        if not other:
            raise ZeroDivisionError("division by zero gaussian rational")
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._den
        return _gaussian((a * c + b * e) * f, (b * c - a * e) * f, self._den * (c * c + e * e))

    def __rtruediv__(self, other: "GaussianLike") -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __str__(self) -> str:
        if not self._b:
            return str(self.re)
        if not self._a:
            return f"{self.im}i"
        sign = "+" if self._b > 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


def _ratio(value: RationalLike) -> tuple[int, int]:
    """Numerator and positive denominator of a rational, in lowest terms."""
    if type(value) is int:
        return value, 1
    value = _as_fraction(value)
    return value.numerator, value.denominator


def _gaussian(a: int, b: int, den: int) -> GaussianRational:
    """Internal constructor from ints with ``den > 0``: no argument
    parsing, still through ``__post_init__``."""
    g = _new(GaussianRational)
    _set(g, "_a", a)
    _set(g, "_b", b)
    _set(g, "_den", den)
    g.__post_init__()
    return g


def _fraction(n: int, d: int) -> Fraction:
    """Internal constructor of the ``Fraction`` n/d from ints with ``d > 0``.

    One ``math.gcd`` reduces the pair, which is then written into the two
    slots ``Fraction`` declares, as Python 3.12's
    ``Fraction._from_coprime_ints`` does; ``Fraction(n, d)`` costs about
    three times as much.  The caller folds any sign into ``n``.
    """
    g = _gcd(n, d)
    f = _new(Fraction)
    f._numerator = n // g
    f._denominator = d // g
    return f


GaussianLike = Union[int, Fraction, GaussianRational]

GAUSSIAN_ZERO = GaussianRational()
GAUSSIAN_ONE = GaussianRational(Fraction(1))
GAUSSIAN_I = GaussianRational(Fraction(0), Fraction(1))


class PiScalar(_Record):
    """A gaussian-rational coefficient times an integer power of pi.

    Zero is canonical: its pi power is normalized to 0 so equality and
    hashing behave.  Adding two nonzero scalars with different pi powers
    is refused rather than silently coerced; zero acts as the additive
    identity for any power.
    """

    coeff: GaussianRational = GAUSSIAN_ZERO
    pi_power: int = 0

    def __post_init__(self) -> None:
        coeff = self.coeff
        if type(coeff) is not GaussianRational:
            coeff = GaussianRational.of(coeff)
            _set(self, "coeff", coeff)
        if not coeff:
            _set(self, "pi_power", 0)

    @staticmethod
    def of(value: "PiLike", pi_power: int = 0) -> "PiScalar":
        if type(value) is int and not pi_power and -_SMALL <= value <= _SMALL:
            return _SMALL_INTS[value]
        if isinstance(value, PiScalar):
            if pi_power:
                raise Refusal("cannot re-tag an existing PiScalar with a power")
            return value
        return _pi(GaussianRational.of(value), pi_power)

    def __bool__(self) -> bool:
        return bool(self.coeff)

    def __add__(self, other: "PiLike") -> "PiScalar":
        o = PiScalar.of(other)
        return _pi(*_pi_sum(self.coeff, self.pi_power, o.coeff, o.pi_power))

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return _pi(-self.coeff, self.pi_power)

    def __sub__(self, other: "PiLike") -> "PiScalar":
        return self + (-PiScalar.of(other))

    def __rsub__(self, other: "PiLike") -> "PiScalar":
        return PiScalar.of(other) + (-self)

    def __mul__(self, other: "PiLike") -> "PiScalar":
        o = PiScalar.of(other)
        return _pi(self.coeff * o.coeff, self.pi_power + o.pi_power)

    __rmul__ = __mul__

    def __truediv__(self, other: "PiLike") -> "PiScalar":
        o = PiScalar.of(other)
        if not o:
            raise ZeroDivisionError("division by zero PiScalar")
        return _pi(self.coeff / o.coeff, self.pi_power - o.pi_power)

    def __str__(self) -> str:
        if self.pi_power == 0:
            return str(self.coeff)
        power = "pi" if self.pi_power == 1 else f"pi^{self.pi_power}"
        if self.coeff == GAUSSIAN_ONE:
            return power
        return f"{self.coeff}*{power}"


def _pi_sum(x: GaussianRational, p: int, y: GaussianRational, q: int) -> tuple[GaussianRational, int]:
    """x * pi^p + y * pi^q as a (coefficient, pi power) pair, the power
    by ``_pi_power``."""
    power = _pi_power(x, p, y, q)
    return (x + y if p == q else x or y), power


def _pi_power(x: object, p: int, y: object, q: int) -> int:
    """The pi power of x * pi^p + y * pi^q, where x and y are read only
    for being nonzero: a zero term takes no part, and two nonzero terms
    with different powers are refused.  This is the one pi-power rule:
    ``PiScalar`` addition (by ``_pi_sum``) and the Gaussian-integer sums
    of ``liecs``, which pass each coefficient's truth value, follow it."""
    if p == q:
        return p
    if not x:
        return q
    if not y:
        return p
    raise Refusal(f"pi-power mismatch in addition: {p} vs {q}")


def _pi(coeff: GaussianLike, pi_power: int) -> PiScalar:
    """Internal constructor: no argument parsing, still through ``__post_init__``."""
    p = _new(PiScalar)
    _set(p, "coeff", coeff)
    _set(p, "pi_power", pi_power)
    p.__post_init__()
    return p


PiLike = Union[int, Fraction, GaussianRational, PiScalar]

PI_ZERO = PiScalar()
PI_ONE = PiScalar(GAUSSIAN_ONE)
# The scalar ``PiScalar.of(k)`` returns for each int |k| <= _SMALL: the
# ints that tables and forms are written in, shared rather than rebuilt.
_SMALL = 16
_SMALL_INTS = {k: PiScalar(GaussianRational(k)) if k else PI_ZERO for k in range(-_SMALL, _SMALL + 1)}


def _finite(value: float) -> float:
    """``value``, a float volume, unless it is past the float range: an
    infinite one is a ``Refusal`` naming that range, the one writer of
    that refusal, where Python would go on with infinity."""
    if math.isinf(value):
        raise Refusal(f"volume is too large for a float: over {sys.float_info.max:.6g}")
    return value


class ExactVolume(_Record):
    """A volume known exactly as a nonnegative rational multiple of 4*pi^2."""

    coeff: Fraction

    def __post_init__(self) -> None:
        _set(self, "coeff", _as_fraction(self.coeff))
        if self.coeff < 0:
            raise Refusal(f"exact volume coefficient must be >= 0, got {self.coeff}")

    def to_float(self) -> float:
        """The volume as a float.  One beyond the float range is a
        ``Refusal`` naming that range, where Python would raise an
        ``OverflowError`` or return infinity."""
        try:
            value = float(self.coeff) * FOUR_PI_SQUARED
        except OverflowError:
            value = math.inf
        return _finite(value)


class NumericVolume(_Record):
    """A volume known only as a finite float (e.g. hyperbolic pieces)."""

    value: float

    def __post_init__(self) -> None:
        value = self.value
        try:  # a bool, a value float cannot read, or an int past its range is refused like "nan"
            number = math.nan if value is True or value is False else float(value)
        except (ValueError, TypeError, OverflowError):
            number = math.nan
        if not math.isfinite(number):
            raise ShapeRefusal(f"bad numeric {_shown(value)}")
        _set(self, "value", number)

    def to_float(self) -> float:
        return self.value


VolumeValue = Union[ExactVolume, NumericVolume]


def volume_sum(values: Iterable[VolumeValue]) -> VolumeValue:
    """Sum volume values, staying exact when every summand is exact; the
    exact ones are added as integers over the lcm of their denominators."""
    coeffs = []
    numeric = 0.0
    saw_numeric = False
    for v in values:
        if isinstance(v, ExactVolume):
            coeffs.append(v.coeff)
        elif isinstance(v, NumericVolume):
            numeric += v.value
            saw_numeric = True
        else:
            raise ShapeRefusal(f"not a volume value: {v!r}")
    den = math.lcm(*[c.denominator for c in coeffs])
    exact = ExactVolume(_fraction(sum([c.numerator * (den // c.denominator) for c in coeffs]), den))
    if saw_numeric:
        return NumericVolume(_finite(exact.to_float() + numeric))
    return exact


def render_volume(value: VolumeValue, decimal: bool = False) -> str:
    """Render a volume: exact ones as ``p/q * 4*pi^2``, numeric ones with
    12 significant digits.  ``decimal`` appends the float to exact values."""
    if isinstance(value, ExactVolume):
        if value.coeff == 0:
            return "0"
        text = f"{_printed(value.coeff, 'volume coefficient')} * 4*pi^2"
        if decimal:
            text += f" = {value.to_float():.12g}"
        return text
    if isinstance(value, NumericVolume):
        return f"{value.value:.12g}"
    raise ShapeRefusal(f"not a volume value: {value!r}")
