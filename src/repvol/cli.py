"""Command line interface.

Subcommands mirror the library: ``seifert`` for invariants and volume
spectra, ``cs`` for the symbolic form identities, ``graph`` for JSJ
specs, ``covers`` for elevation arithmetic, ``cases`` for worked
families.  Exit codes: 0 success, 1 domain error (one line on stderr),
2 usage error, 3 internal failure (one line on stderr).  A domain error
is an ``exact.Refusal`` or an ``OSError`` and nothing else, so any other
exception, a stray ``ValueError`` among them, is a bug in repvol and
exits 3.  A builtin error that input reaches is converted to a
``Refusal`` once, where it is read: ``_read_json``'s decoding and the
write of a name stdout cannot encode.

Each ``_cmd_*`` handler returns ``(lines, refusal)``: its stdout lines
as a fully built list, and ``None`` or the text of its exit-1 ``error:``
line, as ``cs jacobi``, ``graph rw`` and ``graph validate`` give after
printing their finding.  ``main`` alone writes, so all output is
computed before any of it is printed, and a failing write is a domain
error like any other.

A command builds only the parsers of the family its first argument
names (``build_parser(family)``, from the table ``_FAMILIES``); any other
first argument, such as ``-h``, none or an unknown word, builds all
five, so that the root's help and its unknown-command error list every
family.  Each handler imports the modules its action runs: ``covers``
never loads ``liecs`` or ``jsj``, ``seifert info`` never loads ``ehn``,
and ``cs jacobi`` never loads ``linalg``.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .exact import (
    MAX_VALUES,
    ExactVolume,
    Refusal,
    _document,
    _field,
    _list,
    _name,
    _printed,
    _rational,
    _read_int,
    _shown,
    _too_long,
    render_volume,
)


def _fraction_arg(text: str) -> Fraction:
    try:
        return _rational(text, "not a rational number", "{}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_arg(text: str, refusal: str = "") -> int:
    """``int(text)`` for an option value.  One too long to read is named
    by ``_too_long``, where argparse would echo every digit; other text is
    refused with ``refusal``, by default argparse's own ``invalid int
    value: '<text>'``, the text as ``_shown`` shows it."""
    try:
        return int(text)
    except ValueError:
        message = _too_long(text, "the value") or refusal or f"invalid int value: {_shown(text)}"
    raise argparse.ArgumentTypeError(message)


def _budget_arg(text: str) -> int:
    """A ``--max-values`` N: an integer of at least 1."""
    value = _int_arg(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _int_list(text: str) -> list[int]:
    refusal = f"not a comma-separated integer list: {_shown(text)}"
    return [_int_arg(part, refusal) for part in text.split(",") if part.strip() != ""]


_ALGEBRAS = ("iso-sl2r", "psl2c")


def _algebra_arg(text: str) -> str:
    """A ``cs verify`` algebra.  Any other text is refused as argparse's
    ``choices`` refuses it, the text as ``_shown`` shows it."""
    if text not in _ALGEBRAS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {_shown(text)} (choose from {', '.join(map(repr, _ALGEBRAS))})"
        )
    return text


def _read_json(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=_read_int)
    # a path holding a NUL, bytes that are not UTF-8, text that is not JSON,
    # or JSON nested too deep: all the input's fault
    except (ValueError, RecursionError) as exc:
        raise Refusal(str(exc)) from None


def _json(payload) -> str:
    import json

    return json.dumps(payload, indent=2, sort_keys=True)


# a handler's stdout lines and its exit-1 refusal, or None
_Output = tuple[list[str], Optional[str]]


# ---------------------------------------------------------------- seifert


def _witness_payload(witnesses) -> list[dict]:
    """The witnesses as ``--json`` prints them; the text lines are read
    off the same fields, so each number is checked once."""
    return [
        {
            "n_values": list(w.n_values),
            "n": w.n,
            "zeta": _printed(w.zeta, "witness zeta"),
            "z_values": [_printed(z, "witness z-value") for z in w.z_values],
            "coeff": str(w.coeff),
        }
        for w in witnesses
    ]


def _cmd_seifert(args: argparse.Namespace) -> _Output:
    from . import seifert

    inv = seifert.parse_seifert(args.notation)
    if args.action == "info":
        payload = {
            "notation": seifert.format_seifert(inv),
            "euler": _printed(seifert.euler_number(inv), "Euler number"),
            "chi": _printed(seifert.orbifold_chi(inv), "orbifold Euler characteristic"),
            "geometry": seifert.classify_geometry(inv).value,
        }
        if args.json:
            return [_json(payload)], None
        return [f"{key} {value}" for key, value in payload.items()], None

    from . import ehn

    if args.coeff is not None:
        found = _witness_payload(ehn.witnesses_for(inv, args.coeff, limit=args.max_values))
        if args.json:
            return [_json({"witnesses": found})], None
        lines = []
        for w in found:
            n_values, z_values = ",".join(map(str, w["n_values"])), ",".join(w["z_values"])
            lines.append(f"n=({n_values}) n={w['n']} zeta={w['zeta']} z=({z_values})")
        return lines, None

    if args.action == "volumes":
        # the oracle window is never below the spectrum bound, so it goes first
        oracle = ehn.volume_set_bruteforce(inv, limit=args.max_values) if args.oracle else None
        spectrum = ehn.volume_set(inv, limit=args.max_values)
        if args.oracle and oracle != spectrum:
            raise RuntimeError("oracle disagreement: brute-force window differs from enumeration")
        if args.json:
            payload = {"coefficients": [_printed(c, "volume coefficient") for c in spectrum]}
            if args.decimal:
                payload["decimals"] = [f"{ExactVolume(c).to_float():.12g}" for c in spectrum]
            if args.oracle:
                payload["oracle"] = "agree"
            return [_json(payload)], None
        lines = [render_volume(ExactVolume(c), decimal=args.decimal) for c in spectrum]
        if args.oracle:
            lines.append(f"oracle agreement: {len(spectrum)} values")
        return lines, None

    if args.action == "sv":
        # seifert_volume_max has checked the maximum against chi^2/|e|, so
        # both lines print that one value
        maximum = ehn.seifert_volume_max(inv)
        coefficient = _printed(maximum, "maximum volume coefficient")
        if args.json:
            return [_json({"coefficient": coefficient, "closed_form": coefficient})], None
        shown = render_volume(ExactVolume(maximum), decimal=args.decimal)
        return [f"max (enumeration) {shown}", f"max (closed form) {shown}"], None

    # foliation
    slopes = [Fraction(b, a) for a, b in inv.pairs]
    exists = ehn.foliation_exists(inv.genus, slopes)
    if args.json:
        return [_json({"exists": exists})], None
    return ["yes" if exists else "no"], None


# ---------------------------------------------------------------- cs


def _verify_iso_sl2r() -> list[str]:
    from . import liecs

    spec = liecs.iso_sl2r_algebra()
    gram = liecs.iso_sl2r_gram()
    form = liecs.cs_three_form(spec, gram)
    target = liecs.ExteriorForm.monomial(spec.dim, (0, 1, 2), Fraction(2, 3))
    primitive = liecs.exactness_split(spec, form, target)
    if primitive is None:
        raise RuntimeError("3-form minus its volume part is not exact")
    stated = liecs.ExteriorForm.monomial(spec.dim, (1, 3), Fraction(1, 3)) + (
        liecs.ExteriorForm.monomial(spec.dim, (2, 3), Fraction(-1, 3))
    )
    if liecs.d(spec, stated) != form - target:
        raise RuntimeError("stated primitive does not verify")
    return [
        f"T = {liecs.format_form(spec, form)}",
        f"volume part = {liecs.format_form(spec, target)}",
        f"primitive = {liecs.format_form(spec, primitive)}",
        f"stated primitive = {liecs.format_form(spec, stated)} (verifies)",
        "OK",
    ]


def _verify_psl2c() -> list[str]:
    from . import liecs

    spec = liecs.sl2c_algebra()
    gram = liecs.sl2c_gram()
    form = liecs.cs_three_form(spec, gram)
    expected = liecs.ExteriorForm.monomial(
        spec.dim, (0, 1, 2), liecs.PiScalar.of(1, pi_power=-2)
    )
    if form != expected:
        raise RuntimeError(
            f"3-form is {liecs.format_form(spec, form)}, "
            f"expected {liecs.format_form(spec, expected)}"
        )
    return [f"T = {liecs.format_form(spec, form)}", "OK"]


def _cmd_cs(args: argparse.Namespace) -> _Output:
    if args.action == "verify":
        return (_verify_iso_sl2r() if args.algebra == "iso-sl2r" else _verify_psl2c()), None
    from . import liecs

    # jacobi
    spec = liecs.algebra_from_json(_read_json(args.file))
    violation = liecs.validate_jacobi(spec)
    if violation is None:
        return ["ok"], None
    return [f"violation at ({', '.join(violation.triple)})"], "jacobi identity fails"


# ---------------------------------------------------------------- graph


def _ratio_graph(doc) -> tuple[list[str], list[tuple[str, str, int | Fraction]]]:
    """The vertices and edges of a ``graph rw`` document.

    A malformed document raises ``Refusal`` naming the path of the bad
    part, such as ``edges[1]: expected [u, v, ratio]``.
    """
    doc = _document(doc, "vertices", "edges")
    vertices = _list(_field(doc, "vertices"), "vertices", "names")
    rows = _list(_field(doc, "edges"), "edges", "[u, v, ratio] rows")
    vertices = [_name(name, "vertices[{}]", i) for i, name in enumerate(vertices)]
    edges = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise Refusal(f"edges[{i}]: expected [u, v, ratio], got {_shown(row)}")
        u, v = (_name(row[j], "edges[{}][{}]", i, j) for j in (0, 1))
        edges.append((u, v, _rational(row[2], f"edges[{i}][2]", "bad ratio {}")))
    return vertices, edges


def _cmd_graph(args: argparse.Namespace) -> _Output:
    from . import jsj

    doc = _read_json(args.file)
    if args.action == "rw":
        result = jsj.rw_consistency(*_ratio_graph(doc))
        if result.consistent:
            return ["consistent"], None
        product = _printed(result.product, "cycle product")
        steps = " ".join(f"{u}->{v}[{r}]" for u, v, r in result.witness_cycle)
        return [f"inconsistent: cycle {steps} product {product}"], "edge ratios are inconsistent"

    document = jsj.load_graph_document(doc)
    if args.action == "validate":
        problems = []
        for name, spec, assignments in document.cases:
            found = jsj.validate_spec(spec)
            # a case that assigns pieces must assign each once, as additivity needs
            if assignments and (cover := jsj._cover_problem(spec, assignments)):
                found.append(cover)
            problems += [problem if name == "default" else f"{name}: {problem}" for problem in found]
        if not problems:
            return ["ok"], None
        return problems, f"invalid document: {len(problems)} problem(s)"

    # additivity
    totals = [(name, jsj.additivity_sum(spec, assignments)) for name, spec, assignments in document.cases]
    # every total is rendered before any line is printed: one too long
    # to print, or with --decimal past the float range, is refused
    shown = [(name, render_volume(total, decimal=args.decimal)) for name, total in totals]
    if args.json:
        return [_json(dict(shown))], None
    if len(shown) == 1 and shown[0][0] == "default":
        return [shown[0][1]], None
    return [f"{name}: {text}" for name, text in shown], None


# ---------------------------------------------------------------- covers


def _cmd_covers(args: argparse.Namespace) -> _Output:
    from . import covers as covers_mod

    if args.action == "merge":
        payload = vars(covers_mod.merge_copy_counts(args.degrees, args.m))
    elif args.action == "colored":
        payload = vars(covers_mod.colored_merge_counts(args.k, args.l))
    elif args.action == "elevations":
        datum = covers_mod.TorusCoverDatum(args.torus, args.curve)
        payload = {"elevations": covers_mod.elevation_count(datum)}
    else:  # intersection
        value = covers_mod.cover_intersection(
            args.number, args.deg_f, args.deg_s, args.deg_torus
        )
        payload = {"intersection": value}
    # --json prints every count too, so each is checked first
    shown = {}
    for key, value in payload.items():
        items = value if isinstance(value, tuple) else (value,)
        shown[key] = ",".join(_printed(x, key.replace("_", " ")) for x in items)
    if args.json:
        return [_json(payload)], None
    width = max(len(key) for key in payload)
    return [f"{key.ljust(width)}  {text}" for key, text in shown.items()], None


# ---------------------------------------------------------------- cases


def _cmd_cases(args: argparse.Namespace) -> _Output:
    from . import jsj

    result = jsj.motegi_case(args.p1, args.q1, args.p2, args.q2)
    order = _printed(result.h1_order, "H1 order")
    if args.json:
        payload = {
            "h1_order": result.h1_order,
            "nontrivial": result.nontrivial,
            "sv": str(result.sv_coeff),
        }
        return [_json(payload)], None
    answer = "yes" if result.nontrivial else "no"
    return [
        f"H1 order {order}; nontrivial graph manifold: {answer}; "
        f"SV = {result.sv_coeff}"
    ], None


# ---------------------------------------------------------------- parser


class _Parser(argparse.ArgumentParser):
    """Usage errors are one stderr line too; ``-h`` prints the usage.

    ``apart`` holds (option, other) pairs that may not be given together,
    refused in either order as ``argument <option>: not allowed with
    argument <other>``, where a mutually exclusive group would name
    whichever of the two came second."""

    apart: tuple[tuple[str, str], ...] = ()

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        for pair in self.apart:
            actions = [self._option_string_actions[option] for option in pair]
            if all(getattr(namespace, action.dest) != action.default for action in actions):
                self.error("argument {}: not allowed with argument {}".format(*pair))
        return namespace, extras


def _seifert_parsers(actions: argparse._SubParsersAction) -> None:
    for action in ("info", "volumes", "sv", "foliation", "witnesses"):
        p = actions.add_parser(action)
        p.add_argument("notation", help='Seifert notation, e.g. "(1; 1/2, 1/2)"')
        p.add_argument("--json", action="store_true")
        if action == "witnesses":
            p.add_argument("coeff", type=_fraction_arg, help="coefficient of 4*pi^2")
        if action in ("volumes", "witnesses"):
            refused = "spectra that may exceed N values or lists of more than N witnesses"
            if action == "volumes":
                refused += ", and --oracle windows of more than N (tuple, n) pairs"
            p.add_argument(
                "--max-values",
                type=_budget_arg,
                default=MAX_VALUES,
                metavar="N",
                help=f"refuse {refused} (default {MAX_VALUES})",
            )
        if action in ("volumes", "sv"):
            p.add_argument("--decimal", action="store_true")
        if action == "volumes":
            p.add_argument("--oracle", action="store_true")
            p.add_argument("--witnesses", type=_fraction_arg, metavar="COEFF", dest="coeff")
            # a witness list has no oracle check and no decimal form
            p.apart = (("--witnesses", "--oracle"), ("--witnesses", "--decimal"))
        p.set_defaults(handler=_cmd_seifert, coeff=None)


def _cs_parsers(actions: argparse._SubParsersAction) -> None:
    p_verify = actions.add_parser("verify")
    p_verify.add_argument("algebra", type=_algebra_arg, choices=_ALGEBRAS)
    p_verify.set_defaults(handler=_cmd_cs)
    p_jacobi = actions.add_parser("jacobi")
    p_jacobi.add_argument("file", help="JSON structure-constant table")
    p_jacobi.set_defaults(handler=_cmd_cs)


def _graph_parsers(actions: argparse._SubParsersAction) -> None:
    for action in ("validate", "additivity", "rw"):
        p = actions.add_parser(action)
        p.add_argument("file", help="JSON file")
        if action == "additivity":
            p.add_argument("--json", action="store_true")
            p.add_argument("--decimal", action="store_true")
        p.set_defaults(handler=_cmd_graph)


def _covers_parsers(actions: argparse._SubParsersAction) -> None:
    p_merge = actions.add_parser("merge")
    p_merge.add_argument("--degrees", type=_int_list, required=True)
    p_merge.add_argument("--m", type=_int_arg, required=True)
    p_colored = actions.add_parser("colored")
    p_colored.add_argument("--k", type=_int_list, required=True)
    p_colored.add_argument("--l", type=_int_list, required=True)
    p_elev = actions.add_parser("elevations")
    p_elev.add_argument("--torus", type=_int_arg, required=True, help="torus cover degree")
    p_elev.add_argument("--curve", type=_int_arg, required=True, help="curve cover degree")
    p_inter = actions.add_parser("intersection")
    p_inter.add_argument("--number", type=_int_arg, required=True, help="intersection number downstairs")
    p_inter.add_argument("--deg-f", type=_int_arg, required=True)
    p_inter.add_argument("--deg-s", type=_int_arg, required=True)
    p_inter.add_argument("--deg-torus", type=_int_arg, required=True)
    for p in (p_merge, p_colored, p_elev, p_inter):
        p.add_argument("--json", action="store_true")
        p.set_defaults(handler=_cmd_covers)


def _cases_parsers(actions: argparse._SubParsersAction) -> None:
    p_motegi = actions.add_parser("motegi")
    for name in ("p1", "q1", "p2", "q2"):
        p_motegi.add_argument(name, type=_int_arg)
    p_motegi.add_argument("--json", action="store_true")
    p_motegi.set_defaults(handler=_cmd_cases)


# command family -> (its help line, the builder of its action parsers), in help order
_FAMILIES = {
    "seifert": ("Seifert invariants and volume spectra", _seifert_parsers),
    "cs": ("symbolic 3-form identities", _cs_parsers),
    "graph": ("JSJ graph specs", _graph_parsers),
    "covers": ("elevation and merging arithmetic", _covers_parsers),
    "cases": ("worked families", _cases_parsers),
}


def build_parser(family: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repvol`` parser with every command family, or with ``family``
    alone; a family's parsers and texts are the same either way."""
    parser = _Parser(
        prog="repvol",
        description="Exact volume data for Seifert and graph manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_actions) in _FAMILIES.items():
        if family in (None, name):
            add_actions(sub.add_parser(name, help=help_text).add_subparsers(dest="action", required=True))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command builds only its family's parsers; any other first word,
    # such as -h, none or an unknown one, builds them all for the root's texts
    parser = build_parser(argv[0] if argv and argv[0] in _FAMILIES else None)
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # argparse's exit, on -h or a usage error
            sys.stdout.flush()  # a help text a closed pipe refuses fails here, as a domain error
            raise
        lines, refusal = args.handler(args)
        try:
            for line in lines:
                print(line)
        except UnicodeEncodeError as exc:  # a name from the input that stdout's encoding cannot write
            raise Refusal(str(exc)) from None
        sys.stdout.flush()  # a closed pipe fails here, as a domain error
        if refusal is not None:
            raise Refusal(refusal)  # written as every other domain error is
        return 0
    except (Refusal, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # a failed invariant (RuntimeError) or any other fault in repvol
        named = "" if type(exc) is RuntimeError else f"{type(exc).__name__}: "
        print(f"internal error: {named}{exc}", file=sys.stderr)
        return 3


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # what main could not write would fail again at shutdown, with a
        # traceback and exit 120; it goes nowhere instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
