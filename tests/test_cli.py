"""End-to-end command-line checks: exact output strings, exit codes,
JSON mode, and error-stream behavior."""

import argparse
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from importlib import resources
from pathlib import Path

import child
import pytest

from repvol import jsj
from repvol.cli import _ratio_graph, build_parser, entry, main
from repvol.exact import _shown, render_volume

DATA = resources.files("repvol").joinpath("data")
ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- README


def _readme_console_examples():
    """(argv, expected output) for every ``$ repvol ...`` line of the
    README's console blocks; the output is the lines up to the next
    command, without trailing blank lines."""
    text = (ROOT / "README.md").read_text("utf-8")
    examples = []
    for block in re.findall(r"```console\n(.*?)```", text, re.S):
        for chunk in re.split(r"^\$ repvol ", block, flags=re.M)[1:]:
            command, _, output = chunk.partition("\n")
            examples.append((shlex.split(command), output.rstrip("\n") + "\n"))
    return examples


README_EXAMPLES = _readme_console_examples()


@pytest.mark.parametrize("argv, expected", README_EXAMPLES, ids=[" ".join(a) for a, _ in README_EXAMPLES])
def test_readme_console_example(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)  # the examples name data files relative to the repository
    _, out, err = run(capsys, *argv)
    assert out + err == expected


def test_readme_console_examples_are_found():
    # a parser that found nothing would leave the test above vacuous
    assert len(README_EXAMPLES) == 13
    sv = "max (enumeration) 4 * 4*pi^2\nmax (closed form) 4 * 4*pi^2\n"
    assert (["seifert", "sv", "(2; 1)"], sv) in README_EXAMPLES


# ---------------------------------------------------------------- seifert


def test_volumes_worked_example(capsys):
    code, out, err = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)")
    assert code == 0
    assert err == ""
    assert out == "0\n1/4 * 4*pi^2\n1 * 4*pi^2\n"


def test_volumes_decimal(capsys):
    code, out, _ = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--decimal")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0"
    assert lines[1].startswith("1/4 * 4*pi^2 = 9.8696044")
    assert lines[2].startswith("1 * 4*pi^2 = 39.47841760")


def test_volumes_oracle_agreement(capsys):
    code, out, _ = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--oracle")
    assert code == 0
    assert out.splitlines()[-1] == "oracle agreement: 3 values"
    code, out, err = run(capsys, "seifert", "volumes", "(1; 1/2, 1/3, 1/7)", "--oracle")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "oracle agreement: 64 values"


def test_volumes_json(capsys):
    code, out, _ = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--json")
    assert code == 0
    assert json.loads(out) == {"coefficients": ["0", "1/4", "1"]}


WITNESSES_OF_4 = [
    {"coeff": "4", "n": -2, "n_values": [0], "z_values": ["-2"], "zeta": "2"},
    {"coeff": "4", "n": 2, "n_values": [0], "z_values": ["2"], "zeta": "-2"},
]


@pytest.mark.parametrize(
    "argv, payload",
    [
        (
            ("info", "(1; 1/2, 1/2)"),
            {"chi": "-1", "euler": "1", "geometry": "sl2r-tilde", "notation": "(1; 1/2, 1/2)"},
        ),
        (("sv", "(2; 1)"), {"closed_form": "4", "coefficient": "4"}),
        (("witnesses", "(2; 1)", "4"), {"witnesses": WITNESSES_OF_4}),
        (("volumes", "(2; 1)", "--witnesses", "4"), {"witnesses": WITNESSES_OF_4}),
        (
            ("volumes", "(1; 1/2, 1/2)", "--decimal", "--oracle"),
            {"coefficients": ["0", "1/4", "1"], "decimals": ["0", "9.86960440109", "39.4784176044"], "oracle": "agree"},
        ),
    ],
    ids=["info", "sv", "witnesses", "volumes_witnesses", "volumes_decimal_oracle"],
)
def test_seifert_json_payloads(capsys, argv, payload):
    code, out, err = run(capsys, "seifert", *argv, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == payload


def test_volumes_witness_flag(capsys):
    code, out, _ = run(capsys, "seifert", "volumes", "(2; 1)", "--witnesses", "4")
    assert code == 0
    assert out == "n=(0) n=-2 zeta=2 z=(-2)\nn=(0) n=2 zeta=-2 z=(2)\n"


def test_witnesses_subcommand_matches_flag(capsys):
    code, out, _ = run(capsys, "seifert", "witnesses", "(2; 1)", "4")
    assert code == 0
    assert out == "n=(0) n=-2 zeta=2 z=(-2)\nn=(0) n=2 zeta=-2 z=(2)\n"


def test_info(capsys):
    code, out, _ = run(capsys, "seifert", "info", "(1; 1/2, 1/2)")
    assert code == 0
    assert out == (
        "notation (1; 1/2, 1/2)\n"
        "euler 1\n"
        "chi -1\n"
        "geometry sl2r-tilde\n"
    )
    assert run(capsys, "seifert", "info", "(1; 1/2, 1/3)") == (
        0,
        "notation (1; 1/2, 1/3)\neuler 5/6\nchi -7/6\ngeometry sl2r-tilde\n",
        "",
    )


def test_sv(capsys):
    code, out, _ = run(capsys, "seifert", "sv", "(1; 1/2, 1/2)")
    assert code == 0
    assert out == (
        "max (enumeration) 1 * 4*pi^2\n"
        "max (closed form) 1 * 4*pi^2\n"
    )


def _primes_above(n, count):
    small = [p for p in range(2, 1100) if all(p % q for q in range(2, p))]
    primes, candidate = [], n + 1
    while len(primes) < count:
        if all(candidate % p for p in small if p * p <= candidate):
            primes.append(candidate)
        candidate += 1
    return primes


def test_info_too_large_to_print(capsys):
    # The Euler number of (1; 1/p_1, ..., 1/p_800), the p_i the 800 primes
    # above 10^6, has their product, about 4800 digits, as its denominator,
    # and the maximum volume coefficient is larger still: more than str()
    # converts.  The answer is refused by name, and the process-wide limit
    # is left as it was.
    limit = sys.get_int_max_str_digits()
    notation = "(1; " + ", ".join(f"1/{p}" for p in _primes_above(10**6, 800)) + ")"
    for action, what in (("info", "Euler number"), ("sv", "maximum volume coefficient")):
        for argv in (("seifert", action, notation), ("seifert", action, notation, "--json")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err == f"error: {what} is too large to print: over {limit} digits\n"
    assert sys.get_int_max_str_digits() == limit


# Two fibres of prime order near 10^6: the sumset would hold about 10^12
# residue sums, while the maximum is one integer.
HUGE_FIBRES = "(1; 1/1000003, 1/1000033)"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("sv", HUGE_FIBRES), 0),
        (("volumes", HUGE_FIBRES), 1),
        (("witnesses", HUGE_FIBRES, "0"), 1),
        (("volumes", HUGE_FIBRES, "--witnesses", "0"), 1),
    ],
    ids=["sv", "volumes", "witnesses", "volumes_witnesses_flag"],
)
def test_huge_spectrum_answers_or_fails_fast(argv, code):
    start = time.perf_counter()
    done = child.python("-m", "repvol.cli", "seifert", *argv)
    elapsed = time.perf_counter() - start
    assert done.returncode == code, done.stderr
    if code == 0:
        assert done.stdout.startswith("max (enumeration) ") and done.stderr == ""
    else:
        assert done.stdout == ""
        assert done.stderr == (
            "error: spectrum too large: up to 3000108000297 values, over the limit of 1000000\n"
        )
    assert elapsed < 0.5


def test_an_admitted_spectrum_of_two_large_fibres_is_printed(capsys):
    # (1; 1/20000, 1/20000): bound 119997 values, under the default budget,
    # answered in process; its lines are counted, not timed
    code, out, err = run(capsys, "seifert", "volumes", "(1; 1/20000, 1/20000)")
    lines = out.splitlines()
    assert (code, err, len(lines)) == (0, "", 39999)
    assert (lines[0], lines[-1]) == ("0", "399960001/10000 * 4*pi^2")


def test_max_values_sets_the_budget(capsys):
    # (1; 1/2, 1/2): at most min(2 * 2, 1 + 1 + 1) = 3 sums, times
    # 4g - 3 + p = 3 offsets, bound 9 values (the spectrum has 3)
    code, out, err = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--max-values", "8")
    assert (code, out) == (1, "")
    assert err == "error: spectrum too large: up to 9 values, over the limit of 8\n"
    code, out, _ = run(capsys, "seifert", "witnesses", "(1; 1/2, 1/2)", "1", "--max-values", "8")
    assert code == 1
    code, out, _ = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--max-values", "9")
    assert (code, out) == (0, "0\n1/4 * 4*pi^2\n1 * 4*pi^2\n")


def test_max_values_bounds_the_witness_list(capsys):
    # coefficient 1/16 of (1; 8 x 1/2) has 256 witnesses; the spectrum bound is 81
    eight = "(1; " + ", ".join(["1/2"] * 8) + ")"
    code, out, err = run(capsys, "seifert", "witnesses", eight, "1/16", "--max-values", "255")
    assert (code, out, err) == (1, "", "error: spectrum too large: up to 256 witnesses, over the limit of 255\n")
    code, out, err = run(capsys, "seifert", "witnesses", eight, "1/16", "--max-values", "256")
    assert (code, err) == (0, "")
    assert len(set(out.splitlines())) == 256


@pytest.mark.parametrize("action", [("volumes",), ("witnesses", "0")], ids=["volumes", "witnesses"])
@pytest.mark.parametrize("value", ["-5", "-1", "0"])
def test_max_values_below_one_is_a_usage_error(capsys, action, value):
    with pytest.raises(SystemExit) as info:
        main(["seifert", action[0], "(1; 1/2, 1/3)", *action[1:], "--max-values", value])
    out, err = capsys.readouterr()
    assert (info.value.code, out) == (2, "")
    assert err == f"repvol seifert {action[0]}: error: argument --max-values: must be at least 1, got {int(value)}\n"


def test_foliation(capsys):
    code, out, _ = run(capsys, "seifert", "foliation", "(1; 1/2, 1/2)")
    assert (code, out) == (0, "yes\n")
    code, out, _ = run(capsys, "seifert", "foliation", "(1; 7)")
    assert (code, out) == (0, "no\n")


def test_domain_error_exit_one(capsys):
    code, out, err = run(capsys, "seifert", "volumes", "(1; 1/2, -1/2)")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_parse_error_exit_one(capsys):
    code, out, err = run(capsys, "seifert", "info", "(1; 2/4)")
    assert code == 1
    assert out == ""
    assert err == "error: pair 1: 2/4 is not in lowest terms (at position 6)\n"
    assert run(capsys, "seifert", "volumes", "(1; 1/2,)") == (1, "", "error: trailing comma (at position 7)\n")


def test_usage_error_exit_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["seifert", "bogus-action", "(1;)"])
    assert info.value.code == 2


# ---------------------------------------------------------------- cs


def test_cs_verify_iso_sl2r(capsys):
    code, out, _ = run(capsys, "cs", "verify", "iso-sl2r")
    assert code == 0
    assert out == (
        "T = 2/3 * phiX^phiY^phiZ + 2/3 * phiX^phiY^phiW + 2/3 * phiX^phiZ^phiW\n"
        "volume part = 2/3 * phiX^phiY^phiZ\n"
        "primitive = 1/3 * phiY^phiZ + 2/3 * phiY^phiW\n"
        "stated primitive = 1/3 * phiY^phiW + -1/3 * phiZ^phiW (verifies)\n"
        "OK\n"
    )


def test_cs_verify_psl2c(capsys):
    code, out, _ = run(capsys, "cs", "verify", "psl2c")
    assert code == 0
    assert out == "T = pi^-2 * phiX^phiY^phiZ\nOK\n"


def test_cs_jacobi_ok(capsys, tmp_path):
    code, out, _ = run(capsys, "cs", "jacobi", str(DATA.joinpath("iso_sl2r.json")))
    assert (code, out) == (0, "ok\n")
    assert run(capsys, "cs", "jacobi", str(DATA.joinpath("sl2c.json"))) == (0, "ok\n", "")


def test_cs_jacobi_violation(capsys, tmp_path):
    doc = json.loads(DATA.joinpath("iso_sl2r.json").read_text("utf-8"))
    for entry in doc["brackets"]:
        if entry[0] == "Y" and entry[1] == "Z":
            entry[2]["X"] = -2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cs", "jacobi", str(bad))
    assert code == 1
    assert out == "violation at (X, Y, W)\n"
    assert err == "error: jacobi identity fails\n"
    # sl(2) with X negated, but [X, Z] = 3Z where Jacobi needs 2Z
    bad.write_text(
        json.dumps(
            {"basis": ["X", "Y", "Z"], "brackets": [["X", "Y", {"Y": -2}], ["X", "Z", {"Z": 3}], ["Y", "Z", {"X": -1}]]}
        )
    )
    assert run(capsys, "cs", "jacobi", str(bad)) == (1, "violation at (X, Y, Z)\n", "error: jacobi identity fails\n")


def test_cs_jacobi_missing_file(capsys):
    code, out, err = run(capsys, "cs", "jacobi", "/nonexistent/algebra.json")
    assert code == 1
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1, 2], "document: expected an object"),
        (
            {"basis": ["X", "Y"], "brackets": [["X", "Y", 5]]},
            "brackets[0][2]: expected an object of coefficients",
        ),
        ({"basis": "XY"}, "basis: expected a list of names"),
    ],
    ids=["top_level_list", "coefficients_not_an_object", "basis_a_string"],
)
def test_cs_jacobi_malformed_document(capsys, tmp_path, doc, message):
    bad = tmp_path / "algebra.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "cs", "jacobi", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_cs_jacobi_wide_table_ends_fast(tmp_path):
    # Only triples holding a pair with a nonzero bracket can fail the
    # identity: about 6000 of them here, against C(3000, 3) ~ 4.5e9.
    doc = {
        "basis": [f"e{i}" for i in range(3000)],
        "brackets": [["e0", "e1", {"e1": -2}], ["e0", "e2", {"e2": 2}]],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    done = child.python("-m", "repvol.cli", "cs", "jacobi", str(path))
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (0, "ok\n", "")
    assert elapsed < 1


# ---------------------------------------------------------------- graph


def test_graph_validate_shipped_files(capsys):
    for name in ("motegi_2_3_2_5.json", "prop73_zero_hv.json"):
        code, out, _ = run(capsys, "graph", "validate", str(DATA.joinpath(name)))
        assert (code, out) == (0, "ok\n"), name


def test_graph_validate_reports_problems(capsys, tmp_path):
    doc = json.loads(DATA.joinpath("motegi_2_3_2_5.json").read_text("utf-8"))
    doc["edges"][0]["gluing"] = [[1, 0], [0, 1]]
    bad = tmp_path / "bad_graph.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graph", "validate", str(bad))
    assert code == 1
    assert "determinant" in out
    assert err.startswith("error: ")


def test_graph_validate_checks_each_cases_assignments(capsys, tmp_path):
    hyperbolic = {"id": "H", "kind": "hyperbolic", "label": "h", "slots": []}
    twice = [{"piece": "H", "assign": "small_image"}] * 2
    cover = "assignments cover ['H', 'H'], expected exactly ['H']"
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"pieces": [hyperbolic], "edges": [], "assignments": twice}))
    assert run(capsys, "graph", "validate", str(doc)) == (1, f"{cover}\n", "error: invalid document: 1 problem(s)\n")
    assert run(capsys, "graph", "additivity", str(doc)) == (1, "", f"error: {cover}\n")
    # a named case's problem carries its name; a case without assignments
    # is not checked, and neither is a document without any
    cases = [{"name": "A", "assignments": twice}, {"name": "B"}, {"name": "C", "assignments": twice[:1]}]
    doc.write_text(json.dumps({"pieces": [hyperbolic], "edges": [], "cases": cases}))
    assert run(capsys, "graph", "validate", str(doc)) == (1, f"A: {cover}\n", "error: invalid document: 1 problem(s)\n")
    doc.write_text(json.dumps({"pieces": [hyperbolic], "edges": []}))
    assert run(capsys, "graph", "validate", str(doc)) == (0, "ok\n", "")


def test_graph_additivity_motegi(capsys):
    code, out, _ = run(
        capsys, "graph", "additivity", str(DATA.joinpath("motegi_2_3_2_5.json"))
    )
    assert (code, out) == (0, "0\n")


def test_graph_additivity_prop73_cases(capsys):
    code, out, _ = run(
        capsys, "graph", "additivity", str(DATA.joinpath("prop73_zero_hv.json"))
    )
    assert (code, out) == (0, "s_kill: 0\nh_kill: 0\n")


def _graph_doc():
    """One Seifert piece glued to a hyperbolic piece, with one filled case."""
    return {
        "pieces": [
            {"id": "P", "kind": "seifert", "genus": 1, "pairs": [[2, 1]], "slots": ["t"]},
            {"id": "H", "kind": "hyperbolic", "label": "cusped", "slots": ["t"]},
        ],
        "edges": [
            {"a": ["P", "t"], "b": ["H", "t"], "gluing": [[3, -4], [2, -3]],
             "killed_slope": [2, 1]},
        ],
        "cases": [
            {
                "name": "filled",
                "assignments": [
                    {"piece": "P", "assign": "filled", "fillings": {"t": [2, 1]},
                     "coeff": "1/4"},
                    {"piece": "H", "assign": "direct", "exact": "0"},
                ],
            }
        ],
    }


def _top_level_assignments(doc):
    doc["assignments"] = doc.pop("cases")[0]["assignments"]
    return doc


def _fillings_as_pairs(doc):
    # the README's form: a list of [slot, slope] pairs instead of an object
    doc["cases"][0]["assignments"][0]["fillings"] = [["t", [2, 1]]]
    return doc


def test_graph_additivity_accepts_document_forms(capsys, tmp_path):
    for doc in (
        _graph_doc(),
        _top_level_assignments(_graph_doc()),
        _fillings_as_pairs(_graph_doc()),
    ):
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "graph", "additivity", str(path))
        assert (code, err) == (0, "")
        assert out.endswith("1/4 * 4*pi^2\n")


def _parent(doc, keys):
    for key in keys[:-1]:
        doc = doc[key]
    return doc


def _delete(*keys):
    def mutate(doc):
        del _parent(doc, keys)[keys[-1]]
        return doc

    return mutate


# JSON values that are falsy but not null, with their shown forms
FALSY = [(0, "0"), (False, "False"), ("", "''"), ([], "[]"), ({}, "{}")]
FALSY_NAMES = ["zero", "false", "empty_string", "empty_list", "empty_object"]


def _set(value, *keys):
    def mutate(doc):
        _parent(doc, keys)[keys[-1]] = value
        return doc

    return mutate


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: [doc], "document: expected an object"),
        (lambda doc: {"pieces": [{"name": "a"}], "edges": []}, "pieces[0].kind: missing"),
        (_delete("pieces"), "pieces: missing"),
        (_delete("pieces", 0, "id"), "pieces[0].id: missing"),
        (_delete("pieces", 1, "kind"), "pieces[1].kind: missing"),
        (_delete("pieces", 0, "slots"), "pieces[0].slots: missing"),
        (_delete("pieces", 0, "genus"), "pieces[0].genus: missing"),
        (_delete("edges", 0, "a"), "edges[0].a: missing"),
        (_delete("edges", 0, "b"), "edges[0].b: missing"),
        (_delete("edges", 0, "gluing"), "edges[0].gluing: missing"),
        (_delete("cases", 0, "name"), "cases[0].name: missing"),
        (_delete("cases", 0, "assignments", 1, "piece"), "cases[0].assignments[1].piece: missing"),
        (_delete("cases", 0, "assignments", 0, "fillings"), "cases[0].assignments[0].fillings: missing"),
        (_delete("cases", 0, "assignments", 0, "coeff"), "cases[0].assignments[0].coeff: missing"),
        (_set("P", "pieces", 0), "pieces[0]: expected an object"),
        (_set(["P", "t"], "edges", 0), "edges[0]: expected an object"),
        (_set("H", "cases", 0, "assignments", 1), "cases[0].assignments[1]: expected an object"),
        (
            lambda doc: _set("H", "assignments", 1)(_top_level_assignments(doc)),
            "assignments[1]: expected an object",
        ),
        (_set("P", "cases"), "cases: expected a list of objects"),
        (_set(None, "pieces", 0, "genus"), "pieces[0]: malformed entry"),
        (_set(["P"], "edges", 0, "a"), "edges[0]: malformed entry"),
        (_set([[1, None], [0, 1]], "edges", 0, "gluing"), "edges[0]: malformed entry"),
        (_set("1/0", "cases", 0, "assignments", 0, "coeff"), "cases[0].assignments[0]: malformed entry"),
        (_set(3, "cases", 0, "killed_slopes"), "cases[0]: malformed entry"),
        (
            _set([[3, -4]], "edges", 0, "gluing"),
            "edges[0]: malformed entry (gluing [[3, -4]] is not a 2x2 matrix)",
        ),
        (
            _set([[0, 1, 2], [1, 0, 0]], "edges", 0, "gluing"),
            "edges[0]: malformed entry (gluing [[0, 1, 2], [1, 0, 0]] is not a 2x2 matrix)",
        ),
        (_set([[2]], "pieces", 0, "pairs"), "pieces[0]: malformed entry (pairs [[2]] are not all [a, b])"),
        (
            _set([["t", [2]]], "cases", 0, "assignments", 0, "fillings"),
            "cases[0].assignments[0]: malformed entry (fillings [['t', [2]]] are not all [slot, [a, b]])",
        ),
        (
            lambda doc: _set([["t", [2]]], "assignments", 0, "fillings")(_top_level_assignments(doc)),
            "assignments[0]: malformed entry (fillings [['t', [2]]] are not all [slot, [a, b]])",
        ),
        (
            lambda doc: _set([["t", [2, 1]], ["t", [-2, -1]]], "assignments", 0, "fillings")(_top_level_assignments(doc)),
            "assignments[0]: malformed entry (fillings [['t', [2, 1]], ['t', [-2, -1]]] fill a slot twice)",
        ),
        (
            _set([["a", 1], [1, 0]], "edges", 0, "gluing"),
            "edges[0]: malformed entry (gluing[0][0] 'a' is not an integer)",
        ),
        (
            _set(["x", 1], "edges", 0, "killed_slope"),
            "edges[0]: malformed entry (killed_slope[0] 'x' is not an integer)",
        ),
        (
            _set([["x", 1]], "pieces", 0, "pairs"),
            "pieces[0]: malformed entry (pairs[0][0] 'x' is not an integer)",
        ),
        (
            _set("one", "pieces", 0, "genus"),
            "pieces[0]: malformed entry (genus 'one' is not an integer)",
        ),
        (
            _set(float("nan"), "pieces", 0, "genus"),
            "pieces[0]: malformed entry (genus nan is not an integer)",
        ),
        (
            _set({"t": [2, "x"]}, "cases", 0, "assignments", 0, "fillings"),
            "cases[0].assignments[0]: malformed entry (fillings['t'][1] 'x' is not an integer)",
        ),
        (
            _set([["x", 1]], "cases", 0, "killed_slopes"),
            "cases[0]: malformed entry (killed_slopes[0][0] 'x' is not an integer)",
        ),
        (_set([[2.5, 1]], "pieces", 0, "pairs"), "pieces[0]: malformed entry (pairs[0][0] 2.5 is not an integer)"),
        (
            _set([[0.5, 1], [1, 0.2]], "edges", 0, "gluing"),
            "edges[0]: malformed entry (gluing[0][0] 0.5 is not an integer)",
        ),
        (_set(1.9, "pieces", 0, "genus"), "pieces[0]: malformed entry (genus 1.9 is not an integer)"),
        (_set([1.9, 0], "edges", 0, "killed_slope"), "edges[0]: malformed entry (killed_slope[0] 1.9 is not an integer)"),
        (_set(1, "pieces", 0, "kind"), "pieces[0].kind: expected a string, got 1"),
        (_set(True, "pieces", 0, "genus"), "pieces[0]: malformed entry (genus True is not an integer)"),
        (_set([[True, 1]], "pieces", 0, "pairs"), "pieces[0]: malformed entry (pairs[0][0] True is not an integer)"),
        (_set([[3, -4], [2, False]], "edges", 0, "gluing"), "edges[0]: malformed entry (gluing[1][1] False is not an integer)"),
        (_set([True, 0], "edges", 0, "killed_slope"), "edges[0]: malformed entry (killed_slope[0] True is not an integer)"),
        (
            _set({"piece": "H", "assign": "direct", "numeric": True}, "cases", 0, "assignments", 1),
            "cases[0].assignments[1]: malformed entry (bad numeric True)",
        ),
        # only null or absence declares no slope; any other falsy value is no pair
        *[
            (_set(value, "edges", 0, "killed_slope"), f"edges[0]: malformed entry (killed_slope {shown} is not [a, b])")
            for value, shown in FALSY
        ],
        *[
            (
                _set([value], "cases", 0, "killed_slopes"),
                f"cases[0]: malformed entry (killed_slopes[0] {shown} is not [a, b])",
            )
            for value, shown in FALSY
        ],
    ],
    ids=[
        "top_level_list",
        "piece_without_kind",
        "pieces",
        "piece_id",
        "piece_kind",
        "piece_slots",
        "seifert_genus",
        "edge_a",
        "edge_b",
        "edge_gluing",
        "case_name",
        "assignment_piece",
        "assignment_fillings",
        "assignment_coeff",
        "piece_not_an_object",
        "edge_not_an_object",
        "case_assignment_not_an_object",
        "top_level_assignment_not_an_object",
        "cases_not_a_list",
        "genus_null",
        "endpoint_too_short",
        "gluing_entry_null",
        "coeff_division_by_zero",
        "killed_slopes_not_a_list",
        "gluing_one_row",
        "gluing_rows_too_long",
        "seifert_pair_too_short",
        "filling_slope_too_short",
        "top_level_filling_slope_too_short",
        "top_level_filling_slot_twice",
        "gluing_entry_not_an_integer",
        "killed_slope_not_an_integer",
        "seifert_pair_not_an_integer",
        "genus_not_an_integer",
        "genus_nan",
        "filling_slope_not_an_integer",
        "case_killed_slope_not_an_integer",
        "seifert_pair_cut_short",
        "gluing_cut_short",
        "genus_cut_short",
        "killed_slope_cut_short",
        "piece_kind_not_a_string",
        "genus_bool",
        "seifert_pair_bool",
        "gluing_bool",
        "killed_slope_bool",
        "numeric_bool",
        *[f"killed_slope_{name}" for name in FALSY_NAMES],
        *[f"case_killed_slope_{name}" for name in FALSY_NAMES],
    ],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_malformed_document(capsys, tmp_path, action, mutate, message):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(mutate(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set("Pt", "edges", 0, "a"), "edges[0]: malformed entry (a 'Pt' is not [piece, slot])"),
        (_set("Ht", "edges", 0, "b"), "edges[0]: malformed entry (b 'Ht' is not [piece, slot])"),
        (_set("21", "edges", 0, "killed_slope"), "edges[0]: malformed entry (killed_slope '21' is not [a, b])"),
        (
            _set("21", "edges", 0, "killed_slope_b"),
            "edges[0]: malformed entry (killed_slope_b '21' is not [a, b])",
        ),
        (
            _set(["34", "23"], "edges", 0, "gluing"),
            "edges[0]: malformed entry (gluing ['34', '23'] is not a 2x2 matrix)",
        ),
        (_set(["21"], "pieces", 0, "pairs"), "pieces[0]: malformed entry (pairs ['21'] are not all [a, b])"),
        (
            _set({"t": "21"}, "cases", 0, "assignments", 0, "fillings"),
            "cases[0].assignments[0]: malformed entry (fillings {'t': '21'} are not all [slot, [a, b]])",
        ),
        (
            _set(["21"], "cases", 0, "killed_slopes"),
            "cases[0]: malformed entry (killed_slopes[0] '21' is not [a, b])",
        ),
    ],
    ids=["edge_a", "edge_b", "killed_slope", "killed_slope_b", "gluing_rows", "seifert_pair", "filling_slope", "case_killed_slope"],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_two_character_string_is_not_a_pair(capsys, tmp_path, action, mutate, message):
    # "Pt" has two characters, but no JSON string stands for a pair
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(mutate(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out, err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_slots_string_is_not_a_list_of_names(capsys, tmp_path, action):
    # no JSON string stands for a list of names: "tu" would read as t and u
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(_set("t", "pieces", 0, "slots")(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out, err) == (1, "", "error: pieces[0]: malformed entry (slots 't' is not a list of names)\n")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set({"P": 1, "t": 2}, "edges", 0, "a"), "edges[0]: malformed entry (a {'P': 1, 't': 2} is not [piece, slot])"),
        (_set({"t": 1}, "pieces", 0, "slots"), "pieces[0]: malformed entry (slots {'t': 1} is not a list of names)"),
    ],
    ids=["edge_a", "slots"],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_json_object_is_not_a_pair_or_a_list_of_names(capsys, tmp_path, action, mutate, message):
    # an object would read as its keys: the endpoint ('P', 't'), the slot t
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(mutate(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out, err) == (1, "", f"error: {message}\n")


# Every list-valued field of the three document formats: the command that
# reads it, a valid document, and the field's keys.  null declares no slope,
# so it is a valid killed slope and list of them.
LIST_FIELDS = [
    *[
        (("graph", "validate"), _graph_doc, keys)
        for keys in (
            ("pieces",),
            ("edges",),
            ("cases",),
            ("pieces", 0, "slots"),
            ("pieces", 0, "pairs"),
            ("pieces", 1, "slots"),
            ("edges", 0, "a"),
            ("edges", 0, "b"),
            ("edges", 0, "gluing"),
            ("edges", 0, "killed_slope"),
            ("edges", 0, "killed_slope_b"),
            ("cases", 0, "killed_slopes"),
            ("cases", 0, "assignments"),
            ("cases", 0, "assignments", 0, "fillings"),
        )
    ],
    (("graph", "validate"), lambda: _top_level_assignments(_graph_doc()), ("assignments",)),
    *[
        (("cs", "jacobi"), lambda: {"basis": ["X", "Y"], "brackets": [["X", "Y", {"Y": 1}]]}, keys)
        for keys in (("basis",), ("brackets",), ("brackets", 0))
    ],
    *[(("graph", "rw"), lambda: _ratio_doc(("a", "b", "2")), keys) for keys in (("vertices",), ("edges",), ("edges", 0))],
]


NOT_LISTS = {"int": 5, "string": "ab", "object": {"a": 1}, "null": None, "true": True}


@pytest.mark.parametrize(
    "argv, doc, keys, value",
    [
        pytest.param(argv, doc, keys, value, id=f"{' '.join(map(str, keys))}-{name}")
        for argv, doc, keys in LIST_FIELDS
        for name, value in NOT_LISTS.items()
        if value is not None or keys[-1] not in ("killed_slope", "killed_slope_b", "killed_slopes")
    ],
)
def test_a_list_field_that_is_no_list_gets_its_readers_text(capsys, tmp_path, argv, doc, keys, value):
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(_set(value, *keys)(doc())))
    code, out, err = run(capsys, *argv, str(bad))
    assert (code, out, err.count("\n")) == (1, "", 1), err
    assert err.startswith("error: ")
    for text in ("object of type", "is not iterable", "has no len()", *PYTHON_TEXTS):
        assert text not in err


# Python's own texts for a value int() cannot convert or a name that cannot
# be hashed, which no refusal passes on
PYTHON_TEXTS = ("invalid literal for int()", "cannot convert float", "int() argument must", "unhashable type")
# Every integer field of the graph format: a valid document, the field's
# keys, the path of the entry that holds it and its name in the refusal.
INTEGER_FIELDS = [
    (_graph_doc, ("pieces", 0, "genus"), "pieces[0]", "genus"),
    (_graph_doc, ("pieces", 0, "pairs", 0, 0), "pieces[0]", "pairs[0][0]"),
    (_graph_doc, ("pieces", 0, "pairs", 0, 1), "pieces[0]", "pairs[0][1]"),
    (_graph_doc, ("edges", 0, "gluing", 0, 1), "edges[0]", "gluing[0][1]"),
    (_graph_doc, ("edges", 0, "gluing", 1, 0), "edges[0]", "gluing[1][0]"),
    (_graph_doc, ("edges", 0, "killed_slope", 0), "edges[0]", "killed_slope[0]"),
    (lambda: _set([2, 1], "edges", 0, "killed_slope_b")(_graph_doc()), ("edges", 0, "killed_slope_b", 1), "edges[0]", "killed_slope_b[1]"),
    (lambda: _set([[2, 1]], "cases", 0, "killed_slopes")(_graph_doc()), ("cases", 0, "killed_slopes", 0, 0), "cases[0]", "killed_slopes[0][0]"),
    (_graph_doc, ("cases", 0, "assignments", 0, "fillings", "t", 1), "cases[0].assignments[0]", "fillings['t'][1]"),
    (lambda: _fillings_as_pairs(_graph_doc()), ("cases", 0, "assignments", 0, "fillings", 0, 1, 0), "cases[0].assignments[0]", "fillings['t'][0]"),
    (lambda: _top_level_assignments(_graph_doc()), ("assignments", 0, "fillings", "t", 0), "assignments[0]", "fillings['t'][0]"),
]
# JSON values that are no integer: Fraction and IntEnum have no JSON form
NOT_INTEGERS = {
    "digit_string": "2",
    "spaced_string": " 3 ",
    "integral_float": 2.0,
    "float": 2.5,
    "true": True,
    "null": None,
    "nan": float("nan"),
    "infinity": float("inf"),
    "long_string": "9" * 5000,
}


@pytest.mark.parametrize(
    "doc, keys, entry, what, value",
    [
        pytest.param(doc, keys, entry, what, value, id=f"{' '.join(map(str, keys))}-{name}")
        for doc, keys, entry, what in INTEGER_FIELDS
        for name, value in NOT_INTEGERS.items()
    ],
)
def test_an_integer_field_that_is_no_int_gets_one_text(capsys, tmp_path, doc, keys, entry, what, value):
    # an integer is a JSON integer, read by exact._integer: a string of
    # digits, a float with no fraction part, null or NaN is refused at its path
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(_set(value, *keys)(doc())))
    code, out, err = run(capsys, "graph", "validate", str(bad))
    shown = _shown(json.loads(json.dumps(value)))
    assert (code, out, err) == (1, "", f"error: {entry}: malformed entry ({what} {shown} is not an integer)\n")
    assert len(err) < 200
    for text in PYTHON_TEXTS:
        assert text not in err


@pytest.mark.parametrize("argv", [("validate",), ("additivity",), ("additivity", "--json")], ids=" ".join)
def test_graph_repeated_case_name_is_refused(capsys, tmp_path, argv):
    # each case names one total: --json kept only the last, and validate said ok
    doc = _graph_doc()
    doc["pieces"] = [doc["pieces"][1]]
    doc["edges"] = []
    doc["cases"] = [
        {"name": "A", "assignments": [{"piece": "H", "assign": "direct", "exact": total}]} for total in ("1", "2")
    ]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "graph", *argv, str(path)) == (1, "", "error: cases[1]: duplicate case name 'A'\n")


def test_graph_rw(capsys, tmp_path):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b", "2"], ["b", "c", "3"], ["c", "a", "1/6"]],
            }
        )
    )
    code, out, _ = run(capsys, "graph", "rw", str(good))
    assert (code, out) == (0, "consistent\n")

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            {
                "vertices": ["a", "b", "c"],
                "edges": [["a", "b", "2"], ["b", "c", "3"], ["c", "a", "1"]],
            }
        )
    )
    code, out, err = run(capsys, "graph", "rw", str(bad))
    assert code == 1
    assert out == "inconsistent: cycle b->c[3] c->a[1] a->b[2] product 6\n"
    assert err == "error: edge ratios are inconsistent\n"

    for ratio, expected in (
        ("6", (0, "consistent\n", "")),
        ("5", (1, "inconsistent: cycle v->w[3] w->u[1/5] u->v[2] product 6/5\n", "error: edge ratios are inconsistent\n")),
    ):
        bad.write_text(json.dumps({"vertices": ["u", "v", "w"], "edges": [["u", "v", "2"], ["v", "w", "3"], ["u", "w", ratio]]}))
        assert run(capsys, "graph", "rw", str(bad)) == expected


def _ratio_doc(*edges):
    return {"vertices": ["a", "b"], "edges": [list(edge) for edge in edges]}


@pytest.mark.parametrize(
    "doc, message",
    [
        ([1], "document: expected an object"),
        ({"edges": []}, "vertices: missing"),
        ({"vertices": ["a"]}, "edges: missing"),
        ({"vertices": "ab", "edges": []}, "vertices: expected a list of names"),
        ({"vertices": ["a"], "edges": 5}, "edges: expected a list of [u, v, ratio] rows"),
        (_ratio_doc(("a", "b", "2"), ("a", "b")), "edges[1]: expected [u, v, ratio]"),
        (_ratio_doc(("a", "b", "2"), "ab"), "edges[1]: expected [u, v, ratio]"),
        (_ratio_doc(("a", "b", "1/0")), "edges[0][2]: bad ratio '1/0'"),
        (_ratio_doc(("a", "b", "two")), "edges[0][2]: bad ratio 'two'"),
        (_ratio_doc(("a", "b", 1e-07)), "edges[0][2]: bad ratio '1e-07'"),
        ({"vertices": [1, "1", None], "edges": []}, "vertices[0]: expected a string, got 1"),
        ({"vertices": ["1", "2"], "edges": [[1, "1", "2"]]}, "edges[0][0]: expected a string, got 1"),
        ({"vertices": ["1", "2"], "edges": [["1", None, "2"]]}, "edges[0][1]: expected a string, got None"),
        (
            {"vertices": ["u", "v", "w"], "edges": [["u", "v", "2"], ["v", "x", "3"]]},
            "edge ('v', 'x') uses unknown vertices",
        ),
        ({"vertices": ["u", "v", "w"], "edges": [["u", "v", "2"], ["v", "w", "-3"]]}, "edge ratio must be positive, got -3"),
    ],
    ids=[
        "top_level_list",
        "vertices",
        "edges",
        "vertices_a_string",
        "edges_not_a_list",
        "row_too_short",
        "row_not_a_list",
        "ratio_division_by_zero",
        "ratio_not_a_number",
        "ratio_float_in_exponent_form",
        "vertex_name_not_a_string",
        "edge_start_not_a_string",
        "edge_end_not_a_string",
        "unknown_vertex",
        "ratio_not_positive",
    ],
)
def test_graph_rw_malformed_document(capsys, tmp_path, doc, message):
    bad = tmp_path / "ratios.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graph", "rw", str(bad))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


# An exponent string: Fraction would compute 10**999999999 and never finish.
HUGE = "1e999999999"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ("cs", "jacobi"),
            {"basis": ["A", "B"], "brackets": [["A", "B", {"A": HUGE}]]},
            f"brackets[0][2].A: bad structure constant '{HUGE}' (use int or 'p/q')",
        ),
        (
            ("graph", "validate"),
            _set(HUGE, "cases", 0, "assignments", 0, "coeff")(_graph_doc()),
            f"cases[0].assignments[0]: malformed entry (bad coeff '{HUGE}')",
        ),
        (
            ("graph", "additivity"),
            _set(HUGE, "cases", 0, "assignments", 1, "exact")(_graph_doc()),
            f"cases[0].assignments[1]: malformed entry (bad exact '{HUGE}')",
        ),
        (
            ("graph", "additivity"),
            _set(1e-07, "cases", 0, "assignments", 0, "coeff")(_graph_doc()),
            "cases[0].assignments[0]: malformed entry (bad coeff '1e-07')",
        ),
        (("graph", "rw"), _ratio_doc(("a", "b", HUGE)), f"edges[0][2]: bad ratio '{HUGE}'"),
    ],
    ids=["structure_constant", "coeff", "exact", "coeff_float_in_exponent_form", "ratio"],
)
def test_exponent_rationals_are_refused(capsys, tmp_path, argv, doc, message):
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, *argv, str(bad))
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


# Not a number, and far longer than a refusal shows: the first 32
# characters, then an ellipsis and the length.
XS = "x" * 5000
SHOWN_XS = f"'{'x' * 32}…' (5000 characters)"
# A list whose repr has 10000 characters, shown by its first 32.
LONG_ROW = ["a"] * 2000
SHOWN_ROW = "['a', 'a', 'a', 'a', 'a', 'a', '… (10000 characters)"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ("cs", "jacobi"),
            {"basis": ["A", "B"], "brackets": [["A", "B", {"A": XS}]]},
            f"brackets[0][2].A: bad structure constant {SHOWN_XS} (use int or 'p/q')",
        ),
        (
            ("graph", "validate"),
            _set(XS, "cases", 0, "assignments", 0, "coeff")(_graph_doc()),
            f"cases[0].assignments[0]: malformed entry (bad coeff {SHOWN_XS})",
        ),
        (
            ("graph", "additivity"),
            _set(XS, "cases", 0, "assignments", 1, "exact")(_graph_doc()),
            f"cases[0].assignments[1]: malformed entry (bad exact {SHOWN_XS})",
        ),
        (("graph", "rw"), _ratio_doc(("a", "b", XS)), f"edges[0][2]: bad ratio {SHOWN_XS}"),
        (
            ("cs", "jacobi"),
            {"basis": ["A", "B"], "brackets": [LONG_ROW]},
            f"brackets[0]: bracket entry {SHOWN_ROW} must be [left, right, coeffs]",
        ),
        (
            ("cs", "jacobi"),
            {"basis": ["A", "B"], "brackets": [["A", "B", {"A": [1] * 2000}]]},
            "brackets[0][2].A: bad structure constant [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1… (6000 characters) (use int or 'p/q')",
        ),
        (("graph", "rw"), _ratio_doc(LONG_ROW), f"edges[0]: expected [u, v, ratio], got {SHOWN_ROW}"),
    ],
    ids=["structure_constant", "coeff", "exact", "ratio", "bracket_row", "list_constant", "ratio_row"],
)
def test_long_document_values_are_shown_shortened(capsys, tmp_path, argv, doc, message):
    bad = tmp_path / "doc.json"
    bad.write_text(json.dumps(doc))
    assert run(capsys, *argv, str(bad)) == (1, "", f"error: {message}\n")


# ---------------------------------------------------------------- one reading rule per value

# Names that differ only in their JSON type: piece 1 and endpoint "1",
# and piece "None" and endpoint null, are never read as one name.
TYPED_NAMES = {
    "pieces": [
        {"id": "None", "kind": "hyperbolic", "label": "h", "slots": ["1"]},
        {"id": 1, "kind": "hyperbolic", "label": "h", "slots": [1]},
    ],
    "edges": [{"a": [None, 1], "b": ["1", "1"], "gluing": [[0, 1], [1, 0]]}],
}


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda doc: TYPED_NAMES, "pieces[1].id: expected a string, got 1"),
        (_set(None, "pieces", 0, "id"), "pieces[0].id: expected a string, got None"),
        (_set(["t", 1], "pieces", 1, "slots"), "pieces[1].slots[1]: expected a string, got 1"),
        (_set([None, "t"], "edges", 0, "a"), "edges[0].a[0]: expected a string, got None"),
        (_set(["H", 1], "edges", 0, "b"), "edges[0].b[1]: expected a string, got 1"),
        (_set(1, "cases", 0, "name"), "cases[0].name: expected a string, got 1"),
        (_set(None, "cases", 0, "assignments", 1, "piece"), "cases[0].assignments[1].piece: expected a string, got None"),
        (
            _set([[1, [2, 1]]], "cases", 0, "assignments", 0, "fillings"),
            "cases[0].assignments[0].fillings[0][0]: expected a string, got 1",
        ),
        (_set(True, "cases", 0, "assignments", 0, "coeff"), "cases[0].assignments[0]: malformed entry (bad coeff True)"),
        (_set([1, 4], "cases", 0, "assignments", 1, "exact"), "cases[0].assignments[1]: malformed entry (bad exact [1, 4])"),
    ],
    ids=[
        "typed_names", "piece_id", "slot", "endpoint_piece", "endpoint_slot",
        "case_name", "assignment_piece", "filling_slot", "coeff_bool", "exact_list",
    ],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_names_are_strings_and_rationals_are_read_as_given(capsys, tmp_path, action, mutate, message):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(mutate(_graph_doc())))
    assert run(capsys, "graph", action, str(bad)) == (1, "", f"error: {message}\n")


def test_graph_float_rationals_read_through_their_repr(capsys, tmp_path):
    # 0.25 is the coefficient 1/4 of the filled case, as "1/4" is
    doc = _set(0.25, "cases", 0, "assignments", 0, "coeff")(_graph_doc())
    doc = _set(0.0, "cases", 0, "assignments", 1, "exact")(doc)
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "graph", "additivity", str(path)) == (0, "filled: 1/4 * 4*pi^2\n", "")


def test_structure_constants_accept_decimals(capsys, tmp_path):
    path = tmp_path / "algebra.json"
    for constant in (1.5, "1.5", "3/2"):
        doc = {"basis": ["X", "Y"], "brackets": [["X", "Y", {"Y": constant}]]}
        path.write_text(json.dumps(doc))
        assert run(capsys, "cs", "jacobi", str(path)) == (0, "ok\n", "")
    path.write_text(json.dumps({"basis": ["X", "Y"], "brackets": [["X", "Y", {"Y": False}]]}))
    message = "error: brackets[0][2].Y: bad structure constant False (use int or 'p/q')\n"
    assert run(capsys, "cs", "jacobi", str(path)) == (1, "", message)


def test_ratio_graph_reads_a_float_ratio_through_its_repr(capsys, tmp_path):
    path = tmp_path / "ratios.json"
    path.write_text(json.dumps({"vertices": ["u", "v"], "edges": [["u", "v", 1.5], ["u", "v", "3/2"]]}))
    assert run(capsys, "graph", "rw", str(path)) == (0, "consistent\n", "")
    path.write_text(json.dumps(_ratio_doc(("a", "b", [3, 2]))))
    assert run(capsys, "graph", "rw", str(path)) == (1, "", "error: edges[0][2]: bad ratio [3, 2]\n")


# More digits than int() converts to text: an int passed in a dict (JSON
# files refuse such a number as they read it) is read as itself.
LONG_INT = 10**5000 + 1


@pytest.mark.parametrize("where", ["coeff", "exact", "ratio"])
def test_a_long_int_is_read_as_itself(where):
    if where == "ratio":
        vertices, edges = _ratio_graph({"vertices": ["a", "b"], "edges": [["a", "b", LONG_INT]]})
        assert edges == [("a", "b", LONG_INT)]
        assert jsj.rw_consistency(vertices, edges).consistent
        return
    index = {"coeff": 0, "exact": 1}[where]
    document = jsj.load_graph_document(_set(LONG_INT, "cases", 0, "assignments", index, where)(_graph_doc()))
    name, spec, assignments = document.cases[0]
    value = assignments[index].coeff if where == "coeff" else assignments[index].volume.coeff
    assert value == LONG_INT
    # a total that long is refused by the package's own text, never Python's
    with pytest.raises(ValueError) as info:
        render_volume(jsj.additivity_sum(spec, assignments))
    assert "too large to print: over" in str(info.value)
    assert "Exceeds the limit" not in str(info.value)



@pytest.mark.parametrize(
    "mutate, message",
    [
        (_set(["P", "t", "junk"], "edges", 0, "a"), "a ['P', 't', 'junk'] is not [piece, slot]"),
        (_set(["H", "t", "junk"], "edges", 0, "b"), "b ['H', 't', 'junk'] is not [piece, slot]"),
        (_set([2, 1, 7], "edges", 0, "killed_slope"), "killed_slope [2, 1, 7] is not [a, b]"),
        (_set([2], "edges", 0, "killed_slope"), "killed_slope [2] is not [a, b]"),
        (_set([2, 1, 0], "edges", 0, "killed_slope_b"), "killed_slope_b [2, 1, 0] is not [a, b]"),
    ],
    ids=["endpoint_a_too_long", "endpoint_b_too_long", "slope_too_long", "slope_too_short", "slope_b_too_long"],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_edge_pairs_of_other_lengths_are_refused(capsys, tmp_path, action, mutate, message):
    # these loaded before, cut short to their first two items
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(mutate(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: edges[0]: malformed entry ({message})\n"


@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_case_killed_slopes_of_other_lengths_are_refused(capsys, tmp_path, action):
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(_set([[2, 1, 7]], "cases", 0, "killed_slopes")(_graph_doc())))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out) == (1, "")
    assert err == "error: cases[0]: malformed entry (killed_slopes[0] [2, 1, 7] is not [a, b])\n"


def _numeric_doc(numeric):
    doc = _graph_doc()
    doc["cases"][0]["assignments"][1] = {"piece": "H", "assign": "direct", "numeric": numeric}
    return doc


@pytest.mark.parametrize(
    "numeric, shown",
    [("nan", "'nan'"), ("inf", "'inf'"), ("-Infinity", "'-Infinity'"), (float("inf"), "inf"), ("x", "'x'")],
    ids=["nan_string", "inf_string", "minus_infinity_string", "infinity_literal", "not_a_number"],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_non_finite_numeric_volumes_are_refused(capsys, tmp_path, action, numeric, shown):
    # "nan" and "inf" loaded before, and additivity printed nan with exit 0
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(_numeric_doc(numeric)))
    code, out, err = run(capsys, "graph", action, str(bad))
    assert (code, out) == (1, "")
    assert err == f"error: cases[0].assignments[1]: malformed entry (bad numeric {shown})\n"


def test_graph_numeric_volume_still_loads(capsys, tmp_path):
    good = tmp_path / "graph.json"
    good.write_text(json.dumps(_numeric_doc("2.5")))
    code, out, err = run(capsys, "graph", "additivity", str(good))
    # 1/4 * 4*pi^2 + 2.5
    assert (code, out, err) == (0, "filled: 12.3696044011\n", "")


def test_graph_rw_repeated_vertex_name_names_one_vertex(capsys, tmp_path):
    doc = tmp_path / "ratios.json"
    doc.write_text(json.dumps({"vertices": ["a", "b", "a"], "edges": [["a", "b", "2"], ["b", "a", "1/2"]]}))
    code, out, _ = run(capsys, "graph", "rw", str(doc))
    assert (code, out) == (0, "consistent\n")

    doc.write_text(json.dumps({"vertices": ["b", "a", "b"], "edges": [["a", "b", "2"], ["b", "a", "2"]]}))
    code, out, err = run(capsys, "graph", "rw", str(doc))
    assert code == 1
    assert out == "inconsistent: cycle b->a[2] a->b[2] product 4\n"
    assert err == "error: edge ratios are inconsistent\n"


# ---------------------------------------------------------------- covers


def test_covers_merge(capsys):
    code, out, _ = run(capsys, "covers", "merge", "--degrees", "2,3", "--m", "1")
    assert code == 0
    assert out == "common_degree         6\ncopies                3,2\nper_torus_elevations  6\n"
    assert run(capsys, "covers", "merge", "--degrees", "2,4", "--m", "2") == (
        0,
        "common_degree         4\ncopies                2,1\nper_torus_elevations  2\n",
        "",
    )


def test_covers_merge_json(capsys):
    code, out, _ = run(
        capsys, "covers", "merge", "--degrees", "2,3", "--m", "1", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "common_degree": 6,
        "copies": [3, 2],
        "per_torus_elevations": 6,
    }


def test_covers_colored_json(capsys):
    code, out, _ = run(
        capsys, "covers", "colored", "--k", "2,3", "--l", "1,2", "--json"
    )
    assert code == 0
    assert json.loads(out) == {
        "common_degree": 6,
        "central_positive": 6,
        "central_negative": 6,
        "corridor_copies": [3, 4],
        "matched_elevations": [6, 12],
    }
    # sorted keys, two-space indent, one list item a line
    assert out == (
        '{\n  "central_negative": 6,\n  "central_positive": 6,\n  "common_degree": 6,\n'
        '  "corridor_copies": [\n    3,\n    4\n  ],\n  "matched_elevations": [\n    6,\n    12\n  ]\n}\n'
    )


def test_covers_colored_plain_text(capsys):
    code, out, err = run(capsys, "covers", "colored", "--k", "2,3", "--l", "1,5")
    assert (code, err) == (0, "")
    assert out == (
        "common_degree       6\n"
        "central_positive    6\n"
        "central_negative    6\n"
        "corridor_copies     3,10\n"
        "matched_elevations  6,30\n"
    )


def test_covers_too_large_to_print(capsys):
    # The lcm of the 800 primes above 10^6 has about 4800 digits: more than
    # str() converts.  Every count is refused by name, in --json too, and
    # the process-wide limit is left as it was.
    limit = sys.get_int_max_str_digits()
    primes = ",".join(str(p) for p in _primes_above(10**6, 800))
    ones = ",".join("1" for _ in range(800))
    for argv in (("merge", "--degrees", primes, "--m", "1"), ("colored", "--k", primes, "--l", ones)):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "covers", *argv, *extra)
            assert (code, out) == (1, "")
            assert err == f"error: common degree is too large to print: over {limit} digits\n"
    assert sys.get_int_max_str_digits() == limit


def test_graph_and_cases_too_large_to_print(capsys, tmp_path):
    # Each answer below has about 6000 digits, built from inputs short
    # enough to read; it is refused by name, before any line is printed.
    limit = sys.get_int_max_str_digits()
    pieces = tmp_path / "pieces.json"
    pieces.write_text(
        json.dumps(
            {
                "pieces": [
                    {"id": "A", "kind": "hyperbolic", "label": "a", "slots": ["t"]},
                    {"id": "B", "kind": "hyperbolic", "label": "b", "slots": ["t"]},
                ],
                "edges": [{"a": ["A", "t"], "b": ["B", "t"], "gluing": [[0, 1], [1, 0]]}],
                "assignments": [
                    {"piece": "A", "assign": "direct", "exact": "1/" + "7" * 3000 + "1"},
                    {"piece": "B", "assign": "direct", "exact": "1/" + "3" * 3000 + "1"},
                ],
            }
        )
    )
    ratios = tmp_path / "ratios.json"
    ratio = 10**3000
    ratios.write_text(json.dumps({"vertices": ["u", "v"], "edges": [["u", "v", ratio], ["v", "u", ratio]]}))
    factor = "1" + "0" * 1499
    for argv, what in (
        (("cases", "motegi", factor, factor, factor, factor), "H1 order"),
        (("graph", "additivity", str(pieces)), "volume coefficient"),
        (("graph", "additivity", str(pieces), "--decimal"), "volume coefficient"),
        (("graph", "rw", str(ratios)), "cycle product"),
    ):
        extras = ((), ("--json",)) if argv[1] != "rw" else ((),)
        for extra in extras:
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (1, "")
            assert err == f"error: {what} is too large to print: over {limit} digits\n"
    assert sys.get_int_max_str_digits() == limit


def test_covers_elevations(capsys):
    code, out, _ = run(capsys, "covers", "elevations", "--torus", "4", "--curve", "2")
    assert code == 0
    assert out.split() == ["elevations", "2"]
    code, _, err = run(capsys, "covers", "elevations", "--torus", "5", "--curve", "2")
    assert code == 1
    assert "does not divide" in err


def test_covers_intersection(capsys):
    code, out, _ = run(
        capsys,
        "covers",
        "intersection",
        "--number", "1", "--deg-f", "2", "--deg-s", "3", "--deg-torus", "6",
    )
    assert code == 0
    assert out.split() == ["intersection", "1"]


# ---------------------------------------------------------------- cases


def test_cases_motegi(capsys):
    code, out, _ = run(capsys, "cases", "motegi", "2", "3", "2", "5")
    assert code == 0
    assert out == "H1 order 59; nontrivial graph manifold: yes; SV = 0\n"
    code, out, _ = run(capsys, "cases", "motegi", "2", "2", "2", "2")
    assert code == 0
    assert out == "H1 order 15; nontrivial graph manifold: no; SV = 0\n"


def test_cases_motegi_json(capsys):
    code, out, _ = run(capsys, "cases", "motegi", "2", "3", "2", "5", "--json")
    assert code == 0
    assert json.loads(out) == {"h1_order": 59, "nontrivial": True, "sv": "0"}


def test_determinism_byte_identical(capsys):
    first = run(capsys, "seifert", "volumes", "(2; 1)", "--oracle")
    second = run(capsys, "seifert", "volumes", "(2; 1)", "--oracle")
    assert first == second


# ---------------------------------------------------------------- boundary

BIG_PIECE = {
    "pieces": [
        {"id": "P", "kind": "seifert", "genus": 1, "pairs": [[1000003, 1]], "slots": ["T1", "T2"]}
    ],
    "edges": [
        {"a": ["P", "T1"], "b": ["P", "T2"], "gluing": [[0, 1], [1, 0]], "killed_slope": [1000033, 1]}
    ],
    "assignments": [
        {"piece": "P", "assign": "filled", "fillings": {"T1": [1000033, 1], "T2": [1, 1000033]}, "coeff": "0"}
    ],
}
# An exact volume of 10^400 * 4*pi^2 prints, but its decimal is past the
# float range, and so is its sum with a numeric volume.
HYPERBOLIC = [{"id": "H", "kind": "hyperbolic", "label": "h", "slots": []}]
HUGE_EXACT = {"piece": "H", "assign": "direct", "exact": "1" + "0" * 400}
HUGE_VOLUME = {"pieces": HYPERBOLIC, "edges": [], "assignments": [HUGE_EXACT]}
HUGE_MIXED = {
    "pieces": HYPERBOLIC + [{"id": "K", "kind": "hyperbolic", "label": "k", "slots": []}],
    "edges": [],
    "assignments": [HUGE_EXACT, {"piece": "K", "assign": "direct", "numeric": 1.5}],
}
# Two numeric volumes, each in the float range, whose sum is not.
HUGE_NUMERIC = {
    "pieces": [{"id": name, "kind": "hyperbolic", "label": "h", "slots": []} for name in "HK"],
    "edges": [],
    "assignments": [{"piece": name, "assign": "direct", "numeric": 1e308} for name in "HK"],
}
PAST_FLOAT = "error: volume is too large for a float: over 1.79769e+308\n"


@pytest.mark.parametrize(
    "argv, doc, code, err",
    [
        (
            ("seifert", "witnesses", "(1; 1/2, 1/2)", HUGE),
            None,
            2,
            f"repvol seifert witnesses: error: argument coeff: not a rational number: '{HUGE}'\n",
        ),
        (
            ("seifert", "volumes", "(1; 1/2, 1/2)", "--witnesses", "1e99999999"),
            None,
            2,
            "repvol seifert volumes: error: argument --witnesses: not a rational number: '1e99999999'\n",
        ),
        (
            ("graph", "additivity"),
            BIG_PIECE,
            1,
            "error: spectrum too large: up to 4000144000396 values, over the limit of 1000000\n",
        ),
        (
            ("seifert", "volumes", "(1; 1/13, 1/11, 1/7, 1/5)", "--oracle"),
            None,
            1,
            "error: spectrum too large: up to 215233605 oracle (tuple, n) pairs, over the limit of 1000000\n",
        ),
        (
            ("seifert", "volumes", "(10000; 1/2)", "--oracle"),
            None,
            1,
            "error: spectrum too large: up to 1600279982 oracle (tuple, n) pairs, over the limit of 1000000\n",
        ),
        # the window is checked first: its spectrum (bound 988401) would take seconds
        (
            ("seifert", "volumes", "(1; 1/571, 1/577)", "--oracle"),
            None,
            1,
            "error: spectrum too large: up to 15939075 oracle (tuple, n) pairs, over the limit of 1000000\n",
        ),
        # over both budgets, the window is named
        (
            ("seifert", "volumes", "(1; 1/1000003, 1/1000033)", "--oracle"),
            None,
            1,
            "error: spectrum too large: up to 48001944019683 oracle (tuple, n) pairs, over the limit of 1000000\n",
        ),
        (
            ("seifert", "witnesses", "(1; " + ", ".join(["1/2"] * 30) + ")", "15/4"),
            None,
            1,
            "error: spectrum too large: up to 691988432 witnesses, over the limit of 1000000\n",
        ),
        (
            ("seifert", "info", "(" + "9" * 5000 + ";)"),
            None,
            1,
            f"error: genus is too long to read: over {sys.get_int_max_str_digits()} digits (at position 1)\n",
        ),
        (("seifert", "sv", "(1" + "0" * 200 + "; 1/2, 1/3)", "--decimal"), None, 1, PAST_FLOAT),
        (("graph", "additivity", "--decimal"), HUGE_VOLUME, 1, PAST_FLOAT),
        (("graph", "additivity", "--decimal", "--json"), HUGE_VOLUME, 1, PAST_FLOAT),
        (("graph", "additivity"), HUGE_MIXED, 1, PAST_FLOAT),
        (("graph", "additivity"), HUGE_NUMERIC, 1, PAST_FLOAT),
    ],
    ids=[
        "witnesses_exponent",
        "witnesses_flag_exponent",
        "filled_piece_budget",
        "oracle_window_budget",
        "oracle_window_walks_n",
        "oracle_window_before_spectrum",
        "oracle_window_over_both",
        "witness_budget",
        "genus_over_digit_limit",
        "sv_decimal_past_float",
        "additivity_decimal_past_float",
        "additivity_decimal_json_past_float",
        "additivity_mixed_past_float",
        "additivity_numeric_past_float",
    ],
)
def test_boundary_refusals_end_fast(tmp_path, argv, doc, code, err):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = (*argv, str(path))
    start = time.perf_counter()
    done = child.python("-m", "repvol.cli", *argv)
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout, done.stderr) == (code, "", err)
    assert elapsed < 0.5


LIMIT = sys.get_int_max_str_digits()
LONG = "9" * 5000  # over Python's 4300-digit limit for int(str)
LONG_SHOWN = "'" + "9" * 32 + "…' (5000 characters)"
LONG_PIECE = '{"pieces": [{"id": "P", "kind": "seifert", "genus": 1, "pairs": [[%s, 1]], "slots": []}], "edges": []}'
LONG_EDGE = (
    '{"pieces": [{"id": "P", "kind": "hyperbolic", "label": "p", "slots": ["t", "u"]}],'
    ' "edges": [{"a": ["P", "t"], "b": ["P", "u"], "gluing": [[0, 1], [1, %s]], "killed_slope": [1, 0]}]}'
)


@pytest.mark.parametrize(
    "text, err",
    [
        # a string of digits is no integer, however long, and is shown shortened
        (LONG_PIECE % f'"{LONG}"', f"error: pieces[0]: malformed entry (pairs[0][0] {LONG_SHOWN} is not an integer)\n"),
        (
            LONG_EDGE % f'"-{LONG}"',
            "error: edges[0]: malformed entry (gluing[1][1] '-" + "9" * 31 + "…' (5001 characters) is not an integer)\n",
        ),
        (LONG_PIECE % LONG, f"error: a JSON number is too long to read: over {LIMIT} digits\n"),
        (LONG_EDGE % LONG, f"error: a JSON number is too long to read: over {LIMIT} digits\n"),
    ],
    ids=["pair_string", "gluing_string", "pair_number", "gluing_number"],
)
@pytest.mark.parametrize("action", ["validate", "additivity"])
def test_graph_integer_over_digit_limit_is_named(capsys, tmp_path, action, text, err):
    path = tmp_path / "graph.json"
    path.write_text(text)
    assert run(capsys, "graph", action, str(path)) == (1, "", err)


LONG_DECIMAL = "0." + LONG
TOO_LONG = f"is too long to read: over {LIMIT} digits"


@pytest.mark.parametrize(
    "argv, doc, message",
    [
        (
            ("cs", "jacobi"),
            {"basis": ["A", "B"], "brackets": [["A", "B", {"A": LONG_DECIMAL}]]},
            f"brackets[0][2].A: the value {TOO_LONG}",
        ),
        (
            ("graph", "validate"),
            _set("1/" + LONG, "cases", 0, "assignments", 0, "coeff")(_graph_doc()),
            f"cases[0].assignments[0]: the value {TOO_LONG}",
        ),
        (
            ("graph", "additivity"),
            _set(LONG, "cases", 0, "assignments", 1, "exact")(_graph_doc()),
            f"cases[0].assignments[1]: the value {TOO_LONG}",
        ),
        (("graph", "rw"), _ratio_doc(("a", "b", LONG_DECIMAL)), f"edges[0][2]: the value {TOO_LONG}"),
        (
            ("graph", "validate"),
            _set([[LONG, 1]], "cases", 0, "killed_slopes")(_graph_doc()),
            f"cases[0]: malformed entry (killed_slopes[0][0] {LONG_SHOWN} is not an integer)",
        ),
    ],
    ids=["structure_constant", "coeff", "exact", "ratio", "case_killed_slope"],
)
def test_document_values_over_digit_limit_are_named_not_echoed(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, *argv, str(path)) == (1, "", f"error: {message}\n")


def test_coefficient_argument_over_digit_limit_is_named(capsys):
    with pytest.raises(SystemExit) as exit:
        main(["seifert", "witnesses", "(1; 1/2, 1/2)", LONG])
    assert exit.value.code == 2
    message = f"argument coeff: not a rational number: the value {TOO_LONG}"
    assert capsys.readouterr() == ("", f"repvol seifert witnesses: error: {message}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("covers", "merge", "--degrees", "2,4", "--m", LONG), "--m"),
        (("covers", "elevations", "--torus", LONG, "--curve", "2"), "--torus"),
        (("covers", "elevations", "--torus", "4", "--curve", LONG), "--curve"),
        (("covers", "intersection", "--number", LONG, "--deg-f", "1", "--deg-s", "1", "--deg-torus", "1"), "--number"),
        (("covers", "intersection", "--number", "1", "--deg-f", LONG, "--deg-s", "1", "--deg-torus", "1"), "--deg-f"),
        (("covers", "intersection", "--number", "1", "--deg-f", "1", "--deg-s", LONG, "--deg-torus", "1"), "--deg-s"),
        (("covers", "intersection", "--number", "1", "--deg-f", "1", "--deg-s", "1", "--deg-torus", LONG), "--deg-torus"),
        (("cases", "motegi", LONG, "3", "2", "5"), "p1"),
        (("cases", "motegi", "2", LONG, "2", "5"), "q1"),
        (("cases", "motegi", "2", "3", LONG, "5"), "p2"),
        (("cases", "motegi", "2", "3", "2", LONG), "q2"),
        (("seifert", "volumes", "(1; 1/2)", "--max-values", LONG), "--max-values"),
        (("seifert", "witnesses", "(1; 1/2)", "0", "--max-values", LONG), "--max-values"),
        (("covers", "merge", "--degrees", f"2,{LONG}", "--m", "2"), "--degrees"),
        (("covers", "colored", "--k", LONG, "--l", "1"), "--k"),
        (("covers", "colored", "--k", "1", "--l", f"{LONG},2"), "--l"),
    ],
    ids=[
        "m", "torus", "curve", "number", "deg_f", "deg_s", "deg_torus", "p1", "q1", "p2", "q2",
        "max_values_volumes", "max_values_witnesses", "degrees", "k", "l",
    ],
)
def test_integer_option_over_digit_limit_is_named_not_echoed(capsys, argv, option):
    with pytest.raises(SystemExit) as exit:
        main(list(argv))
    assert exit.value.code == 2
    prog = " ".join(("repvol", *argv[:2]))
    assert capsys.readouterr() == ("", f"{prog}: error: argument {option}: the value {TOO_LONG}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("covers", "elevations", "--torus", "x", "--curve", "2"), "argument --torus: invalid int value: 'x'"),
        (("cases", "motegi", "2", "3", "2", "1.5"), "argument q2: invalid int value: '1.5'"),
        (("seifert", "volumes", "(1; 1/2)", "--max-values", "ten"), "argument --max-values: invalid int value: 'ten'"),
        (("seifert", "volumes", "(1; 1/2)", "--max-values", "0"), "argument --max-values: must be at least 1, got 0"),
        (("covers", "merge", "--degrees", "2,x", "--m", "2"), "argument --degrees: not a comma-separated integer list: '2,x'"),
        (("covers", "colored", "--k", "1,2", "--l", "1;2"), "argument --l: not a comma-separated integer list: '1;2'"),
    ],
    ids=["int_option", "positional", "budget", "budget_below_one", "list_item", "list"],
)
def test_integer_option_usage_errors_keep_their_text(capsys, argv, message):
    with pytest.raises(SystemExit) as exit:
        main(list(argv))
    assert exit.value.code == 2
    prog = " ".join(("repvol", *argv[:2]))
    assert capsys.readouterr() == ("", f"{prog}: error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (("covers", "elevations", "--torus", XS, "--curve", "2"), f"argument --torus: invalid int value: {SHOWN_XS}"),
        (("cases", "motegi", "2", "3", "2", XS), f"argument q2: invalid int value: {SHOWN_XS}"),
        (("seifert", "volumes", "(1; 1/2)", "--max-values", XS), f"argument --max-values: invalid int value: {SHOWN_XS}"),
        (
            ("covers", "merge", "--degrees", "2," + XS, "--m", "2"),
            f"argument --degrees: not a comma-separated integer list: '2,{'x' * 30}…' (5002 characters)",
        ),
        (("seifert", "witnesses", "(1; 1/2)", XS), f"argument coeff: not a rational number: {SHOWN_XS}"),
        (
            ("seifert", "volumes", "(1; 1/2)", "--witnesses", XS),
            f"argument --witnesses: not a rational number: {SHOWN_XS}",
        ),
        (
            ("covers", "elevations", "--torus", "x" * 64, "--curve", "2"),
            f"argument --torus: invalid int value: '{'x' * 64}'",
        ),
        (("cs", "verify", XS), f"argument algebra: invalid choice: {SHOWN_XS} (choose from 'iso-sl2r', 'psl2c')"),
        (("cs", "verify", "nope"), "argument algebra: invalid choice: 'nope' (choose from 'iso-sl2r', 'psl2c')"),
    ],
    ids=[
        "int_option", "positional", "budget", "list", "coeff", "witnesses", "64_characters_in_full",
        "algebra", "algebra_in_full",
    ],
)
def test_long_option_values_are_shown_shortened(capsys, argv, message):
    with pytest.raises(SystemExit) as exit:
        main(list(argv))
    assert exit.value.code == 2
    prog = " ".join(("repvol", *argv[:2]))
    assert capsys.readouterr() == ("", f"{prog}: error: {message}\n")


N = "9" * 4300  # the most digits Python converts; the answers below have more
WIDE_GLUING = {
    "pieces": [{"id": "P", "kind": "hyperbolic", "label": "p", "slots": ["t", "u"]}],
    "edges": [{"a": ["P", "t"], "b": ["P", "u"], "gluing": [[int(N[:4000])] * 2, [int(N[:4000]), -int(N[:4000])]]}],
}

# the gluing has determinant -1, and pushes the slope (Y, 1) to (Y, X*Y - 1)
WIDE_SLOPE = {
    "pieces": [
        {"id": name, "kind": "seifert", "genus": 1, "pairs": [], "slots": ["t"]} for name in ("P", "Q")
    ],
    "edges": [
        {"a": ["P", "t"], "b": ["Q", "t"], "gluing": [[1, 0], [int("7" * 4000), -1]], "killed_slope": [int("3" * 4000), 1]}
    ],
    "assignments": [
        {"piece": "Q", "assign": "filled", "fillings": {"t": [1, 0]}, "coeff": "0"},
        {"piece": "P", "assign": "filled", "fillings": {"t": [int("3" * 4000), 1]}, "coeff": "0"},
    ],
}


@pytest.mark.parametrize(
    "argv, what",
    [
        (("seifert", "volumes", f"(2; {N}, {N})"), "volume coefficient"),
        (("seifert", "volumes", f"(2; {N}, {N})", "--json"), "volume coefficient"),
        (("seifert", "witnesses", f"(2; {N}, -{N[:-1]}8)", "4"), "witness z-value"),
        (("seifert", "witnesses", f"(2; {N}, -{N[:-1]}8)", "4", "--json"), "witness z-value"),
        (("seifert", "volumes", f"(1; {N}, {N})"), "Euler number"),
        (("seifert", "sv", f"(1; {N}, {N})"), "Euler number"),
        (("seifert", "witnesses", f"(1; {N}, {N})", "0"), "Euler number"),
        (("seifert", "witnesses", "(1; 1/2, 1/2)", "0." + N), "coefficient"),
        (("graph", "additivity", _set("0." + N, "cases", 0, "assignments", 0, "coeff")(_graph_doc())), "coefficient"),
        (("graph", "validate", WIDE_GLUING), "edge 0: gluing determinant"),
        (("graph", "additivity", WIDE_SLOPE), "killed slope"),
    ],
    ids=[
        "volumes",
        "volumes_json",
        "witnesses",
        "witnesses_json",
        "volumes_zero_chi",
        "sv_zero_chi",
        "witnesses_zero_chi",
        "witness_coefficient",
        "filled_coefficient",
        "gluing_determinant",
        "pushed_killed_slope",
    ],
)
def test_numbers_too_long_to_print_are_named(capsys, tmp_path, argv, what):
    if isinstance(argv[-1], dict):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], str(path))
    assert run(capsys, *argv) == (1, "", f"error: {what} is too large to print: over {LIMIT} digits\n")


def test_oracle_window_counts_against_max_values(capsys):
    # (1; 1/2, 1/2): B = 2 + 2 + 4 = 8, so the window is 17^2 = 289 tuples,
    # each walking at most min(17, p + 4g - 3 = 3) values of n: 867 pairs
    code, _, err = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--oracle", "--max-values", "866")
    assert code == 1
    assert err == (
        "error: spectrum too large: up to 867 oracle (tuple, n) pairs, over the limit of 866\n"
    )
    code, out, _ = run(capsys, "seifert", "volumes", "(1; 1/2, 1/2)", "--oracle", "--max-values", "867")
    assert (code, out.splitlines()[-1]) == (0, "oracle agreement: 3 values")


def test_witnesses_of_two_thousand_unit_fibres(capsys):
    # one Python frame per fibre used to overflow the recursion limit here;
    # the spectrum bound is only 6 * (4 - 3 + 2002) = 12018 values
    units = ", ".join(["1"] * 2000)
    code, out, err = run(capsys, "seifert", "witnesses", f"(1; 1/2, 1/3, {units})", "1/1470")
    assert (code, err) == (0, "")
    zeros = ",".join(["0"] * 2000)
    assert [line.split(" zeta=")[0] for line in out.splitlines()] == [
        f"n=(1,2,{zeros}) n=0",
        f"n=(1,1,{zeros}) n=2",
    ]


def test_internal_failure_exits_three(capsys, monkeypatch):
    from repvol import ehn
    from repvol.seifert import orbifold_chi

    monkeypatch.setattr(ehn, "orbifold_chi", lambda inv: orbifold_chi(inv) - 1)
    code, out, err = run(capsys, "seifert", "sv", "(1; 1/2, 1/2)")
    assert (code, out) == (3, "")
    assert err.startswith("internal error: volume maximum mismatch: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("fault", [ValueError, TypeError, RecursionError, KeyError, ZeroDivisionError])
@pytest.mark.parametrize(
    "target, argv",
    [
        ("repvol.jsj.Edge.__post_init__", ("graph", "validate", str(DATA.joinpath("prop73_zero_hv.json")))),
        ("repvol.ehn._add_fibre", ("seifert", "volumes", "(1; 1/2, 1/3)")),
        ("repvol.liecs.cs_three_form", ("cs", "verify", "psl2c")),
    ],
    ids=["Edge", "_add_fibre", "cs_three_form"],
)
def test_a_planted_fault_is_an_internal_error(capsys, monkeypatch, target, argv, fault):
    # only a Refusal is the input's fault: a builtin exception of any class
    # raised inside repvol, in a record constructor, ehn's arithmetic or the
    # form code, exits 3 and is never reported as a malformed entry
    def planted(*args):
        raise fault("planted bug")

    monkeypatch.setattr(target, planted)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"internal error: {fault.__name__}: ")
    assert err.count("\n") == 1


def test_failing_stdout_exits_one(capsys, monkeypatch):
    # main prints inside its try, so a closed pipe is one error line, not a traceback
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    code = main(["seifert", "info", "(1; 1/2)"])
    assert (code, capsys.readouterr().err) == (1, "error: [Errno 32] Broken pipe\n")


def test_a_name_stdout_cannot_encode_exits_one(capsys, monkeypatch, tmp_path):
    # a lone surrogate read from JSON is a name UTF-8 cannot write, so
    # printing it is refused, as the input's fault, with the codec's text
    doc = tmp_path / "doc.json"
    doc.write_text('{"vertices": ["\\ud800", "b"], "edges": [["\\ud800", "b", 2], ["b", "\\ud800", 2]]}')
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="utf-8"))
    code = main(["graph", "rw", str(doc)])
    assert (code, capsys.readouterr().err) == (
        1,
        "error: 'utf-8' codec can't encode character '\\ud800' in position 23: surrogates not allowed\n",
    )


@pytest.mark.parametrize("argv", [("cs", "jacobi"), ("graph", "validate"), ("graph", "rw")])
def test_deeply_nested_file_exits_one(capsys, tmp_path, argv):
    # the decoder's RecursionError comes from the input, so _read_json refuses it
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 10**5 + "]" * 10**5)
    message = "maximum recursion depth exceeded while decoding a JSON array from a unicode string"
    assert run(capsys, *argv, str(deep)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
        (b'{"pieces": "\xff"}', "'utf-8' codec can't decode byte 0xff in position 12: invalid start byte"),
    ],
    ids=["not_json", "not_utf8"],
)
def test_a_file_the_decoder_refuses_exits_one(capsys, tmp_path, content, message):
    # the JSON decoder's errors are read once, as refusals, with its own text
    bad = tmp_path / "doc.json"
    bad.write_bytes(content)
    assert run(capsys, "graph", "validate", str(bad)) == (1, "", f"error: {message}\n")


def test_a_path_holding_a_nul_exits_one(capsys):
    # open() refuses the path with a ValueError, which _read_json reads as a refusal
    assert run(capsys, "graph", "validate", "doc\x00.json") == (1, "", "error: embedded null byte\n")


def test_graph_infinite_genus_is_malformed(capsys, tmp_path):
    doc = _graph_doc()
    doc["pieces"][0]["genus"] = float("inf")  # json writes Infinity, which it reads back
    bad = tmp_path / "graph.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "graph", "validate", str(bad))
    assert (code, out) == (1, "")
    assert err == "error: pieces[0]: malformed entry (genus inf is not an integer)\n"


# ---------------------------------------------------------------- parser


FAMILIES = ("seifert", "cs", "graph", "covers", "cases")


def _parsers(parser):
    """``parser`` and every parser under it, by prog."""
    found = {parser.prog: parser}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for child in action.choices.values():
                found.update(_parsers(child))
    return found


def test_a_family_built_alone_has_the_texts_it_has_among_all_five():
    whole = _parsers(build_parser())
    assert len(whole) == 21  # the root, five families and fifteen actions
    for family in FAMILIES:
        alone = _parsers(build_parser(family))
        assert alone.pop("repvol").prog == "repvol"
        assert set(alone) == {prog for prog in whole if prog.split()[1:2] == [family]}
        for prog, parser in alone.items():
            assert parser.format_help() == whole[prog].format_help(), prog


def _exit(call):
    with pytest.raises(SystemExit) as info:
        call()
    return info.value.code


@pytest.mark.parametrize(
    "argv",
    [["-h"], [], ["nope"], ["-x", "seifert"]]
    + [[family, *rest] for family in FAMILIES for rest in ([], ["-h"], ["nope"])]
    + [["seifert", "volumes", "-h"], ["covers", "merge", "--m", "x"], ["cs", "verify", "nope"]],
)
def test_main_exits_as_the_parser_of_all_five_families(capsys, argv):
    # main builds only the family argv[0] names; help and usage errors read the same
    code = _exit(lambda: main(argv))
    printed = capsys.readouterr()
    assert (code, printed) == (_exit(lambda: build_parser().parse_args(argv)), capsys.readouterr())


# ---------------------------------------------------------------- console script


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (("seifert", "sv", "(2; 1)"), 0, "max (enumeration) 4 * 4*pi^2\nmax (closed form) 4 * 4*pi^2\n", ""),
        (("seifert", "info", "(1; 2/4)"), 1, "", "error: pair 1: 2/4 is not in lowest terms (at position 6)\n"),
        (
            ("cs", "verify", "nope"),
            2,
            "",
            "repvol cs verify: error: argument algebra: invalid choice: 'nope' (choose from 'iso-sl2r', 'psl2c')\n",
        ),
    ],
    ids=["ok", "refused", "usage"],
)
def test_entry_exits_with_the_command_code(argv, code, out, err):
    # repvol.cli:entry is the installed console script's target
    done = child.python("-c", "from repvol.cli import entry; entry()", *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)


# Commands whose output fails at main's last flush (one short line), in
# the middle of its lines (132,731 bytes, past the stdout buffer), and at
# entry's flush after argparse has printed a help text and exited.
CLOSED_PIPE = [
    ("seifert", "info", "(1; 1/2)"),
    ("seifert", "volumes", "(1; 1/2, 1/3, 1/5, 1/7, 1/11)"),
    ("-h",),
    ("seifert", "volumes", "-h"),
]
CLOSED_PIPE_IDS = ["short", "long", "help", "subcommand_help"]


@pytest.mark.parametrize("argv", CLOSED_PIPE, ids=CLOSED_PIPE_IDS)
def test_a_closed_stdout_pipe_is_a_domain_error(argv):
    # the read end is closed before the spawn, so every write fails
    read, write = os.pipe()
    os.close(read)
    env = {key: value for key, value in child.env().items() if key != "PYTHONUNBUFFERED"}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repvol.cli", *argv], stdout=write, stderr=subprocess.PIPE, env=env, timeout=60
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (1, b"error: [Errno 32] Broken pipe\n")


@pytest.mark.parametrize("argv", CLOSED_PIPE, ids=CLOSED_PIPE_IDS)
def test_entry_sends_what_a_closed_pipe_refused_to_devnull(capsys, monkeypatch, argv):
    read, write = os.pipe()
    os.close(read)
    stream = open(write, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "argv", ["repvol", *argv])
    monkeypatch.setattr(sys, "stdout", stream)
    with pytest.raises(SystemExit) as info:
        entry()
    assert info.value.code == 1
    assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
    stream.close()  # entry pointed the write end at os.devnull, so this flush succeeds


@pytest.mark.parametrize("order", [1, -1], ids=["witnesses_first", "option_first"])
@pytest.mark.parametrize("option", ["--oracle", "--decimal"])
def test_volumes_witnesses_refuse_the_options_they_would_ignore(capsys, order, option):
    # the oracle window of this symbol is 215,233,605 pairs, so --oracle
    # alone is refused; with --witnesses it used to be dropped silently
    first, second = [("--witnesses", "0"), (option,)][::order]
    with pytest.raises(SystemExit) as info:
        main(["seifert", "volumes", "(1; 1/13, 1/11, 1/7, 1/5)", *first, *second])
    assert info.value.code == 2
    message = f"argument --witnesses: not allowed with argument {option}"
    assert capsys.readouterr() == ("", f"repvol seifert volumes: error: {message}\n")
