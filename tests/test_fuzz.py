"""Fuzzing the input boundary of the command line.

Two kinds of input are drawn: argv for all five command families
(structured symbols, integers and rationals, plus raw text), and mutated
copies of the shipped documents in ``src/repvol/data`` and of the
README's example documents.  Every run must end with exit code 0, 1 or
2 and no traceback, and an exit 1 must write exactly one stderr line.

The strategies reach every refusal path: the spectrum and oracle budget
(fibre orders from 10^6 up, a huge genus), the witness budget (a list
of more than ``--max-values`` witnesses), exponent rationals such as
``1e999999999``, non-finite JSON numbers, and JSON nested too deep to
decode, as well as an integer over Python's 4300-digit limit in a Seifert
symbol or a document (as a JSON number or a string), ``--decimal`` on
an answer past the float range, and an answer or a refusal that shows a
number too long to print (a spectrum, a witness, e, a gluing
determinant).  Random
draws reach some of these only now and then, so each also has an
explicit example that always runs.  Example counts are fixed and derandomized, so a failure
reproduces.  Each in-process run is stopped after ``LIMIT_S`` seconds,
so a hang in Python code fails the test instead of stalling the suite.
The limit is about three times the slowest run these fixed draws make:
0.047 s on a 2-CPU machine under Python 3.11, and 0.097 s with both CPUs
kept busy by other processes.  A signal cannot stop one long C call,
such as the 10**999999999 that ``Fraction('1e999999999')`` would compute.
"""

import contextlib
import copy
import io
import json
import os
import re
import signal
from importlib import resources
from pathlib import Path

import child
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from repvol.cli import main

ROOT = Path(__file__).resolve().parents[1]
N = "9" * 4300  # the most digits Python converts: numbers built from it print as more
WIDE = int("9" * 4000)  # a gluing of four of these has a determinant too long to print
DATA = resources.files("repvol").joinpath("data")
LIMIT_S = 0.3


def _fuzz(max_examples):
    return settings(
        max_examples=max_examples,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )


class _Hang(Exception):
    """Raised inside a run that has not ended within ``LIMIT_S``; it is no
    error type the CLI catches, so it fails the test."""


@contextlib.contextmanager
def _time_limit(seconds):
    def fire(signum, frame):
        raise _Hang(f"no end within {seconds} s")

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_cli(argv):
    """Exit code and stderr of ``main(argv)``, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _time_limit(LIMIT_S):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def check_outcome(argv, code, err):
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    # Python's own texts for a value int() or float() cannot convert or a name that cannot be hashed
    for text in (
        "invalid literal for int()",
        "cannot convert float",
        "int() argument must",
        "float() argument must",
        "unhashable type",
    ):
        assert text not in err, (argv, err)
    if code == 1:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)


# ---------------------------------------------------------------- argv

raw = st.text(max_size=12)
# small values, and values from 10^6 up, which every budget refuses
integers = st.one_of(st.integers(-3, 12), st.integers(10**6, 10**40))
integer_text = st.one_of(integers.map(str), raw)
rational_text = st.one_of(
    integers.map(str),
    st.fractions(max_denominator=50).map(str),
    st.sampled_from(["1e999999999", "-1E5", "1/0", "0.25", "nan", "inf", " 1/3 "]),
    raw,
)
genus = st.one_of(st.integers(-1, 3), st.integers(10**6, 10**40))
fibre = st.one_of(
    # b = k*a + 1 is prime to a, so the pair parses
    st.builds(lambda a, k: f"{k * a + 1}/{a}", integers.filter(lambda a: a > 0), st.integers(-2, 1)),
    st.builds("{}/{}".format, st.integers(-13, 13), integers),
    st.integers(-3, 3).map(str),
)
structured = st.builds(lambda g, fibres: f"({g}; {', '.join(fibres)})", genus, st.lists(fibre, max_size=5))
symbol = st.one_of(structured, structured, raw)
shipped = [str(DATA.joinpath(name)) for name in sorted(os.listdir(str(DATA)))]
path = st.one_of(st.sampled_from(shipped + ["/nonexistent.json", ".", ""]), raw)


# values for the seifert flags that take one; a --max-values above the
# default would let through work the budget exists to refuse
SEIFERT_VALUES = {
    "--max-values": st.one_of(st.integers(-3, 10**6).map(str), raw),
    "--witnesses": rational_text,
}
SEIFERT_ACTIONS = {
    "info": ["--json"],
    "volumes": ["--json", "--max-values", "--decimal", "--oracle", "--witnesses"],
    "sv": ["--json", "--decimal"],
    "foliation": ["--json"],
    "witnesses": ["--json", "--max-values"],
}


@st.composite
def seifert_argv(draw):
    action = draw(st.sampled_from(["volumes", *SEIFERT_ACTIONS, "bogus"]))
    argv = ["seifert", action, draw(symbol)]
    if action == "witnesses":
        argv.append(draw(rational_text))
    # now and then a flag the action does not take
    flags = SEIFERT_ACTIONS.get(action, []) + draw(st.sampled_from([[], [], ["--oracle"]]))
    for flag in draw(st.lists(st.sampled_from(flags), max_size=3, unique=True)) if flags else []:
        argv.append(flag)
        if flag in SEIFERT_VALUES:
            argv.append(draw(SEIFERT_VALUES[flag]))
    return argv


@st.composite
def covers_argv(draw):
    int_list = st.lists(integer_text, max_size=4).map(",".join)
    action, options = draw(
        st.sampled_from(
            [
                ("merge", (("--degrees", int_list), ("--m", integer_text))),
                ("colored", (("--k", int_list), ("--l", int_list))),
                ("elevations", (("--torus", integer_text), ("--curve", integer_text))),
                (
                    "intersection",
                    tuple((f"--{name}", integer_text) for name in ("number", "deg-f", "deg-s", "deg-torus")),
                ),
            ]
        )
    )
    argv = ["covers", action]
    for flag, value in options:
        if draw(st.integers(0, 9)):  # now and then leave a required option out
            argv += [flag, draw(value)]
    return argv + draw(st.sampled_from([[], ["--json"]]))


command_argv = st.one_of(
    seifert_argv(),
    seifert_argv(),
    seifert_argv(),
    st.builds(lambda a: ["cs", "verify", a], st.one_of(st.sampled_from(["iso-sl2r", "psl2c"]), raw)),
    st.builds(lambda p: ["cs", "jacobi", p], path),
    st.builds(
        lambda action, p, flags: ["graph", action, p, *flags],
        st.sampled_from(["validate", "additivity", "rw"]),
        path,
        st.sampled_from([[], ["--json"], ["--decimal"]]),
    ),
    covers_argv(),
    st.builds(lambda ints, flags: ["cases", "motegi", *ints, *flags], st.lists(integer_text, max_size=5), st.sampled_from([[], ["--json"]])),
    st.builds(lambda head, rest: [head, *rest], st.sampled_from(["seifert", "cs", "graph", "covers", "cases"]), st.lists(raw, max_size=4)),
    st.lists(raw, max_size=5),
)


@_fuzz(300)
@given(command_argv)
@example(["seifert", "volumes", "(1; 1/13, 1/11, 1/7, 1/5)", "--oracle"])
@example(["seifert", "witnesses", "(1; 1/1000003, 1/1000033)", "0"])
@example(["seifert", "witnesses", "(1; " + ", ".join(["1/2"] * 30) + ")", "15/4"])
@example(["seifert", "volumes", "(1000000000000000000000; 1/2, 1/3)"])
@example(["seifert", "witnesses", "(1; 1/2, 1/2)", "1e999999999"])
@example(["seifert", "volumes", "(1; 1/2, 1/2)", "--witnesses", "1e99999999"])
@example(["seifert", "sv", "(1" + "0" * 200 + "; 1/2, 1/3)", "--decimal"])
@example(["seifert", "info", "(" + "9" * 5000 + ";)"])
# numbers too long to print, in answers and in refusals
@example(["seifert", "volumes", f"(2; {N}, {N})"])
@example(["seifert", "volumes", f"(2; {N}, {N})", "--json"])
@example(["seifert", "witnesses", f"(2; {N}, -{N[:-1]}8)", "4"])
@example(["seifert", "volumes", f"(1; {N}, {N})"])
@example(["seifert", "sv", f"(1; {N}, {N})"])
@example(["seifert", "witnesses", f"(1; {N}, {N})", "0"])
@example(["seifert", "witnesses", "(1; 1/2, 1/2)", "0." + N])
def test_fuzzed_argv_keeps_the_exit_contract(argv):
    code, err = run_cli(argv)
    check_outcome(argv, code, err)
    # an integer too long to read is named, not left to Python's own text
    assert "Exceeds the limit" not in err, (argv, err)


# ---------------------------------------------------------------- documents


def _readme_documents():
    text = (ROOT / "README.md").read_text("utf-8")
    return [json.loads(block) for block in re.findall(r"```json\n(.*?)```", text, re.S)]


def _commands(doc):
    if "basis" in doc:
        return [("cs", "jacobi")]
    if "vertices" in doc:
        return [("graph", "rw")]
    return [("graph", "validate"), ("graph", "additivity")]


SOURCES = [json.loads(DATA.joinpath(name).read_text("utf-8")) for name in sorted(os.listdir(str(DATA)))]
SOURCES = [(doc, _commands(doc)) for doc in SOURCES + _readme_documents()]

# placeholders swapped for text json.dumps cannot write: nesting deeper
# than the decoder's recursion limit, and an integer over 4300 digits
DEEP, HUGE_INT = "@deep@", "@huge-int@"
hostile = st.one_of(
    st.sampled_from([DEEP, DEEP, HUGE_INT, "1e999999999", "1/0", 1e-07]),  # DEEP twice: half its draws nest only 50 deep
    st.none(),
    st.booleans(),
    integers,
    st.floats(),  # includes NaN and the infinities, which JSON here reads back
    st.text(max_size=6),
    st.lists(st.integers(-3, 12), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(-3, 3), max_size=2),
)
# a leaf is mostly replaced by a hostile value of its own type
extreme_number = st.one_of(st.sampled_from([0, -1, 10**30, float("inf"), float("nan"), HUGE_INT]), integers)
hostile_string = st.one_of(st.sampled_from(["1e999999999", "1/0", "-1/2", "", "t", "X", "9" * 5000]), st.text(max_size=6))


def _nodes(doc, path=()):
    """Every path in ``doc``, the root included."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


@st.composite
def mutated_document(draw):
    """(JSON text, the commands that read its source)."""
    doc, commands = draw(st.sampled_from(SOURCES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]] if path else doc
        op = draw(st.sampled_from(["replace", "replace", "delete", "duplicate", "wrap"]))
        if op == "replace":
            if isinstance(node, (int, float)) and not isinstance(node, bool):
                node = draw(st.one_of(extreme_number, hostile))
            elif isinstance(node, str):
                node = draw(st.one_of(hostile_string, hostile))
            else:
                node = draw(hostile)
        elif op == "wrap":
            node = [node]
        elif op == "duplicate" and isinstance(parent, list) and path:
            parent.insert(path[-1], copy.deepcopy(node))
        if not path:
            doc = node
        elif op == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = node
    text = json.dumps(doc)
    depth = draw(st.sampled_from([50, 10**5]))
    text = text.replace(json.dumps(DEEP), "[" * depth + "]" * depth)
    return text.replace(json.dumps(HUGE_INT), "9" * 5000), commands


def _seed(marker, path, value):
    """The first source document whose JSON holds ``marker``, with the value
    at ``path`` replaced, as ``mutated_document`` draws it (``HUGE_INT``
    becoming a 5000-digit JSON number)."""
    doc, commands = next((copy.deepcopy(d), c) for d, c in SOURCES if marker in json.dumps(d))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc).replace(json.dumps(HUGE_INT), "9" * 5000), commands


@_fuzz(180)
@given(mutated_document())
@example(_seed('"filled"', ("pieces", 0, "genus"), 10**30))
@example(_seed('"filled"', ("pieces", 0, "pairs", 0, 0), 1000003))
@example(_seed('"filled"', ("pieces", 0, "genus"), float("inf")))
@example(_seed('"filled"', ("assignments", 0, "coeff"), "1e999999999"))
@example(_seed('"vertices"', ("edges", 0, 2), "1e999999999"))
@example(_seed('"basis"', ("brackets", 0, 2, "Y"), "1e999999999"))
@example(("[" * 10**5 + "]" * 10**5, [("cs", "jacobi"), ("graph", "validate"), ("graph", "rw")]))
@example(_seed('"filled"', ("pieces", 0, "pairs", 0, 0), "9" * 5000))
@example(_seed('"filled"', ("edges", 0, "gluing", 1, 0), "-" + "9" * 5000))
@example(_seed('"filled"', ("pieces", 0, "pairs", 0, 1), HUGE_INT))
@example(_seed('"vertices"', ("edges", 0, 2), HUGE_INT))
@example(_seed('"basis"', ("brackets", 0, 2, "Y"), HUGE_INT))
@example(_seed('"filled"', ("edges", 0, "gluing"), [[WIDE, WIDE], [WIDE, -WIDE]]))
@example(_seed('"filled"', ("assignments", 0, "coeff"), "0." + N))
def test_fuzzed_documents_keep_the_exit_contract(tmp_path_factory, drawn):
    text, commands = drawn
    doc_path = tmp_path_factory.mktemp("fuzz") / "doc.json"
    doc_path.write_text(text, "utf-8")
    for command in commands:
        argv = [*command, str(doc_path)]
        code, err = run_cli(argv)
        check_outcome(argv, code, err)
        # an integer too long to read is named, not left to Python's own text
        assert "Exceeds the limit" not in err, (argv, err)


def _passable(arg):
    """Whether an operating system can pass ``arg`` in argv: no NUL, and
    no surrogate outside the range of surrogateescape."""
    try:
        os.fsencode(arg)
    except UnicodeEncodeError:
        return False
    return "\x00" not in arg


@_fuzz(4)
@given(st.one_of(command_argv, mutated_document()))
def test_fuzzed_subprocess_keeps_the_exit_contract(tmp_path_factory, drawn):
    if isinstance(drawn, list):  # argv, not a document
        assume(all(_passable(arg) for arg in drawn))
    else:
        text, commands = drawn
        doc_path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        doc_path.write_text(text, "utf-8")
        drawn = [*commands[-1], str(doc_path)]
    done = child.python("-m", "repvol.cli", *drawn)
    check_outcome(drawn, done.returncode, done.stderr)
