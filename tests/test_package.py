"""The lazy package: ``import repvol`` loads no submodule, every public
name resolves to its home module's object, and each CLI command family
loads only the modules it runs, and neither ``dataclasses`` nor
``inspect``; and no module asserts."""

import ast
import importlib
import json
from pathlib import Path

import child
import pytest

import repvol

SRC = Path(__file__).resolve().parents[1] / "src"
GRAPH = str(SRC / "repvol" / "data" / "motegi_2_3_2_5.json")
TABLE = str(SRC / "repvol" / "data" / "sl2c.json")


# Slow stdlib imports that no command needs; some interpreters load
# ``inspect`` at start-up already (from ``site``).
STDLIB = ("dataclasses", "inspect")


def _loaded(code):
    """The ``repvol`` and ``STDLIB`` modules in ``sys.modules`` after a
    fresh interpreter runs ``code``."""
    roots = ("repvol", *STDLIB)
    script = code + f"\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r})))"
    done = child.python("-c", script, timeout=60)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


@pytest.fixture(scope="module")
def bare():
    """The ``STDLIB`` modules a bare interpreter has already loaded."""
    return _loaded("pass")


def test_import_loads_no_submodule(bare):
    assert _loaded("import repvol") - bare == {"repvol"}


def test_every_public_name_is_its_home_modules_object():
    # The home of a name is the one submodule whose own __all__ lists it.
    homes = {}
    for module in ("exact", "seifert", "ehn", "linalg", "liecs", "jsj", "covers"):
        home = importlib.import_module(f"repvol.{module}")
        for name in set(home.__all__) & set(repvol.__all__):
            assert name not in homes, name
            homes[name] = home
    assert set(homes) == set(repvol.__all__)
    for name, home in homes.items():
        assert getattr(repvol, name) is getattr(home, name), name


def test_dir_lists_every_public_name():
    assert set(repvol.__all__) <= set(dir(repvol))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from repvol import *", namespace)
    assert set(repvol.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(repvol, name) for name in repvol.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'repvol' has no attribute 'nope'$"):
        repvol.nope


@pytest.mark.parametrize(
    "argv, absent, only",
    [
        (["seifert", "info", "(1; 1/2, 1/3)"], {"repvol.ehn", "repvol.liecs", "repvol.jsj", "repvol.covers"}, None),
        (["cs", "verify", "psl2c"], {"repvol.seifert", "repvol.ehn", "repvol.linalg", "repvol.jsj", "repvol.covers"}, None),
        (["cs", "jacobi", TABLE], {"repvol.seifert", "repvol.ehn", "repvol.linalg", "repvol.jsj", "repvol.covers"}, None),
        (["covers", "merge", "--degrees", "2,4", "--m", "2"], set(), {"repvol", "repvol.cli", "repvol.exact", "repvol.covers"}),
        (["graph", "rw", "RATIO_FILE"], {"repvol.ehn", "repvol.liecs", "repvol.linalg", "repvol.covers"}, None),
        (["graph", "validate", GRAPH], {"repvol.ehn", "repvol.liecs", "repvol.linalg", "repvol.covers"}, None),
        (["cases", "motegi", "2", "3", "2", "5"], {"repvol.ehn", "repvol.liecs", "repvol.linalg", "repvol.covers"}, None),
    ],
    ids=["seifert", "cs", "cs_jacobi", "covers", "graph_rw", "graph_validate", "cases"],
)
def test_command_family_loads_only_its_modules(tmp_path, bare, argv, absent, only):
    ratio = tmp_path / "ratios.json"
    ratio.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b", "2"]]}))
    argv = [str(ratio) if arg == "RATIO_FILE" else arg for arg in argv]
    loaded = _loaded(
        "import contextlib, io\n"
        "from repvol import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )
    assert "repvol.cli" in loaded
    assert not loaded & absent
    assert "dataclasses" not in loaded
    assert "inspect" in bare or "inspect" not in loaded
    if only is not None:
        assert loaded - bare == only


def test_only_cli_main_prints():
    # handlers return their lines and main writes them, so every command
    # computes all of its output before any of it is printed
    found = []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        allowed = set()
        if path.name == "cli.py":
            main = next(node for node in tree.body if getattr(node, "name", None) == "main")
            allowed = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" and id(node) not in allowed:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_catch_all_and_one_over_long_writer():
    # a LookupError, ArithmeticError or Exception caught in the library
    # would report a fault of repvol's own as malformed input: only
    # cli.main catches Exception, and says "internal error"; and one
    # f-string writes the refusal of an integer too long to read
    caught, writers = [], []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        allowed = set()
        if path.name == "cli.py":
            main = next(node for node in tree.body if getattr(node, "name", None) == "main")
            allowed = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler):
                names = {getattr(n, "id", None) for n in ast.walk(node.type)} if node.type else {"BaseException"}
                if names & {"LookupError", "ArithmeticError"} or (names & {"Exception", "BaseException"} and id(node) not in allowed):
                    caught.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.JoinedStr):
                if any(isinstance(part, ast.Constant) and "is too long to read" in part.value for part in node.values):
                    writers.append(f"{path.name}:{node.lineno}")
    assert caught == []
    assert len(writers) == 1, writers


def test_caller_rationals_are_read_by_one_reader():
    # Fraction("1e999999999") computes 10**999999999: a value from outside
    # is read by exact._as_fraction, or a document's by exact._rational,
    # which both refuse exponent forms
    found = []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        allowed = set()
        if path.name == "exact.py":
            for node in tree.body:
                if getattr(node, "name", None) in ("_as_fraction", "_rational"):
                    allowed.update(id(inner) for inner in ast.walk(node))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "Fraction"
                and len(node.args) == 1
                and not node.keywords
                and isinstance(node.args[0], (ast.Name, ast.Attribute))
                and id(node) not in allowed
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _owners(tree):
    """The name of the top-level function or class around each node, by id."""
    return {id(inner): node.name for node in tree.body if hasattr(node, "name") for inner in ast.walk(node)}


def test_one_exponent_test_and_one_whole_list_writer():
    # every string rational passes the one exponent test, in
    # exact._rational; and exact._rows alone writes the refusal of a whole
    # list value that is no list, its callers passing the refusal's text
    # (an f-string's constant parts included), so no loader guards, counts
    # or walks a value before it
    exponent, texts, written, guards = [], [], [], []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        owners = _owners(tree)
        # the refusals handed to _rows, directly or through a module constant
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_rows"]
        passed = {id(part) for call in calls for arg in call.args[1:2] for part in ast.walk(arg)}
        names = {arg.id for call in calls for arg in call.args[1:2] if isinstance(arg, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in names:
                passed.add(id(node.value))
        for node in ast.walk(tree):
            where = f"{path.name}:{owners.get(id(node))}"
            if isinstance(node, ast.Compare) and isinstance(node.left, ast.Constant) and node.left.value in ("e", "E"):
                exponent.append(where)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(text in node.value for text in ("are not all [", "is not a list of ", "expected a list of")):
                    (texts if id(node) in passed else written).append(f"{where}: {node.value}")
            elif isinstance(node, ast.IfExp) and getattr(node.test, "func", None) is not None:
                if getattr(node.test.func, "id", None) == "isinstance" and ast.unparse(node.test.args[1]) == "(list, tuple)":
                    guards.append(where)
    assert exponent == ["exact.py:_rational"]
    assert written == [] and guards == []
    # slots, pairs, both fillings, killed_slopes, pieces, edges, assignments, liecs' basis, brackets,
    # entries, terms and matrix, covers' degrees, k and l, the entries of a document list, and the
    # basis and brackets of an algebra document and the vertices and edges of a ratio graph
    assert len(texts) == 21, texts


def test_one_row_test_and_one_iterable_reader():
    # exact._is_row and _is_pair alone test for a list or tuple, and
    # exact._each alone calls iter(): every other reader of a collection
    # goes through _rows or _each
    rows, iters = [], []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        owners = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                where = f"{path.name}:{owners.get(id(node))}"
                if node.func.id == "isinstance" and ast.unparse(node.args[1]) in ("(list, tuple)", "list"):
                    rows.append(where)
                elif node.func.id == "iter":
                    iters.append(where)
    assert rows == ["exact.py:_is_row", "exact.py:_is_pair"]
    assert iters == ["exact.py:_each"]


def test_one_coefficient_reader_and_one_fold_in_ehn():
    # ehn reads a coefficient by _as_fraction in one place, _offsets, which
    # reads its roots before any fold (foliation_exists reads slopes by it
    # too); only _fold folds a fibre in; only _indexed, called by
    # witnesses_for alone, builds the class index its walk and its count
    # read and writes it into the table, and neither _fold, volume_set nor
    # spectrum_contains reaches it, since spectrum_contains folds thousands
    # of small spaces a graphs pass and never walks; and the witness budget
    # counts the walk's own tree, so no second fold of residue tuples remains
    tree = ast.parse((SRC / "repvol" / "ehn.py").read_text("utf-8"))
    owners = _owners(tree)
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def users(name):
        return sorted(owners.get(id(node)) for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id == name)

    def reached(caller):
        # the functions of ehn that caller calls or names, transitively
        seen, todo = set(), [caller]
        while todo:
            if (name := todo.pop()) not in seen:
                seen.add(name)
                todo += [node.id for node in ast.walk(defs[name]) if isinstance(node, ast.Name) and node.id in defs]
        return seen

    assert users("_as_fraction") == ["_offsets", "foliation_exists"]
    assert users("_add_fibre") == ["_fold"]
    assert users("_classes") == ["_indexed"]
    assert users("_indexed") == ["witnesses_for"]
    writes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)]
    assert sorted(f"{owners.get(id(node))}: {node.attr}" for node in writes) == ["_fold: layers", "_indexed: index"]
    for caller in ("_fold", "volume_set", "spectrum_contains"):
        assert not reached(caller) & {"_indexed", "_classes"}, caller
    assert {"_indexed", "_classes"} <= reached("witnesses_for")
    found = []
    for path in sorted((SRC / "repvol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if "_witness_count" in (getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_one_walk_of_a_graph_spec():
    # jsj._spec_problems walks a spec's pieces and edges once and returns
    # the tables additivity needs, so neither additivity_sum, _cover_problem
    # nor GraphManifoldSpec.piece reads spec.pieces or spec.edges, in a loop
    # or otherwise
    tree = ast.parse((SRC / "repvol" / "jsj.py").read_text("utf-8"))
    spec = next(node for node in tree.body if getattr(node, "name", None) == "GraphManifoldSpec")
    readers = [node for node in tree.body if getattr(node, "name", None) in ("additivity_sum", "_cover_problem")]
    readers += [node for node in spec.body if getattr(node, "name", None) == "piece"]
    assert len(readers) == 3
    found = []
    for node in readers:
        for inner in ast.walk(node):
            if isinstance(inner, ast.Attribute) and inner.attr in ("pieces", "edges"):
                found.append(f"{node.name}:{inner.lineno}: {ast.unparse(inner)}")
    assert found == []


def test_each_edge_built_once_and_each_assignment_read_once():
    # the loader reads an endpoint's names before it builds the edge, so
    # _edge_from_json builds one Edge and no stand-in; and additivity_sum
    # reads its assignments by the whole-list rule, so no later branch
    # meets a row of another kind
    tree = ast.parse((SRC / "repvol" / "jsj.py").read_text("utf-8"))
    defs = {node.name: list(ast.walk(node)) for node in tree.body if isinstance(node, ast.FunctionDef)}

    def called(name):
        return [getattr(node.func, "id", None) for node in defs[name] if isinstance(node, ast.Call)]

    assert called("_edge_from_json").count("Edge") == 1
    assert not any(isinstance(node, ast.Try) for node in defs["_edge_from_json"])
    texts = [node.value for node in defs["additivity_sum"] if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert not [text for text in texts if "unknown assignment" in text]
    assert "_rows" in called("additivity_sum")


def test_int_reads_only_text():
    # an integer is an int, taken as given by exact._integer; int() is
    # called only by the three readers of text: the JSON decoder's numbers,
    # option values and the integers of a Seifert symbol
    found = []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        owners = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int":
                found.append(f"{path.name}:{owners.get(id(node))}")
    assert found == ["cli.py:_int_arg", "exact.py:_read_int", "seifert.py:_number"]


def test_every_refusal_is_a_refusal_and_only_main_catches_one():
    # repvol raises no builtin ValueError or TypeError itself: each refusal
    # is an exact.Refusal (a ShapeRefusal for a wrong type or shape), and
    # cli.main is the one handler of a Refusal, so exit 1 means one
    raised, handlers = [], []
    for path in sorted((SRC / "repvol").glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        owners = _owners(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(exc, "id", None) in ("ValueError", "TypeError"):
                    raised.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                if "Refusal" in (getattr(name, "id", None) for name in ast.walk(node.type)):
                    handlers.append(f"{path.name}:{owners.get(id(node))}")
                    # any other handler passes the refusal on: with its position, or as a usage error
                    assert owners.get(id(node)) == "main" or isinstance(node.body[-1], ast.Raise), handlers[-1]
    assert raised == []
    assert handlers == ["cli.py:_fraction_arg", "cli.py:main", "seifert.py:parse_seifert"]


def test_no_builtin_handler_guards_a_call_into_repvol():
    # a builtin ValueError or TypeError raised inside repvol is a bug, not
    # the input's fault, so no except naming either guards a try body that
    # calls a function or class repvol defines, or passes one to a call, as
    # json.load(..., parse_int=_read_int) does: a refusal is caught by its
    # own class, and such a handler guards only builtin calls (int, hash, ...)
    trees = {path.name: ast.parse(path.read_text("utf-8"), str(path)) for path in sorted((SRC / "repvol").glob("*.py"))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found, guarded = [], 0
    for name, tree in trees.items():
        owners = _owners(tree)
        for node in ast.walk(tree):
            caught = [getattr(n, "id", None) for h in getattr(node, "handlers", ()) if h.type for n in ast.walk(h.type)]
            if isinstance(node, ast.Try) and {"ValueError", "TypeError"} & set(caught):
                guarded += 1
                calls = [call for stmt in node.body for call in ast.walk(stmt) if isinstance(call, ast.Call)]
                called = [func for call in calls for func in (call.func, *call.args, *(kw.value for kw in call.keywords))]
                for func in called:
                    if (getattr(func, "id", None) or getattr(func, "attr", None)) in defined:
                        found.append(f"{name}:{owners.get(id(node))}: {ast.unparse(func)}")
    assert guarded and found == []


def test_no_module_asserts_or_raises_assertion_error():
    # an AssertionError would escape cli.main as a traceback, which the
    # exit contract forbids, and ``python -O`` drops an ``assert``
    found = []
    for path in sorted((SRC / "repvol").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            named = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.Assert) or named == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
