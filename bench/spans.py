"""Span and counter recording around the public functions of ``repvol``.

Spans are recorded only from here: ``install`` replaces every public
function of each module, wherever a module of the package holds a
reference to it (so ``jsj.volume_set``, ``liecs.d`` and
``liecs.linalg.solve`` are covered), by a wrapper that records
(name, start, end, parent, job).  ``uninstall`` puts the originals back.
Nothing in ``repvol`` changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import time
from collections import Counter, defaultdict

from inputs import residue_tuples

LAYERS = ("seifert", "ehn", "liecs", "linalg", "exact", "jsj", "covers", "cli")


def _spectrum_count(counts, args, result):
    inv = args[0]
    counts["ehn.spectrum_values"] += len(result)
    counts["ehn.residue_tuples"] += residue_tuples(inv.genus, [a for a, _ in inv.pairs])


def _jacobi_count(counts, args, result):
    spec = args[0]
    triples = list(itertools.combinations(range(spec.dim), 3))
    if result is None:
        counts["liecs.jacobi_triples"] += len(triples)
    else:
        # The scan stops at the reported triple.
        counts["liecs.jacobi_triples"] += triples.index(tuple(map(spec.index_of, result.triple))) + 1


def _form_terms(counts, args, result):
    if result is not None:
        counts["liecs.form_terms"] += len(result.terms)


def _solve_cells(counts, args, result):
    matrix = args[0]
    counts["linalg.system_cells"] += len(matrix) * (len(matrix[0]) if matrix else 0)


def _witness_count(counts, args, result):
    counts["ehn.witnesses"] += len(result)


def _pieces(counts, args, result):
    counts["jsj.pieces"] += len(result.spec.pieces)


def _rw(counts, args, result):
    counts["jsj.rw_edges"] += len(args[1])
    if result.witness_cycle is not None:
        counts["jsj.witness_cycle_len"] += len(result.witness_cycle)


# Work counts taken at the boundary of a wrapped function, from its
# arguments and result; counts named "computed" in the report come from
# closed forms over the inputs, never from private functions.
COUNTERS = {
    "ehn.volume_set": _spectrum_count,
    "ehn.witnesses_for": _witness_count,
    "liecs.validate_jacobi": _jacobi_count,
    "liecs.cs_three_form": _form_terms,
    "liecs.exactness_split": _form_terms,
    "linalg.solve": _solve_cells,
    "jsj.load_graph_document": _pieces,
    "jsj.rw_consistency": _rw,
}


class Tracer:
    """In-memory span recorder.  ``job`` tags the spans of the current job."""

    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job = -1

    def wrap(self, name, fn, count=None):
        spans, stack, counts, clock = self.spans, self.stack, self.counts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.job)
                stack.pop()
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def span(self, name):
        """Context manager recording one span from the benchmark's own code."""
        return _Span(self, name)

    def self_times(self) -> dict[str, tuple[int, int]]:
        """name -> (calls, self ns): span time minus its child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for (name, start, end, _, _), inner in zip(self.spans, child):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start - inner
        return {name: (calls, ns) for name, (calls, ns) in out.items()}

    def write(self, path: str) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "job"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                handle,
                separators=(",", ":"),
            )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.parent = t.stack[-1] if t.stack else -1
        self.index = len(t.spans)
        t.spans.append(None)
        t.stack.append(self.index)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index] = (self.name, self.start, time.perf_counter_ns(), self.parent, t.job)
        t.stack.pop()
        return False


def _modules():
    return {name: importlib.import_module(f"repvol.{name}") for name in LAYERS}


def install(tracer: Tracer) -> list:
    """Wrap every public function of each layer; returns the undo list."""
    modules = _modules()
    wrappers = {}
    for layer, module in modules.items():
        public = getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])
        for attr in public:
            fn = getattr(module, attr)
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                label = f"{layer}.{attr}"
                wrappers[id(fn)] = tracer.wrap(label, fn, COUNTERS.get(label))
    undo = []
    for module in [importlib.import_module("repvol"), *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
                undo.append((module, attr, value))
    return undo


def uninstall(undo: list) -> None:
    for module, attr, value in undo:
        setattr(module, attr, value)


def count_scalars(counts: Counter) -> list:
    """Count GaussianRational and PiScalar constructions into ``counts``.

    Kept out of the span pass: a counting hook on every scalar would
    inflate the self times of the layers that build scalars."""
    exact = importlib.import_module("repvol.exact")
    undo = []
    for cls, key in ((exact.PiScalar, "exact.pi_scalars_built"), (exact.GaussianRational, "exact.gaussians_built")):
        original = cls.__post_init__

        def counted(self, _original=original, _key=key):
            counts[_key] += 1
            _original(self)

        cls.__post_init__ = counted
        undo.append((cls, "__post_init__", original))
    return undo
