"""What one job of each workload runs, and the check of its output.

``RUN[workload](job)`` answers one user-level question through the public
API of ``repvol`` and returns its raw outputs; ``CliRunner`` does the same
with one ``python -m repvol.cli`` process.  ``CHECK[workload](job, outputs)``
returns a list of problems, empty when every output agrees with an
independent expectation.  A check runs right after its job, outside the
job's latency.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
from fractions import Fraction

import repvol
import repvol.cli

# ---------------------------------------------------------------- spectra

# volume_set_bruteforce walks (2B + 1)^p tuples; jobs up to this many are
# cross-checked against it.
ORACLE_TUPLES = 10_000


def run_spectra(job):
    inv = repvol.parse_seifert(job["notation"])
    spectrum = repvol.volume_set(inv)
    top = repvol.seifert_volume_max(inv)
    at_max = repvol.witnesses_for(inv, top)
    at_coeff = repvol.witnesses_for(inv, job["coeff"])
    return inv, spectrum, top, at_max, at_coeff


def _witness_problems(job, w, coeff):
    g, pairs = job["genus"], job["pairs"]
    e = sum((Fraction(b, a) for a, b in pairs), Fraction(0))
    slopes = [Fraction(n, a) for n, (a, _) in zip(w.n_values, pairs)]
    total = sum(slopes, Fraction(0)) - w.n
    zeta = total / e
    bad = []
    if sum(math.floor(s) for s in slopes) - w.n > 2 * g - 2:
        bad.append("floor inequality")
    if sum(math.ceil(s) for s in slopes) - w.n < 2 - 2 * g:
        bad.append("ceiling inequality")
    if w.zeta != zeta:
        bad.append("zeta")
    if tuple(w.z_values) != tuple(s - Fraction(b, a) * zeta for s, (a, b) in zip(slopes, pairs)):
        bad.append("z-values")
    if w.coeff != coeff or total * total / abs(e) != coeff:
        bad.append("coefficient")
    return [f"witness {w.n_values},{w.n}: {b}" for b in bad]


def check_spectra(job, outputs):
    inv, spectrum, top, at_max, at_coeff = outputs
    g, pairs = job["genus"], job["pairs"]
    problems = []
    if inv.genus != g or inv.sorted_pairs() != tuple(sorted(pairs)):
        problems.append("parse_seifert: wrong invariants")
    if any(x >= y for x, y in zip(spectrum, spectrum[1:])) or not spectrum or spectrum[0] < 0:
        problems.append("volume_set: not ascending, distinct and nonnegative")
    e = sum((Fraction(b, a) for a, b in pairs), Fraction(0))
    chi = 2 - 2 * g - sum((Fraction(a - 1, a) for a, _ in pairs), Fraction(0))
    if top != chi * chi / abs(e) or (spectrum and spectrum[-1] != top):
        problems.append(f"max {top} != chi^2/|e| = {chi * chi / abs(e)}")
    coeff = job["coeff"]
    i = bisect.bisect_left(spectrum, coeff)
    if i == len(spectrum) or spectrum[i] != coeff:
        problems.append(f"planted coefficient {coeff} missing from the spectrum")
    if not at_max:
        problems.append("no witness for the maximum")
    for w in at_max:
        problems += _witness_problems(job, w, top)
    for w in at_coeff:
        problems += _witness_problems(job, w, coeff)
    if job["planted"] not in [(tuple(w.n_values), w.n) for w in at_coeff]:
        problems.append("planted residue tuple missing from the witnesses")
    bound = 2 + 2 * g + sum(a for a, _ in pairs)
    if (2 * bound + 1) ** len(pairs) <= ORACLE_TUPLES and repvol.volume_set_bruteforce(inv) != spectrum:
        problems.append("volume_set disagrees with volume_set_bruteforce")
    return problems


# ---------------------------------------------------------------- forms


def _basis(n):
    return tuple(f"e{i}" for i in range(n))


def run_forms(job):
    n = job["dim"]
    table = tuple(
        ((j, k), tuple(vec.get(i, 0) for i in range(n))) for (j, k), vec in sorted(job["brackets"].items())
    )
    try:
        spec = repvol.LieAlgebraSpec(basis=_basis(n), brackets=table)
    except repvol.JacobiViolation as violation:
        return ("violation", violation.triple)
    gram = repvol.GramForm(job["gram"])
    form = repvol.cs_three_form(spec, gram)
    beta = repvol.ExteriorForm(n, 2, job["beta"])
    target = form - repvol.d(spec, beta)
    primitive = repvol.exactness_split(spec, form, target)
    return ("built", spec, form, target, primitive)


def check_forms(job, outputs):
    names = _basis(job["dim"])
    if "violation" in job:
        want = tuple(names[i] for i in job["violation"])
        if outputs[0] != "violation" or outputs[1] != want:
            return [f"Jacobi: expected violation at {want}, got {outputs[:2]}"]
        return []
    if outputs[0] != "built":
        return [f"Jacobi: unexpected violation at {outputs[1]}"]
    _, spec, form, target, primitive = outputs
    problems = []
    got = {}
    for indices, c in form.terms:
        if c.pi_power or c.coeff.im:
            problems.append(f"T coefficient at {indices} is not a plain rational: {c}")
        got[indices] = c.coeff.re
    if got != job["expected_T"]:
        problems.append("T differs from the sum of its block volume forms")
    if primitive is None:
        problems.append("exactness_split found no primitive for T - target = d(beta)")
    elif repvol.d(spec, primitive) != form - target:
        problems.append("d(primitive) != T - target")
    return problems


# ---------------------------------------------------------------- graphs


def run_graphs(job):
    if "text" in job:
        document = repvol.load_graph_document(json.loads(job["text"]))
        return [
            (repvol.validate_spec(spec), repvol.additivity_sum(spec, assignments))
            for _, spec, assignments in document.cases
        ]
    return repvol.rw_consistency(range(job["vertices"]), job["edges"])


def _cycle_problems(job, result):
    if result.witness_cycle is None or result.product is None:
        return ["inconsistent result without a witness cycle"]
    cycle = result.witness_cycle
    on_cycle = {u for u, _, _ in cycle}
    edges = {}
    for u, v, r in job["edges"]:
        if u in on_cycle and v in on_cycle:
            edges.setdefault((u, v), set()).add(r)
            edges.setdefault((v, u), set()).add(1 / r)
    problems = []
    product = Fraction(1)
    for (u, v, r), (nxt, _, _) in zip(cycle, cycle[1:] + cycle[:1]):
        if v != nxt:
            problems.append(f"witness cycle breaks at {u}->{v}")
        if r not in edges.get((u, v), ()):
            problems.append(f"witness step {u}->{v}[{r}] is not an edge")
        product *= r
    if product != result.product or product == 1:
        problems.append(f"witness cycle product {product}, reported {result.product}")
    return problems


def check_graphs(job, outputs):
    if "text" not in job:
        if outputs.consistent != job["consistent"]:
            return [f"rw_consistency says {outputs.consistent}, planted truth {job['consistent']}"]
        return [] if outputs.consistent else _cycle_problems(job, outputs)
    if len(outputs) != 1:
        return [f"expected one case, got {len(outputs)}"]
    (problems, total), = outputs
    kind, value = job["total"]
    if problems:
        return [f"validate_spec: {problems[:3]}"]
    if kind == "exact":
        ok = isinstance(total, repvol.ExactVolume) and total.coeff == value
    else:
        ok = isinstance(total, repvol.NumericVolume) and math.isclose(total.value, value, rel_tol=1e-12)
    return [] if ok else [f"additivity_sum {total} != generator sum {value}"]


# ---------------------------------------------------------------- cli


def cli_env(src: str) -> dict:
    """The environment with ``src`` first on PYTHONPATH: no install needed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return env


class CliRunner:
    """Runs one ``python -m repvol.cli`` process per job and returns
    (exit code, stdout, stderr).  ``peak_kib`` is the largest peak RSS of
    the processes run so far."""

    def __init__(self, root: str, work: str) -> None:
        self.root = root
        self.env = cli_env(os.path.join(root, "src"))
        self.peak_kib = 0
        self.out = open(os.path.join(work, "cli.stdout"), "w+b")
        self.err = open(os.path.join(work, "cli.stderr"), "w+b")

    def close(self) -> None:
        self.out.close()
        self.err.close()

    def __call__(self, job):
        for handle in (self.out, self.err):
            handle.seek(0)
            handle.truncate()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repvol.cli", *job["argv"]],
            cwd=self.root, env=self.env, stdin=subprocess.DEVNULL, stdout=self.out, stderr=self.err,
        )
        # wait4 reaps the child and reports its own peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        self.out.seek(0)
        self.err.seek(0)
        return proc.returncode, self.out.read().decode(), self.err.read().decode()


def cli_in_process(argv):
    """Exit code and stdout of ``repvol.cli.main`` run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = repvol.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_cli(job, outputs):
    code, stdout, stderr = outputs
    problems = []
    if code != job["expect"]:
        problems.append(f"exit code {code}, expected {job['expect']}: {stderr.strip()[:200]}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if (code, stdout) != cli_in_process(job["argv"]):
        problems.append("stdout or exit code differs from the in-process result")
    return problems


RUN = {"spectra": run_spectra, "forms": run_forms, "graphs": run_graphs}
CHECK = {"spectra": check_spectra, "forms": check_forms, "graphs": check_graphs, "cli": check_cli}


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
