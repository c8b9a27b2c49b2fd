"""repvol benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage (from the repository root; stdlib only, nothing to install):

    python3 bench/run.py --workload spectra --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 1          # every workload, both modes

Load model: a closed loop with one client, one process and one thread;
the next job starts when the previous one returns.  A job is one
user-level question answered end to end (see ``jobs.py``).  A run makes
whole passes over the workload's fixed, seeded job set, as many as fit
``--seconds`` at the nominal pass length below (at least one), checks
each output right after its job, outside the job's latency, and prints a
report.  Throughput counts only the time inside jobs.  In-process job
times and set-up times are scaled to a steady host by a fixed stdlib loop
timed between jobs (``reference_loop``); the raw wall figures are printed
beside them.  The report's last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

``--trace 1`` runs one untraced pass, then one pass with spans around
every public function of the package (``spans.py``), then, if that pass
entered liecs or linalg, one pass counting scalar constructions, and
probes interpreter start-up and import time.  Spans are written to
``.bench_run/`` when the run ends.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
DATA = os.path.join(SRC, "repvol", "data")

WORKLOADS = ("spectra", "forms", "graphs", "cli")
# Length of one pass on the reference machine (see provenance.json); a
# run makes max(1, round(seconds / this)) passes, so passes never get cut.
NOMINAL_PASS_S = {"spectra": 40, "forms": 15, "graphs": 15, "cli": 15}
SETUP_SAMPLES = 3
PROBE_SAMPLES = 5
MODULES = ("repvol", "exact", "seifert", "ehn", "linalg", "liecs", "jsj", "covers", "cli")
FAMILIES = ("seifert", "cs", "graph", "covers", "cases")

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
# name -> unit; "computed" counts come from closed forms over the inputs.
PER_LAYER = {
    "seifert.parse_seifert.calls": "count",
    "seifert.parse_seifert.self_ms": "ms",
    "ehn.volume_set.calls": "count",
    "ehn.volume_set.self_ms": "ms",
    "ehn.seifert_volume_max.self_ms": "ms",
    "ehn.witnesses_for.calls": "count",
    "ehn.witnesses_for.self_ms": "ms",
    "ehn.witnesses": "count",
    "ehn.spectrum_values": "count",
    "ehn.residue_tuples": "count",
    "ehn.useful_ratio": "ratio",
    "liecs.validate_jacobi.self_ms": "ms",
    "liecs.jacobi_triples": "count",
    "liecs.is_ad_invariant.self_ms": "ms",
    "liecs.cs_three_form.self_ms": "ms",
    "liecs.d.calls": "count",
    "liecs.d.self_ms": "ms",
    "liecs.exactness_split.self_ms": "ms",
    "liecs.form_terms": "count",
    "linalg.solve.calls": "count",
    "linalg.solve.self_ms": "ms",
    "linalg.system_cells": "count",
    "exact.pi_scalars_built": "count",
    "exact.gaussians_built": "count",
    "jsj.load_graph_document.self_ms": "ms",
    "jsj.validate_spec.self_ms": "ms",
    "jsj.additivity_sum.self_ms": "ms",
    "jsj.rw_consistency.self_ms": "ms",
    "jsj.pieces": "count",
    "jsj.rw_edges": "count",
    "jsj.witness_cycle_len": "count",
    **{f"{layer}.self_ms": "ms" for layer in ("seifert", "ehn", "liecs", "linalg", "exact", "jsj", "covers", "cli")},
    "bench.self_ms": "ms",
    "cli.interp_start_ms": "ms",
    "cli.import_ms": "ms",
    **{f"cli.import.{m}_ms": "ms" for m in MODULES},
    **{f"cli.{f}_ms": "ms" for f in FAMILIES},
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}
COMPUTED = ("ehn.residue_tuples", "liecs.jacobi_triples", "linalg.system_cells")


def _median_ms(values):
    return statistics.median(values) * 1000 if values else 0.0


def _tail(latencies):
    """Value, percentile and count beyond, at the highest percentile with
    at least ten jobs beyond it (the largest value when there are fewer
    than eleven jobs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(0, n - 11)
    return ordered[rank], 100.0 * (rank + 1) / n, n - rank - 1


# ---------------------------------------------------------------- host speed


def reference_loop() -> float:
    """Seconds taken by a fixed stdlib loop of Fraction arithmetic and dict
    stores, the same kind of work as the package's inner loops.

    The host's speed swings by up to 1.8x within a minute (cores shared
    with other tenants), so in-process job times and set-up times are
    scaled to a steady host: raw seconds * REFERENCE_S / (this loop's time
    around them).  The loop is not the package's code, so a change to the
    package moves the scaled times as it moves the raw ones; the raw wall
    times are printed beside them."""
    t0 = time.perf_counter()
    table = {}
    for i in range(1, 120):
        f = Fraction(i, 7) * Fraction(3, i + 2)
        table[(i, f.numerator % 11)] = f
    return time.perf_counter() - t0


# The reference loop's time on the reference machine (0.4-0.75 ms there).
REFERENCE_S = 0.0005
# The host's speed during a job is the median reference time within
# max(REFERENCE_WINDOW_S, job length) of the job's midpoint: short jobs
# follow the host's swings closely, long ones get the average over their
# own length rather than two samples at their ends.
REFERENCE_WINDOW_S = 0.25


def _scaled(elapsed: float, before: float, after: float) -> float:
    return elapsed * REFERENCE_S * 2 / (before + after)


def _scale_by_window(spans, marks):
    """Scaled lengths of ``spans`` [(start, end)] given reference samples
    ``marks`` [(time, seconds)] sorted by time."""
    times = [t for t, _ in marks]
    out = []
    for start, end in spans:
        mid, half = (start + end) / 2, max(REFERENCE_WINDOW_S, end - start)
        lo, hi = bisect.bisect_left(times, mid - half), bisect.bisect_right(times, mid + half)
        out.append((end - start) * REFERENCE_S / statistics.median(r for _, r in marks[lo:hi]))
    return out


# ---------------------------------------------------------------- set-up


_SETUP_CHILD = """
import sys, time
sys.path[:0] = [{bench!r}, {src!r}]
import inputs
from run import reference_loop
before = reference_loop()
t0 = time.perf_counter()
if {workload!r} == "cli":
    inputs.cli({seed}, {work!r}, {data!r})
else:
    import repvol
    getattr(inputs, {workload!r})({seed})
elapsed = time.perf_counter() - t0
print(elapsed, before, reference_loop())
"""


def setup_seconds(workload: str, seed: int, cli_dir: str) -> list[tuple[float, float]]:
    """Set-up time in fresh interpreters: import of ``repvol`` plus input
    generation (for cli: writing its input files), once per sample, as
    (scaled, raw) seconds."""
    code = _SETUP_CHILD.format(bench=BENCH, src=SRC, workload=workload, seed=seed, work=cli_dir, data=DATA)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        elapsed, before, after = map(float, done.stdout.split()[-3:])
        samples.append((_scaled(elapsed, before, after), elapsed))
    return samples


# ---------------------------------------------------------------- passes


def timed_pass(jobs, run, check=None, tracer=None):
    """Run every job once, in order; returns (scaled latencies, raw
    latencies, problems), latencies in seconds.

    ``check`` runs right after each job, outside its latency, and the
    output is then dropped, so outputs never pile up on the heap and
    lengthen garbage collections inside later jobs.  Problems are
    (job index, label, messages) for jobs that raised or failed a check."""
    spans, marks, problems = [], [], []
    clock = time.perf_counter
    marks.append((clock(), reference_loop()))
    for index, job in enumerate(jobs):
        found = []
        t0 = clock()
        try:
            if tracer is None:
                value = run(job)
            else:
                tracer.job = index
                with tracer.span(_job_span(job)):
                    value = run(job)
        except Exception as exc:  # a job that raises is counted as failed
            found = [f"raised {type(exc).__name__}: {exc}"]
        t1 = clock()
        spans.append((t0, t1))
        marks.append((t1, reference_loop()))
        if not found and check is not None:
            try:
                found = check(job, value)
            except Exception as exc:  # output of an unexpected shape
                found = [f"check raised {type(exc).__name__}: {exc}"]
        value = None
        if found:
            problems.append((index, job["label"], found))
    return _scale_by_window(spans, marks), [end - start for start, end in spans], problems


def _job_span(job):
    # A cli job is a whole CLI process, the cli layer as the harness sees it.
    return f"cli.{job['kind']}" if "argv" in job else "bench.job"


# ---------------------------------------------------------------- probes


def _wall(argv, env=None):
    t0 = time.perf_counter()
    subprocess.run(argv, env=env, check=True, capture_output=True)
    return time.perf_counter() - t0


def cli_probes(env) -> dict[str, float]:
    """Bare interpreter start-up, import of ``repvol.cli`` beyond it, and
    per-module import self time from ``python -X importtime``."""
    bare = [_wall([sys.executable, "-c", "pass"]) for _ in range(PROBE_SAMPLES)]
    full = [_wall([sys.executable, "-c", "import repvol.cli"], env) for _ in range(PROBE_SAMPLES)]
    per_module = defaultdict(list)
    for _ in range(PROBE_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import repvol.cli"],
            env=env, check=True, capture_output=True, text=True,
        )
        for line in done.stderr.splitlines():
            m = re.match(r"import time:\s*(\d+)\s*\|\s*\d+\s*\|\s*(\S+)", line)
            if m and (m.group(2) == "repvol" or m.group(2).startswith("repvol.")):
                per_module[m.group(2).split(".")[-1]].append(int(m.group(1)) / 1e6)
    out = {
        "cli.interp_start_ms": _median_ms(bare),
        "cli.import_ms": _median_ms(full) - _median_ms(bare),
    }
    for module in MODULES:
        out[f"cli.import.{module}_ms"] = _median_ms(per_module[module])
    return out


# ---------------------------------------------------------------- reports


def environment() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    return (
        f"env python {platform.python_version()} nproc {os.cpu_count()} cpu {cpu!r}; "
        "machine untuned: no cache drops, no CPU pinning, no frequency settings"
    )


def print_rungs(jobs, latencies):
    """Median latency per ladder rung or mix class, next to its computed
    work counts, so growth along each ladder is visible."""
    by_label = defaultdict(list)
    work = {}
    for job, lat in zip(jobs * (len(latencies) // len(jobs)), latencies):
        by_label[(job["kind"], job["label"])].append(lat)
        if "work" in job:
            work.setdefault((job["kind"], job["label"]), Counter()).update(job["work"])
    for key in sorted(by_label, key=lambda k: statistics.median(by_label[k])):
        lats = by_label[key]
        counts = " ".join(f"{k}={v // len(lats)}" for k, v in sorted(work.get(key, {}).items()))
        print(f"rung {key[0]:<9} {key[1]:<24} jobs {len(lats):>3}  median {_median_ms(lats):10.2f} ms  {counts}")


def print_shares(jobs):
    kinds = Counter(job["kind"] for job in jobs)
    shares = ", ".join(f"{k} {n} ({100 * n / len(jobs):.1f}%)" for k, n in kinds.most_common())
    print(f"shares of {len(jobs)} jobs per pass: {shares}")


# ---------------------------------------------------------------- main


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    os.makedirs(WORK, exist_ok=True)
    cli_dir = os.path.join(WORK, f"cli-inputs-{seed}")
    setup = setup_seconds(workload, seed, cli_dir)
    sys.path[:0] = [SRC]
    import inputs
    import jobs as job_defs
    import spans as trace_mod

    if workload == "cli":
        jobs = inputs.cli(seed, cli_dir, DATA)
        runner = job_defs.CliRunner(ROOT, WORK)
        runner(jobs[0])  # warm-up: byte-code caches of a fresh checkout
    else:
        jobs = getattr(inputs, workload)(seed)
        runner = job_defs.RUN[workload]
    check = job_defs.CHECK[workload]
    passes = 1 if trace else max(1, round(seconds / NOMINAL_PASS_S[workload]))
    print(f"workload {workload} seed {seed} passes {passes} trace {int(trace)}")
    print(environment())
    print("load: closed loop, 1 client, 1 process, 1 thread")
    print_shares(jobs)

    # The inputs are set-up state: keep the collector from rescanning them
    # inside every timed job.
    gc.collect()
    gc.freeze()
    # A CLI job runs in a child process, on whichever CPU the child gets,
    # which the reference loop in this process does not track: its times
    # stay raw.
    pick = 1 if workload == "cli" else 0
    latencies, raw, problems = [], [], []
    for _ in range(passes):
        lats = timed_pass(jobs, runner, check)
        latencies += lats[pick]
        raw += lats[1]
        problems += lats[2]
    attempted = len(latencies)
    peak = runner.peak_kib / 1024 if workload == "cli" else job_defs.peak_rss_mib()

    metrics = {}
    if trace:
        tracer = trace_mod.Tracer()
        undo = trace_mod.install(tracer)
        try:
            # Traced outputs are not checked, so no check adds spans; a
            # traced job that raises still counts as failed.
            lats = timed_pass(jobs, runner, tracer=tracer)
            traced, traced_raw, found = lats[pick], lats[1], lats[2]
        finally:
            trace_mod.uninstall(undo)
        attempted += len(traced)
        problems += found
        # Only liecs and linalg build PiScalar and GaussianRational values;
        # a pass that never entered them built none, so it is not repeated.
        if any(s[0].startswith(("liecs.", "linalg.")) for s in tracer.spans):
            undo = trace_mod.count_scalars(tracer.counts)
            try:
                timed_pass(jobs, runner)
            finally:
                trace_mod.uninstall(undo)
        metrics = layer_metrics(jobs, tracer, sum(latencies), traced, sum(traced_raw))
        metrics.update(cli_probes(job_defs.cli_env(SRC)))
        spans_path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(spans_path, ROOT)}")
    if workload == "cli":
        runner.close()

    failed = len(problems)
    for index, label, found in problems[:10]:
        print(f"FAILED job {index} ({label}): {found[:3]}", file=sys.stderr)

    print_rungs(jobs, latencies)
    tail, pct, beyond = _tail(latencies)
    e2e = {
        "setup_s": statistics.median(s for s, _ in setup),
        "jobs_per_s": len(latencies) / sum(latencies),
        "job_p50_ms": _median_ms(latencies),
        "job_tail_ms": tail * 1000,
        "peak_rss_mib": peak,
    }
    print(f"setup samples, scaled (raw) s: {', '.join(f'{s:.4f} ({r:.4f})' for s, r in setup)}")
    print(
        f"raw wall: jobs_per_s {len(raw) / sum(raw):.6g}, job_p50_ms {_median_ms(raw):.6g}, "
        f"host speed factor {sum(raw) / sum(latencies):.3f} (raw / scaled time inside jobs)"
    )
    print(f"job_tail_ms is p{pct:.1f} of {len(latencies)} jobs, {beyond} jobs beyond it")
    print("wait: none; one client and nothing in parallel, so no layer waits on another")
    for name, value in e2e.items():
        print(f"metric {name} {value:.6g} {END_TO_END[name]}")
    print(f"metric fail_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for name, value in metrics.items():
        note = " (computed)" if name in COMPUTED else ""
        print(f"layer {name} {value:.6g} {PER_LAYER[name]}{note}")
    chosen, units = (metrics, PER_LAYER) if trace else (e2e, END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": chosen[name], "unit": units[name]} for name in units},
    }


def layer_metrics(jobs, tracer, busy, traced, traced_wall):
    """Per-layer metrics of the traced pass: ``busy`` is the untraced
    pass's scaled time inside jobs, ``traced`` the traced pass's scaled
    latencies and ``traced_wall`` their raw sum, which the span self times
    (raw) account for."""
    selfs = tracer.self_times()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for name, (calls, ns) in selfs.items():
        layer = name.split(".")[0]
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls
        if f"{name}.self_ms" in metrics:
            metrics[f"{name}.self_ms"] = ns / 1e6
        if f"{layer}.self_ms" in metrics:
            metrics[f"{layer}.self_ms"] += ns / 1e6
    for name, value in tracer.counts.items():
        metrics[name] = value
    tuples = metrics["ehn.residue_tuples"]
    metrics["ehn.useful_ratio"] = metrics["ehn.spectrum_values"] / tuples if tuples else 0.0
    for family in FAMILIES:
        lats = [lat for job, lat in zip(jobs, traced) if job["kind"] == family]
        metrics[f"cli.{family}_ms"] = _median_ms(lats)
    metrics["trace.overhead_ratio"] = sum(traced) / busy
    metrics["trace.accounted_ratio"] = sum(ns for _, ns in selfs.values()) / 1e9 / traced_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload untraced, then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repvol", "__init__.py")):
        print(f"error: no repvol sources under {SRC}", file=sys.stderr)
        return 2
    if args.all:
        for workload in WORKLOADS:
            for trace in (False, True):
                cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(int(trace))]
                if subprocess.run(cmd).returncode != 0:
                    return 1
        return 0
    if args.workload is None:
        parser.error("--workload or --all is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
