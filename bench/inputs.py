"""Seeded inputs for the four benchmark workloads.

Stdlib only, and nothing here imports ``repvol``: set-up time is the
import of ``repvol`` plus this generation, so the two stay separate.
Every job is a dict with at least ``kind`` (its share label) and
``label`` (its ladder rung or mix class).  The same seed always gives the
same jobs.  Each job also carries the independent expectations its check
needs (planted residues, generator sums, planted truths, exit codes), and
``work``, the computed work counts of its inputs.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction

# ---------------------------------------------------------------- spectra

ROADMAP_SYMBOL = (2, ((4, 1), (4, 1), (4, 1), (6, 1), (6, 1), (6, 1), (12, 1)))
LADDER_K = range(2, 15)
# (3; 1/11, 1/13, 1/17): a coprime triple whose sumset is almost the
# whole residue product.  Twelve more genus-3 triples per pass are drawn
# from pairwise coprime moduli with product 950..1050, so they cost the
# same whatever the seed; ranked just below the largest rungs they put the
# tail (the 11th slowest job) inside a group of like jobs.
BIG_TRIPLE = (11, 13, 17)
COPRIME_TRIPLES = tuple(
    (a, b, c)
    for a in range(3, 11) for b in range(a + 1, 40) for c in range(b + 1, 120)
    if 950 <= a * b * c <= 1050 and math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1
)
TRIPLES_PER_PASS = 12
# Seeded mix: (residue-tuple band, jobs).  The bands are narrow, so the
# median lands inside the middle band whatever the seed.
MIX_BANDS = ((100, 400, 40), (800, 1000, 50), (1500, 2200, 30))


def residue_tuples(genus: int, moduli) -> int:
    """Tuples walked by one canonical enumeration: the sum over residue
    tuples r of the size of the m-range, 4g - 3 + #{i : r_i > 0}."""
    product = math.prod(moduli)
    nonzero = sum((a - 1) * (product // a) for a in moduli)
    return product * (4 * genus - 3) + nonzero


def _notation(genus: int, pairs) -> str:
    return f"({genus}; " + ", ".join(f"{b}/{a}" for a, b in pairs) + ")"


def _coprime_numerator(rng: random.Random, a: int) -> int:
    choices = [b for b in range(-a + 1, a) if b and math.gcd(a, abs(b)) == 1] or [1]
    return rng.choice(choices)


def _spectra_job(rng, kind, label, genus, moduli, numerators=None):
    if numerators is None:
        while True:
            numerators = [_coprime_numerator(rng, a) for a in moduli]
            if sum(Fraction(b, a) for a, b in zip(moduli, numerators)) != 0:
                break
    pairs = tuple(zip(moduli, numerators))
    e = sum((Fraction(b, a) for a, b in pairs), Fraction(0))
    # Plant one coefficient from the defining formula: residues r_i and an
    # offset m inside 2 - 2g <= m <= 2g - 2 + #{r_i > 0}.  The residues sit
    # at a_i - 1 except one seeded entry and m at the bottom of its range,
    # so the coefficient lies near the top of the spectrum, where few
    # tuples attain it: a random tuple lands where up to 2*10^4 witnesses
    # share one coefficient, and witness output would then vary by seed.
    residues = [a - 1 for a in moduli]
    pick = rng.randrange(len(moduli))
    residues[pick] = rng.randrange(moduli[pick])
    residues = tuple(residues)
    nonzero = sum(1 for r in residues if r)
    lo, hi = 2 - 2 * genus, 2 * genus - 2 + nonzero
    m = rng.randint(lo, min(lo + 1, hi))
    t = sum((Fraction(r, a) for r, a in zip(residues, moduli)), Fraction(0)) - m
    return {
        "kind": kind,
        "label": label,
        "genus": genus,
        "pairs": pairs,
        "notation": _notation(genus, pairs),
        "planted": (residues, m),
        "coeff": t * t / abs(e),
        "work": {"residue_tuples": residue_tuples(genus, moduli)},
    }


def _mix_job(rng, lo, hi, kind):
    while True:
        genus = rng.randint(1, 3)
        if kind == "repeated":
            a = rng.choice((2, 3, 4))
            count = rng.randint(3, 7)
            moduli = [a] * count
            if count < 7 and rng.random() < 0.5:
                moduli.append(rng.choice((2, 3)))
        else:
            moduli = rng.sample((2, 3, 5, 7, 11, 13, 17), rng.randint(2, 3))
        moduli.sort()
        if lo <= residue_tuples(genus, moduli) <= hi:
            return _spectra_job(rng, kind, f"mix{lo}-{hi}", genus, moduli)


def spectra(seed: int) -> list[dict]:
    rng = random.Random(f"spectra:{seed}")
    jobs = [
        _spectra_job(rng, "ladder", f"k={k}", 1, [2] * k, [1] * k) for k in LADDER_K
    ]
    jobs += [
        _mix_job(rng, lo, hi, ("repeated", "coprime")[i % 2])
        for lo, hi, count in MIX_BANDS
        for i in range(count)
    ]
    for triple in (BIG_TRIPLE, *rng.sample(COPRIME_TRIPLES, TRIPLES_PER_PASS)):
        jobs.append(_spectra_job(rng, "triple", "x".join(map(str, triple)), 3, list(triple)))
    genus, pairs = ROADMAP_SYMBOL
    jobs.append(
        _spectra_job(rng, "roadmap", "roadmap", genus, [a for a, _ in pairs], [b for _, b in pairs])
    )
    # Spread every class over the whole pass, so a slow spell of the
    # machine cannot land on one class alone.
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- forms

# sl2 on X, Y, Z: [X,Y] = -2Y, [X,Z] = 2Z, [Y,Z] = -X, with the trace form.
SL2_BRACKETS = {(0, 1): {1: -2}, (0, 2): {2: 2}, (1, 2): {0: -1}}
SL2_GRAM = ((2, 0, 0), (0, 0, 1), (0, 1, 0))
# Four-dimensional isometry algebra on X, Y, Z, W with R = Tr + t1 t2.
ISO_BRACKETS = {
    (0, 1): {1: -2}, (0, 2): {2: 2}, (0, 3): {1: 2, 2: 2},
    (1, 2): {0: -1}, (1, 3): {0: -1}, (2, 3): {0: -1},
}
ISO_GRAM = ((2, 0, 0, 0), (0, 0, 1, 1), (0, 1, 0, -1), (0, 1, -1, -1))
# The Chern-Simons 3-form of each block with its unit Gram form, in the
# block's own basis (sl2: (2/3) vol; iso-sl2r: the decomposition pinned
# by the package's golden tests).
BLOCK_T = {
    "sl2": {(0, 1, 2): Fraction(2, 3)},
    "iso": {(0, 1, 2): Fraction(2, 3), (0, 1, 3): Fraction(2, 3), (0, 2, 3): Fraction(2, 3)},
}
BLOCKS = {"sl2": (3, SL2_BRACKETS, SL2_GRAM), "iso": (4, ISO_BRACKETS, ISO_GRAM)}
FORMS_LADDER = (("sl2",), ("sl2",) * 2, ("sl2",) * 3, ("sl2",) * 4, ("iso",))
# Seeded mix: (blocks, dense, jobs).  Fixed counts per class put the
# median inside the iso-dense class and the tail inside the sl2+iso dense
# class, whatever the seed draws.
FORMS_MIX = (
    (("sl2",), False, 8), (("sl2",), True, 8), (("iso",), False, 8), (("iso",), True, 16),
    (("sl2",) * 2, False, 8), (("sl2",) * 2, True, 8), (("sl2", "iso"), False, 8), (("sl2", "iso"), True, 12),
)
FORMS_PLANTED = (("sl2",) * 2, ("sl2",) * 3, ("sl2",) * 4, ("sl2", "iso"))


def _direct_sum(blocks, scalars):
    """Structure constants {(j, k): {i: c}} and Gram matrix of a direct sum."""
    n = sum(BLOCKS[b][0] for b in blocks)
    brackets: dict = {}
    gram = [[0] * n for _ in range(n)]
    offset = 0
    for block, lam in zip(blocks, scalars):
        size, table, unit = BLOCKS[block]
        for (j, k), vec in table.items():
            brackets[(offset + j, offset + k)] = {offset + i: c for i, c in vec.items()}
        for i in range(size):
            for j in range(size):
                gram[offset + i][offset + j] = lam * unit[i][j]
        offset += size
    return n, brackets, gram


def _unimodular(rng, n):
    """Upper unitriangular P with seeded +-1 superdiagonal, and its integer
    inverse.  The inverse is full above the diagonal, so the transformed
    structure constants are dense with small entries."""
    p = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        p[i][i + 1] = rng.choice((1, -1))
    q = [[0] * n for _ in range(n)]
    for col in range(n):
        for i in range(n - 1, -1, -1):
            q[i][col] = int(i == col) - sum(p[i][j] * q[j][col] for j in range(i + 1, n))
    return p, q


def _change_basis(n, brackets, gram, p, q):
    """Structure constants and Gram matrix in the basis X'_a = sum_j P[j][a] X_j."""
    full = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (j, k), vec in brackets.items():
        for i, c in vec.items():
            full[i][j][k] = c
            full[i][k][j] = -c
    out = {}
    for a, b in itertools.combinations(range(n), 2):
        # [X'_a, X'_b] in old coordinates, then mapped back through P^-1.
        old = [
            sum(full[l][j][k] * p[j][a] * p[k][b] for j in range(n) if p[j][a] for k in range(n) if p[k][b])
            for l in range(n)
        ]
        vec = {i: c for i in range(n) if (c := sum(q[i][l] * old[l] for l in range(n)))}
        if vec:
            out[(a, b)] = vec
    new_gram = [
        [sum(p[i][a] * gram[i][j] * p[j][b] for i in range(n) for j in range(n)) for b in range(n)]
        for a in range(n)
    ]
    return out, new_gram


def expected_three_form(blocks, scalars, p=None):
    """The job's Chern-Simons 3-form from the block closed forms, pulled
    back through P by 3x3 minors when the basis was changed."""
    block_terms = {}
    offset = 0
    for block, lam in zip(blocks, scalars):
        for idx, c in BLOCK_T[block].items():
            block_terms[tuple(offset + i for i in idx)] = lam * c
        offset += BLOCKS[block][0]
    if p is None:
        return block_terms
    n = offset
    out = {}
    for cols in itertools.combinations(range(n), 3):
        total = Fraction(0)
        for rows, c in block_terms.items():
            m = [[p[r][col] for col in cols] for r in rows]
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
            total += c * det
        if total:
            out[cols] = total
    return out


def first_jacobi_violation(n, brackets):
    """First basis triple (in combinations order) whose Jacobi sum is
    nonzero, by plain dense arithmetic; None when the table is a Lie
    algebra.  Independent of ``repvol.validate_jacobi``."""
    full = [[[0] * n for _ in range(n)] for _ in range(n)]
    for (j, k), vec in brackets.items():
        for i, c in vec.items():
            full[i][j][k] = c
            full[i][k][j] = -c
    for position, (a, b, c) in enumerate(itertools.combinations(range(n), 3)):
        for m in range(n):
            total = 0
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                total += sum(full[l][x][y] * full[m][l][z] for l in range(n))
            if total:
                return (a, b, c), position + 1
    return None, math.comb(n, 3)


def _forms_job(rng, kind, blocks, dense, planted=False):
    scalars = [rng.randint(1, 3) for _ in blocks]
    n, brackets, gram = _direct_sum(blocks, scalars)
    p = None
    if dense:
        p, q = _unimodular(rng, n)
        brackets, gram = _change_basis(n, brackets, gram, p, q)
    name = "+".join(blocks) + (" dense" if dense else " sparse")
    job = {"kind": kind, "label": name, "dim": n, "brackets": brackets, "gram": gram}
    if planted:
        # Plant a violation in a bracket of the first three basis vectors,
        # so the Jacobi scan stops early.
        while True:
            j, k = sorted(rng.sample(range(3), 2))
            i = rng.randrange(n)
            table = {pair: dict(vec) for pair, vec in brackets.items()}
            vec = table.setdefault((j, k), {})
            vec[i] = vec.get(i, 0) + rng.choice((1, -1))
            if not vec[i]:
                del vec[i]
            triple, checked = first_jacobi_violation(n, table)
            if triple is not None:
                break
        job.update(brackets=table, violation=triple, work={"jacobi_triples": checked})
        return job
    pairs = list(itertools.combinations(range(n), 2))
    support = rng.sample(pairs, min(len(pairs), max(2, n // 2)))
    job["beta"] = tuple(sorted((pair, rng.choice((-2, -1, 1, 2))) for pair in support))
    job["expected_T"] = expected_three_form(blocks, scalars, p)
    job["work"] = {
        "jacobi_triples": math.comb(n, 3),
        "system_cells": math.comb(n, 3) * math.comb(n, 2),
    }
    return job


def forms(seed: int) -> list[dict]:
    rng = random.Random(f"forms:{seed}")
    jobs = [
        _forms_job(rng, "ladder", blocks, dense)
        for blocks in FORMS_LADDER
        for dense in (False, True)
    ]
    jobs += [
        _forms_job(rng, "mix", blocks, dense)
        for blocks, dense, count in FORMS_MIX
        for _ in range(count)
    ]
    jobs += [
        _forms_job(rng, "planted", blocks, dense, planted=True)
        for blocks in FORMS_PLANTED
        for dense in (False, True)
    ]
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- graphs

# Documents per topology at each ladder rung.  Three at N = 1000 make,
# with the two V = 10^4 ratio graphs, a group of eleven like jobs below
# the four largest, so the tail (the 11th slowest job) falls inside it.
GRAPH_LADDER_N = {100: 1, 300: 1, 1000: 3, 2000: 1}
GRAPH_TOPOLOGIES = ("chain", "tree", "cycle")
GRAPH_MIX_DOCS = 150
# Ratio graphs come in consistent/planted pairs, except at the top rung,
# which runs its planted copy only: a V = 10^5 graph is memory-bound and
# follows the host's speed swings less than the reference loop does, so
# two of them made throughput the least steady figure of the workload.
RW_LADDER_V = (1000, 10000, 100000)
RW_MIX_GRAPHS = 30
# Both matrices have determinant -1 and send a killed slope (a, b) with
# a >= 1 to (a, -b) up to sign, so every filled side gets a positive
# multiplicity.
GLUINGS = (((1, 0), (0, -1)), ((-1, 0), (0, 1)))


def _topology_edges(rng, shape, n):
    if shape == "chain":
        return [(i, i + 1) for i in range(n - 1)]
    if shape == "cycle":
        return [(i, (i + 1) % n) for i in range(n)] if n > 2 else [(0, 1)]
    return [(rng.randrange(i), i) for i in range(1, n)]


def _graph_doc(rng, shape, n, numeric):
    """A closed graph-manifold document, its generator-side total and its
    number of filled Seifert pieces."""
    edges = _topology_edges(rng, shape, n)
    slots: list[list[str]] = [[] for _ in range(n)]
    doc_edges = []
    fill: dict[tuple[int, str], tuple[int, int]] = {}
    for u, v in edges:
        su, sv = f"s{len(slots[u])}", f"s{len(slots[v])}"
        slots[u].append(su)
        slots[v].append(sv)
        a = rng.choice((1, 1, 2))
        b = rng.choice([x for x in range(-3, 4) if math.gcd(a, abs(x)) == 1])
        doc_edges.append(
            {"a": [f"P{u}", su], "b": [f"P{v}", sv], "gluing": rng.choice(GLUINGS), "killed_slope": [a, b]}
        )
        fill[(u, su)] = (a, b)
        fill[(v, sv)] = (a, -b)
    pieces, assignments = [], []
    exact_total = Fraction(0)
    numeric_total = 0.0
    filled = 0
    numeric_piece = rng.randrange(n) if numeric else -1
    for i in range(n):
        pid = f"P{i}"
        choice = rng.random()
        if i == numeric_piece or choice < 0.3:
            pieces.append({"id": pid, "kind": "hyperbolic", "label": f"cusped {i}", "slots": slots[i]})
            if i == numeric_piece:
                value = round(rng.uniform(1.0, 5.0), 6)
                numeric_total += value
                assignments.append({"piece": pid, "assign": "direct", "numeric": value})
            else:
                value = Fraction(rng.randint(0, 9), rng.randint(1, 6))
                exact_total += value
                assignments.append({"piece": pid, "assign": "direct", "exact": str(value)})
            continue
        own = [(2, rng.choice((1, -1)))] if rng.random() < 0.7 else []
        pieces.append(
            {"id": pid, "kind": "seifert", "genus": 1, "pairs": [list(x) for x in own], "slots": slots[i]}
        )
        filled_pairs = own + [fill[(i, s)] for s in slots[i]]
        e = sum((Fraction(b, a) for a, b in filled_pairs), Fraction(0))
        hyperbolic_base = any(a > 1 for a, _ in filled_pairs)
        if choice < 0.65 or e == 0 or not hyperbolic_base:
            assignments.append({"piece": pid, "assign": "small_image"})
            continue
        filled += 1
        residues = [rng.randrange(a) for a, _ in filled_pairs]
        nonzero = sum(1 for r in residues if r)
        m = rng.randint(0, nonzero)  # genus 1: 0 <= m <= #{r_i > 0}
        t = sum((Fraction(r, a) for r, (a, _) in zip(residues, filled_pairs)), Fraction(0)) - m
        coeff = t * t / abs(e)
        exact_total += coeff
        assignments.append(
            {"piece": pid, "assign": "filled", "fillings": {s: list(fill[(i, s)]) for s in slots[i]}, "coeff": str(coeff)}
        )
    rng.shuffle(assignments)
    doc = {"pieces": pieces, "edges": doc_edges, "assignments": assignments}
    if numeric:
        # Same order of operations as repvol.volume_sum: exact part first.
        total = ("numeric", float(exact_total) * 4.0 * math.pi * math.pi + numeric_total)
    else:
        total = ("exact", exact_total)
    return doc, total, filled


def _graph_job(rng, kind, shape, n):
    doc, total, filled = _graph_doc(rng, shape, n, numeric=rng.random() < 0.25)
    return {
        "kind": kind,
        "label": f"{shape} N={n}" if kind == "ladder" else f"{shape} small",
        "text": json.dumps(doc),
        "total": total,
        "work": {"pieces": n, "filled": filled},
    }


def _ratio_table():
    values = [Fraction(p, q) for p in range(1, 10) for q in range(1, 10)]
    return [[b / a for b in values] for a in values]


def _rw_graphs(rng, v, ratio):
    """A consistent ratio graph and a copy with one planted inconsistency.

    The graph is a random spanning tree plus v + 1 extra edges, with
    ratios ``ratio[p(u)][p(v)]`` read off seeded vertex potentials p.  The
    planted copy scales the ratio of one extra edge, which always closes a
    cycle through the tree.
    """
    draw = rng.random
    potential = [int(draw() * len(ratio)) for _ in range(v)]
    pairs = [(int(draw() * i), i) for i in range(1, v)]
    tree_edges = len(pairs)
    for _ in range(v + 1):
        a, b = int(draw() * v), int(draw() * (v - 1))
        pairs.append((a, b + (b >= a)))
    edges = [(a, b, ratio[potential[a]][potential[b]]) for a, b in pairs]
    planted = list(edges)
    k = rng.randrange(tree_edges, len(edges))
    a, b, r = planted[k]
    planted[k] = (a, b, r * rng.choice((Fraction(3, 2), Fraction(2, 3), Fraction(5, 4))))
    return edges, planted


def _rw_jobs(rng, kind, v, ratio):
    jobs = []
    for consistent, edges in zip((True, False), _rw_graphs(rng, v, ratio)):
        truth = "consistent" if consistent else "planted"
        jobs.append({
            "kind": kind,
            "label": f"rw V={v} {truth}" if kind == "rw-ladder" else f"rw small {truth}",
            "vertices": v,
            "edges": edges,
            "consistent": consistent,
            "work": {"rw_edges": len(edges)},
        })
    return jobs


def graphs(seed: int) -> list[dict]:
    rng = random.Random(f"graphs:{seed}")
    jobs = [
        _graph_job(rng, "ladder", shape, n)
        for shape in GRAPH_TOPOLOGIES
        for n, copies in GRAPH_LADDER_N.items()
        for _ in range(copies)
    ]
    jobs += [
        _graph_job(rng, "mix", GRAPH_TOPOLOGIES[i % 3], 2 + i % 19) for i in range(GRAPH_MIX_DOCS)
    ]
    ratio = _ratio_table()
    for v in RW_LADDER_V:
        pair = _rw_jobs(rng, "rw-ladder", v, ratio)
        jobs += pair if v < RW_LADDER_V[-1] else pair[1:]
    for i in range(RW_MIX_GRAPHS // 2):
        jobs += _rw_jobs(rng, "rw-mix", 20 + 12 * i, ratio)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------- cli

# Invocations per pass by command family; each family includes its
# expected exit-1 (domain error) and exit-2 (usage error) cases.
CLI_FAMILIES = (("seifert", 26), ("cs", 17), ("graph", 21), ("covers", 13), ("cases", 8))


def _small_symbol(rng):
    """A small sl2r-tilde symbol: genus 1-2, 1-3 fibres with a <= 5."""
    genus = rng.randint(1, 2)
    moduli = sorted(rng.choice((2, 3, 4, 5)) for _ in range(rng.randint(1, 3)))
    return _spectra_job(rng, "cli", "symbol", genus, moduli)


def _jacobi_doc(n, brackets):
    names = [f"e{i}" for i in range(n)]
    return {
        "basis": names,
        "brackets": [
            [names[j], names[k], {names[i]: c for i, c in sorted(vec.items())}]
            for (j, k), vec in sorted(brackets.items())
        ],
    }


def _write(directory, name, doc):
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return path


def _cli_files(rng, directory):
    """Input files for the cli workload: small graph documents, ratio
    graphs and structure-constant tables, clean and broken."""
    files = {"graph": [], "graph_bad": [], "rw": [], "rw_bad": [], "jacobi": [], "jacobi_bad": []}
    for i in range(4):
        doc, _, _ = _graph_doc(rng, GRAPH_TOPOLOGIES[i % 3], rng.randint(2, 8), numeric=False)
        files["graph"].append(_write(directory, f"graph{i}.json", doc))
        doc["edges"][0]["gluing"] = [[1, 0], [0, 1]]  # determinant +1
        files["graph_bad"].append(_write(directory, f"graph_bad{i}.json", doc))
    ratio = _ratio_table()
    for i in range(4):
        for planted, key in ((False, "rw"), (True, "rw_bad")):
            v = rng.randint(5, 30)
            edges = [[str(a), str(b), str(r)] for a, b, r in _rw_graphs(rng, v, ratio)[planted]]
            doc = {"vertices": [str(x) for x in range(v)], "edges": edges}
            files[key].append(_write(directory, f"{key}{i}.json", doc))
    for i, blocks in enumerate((("sl2",), ("sl2",) * 2, ("iso",))):
        job = _forms_job(rng, "cli", blocks, dense=True)
        files["jacobi"].append(_write(directory, f"jacobi{i}.json", _jacobi_doc(job["dim"], job["brackets"])))
        job = _forms_job(rng, "cli", blocks + ("sl2",), dense=False, planted=True)
        files["jacobi_bad"].append(
            _write(directory, f"jacobi_bad{i}.json", _jacobi_doc(job["dim"], job["brackets"]))
        )
    return files


def _cli_seifert(rng, files, data):
    sym = _small_symbol(rng)
    text = sym["notation"]
    roll = rng.randrange(12)
    if roll == 0:
        return ["seifert", "volumes", "(0; 1/2, 1/3)"], 1  # spherical base
    if roll == 1:
        return ["seifert", "info", text[:-1]], 1  # missing ')'
    if roll == 2:
        return ["seifert", "volumes"], 2
    if roll == 3:
        return ["seifert", "witnesses", text, "1000"], 1
    action = rng.choice(("info", "volumes", "volumes", "sv", "foliation", "witnesses"))
    argv = ["seifert", action, text]
    if action == "witnesses":
        argv.append(str(sym["coeff"]))
    elif action == "volumes":
        argv += rng.choice(([], ["--json"], ["--decimal"], ["--witnesses", str(sym["coeff"])]))
        if len(sym["pairs"]) <= 2 and "--witnesses" not in argv and rng.random() < 0.3:
            argv.append("--oracle")
    elif rng.random() < 0.3:
        argv.append("--json")
    return argv, 0


def _cli_cs(rng, files, data):
    roll = rng.randrange(10)
    if roll < 3:
        return ["cs", "verify", rng.choice(("iso-sl2r", "psl2c"))], 0
    if roll < 5:
        return ["cs", "jacobi", os.path.join(data, rng.choice(("sl2c.json", "iso_sl2r.json")))], 0
    if roll < 7:
        return ["cs", "jacobi", rng.choice(files["jacobi"])], 0
    if roll < 9:
        return ["cs", "jacobi", rng.choice(files["jacobi_bad"])], 1
    return ["cs", "verify", "e8"], 2


def _cli_graph(rng, files, data):
    roll = rng.randrange(12)
    shipped = [os.path.join(data, n) for n in ("motegi_2_3_2_5.json", "prop73_zero_hv.json")]
    if roll < 2:
        return ["graph", rng.choice(("validate", "additivity")), rng.choice(shipped)], 0
    if roll < 5:
        extra = rng.choice(([], ["--json"], ["--decimal"]))
        return ["graph", "additivity", rng.choice(files["graph"])] + extra, 0
    if roll < 6:
        return ["graph", "validate", rng.choice(files["graph"])], 0
    if roll < 7:
        return ["graph", rng.choice(("validate", "additivity")), rng.choice(files["graph_bad"])], 1
    if roll < 9:
        return ["graph", "rw", rng.choice(files["rw"])], 0
    if roll < 11:
        return ["graph", "rw", rng.choice(files["rw_bad"])], 1
    return ["graph", "rw"], 2


def _cli_covers(rng, files, data):
    roll = rng.randrange(10)
    m = rng.randint(1, 4)
    if roll < 3:
        degrees = [m * rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
        return ["covers", "merge", "--degrees", ",".join(map(str, degrees)), "--m", str(m)], 0
    if roll < 5:
        k = [rng.randint(1, 6) for _ in range(rng.randint(1, 3))]
        l = [rng.randint(1, 6) for _ in k]
        return ["covers", "colored", "--k", ",".join(map(str, k)), "--l", ",".join(map(str, l))], 0
    if roll < 7:
        curve = rng.randint(1, 6)
        return ["covers", "elevations", "--torus", str(curve * rng.randint(1, 6)), "--curve", str(curve)], 0
    if roll < 8:
        df, ds = rng.randint(1, 6), rng.randint(1, 6)
        return ["covers", "intersection", "--number", "1", "--deg-f", str(df), "--deg-s", str(ds),
                "--deg-torus", str(df * ds)], 0
    if roll < 9:
        return ["covers", "merge", "--degrees", "3,5", "--m", "2"], 1
    return ["covers", "merge", "--degrees", "2,4"], 2


def _cli_cases(rng, files, data):
    roll = rng.randrange(10)
    if roll == 0:
        return ["cases", "motegi", "1", "3", "2", "5"], 1
    if roll == 1:
        return ["cases", "motegi", "2", "3"], 2
    argv = ["cases", "motegi"] + [str(rng.randint(2, 9)) for _ in range(4)]
    if rng.random() < 0.3:
        argv.append("--json")
    return argv, 0


CLI_BUILDERS = {
    "seifert": _cli_seifert, "cs": _cli_cs, "graph": _cli_graph, "covers": _cli_covers, "cases": _cli_cases,
}


def cli(seed: int, directory: str, data: str) -> list[dict]:
    """Write the cli input files into ``directory`` and return the seeded
    invocation sequence; ``data`` is the package's shipped data folder."""
    os.makedirs(directory, exist_ok=True)
    rng = random.Random(f"cli:{seed}")
    files = _cli_files(rng, directory)
    jobs = []
    for family, count in CLI_FAMILIES:
        for _ in range(count):
            argv, code = CLI_BUILDERS[family](rng, files, data)
            jobs.append({"kind": family, "label": " ".join(argv[:2]), "argv": argv, "expect": code})
    rng.shuffle(jobs)
    return jobs
