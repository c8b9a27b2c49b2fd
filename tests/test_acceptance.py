"""Acceptance gate: thirteen end-to-end criteria, one per test, each
printing a single pass/fail line on the real terminal.

Random checks use fixed seeds so every run exercises the same instances.
"""

import itertools
import json
import math
import random
from fractions import Fraction
from importlib import resources

from dense_linalg import dense_invert, dense_nullspace, dense_solve

from repvol import cli
from repvol.exact import ExactVolume, GaussianRational, PI_ZERO, PiScalar
from repvol.covers import (
    TorusCoverDatum,
    colored_merge_counts,
    elevation_count,
    merge_copy_counts,
)
from repvol.ehn import seifert_volume_max, volume_set, volume_set_bruteforce
from repvol.jsj import additivity_sum, load_graph_document, rw_consistency, validate_spec
from repvol.liecs import (
    ExteriorForm,
    GramForm,
    LieAlgebraSpec,
    chern_poly_coeffs,
    cs_three_form,
    d,
    exactness_split,
    is_ad_invariant,
    iso_sl2r_algebra,
    iso_sl2r_gram,
    mc_differential,
    sl2c_algebra,
    sl2c_gram,
    validate_jacobi,
)
from repvol.seifert import (
    SeifertInvariants,
    base_cover,
    circle_bundle,
    euler_number,
    fiber_cover,
    orbifold_chi,
    parse_seifert,
)


def _report(capsys, number, label, ok):
    with capsys.disabled():
        print(f"criterion {number:02d} [{label}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number:02d} ({label}) failed"


def _random_sl2r(rng, max_genus, max_fibers, max_a):
    while True:
        genus = rng.randint(1, max_genus)
        pairs = []
        for _ in range(rng.randint(0, max_fibers)):
            a = rng.randint(2, max_a)
            b = rng.choice(
                [x for x in range(-max_a, max_a + 1) if x and math.gcd(a, abs(x)) == 1]
            )
            pairs.append((a, b))
        inv = SeifertInvariants(genus=genus, pairs=tuple(pairs))
        if euler_number(inv) != 0 and orbifold_chi(inv) < 0:
            return inv


def test_criterion_01_maximum_identity(capsys):
    rng = random.Random(1081)
    ok = True
    for _ in range(200):
        inv = _random_sl2r(rng, max_genus=3, max_fibers=4, max_a=6)
        chi = orbifold_chi(inv)
        expected = chi * chi / abs(euler_number(inv))
        spectrum = volume_set(inv)
        if spectrum[-1] != expected or seifert_volume_max(inv) != expected:
            ok = False
            break
    _report(capsys, 1, "volume maximum = chi^2/|e| on 200 random inputs", ok)


def test_criterion_02_oracle_equivalence(capsys):
    rng = random.Random(1082)
    ok = True
    for _ in range(50):
        inv = _random_sl2r(rng, max_genus=2, max_fibers=3, max_a=4)
        if volume_set(inv) != volume_set_bruteforce(inv):
            ok = False
            break
    _report(capsys, 2, "canonical enumeration = brute-force window on 50 inputs", ok)


def test_criterion_03_worked_instance(capsys):
    spectrum = volume_set(parse_seifert("(1; 1/2, 1/2)"))
    ok = spectrum == [Fraction(0), Fraction(1, 4), Fraction(1)]
    _report(capsys, 3, 'volume_set("(1; 1/2, 1/2)") = {0, 1/4, 1}', ok)


def test_criterion_04_golden_differentials(capsys):
    spec = iso_sl2r_algebra()
    mono = ExteriorForm.monomial
    X, Y, Z, W = range(4)
    ok = (
        mc_differential(spec, X)
        == mono(4, (Y, Z)) + mono(4, (Y, W)) + mono(4, (Z, W))
        and mc_differential(spec, Y) == mono(4, (X, Y), 2) + mono(4, (X, W), -2)
        and mc_differential(spec, Z) == mono(4, (X, Z), -2) + mono(4, (X, W), -2)
        and mc_differential(spec, W).is_zero()
    )
    _report(capsys, 4, "all four golden Maurer-Cartan differentials", ok)


def test_criterion_05_decomposition(capsys):
    spec = iso_sl2r_algebra()
    form = cs_three_form(spec, iso_sl2r_gram())
    X, Y, Z, W = range(4)
    target = ExteriorForm.monomial(4, (X, Y, Z), Fraction(2, 3))
    beta = exactness_split(spec, form, target)
    stated = ExteriorForm.monomial(4, (Y, W), Fraction(1, 3)) + ExteriorForm.monomial(
        4, (Z, W), Fraction(-1, 3)
    )
    ok = (
        beta is not None
        and d(spec, beta) == form - target
        and d(spec, stated) == form - target
    )
    _report(
        capsys, 5, "3-form minus (2/3) volume form is exact, both primitives", ok
    )


def test_criterion_06_sl2_coefficient(capsys):
    spec = sl2c_algebra()
    form = cs_three_form(spec, sl2c_gram())
    ok = form == ExteriorForm.monomial(3, (0, 1, 2), PiScalar.of(1, pi_power=-2))
    _report(capsys, 6, "sl2 3-form = (1/pi^2) phiX^phiY^phiZ", ok)


# ------------------------------------------------------------ criterion 7


def _base_family(rng, dim):
    """Structure-constant table {(i,j): {k: Fraction}} of a known Lie
    algebra of the requested dimension, possibly padded with a center."""
    sl2 = {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}}
    so3 = {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}
    heis = {(0, 1): {2: 1}}
    iso = {
        (0, 1): {1: -2}, (0, 2): {2: 2}, (0, 3): {1: 2, 2: 2},
        (1, 2): {0: -1}, (1, 3): {0: -1}, (2, 3): {0: -1},
    }
    if dim == 3:
        table = rng.choice([sl2, so3, heis, {}])
    elif dim == 4:
        table = rng.choice([sl2, so3, heis, {}, iso])
    else:
        two_step = {(0, 1): {3: 1}, (0, 2): {4: 1}}
        table = rng.choice([sl2, so3, heis, two_step, {}])
    return {
        pair: {k: Fraction(c) for k, c in vec.items()} for pair, vec in table.items()
    }


def _conjugate(rng, dim, table):
    """Change basis by a random unipotent integer matrix; returns the
    new structure constants as dense bracket vectors."""
    p = [[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]
    for _ in range(rng.randint(2, 6)):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice([-2, -1, 1, 2])
        for row in range(dim):
            p[row][i] += c * p[row][j]
    p_inv = dense_invert(p, Fraction(0), Fraction(1))
    assert p_inv is not None

    def old_bracket(a, b):
        if a == b:
            return [Fraction(0)] * dim
        sign = 1
        if a > b:
            a, b, sign = b, a, -1
        vec = [Fraction(0)] * dim
        for k, c in table.get((a, b), {}).items():
            vec[k] = sign * c
        return vec

    new = {}
    for i, j in itertools.combinations(range(dim), 2):
        acc = [Fraction(0)] * dim
        for a in range(dim):
            if not p[a][i]:
                continue
            for b in range(dim):
                if not p[b][j]:
                    continue
                for k, c in enumerate(old_bracket(a, b)):
                    acc[k] += p[a][i] * p[b][j] * c
        coords = [
            sum(p_inv[r][k] * acc[k] for k in range(dim)) for r in range(dim)
        ]
        if any(coords):
            new[(i, j)] = coords
    return LieAlgebraSpec(
        basis=tuple(f"e{n}" for n in range(dim)),
        brackets=tuple((pair, tuple(vec)) for pair, vec in sorted(new.items())),
        check_jacobi=False,
    )


def _random_invariant_gram(rng, spec):
    """A random ad-invariant Gram form, found by solving the invariance
    equations exactly; None when only the zero form is invariant."""
    n = spec.dim
    unknowns = list(itertools.combinations_with_replacement(range(n), 2))
    index = {pair: i for i, pair in enumerate(unknowns)}

    def slot(p, q):
        return index[(p, q) if p <= q else (q, p)]

    rows = []
    for a in range(n):
        for b in range(n):
            ab = spec.bracket(a, b)
            for c in range(n):
                ac = spec.bracket(a, c)
                row = [Fraction(0)] * len(unknowns)
                for k in range(n):
                    if ab[k]:
                        row[slot(k, c)] += ab[k].coeff.re
                    if ac[k]:
                        row[slot(b, k)] += ac[k].coeff.re
                rows.append(row)
    basis = dense_nullspace(rows, Fraction(0), Fraction(1))
    if not basis:
        return None
    coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    combo = [
        sum(c * vec[i] for c, vec in zip(coeffs, basis)) for i in range(len(unknowns))
    ]
    entries = [[Fraction(0)] * n for _ in range(n)]
    for (p, q), i in index.items():
        entries[p][q] = combo[i]
        entries[q][p] = combo[i]
    return GramForm(tuple(tuple(row) for row in entries))


def test_criterion_07_closedness(capsys):
    ok = True
    for spec, gram in (
        (iso_sl2r_algebra(), iso_sl2r_gram()),
        (sl2c_algebra(), sl2c_gram()),
    ):
        if not d(spec, cs_three_form(spec, gram)).is_zero():
            ok = False
    rng = random.Random(1087)
    produced = 0
    while produced < 20 and ok:
        dim = rng.randint(3, 5)
        spec = _conjugate(rng, dim, _base_family(rng, dim))
        if validate_jacobi(spec) is not None:
            ok = False
            break
        gram = _random_invariant_gram(rng, spec)
        if gram is None or not is_ad_invariant(spec, gram):
            # only the zero form is invariant; not a usable sample
            continue
        produced += 1
        if not d(spec, cs_three_form(spec, gram)).is_zero():
            ok = False
    _report(capsys, 7, "d(3-form) = 0 on canned + 20 random algebras", ok)


def test_criterion_08_polynomial_identities(capsys):
    rng = random.Random(1088)
    ok = True

    def frac():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for _ in range(50):
        diag = GaussianRational(frac(), frac())
        b = GaussianRational(frac(), frac())
        c = GaussianRational(frac(), frac())
        c1, c2 = chern_poly_coeffs([[diag, b], [c, -diag]], kind="chern")
        tr_sq = 2 * diag * diag + 2 * b * c
        if c1 != PI_ZERO or c2 != PiScalar(tr_sq, 0) * PiScalar.of(
            Fraction(1, 8), pi_power=-2
        ):
            ok = False
            break
    if ok:
        for _ in range(50):
            x, y, z = frac(), frac(), frac()
            (p1,) = chern_poly_coeffs(
                [[0, x, y], [-x, 0, z], [-y, -z, 0]], kind="pontrjagin"
            )
            tr_sq = -2 * (x * x + y * y + z * z)
            if p1 != PiScalar.of(-tr_sq / 8, pi_power=-2):
                ok = False
                break
    _report(capsys, 8, "chern/pontrjagin trace identities on 100 matrices", ok)


def test_criterion_09_covering_scaling(capsys):
    rng = random.Random(1089)
    ok = True
    for _ in range(50):
        genus = rng.randint(2, 5)
        euler = rng.choice([x for x in range(-6, 7) if x])
        bundle = circle_bundle(genus, euler)
        base_max = seifert_volume_max(bundle)
        k = rng.randint(1, 4)
        if seifert_volume_max(base_cover(bundle, k)) != k * base_max:
            ok = False
            break
        divisors = [x for x in range(1, abs(euler) + 1) if euler % x == 0]
        dd = rng.choice(divisors)
        if seifert_volume_max(fiber_cover(bundle, dd)) != dd * base_max:
            ok = False
            break
    _report(capsys, 9, "volume maxima scale by covering degree (50 bundles)", ok)


def test_criterion_10_motegi_cases(capsys):
    code1 = cli.main(["cases", "motegi", "2", "3", "2", "5"])
    out1 = capsys.readouterr().out
    code2 = cli.main(["cases", "motegi", "2", "2", "2", "2"])
    out2 = capsys.readouterr().out
    ok = (
        code1 == 0
        and out1 == "H1 order 59; nontrivial graph manifold: yes; SV = 0\n"
        and code2 == 0
        and out2 == "H1 order 15; nontrivial graph manifold: no; SV = 0\n"
    )
    _report(capsys, 10, "motegi 2 3 2 5 and 2 2 2 2 reports", ok)


def test_criterion_11_additivity_engine(capsys):
    ok = True
    data = resources.files("repvol").joinpath("data")
    motegi = load_graph_document(
        json.loads(data.joinpath("motegi_2_3_2_5.json").read_text("utf-8"))
    )
    for _, spec, assignments in motegi.cases:
        if validate_spec(spec) or additivity_sum(spec, assignments) != ExactVolume(
            Fraction(0)
        ):
            ok = False
    prop73 = load_graph_document(
        json.loads(data.joinpath("prop73_zero_hv.json").read_text("utf-8"))
    )
    names = [name for name, _, _ in prop73.cases]
    if names != ["s_kill", "h_kill"]:
        ok = False
    for _, spec, assignments in prop73.cases:
        if validate_spec(spec) or additivity_sum(spec, assignments) != ExactVolume(
            Fraction(0)
        ):
            ok = False
    _report(capsys, 11, "shipped additivity documents sum to exact 0", ok)


# ------------------------------------------------------------ criterion 12


def _factor(n):
    out = {}
    n = abs(n)
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _linear_oracle(vertices, edges):
    """Independent consistency check: per prime, solve the additive
    potential system x_v - x_u = v_p(ratio) with exact elimination."""
    primes = set()
    for _, _, ratio in edges:
        primes |= set(_factor(ratio.numerator)) | set(_factor(ratio.denominator))
    order = {v: i for i, v in enumerate(vertices)}
    for p in sorted(primes):
        matrix = []
        rhs = []
        for u, v, ratio in edges:
            row = [Fraction(0)] * len(vertices)
            row[order[v]] += 1
            row[order[u]] -= 1
            matrix.append(row)
            rhs.append(
                Fraction(
                    _factor(ratio.numerator).get(p, 0)
                    - _factor(ratio.denominator).get(p, 0)
                )
            )
        if dense_solve(matrix, rhs, Fraction(0)) is None:
            return False
    return True


def test_criterion_12_rw_oracle(capsys):
    rng = random.Random(1092)
    ratio_pool = [
        Fraction(p, q) for p in (1, 2, 3, 4, 5) for q in (1, 2, 3) if Fraction(p, q) > 0
    ]
    ok = True
    saw_inconsistent = 0
    for trial in range(100):
        n = rng.randint(1, 8)
        vertices = [f"v{i}" for i in range(n)]
        edge_count = rng.randint(0, 16)
        consistent_by_design = trial % 2 == 0
        potential = {v: rng.choice(ratio_pool) for v in vertices}
        edges = []
        for _ in range(edge_count):
            u, v = rng.choice(vertices), rng.choice(vertices)
            if consistent_by_design:
                if u == v:
                    continue
                edges.append((u, v, potential[v] / potential[u]))
            else:
                edges.append((u, v, rng.choice(ratio_pool)))
        result = rw_consistency(vertices, edges)
        if result.consistent != _linear_oracle(vertices, edges):
            ok = False
            break
        if not result.consistent:
            saw_inconsistent += 1
            # verify the witness against the input edge multiset
            available = {}
            for u, v, ratio in edges:
                available.setdefault((u, v), []).append(ratio)
                available.setdefault((v, u), []).append(1 / ratio)
            product = Fraction(1)
            chained = result.witness_cycle[0][0] == result.witness_cycle[-1][1]
            for step, (u, v, ratio) in enumerate(result.witness_cycle):
                if ratio not in available.get((u, v), []):
                    ok = False
                if step and result.witness_cycle[step - 1][1] != u:
                    chained = False
                product *= ratio
            if not chained or product == 1 or product != result.product:
                ok = False
            if not ok:
                break
    ok = ok and saw_inconsistent > 0
    _report(capsys, 12, "rw matches linear oracle on 100 graphs + witnesses", ok)


def test_criterion_13_merging_arithmetic(capsys):
    rng = random.Random(1093)
    ok = True
    for _ in range(100):
        m = rng.randint(1, 5)
        degrees = [m * rng.randint(1, 8) for _ in range(rng.randint(1, 5))]
        counts = merge_copy_counts(degrees, m)
        common = math.lcm(*degrees)
        if counts.common_degree != common:
            ok = False
        for degree, copies in zip(degrees, counts.copies):
            if copies * degree != common:
                ok = False
            if copies * (degree // m) != counts.per_torus_elevations:
                ok = False
    for _ in range(100):
        size = rng.randint(1, 5)
        k = [rng.randint(1, 9) for _ in range(size)]
        l = [rng.randint(1, 9) for _ in range(size)]
        counts = colored_merge_counts(k, l)
        for k_i, l_i, copies, matched in zip(
            k, l, counts.corridor_copies, counts.matched_elevations
        ):
            if copies * k_i != l_i * counts.common_degree or matched != copies * k_i:
                ok = False
    for _ in range(100):
        deg_t, deg_s = rng.randint(1, 30), rng.randint(1, 30)
        try:
            count = elevation_count(TorusCoverDatum(deg_t, deg_s))
            if deg_t % deg_s != 0 or count != deg_t // deg_s:
                ok = False
        except ValueError:
            if deg_t % deg_s == 0:
                ok = False
    _report(capsys, 13, "merging counts + elevation divisibility on random inputs", ok)
