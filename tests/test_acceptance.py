"""Acceptance gate: one test per advertised criterion.

Each test prints a single bracketed pass/fail line carrying the measured
values, then asserts.  Timing bounds are generous CI-level ceilings, not
benchmarks.
"""

import random
import time

import pytest

from kmsylow import (
    AffineMatrixGroup,
    FqConfig,
    HypothesisViolated,
    IwahoriSylow,
    IMAGINARY,
    REAL,
    RootVector,
    borel_subgroup,
    bracket,
    build_positive_part,
    check_filtration_lemma,
    classify,
    closure,
    commutator_identity_check,
    congruence_subgroup,
    enumerate_special_linear,
    monomial_subgroup,
    positive_real_roots_up_to_height,
    positive_roots_up_to_height,
    root_status,
    simple_root,
    sylow_generators,
    sylow_order,
    validate_gcm,
    verify_generation,
    verify_theorem1,
    verify_theorem1_affine,
    verify_tits_axioms,
    weyl_apply,
    weyl_representatives,
)
from kmsylow.affine import affine_cartan_matrix
from kmsylow.gcm import check_off_diagonal_hypothesis
from kmsylow.pgroup import DEFAULT_CAP, _power

from derived_series import derived_subgroup
from sylow_enumeration import brute_force_sylow, frattini_dimension_of

A2 = validate_gcm([[2, -1], [-1, 2]])
B2 = validate_gcm([[2, -1], [-2, 2]])
G2 = validate_gcm([[2, -1], [-3, 2]])
AFF = validate_gcm([[2, -2], [-2, 2]])
AFF3 = validate_gcm([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])

_fq = FqConfig.from_q


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}"
    if detail:
        line += f": {detail}"
    print(line)
    assert ok, line


THEOREM1_INSTANCES = (
    ("A2", A2, 5, 3),
    ("A2", A2, 25, 3),
    ("B2", B2, 5, 4),
    ("G2", G2, 5, 4),
    ("G2", G2, 7, 4),
    ("AFF3", AFF3, 5, 4),
)


@pytest.fixture(scope="module")
def theorem1_reports():
    out = {}
    total = 0.0
    for name, gcm, q, cutoff in THEOREM1_INSTANCES:
        t0 = time.perf_counter()
        rep = verify_theorem1(gcm, _fq(q), cutoff)
        total += time.perf_counter() - t0
        out[(name, q)] = rep
    out["total_seconds"] = total
    return out


def test_c01_cartan_trichotomy():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 7):
        for n in range(1, 7):
            tag = classify(validate_gcm([[2, -m], [-n, 2]])).tag
            want = "finite" if m * n <= 3 else "affine" if m * n == 4 else "indefinite"
            ok = ok and tag == want
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 rank-2 trichotomy (mn<=3 / =4 / >=5, 36 matrices)",
        ok and elapsed < 1.0,
        f"elapsed {elapsed:.3f}s < 1s",
    )


def test_c02_root_enumeration():
    t0 = time.perf_counter()
    ok = True
    for gcm, bound, count in ((A2, 6, 3), (B2, 6, 4), (G2, 6, 6)):
        tagged = positive_roots_up_to_height(gcm, bound)
        ok = ok and len(tagged) == count
        ok = ok and all(tag == REAL for _, tag in tagged)
    tagged = positive_roots_up_to_height(AFF, 9)
    real = {alpha for alpha, tag in tagged if tag == REAL}
    imaginary = {alpha for alpha, tag in tagged if tag == IMAGINARY}
    ok = ok and real == positive_real_roots_up_to_height(AFF, 9)
    delta = {
        RootVector.from_coords({1: n, 2: n}) for n in range(1, 5)
    }
    ok = ok and imaginary == delta and len(imaginary) == 9 // 2
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 root counts 3/4/6 and affine H=9 imaginary set {n*delta}",
        ok and elapsed < 5.0,
        f"counts ok, {len(imaginary)} imaginary, elapsed {elapsed:.3f}s < 5s",
    )


def test_c03_lie_dimensions_and_jacobi():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for gcm, bound in ((A2, 6), (B2, 6), (G2, 6), (AFF, 9)):
        algebra = build_positive_part(gcm, bound)
        tagged = positive_roots_up_to_height(gcm, bound)
        ok = ok and set(algebra.by_degree) == {alpha for alpha, _ in tagged}
        for alpha, tag in tagged:
            mult = len(algebra.by_degree[alpha])
            ok = ok and (mult == 1 if tag == REAL else mult >= 1)
        fld = algebra.field
        dim = algebra.dimension
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    x = {i: fld.one}
                    y = {j: fld.one}
                    z = {k: fld.one}
                    acc = {}
                    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
                        for idx, v in bracket(algebra, a, bracket(algebra, b, c)).items():
                            s = fld.add(acc.get(idx, fld.zero), v)
                            if s == fld.zero:
                                acc.pop(idx, None)
                            else:
                                acc[idx] = s
                    ok = ok and not acc
                    checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 truncated algebra supports, real multiplicity 1, Jacobi",
        ok and elapsed < 30.0,
        f"{checked} Jacobi triples, elapsed {elapsed:.2f}s < 30s",
    )


def test_c04_frattini_quotient_three_ways(theorem1_reports):
    ok = True
    details = []
    for name, gcm, q, cutoff in THEOREM1_INSTANCES:
        rep = theorem1_reports[(name, q)]
        want = len(gcm.labels) * _fq(q).r
        good = (
            rep["h1_blackbox"] == rep["h1_linear"] == rep["h1_predicted"] == want
        )
        ok = ok and good
        details.append(f"{name},q={q}:{rep['h1_blackbox']}")
    total = theorem1_reports["total_seconds"]
    report(
        "criterion 4 dim H1 black-box = linear = size*r on six instances",
        ok and total < 300.0,
        "; ".join(details) + f"; total {total:.1f}s < 300s",
    )


def test_c05_frattini_equals_derived(theorem1_reports):
    ok = all(
        theorem1_reports[(name, q)]["frattini_eq_derived"]
        for name, _, q, _ in THEOREM1_INSTANCES
    )
    report(
        "criterion 5 Frattini subgroup equals derived subgroup on all six",
        ok,
        "p-th powers of generators are trivial, closure comparison exact",
    )


def test_c06_affine_frattini_dimension():
    t0 = time.perf_counter()
    ok = True
    details = []
    for m, q, k in ((2, 3, 2), (2, 3, 3), (2, 9, 2), (3, 3, 2)):
        fq = _fq(q)
        sylow = IwahoriSylow(m, fq, k, DEFAULT_CAP)
        got = verify_theorem1_affine(sylow)["h1_blackbox"]
        ok = ok and got == m * fq.r
        details.append(f"({m},{q},{k}):{got}")
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6 affine Frattini dimension m*r at desk scale",
        ok and elapsed < 120.0,
        "; ".join(details) + f"; elapsed {elapsed:.1f}s < 120s",
    )


def _off_diagonal_hypothesis_holds(m, fq):
    try:
        check_off_diagonal_hypothesis(affine_cartan_matrix(m), fq.p)
    except HypothesisViolated:
        return False
    return True


def test_c07_generating_sets():
    # the paper claims generation only when p > max |a_ij| of A_{m-1}^(1);
    # where that fails, the claim is refuted here two independent ways
    ok = True
    details = []
    for m, q, k in ((2, 2, 2), (2, 2, 3), (2, 2, 4), (2, 3, 2), (2, 3, 3), (3, 2, 2)):
        fq = _fq(q)
        generated = verify_generation(IwahoriSylow(m, fq, k, DEFAULT_CAP))
        group = AffineMatrixGroup(m, fq, k)
        gens = sylow_generators(m, fq, k)
        if _off_diagonal_hypothesis_holds(m, fq):
            good = generated
            if generated:
                partial = closure(gens[: -fq.r], group.oracle(), p=fq.p)
                good = partial.order < sylow_order(m, fq, k)
            details.append(f"({m},{q},{k}):{'yes' if good else 'NO'}")
        else:
            # the Sylow found by membership needs more than m*r generators,
            # and the standard generators close up to a proper subgroup of it
            sylow = brute_force_sylow(m, fq, k)
            d = frattini_dimension_of(sylow, group.oracle(), fq.p)
            spanned = frozenset(closure(gens, group.oracle(), p=fq.p).elements)
            good = (
                len(sylow) == sylow_order(m, fq, k)
                and d > m * fq.r
                and not generated
                and spanned < sylow
            )
            details.append(
                f"({m},{q},{k}):{'refuted' if good else 'NO'}"
                f" d={d} vs m*r={m * fq.r}, closure {len(spanned)} of {len(sylow)}"
            )
        ok = ok and good
    report(
        "criterion 7 standard generators generate, corner generator needed",
        ok,
        "; ".join(details)
        + " [claimed where p > max |a_ij| of A_{m-1}^(1), refuted where not]",
    )


def test_c08_commutator_identity():
    t0 = time.perf_counter()
    ok = True
    cases = 0
    for q in (2, 3, 4):
        fq = _fq(q)
        for r_val in range(q):
            for s_val in range(q):
                for m_exp in range(1, 4):
                    for n_exp in range(1, 4):
                        ok = ok and commutator_identity_check(
                            fq, r_val, s_val, m_exp, n_exp, 10
                        )
                        cases += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8 rank-1 commutator identity over F_2, F_3, F_4",
        ok and elapsed < 10.0,
        f"{cases} cases at truncation 10, elapsed {elapsed:.2f}s < 10s",
    )


def test_c09_filtration_lemma():
    ok = True
    details = []
    fq = _fq(3)
    for k in (2, 3, 4):
        sylow = IwahoriSylow(2, fq, k, DEFAULT_CAP)
        table = sylow.table
        V = derived_subgroup(table, fq.p)
        chain = [congruence_subgroup(sylow, i) for i in range(2, k + 1)]
        res = check_filtration_lemma(table, chain, V)
        good = (
            all(res["normal"])
            and res["hypothesis_holds"]
            and bool(res["conclusion_holds"])
        )
        ok = ok and good
        details.append(f"k={k}:{'ok' if good else 'NO'}")
    report(
        "criterion 9 congruence filtration hypothesis and conclusion, V=[G,G]",
        ok,
        "; ".join(details),
    )


def test_c10_tits_axioms():
    ok = True
    details = []
    for m, q in ((2, 2), (2, 3), (3, 2)):
        fq = _fq(q)
        group, table = enumerate_special_linear(m, fq)
        res = verify_tits_axioms(
            table,
            borel_subgroup(group, table),
            monomial_subgroup(group, table),
            weyl_representatives(group),
        )
        good = all(res.values())
        ok = ok and good
        details.append(f"SL_{m}(F_{q}):{'ok' if good else 'NO'}")
    report(
        "criterion 10 Tits axioms and Bruhat partition for three SL groups",
        ok,
        "; ".join(details),
    )


def test_c11_nonsimple_root_closure(theorem1_reports):
    ok = True
    details = []
    for name, gcm, q, cutoff in THEOREM1_INSTANCES:
        rep = theorem1_reports[(name, q)]
        lhs, rhs = rep["thm_ii_lhs_order"], rep["thm_ii_rhs_order"]
        if classify(gcm).tag == "finite":
            ok = ok and lhs == rhs
            details.append(f"{name},q={q}: {lhs}={rhs}")
        else:
            details.append(f"{name},q={q}: reported {lhs} vs {rhs} (not asserted)")
    report(
        "criterion 11 Frattini vs non-simple real root closure",
        ok,
        "; ".join(details),
    )


def test_c12_property_suites():
    suites = []

    # group axioms: associativity, identity, inverse on both models
    rng = random.Random(120)
    from kmsylow import UnipotentModel

    model = UnipotentModel(A2, _fq(5), 3)
    bch = model.oracle()
    cases = 0
    ok = True
    for _ in range(600):
        x, y, z = (
            bytes(rng.randrange(5) for _ in range(model.dim)) for _ in range(3)
        )
        ok = ok and bch.mul(bch.mul(x, y), z) == bch.mul(x, bch.mul(y, z))
        ok = ok and bch.mul(x, bch.inv(x)) == bch.identity
        ok = ok and bch.mul(x, bch.identity) == x
        cases += 3
    table = IwahoriSylow(2, _fq(3), 2, DEFAULT_CAP).table
    oracle = table.oracle
    elems = table.elements
    for _ in range(200):
        a, b, c = (rng.choice(elems) for _ in range(3))
        ok = ok and oracle.mul(oracle.mul(a, b), c) == oracle.mul(a, oracle.mul(b, c))
        ok = ok and oracle.mul(a, oracle.inv(a)) == oracle.identity
        cases += 2
    suites.append(("group axioms", cases, ok))

    # exponent p in the truncated series model
    rng = random.Random(121)
    cases = 0
    ok = True
    for gcm, q, cutoff in ((A2, 5, 3), (B2, 5, 4), (G2, 7, 4)):
        fq = _fq(q)
        m2 = UnipotentModel(gcm, fq, cutoff)
        oracle2 = m2.oracle()
        for _ in range(350):
            x = bytes(rng.randrange(q) for _ in range(m2.dim))
            ok = ok and _power(oracle2, x, fq.p) == oracle2.identity
            cases += 1
    suites.append(("exponent p", cases, ok))

    # congruence subgroups are normal under random conjugation
    rng = random.Random(122)
    cases = 0
    ok = True
    sylow3 = IwahoriSylow(2, _fq(3), 3, DEFAULT_CAP)
    table3 = sylow3.table
    oracle3 = table3.oracle
    for i in (2, 3):
        K = congruence_subgroup(sylow3, i)
        for _ in range(500):
            g = rng.choice(table3.elements)
            x = rng.choice(K.elements)
            ok = ok and oracle3.mul(oracle3.mul(g, x), oracle3.inv(g)) in K
            cases += 1
    suites.append(("filtration normality", cases, ok))

    # Weyl action preserves the real/imaginary/non-root verdict
    rng = random.Random(123)
    cases = 0
    ok = True
    for gcm in (G2, AFF):
        labels = list(gcm.labels)
        for _ in range(500):
            coords = [rng.randrange(5) for _ in labels]
            if not any(coords):
                coords[rng.randrange(len(coords))] = 1
            alpha = RootVector.from_coords(dict(zip(labels, coords)))
            word = tuple(rng.choice(labels) for _ in range(rng.randrange(1, 7)))
            moved = weyl_apply(gcm, word, alpha)
            ok = ok and root_status(gcm, moved).tag == root_status(gcm, alpha).tag
            cases += 1
    suites.append(("Weyl invariance", cases, ok))

    # closure result is independent of generator order and redundancy
    rng = random.Random(124)
    cases = 0
    ok = True
    fq3 = _fq(3)
    full = IwahoriSylow(2, fq3, 2, DEFAULT_CAP).table
    base = sylow_generators(2, fq3, 2)
    for _ in range(1000):
        gens = list(base)
        gens.append(rng.choice(full.elements))
        rng.shuffle(gens)
        got = closure(gens, full.oracle, p=3)
        ok = ok and frozenset(got.elements) == frozenset(full.elements)
        cases += 1
    suites.append(("closure order-independence", cases, ok))

    all_ok = all(flag for _, _, flag in suites)
    total = sum(n for _, n, _ in suites)
    detail = "; ".join(f"{name}: {n} cases" for name, n, _ in suites)
    report(
        "criterion 12 randomized property suites, seeded, zero failures",
        all_ok and all(n >= 1000 for _, n, _ in suites),
        detail + f"; {total} total",
    )
