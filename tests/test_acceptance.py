"""Acceptance suite: nine criteria, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every criterion also asserts, so a plain pytest run fails loudly
if any of them regresses.  Time limits are wall-clock and pinned here.
"""

import random
import time

from qpolar import (
    DomainError,
    FieldElement,
    SymplecticVector,
    all_points,
    all_words,
    commutes,
    commutes_matrix,
    desarguesian_spread,
    dual_basis,
    enumerate_generators,
    enumerate_spreads,
    fmul,
    gq22_structure_check,
    pauli_to_vector,
    perp_census,
    polynomial_basis,
    rref,
    span_points,
    sp_form,
    trace,
    vector_to_pauli,
)

SEED = 20260826


def report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_point_counts_by_enumeration():
    t0 = time.perf_counter()
    counts = {n: sum(1 for _ in all_points(n)) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    ok = counts == {1: 3, 2: 15, 3: 63, 4: 255} and elapsed < 1.0
    report(1, ok, f"counts={counts}, {elapsed:.3f}s (limit 1s)")


def test_criterion_2_generator_counts_by_enumeration():
    t0 = time.perf_counter()
    counts = {n: len(enumerate_generators(n)) for n in (1, 2, 3, 4)}
    elapsed = time.perf_counter() - t0
    ok = counts == {1: 3, 2: 15, 3: 135, 4: 2295} and elapsed < 30.0
    report(2, ok, f"counts={counts}, {elapsed:.2f}s (limit 30s)")


def test_criterion_3_generator_sizes():
    bad = 0
    for n in (1, 2, 3, 4):
        want = (1 << n) - 1
        bad += sum(1 for g in enumerate_generators(n) if len(span_points(g)) != want)
    ok = bad == 0
    report(3, ok, f"{bad} generators with the wrong point count across N=1..4")


def test_criterion_4_spread_partitions():
    ok = True
    elapsed5 = 0.0
    for n in (1, 2, 3, 4, 5):
        t0 = time.perf_counter()
        s = desarguesian_spread(n)
        dt = time.perf_counter() - t0
        if n == 5:
            elapsed5 = dt
        covered = set()
        ok = ok and len(s.blocks) == (1 << n) + 1
        for b in s.blocks:
            pts = {p.key for p in span_points(b)}
            ok = ok and not (covered & pts)
            covered |= pts
        ok = ok and covered == {p.key for p in all_points(n)}
    ok = ok and elapsed5 < 5.0
    report(4, ok, f"N=1..5 all partition, N=5 built in {elapsed5:.3f}s (limit 5s)")


def test_criterion_5_non_perp_census():
    bad = 0
    for n in (1, 2, 3, 4):
        want = 1 << (2 * n - 1)
        bad += sum(1 for p in all_points(n) if perp_census(p)[1] != want)
    ok = bad == 0
    report(5, ok, f"{bad} points with a census off 2^(2N-1) across N<=4")


def test_criterion_6_oracle_equivalence():
    t0 = time.perf_counter()
    pairs = 0
    mismatches = 0
    for n in (1, 2, 3):
        words = [vector_to_pauli(p) for p in all_points(n)]
        for p in words:
            for q in words:
                pairs += 1
                if commutes(p, q) != commutes_matrix(p, q):
                    mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = pairs == 9 + 225 + 3969 and mismatches == 0 and elapsed < 60.0
    report(6, ok, f"{pairs} ordered pairs, {mismatches} mismatches, {elapsed:.1f}s (limit 60s)")


def test_criterion_7_gq22_structure():
    r = gq22_structure_check()
    ok = r.passed
    report(
        7,
        ok,
        f"points={r.point_count} lines={r.line_count} per-line={r.points_per_line} "
        f"per-point={r.lines_per_point} partners={r.collinear_partners} "
        f"violations={r.axiom_violations}",
    )


def test_criterion_8_exhaustive_spread_search():
    first = enumerate_spreads(2)
    second = enumerate_spreads(2)
    keys1 = [s.sort_key() for s in first]
    keys2 = [s.sort_key() for s in second]
    valid = True
    for s in first:
        try:
            s.validate()
        except DomainError:
            valid = False
    rediscovered = desarguesian_spread(2).sort_key() in keys1
    ok = len(first) == 6 and keys1 == keys2 and valid and rediscovered
    report(
        8,
        ok,
        f"{len(first)} spreads, all valid={valid}, desarguesian rediscovered={rediscovered}, "
        f"repeat run identical={keys1 == keys2} (search is single-threaded and deterministic)",
    )


def test_criterion_9_property_suites():
    rng = random.Random(SEED)
    failures = []

    for n in (1, 2, 3):
        if any(sp_form(p, p) for p in all_points(n)):
            failures.append("alternation")
        if not all(any(sp_form(p, q) for q in all_points(n)) for p in all_points(n)):
            failures.append("non-degeneracy")
    for _ in range(300):
        n = rng.choice((2, 3, 4, 5))
        u, v, w = (
            SymplecticVector(n, rng.randrange(1 << n), rng.randrange(1 << n))
            for _ in range(3)
        )
        if sp_form(u ^ w, v) != sp_form(u, v) ^ sp_form(w, v):
            failures.append("bilinearity")
            break

    for _ in range(100):
        n = rng.choice((2, 3, 4))
        batch = [
            SymplecticVector(n, rng.randrange(1 << n), rng.randrange(1 << n))
            for _ in range(n + 1)
        ]
        s = rref(batch, n_qubits=n)
        shuffled = batch[:]
        rng.shuffle(shuffled)
        if rref(s.basis, n_qubits=n) != s or rref(shuffled, n_qubits=n) != s:
            failures.append("rref-idempotence")
            break
        if span_points(rref(shuffled, n_qubits=n)) != span_points(s):
            failures.append("rref-span")
            break

    for n in (1, 2, 3, 4, 5):
        for _ in range(100):
            a, b, c = (FieldElement(n, rng.randrange(1 << n)) for _ in range(3))
            if (
                fmul(a, b) != fmul(b, a)
                or fmul(fmul(a, b), c) != fmul(a, fmul(b, c))
                or fmul(a, b ^ c) != fmul(a, b) ^ fmul(a, c)
            ):
                failures.append("field-axioms")
                break
        primal = polynomial_basis(n)
        dual = dual_basis(primal)
        if len(dual) != n or any(
            trace(fmul(primal[i], dual[j])) != (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        ):
            failures.append("dual-basis")

    for n in (1, 2, 3, 4):
        words = [w for w in all_words(n) if set(w) != {"I"}]
        vecs = [pauli_to_vector(w) for w in words]
        if len(set(vecs)) != len(words) or set(vecs) != set(all_points(n)):
            failures.append("bijection")
        if any(vector_to_pauli(v) != w for w, v in zip(words, vecs)):
            failures.append("round-trip")

    ok = not failures
    detail = (
        f"seed {SEED}: alternation, bilinearity, non-degeneracy, rref, field axioms, "
        "dual basis, bijection all green"
        if ok
        else f"failed: {sorted(set(failures))}"
    )
    report(9, ok, detail)
