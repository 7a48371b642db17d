"""Acceptance gate: one test per top-level criterion.

Each test prints a single `criterion-N ... PASS/FAIL` line (visible with
`pytest -s` or on failure) and asserts correctness, the number of checks
(a faster suite must check the same cases) and, where a budget is stated,
wall-clock runtime.
"""

import time

from skewcodes.verify import (
    check_associativity_criterion,
    check_catalogue_structure,
    check_counting_formulas,
    check_filter_soundness,
    check_parameter_preservation,
    check_structural_identities,
    check_witness_soundness,
)


def _gate(num, label, report, elapsed, checked, budget=None):
    verdict = "PASS" if report["passed"] and (budget is None or elapsed <= budget) else "FAIL"
    print(f"criterion-{num} {label}: {verdict} "
          f"({report['checked']} checks, {report['failure_count']} failures, "
          f"{elapsed:.1f}s)")
    assert report["passed"], report["failures"]
    assert report["checked"] == checked, f"{report['checked']} checks, expected {checked}"
    if budget is not None:
        assert elapsed <= budget, f"runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_associativity():
    """Brute-force associativity of t^m - d equals (d fixed by sigma and n | m)."""
    t0 = time.time()
    rep = check_associativity_criterion()
    _gate(1, "associativity criterion", rep, time.time() - t0, checked=108, budget=60)


def test_criterion_2_counting():
    """Coset enumeration equals the closed counting formulas, p^r <= 16, m <= 6."""
    t0 = time.time()
    rep = check_counting_formulas()
    _gate(2, "counting-formula agreement", rep, time.time() - t0, checked=92, budget=10)


def test_criterion_3_witness_soundness():
    """Certified witnesses always induce multiplicative maps (GF(4), deg 2 and 3)."""
    t0 = time.time()
    rep = check_witness_soundness()
    _gate(3, "witness soundness", rep, time.time() - t0, checked=408, budget=30)


def test_criterion_4_catalogue_structure():
    """GF(4), m = 2: 3 Chen classes collapse to 2 full classes."""
    t0 = time.time()
    rep = check_catalogue_structure()
    _gate(4, "tighter classification", rep, time.time() - t0, checked=2, budget=1)


def test_criterion_5_parameter_preservation():
    """Divisor bijection preserves (length, dim, min distance) on equivalent pairs."""
    t0 = time.time()
    rep = check_parameter_preservation()
    _gate(5, "code-parameter preservation", rep, time.time() - t0, checked=4013, budget=30)


def test_criterion_6_filter_soundness():
    """fast_reject never fires when a witness exists (GF(4), degree <= 3)."""
    t0 = time.time()
    rep = check_filter_soundness()
    _gate(6, "filter soundness", rep, time.time() - t0, checked=4368, budget=300)


def test_criterion_7_structural_identities():
    """Division reconstruction, psi anti-multiplicativity, norm cocycle, shift closure."""
    t0 = time.time()
    rep = check_structural_identities()
    _gate(7, "structural identities", rep, time.time() - t0, checked=708066, budget=120)
