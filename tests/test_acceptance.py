"""Acceptance suite: every headline claim at its stated tolerance.

Each test delegates to the verification engine in ``algflow.checks`` (the
same code behind ``algflow verify-theorems``) and prints one PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math

import numpy as np

from algflow.algebra import change_of_basis, to_2x4
from algflow.checks import (
    check_associativity_census,
    check_basis_change_oracle,
    check_canonical_reduction,
    check_commutative_locus,
    check_invariant_separation,
    check_iso_grid,
    check_kce,
    check_plus_minus_mirror,
    check_product_associativity,
)
from algflow.classification import (
    ACOS_MINUS,
    FlowClassLabel,
    bekbaev_matrix,
    class_representative,
    classify_time,
    to_bekbaev,
)
from algflow.flow import flow_algebra
from algflow.isomorphism import iso_search, rotation_iso


def report(result):
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_composition_law():
    """1000 random ordered triples in [0, 20], residual < 1e-12."""
    report(check_kce(tol=1e-12))


def test_criterion_2_commutative_locus():
    """10^4-point grid on [0, 4*pi]: commutative exactly at 3*pi/4 + pi*n."""
    report(check_commutative_locus(tol=1e-9))


def test_criterion_3_sign_mirror():
    """Negated basis maps the (c, s) algebra to the (-c, -s) one, residual 0."""
    report(check_plus_minus_mirror(tol=1e-12))


def test_criterion_4_isomorphism_grid():
    """50x50 time grid: isomorphic iff sin(t2-t1)=0; labels agree."""
    report(check_iso_grid(tol=1e-9))


def test_criterion_5_canonical_reductions():
    """Explicit basis changes reach the canonical matrices on both branches."""
    report(check_canonical_reduction(tol=1e-12))


def test_criterion_6_associativity_census():
    """Associative exactly on {A1, A2}; defect above 0.1 at c = 0.5."""
    report(check_associativity_census(margin=0.1))


def test_criterion_7_invariant_separation():
    """A0Plus vs A1: split by associativity; search exhausts its budget."""
    report(check_invariant_separation())


def test_criterion_8_basis_change_oracle():
    """Transformation formula vs brute-force re-derivation, 500 trials."""
    report(check_basis_change_oracle(tol=1e-10))


def test_criterion_9_product_associativity():
    """1000 random tensor triples of dim <= 4 under the slice-wise product."""
    report(check_product_associativity(tol=1e-12))


def test_kce_detail_matches_the_triple_loop():
    """The one-pass residual reports what the loop over triples reported."""
    detail = check_kce().detail
    assert detail.startswith("max residual 2.78e-15 over 1000 triples (tol 1e-12, ")


def test_timed_checks_pass_on_a_slow_host(monkeypatch):
    """A correct result passes however long it took; the time is only reported."""
    import algflow.checks

    clock = iter(range(0, 10**6, 1000))
    monkeypatch.setattr(algflow.checks.time, "perf_counter", lambda: float(next(clock)))
    kce = check_kce()
    grid = check_iso_grid()
    assert kce.passed and kce.detail.endswith("1000.00s)")
    assert grid.passed and grid.detail.endswith("(1000.00s)")


# --- spot checks pinning individual numbers used above ------------------------


def test_generic_plus_reduction_matches_closed_form():
    t = 0.9
    _, cert = to_bekbaev(classify_time(t))
    moved = to_2x4(change_of_basis(class_representative(classify_time(t)), cert)).values
    target = np.array([
        [0.5, 0.0, 0.0, 1.0],
        [0.0, -math.sin(t) / (2 * math.cos(t)), 0.5, 0.0],
    ])
    assert np.max(np.abs(moved - target)) < 1e-12


def test_minus_reduction_certified_residual():
    label = FlowClassLabel(ACOS_MINUS, 0.37)
    form, cert = to_bekbaev(label)
    from algflow.algebra import from_2x4
    from algflow.isomorphism import iso_residual

    residual = iso_residual(
        class_representative(label), from_2x4(bekbaev_matrix(form)), cert
    )
    assert residual <= 1e-10


def test_flow_representative_isomorphic_to_flow_algebra():
    rng = np.random.default_rng(3)
    hits = 0
    for _ in range(100):
        t = float(rng.uniform(0.02, 2 * math.pi))
        label = classify_time(t)
        if label.c is not None and min(label.c, 1 - label.c) < 1e-3:
            continue  # skip near the class boundaries
        verdict = iso_search(flow_algebra(t), class_representative(label))
        assert verdict.is_isomorphic and verdict.residual <= 1e-9
        hits += 1
    assert hits > 80


def test_rotation_iso_cross_validated_by_search():
    rng = np.random.default_rng(41)
    for _ in range(25):
        t1 = float(rng.uniform(0.1, math.pi / 2 - 0.1))
        t2 = t1 + float(rng.integers(0, 3)) * math.pi
        assert rotation_iso(t1, t2).is_isomorphic
        assert iso_search(flow_algebra(t1), flow_algebra(t2)).is_isomorphic
