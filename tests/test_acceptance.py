"""Acceptance suite: every headline claim at its stated tolerance.

Each test delegates to the verification engine in ``algflow.checks`` (the
same code behind ``algflow verify-theorems``) and prints one PASS/FAIL line;
run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math

import numpy as np
import pytest

import algflow.algebra
import algflow.checks
import algflow.classification
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
    A0_PLUS,
    A1,
    A2,
    ACOS_MINUS,
    ACOS_PLUS,
    CLASS_PREDICATES,
    VARIANTS,
    FlowClassLabel,
    bekbaev_matrix,
    class_representative,
    classify_time,
    residue_times,
    to_bekbaev,
)
from algflow.cubic import type_c_products
from algflow.flow import flow_algebra, flow_tensors, reduce_mod_pi
from algflow.isomorphism import iso_search, rotation_iso, rotation_isomorphic


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


class _RecordedDraws:
    """A generator that records the shape of each ``uniform`` draw it hands out."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def uniform(self, low, high, size):
        self.sizes.append(size)
        return self.rng.uniform(low, high, size)


def _in_window(p):
    """0.5 < |det P| <= 2 for each matrix of a stack, by its own determinant."""
    det = np.abs(p[:, 0, 0] * p[:, 1, 1] - p[:, 0, 1] * p[:, 1, 0])
    return (0.5 < det) & (det <= 2.0)


# The seeds and sizes the retired replay test ran, and a small sample: each reads the
# stream for matrices several times over.
@pytest.mark.parametrize("seed, trials", [
    *((seed, algflow.checks._ORACLE_TRIALS) for seed in (algflow.checks._SEED, *range(50))),
    *((seed, 2000) for seed in (7, 8, 9)), (7, 3)])
def test_oracle_draws(seed, trials):
    rng = _RecordedDraws(seed)
    c, p = algflow.checks._oracle_draws(rng, trials)
    assert c.shape == (trials, 2, 2, 2) and p.shape == (trials, 2, 2)
    assert _in_window(p).all() and (np.abs(p) <= 2.0).all()
    assert len(rng.sizes) > 2  # the first draw of matrices ran short and was topped up
    # The same bytes for the seed: the tensors, then the first matrices in the window of
    # the stream that follows them, drawn here in one go.
    stream = np.random.default_rng(seed)
    tensors = stream.uniform(-1.0, 1.0, size=(trials, 2, 2, 2))
    tries = stream.uniform(-2.0, 2.0, size=(10 * trials, 2, 2))
    kept = tries[_in_window(tries)][:trials]
    assert c.tobytes() == tensors.tobytes() and p.tobytes() == kept.tobytes()
    # The written-out products of the oracle are einsum's, bit for bit.
    assert (algflow.checks._old_coordinates(c, p).tobytes()
            == np.einsum("nip,njq,npqk->nijk", p, p, c).tobytes())


def test_oracle_products_keep_einsum_signs_of_zeros():
    # einsum sums from +0.0, so a sum of -0.0 terms is +0.0.
    rng = np.random.default_rng(0)
    values = [-0.0, 0.0, 1.0, -1.0]
    c, p = rng.choice(values, size=(4096, 2, 2, 2)), rng.choice(values, size=(4096, 2, 2))
    expected = np.einsum("nip,njq,npqk->nijk", p, p, c)
    assert algflow.checks._old_coordinates(c, p).tobytes() == expected.tobytes()
    assert np.count_nonzero(expected == 0.0) > 1000


def test_canonical_minus_branch_stacks_equal_the_per_label_objects(monkeypatch):
    real, calls = algflow.checks.iso_residuals, []
    monkeypatch.setattr(algflow.checks, "iso_residuals",
                        lambda *stacks: calls.append(stacks) or real(*stacks))
    assert check_canonical_reduction().passed
    representatives, targets, _ = calls[1]  # after the plus branch's
    labels = [FlowClassLabel(ACOS_MINUS, c) for c in np.linspace(0.05, 0.95, 50).tolist()]
    assert representatives.tobytes() == np.array(
        [class_representative(label).constants.values for label in labels]).tobytes()
    assert targets.tobytes() == np.array(
        [bekbaev_matrix(to_bekbaev(label)[0]).T.reshape(2, 2, 2) for label in labels]).tobytes()


def test_basis_oracle_fails_on_a_wrong_inverse(monkeypatch):
    """The transform with P^T in place of P^-1 disagrees with the re-derivation."""
    def transposed(ca, cb, p):
        moved = np.einsum("nip,njq,npqr,nkr->nijk", p, p, ca, p)
        return np.abs(moved - cb).max(axis=(1, 2, 3))

    monkeypatch.setattr(algflow.checks, "iso_residuals", transposed)
    result = check_basis_change_oracle()
    assert result.line().startswith("FAIL  basis-oracle"), result.line()


def test_basis_oracle_fails_on_one_wrong_entry_of_the_algebra_inverse(monkeypatch):
    """The formula side takes P^-1 from ``algebra.inverse_entries``; the re-derivation
    reads none of its code, so a fault there shows instead of cancelling out."""
    real = algflow.algebra.inverse_entries

    def wrong(a, b, c, d):
        (e, f), row = real(a, b, c, d)
        return (e, -f), row

    monkeypatch.setattr(algflow.algebra, "inverse_entries", wrong)
    result = check_basis_change_oracle()
    assert result.line().startswith("FAIL  basis-oracle"), result.line()


def test_product_assoc_fails_on_a_non_associative_term(monkeypatch):
    monkeypatch.setattr(algflow.checks, "type_c_products",
                        lambda a, b: type_c_products(a, b) + 1e-9 * a * a)
    result = check_product_associativity()
    assert result.line().startswith("FAIL  product-assoc"), result.line()


def test_product_sample_covers_every_dim(monkeypatch):
    """Triples of dim 2, 3 and 4, 1000 in all, as the detail line reports."""
    counts = {}

    def recording(a, b):
        counts[a.shape[1]] = len(a)  # every product of one dim is over all its triples
        return type_c_products(a, b)

    monkeypatch.setattr(algflow.checks, "type_c_products", recording)
    report(check_product_associativity())
    assert sorted(counts) == [2, 3, 4] and min(counts.values()) > 250
    assert sum(counts.values()) == algflow.checks._PRODUCT_TRIALS == 1000


def test_timed_checks_pass_on_a_slow_host(monkeypatch):
    """A correct result passes however long it took; the time is only reported."""
    clock = iter(range(0, 10**6, 1000))
    monkeypatch.setattr(algflow.checks.time, "perf_counter", lambda: float(next(clock)))
    kce = check_kce()
    grid = check_iso_grid()
    assert kce.passed and kce.detail.endswith("1000.00s)")
    assert grid.passed and grid.detail.endswith("(1000.00s)")


def test_iso_grid_fails_on_flipped_verdicts(monkeypatch):
    """Every pair counts as a mismatch when the decider answers the opposite."""
    monkeypatch.setattr(algflow.checks, "rotation_isomorphic",
                        lambda t1, t2, tol: ~rotation_isomorphic(t1, t2, tol))
    line = check_iso_grid().line()
    assert line.startswith("FAIL  iso-grid       2500 mismatches over 2500 pairs"), line


def test_iso_grid_fails_on_wrong_labels(monkeypatch):
    """Labels that put every time in one class disagree on the non-isomorphic pairs."""
    monkeypatch.setattr(algflow.checks, "classify_times", lambda t: (
        np.full(len(t), VARIANTS.index(A1)), np.full(len(t), np.nan)))
    result = check_iso_grid()
    assert result.line().startswith("FAIL  iso-grid") and not result.detail.startswith("0 ")


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.3, 0.7])
def test_locus_passes_at_every_distance_in_t(tol):
    """tol is a distance to the locus; the residuals are held to what it converts to."""
    report(check_commutative_locus(tol=tol))


def test_locus_fails_on_a_perturbed_tensor(monkeypatch):
    """One entry of the tensor at the first time on the locus, moved by 1e-3."""
    on_locus = residue_times(3 * math.pi / 4, math.pi)[0]

    def perturbed(d):
        tensors = flow_tensors(d)
        tensors[d == on_locus, 0, 1, 0] += 1e-3
        return tensors

    monkeypatch.setattr(algflow.checks, "flow_tensors", perturbed)
    line = check_commutative_locus().line()
    assert line.startswith("FAIL  locus          1 mismatches"), line


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-9, 1e-3, 0.1, 0.125, 2.247e-16])
def test_iso_grid_passes_at_every_tol_it_resolves(tol):
    report(check_iso_grid(tol=tol))


def test_iso_grid_decides_at_rounding_scale_tols(monkeypatch):
    """Below the certificate's rounding scale, t and t + pi are not judged, so working
    code passes; the pairs still judged make flipped verdicts fail at every such tol."""
    tols = 10.0 ** np.random.default_rng(14).uniform(-17.0, -13.0, size=40)
    assert all(check_iso_grid(float(tol)).passed for tol in tols)
    monkeypatch.setattr(algflow.checks, "rotation_isomorphic",
                        lambda t1, t2, tol: ~rotation_isomorphic(t1, t2, tol))
    assert not any(check_iso_grid(float(tol)).passed for tol in tols)


@pytest.mark.parametrize("tol", [math.sin(2 * math.pi / 50), 0.2, 1e300])
def test_iso_grid_refuses_a_tol_its_grid_cannot_resolve(monkeypatch, tol):
    """From sin(2*pi/50), neighbouring grid points would count as isomorphic."""
    calls = []
    monkeypatch.setattr(algflow.checks, "rotation_isomorphic", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"not below sin\(2 pi / 50\) = 0\.1253"):
        check_iso_grid(tol)
    assert calls == []


def test_iso_grid_fails_on_wrong_residues(monkeypatch):
    """Labels of one continuous variant are compared by residue in t: residues
    that put every time at one place make non-isomorphic pairs agree."""
    monkeypatch.setattr(algflow.checks, "reduce_mod_pi",
                        lambda t: (np.zeros_like(t), np.ones_like(t)))
    result = check_iso_grid()
    assert result.line().startswith("FAIL  iso-grid") and not result.detail.startswith("0 ")


def iso_grid_pairs_by_loop(tol, rows):
    """Rows of the iso-grid's four matrices as its former loop over pairs judged
    them, one ``classify_time`` per time and one ``rotation_iso`` per pair: the oracle."""
    n = algflow.checks._ISO_GRID_N
    times = [k * 2 * math.pi / n for k in range(n)]
    points = [(t, classify_time(t), reduce_mod_pi(t)[1]) for t in times]
    judged, expected, isomorphic, same = np.zeros((4, len(rows), n), dtype=bool)
    for row, i in enumerate(rows):
        t1, label1, r1 = points[i]
        for j, (t2, label2, r2) in enumerate(points):
            gap = abs(math.sin(t2 - t1))
            judged[row, j] = not (tol < gap < algflow.checks._ISO_EXCLUSION
                                  or 0.0 < gap <= tol < algflow.checks._ISO_ROUNDING)
            expected[row, j] = gap <= tol
            isomorphic[row, j] = rotation_iso(t1, t2, tol).is_isomorphic
            same[row, j] = label1.variant == label2.variant and (
                label1.c is None or abs(r2 - r1) <= tol)
    return judged, expected, isomorphic, same


# Every tol the iso-grid tests above use, with all rows of the grid; then 400 seeded
# tols from below rounding scale to the grid's limit, with 5 seeded rows each.
ISO_GRID_CASES = [(tol, np.arange(50)) for tol in sorted({
    0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.1, 0.125, 2.247e-16,
    *map(float, 10.0 ** np.random.default_rng(14).uniform(-17.0, -13.0, size=40))})]
ISO_GRID_CASES += [
    (float(tol), np.random.default_rng(i).choice(50, size=5, replace=False))
    for i, tol in enumerate(10.0 ** np.random.default_rng(15).uniform(
        -17.0, math.log10(0.125), size=400))]


def test_iso_grid_judges_every_pair_as_its_loop_did():
    for tol, rows in ISO_GRID_CASES:
        by_arrays = algflow.checks._iso_grid_pairs(tol)
        for name, got, want in zip(("judged", "expected", "isomorphic", "same"),
                                   by_arrays, iso_grid_pairs_by_loop(tol, rows)):
            assert np.array_equal(got[rows], want), (tol, name)


@pytest.mark.parametrize("variant, entry", [(A2, (False, True)), (A0_PLUS, (False, True))])
def test_census_fails_on_a_wrong_table_entry(monkeypatch, variant, entry):
    """The census holds both predicates of every representative to the table."""
    monkeypatch.setitem(CLASS_PREDICATES, variant, entry)
    line = check_associativity_census().line()
    assert line.startswith("FAIL  census         census over 21 classes DIVERGES"), line


def test_canonical_fails_when_a_grid_reduction_raises(monkeypatch):
    """A plus-branch P off by a factor 2: ``to_bekbaev`` raises on ACosPlus, and the
    array path that certifies the grid's continuous labels refuses them too."""
    kernel = algflow.classification._acos_reduction

    def doubled_on_the_plus_branch(c, s, sqrt):
        param, ((a, b), (c_, d)), target = kernel(c, s, sqrt)
        k = 1.0 + (s > 0)
        return param, ((a * k, b * k), (c_ * k, d * k)), target

    monkeypatch.setattr(algflow.classification, "_acos_reduction", doubled_on_the_plus_branch)
    with pytest.raises(AssertionError, match="canonical reduction residual"):
        to_bekbaev(FlowClassLabel(ACOS_PLUS, 0.5))
    line = check_canonical_reduction().line()
    assert line.startswith("FAIL  canonical") and line.endswith("label grid FAILED"), line
    assert "minus-branch max residual" in line, line


def test_canonical_fails_when_the_a2_reduction_raises(monkeypatch):
    """Only the label grid reduces A2, so the grid must hold an A2 time."""
    def to_bekbaev_failing_a2(label):
        if label.variant == A2:
            raise AssertionError("canonical reduction residual too large")
        return to_bekbaev(label)

    monkeypatch.setattr(algflow.checks, "to_bekbaev", to_bekbaev_failing_a2)
    line = check_canonical_reduction().line()
    assert line.startswith("FAIL  canonical") and line.endswith("label grid FAILED"), line


# --- spot checks pinning individual numbers used above ------------------------


def test_generic_plus_reduction_matches_closed_form():
    t = 0.9
    _, cert = to_bekbaev(classify_time(t))
    moved = to_2x4(change_of_basis(class_representative(classify_time(t)), cert))
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
