"""Algebra semantics: products, predicates, change of basis, 2 x 4 form."""

import math
import re

import numpy as np
import pytest

from algflow.algebra import (
    DEFAULT_TOL,
    AlgebraFD,
    BasisChange,
    _inverse,
    algebra_from_json_dict,
    algebra_to_json_dict,
    associativity_residual,
    associativity_residual_entries,
    associativity_residuals,
    change_of_basis,
    commutativity_residual,
    commutativity_residual_entries,
    commutativity_residuals,
    det_in_window,
    determinant,
    from_2x4,
    is_associative,
    is_commutative,
    iso_residual,
    iso_residual_entries,
    iso_residuals,
    product,
    random_invertible,
    rank_2x4,
    rank_2x4_entries,
    to_2x4,
)
from algflow.classification import EXCEPTIONAL_RESIDUES, classify_time, classify_times
from algflow.cubic import CubicTensor
from algflow.flow import flow_algebra, flow_tensors
from algflow.isomorphism import SearchConfig, rotation_iso

RNG = np.random.default_rng(99)


def random_algebra(m: int = 2) -> AlgebraFD:
    return AlgebraFD(CubicTensor(RNG.uniform(-1.0, 1.0, size=(m, m, m))))


def well_conditioned_change(rng=RNG) -> BasisChange:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        if 0.5 <= abs(np.linalg.det(m)) <= 2.0:
            return BasisChange(m)


class TestProduct:
    def test_flow_table_e1e1(self):
        t = 1.234
        assert np.allclose(
            product(flow_algebra(t), [1, 0], [1, 0]), [math.cos(t), math.sin(t)]
        )

    def test_flow_table_e2e1(self):
        t = 1.234
        assert np.allclose(
            product(flow_algebra(t), [0, 1], [1, 0]), [-math.sin(t), math.cos(t)]
        )

    def test_zero_left_factor(self):
        a = random_algebra()
        assert np.array_equal(product(a, [0, 0], RNG.uniform(size=2)), [0.0, 0.0])

    def test_length_mismatch(self):
        for x in ([1.0, 0.0, 0.0], [1.0]):  # einsum alone would broadcast [1.0]
            with pytest.raises(ValueError, match="expected two vectors of length 2"):
                product(random_algebra(), x, [1.0, 0.0])


class TestPredicates:
    def test_commutative_at_three_quarters_pi(self):
        assert is_commutative(flow_algebra(3 * math.pi / 4))

    def test_not_commutative_at_zero(self):
        a = flow_algebra(0.0)
        assert a.constants.values[0, 1, 0] == 1.0
        assert a.constants.values[1, 0, 0] == 0.0
        assert not is_commutative(a)

    def test_symmetrized_tensor_is_commutative(self):
        c = RNG.uniform(-1, 1, size=(2, 2, 2))
        sym = AlgebraFD(CubicTensor(c + c.transpose(1, 0, 2)))
        assert is_commutative(sym, tol=0.0)

    def test_associative_flow_endpoints(self):
        assert is_associative(flow_algebra(0.0))  # the t = 0 class
        assert is_associative(flow_algebra(3 * math.pi / 4))  # the commutative class

    def test_flow_third_pi_not_associative(self):
        residual = associativity_residual(flow_algebra(math.pi / 3))
        assert residual > 0.1
        assert not is_associative(flow_algebra(math.pi / 3))

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            is_commutative(random_algebra(), tol=-1.0)


# Every library entry point that takes a tolerance from its caller.
TOL_TAKERS = {
    "is_commutative": lambda tol: is_commutative(flow_algebra(0.5), tol),
    "is_associative": lambda tol: is_associative(flow_algebra(0.5), tol),
    "rotation_iso": lambda tol: rotation_iso(0.5, 1.5, tol),
    "classify_time": lambda tol: classify_time(0.5, tol),
    "classify_times": lambda tol: classify_times(np.array([0.5]), tol),
    "SearchConfig": lambda tol: SearchConfig(tol=tol),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
@pytest.mark.parametrize("taker", list(TOL_TAKERS))
def test_bad_tolerance_refused(taker, tol):
    with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
        TOL_TAKERS[taker](tol)


@pytest.mark.parametrize("taker", [name for name in TOL_TAKERS if name != "SearchConfig"])
def test_zero_tolerance_accepted(taker):
    TOL_TAKERS[taker](0.0)


class TestAlgebraFD:
    @pytest.mark.parametrize("m", [1, 3])
    def test_other_dims_refused(self, m):
        with pytest.raises(ValueError, match=f"algebras are two-dimensional, got dim {m}"):
            AlgebraFD(CubicTensor(np.zeros((m, m, m))))


class TestBasisChange:
    def test_singular_rejected_at_construction(self):
        with pytest.raises(ValueError):
            BasisChange(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_inverse_is_adjugate_for_dim2(self):
        p = BasisChange(np.array([[0.5, 0.0], [-1.0, 1.0]]))
        assert np.array_equal(p.inverse(), [[2.0, 0.0], [2.0, 1.0]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            BasisChange(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3), (4,), (3, 3)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="expected a 2 x 2 matrix"):
            BasisChange(np.ones(shape))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_nonfinite_entry_named(self, entry):
        with pytest.raises(ValueError, match="all entries must be finite"):
            BasisChange([[1.0, 0.0], [entry, 1.0]])

    def test_singular_named_with_its_determinant(self):
        with pytest.raises(ValueError, match=r"singular to tolerance: \|det\| = 1\.000e-11"):
            BasisChange([[1e-11, 0.0], [0.0, 1.0]])

    def test_singular_with_overflowing_determinant_rejected(self):
        # a*d - b*c = inf - inf = nan; the entries scaled by 2**-665 decide
        with pytest.raises(ValueError, match="singular to tolerance"):
            BasisChange([[1e200, 1e200], [1e200, 1e200]])

    def test_nonsingular_with_overflowing_determinant_accepted(self):
        p = BasisChange([[1e200, 1e200], [1e200, 2e200]])
        assert p.matrix.tolist() == [[1e200, 1e200], [1e200, 2e200]]

    def test_huge_entries_accepted(self):
        # det P = 1e400 overflows to inf, and |inf| > EPS_DET.
        p = BasisChange([[1e200, 0.0], [0.0, 1e200]])
        assert p.matrix.tolist() == [[1e200, 0.0], [0.0, 1e200]]
        assert not p.matrix.flags.writeable


class TestDeterminantAndInverse:
    def test_stack_matches_per_matrix_closed_form_bit_for_bit(self):
        p = np.random.default_rng(7).uniform(-2.0, 2.0, size=(500, 2, 2))
        det, inv = determinant(p), _inverse(p)
        assert det.shape == (500,) and inv.shape == (500, 2, 2)
        for n, ((a, b), (c, d)) in enumerate(p.tolist()):
            det_n = a * d - b * c
            assert det[n] == det_n
            expected = np.array([[d / det_n, -b / det_n], [-c / det_n, a / det_n]])
            assert inv[n].tobytes() == expected.tobytes()
            assert BasisChange(p[n]).inverse().tobytes() == inv[n].tobytes()


class TestIsoResidualEntries:
    def test_agrees_with_the_array_kernel_to_its_rounding_scale(self):
        # Not bit for bit: matmul may fuse multiply and add (FMA).  The scale is the
        # size of the moved entries; 6.5 of it was the largest gap seen here.
        rng = np.random.default_rng(18)
        p = rng.uniform(-2.0, 2.0, size=(40_000, 2, 2))
        p = p[det_in_window(p, 0.1, 8.0)][:10_000]
        assert len(p) == 10_000
        ca, cb = rng.uniform(-1.0, 1.0, size=(2, len(p), 2, 2, 2))
        # Every third pair near zero residual: cB = P.P.cA.P^-1 up to rounding.
        q = p[::3]
        cb[::3] = np.einsum("nip,njq,npqr,nrk->nijk", q, q, ca[::3], _inverse(q))
        expected = iso_residuals(ca, cb, p)
        got = np.array([iso_residual_entries(a.ravel().tolist(), b.ravel().tolist(), m.tolist())
                        for a, b, m in zip(ca, cb, p)])
        scale = (np.maximum(1.0, np.abs(p).max(axis=(1, 2)) ** 2
                            * np.abs(_inverse(p)).max(axis=(1, 2)))
                 * np.abs(ca).max(axis=(1, 2, 3)) * np.finfo(float).eps)
        assert np.all(np.abs(got - expected) <= 16 * scale)

    def test_identity_gives_the_entrywise_gap_exactly(self):
        ca = [0.5, -1.0, 2.0, 0.0, 0.25, 3.0, -0.5, 1.0]
        cb = [0.5, -1.0, 2.0, 0.0, 0.25, 3.0, -0.5, 1.5]
        assert iso_residual_entries(ca, cb, ((1.0, 0.0), (0.0, 1.0))) == 0.5
        assert iso_residual_entries(ca, cb, ((-1.0, 0.0), (0.0, -1.0))) == 6.0

    @pytest.mark.parametrize("position", range(8))
    def test_nan_anywhere_gives_nan(self, position):
        cb = [0.0] * 8
        cb[position] = np.nan
        assert math.isnan(iso_residual_entries([1.0] * 8, cb, ((1.0, 0.0), (0.0, 1.0))))


class TestRandomInvertible:
    def test_det_in_window(self):
        rng = np.random.default_rng(3)
        dets = [abs(determinant(random_invertible(rng, 0.5, 2.0))) for _ in range(200)]
        assert all(0.5 < d <= 2.0 for d in dets)


class TestDetInWindow:
    def test_stack_matches_each_matrix(self):
        p = np.random.default_rng(8).uniform(-2.0, 2.0, size=(400, 2, 2))
        got = det_in_window(p, 0.5, 2.0)
        assert got.shape == (400,) and 0 < np.count_nonzero(got) < 400
        assert got.tolist() == [bool(det_in_window(m, 0.5, 2.0)) for m in p]
        assert got.tolist() == [0.5 < abs(determinant(m)) <= 2.0 for m in p]

    @pytest.mark.parametrize("det, inside", [
        (0.5, False), (np.nextafter(0.5, 1.0), True), (2.0, True),
        (np.nextafter(2.0, 3.0), False), (-2.0, True), (-0.5, False), (0.0, False)])
    def test_open_below_closed_above(self, det, inside):
        assert bool(det_in_window(np.diag([det, 1.0]), 0.5, 2.0)) is inside


class TestChangeOfBasis:
    def test_negated_basis_negates_constants(self):
        a = flow_algebra(0.0)
        got = change_of_basis(a, BasisChange(-np.eye(2)))
        assert np.allclose(got.constants.values, -a.constants.values, atol=1e-15)

    def test_identity_is_identity(self):
        a = random_algebra()
        got = change_of_basis(a, BasisChange.identity(2))
        assert np.array_equal(got.constants.values, a.constants.values)

    def test_quarter_pi_reduction(self):
        p = BasisChange(np.array([[math.sqrt(2) / 4, math.sqrt(2) / 4], [0.5, -0.5]]))
        got = to_2x4(change_of_basis(flow_algebra(math.pi / 4), p))
        target = [[0.5, 0.0, 0.0, 1.0], [0.0, -0.5, 0.5, 0.0]]
        assert np.max(np.abs(got - target)) < 1e-12

    def test_matches_product_and_solve_oracle(self):
        # re-derive the new constants through vector products and a 2x2 solve
        for _ in range(100):
            a = random_algebra()
            p = well_conditioned_change()
            by_formula = change_of_basis(a, p).constants.values
            for i in range(2):
                for j in range(2):
                    old_coords = product(a, p.matrix[i], p.matrix[j])
                    new_coords = np.linalg.solve(p.matrix.T, old_coords)
                    assert np.max(np.abs(by_formula[i, j] - new_coords)) < 1e-10

    def test_inverse_round_trip(self):
        for _ in range(50):
            a = random_algebra()
            p = well_conditioned_change()
            back = change_of_basis(change_of_basis(a, p), BasisChange(p.inverse()))
            assert np.max(np.abs(back.constants.values - a.constants.values)) < 1e-10

    def test_predicates_invariant(self):
        commutative = flow_algebra(3 * math.pi / 4)
        associative = flow_algebra(0.0)
        generic = flow_algebra(1.0)
        for _ in range(20):
            p = well_conditioned_change()
            assert is_commutative(change_of_basis(commutative, p), tol=1e-8)
            assert is_associative(change_of_basis(associative, p), tol=1e-8)
            assert not is_commutative(change_of_basis(generic, p), tol=1e-8)
            assert not is_associative(change_of_basis(generic, p), tol=1e-8)

    def test_rank_invariant(self):
        zero = AlgebraFD(CubicTensor(np.zeros((2, 2, 2))))
        rank1 = from_2x4(np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]))
        full = flow_algebra(0.7)
        for a in (zero, rank1, full):
            base = rank_2x4(a)
            for _ in range(10):
                assert rank_2x4(change_of_basis(a, well_conditioned_change())) == base

    def test_dim_mismatch(self):
        # No dim-3 algebra reaches change_of_basis: construction refuses it.
        with pytest.raises(ValueError, match="algebras are two-dimensional, got dim 3"):
            change_of_basis(random_algebra(3), BasisChange.identity(2))


class TestStructMatrix:
    def test_flow_form(self):
        t = 0.456
        got = to_2x4(flow_algebra(t))
        c, s = math.cos(t), math.sin(t)
        assert np.array_equal(got, [[c, c, -s, s], [s, -s, c, c]])

    def test_round_trip_exact(self):
        a = random_algebra()
        assert from_2x4(to_2x4(a)) == a

    def test_matrix_round_trip_exact(self):
        m = RNG.uniform(-1, 1, size=(2, 4))
        assert np.array_equal(to_2x4(from_2x4(m)), m)

    def test_dim_guard(self):
        # No dim-3 algebra reaches to_2x4: construction refuses it.
        with pytest.raises(ValueError, match="algebras are two-dimensional, got dim 3"):
            to_2x4(random_algebra(3))

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (8,)])
    def test_wrong_shape_refused(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"expected shape (2, 4), got {shape}")):
            from_2x4(np.ones(shape))

    def test_rank_values(self):
        assert rank_2x4(AlgebraFD(CubicTensor(np.zeros((2, 2, 2))))) == 0
        assert rank_2x4(flow_algebra(0.0)) == 2


def _einsum_associativity_residual(c: np.ndarray) -> float:
    """The associativity residual written out as the two contractions."""
    lhs = np.einsum("ijr,rkl->ijkl", c, c)
    rhs = np.einsum("irl,jkr->ijkl", c, c)
    return float(np.max(np.abs(lhs - rhs)))


def _brute_force_associativity_residual(c: np.ndarray) -> float:
    """max |sum_r c_ijr c_rkl - sum_r c_irl c_jkr| as a quadruple loop."""
    m = len(c)
    worst = 0.0
    for i, j, k, l in np.ndindex(m, m, m, m):
        lhs = sum(c[i, j, r] * c[r, k, l] for r in range(m))
        rhs = sum(c[i, r, l] * c[j, k, r] for r in range(m))
        worst = max(worst, abs(lhs - rhs))
    return worst


def _matmul_associativity_residuals(c: np.ndarray) -> np.ndarray:
    """The residuals as two stacked matrix products, laid out in (i, j, k, l) order."""
    n, m = c.shape[:2]
    lhs = np.matmul(c.reshape(n, m * m, m), c.reshape(n, m, m * m))
    rhs = np.matmul(c.reshape(n, 1, m * m, m), c)
    return np.max(np.abs(lhs.reshape(n, -1) - rhs.reshape(n, -1)), axis=1)


class TestStackedResiduals:
    @pytest.mark.parametrize("m", [2])
    def test_associativity_matches_brute_force(self, m):
        rng = np.random.default_rng(m)
        scales = 10.0 ** rng.uniform(-3.0, 3.0, size=30)
        stack = rng.uniform(-1.0, 1.0, size=(30, m, m, m)) * scales[:, None, None, None]
        for c, residual in zip(stack, associativity_residuals(stack)):
            # each side sums m products of size up to max|c|^2
            ulp = np.spacing(m * np.max(np.abs(c)) ** 2)
            assert abs(residual - _brute_force_associativity_residual(c)) <= 4 * ulp

    def test_associativity_flags_match_matmul_form(self):
        # 20,000 flow tensors, a fifth of them within 2e-9 of an exceptional
        # residue, where the residual is about the distance to the residue.
        rng = np.random.default_rng(2024)
        residues = np.array([0.0] + [residue for residue, _ in EXCEPTIONAL_RESIDUES])
        near = (rng.choice(residues, size=4000) + math.pi * rng.integers(1, 300, size=4000)
                + rng.uniform(-2e-9, 2e-9, size=4000))
        stack = flow_tensors(np.concatenate([rng.uniform(0.0, 1e3, size=16000), near]))
        flags = associativity_residuals(stack) <= DEFAULT_TOL
        assert flags.tolist() == (_matmul_associativity_residuals(stack) <= DEFAULT_TOL).tolist()
        assert 0 < flags[16000:].sum() < 4000  # both sides of the tolerance are reached

    @pytest.mark.parametrize("m", [2])
    def test_match_per_tensor_reference(self, m):
        stack = RNG.uniform(-1.0, 1.0, size=(40, m, m, m))
        assoc = associativity_residuals(stack)
        comm = commutativity_residuals(stack)
        assert assoc.shape == comm.shape == (40,)
        for c, a_res, c_res in zip(stack, assoc, comm):
            assert abs(a_res - _einsum_associativity_residual(c)) <= 1e-15 * m
            assert c_res == np.max(np.abs(c - c.transpose(1, 0, 2)))

    def test_scalar_wrappers_agree(self):
        a = random_algebra()
        c = a.constants.values[np.newaxis]
        assert associativity_residual(a) == associativity_residuals(c)[0]
        assert commutativity_residual(a) == commutativity_residuals(c)[0]

    def test_flow_stack_predicates(self):
        from algflow.flow import flow_tensors

        t = np.array([0.0, 3 * math.pi / 4, math.pi / 3, math.pi / 2])
        assert (associativity_residuals(flow_tensors(t)) <= 1e-9).tolist() == [
            True, True, False, False]
        assert (commutativity_residuals(flow_tensors(t)) <= 1e-9).tolist() == [
            False, True, False, False]

    @pytest.mark.parametrize("shape", [(2, 2, 2), (4, 2, 2, 3), (4, 2, 3, 2), (4, 3, 3, 3)])
    def test_non_stack_rejected(self, shape):
        with pytest.raises(ValueError, match="stack"):
            associativity_residuals(np.zeros(shape))
        with pytest.raises(ValueError, match="stack"):
            commutativity_residuals(np.zeros(shape))


def _kernel_corpus() -> np.ndarray:
    """2 x 2 x 2 tensors on which the one-tensor kernels could part from the stacked
    ones: seeded tensors at scales 2^-500 to 2^500, entries of both zero signs, the zero
    tensors, subnormal max|c|, products past overflow (in every entry, or in one entry,
    so that a nan follows finite terms), and flow tensors within 2e-9 of the
    exceptional residues."""
    rng = np.random.default_rng(2041)
    c = rng.uniform(-1.0, 1.0, (3600, 2, 2, 2))
    scaled = np.ldexp(c[:2000], rng.integers(-500, 501, (2000, 1, 1, 1)))
    zeros = np.ldexp(c[2000:2800], rng.integers(-40, 41, (800, 1, 1, 1)))
    holes = rng.random(zeros.shape) < 0.5
    zeros[holes] = np.where(rng.random(zeros.shape) < 0.5, 0.0, -0.0)[holes]
    subnormal = np.ldexp(c[2800:3000], rng.integers(-1070, -1022, (200, 1, 1, 1)))
    huge = c[3000:3400] * 10.0 ** rng.uniform(150.0, 308.0, (400, 1, 1, 1))
    one_huge = c[3400:3600].reshape(200, 8)
    one_huge[np.arange(200), rng.integers(0, 8, 200)] *= 10.0 ** rng.uniform(150.0, 308.0, 200)
    residues = np.array([0.0] + [residue for residue, _ in EXCEPTIONAL_RESIDUES])
    near = (rng.choice(residues, size=600) + math.pi * rng.integers(1, 300, size=600)
            + rng.uniform(-2e-9, 2e-9, size=600))
    return np.concatenate([scaled, zeros, subnormal, huge, one_huge.reshape(200, 2, 2, 2),
                           flow_tensors(near),
                           np.zeros((1, 2, 2, 2)), np.full((1, 2, 2, 2), -0.0)])


class TestOneTensorKernels:
    """The Python-float kernels of one tensor give the stacked kernels' values to the bit."""

    def test_match_the_stacked_kernels(self):
        stack = _kernel_corpus()
        with np.errstate(all="ignore"):  # the stacked products overflow past 1e154
            comm, assoc = commutativity_residuals(stack), associativity_residuals(stack)
        for c, comm_c, assoc_c in zip(stack, comm.tolist(), assoc.tolist()):
            entries = c.ravel().tolist()
            assert repr(commutativity_residual_entries(entries)) == repr(comm_c)
            assert repr(associativity_residual_entries(entries)) == repr(assoc_c)
        # A nan (inf - inf past overflow), which the builtin max alone can drop, is
        # reached, and residuals on both sides of DEFAULT_TOL.
        assert np.isnan(assoc).any()
        assert (assoc <= DEFAULT_TOL).any() and (comm <= DEFAULT_TOL).any()
        assert (assoc[np.isfinite(assoc)] > DEFAULT_TOL).any()

    def test_wrappers_read_the_kernels(self):
        for c in _kernel_corpus()[::7]:
            a = AlgebraFD(CubicTensor(c))
            entries = c.ravel().tolist()
            assert repr(commutativity_residual(a)) == repr(commutativity_residual_entries(entries))
            assert repr(associativity_residual(a)) == repr(associativity_residual_entries(entries))
            assert rank_2x4(a) == rank_2x4_entries(entries)

    def test_overflow_warns_nothing(self):
        # Python floats overflow silently; the warning filter makes any warning an error.
        huge = AlgebraFD(CubicTensor(np.full((2, 2, 2), 1e200)))
        assert math.isnan(associativity_residual(huge))  # inf - inf, as the stacked kernel gives
        assert math.isnan(associativity_residual_entries([1e200, -1e200, 1.0, 1e200] * 2))


def _brute_force_iso_residual(ca: np.ndarray, cb: np.ndarray, p: np.ndarray) -> float:
    """max |sum_{p,q,r} P_ip P_jq cA_pqr (P^-1)_rk - cB_ijk| as a quadruple loop."""
    inv = np.linalg.inv(p)
    worst = 0.0
    for i, j, k in np.ndindex(2, 2, 2):
        moved = sum(p[i, a] * p[j, b] * ca[a, b, r] * inv[r, k]
                    for a in range(2) for b in range(2) for r in range(2))
        worst = max(worst, abs(moved - cb[i, j, k]))
    return worst


class TestIsoResiduals:
    def test_match_scalar_wrapper_and_brute_force(self):
        rng = np.random.default_rng(2024)
        ca = rng.uniform(-1.0, 1.0, size=(500, 2, 2, 2))
        cb = rng.uniform(-1.0, 1.0, size=(500, 2, 2, 2))
        p = np.array([random_invertible(rng, 0.5, 2.0) for _ in range(500)])
        # half the pairs are true certificates, so the residual is at rounding level
        cb[::2] = [change_of_basis(AlgebraFD(CubicTensor(c)), BasisChange(m)).constants.values
                   for c, m in zip(ca[::2], p[::2])]
        got = iso_residuals(ca, cb, p)
        assert got.shape == (500,)
        for n in range(500):
            a, b = AlgebraFD(CubicTensor(ca[n])), AlgebraFD(CubicTensor(cb[n]))
            assert got[n] == iso_residual(a, b, BasisChange(p[n]))
            assert abs(got[n] - _brute_force_iso_residual(ca[n], cb[n], p[n])) <= 1e-13
        assert np.max(got[::2]) <= 1e-13 and np.min(got[1::2]) > 1e-3

    def test_certificate_from_change_of_basis(self):
        a = flow_algebra(0.4)
        p = BasisChange([[0.7, -1.2], [0.4, 0.9]])
        moved = change_of_basis(a, p)
        assert iso_residual(a, moved, p) <= 1e-15

    @pytest.mark.parametrize("ca, cb, p", [
        ((3, 2, 2, 2), (3, 2, 2, 2), (2, 2, 2)),
        ((3, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2)),
        ((2, 2, 2), (2, 2, 2), (2, 2)),
        ((3, 3, 3, 3), (3, 3, 3, 3), (3, 3, 3)),
        ((3, 2, 2, 2), (3, 2, 2, 2), (3, 2, 3)),
    ])
    def test_wrong_shapes_refused(self, ca, cb, p):
        with pytest.raises(ValueError, match="expected shapes"):
            iso_residuals(np.zeros(ca), np.zeros(cb), np.ones(p))


class TestJson:
    def test_dim2_uses_2x4_form(self):
        a = random_algebra()
        data = algebra_to_json_dict(a)
        assert "c2x4" in data and data["dim"] == 2
        assert algebra_from_json_dict(data) == a

    @pytest.mark.parametrize("data", [5, [1, 2], "c2x4", None])
    def test_non_object_rejected(self, data):
        with pytest.raises(ValueError, match="expected a JSON object"):
            algebra_from_json_dict(data)

    def test_tensor_form_accepted_for_dim2(self):
        a = random_algebra(2)
        data = {"dim": 2, "c": a.constants.values.tolist()}
        assert algebra_from_json_dict(data) == a
