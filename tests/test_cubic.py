"""Cubic-matrix arithmetic: vector-space ops and both products."""

import math
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algflow.cubic import (
    BinaryOpTable,
    CubicTensor,
    add,
    basis_unit,
    from_middle_slices,
    mul_general,
    mul_type_c,
    scale,
    slice_j,
    tensor_from_json_dict,
    tensor_to_json_dict,
    type_c_products,
)
from algflow.flow import flow_algebra

RNG = np.random.default_rng(1234)


def random_tensor(m: int) -> CubicTensor:
    return CubicTensor(RNG.uniform(-1.0, 1.0, size=(m, m, m)))


def type_c_reference(a: CubicTensor, b: CubicTensor) -> np.ndarray:
    """Brute-force oracle: expand over basis pairs with both deltas."""
    m = a.dim
    out = np.zeros((m, m, m))
    for i, j, k, l, n, r in iproduct(range(m), repeat=6):
        if k == l and j == n:
            out[i, j, r] += a.values[i, j, k] * b.values[l, n, r]
    return out


def associative_reference(t: np.ndarray) -> bool:
    """Brute-force a(a(j,n),r) = a(j,a(n,r)) over all index triples, 0-based."""
    m = len(t)
    return all(t[t[j, n], r] == t[j, t[n, r]] for j, n, r in iproduct(range(m), repeat=3))


class TestBasisUnit:
    def test_places_single_one(self):
        e = basis_unit(2, 1, 1, 1)
        assert e.values[0, 0, 0] == 1.0
        assert np.sum(e.values) == 1.0

    def test_other_position(self):
        e = basis_unit(2, 2, 1, 2)
        assert e.values[1, 0, 1] == 1.0
        assert np.sum(np.abs(e.values)) == 1.0

    @pytest.mark.parametrize("bad", [(0, 1, 1), (3, 1, 1), (1, 0, 1), (1, 1, 3)])
    def test_out_of_range(self, bad):
        with pytest.raises(ValueError):
            basis_unit(2, *bad)

    def test_basis_decomposition_reconstructs(self):
        q = random_tensor(2)
        total = CubicTensor(np.zeros((2, 2, 2)))
        for i, j, k in iproduct(range(1, 3), repeat=3):
            total = add(total, scale(q.values[i - 1, j - 1, k - 1], basis_unit(2, i, j, k)))
        assert np.allclose(total.values, q.values)


class TestVectorSpace:
    def test_additive_inverse(self):
        a = random_tensor(3)
        assert not add(a, scale(-1.0, a)).values.any()

    def test_scale_identity(self):
        a = random_tensor(2)
        assert scale(1.0, a) == a

    def test_basis_sum(self):
        s = add(basis_unit(2, 1, 1, 1), basis_unit(2, 2, 2, 2))
        assert s.values[0, 0, 0] == 1.0 and s.values[1, 1, 1] == 1.0
        assert np.sum(s.values) == 2.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            add(random_tensor(2), random_tensor(3))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            CubicTensor(bad)

    def test_immutable(self):
        a = random_tensor(2)
        with pytest.raises(ValueError):
            a.values[0, 0, 0] = 5.0


class TestTypeCProduct:
    def test_unit_squares(self):
        e111 = basis_unit(2, 1, 1, 1)
        assert mul_type_c(e111, e111) == e111

    def test_unit_deltas(self):
        # k of the left factor must meet i of the right, middle indices must agree
        assert mul_type_c(basis_unit(2, 1, 1, 2), basis_unit(2, 2, 1, 1)) == basis_unit(2, 1, 1, 1)
        assert not mul_type_c(basis_unit(2, 1, 1, 2), basis_unit(2, 1, 2, 1)).values.any()

    def test_all_basis_pairs_match_delta_rule(self):
        m = 2
        for i, j, k, l, n, r in iproduct(range(1, m + 1), repeat=6):
            got = mul_type_c(basis_unit(m, i, j, k), basis_unit(m, l, n, r))
            if k == l and j == n:
                assert got == basis_unit(m, i, j, r)
            else:
                assert not got.values.any()

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_brute_force_oracle(self, m):
        a, b = random_tensor(m), random_tensor(m)
        assert np.allclose(mul_type_c(a, b).values, type_c_reference(a, b), atol=1e-14)

    def test_flow_tensors_compose_by_angle_addition(self):
        a, b = 0.3, 0.5
        got = mul_type_c(flow_algebra(a).constants, flow_algebra(b).constants)
        # independent check: expand each entry with the angle-addition identities
        c = math.cos(a) * math.cos(b) - math.sin(a) * math.sin(b)
        s = math.sin(a) * math.cos(b) + math.cos(a) * math.sin(b)
        expected = from_middle_slices((
            np.array([[c, s], [-s, c]]),
            np.array([[c, -s], [s, c]]),
        ))
        assert np.max(np.abs(got.values - expected.values)) < 1e-15
        assert np.max(np.abs(got.values - flow_algebra(a + b).constants.values)) < 1e-12

    def test_associative_random(self):
        for m in (2, 3, 4):
            a, b, c = random_tensor(m), random_tensor(m), random_tensor(m)
            left = mul_type_c(mul_type_c(a, b), c)
            right = mul_type_c(a, mul_type_c(b, c))
            assert np.max(np.abs(left.values - right.values)) < 1e-12

    @given(lam=st.floats(-10, 10, allow_nan=False))
    @settings(max_examples=50, deadline=None)
    def test_bilinear_in_left_argument(self, lam):
        a, b, c = (random_tensor(2) for _ in range(3))
        combined = mul_type_c(add(scale(lam, a), b), c)
        split = add(scale(lam, mul_type_c(a, c)), mul_type_c(b, c))
        assert np.max(np.abs(combined.values - split.values)) < 1e-12

    def test_slice_product_commutation_bit_exact(self):
        a, b = random_tensor(3), random_tensor(3)
        prod = mul_type_c(a, b)
        for j in range(1, 4):
            assert np.array_equal(slice_j(prod, j), slice_j(a, j) @ slice_j(b, j))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            mul_type_c(random_tensor(2), random_tensor(3))

    @pytest.mark.parametrize("m", range(1, 9))
    def test_stacked_products_match_per_tensor_bit_exact(self, m):
        a = RNG.uniform(-1.0, 1.0, size=(4, m, m, m))
        b = RNG.uniform(-1.0, 1.0, size=(4, m, m, m))
        got = type_c_products(a, b)
        for n in range(4):
            single = mul_type_c(CubicTensor(a[n]), CubicTensor(b[n])).values
            assert np.array_equal(got[n], single)
            for j in range(m):
                assert np.array_equal(got[n][:, j, :], a[n][:, j, :] @ b[n][:, j, :])

    @pytest.mark.parametrize("shapes", [((2, 2, 2, 2), (1, 2, 2, 2)), ((2, 2), (2, 2)),
                                        ((2, 3, 3), (2, 3, 3))])
    def test_stacked_shape_mismatch(self, shapes):
        with pytest.raises(ValueError):
            type_c_products(np.zeros(shapes[0]), np.zeros(shapes[1]))


class TestSliceJ:
    def test_flow_slices(self):
        d = 0.9
        t = flow_algebra(d).constants
        rot = np.array([[math.cos(d), math.sin(d)], [-math.sin(d), math.cos(d)]])
        assert np.array_equal(slice_j(t, 1), rot)
        assert np.array_equal(slice_j(t, 2), rot.T)

    def test_unit_slice(self):
        assert np.array_equal(slice_j(basis_unit(2, 2, 1, 2), 1), [[0.0, 0.0], [0.0, 1.0]])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            slice_j(random_tensor(2), 3)

    def test_from_middle_slices_roundtrip(self):
        a = random_tensor(3)
        rebuilt = from_middle_slices([slice_j(a, j) for j in (1, 2, 3)])
        assert rebuilt == a


class TestBinaryOpTable:
    def test_left_projection_values(self):
        op = BinaryOpTable.left_projection(3)
        assert op(2, 3) == 2 and op(1, 1) == 1
        assert op.is_associative()

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            BinaryOpTable(np.array([[0, 2], [0, 1]]))

    def test_from_function_tabulates(self):
        op = BinaryOpTable.from_function(2, max)
        assert op(1, 2) == 2 and op(2, 1) == 2
        assert op.is_associative()

    def test_non_associative_detected(self):
        # a(j, n) = j - n + 1 clipped into range is not associative for m = 3
        op = BinaryOpTable.from_function(3, lambda j, n: min(max(j - n + 1, 1), 3))
        assert not op.is_associative()
        with pytest.raises(ValueError):
            op.check_associative()

    def test_is_associative_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        verdicts = set()
        for _ in range(1000):
            m = int(rng.integers(1, 6))
            table = rng.integers(0, m, size=(m, m))
            expected = associative_reference(table)
            assert BinaryOpTable(table).is_associative() == expected
            verdicts.add(expected)
        assert verdicts == {True, False}


class TestGeneralProduct:
    def test_left_projection_units(self):
        op = BinaryOpTable.left_projection(2)
        got = mul_general(basis_unit(2, 1, 1, 2), basis_unit(2, 2, 2, 1), op)
        assert got == basis_unit(2, 1, 1, 1)
        e111 = basis_unit(2, 1, 1, 1)
        assert mul_general(e111, e111, op) == e111

    def test_all_basis_pairs_match_delta_rule(self):
        m = 2
        op = BinaryOpTable.left_projection(m)
        for i, j, k, l, n, r in iproduct(range(1, m + 1), repeat=6):
            got = mul_general(basis_unit(m, i, j, k), basis_unit(m, l, n, r), op)
            if k == l:
                assert got == basis_unit(m, i, op(j, n), r)
            else:
                assert not got.values.any()

    def test_associative_on_all_basis_triples(self):
        m = 2
        op = BinaryOpTable.left_projection(m)
        op.check_associative()
        units = [basis_unit(m, i, j, k) for i, j, k in iproduct(range(1, m + 1), repeat=3)]
        for a in units:
            for b in units:
                ab = mul_general(a, b, op)
                for c in units:
                    left = mul_general(ab, c, op)
                    right = mul_general(a, mul_general(b, c, op), op)
                    assert left == right

    def test_restricted_to_equal_middles_reproduces_type_c(self):
        # the slice-wise product keeps only the j = n terms of the expansion
        m = 2
        a, b = random_tensor(m), random_tensor(m)
        restricted = np.zeros((m, m, m))
        for i, j, k, l, n, r in iproduct(range(m), repeat=6):
            if k == l and j == n:
                restricted[i, j, r] += a.values[i, j, k] * b.values[l, n, r]
        assert np.allclose(restricted, mul_type_c(a, b).values, atol=1e-14)

    def test_dim_mismatch_with_op(self):
        with pytest.raises(ValueError):
            mul_general(random_tensor(2), random_tensor(2), BinaryOpTable.left_projection(3))


class TestJson:
    def test_roundtrip(self):
        a = random_tensor(3)
        assert tensor_from_json_dict(tensor_to_json_dict(a)) == a

    def test_layout(self):
        data = tensor_to_json_dict(basis_unit(2, 1, 2, 1))
        assert data["dim"] == 2
        assert data["c"][0][1][0] == 1.0  # 0-based i -> j -> k in the file

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            tensor_from_json_dict({"dim": 3, "c": np.zeros((2, 2, 2)).tolist()})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            tensor_from_json_dict({"dim": 2})
