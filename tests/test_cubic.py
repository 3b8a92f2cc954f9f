"""Cubic-matrix arithmetic: the tensor and table types and both products."""

import math
import sys
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algflow.cubic import (
    BinaryOpTable,
    CubicTensor,
    from_middle_slices,
    mul_general,
    mul_type_c,
    real_array,
    tensor_from_json_dict,
    type_c_products,
)
from algflow.flow import flow_algebra, flow_tensors

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


def unit(m: int, i: int, j: int, k: int) -> CubicTensor:
    """The unit cubic matrix E_{ijk}, 1-based: a single 1 at values[i-1, j-1, k-1]."""
    values = np.zeros((m, m, m))
    values[i - 1, j - 1, k - 1] = 1.0
    return CubicTensor(values)


def general_reference_loop(a: CubicTensor, b: CubicTensor, op: BinaryOpTable) -> np.ndarray:
    """The general product as one 2-D matmul and one slice addition per (j, n)."""
    av, bv = a.values, b.values
    out = np.zeros_like(av)
    for j in range(a.dim):
        for n in range(a.dim):
            p = op.values[j, n]
            out[:, p, :] += av[:, j, :] @ bv[:, n, :]
    return out


def general_einsum(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """c_ipr = sum_{j,n,k} [table(j,n) = p] a_ijk b_knr, through an indicator tensor."""
    m = len(table)
    fiber = (table[:, :, None] == np.arange(m)).astype(float)
    return np.einsum("jnp,ijk,knr->ipr", fiber, a, b)


def table_kinds(m: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """0-based tables: five associative operations, a constant one that yields
    only m - 1, and a random one, which is rarely associative."""
    idx = np.arange(m)
    return {
        "left": np.repeat(idx[:, None], m, axis=1),
        "right": np.repeat(idx[None, :], m, axis=0),
        "max": np.maximum.outer(idx, idx),
        "min": np.minimum.outer(idx, idx),
        "add": np.add.outer(idx, idx) % m,
        "constant": np.full((m, m), m - 1),
        "random": rng.integers(0, m, size=(m, m)),
    }


def signed_zero_tensor(rng: np.random.Generator, m: int) -> np.ndarray:
    """Uniform entries with a quarter set to -0.0 and one middle slice all -0.0."""
    values = rng.uniform(-1.0, 1.0, size=(m, m, m))
    values[rng.random((m, m, m)) < 0.25] = -0.0
    values[:, m // 2, :] = -0.0
    return values


def associative_reference(t: np.ndarray) -> bool:
    """Brute-force a(a(j,n),r) = a(j,a(n,r)) over all index triples, 0-based."""
    m = len(t)
    return all(t[t[j, n], r] == t[j, t[n, r]] for j, n, r in iproduct(range(m), repeat=3))


class TestRealArrayOfAScalar:
    # A 0-d input shows a bool by its dtype, with no search of its leaves.
    @pytest.mark.parametrize("value, dtype", [
        (True, "bool"), (np.True_, "bool"), (Fraction(1, 2), "object")])
    def test_refused_by_dtype(self, value, dtype):
        with pytest.raises(ValueError, match=f"^time must be real numbers, got {dtype} entries$"):
            real_array(value, "time")

    @pytest.mark.parametrize("value", [0.5, 1, np.float32(0.5)], ids=repr)
    def test_accepted_as_its_float64(self, value):
        got = real_array(value, "time")
        assert got.dtype == np.float64 and got.tobytes() == np.float64(value).tobytes()


class TestRealArrayOfIntsBeyondInt64:
    # numpy reads a list holding an int beyond int64 as objects; its leaves are read by
    # the leaf rule of ``floats_from_json``, so both readers take the same lists.
    def test_tensor_accepted_as_its_json_reading(self):
        tensor = CubicTensor([[[10**20]]])
        assert tensor.values.tolist() == [[[1e20]]]
        assert tensor == tensor_from_json_dict({"dim": 1, "c": [[[10**20]]]})

    def test_times_accepted_as_their_float64(self):
        got = flow_tensors([10**20, 0.5])
        assert got.tobytes() == flow_tensors(np.array([1e20, 0.5])).tobytes()

    def test_largest_float_is_accepted(self):
        big = int(sys.float_info.max)
        assert real_array([big, 2**64], "entries").tolist() == [sys.float_info.max, 2.0**64]

    def test_negative_beyond_int64_is_accepted(self):
        assert real_array([[-(2**63) - 1, 1]], "entries").tolist() == [[-(2.0**63), 1.0]]

    @pytest.mark.parametrize("values", [
        [10**309, 0.5], [[[-(10**400)]]], [2**64, True], [2**64, Fraction(1, 2)],
        [2**64, "1.5"], [2**64, None], [2**64, np.float64(0.5)], [2**64, math.nan],
        np.array([2**64, 0.5], dtype=object), [np.array([1.0, 0.5], dtype=object)],
    ], ids=["beyond-float", "far-beyond-float", "bool", "fraction", "string", "none",
            "numpy-float", "nan", "object-ndarray", "list-of-object-ndarrays"])
    def test_other_leaves_refused_with_a_short_value_error(self, values):
        with pytest.raises(ValueError) as excinfo:
            real_array(values, "entries")
        assert len(str(excinfo.value)) <= 100


class TestVectorSpace:
    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.inf
        with pytest.raises(ValueError):
            CubicTensor(bad)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [(0, 0, 0), (1, 0, 1), (2, 2, 2)])
    def test_rejects_each_nonfinite_entry(self, entry, position):
        bad = np.zeros((3, 3, 3))
        bad[position] = entry
        with pytest.raises(ValueError, match="all entries must be finite"):
            CubicTensor(bad)

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            CubicTensor(np.zeros((0, 0, 0)))

    def test_immutable(self):
        a = random_tensor(2)
        with pytest.raises(ValueError):
            a.values[0, 0, 0] = 5.0

    @pytest.mark.parametrize("values, message", [
        ([[["1.5"]]], "entries must be real numbers, got <U3 entries"),
        ([[[True]]], "entries must be real numbers, got bool entries"),
        (np.ones((2, 2, 2), dtype=bool), "entries must be real numbers, got bool entries"),
        (np.full((1, 1, 1), 1j), "entries must be real numbers, got complex128 entries"),
        ([[[None]]], "entries must be real numbers, got object entries"),
        ([[[1.0, True], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "entries must be real numbers, got a boolean entry"),
    ])
    def test_rejects_non_numbers(self, values, message):
        with pytest.raises(ValueError, match=message):
            CubicTensor(values)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int64, np.float32, float])
    def test_numeric_dtypes_stored_as_float(self, dtype):
        a = CubicTensor(np.arange(8, dtype=dtype).reshape(2, 2, 2))
        assert a.values.dtype == np.float64
        assert a == CubicTensor([[[0, 1], [2, 3]], [[4, 5], [6, 7]]])


class TestTypeCProduct:
    def test_unit_squares(self):
        e111 = unit(2, 1, 1, 1)
        assert mul_type_c(e111, e111) == e111

    def test_unit_deltas(self):
        # k of the left factor must meet i of the right, middle indices must agree
        assert mul_type_c(unit(2, 1, 1, 2), unit(2, 2, 1, 1)) == unit(2, 1, 1, 1)
        assert not mul_type_c(unit(2, 1, 1, 2), unit(2, 1, 2, 1)).values.any()

    def test_all_basis_pairs_match_delta_rule(self):
        m = 2
        for i, j, k, l, n, r in iproduct(range(1, m + 1), repeat=6):
            got = mul_type_c(unit(m, i, j, k), unit(m, l, n, r))
            if k == l and j == n:
                assert got == unit(m, i, j, r)
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
        combined = mul_type_c(CubicTensor(lam * a.values + b.values), c)
        split = lam * mul_type_c(a, c).values + mul_type_c(b, c).values
        assert np.max(np.abs(combined.values - split)) < 1e-12

    def test_slice_product_commutation_bit_exact(self):
        a, b = random_tensor(3), random_tensor(3)
        prod = mul_type_c(a, b)
        for j in range(1, 4):
            assert np.array_equal(prod.values[:, j - 1, :],
                                  a.values[:, j - 1, :] @ b.values[:, j - 1, :])

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
        assert np.array_equal(t.values[:, 0, :], rot)
        assert np.array_equal(t.values[:, 1, :], rot.T)

    def test_from_middle_slices_roundtrip(self):
        a = random_tensor(3)
        rebuilt = from_middle_slices([a.values[:, j - 1, :] for j in (1, 2, 3)])
        assert rebuilt == a


    def test_from_middle_slices_wrong_slice_shape(self):
        with pytest.raises(ValueError, match=r"expected 2 slices of shape \(2, 2\), "
                                             r"got shape \(2, 3, 3\)"):
            from_middle_slices([np.zeros((3, 3))] * 2)

class TestBinaryOpTable:
    def test_left_projection_values(self):
        op = BinaryOpTable([[0, 0, 0], [1, 1, 1], [2, 2, 2]])  # a(j, n) = j
        assert op.values[1, 2] == 1 and op.values[0, 0] == 0
        assert op.is_associative()

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError):
            BinaryOpTable(np.array([[0, 2], [0, 1]]))

    @pytest.mark.parametrize("table, message", [
        ([[0, 1, 0]], r"expected a square table, got shape \(1, 3\)"),
        (np.zeros((0, 0)), "dimension must be at least 1"),
    ])
    def test_bad_shape_rejected(self, table, message):
        with pytest.raises(ValueError, match=message):
            BinaryOpTable(table)

    @pytest.mark.parametrize("table, message", [
        ([[0.7, 1.2], [1.9, 0.0]], "got float64 entries"),
        ([[0.0, 1.0], [1.0, 0.0]], "got float64 entries"),  # integral floats too
        (np.array([[0, 1], [1, 0]], dtype=np.float32), "got float32 entries"),
        ([[True, False], [False, True]], "got bool entries"),
        ([[0, True], [1, 0]], "got a boolean entry"),
        ([["0", "1"], ["1", "0"]], "got <U1 entries"),
        ([[0, None], [1, 0]], "got object entries"),
    ])
    def test_non_integer_entries_rejected(self, table, message):
        with pytest.raises(ValueError, match="table values must be integers, " + message):
            BinaryOpTable(table)

    @pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int32, np.uint64, np.int64])
    def test_numpy_integer_dtypes_accepted(self, dtype):
        op = BinaryOpTable(np.array([[0, 1], [1, 0]], dtype=dtype))
        assert op.values.dtype == np.int64 and op.values.tolist() == [[0, 1], [1, 0]]
        with pytest.raises(ValueError, match="table values must map into the index set"):
            BinaryOpTable(np.array([[0, 2], [1, 0]], dtype=dtype))

    def test_non_associative_detected(self):
        # a(j, n) = j - n + 1 clipped into range is not associative for m = 3
        op = BinaryOpTable([[0, 0, 0], [1, 0, 0], [2, 1, 0]])
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
        op = BinaryOpTable([[0, 0], [1, 1]])  # a(j, n) = j
        got = mul_general(unit(2, 1, 1, 2), unit(2, 2, 2, 1), op)
        assert got == unit(2, 1, 1, 1)
        e111 = unit(2, 1, 1, 1)
        assert mul_general(e111, e111, op) == e111

    def test_all_basis_pairs_match_delta_rule(self):
        m = 2
        op = BinaryOpTable([[0, 0], [1, 1]])  # a(j, n) = j
        for i, j, k, l, n, r in iproduct(range(1, m + 1), repeat=6):
            got = mul_general(unit(m, i, j, k), unit(m, l, n, r), op)
            if k == l:
                assert got == unit(m, i, op.values[j - 1, n - 1] + 1, r)
            else:
                assert not got.values.any()

    def test_associative_on_all_basis_triples(self):
        m = 2
        op = BinaryOpTable([[0, 0], [1, 1]])  # a(j, n) = j
        op.check_associative()
        units = [unit(m, i, j, k) for i, j, k in iproduct(range(1, m + 1), repeat=3)]
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

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 17, 33])
    def test_bits_match_reference_loop(self, m):
        rng = np.random.default_rng(100 + m)
        base_a, base_b = signed_zero_tensor(rng, m), signed_zero_tensor(rng, m)
        layouts = {
            "C": lambda v: v,
            "transposed": lambda v: np.ascontiguousarray(np.transpose(v, (2, 0, 1))).transpose(1, 2, 0),
            "Fortran": np.asfortranarray,
        }
        for name, table in table_kinds(m, rng).items():
            op = BinaryOpTable(table)
            for layout, arrange in layouts.items():
                a, b = CubicTensor(arrange(base_a)), CubicTensor(arrange(base_b))
                got = mul_general(a, b, op).values
                expected = general_reference_loop(a, b, op)
                assert not got.flags.writeable
                assert (np.ascontiguousarray(got).tobytes()
                        == np.ascontiguousarray(expected).tobytes()), (name, layout)
                for p in set(range(m)) - set(table.ravel().tolist()):
                    assert not got[:, p, :].any() and not np.signbit(got[:, p, :]).any()

    def test_layouts_reach_the_product(self):
        # the bit test above covers three layouts only if construction keeps them
        values = np.asfortranarray(RNG.uniform(-1.0, 1.0, size=(3, 3, 3)))
        assert CubicTensor(values).values.flags.f_contiguous
        assert values.flags.writeable  # the tensor froze a copy, not the caller's array
        assert not CubicTensor(values.transpose(1, 2, 0)).values.flags.c_contiguous

    @pytest.mark.parametrize("m", range(4, 10))
    def test_matches_einsum_oracle(self, m):
        # Each entry sums at most N = m^3 products.  With u = eps / 2, either side is
        # within gamma_N * S ~ N u S of the exact sum, where S is the same sum taken
        # over absolute values, so the two sides differ by at most N eps S.
        rng = np.random.default_rng(200 + m)
        a, b = random_tensor(m), random_tensor(m)
        eps = np.finfo(float).eps
        for name, table in table_kinds(m, rng).items():
            got = mul_general(a, b, BinaryOpTable(table)).values
            tol = m ** 3 * eps * general_einsum(np.abs(a.values), np.abs(b.values), table)
            assert np.all(np.abs(got - general_einsum(a.values, b.values, table)) <= tol), name
            # negative control: one wrong table entry moves whole products between slices
            wrong = table.copy()
            j, n = rng.integers(0, m, size=2)
            wrong[j, n] = (wrong[j, n] + 1) % m
            assert not np.all(np.abs(got - general_einsum(a.values, b.values, wrong)) <= tol), name

    def test_dim_mismatch_with_op(self):
        with pytest.raises(ValueError):
            mul_general(random_tensor(2), random_tensor(2), BinaryOpTable([[0, 0, 0], [1, 1, 1], [2, 2, 2]]))


class TestJson:
    def test_roundtrip(self):
        a = random_tensor(3)
        assert tensor_from_json_dict({"dim": 3, "c": a.values.tolist()}) == a

    def test_layout(self):
        data = {"dim": 2, "c": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        assert tensor_from_json_dict(data) == unit(2, 1, 2, 1)  # 0-based i -> j -> k

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            tensor_from_json_dict({"dim": 3, "c": np.zeros((2, 2, 2)).tolist()})

    @pytest.mark.parametrize("dim", [True, False])
    def test_boolean_dim_rejected(self, dim):
        with pytest.raises(ValueError, match=f'entry shape 1 disagrees with "dim": {dim}'):
            tensor_from_json_dict({"dim": dim, "c": [[[1.5]]]})

    def test_missing_keys(self):
        with pytest.raises(ValueError):
            tensor_from_json_dict({"dim": 2})
