"""The rotation flow: construction, composition law, commutative locus."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algflow.algebra import AlgebraFD, is_commutative, to_2x4
from algflow.classification import (
    A1,
    A2,
    A0_PLUS,
    ACOS_MINUS,
    ACOS_PLUS,
    FlowClassLabel,
    branch_tensor,
    class_representative,
)
from algflow.cubic import slice_j
from algflow.flow import (
    MAX_TIME,
    ROTATION_FAMILY,
    FlowFamily,
    build_from_pair,
    check_time,
    commutativity_defect,
    flow_tensor,
    flow_tensors,
    paired_tensor,
    paired_tensors,
    reduce_mod_pi,
    rotation_matrix,
    verify_base_system,
    verify_kce,
)

RNG = np.random.default_rng(7)


class TestRotationMatrix:
    def test_zero_is_identity(self):
        assert np.array_equal(rotation_matrix(0.0), np.eye(2))

    def test_quarter_turn(self):
        got = rotation_matrix(math.pi / 2)
        assert np.max(np.abs(got - [[0.0, 1.0], [-1.0, 0.0]])) < 1e-15

    def test_angle_addition(self):
        a, b = 0.7, 1.1
        assert np.max(np.abs(rotation_matrix(a) @ rotation_matrix(b)
                             - rotation_matrix(a + b))) < 1e-14


class TestFlowTensor:
    def test_zero_form(self):
        assert np.array_equal(
            to_2x4(AlgebraFD(flow_tensor(0.0))).values,
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        )

    def test_half_pi_form(self):
        got = to_2x4(AlgebraFD(flow_tensor(math.pi / 2))).values
        assert np.max(np.abs(got - [[0.0, 0.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])) < 1e-15

    def test_three_quarters_pi_entries(self):
        # the commutative tensor; its negation is the A2 representative
        got = flow_tensor(3 * math.pi / 4)
        r = math.sqrt(0.5)
        assert np.max(np.abs(np.abs(got.values) - r)) < 1e-15
        a2 = flow_tensor(7 * math.pi / 4)
        assert np.max(np.abs(got.values + a2.values)) < 1e-15

    def test_second_slice_is_transpose(self):
        t = flow_tensor(2.345)
        assert np.array_equal(slice_j(t, 2), slice_j(t, 1).T)


def _paired_reference(mats: np.ndarray) -> np.ndarray:
    """Each 2 x 2 matrix of mats (..., 2, 2) beside its transpose, reshaped to
    (..., 2, 2, 2): the layout written as concatenate-and-reshape."""
    paired = np.concatenate((mats, np.swapaxes(mats, -1, -2)), axis=-1)
    return paired.reshape(mats.shape[:-2] + (2, 2, 2))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shapes and equal bytes, so -0.0 and 0.0 differ."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFlowTensors:
    @pytest.mark.parametrize("shape", [(), (7,), (3, 5)])
    def test_paired_tensors_match_reference_bit_for_bit(self, shape):
        rng = np.random.default_rng(5)
        pool = np.array([0.0, -0.0, 1.0, -1.0, -2.25, math.pi, -1e-300])
        entries = rng.choice(pool, size=(4,) + shape) * rng.uniform(0.5, 2.0, size=(4,) + shape)
        entries.flat[:2] = -0.0, 0.0
        mats = np.moveaxis(entries, 0, -1).reshape(shape + (2, 2))
        args = [float(e) for e in entries] if shape == () else list(entries)
        assert _same_bits(paired_tensors(*args), _paired_reference(mats))

    @pytest.mark.parametrize("d", [0.0, 1e-300, 0.7, math.pi / 2, 3 * math.pi / 4, 5.0, 1e6 + 0.1])
    def test_scalar_builders_match_reference(self, d):
        expected = _paired_reference(rotation_matrix(d))
        assert _same_bits(flow_tensor(d).values, expected)
        assert _same_bits(paired_tensor(rotation_matrix(d)).values, expected)
        c, s = math.cos(d), math.sin(d)
        assert _same_bits(branch_tensor(c, s).constants.values, expected)
        assert _same_bits(paired_tensors(c, s, -s, c), expected)

    @pytest.mark.parametrize("label, c, s", [
        (FlowClassLabel(A1), 1.0, 0.0), (FlowClassLabel(A0_PLUS), 0.0, 1.0),
        (FlowClassLabel(A2), math.sqrt(0.5), -math.sqrt(0.5)),
        (FlowClassLabel(ACOS_PLUS, 0.3), 0.3, math.sqrt(0.91)),
        (FlowClassLabel(ACOS_MINUS, 0.3), 0.3, -math.sqrt(0.91)),
    ], ids=str)
    def test_class_representatives_match_reference(self, label, c, s):
        assert _same_bits(class_representative(label).constants.values,
                          _paired_reference(np.array([[c, s], [-s, c]])))

    def test_matches_scalar_tensors(self):
        d = np.concatenate([np.linspace(0.0, 40.0, 2001), [3 * math.pi / 4, 1e6 + 0.1]])
        stack = flow_tensors(d)
        assert stack.shape == (len(d), 2, 2, 2)
        for di, tensor in zip(d.tolist(), stack):
            assert np.array_equal(tensor, flow_tensor(di).values)

    def test_scalar_input_gives_one_tensor(self):
        assert np.array_equal(flow_tensors(2.5), flow_tensor(2.5).values)


class TestCheckTime:
    @pytest.mark.parametrize("t", [0.0, 1.5, 1e300])
    def test_accepts(self, t):
        check_time(t)

    @pytest.mark.parametrize("t, message", [
        (math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
        (-math.inf, "finite, got -inf"), (-0.5, "nonnegative, got -0.5"),
    ])
    def test_refuses(self, t, message):
        with pytest.raises(ValueError, match=message):
            check_time(t)


    @pytest.mark.parametrize("t, tol", [
        (2.0**22, 1e-9), (8397585.547992067, 1e-9), (1e8 * math.pi, 1e-9), (1e15, 1e-9),
        (2.0**22, 0.0), (MAX_TIME * 1.0000001, 1.0),
    ])
    def test_refuses_time_too_large_for_tolerance(self, t, tol):
        check_time(t)  # no tolerance: only finiteness and sign
        with pytest.raises(ValueError, match="too large for tolerance"):
            check_time(t, tol)

    @pytest.mark.parametrize("t, tol", [
        (math.nextafter(2.0**22, 0.0), 1e-9), (1e6, 0.0), (0.5, 0.0), (1e8, 1e-7), (MAX_TIME, 1.0),
    ])
    def test_accepts_time_fine_enough(self, t, tol):
        # spacing up to half the larger of tol and 1e-9 passes, so tol = 0 keeps t < 2**22
        check_time(t, tol)


def _exact_residue(t: float) -> Decimal:
    """t mod pi from the exact value of t, at 60 digits."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
        x = Decimal(t)
        return x - (x // pi) * pi


class TestReduceModPi:
    @staticmethod
    def _times() -> np.ndarray:
        rng = np.random.default_rng(11)
        multiples = [float(k * Decimal(math.pi)) for k in rng.integers(1, 2**26, size=300)]
        near = [math.nextafter(math.nextafter(k * math.pi, d), d)
                for k in rng.integers(1, 2**26, size=300).tolist() for d in (0.0, math.inf)]
        return np.concatenate([rng.uniform(0.0, MAX_TIME, 1000),
                               np.exp(rng.uniform(-20.0, math.log(MAX_TIME), 1000)),
                               multiples, near, [0.0, math.pi, MAX_TIME]])

    def test_within_a_few_ulps_of_the_exact_residue(self):
        # where the exact residue sits within 1e-15 of pi, r may wrap round to ~0;
        # r = math.pi is allowed, since the float pi is below pi
        for t in self._times().tolist():
            k, r = reduce_mod_pi(t)
            exact = _exact_residue(t)
            assert 0.0 <= r <= math.pi and k == int(k)
            err = abs(Decimal(r) - exact)
            assert min(err, abs(err - Decimal(math.pi))) <= Decimal("5e-16"), t

    def test_array_path_is_the_scalar_path(self):
        times = self._times()
        k, r = reduce_mod_pi(times)
        assert k.shape == r.shape == times.shape
        for t, k_t, r_t in zip(times.tolist(), k.tolist(), r.tolist()):
            assert reduce_mod_pi(t) == (k_t, r_t)

    def test_fmod_drifts_where_the_reduction_does_not(self):
        t = 1e8 * math.pi
        assert abs(Decimal(math.fmod(t, math.pi)) - _exact_residue(t)) > Decimal("1e-9")
        assert abs(Decimal(reduce_mod_pi(t)[1]) - _exact_residue(t)) < Decimal("1e-15")


class TestBuildFromPair:
    def test_rotation_family_coincides(self):
        d = 1.618
        assert build_from_pair(ROTATION_FAMILY, d) == flow_tensor(d)

    def test_identity_generator(self):
        family = FlowFamily(lambda d: np.eye(2), name="constant")
        tensor = build_from_pair(family, 5.0)
        assert np.array_equal(slice_j(tensor, 1), np.eye(2))
        assert np.array_equal(slice_j(tensor, 2), np.eye(2))

    def test_exponential_family_satisfies_kce(self):
        family = FlowFamily(lambda d: math.exp(d) * np.eye(2), name="diagonal")
        assert verify_kce(family, 0.1, 0.5, 1.3) < 1e-12
        # direct check of the exponential semigroup on the slices
        assert abs(math.exp(0.4) * math.exp(0.8) - math.exp(1.2)) < 1e-12

    def test_generator_must_fix_zero(self):
        with pytest.raises(ValueError):
            FlowFamily(lambda d: 2.0 * np.eye(2))

    def test_generator_must_be_2x2(self):
        with pytest.raises(ValueError):
            FlowFamily(lambda d: np.eye(3))


class TestVerifyKce:
    def test_single_triple(self):
        assert verify_kce(ROTATION_FAMILY, 0.0, 0.4, 1.0) < 1e-12

    def test_strict_ordering_required(self):
        with pytest.raises(ValueError):
            verify_kce(ROTATION_FAMILY, 0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            verify_kce(ROTATION_FAMILY, -1.0, 0.5, 1.0)

    def test_random_triples(self):
        for _ in range(200):
            s, tau, t = np.sort(RNG.uniform(0.0, 10.0, size=3))
            if not s < tau < t:
                continue
            assert verify_kce(ROTATION_FAMILY, s, tau, t) < 1e-12

    def test_time_homogeneous_equal_differences(self):
        # same elapsed times -> bit-identical tensors (single code path)
        for _ in range(100):
            s = RNG.uniform(0.0, 5.0)
            d = RNG.uniform(0.1, 5.0)
            shift = RNG.uniform(0.0, 3.0)
            a = build_from_pair(ROTATION_FAMILY, (s + d) - s)
            b = build_from_pair(ROTATION_FAMILY, (s + shift + d) - (s + shift))
            assert (a == b) == ((s + d) - s == (s + shift + d) - (s + shift))


class TestVerifyBaseSystem:
    def test_rotation_family(self):
        assert verify_base_system(ROTATION_FAMILY, 0.3, 1.1, 2.9) < 1e-12

    def test_constant_identity_exact_zero(self):
        family = FlowFamily(lambda d: np.eye(2), name="constant")
        assert verify_base_system(family, 0.0, 1.0, 2.0) == 0.0

    def test_broken_family_detected(self):
        broken = FlowFamily(lambda d: rotation_matrix(d * d), name="broken")
        assert verify_base_system(broken, 0.0, 1.0, 2.0) > 0.1

    def test_ordering(self):
        with pytest.raises(ValueError):
            verify_base_system(ROTATION_FAMILY, 1.0, 0.5, 2.0)


class TestCommutativityDefect:
    def test_zero_on_locus(self):
        assert abs(commutativity_defect(3 * math.pi / 4)) < 1e-15
        assert abs(commutativity_defect(7 * math.pi / 4)) < 1e-15

    def test_one_at_zero(self):
        assert commutativity_defect(0.0) == 1.0

    def test_matches_commutativity_predicate_on_grid(self):
        for d in np.linspace(0.0, 4 * math.pi, 500):
            assert is_commutative(AlgebraFD(flow_tensor(d))) == (
                abs(commutativity_defect(d)) <= 1e-9
            )

    @given(d=st.floats(0.0, 4 * math.pi, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_defect_equivalence_everywhere(self, d):
        assert is_commutative(AlgebraFD(flow_tensor(d))) == (
            abs(commutativity_defect(d)) <= 1e-9
        )


def test_paired_tensor_layout():
    mat = RNG.uniform(-1, 1, size=(2, 2))
    t = paired_tensor(mat)
    assert np.array_equal(slice_j(t, 1), mat)
    assert np.array_equal(slice_j(t, 2), mat.T)
