"""The rotation flow: construction, composition law, commutative locus."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algflow.algebra import is_commutative, to_2x4
from algflow.classification import (
    A1,
    A2,
    A0_PLUS,
    ACOS_MINUS,
    ACOS_PLUS,
    FlowClassLabel,
    class_representative,
)
from algflow.cubic import CubicTensor, slice_j
from algflow.flow import (
    MAX_TIME,
    check_time,
    commutativity_defect,
    flow_algebra,
    flow_tensors,
    kce_residuals,
    paired_tensors,
    reduce_mod_pi,
    verify_kce,
)

RNG = np.random.default_rng(7)


def _rotation(d: float) -> np.ndarray:
    """[[cos d, sin d], [-sin d, cos d]] from ``math.cos``/``math.sin``."""
    c, s = math.cos(d), math.sin(d)
    return np.array([[c, s], [-s, c]])


class TestFlowTensor:
    def test_zero_form(self):
        assert np.array_equal(
            to_2x4(flow_algebra(0.0)).values,
            [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]],
        )

    def test_half_pi_form(self):
        got = to_2x4(flow_algebra(math.pi / 2)).values
        assert np.max(np.abs(got - [[0.0, 0.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])) < 1e-15

    def test_three_quarters_pi_entries(self):
        # the commutative tensor; its negation is the A2 representative
        got = flow_algebra(3 * math.pi / 4).constants
        r = math.sqrt(0.5)
        assert np.max(np.abs(np.abs(got.values) - r)) < 1e-15
        a2 = flow_algebra(7 * math.pi / 4).constants
        assert np.max(np.abs(got.values + a2.values)) < 1e-15

    def test_second_slice_is_transpose(self):
        t = flow_algebra(2.345).constants
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
        expected = _paired_reference(_rotation(d))
        assert _same_bits(flow_algebra(d).constants.values, expected)
        assert _same_bits(flow_tensors(d), expected)
        c, s = math.cos(d), math.sin(d)
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
            assert np.array_equal(tensor, flow_algebra(di).constants.values)
            assert np.array_equal(tensor, _paired_reference(_rotation(di)))

    def test_scalar_input_gives_one_tensor(self):
        assert np.array_equal(flow_tensors(2.5), _paired_reference(_rotation(2.5)))


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


def _kce_reference(s: float, tau: float, t: float) -> float:
    """The composition-law residual from ``math.cos``/``math.sin`` tensors and
    one 2 x 2 product per middle index."""
    whole, a, b = (_paired_reference(_rotation(d)) for d in (t - s, tau - s, t - tau))
    split = np.stack([a[:, j, :] @ b[:, j, :] for j in (0, 1)], axis=1)
    return float(np.max(np.abs(whole - split)))


class TestVerifyKce:
    def test_kernel_matches_reference_bit_for_bit(self):
        rng = np.random.default_rng(29)
        draws = np.concatenate([rng.uniform(0.0, 20.0, size=(1500, 3)),
                                np.exp(rng.uniform(-5.0, 15.0, size=(500, 3)))])
        s, tau, t = np.sort(draws, axis=1).T
        residuals = kce_residuals(s, tau, t)
        assert residuals.shape == s.shape
        assert np.array_equal(kce_residuals(*(x.reshape(40, 50) for x in (s, tau, t))),
                              residuals.reshape(40, 50))
        for s_n, tau_n, t_n, r_n in zip(s.tolist(), tau.tolist(), t.tolist(), residuals.tolist()):
            assert r_n == _kce_reference(s_n, tau_n, t_n)
            assert verify_kce(s_n, tau_n, t_n) == r_n

    def test_single_triple(self):
        assert verify_kce(0.0, 0.4, 1.0) < 1e-12

    def test_strict_ordering_required(self):
        with pytest.raises(ValueError):
            verify_kce(0.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            verify_kce(-1.0, 0.5, 1.0)

    def test_random_triples(self):
        for _ in range(200):
            s, tau, t = np.sort(RNG.uniform(0.0, 10.0, size=3))
            if not s < tau < t:
                continue
            assert verify_kce(s, tau, t) < 1e-12

    def test_time_homogeneous_equal_differences(self):
        # same elapsed times -> bit-identical tensors (single code path)
        for _ in range(100):
            s = RNG.uniform(0.0, 5.0)
            d = RNG.uniform(0.1, 5.0)
            shift = RNG.uniform(0.0, 3.0)
            a = flow_algebra((s + d) - s).constants
            b = flow_algebra((s + shift + d) - (s + shift)).constants
            assert (a == b) == ((s + d) - s == (s + shift + d) - (s + shift))


class TestCommutativityDefect:
    def test_zero_on_locus(self):
        assert abs(commutativity_defect(3 * math.pi / 4)) < 1e-15
        assert abs(commutativity_defect(7 * math.pi / 4)) < 1e-15

    def test_one_at_zero(self):
        assert commutativity_defect(0.0) == 1.0

    def test_matches_commutativity_predicate_on_grid(self):
        for d in np.linspace(0.0, 4 * math.pi, 500):
            assert is_commutative(flow_algebra(d)) == (
                abs(commutativity_defect(d)) <= 1e-9
            )

    @given(d=st.floats(0.0, 4 * math.pi, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_defect_equivalence_everywhere(self, d):
        assert is_commutative(flow_algebra(d)) == (
            abs(commutativity_defect(d)) <= 1e-9
        )


def test_paired_tensor_layout():
    mat = RNG.uniform(-1, 1, size=(2, 2))
    t = CubicTensor(paired_tensors(*mat.ravel()))
    assert np.array_equal(slice_j(t, 1), mat)
    assert np.array_equal(slice_j(t, 2), mat.T)
