"""Time-to-class map, canonical families, and certified reductions."""

import importlib.util
import json
import math
import pathlib
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import algflow.checks
import algflow.classification
from algflow.algebra import (DEFAULT_TOL, change_of_basis, determinant, from_2x4,
                             is_associative, is_commutative, iso_residual_entries, iso_residuals,
                             to_2x4)
from algflow.checks import check_associativity_census
from algflow.classification import (
    _family_entries,
    A1,
    A2,
    A0_PLUS,
    ACOS_MINUS,
    ACOS_PLUS,
    BekbaevForm,
    FlowClassLabel,
    PARAM_COUNTS,
    bekbaev_matrix,
    class_representative,
    classify_time,
    classify_times,
    VARIANTS,
    label_to_json_dict,
    residue_times,
    to_bekbaev,
)
from algflow.cubic import CubicTensor
from algflow.flow import MAX_TIME, flow_algebra, paired_tensors
from algflow.isomorphism import iso_residual, rotation_iso


def _same_label(a: FlowClassLabel, b: FlowClassLabel, tol: float = 1e-9) -> bool:
    """Equal variant, and |c1 - c2| <= tol where the variant carries a parameter."""
    return a.variant == b.variant and (a.c is None or abs(a.c - b.c) <= tol)


class TestClassifyTime:
    @pytest.mark.parametrize("t", [0.0, math.pi, 2 * math.pi, 5 * math.pi])
    def test_pi_multiples(self, t):
        assert classify_time(t) == FlowClassLabel(A1)

    @pytest.mark.parametrize("t", [math.pi / 2, 3 * math.pi / 2, math.pi / 2 + 4 * math.pi])
    def test_half_pi_times(self, t):
        assert classify_time(t) == FlowClassLabel(A0_PLUS)

    @pytest.mark.parametrize("t", [3 * math.pi / 4, 7 * math.pi / 4, 3 * math.pi / 4 + 3 * math.pi])
    def test_commutative_times(self, t):
        assert classify_time(t) == FlowClassLabel(A2)

    def test_third_pi(self):
        label = classify_time(math.pi / 3)
        assert label.variant == ACOS_PLUS
        assert abs(label.c - 0.5) < 1e-12

    def test_two_thirds_pi_folds_sign(self):
        label = classify_time(2 * math.pi / 3)
        assert label.variant == ACOS_MINUS
        assert abs(label.c - 0.5) < 1e-12
        # the representative sits a half period away, so the two are isomorphic
        t_rep = 2 * math.pi - math.acos(0.5)
        assert rotation_iso(2 * math.pi / 3, t_rep).is_isomorphic
        rep = class_representative(label)
        assert iso_residual(flow_algebra(2 * math.pi / 3), rep,
                            _neg_identity()) < 1e-12

    def test_band_tolerance(self):
        assert classify_time(math.pi + 1e-10) == FlowClassLabel(A1)
        assert classify_time(math.pi / 2 - 1e-10) == FlowClassLabel(A0_PLUS)

    def test_pi_periodic(self):
        for t in (0.3, 1.2, 2.0, 2.7):
            assert _same_label(classify_time(t), classify_time(t + math.pi))

    @given(t=st.floats(0.0, 3 * math.pi, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_period_shift_never_changes_class(self, t):
        # stay off the razor edge of the band around the exceptional residues
        r = math.fmod(t, math.pi)
        edges = (0.0, math.pi / 2, 3 * math.pi / 4, math.pi)
        assume(all(not 1e-12 < abs(r - e) < 1e-6 for e in edges))
        assert _same_label(classify_time(t), classify_time(t + math.pi), tol=1e-7)

    def test_band_annulus_still_classifies(self):
        # |cos t| rounds to 1.0 here; the label must clamp, not fail
        label = classify_time(math.pi + 2e-9)
        assert label.variant == ACOS_PLUS
        assert 0.0 < label.c < 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            classify_time(-1.0)

    def test_parameter_strictly_inside_unit_interval(self):
        for t in np.linspace(0.01, 4 * math.pi, 300):
            label = classify_time(float(t))
            if label.c is not None:
                assert 0.0 < label.c < 1.0


class TestClassifyTimes:
    @staticmethod
    def _times():
        near = [base + n * math.pi + off
                for base in (0.0, math.pi / 2, 3 * math.pi / 4, math.pi)
                for n in range(4)
                for off in (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 2e-9, -2e-9, 1e-6, -1e-6)]
        grid = np.linspace(0.0, 30.0, 7001)
        rng = np.random.default_rng(17)
        wide = rng.uniform(0.0, 1e6, size=2000)
        return np.concatenate([[t for t in near if t >= 0], grid, wide])

    @pytest.mark.parametrize("tol", [1e-9, 0.0, 1e-3, 1.0])
    def test_matches_scalar_path(self, tol):
        times = self._times()
        codes, c = classify_times(times, tol)
        for t, code, c_t in zip(times.tolist(), codes.tolist(), c.tolist()):
            label = classify_time(t, tol)
            assert VARIANTS[code] == label.variant, t
            if label.c is None:
                assert math.isnan(c_t), t
            else:
                assert abs(c_t - label.c) <= math.ulp(label.c), t

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "time must be finite, got nan"),
        (math.inf, "time must be finite, got inf"),
        (-1.0, "time must be nonnegative, got -1.0"),
    ])
    def test_refuses_what_the_scalar_path_refuses(self, bad, message):
        with pytest.raises(ValueError, match=message):
            classify_time(bad)
        with pytest.raises(ValueError, match=message):
            classify_times(np.array([0.5, bad, 1.0]))

    @pytest.mark.parametrize("bad, message", [
        (math.nan, "time must be finite, got nan"),
        (-math.inf, "time must be finite, got -inf"),
        (-1.0, "time must be nonnegative, got -1.0"),
        (2.0**22, "time 4194304.0 is too large for tolerance 1e-09"),
    ])
    @pytest.mark.parametrize("position", [0, -1])
    def test_refuses_a_bad_time_at_either_end(self, bad, message, position):
        times = np.array([0.5, 2.0, 1.0])
        times[position] = bad
        with pytest.raises(ValueError, match=message):
            classify_times(times)

    def test_empty_input_gives_empty_output(self):
        codes, c = classify_times(np.array([]))
        assert codes.shape == c.shape == (0,)


def _neg_identity():
    from algflow.algebra import BasisChange

    return BasisChange(-np.eye(2))


class TestLabels:
    def test_fixed_variants_take_no_parameter(self):
        with pytest.raises(ValueError):
            FlowClassLabel(A1, 0.5)

    def test_parametrized_variants_need_parameter(self):
        with pytest.raises(ValueError):
            FlowClassLabel(ACOS_PLUS)
        with pytest.raises(ValueError):
            FlowClassLabel(ACOS_MINUS, 1.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            FlowClassLabel("A3")

    def test_json_layout(self):
        assert label_to_json_dict(FlowClassLabel(ACOS_PLUS, 0.5)) == {
            "class": "ACosPlus",
            "c": 0.5,
        }


class TestRepresentatives:
    def test_a1_matrix(self):
        got = to_2x4(class_representative(FlowClassLabel(A1)))
        assert np.array_equal(got, [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])

    def test_a0_plus_matrix(self):
        got = to_2x4(class_representative(FlowClassLabel(A0_PLUS)))
        assert np.array_equal(got, [[0.0, 0.0, -1.0, 1.0], [1.0, -1.0, 0.0, 0.0]])

    def test_plus_branch_slice(self):
        rep = class_representative(FlowClassLabel(ACOS_PLUS, 0.6))
        assert np.allclose(rep.constants.values[:, 0, :], [[0.6, 0.8], [-0.8, 0.6]])

    def test_minus_branch_slice(self):
        rep = class_representative(FlowClassLabel(ACOS_MINUS, 0.6))
        assert np.allclose(rep.constants.values[:, 0, :], [[0.6, -0.8], [0.8, 0.6]])

    def test_a2_entries(self):
        rep = class_representative(FlowClassLabel(A2))
        r = math.sqrt(0.5)
        assert np.max(np.abs(np.abs(rep.constants.values) - r)) == 0.0

    def test_branch_tensor_layout(self):
        a = paired_tensors(0.3, -0.4, 0.4, 0.3)
        assert np.array_equal(CubicTensor(a).values[:, 0, :], [[0.3, -0.4], [0.4, 0.3]])


class TestBekbaevMatrices:
    def test_family_5_half(self):
        got = bekbaev_matrix(BekbaevForm(5, (0.5, 0.0)))
        assert np.array_equal(got, [[0.5, 0.0, 0.0, 0.0], [0.0, 0.0, 0.5, 0.0]])

    def test_family_15(self):
        got = bekbaev_matrix(BekbaevForm(15))
        assert np.array_equal(got, [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])

    def test_family_8_origin(self):
        got = bekbaev_matrix(BekbaevForm(8, (0.0, 0.0)))
        assert np.array_equal(got, [[0.0, 0.0, 0.0, -1.0], [0.0, 1.0, 0.0, 0.0]])

    def test_param_counts(self):
        assert PARAM_COUNTS == {1: 4, 2: 3, 3: 3, 4: 2, 5: 2, 6: 1, 7: 2, 8: 2,
                                9: 1, 10: 1, 11: 0, 12: 0, 13: 0, 14: 0, 15: 0}

    def test_all_families_instantiate(self):
        for family, count in PARAM_COUNTS.items():
            form = BekbaevForm(family, tuple(0.25 for _ in range(count)))
            assert bekbaev_matrix(form).shape == (2, 4)

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            BekbaevForm(5, (0.5,))

    def test_negative_beta1_rejected_where_constrained(self):
        for family in (2, 3, 7, 8):
            params = tuple([0.1, -0.2] + [0.0] * (PARAM_COUNTS[family] - 2))
            with pytest.raises(ValueError):
                BekbaevForm(family, params)

    def test_family_range(self):
        with pytest.raises(ValueError):
            BekbaevForm(16)

    @pytest.mark.parametrize("params", [(0.5, math.nan, 0.0), (0.5, 0.0, math.inf),
                                        (-math.inf, 0.0, 0.0)])
    def test_non_finite_params_rejected(self, params):
        with pytest.raises(ValueError, match="parameters must be finite"):
            BekbaevForm(2, params)

    @pytest.mark.parametrize("family", [2.0, True, "2", np.float64(2)])
    def test_non_integer_family_refused(self, family):
        with pytest.raises(ValueError, match="family must be an integer"):
            BekbaevForm(family, (0.5, 0.5, 0.5))

    @pytest.mark.parametrize("family, params", [(2, "123"), (6, (True,)), (6, ("0.5",)),
                                                (5, (0.5, np.True_)), (6, (b"1",))])
    def test_non_real_params_refused(self, family, params):
        with pytest.raises(ValueError, match="parameters must be real numbers"):
            BekbaevForm(family, params)

    def test_int_float_and_numpy_real_params_accepted(self):
        form = BekbaevForm(2, (1, np.float32(0.5), np.int64(-3)))
        assert form.params == (1.0, 0.5, -3.0) and all(type(x) is float for x in form.params)
        assert BekbaevForm(6, iter([0.25])).params == (0.25,)

    def test_numpy_integer_family_stored_as_int(self):
        form = BekbaevForm(np.int64(2), (0.5, 0.5, 0.5))
        assert type(form.family) is int and form == BekbaevForm(2, (0.5, 0.5, 0.5))
        assert json.dumps(form.to_json_dict()) == '{"family": 2, "params": [0.5, 0.5, 0.5]}'

    @pytest.mark.parametrize("family", sorted(PARAM_COUNTS))
    def test_tensor_entries_match_the_matrix_bit_for_bit(self, family):
        # the (i, j, k) entries that to_bekbaev reads against the 2 x 4 matrix's tensor
        rng = np.random.default_rng(100 + family)
        draws = [rng.uniform(-3.0, 3.0, size=PARAM_COUNTS[family]) for _ in range(20)]
        draws += [np.zeros(PARAM_COUNTS[family]), -np.zeros(PARAM_COUNTS[family])]
        for params in draws:
            if family in (2, 3, 7, 8):
                params[1] = abs(params[1])
            form = BekbaevForm(family, tuple(params))
            tensor = from_2x4(bekbaev_matrix(form)).constants.values
            assert np.array(_family_entries(form)).tobytes() == tensor.ravel().tobytes()

    @staticmethod
    def _lambda_rows(form: BekbaevForm) -> np.ndarray:
        """The family matrices as they were written before the table."""
        p = form.params
        rows = {
            1: lambda: [[p[0], p[1], p[1] + 1, p[2]], [p[3], -p[0], 1 - p[0], -p[1]]],
            2: lambda: [[p[0], 0, 0, 1], [p[1], p[2], 1 - p[0], 0]],
            3: lambda: [[p[0], 0, 0, -1], [p[1], p[2], 1 - p[0], 0]],
            4: lambda: [[0, 1, 1, 0], [p[0], p[1], 1, -1]],
            5: lambda: [[p[0], 0, 0, 0], [0, p[1], 1 - p[0], 0]],
            6: lambda: [[p[0], 0, 0, 0], [1, 2 * p[0] - 1, 1 - p[0], 0]],
            7: lambda: [[p[0], 0, 0, 1], [p[1], 1 - p[0], -p[0], 0]],
            8: lambda: [[p[0], 0, 0, -1], [p[1], 1 - p[0], -p[0], 0]],
            9: lambda: [[0, 1, 1, 0], [p[0], 1, 0, -1]],
            10: lambda: [[p[0], 0, 0, 0], [0, 1 - p[0], -p[0], 0]],
            11: lambda: [[1 / 3, 0, 0, 0], [1, 2 / 3, -1 / 3, 0]],
            12: lambda: [[0, 1, 1, 0], [1, 0, 0, -1]],
            13: lambda: [[0, 1, 1, 0], [-1, 0, 0, -1]],
            14: lambda: [[0, 1, 1, 0], [0, 0, 0, -1]],
            15: lambda: [[0, 0, 0, 0], [1, 0, 0, 0]],
        }
        return np.array(rows[form.family](), dtype=float)

    @pytest.mark.parametrize("family", sorted(PARAM_COUNTS))
    def test_table_matches_the_lambda_rows_bit_for_bit(self, family):
        # zeros too, so that "-p0" at p0 = 0 still prints as -0.0
        rng = np.random.default_rng(family)
        draws = [rng.uniform(-3.0, 3.0, size=PARAM_COUNTS[family]) for _ in range(50)]
        draws += [np.zeros(PARAM_COUNTS[family]), -np.zeros(PARAM_COUNTS[family])]
        for params in draws:
            if family in (2, 3, 7, 8):
                params[1] = abs(params[1])
            form = BekbaevForm(family, tuple(params))
            assert bekbaev_matrix(form).tobytes() == self._lambda_rows(form).tobytes()


def _rounding_bound(p: np.ndarray) -> float:
    """1e-10 max(1, max|P|^3 / |det P|): the rounding part of the bound of ``to_bekbaev``."""
    p_max = float(np.abs(p).max())
    return 1e-10 * max(1.0, p_max / abs(float(determinant(p))) * p_max * p_max)


def _scale_cap(target: np.ndarray) -> float:
    """1e-6 max(1, max|target|): the cap on the bound of ``to_bekbaev``."""
    return 1e-6 * max(1.0, float(np.abs(target).max()))


class TestToBekbaev:
    def test_a1_reduction(self):
        form, cert = to_bekbaev(FlowClassLabel(A1))
        assert form == BekbaevForm(5, (0.5, 0.0))
        assert np.array_equal(cert.matrix, [[0.5, 0.0], [-1.0, 1.0]])

    def test_a0_plus_reduction(self):
        form, cert = to_bekbaev(FlowClassLabel(A0_PLUS))
        assert form == BekbaevForm(8, (0.0, 0.0))
        assert np.array_equal(cert.matrix, [[-0.5, -0.5], [0.5, -0.5]])

    def test_a2_reduction(self):
        form, cert = to_bekbaev(FlowClassLabel(A2))
        assert form == BekbaevForm(3, (0.5, 0.0, 0.5))

    def test_quarter_pi_plus_reduction(self):
        c = math.sqrt(0.5)
        form, cert = to_bekbaev(FlowClassLabel(ACOS_PLUS, c))
        assert form.family == 2
        assert np.allclose(form.params, (0.5, 0.0, -0.5))
        expected = np.array([[math.sqrt(2) / 4, math.sqrt(2) / 4], [0.5, -0.5]])
        assert np.max(np.abs(cert.matrix - expected)) < 1e-12

    def test_minus_branch_parameters(self):
        for c in (0.2, 0.5, 0.8):
            form, cert = to_bekbaev(FlowClassLabel(ACOS_MINUS, c))
            assert form.family == 3
            s = math.sqrt(1 - c * c)
            assert np.allclose(form.params, (0.5, 0.0, s / (2 * c)))

    def test_exact_fixed_targets(self):
        for variant in (A1, A0_PLUS):
            label = FlowClassLabel(variant)
            form, cert = to_bekbaev(label)
            moved = to_2x4(change_of_basis(class_representative(label), cert))
            assert np.array_equal(moved, bekbaev_matrix(form))

    def test_residual_postcondition_on_label_grid(self):
        from algflow.algebra import from_2x4

        for t in np.linspace(0.0, 2 * math.pi, 50):
            label = classify_time(float(t))
            form, cert = to_bekbaev(label)  # raises if the residual bound fails
            residual = iso_residual(
                class_representative(label), from_2x4(bekbaev_matrix(form)), cert
            )
            assert residual <= 1e-10

    def test_scaled_bound_near_the_ends_of_the_unit_interval(self):
        # The reduction matrix has entries 1/(4c) and 1/(2 sqrt(2cs)), which
        # blow up as c -> 0 or 1, and the rounding of the transform with them;
        # a flat 1e-10 bound refused about a third of these labels.
        for e in np.linspace(-15.5, 0.0, 400, endpoint=False):
            for c in (10.0 ** e, 1.0 - 10.0 ** e):
                for variant in (ACOS_PLUS, ACOS_MINUS):
                    to_bekbaev(FlowClassLabel(variant, float(c)))

    def test_tiny_parameters_raise_no_overflow_error(self):
        # max|P|^3 overflowed a float power for c from about 3e-309 to 4e-104.
        for e in range(-320, -99):
            for variant in (ACOS_PLUS, ACOS_MINUS):
                try:
                    to_bekbaev(FlowClassLabel(variant, 10.0 ** e))
                except (ValueError, AssertionError):
                    pass

    @pytest.mark.parametrize("scale", [1e150, 1e300])
    def test_huge_reduction_matrix_raises_assertion_error(self, monkeypatch, scale):
        reduction = algflow.classification._reduction
        monkeypatch.setattr(algflow.classification, "_reduction",
                            lambda label: (reduction(label)[0], reduction(label)[1] * scale))
        with pytest.raises(AssertionError, match="canonical reduction residual"):
            to_bekbaev(FlowClassLabel(ACOS_PLUS, 0.5))

    def test_nan_residual_raises(self, monkeypatch):
        # det P = 1 and the bound is inf, but the transform meets inf - inf.
        reduction = algflow.classification._reduction
        monkeypatch.setattr(algflow.classification, "_reduction", lambda label: (
            reduction(label)[0], np.array([[1e200, 1e200], [1e-200, 2e-200]])))
        with pytest.raises(AssertionError, match="residual nan exceeds"):
            to_bekbaev(FlowClassLabel(ACOS_PLUS, 0.5))

    @given(c=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           variant=st.sampled_from((ACOS_PLUS, ACOS_MINUS)))
    @settings(max_examples=300, deadline=None)
    def test_returned_certificate_meets_its_bound_under_the_array_kernel(self, c, variant):
        # The array kernel rounds at the scale of the rounding bound, so it is
        # held to that part: below c of about 1e-21 it cannot resolve the cap.
        label = FlowClassLabel(variant, c)
        try:
            form, cert = to_bekbaev(label)
        except (ValueError, AssertionError):
            return
        residual = iso_residual(class_representative(label), from_2x4(bekbaev_matrix(form)), cert)
        assert residual <= _rounding_bound(cert.matrix)

    def test_raises_exactly_where_the_array_kernel_rule_does(self, monkeypatch):
        # The old rule: the residual from ``iso_residuals`` against the rounding
        # bound, which still decides wherever it is below the cap.  Within about
        # 3e-10 of c = 0 or 1 the cap decides; below c of about 1e-21 the array
        # kernel's own rounding outgrows it, so there the residual is the scalar
        # kernel's, as in ``to_bekbaev``.
        # Scaling P by 1 + delta scales its transform too, so a small delta of r
        # times bound / max|target| puts the residual near r times the bound, and r
        # log-uniform in [1e-2, 1e2] gives both outcomes.  A third keep delta = 0.
        rng = np.random.default_rng(1818)
        reduction = algflow.classification._reduction
        delta = {}
        monkeypatch.setattr(algflow.classification, "_reduction", lambda label: (
            reduction(label)[0], reduction(label)[1] * (1.0 + delta[label])))
        c_max = algflow.classification._C_MAX
        cs = np.concatenate(([1e-100, c_max], 10.0 ** rng.uniform(-100.0, 0.0, size=500),
                             rng.uniform(0.0, 1.0, size=800), 1.0 - 10.0 ** rng.uniform(-16, 0, 200)))
        raised, capped = [], []
        for c in cs.tolist():
            for variant in (ACOS_PLUS, ACOS_MINUS):
                label = FlowClassLabel(variant, min(c, c_max))
                form, p = reduction(label)
                target = bekbaev_matrix(form)
                bound = min(_rounding_bound(p), _scale_cap(target))
                delta[label] = (rng.choice([0.0, -1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 2.0)
                                * bound / float(np.abs(target).max()))
                p = p * (1.0 + delta[label])
                source, moved = (x.constants.values for x in (class_representative(label),
                                                              from_2x4(target)))
                if _rounding_bound(p) <= _scale_cap(target):
                    residual = float(iso_residuals(source[None], moved[None], p[None])[0])
                    bound = _rounding_bound(p)
                else:
                    residual = iso_residual_entries(source.ravel().tolist(), moved.ravel().tolist(),
                                                    p.tolist())
                    bound = _scale_cap(target)
                    capped.append(c)
                try:
                    to_bekbaev(label)
                    new = False
                except AssertionError:
                    new = True
                assert new == (not residual <= bound), (label, delta[label])
                raised.append(new)
        assert 0.1 < np.mean(raised) < 0.5  # 0.33 at this seed
        assert len(capped) > 100 and all(min(c, 1.0 - c) < 3e-10 for c in capped)

    @pytest.mark.parametrize("c, factor", [(1e-22, 2.0), (1e-22, 1e6), (1e-30, 2.0),
                                           (1e-30, 1e6), (1e-30, -1.0)])
    @pytest.mark.parametrize("variant", [ACOS_PLUS, ACOS_MINUS])
    def test_wrong_certificate_for_a_tiny_parameter_raises(self, monkeypatch, c, factor, variant):
        # Below c of about 1e-21 the rounding bound alone outgrows the target and
        # accepted these multiples of the reduction matrix; the cap refuses them.
        reduction = algflow.classification._reduction
        monkeypatch.setattr(algflow.classification, "_reduction",
                            lambda label: (reduction(label)[0], reduction(label)[1] * factor))
        with pytest.raises(AssertionError, match="canonical reduction residual"):
            to_bekbaev(FlowClassLabel(variant, c))

    @pytest.mark.parametrize("c", [1e-6, 0.5, 1.0 - 1e-6])
    def test_wrong_reduction_matrix_still_raises(self, monkeypatch, c):
        reduction = algflow.classification._reduction

        def off_by_a_thousandth(label):
            form, p = reduction(label)
            return form, p * 1.001

        monkeypatch.setattr(algflow.classification, "_reduction", off_by_a_thousandth)
        with pytest.raises(AssertionError, match="canonical reduction residual"):
            to_bekbaev(FlowClassLabel(ACOS_PLUS, c))


class TestCensus:
    @pytest.fixture
    def census(self, monkeypatch):
        """The labels whose representatives the census check builds, once each."""
        seen = []

        def recording(label):
            seen.append(label)
            return class_representative(label)

        monkeypatch.setattr(algflow.checks, "class_representative", recording)
        assert check_associativity_census().passed
        return set(seen)

    def test_true_exactly_for_a1_and_a2(self, census):
        for label in census:
            assert is_associative(class_representative(label)) == (label.variant in (A1, A2))

    def test_covers_both_branches(self, census):
        variants = [label.variant for label in census]
        assert variants.count(ACOS_PLUS) == 9
        assert variants.count(ACOS_MINUS) == 9


class TestConsistencyWithIsomorphism:
    def test_grid_equivalence(self):
        times = [round(0.05 * k, 2) for k in range(int(2 * math.pi / 0.05) + 1)]
        labels = {t: classify_time(t) for t in times}
        for t1 in times[::5]:
            for t2 in times[::5]:
                same = _same_label(labels[t1], labels[t2])
                assert same == rotation_iso(t1, t2).is_isomorphic

    def test_period_shift_pairs_agree(self):
        for t in (0.3, 1.0, 2.2, 3.3):
            assert _same_label(classify_time(t), classify_time(t + math.pi))
            assert rotation_iso(t, t + math.pi).is_isomorphic


def _load_bench_oracles():
    """``bench/oracles.py``, which imports no algflow, loaded by path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLES = _load_bench_oracles()


def _refused(t: float) -> bool:
    return t > MAX_TIME or 2 * math.ulp(t) > DEFAULT_TOL


def _gap(r1: Decimal, r2: Decimal) -> float:
    """Distance of r2 - r1 from the nearest multiple of pi."""
    d = abs(r2 - r1)
    return float(min(d, ORACLES.PI - d))


def _edge_distance(r: Decimal) -> float:
    """Distance of a residue from 0, pi/2, 3*pi/4 and pi, the band centres."""
    return float(min(abs(r - e) for e in (Decimal(0), ORACLES._HALF_PI,
                                          ORACLES._THREE_QUARTER_PI, ORACLES.PI)))


def _assert_consistent(t1: float, t2: float, shifted: bool) -> None:
    """Labels, the exact decider and the commutativity predicate agree on an
    accepted pair.  Skipped: a time in the ambiguous zone outside a band (1e-9
    for labels, 1e-9 / sqrt(2) for the predicate) and, unless t2 is t1 + n*pi
    in floats, a pair whose gap or parameter difference is near the tolerance."""
    r1, r2 = ORACLES.residue_mod_pi(t1), ORACLES.residue_mod_pi(t2)
    labels = classify_time(t1), classify_time(t2)
    for t, r, label in ((t1, r1, labels[0]), (t2, r2, labels[1])):
        if 6.9e-10 < _edge_distance(r) < 1e-6:
            return
        variant, c = ORACLES.flow_class(t)
        assert label.variant == variant, t
        assert c is None or abs(label.c - c) <= 1e-12, t
        assert is_commutative(flow_algebra(t)) == (variant == A2), t
    same = _same_label(labels[0], labels[1])
    verdict = rotation_iso(t1, t2)
    if shifted:
        assert same and verdict.is_isomorphic, (t1, t2)
        return
    gap = _gap(r1, r2)
    if 0.9e-9 < gap < 1e-6:
        return
    if gap >= 1e-6 and labels[0].variant == labels[1].variant and labels[0].c is not None:
        if abs(labels[0].c - labels[1].c) <= 2e-9:
            return  # near A1 a gap of 1e-6 can move c by less than the tolerance
    assert verdict.is_isomorphic == same == (gap <= 0.9e-9), (t1, t2)


class TestLargeTimes:
    """Times far from 0: refused when their float spacing is too coarse for the
    tolerance, consistent between labels, verdicts and predicates otherwise."""

    @pytest.mark.parametrize("n_high", [100_000_000, 2_700_000])
    def test_seeded_sweep_of_period_shifts(self, n_high):
        # t2 = t1 + n*pi in floats, n in [1e5, n_high): the pairs that once parted;
        # n below 2.7e6 straddles the refusal edge at t = 2**22
        rng = np.random.default_rng(20261018)
        accepted = 0
        for _ in range(2000):
            t1 = float(rng.uniform(0.0, math.pi))
            t2 = t1 + int(rng.integers(100_000, n_high)) * math.pi
            if _refused(t2):
                with pytest.raises(ValueError, match="too large for tolerance"):
                    classify_time(t2)
                with pytest.raises(ValueError, match="too large for tolerance"):
                    rotation_iso(t1, t2)
                continue
            accepted += 1
            _assert_consistent(t1, t2, shifted=True)
        assert accepted > 10

    def test_cli_example_is_refused(self):
        with pytest.raises(ValueError, match="too large for tolerance"):
            rotation_iso(1.5707963267948966, 8397585.547992067)
        with pytest.raises(ValueError, match="too large for tolerance"):
            classify_time(1e8 * math.pi)
        with pytest.raises(ValueError, match="too large for tolerance"):
            classify_times(np.array([0.5, 1e8 * math.pi]))

    @given(t1=st.one_of(st.floats(0.0, 1e15), st.floats(0.0, 2.0**22)),
           t2=st.one_of(st.floats(0.0, 1e15), st.floats(0.0, 2.0**22)),
           n=st.integers(0, 10**9), shift=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_refused_or_consistent(self, t1, t2, n, shift):
        if shift:
            t2 = t1 + n * math.pi
        for t in (t1, t2):
            if _refused(t):
                with pytest.raises(ValueError, match="too large for tolerance"):
                    classify_time(t)
        if _refused(t1) or _refused(t2):
            with pytest.raises(ValueError, match="too large for tolerance"):
                rotation_iso(t1, t2)
            return
        _assert_consistent(t1, t2, shift)

    @pytest.mark.parametrize("residue", [0.0, math.pi / 2, 3 * math.pi / 4])
    def test_residue_times_stay_on_their_residue(self, residue):
        times = residue_times(residue, 2.0**22)
        assert len(times) == math.floor((2.0**22 - residue) / math.pi) + 1
        for n in (0, 1, 2, 1000, 654_321, len(times) - 1):
            exact = Decimal(residue) + n * ORACLES.PI
            assert abs(Decimal(times[n]) - exact) <= Decimal(math.ulp(times[n])), n
