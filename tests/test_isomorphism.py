"""Isomorphism deciders: residual, numeric search, exact case analysis."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algflow import isomorphism
from algflow.algebra import (
    EPS_DET,
    AlgebraFD,
    BasisChange,
    change_of_basis,
    determinant,
    random_invertible,
)
from algflow.classification import (
    EXCEPTIONAL_RESIDUES,
    A1,
    A0_PLUS,
    A2,
    ACOS_MINUS,
    ACOS_PLUS,
    FlowClassLabel,
    class_representative,
    classify_time,
)
from algflow.cubic import CubicTensor
from algflow.flow import MAX_TIME, check_time, flow_algebra, reduce_mod_pi
from algflow.isomorphism import (
    KIND_ISOMORPHIC,
    KIND_NOT_FOUND_WITHIN_BUDGET,
    KIND_NOT_ISOMORPHIC_EXACT,
    InvariantSignature,
    IsoVerdict,
    SearchConfig,
    _MAX_ITERATIONS,
    _lockstep_descents,
    _max_abs,
    _transform_jacobian,
    _transform_residual,
    invariant_signature,
    iso_residual,
    iso_search,
    rotation_iso,
    rotation_isomorphic,
)

A1_REP = class_representative(FlowClassLabel(A1))
A0_REP = class_representative(FlowClassLabel(A0_PLUS))
NEG_A1 = AlgebraFD(CubicTensor(-A1_REP.constants.values))


class TestIsoResidual:
    def test_negated_basis_between_sign_twins(self):
        p = BasisChange(-np.eye(2))
        assert iso_residual(A1_REP, NEG_A1, p) < 1e-15

    def test_identity_on_equal_algebras(self):
        a = flow_algebra(0.77)
        assert iso_residual(a, a, BasisChange.identity(2)) == 0.0

    def test_period_shift_certificate(self):
        t1 = math.pi / 6
        p = BasisChange(-np.eye(2))  # cos(t1 + pi) / cos(t1) = -1
        assert iso_residual(flow_algebra(t1), flow_algebra(t1 + math.pi), p) < 1e-12

    def test_dim_guard(self):
        # No dim-3 algebra reaches iso_residual: construction refuses it.
        with pytest.raises(ValueError, match="algebras are two-dimensional, got dim 3"):
            big = AlgebraFD(CubicTensor(np.zeros((3, 3, 3))))
            iso_residual(big, big, BasisChange.identity(2))


class TestIsoSearch:
    def test_sign_twins_found_with_family_certificate(self):
        verdict = iso_search(A1_REP, NEG_A1)
        assert verdict.kind == KIND_ISOMORPHIC
        assert verdict.residual < 1e-9
        p = verdict.certificate
        # solutions form the family x1+x2 = y1+y2 = -1 here
        u, v = p.matrix.sum(axis=1)
        assert abs(u - v) < 1e-7
        assert abs(abs(u) - 1.0) < 1e-7
        assert abs(determinant(p.matrix)) > 1e-10

    def test_self_isomorphism_found(self):
        a = flow_algebra(1.3)
        verdict = iso_search(a, a)
        assert verdict.kind == KIND_ISOMORPHIC

    def test_separated_pair_not_found(self):
        verdict = iso_search(A0_REP, A1_REP)
        assert verdict.kind == KIND_NOT_FOUND_WITHIN_BUDGET
        assert verdict.certificate is None

    def test_deterministic_for_fixed_seed(self):
        a, b = flow_algebra(0.4), flow_algebra(0.4 + math.pi)
        v1 = iso_search(a, b, SearchConfig(seed=5))
        v2 = iso_search(a, b, SearchConfig(seed=5))
        assert np.array_equal(v1.certificate.matrix, v2.certificate.matrix)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(restarts=0)
        with pytest.raises(ValueError):
            SearchConfig(tol=0.0)
        with pytest.raises(ValueError, match="seed must be nonnegative, got -1"):
            SearchConfig(seed=-1)

    @pytest.mark.parametrize("kwargs, message", [
        ({"restarts": 2.5}, "restarts must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"restarts": True}, "restarts must be an integer, got True"),
        ({"seed": False}, "seed must be an integer, got False"),
        ({"restarts": "8"}, "restarts must be an integer, got '8'"),
    ])
    def test_config_refuses_non_integers(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            SearchConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        assert SearchConfig(restarts=np.int64(3), seed=np.uint8(2)).restarts == 3

    def test_dim_guard(self):
        # No dim-3 algebra reaches iso_search: construction refuses it.
        with pytest.raises(ValueError, match="algebras are two-dimensional, got dim 3"):
            big = AlgebraFD(CubicTensor(np.zeros((3, 3, 3))))
            iso_search(big, big)


RANDOM_ALGEBRA = AlgebraFD(CubicTensor(np.random.default_rng(2024).uniform(-1, 1, (2, 2, 2))))
PINNED_PAIRS = {
    "sign_twins": (A1_REP, NEG_A1),
    "half_period": (flow_algebra(0.4), flow_algebra(0.4 + math.pi)),
    "self": (flow_algebra(1.3), flow_algebra(1.3)),
    "random_moved": (RANDOM_ALGEBRA, change_of_basis(
        RANDOM_ALGEBRA, BasisChange([[0.7, -1.2], [0.4, 0.9]]))),
    "a2_shift": (flow_algebra(3 * math.pi / 4), flow_algebra(3 * math.pi / 4 + 2 * math.pi)),
    "hopeless": (A0_REP, A1_REP),
}


class TestIsoSearchPins:
    """Verdicts of ``iso_search`` for fixed (pair, seed), certificates as float.hex.

    The search returns the first certificate by restart index, so these
    change if the sampler draws a different stream or the descent does
    different arithmetic.  The cases took 1, 2, 3, 3, 3 and all 64 restarts.
    """

    @pytest.mark.parametrize("name, seed, kind, certificate", [
        ("sign_twins", 0, KIND_ISOMORPHIC,
         [["-0x1.1b970616faeb8p-2", "-0x1.72347cf4828a4p-1"],
          ["-0x1.f0caf7db65d32p-2", "-0x1.079a84124d167p-1"]]),
        ("half_period", 5, KIND_ISOMORPHIC,
         [["-0x1.0000000006a28p+0", "-0x1.dc2205b700000p-41"],
          ["-0x1.bc0f247600000p-41", "-0x1.00000000065d2p+0"]]),
        ("self", 0, KIND_ISOMORPHIC,
         [["0x1.77faf24000000p-54", "0x1.0000000000003p+0"],
          ["0x1.0000000000003p+0", "0x1.dcc7a60000000p-57"]]),
        ("random_moved", 3, KIND_ISOMORPHIC,
         [["0x1.66666668b0853p-1", "-0x1.333333328bde5p+0"],
          ["0x1.99999996b3cd3p-2", "0x1.ccccccc96afddp-1"]]),
        ("a2_shift", 11, KIND_ISOMORPHIC,
         [["0x1.ffffffffffffap-1", "-0x1.b5b1aee000000p-50"],
          ["0x1.87ee457000000p-47", "0x1.fffffffffffa1p-1"]]),
        ("hopeless", 0, KIND_NOT_FOUND_WITHIN_BUDGET, None),
    ])
    def test_verdict_bit_exact(self, name, seed, kind, certificate):
        verdict = iso_search(*PINNED_PAIRS[name], SearchConfig(seed=seed))
        assert verdict.kind == kind
        if certificate is None:
            assert verdict.certificate is None
        else:
            got = [[x.hex() for x in row] for row in verdict.certificate.matrix.tolist()]
            assert got == certificate


def test_jacobian_matches_central_differences():
    # The residual is quadratic in P, so central differences are exact up to rounding.
    rng = np.random.default_rng(43)
    h = 1e-6
    for _ in range(50):
        p = rng.uniform(-2.0, 2.0, size=(2, 2))
        ca, cb = rng.uniform(-1.0, 1.0, size=(2, 2, 2, 2))
        jac = _transform_jacobian(p, ca, cb)
        fd = np.empty((8, 4))
        for col in range(4):
            dp = np.zeros(4)
            dp[col] = h
            dp = dp.reshape(2, 2)
            fd[:, col] = (_transform_residual(p + dp, ca, cb)
                          - _transform_residual(p - dp, ca, cb)) / (2 * h)
        assert np.max(np.abs(fd - jac)) <= 1e-6 * np.max(np.abs(jac))


# The einsum forms of the residual and the Jacobian, and the descent that called
# them, as they were before the kernels were written out in Python floats: the
# oracles of the two tests below.
def _einsum_residual(p, ca, cb):
    lhs = np.einsum("ip,jq,pqk->ijk", p, p, ca)
    rhs = np.einsum("ijr,rk->ijk", cb, p)
    return (lhs - rhs).ravel()


def _einsum_jacobian(p, ca, cb):
    eye = np.eye(2)
    jac = (
        np.einsum("ia,jbk->ijkab", eye, np.einsum("jq,bqk->jbk", p, ca))
        + np.einsum("ja,ibk->ijkab", eye, np.einsum("ip,pbk->ibk", p, ca))
        - np.einsum("kb,ija->ijkab", eye, cb)
    )
    return jac.reshape(8, 4)


def _einsum_descent(p0, ca, cb, cfg, exits, residual=_einsum_residual, jacobian=_einsum_jacobian):
    """The einsum descent (or the same descent on other kernels); counts in
    ``exits`` how each run ended."""
    ca, cb = np.array(ca), np.array(cb)
    p = p0.copy()
    r = residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    end = "iteration cap"
    for _ in range(_MAX_ITERATIONS):
        if float(np.max(np.abs(r))) <= cfg.tol:
            end = "tolerance met"
            break
        jac = jacobian(p, ca, cb)
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) < 1e-14:
            end = "stationary gradient"
            break
        step = np.linalg.solve(jac.T @ jac + lam * np.eye(4), -grad)
        candidate = p + step.reshape(2, 2)
        r_new = residual(candidate, ca, cb)
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if float(np.max(np.abs(step))) < 1e-14:
                end = "tiny step"
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                end = "damping above 1e12"
                break
    exits[end] += 1
    return p, float(np.max(np.abs(r)))


def _seeded_triples(rng, n):
    """n (P, cA, cB) with scales from 1e-3 to 1e3; every fourth holds zeros of both signs."""
    arrays = []
    for shape in ((n, 2, 2), (n, 2, 2, 2), (n, 2, 2, 2)):
        ones = (n,) + (1,) * (len(shape) - 1)
        x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 3.0, ones)
        zeros = (rng.random(shape) < 0.4) & (np.arange(n) % 4 == 0).reshape(ones)
        x[zeros] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zeros]
        arrays.append(x)
    return arrays


class TestKernelsMatchEinsum:
    """The closed-form kernels against the einsum forms, byte for byte (signed zeros count)."""

    def test_seeded_triples_byte_identical(self):
        ps, cas, cbs = _seeded_triples(np.random.default_rng(2026), 20_000)
        assert np.signbit(cas[cas == 0.0]).any() and not np.signbit(cas[cas == 0.0]).all()
        for p, ca, cb in zip(ps, cas, cbs):
            lists = p.tolist(), ca.tolist(), cb.tolist()
            assert _transform_residual(*lists).tobytes() == _einsum_residual(p, ca, cb).tobytes()
            assert _transform_jacobian(*lists).tobytes() == _einsum_jacobian(p, ca, cb).tobytes()

    @staticmethod
    def _entries(bound):
        entry = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
        return st.tuples(*[entry] * 20).map(lambda v: (
            np.array(v[:4]).reshape(2, 2), np.array(v[4:12]).reshape(2, 2, 2),
            np.array(v[12:]).reshape(2, 2, 2)))

    @given(args=_entries(1.7976931348623157e308))
    @settings(max_examples=300, deadline=None)
    def test_residual_over_finite_floats(self, args):
        # Overflow to inf and inf - inf = nan happen the same way in both forms.
        p, ca, cb = args
        with np.errstate(all="ignore"):
            expected = _einsum_residual(p, ca, cb).tobytes()
        got = _transform_residual(p.tolist(), ca.tolist(), cb.tolist())
        assert got.tobytes() == expected

    @given(args=_entries(1e100))
    @settings(max_examples=300, deadline=None)
    def test_jacobian_over_finite_floats(self, args):
        # Up to 1e100 no sum overflows.  Beyond, einsum multiplies an infinite sum
        # by a zero of the identity (nan) where the closed form writes 0.0.
        p, ca, cb = args
        got = _transform_jacobian(p.tolist(), ca.tolist(), cb.tolist())
        assert got.tobytes() == _einsum_jacobian(p, ca, cb).tobytes()

    def test_lanes_match_per_lane_calls(self):
        # The lockstep's form, P of shape (2, 2, n): here with per-lane tensors
        # (2, 2, 2, n), and with one pair of tensors as nested lists, as the lockstep has.
        ps, cas, cbs = _seeded_triples(np.random.default_rng(2026), 20_000)
        lanes = [np.moveaxis(x, 0, -1) for x in (ps, cas, cbs)]
        shared = cas[0].tolist(), cbs[0].tolist()  # zeros of both signs
        res, jac = _transform_residual(*lanes), _transform_jacobian(*lanes)
        res0, jac0 = _transform_residual(lanes[0], *shared), _transform_jacobian(lanes[0], *shared)
        assert res.shape == res0.shape == (8, 20_000) and jac.shape == jac0.shape == (8, 4, 20_000)
        for i, (p, ca, cb) in enumerate(zip(ps, cas, cbs)):
            lists = p.tolist(), ca.tolist(), cb.tolist()
            assert res[:, i].tobytes() == _transform_residual(*lists).tobytes()
            assert jac[:, :, i].tobytes() == _transform_jacobian(*lists).tobytes()
            if i % 4 == 0:
                assert res0[:, i].tobytes() == _transform_residual(lists[0], *shared).tobytes()
                assert jac0[:, :, i].tobytes() == _transform_jacobian(lists[0], *shared).tobytes()

    def test_arrays_accepted(self):
        p, ca, cb = (x[0] for x in _seeded_triples(np.random.default_rng(4), 1))
        assert _transform_residual(p, ca, cb).shape == (8,)
        assert _transform_jacobian(p, ca, cb).tobytes() == _einsum_jacobian(p, ca, cb).tobytes()


@pytest.mark.parametrize("values", [
    [1.0, -3.0, 2.0], [-0.0, 0.0], [-0.0], [math.inf, -math.inf, 1.0],
    [math.nan, 1.0], [1.0, math.nan, 5.0], [7.0, -math.inf, math.nan],
])
def test_max_abs_as_numpy(values):
    # The descent's tests read nan as failed, as np.max(np.abs(...)) makes them.
    assert repr(_max_abs(values)) == repr(float(np.max(np.abs(values))))


def _moved(rng, c, det_sign):
    """A random basis change of c, with the sign of det P given."""
    q = random_invertible(rng, 0.3, np.inf)
    if np.sign(determinant(q)) != det_sign:
        q = q[::-1]
    return change_of_basis(AlgebraFD(CubicTensor(c)), BasisChange(q))


def _verdict_corpus():
    """360 (pair, seed) cases over the kinds of input the search meets."""
    rng = np.random.default_rng(1944)
    pairs = []
    for i in range(60):
        c = rng.uniform(-1.0, 1.0, (2, 2, 2))
        pairs.append(("moved random", AlgebraFD(CubicTensor(c)), _moved(rng, c, (-1) ** i)))
    for i in range(60):
        c = flow_algebra(float(rng.uniform(0.0, 2 * math.pi))).constants.values
        pairs.append(("moved flow", AlgebraFD(CubicTensor(c)), _moved(rng, c, (-1) ** i)))
    for _ in range(60):
        pairs.append(("unrelated", *(AlgebraFD(CubicTensor(rng.uniform(-1.0, 1.0, (2, 2, 2))))
                                      for _ in range(2))))
    for i in range(60):
        minus = class_representative(FlowClassLabel(ACOS_MINUS, float(rng.uniform(0.3, 0.9))))
        plus = class_representative(FlowClassLabel(ACOS_PLUS, float(rng.uniform(0.3, 0.9))))
        pairs.append(("hopeless", *((minus, plus) if i % 2 else (plus, minus))))
    special = [A1_REP, A0_REP, NEG_A1]
    for i in range(60):
        a = special[i % 3]
        b = special[(i // 3) % 3] if i % 2 else _moved(rng, a.constants.values, (-1) ** (i // 2))
        pairs.append(("A1 and A0Plus", a, b))
    for i in range(60):
        # Below about 1e154 the descent moves; above, r @ r and jac.T @ jac overflow.
        exponent = rng.uniform(150.5, 153.5) if i % 2 else rng.uniform(154.0, 308.2)
        c = rng.uniform(-1.0, 1.0, (2, 2, 2)) * 10.0 ** exponent
        b = (_moved(rng, c / 1e3, (-1) ** i) if i % 3 else
             AlgebraFD(CubicTensor(rng.uniform(-1.0, 1.0, (2, 2, 2)) * np.abs(c).max())))
        pairs.append(("max|c| >= 1e150", AlgebraFD(CubicTensor(c)), b))
    return [(kind, a, b, seed) for seed, (kind, a, b) in enumerate(pairs)]


def test_search_verdicts_match_einsum_descent(monkeypatch):
    # Every exit of the descent is reached on this corpus: of 2,169 descents, 1,654
    # meet the tolerance, 309 end with damping above 1e12, 203 on a tiny step, 2 at
    # the iteration cap and 1 at a stationary gradient.
    corpus = _verdict_corpus()
    assert len(corpus) >= 300
    exits = collections.Counter()
    kinds = collections.Counter()
    with np.errstate(all="ignore"):
        verdicts = [iso_search(a, b, SearchConfig(restarts=8, seed=seed))
                    for _, a, b, seed in corpus]
        monkeypatch.setattr(isomorphism, "_levenberg_descent",
                            lambda p0, ca, cb, cfg: _einsum_descent(p0, ca, cb, cfg, exits))
        for (kind, a, b, seed), verdict in zip(corpus, verdicts):
            expected = iso_search(a, b, SearchConfig(restarts=8, seed=seed))
            assert verdict.kind == expected.kind, (kind, seed)
            assert verdict.residual == expected.residual, (kind, seed)
            if expected.certificate is None:
                assert verdict.certificate is None
            else:
                assert verdict.certificate.matrix.tobytes() == expected.certificate.matrix.tobytes()
            kinds[kind, verdict.kind] += 1
    assert set(exits) == {"tolerance met", "stationary gradient", "tiny step",
                          "damping above 1e12", "iteration cap"}
    assert kinds["moved random", KIND_ISOMORPHIC] > 0 and kinds["hopeless", KIND_ISOMORPHIC] == 0


def _closed_form(kernel):
    """``kernel`` on the ndarrays of ``_einsum_descent``, through its Python-float form."""
    return lambda p, ca, cb: kernel(p.tolist(), ca.tolist(), cb.tolist())


def _verdict_bits(verdict):
    certificate = verdict.certificate
    return verdict.kind, repr(verdict.residual), certificate and certificate.matrix.tobytes()


def test_lockstep_lanes_match_the_scalar_descent(monkeypatch):
    # Every lane stays in the lockstep until it ends.  On every other case of
    # the corpus the five exits are each reached: 1,180 lanes meet the
    # tolerance, 253 end with damping above 1e12, 4 on a tiny step, 2 at the
    # iteration cap and 1 at a stationary gradient.
    monkeypatch.setattr(isomorphism, "_LOCKSTEP_LANES", 1)
    cfg = SearchConfig(restarts=8)
    exits = collections.Counter()
    kernels = _closed_form(_transform_residual), _closed_form(_transform_jacobian)
    with np.errstate(all="ignore"):  # the oracle's matmuls warn on overflow
        for kind, a, b, seed in _verdict_corpus()[::2]:
            ca, cb = a.constants.values.tolist(), b.constants.values.tolist()
            starts = random_invertible(np.random.default_rng(seed), EPS_DET, np.inf, 8)
            lanes = list(_lockstep_descents(starts, ca, cb, cfg))
            assert len(lanes) == 8
            for (p, eq_residual), p0 in zip(lanes, starts):
                q, expected = _einsum_descent(p0, ca, cb, cfg, exits, *kernels)
                assert p.tobytes() == q.tobytes(), (kind, seed)
                assert repr(eq_residual) == repr(expected), (kind, seed)
    assert set(exits) == {"tolerance met", "stationary gradient", "tiny step",
                          "damping above 1e12", "iteration cap"}


@pytest.mark.parametrize("lanes", [1, 12, 17])
def test_lanes_handed_to_the_scalar_loop_match_the_scalar_descent(monkeypatch, lanes):
    # With the iteration cap cut to 8, many lanes reach it, in the lockstep
    # (lanes=1 hands none over) or in the scalar loop that finishes the lanes
    # handed over: part way (12, about 200 lanes) or from their starts (17, more
    # than there are).
    monkeypatch.setattr(isomorphism, "_MAX_ITERATIONS", 8)
    monkeypatch.setattr(isomorphism, "_LOCKSTEP_LANES", lanes)
    cfg = SearchConfig(restarts=16)
    with np.errstate(all="ignore"):
        for kind, a, b, seed in _verdict_corpus()[::10]:
            ca, cb = a.constants.values.tolist(), b.constants.values.tolist()
            starts = random_invertible(np.random.default_rng(seed), EPS_DET, np.inf, 16)
            expected = [isomorphism._levenberg_descent(p0, ca, cb, cfg) for p0 in starts]
            got = list(_lockstep_descents(starts, ca, cb, cfg))
            assert [(p.tobytes(), repr(e)) for p, e in got] == \
                [(p.tobytes(), repr(e)) for p, e in expected], (kind, seed)


@pytest.mark.parametrize("restarts, every", [(8, 6), (64, 12)])
def test_lockstep_gives_the_verdicts_of_the_scalar_walk(monkeypatch, restarts, every):
    # With no scalar prefix every restart runs in the lockstep, which hands its
    # last few lanes to the scalar loop; with all restarts scalar, none does.
    # A slice of the corpus, every kind alike, keeps the 64-restart walks short.
    corpus = _verdict_corpus()[::every]
    verdicts = {}
    with np.errstate(all="ignore"):  # the scalar descent's matmuls warn on overflow
        for prefix in (0, restarts):
            monkeypatch.setattr(isomorphism, "_SCALAR_RESTARTS", prefix)
            verdicts[prefix] = [_verdict_bits(iso_search(a, b, SearchConfig(restarts, seed=seed)))
                                for _, a, b, seed in corpus]
    assert verdicts[0] == verdicts[restarts]
    kinds = collections.Counter(kind for kind, _, _ in verdicts[0])
    assert kinds[KIND_ISOMORPHIC] > 0 and kinds[KIND_NOT_FOUND_WITHIN_BUDGET] > 0


@pytest.mark.parametrize("failing_call", [1, 3])
def test_singular_stacked_solve_finishes_in_the_scalar_loop(monkeypatch, failing_call):
    # A stacked solve that raises LinAlgError sends the lanes not yet walked to
    # the scalar loop from where they stand, which gives the scalar walk's verdict.
    solve = np.linalg.solve
    stacked_calls = 0

    def failing_solve(a, b):
        nonlocal stacked_calls
        if a.ndim == 3:
            stacked_calls += 1
            if stacked_calls == failing_call:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    corpus = _verdict_corpus()[::20]
    monkeypatch.setattr(isomorphism, "_SCALAR_RESTARTS", 16)
    with np.errstate(all="ignore"):
        expected = [_verdict_bits(iso_search(a, b, SearchConfig(16, seed=seed)))
                    for _, a, b, seed in corpus]
        monkeypatch.setattr(isomorphism, "_SCALAR_RESTARTS", 0)
        monkeypatch.setattr(np.linalg, "solve", failing_solve)
        for (_, a, b, seed), verdict in zip(corpus, expected):
            stacked_calls = 0
            assert _verdict_bits(iso_search(a, b, SearchConfig(16, seed=seed))) == verdict
            assert stacked_calls == failing_call  # no stacked solve after the one that raised


def _refused(t: float, tol: float) -> bool:
    """Whether ``check_time`` refuses the time t at tolerance tol."""
    try:
        check_time(t, tol)
    except ValueError:
        return True
    return False


class TestRotationIso:
    def test_half_period_shift(self):
        verdict = rotation_iso(math.pi / 6, 7 * math.pi / 6)
        assert verdict.kind == KIND_ISOMORPHIC
        assert np.allclose(verdict.certificate.matrix, -np.eye(2))

    def test_equal_times_identity(self):
        verdict = rotation_iso(0.5, 0.5)
        assert verdict.kind == KIND_ISOMORPHIC
        assert np.array_equal(verdict.certificate.matrix, np.eye(2))

    def test_generic_distinct_parameters(self):
        verdict = rotation_iso(math.pi / 6, math.pi / 3)
        assert verdict.kind == KIND_NOT_ISOMORPHIC_EXACT
        assert verdict.reason

    def test_multiples_of_pi_get_the_sign_as_a_family_member(self):
        # Where sin t1 = 0 the isomorphisms form a two-parameter family; -I is its
        # member gamma = u, mu = 0: rows sum to u = -1 and its columns differ.
        verdict = rotation_iso(0.0, math.pi)
        assert verdict.kind == KIND_ISOMORPHIC
        p = verdict.certificate
        u, v = p.matrix.sum(axis=1)
        assert abs(u + 1.0) < 1e-12 and abs(v + 1.0) < 1e-12
        assert p.matrix[0, 0] != p.matrix[1, 0]  # gamma != mu

    @pytest.mark.parametrize("t1", [1e-10, 5e-10, math.pi - 3e-10, 1e3 * math.pi + 2e-10])
    def test_near_a_multiple_of_pi_gets_the_sign(self, t1):
        # sin t1 is within tol of 0 but not 0: the certificate is still (-1)^k I,
        # with a residual at the rounding level.
        verdict = rotation_iso(t1, t1 + math.pi)
        assert verdict.is_isomorphic and verdict.residual <= 1e-12
        assert np.array_equal(verdict.certificate.matrix, -np.eye(2))

    def test_quarter_to_three_quarters(self):
        # one commutative time, one not: exact refusal with the right reason
        verdict = rotation_iso(3 * math.pi / 4, math.pi / 4)
        assert verdict.kind == KIND_NOT_ISOMORPHIC_EXACT
        assert "commutative" in verdict.reason

    def test_half_pi_sides(self):
        verdict = rotation_iso(math.pi / 2, 1.0)
        assert verdict.kind == KIND_NOT_ISOMORPHIC_EXACT
        assert "cos t = 0" in verdict.reason

    def test_pi_multiple_one_side(self):
        verdict = rotation_iso(0.0, 1.0)
        assert verdict.kind == KIND_NOT_ISOMORPHIC_EXACT
        assert "sin t = 0" in verdict.reason

    def test_symmetry_of_kind(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            assert rotation_iso(t1, t2).kind == rotation_iso(t2, t1).kind
        assert rotation_iso(0.3, 0.3 + math.pi).kind == rotation_iso(0.3 + math.pi, 0.3).kind

    def test_certificate_soundness_on_samples(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            t1 = rng.uniform(0.0, 2 * math.pi)
            k = rng.integers(0, 4)
            verdict = rotation_iso(t1, t1 + k * math.pi)
            assert verdict.kind == KIND_ISOMORPHIC
            assert verdict.residual <= 1e-9
            assert abs(determinant(verdict.certificate.matrix)) > 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            rotation_iso(-0.1, 0.5)

    @pytest.mark.parametrize("t1, t2", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0)])
    def test_non_finite_time_rejected(self, t1, t2):
        with pytest.raises(ValueError, match="time must be finite"):
            rotation_iso(t1, t2)

    def test_shift_by_float_pi_at_zero_tol(self):
        # t1 + k * pi as a float misses the locus by some ulps, so at tol 0 most of
        # these pairs have no certificate; each must still get a verdict.
        for i in range(400):
            t1 = 0.0123 * i
            for k in (1, 2, 3):
                verdict = rotation_iso(t1, t1 + k * math.pi, 0.0)
                assert verdict.kind in (KIND_ISOMORPHIC, KIND_NOT_ISOMORPHIC_EXACT)
                assert not verdict.is_isomorphic or verdict.residual == 0.0

    # The whole accepted domain, up to MAX_TIME (defined with the array decider below).
    TIMES = st.deferred(lambda: TestRotationIsomorphic.TIMES)

    @given(t1=TIMES, t2=TIMES, k=st.integers(0, 3), on_locus=st.booleans(),
           tol=st.floats(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_verdict_always_certified(self, t1, t2, k, on_locus, tol):
        if on_locus:
            t2 = t1 + k * math.pi
        if _refused(t1, tol) or _refused(t2, tol):
            with pytest.raises(ValueError, match="too large for tolerance"):
                rotation_iso(t1, t2, tol)
            return
        verdict = rotation_iso(t1, t2, tol)
        assert verdict.kind in (KIND_ISOMORPHIC, KIND_NOT_ISOMORPHIC_EXACT)
        if verdict.is_isomorphic:
            assert verdict.residual <= tol

    @given(t1=TIMES, shift=st.integers(0, 3),
           offset=st.one_of(st.just(0.0), st.floats(-1e-6, 1e-6)),
           tol=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-15, 1e-9, 1e-3))))
    @settings(max_examples=400, deadline=None)
    def test_certificate_is_the_sign_of_k(self, t1, shift, offset, tol):
        # The one certificate is (-1)^k I, k the number of half turns between the
        # times as reduce_mod_pi counts them; near sin t1 = 0 too.
        t2 = abs(t1 + shift * math.pi + offset)
        if _refused(t1, tol) or _refused(t2, tol):
            with pytest.raises(ValueError, match="too large for tolerance"):
                rotation_iso(t1, t2, tol)
            return
        verdict = rotation_iso(t1, t2, tol)
        if not verdict.is_isomorphic:
            return
        (k1, r1), (k2, r2) = reduce_mod_pi(t1), reduce_mod_pi(t2)
        k = int(k2 - k1) + round((r2 - r1) / math.pi)
        assert np.array_equal(verdict.certificate.matrix, (-1.0) ** k * np.eye(2))
        assert verdict.residual <= tol

    # The condition each exceptional class imposes, as the reasons word it.
    CONDITIONS = {
        A1: "sin t = 0 at one time only",
        A0_PLUS: "cos t = 0 at one time only",
        A2: "commutative at one time only",
    }
    NEAR_EXCEPTIONAL = st.builds(
        lambda residue, n, offset: abs(residue + n * math.pi + offset),
        st.sampled_from((0.0, math.pi / 2, 3 * math.pi / 4, math.pi)),
        st.integers(0, 300), st.floats(-2e-9, 2e-9))

    @given(t1=st.one_of(st.floats(0.0, 1e3), NEAR_EXCEPTIONAL),
           t2=st.one_of(st.floats(0.0, 1e3), NEAR_EXCEPTIONAL),
           tol=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-9, 1e-3))))
    @settings(max_examples=400, deadline=None)
    def test_reason_agrees_with_the_classes(self, t1, t2, tol):
        # A reason names the condition of an exceptional class exactly when that
        # class holds at one of the times only (the first such class in the order
        # A1, A0Plus, A2, where the two times lie in two of them).
        verdict = rotation_iso(t1, t2, tol)
        if verdict.kind != KIND_NOT_ISOMORPHIC_EXACT:
            return
        v1, v2 = classify_time(t1, tol).variant, classify_time(t2, tol).variant
        one_time_only = [x for x in self.CONDITIONS if (v1 == x) != (v2 == x)]
        named = [x for x, text in self.CONDITIONS.items() if text in verdict.reason]
        assert named == one_time_only[:1]

    def test_commutative_band_edge(self):
        # Within 1e-9 of 3*pi/4 but further than 1e-9 / sqrt(2): classify_time
        # gives A2, and so does the reason.
        t1 = 3 * math.pi / 4 + 8e-10
        assert classify_time(t1).variant == A2
        verdict = rotation_iso(t1, 0.5)
        assert verdict.reason.startswith("commutative at one time only")

    @pytest.mark.parametrize("t1, t2, tol, reason", [
        (0.3075, 3.4490926535897932, 0.0,
         "certificate residual 1.1102230246251565e-16 exceeds tol 0.0, "
         "although |sin(t2 - t1)| is within it"),
        (1.570296326712063, 1.57129632687773, 1e-3,
         "certificate residual 0.0010000001240002387 exceeds tol 0.001, "
         "although |sin(t2 - t1)| is within it"),
    ])
    def test_missed_certificate_names_its_residual(self, t1, t2, tol, reason):
        verdict = rotation_iso(t1, t2, tol)
        assert verdict.kind == KIND_NOT_ISOMORPHIC_EXACT
        assert verdict.reason == reason

    def test_agrees_with_search_where_isomorphic(self):
        rng = np.random.default_rng(31)
        for _ in range(12):
            t1 = rng.uniform(0.05, math.pi / 2 - 0.05)
            t2 = t1 + rng.integers(1, 3) * math.pi
            assert rotation_iso(t1, t2).kind == KIND_ISOMORPHIC
            assert iso_search(flow_algebra(t1), flow_algebra(t2)).kind == KIND_ISOMORPHIC


def rotation_iso_corpus(rng, n):
    """Seeded time pairs of four kinds, n of each: within 0.1 of a multiple of pi
    apart, t and t + k*pi moved by a tiny offset (or none), generic, and times at
    or near the exceptional residues.  Every time is below 2**21, so that every
    tol accepts it."""
    t1 = rng.uniform(0.0, 1e3, size=3 * n)
    t1[::10] = rng.uniform(0.0, 2.0**21, size=len(t1[::10]))
    k = rng.integers(0, 4, size=3 * n)
    near = rng.uniform(-0.1, 0.1, size=n)
    tiny = rng.choice([-1.0, 0.0, 1.0], size=n) * 10.0 ** rng.uniform(-18.0, -6.0, size=n)
    t2 = np.abs(t1 + k * math.pi + np.concatenate((near, tiny, np.zeros(n))))
    t2[2 * n:] = rng.uniform(0.0, 1e3, size=n)
    residues = np.array([residue for residue, _ in EXCEPTIONAL_RESIDUES] + [math.pi])
    at_residues = [np.abs(rng.choice(residues, size=n) + rng.integers(0, 300, size=n) * math.pi
                          + rng.choice([0.0, 1e-12, -1e-9, 1e-3], size=n)) for _ in range(2)]
    return np.concatenate((t1, at_residues[0])), np.concatenate((t2, at_residues[1]))


@pytest.mark.parametrize("tol", [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.3])
def test_sign_residual_is_the_tensor_residual(tol):
    # The closed-form residual of rotation_iso against the transform of the two
    # flow tensors by the certificate, bit for bit.
    t1, t2 = rotation_iso_corpus(np.random.default_rng(53), 75)
    isomorphic = 0
    for a, b in zip(t1.tolist(), t2.tolist()):
        verdict = rotation_iso(a, b, tol)
        if verdict.is_isomorphic:
            isomorphic += 1
            assert verdict.residual == iso_residual(flow_algebra(a), flow_algebra(b),
                                                    verdict.certificate), (a, b)
    assert isomorphic > 0


class TestRotationIsomorphic:
    """The array decider gives the decisions of ``rotation_iso`` pair by pair."""

    TOLS = [0.0, 1e-9, *np.random.default_rng(41).uniform(0.0, 1.0, size=20),
            *10.0 ** np.random.default_rng(43).uniform(-17.0, 0.0, size=20)]

    @pytest.mark.parametrize("tol", TOLS)
    def test_agrees_with_rotation_iso_on_a_seeded_corpus(self, tol):
        t1, t2 = rotation_iso_corpus(np.random.default_rng(47), 75)
        expected = [rotation_iso(a, b, tol).is_isomorphic for a, b in zip(t1.tolist(), t2.tolist())]
        assert rotation_isomorphic(t1, t2, tol).tolist() == expected

    TIMES = st.one_of(st.floats(0.0, MAX_TIME), st.floats(0.0, 1e3),
                      st.builds(lambda n, offset: abs(n * math.pi + offset),
                                st.integers(0, 2**26), st.floats(-1e-6, 1e-6)))

    @given(pairs=st.lists(st.tuples(TIMES, st.integers(0, 3), st.booleans()), min_size=1,
                          max_size=6),
           tol=st.one_of(st.floats(0.0, 1.0), st.sampled_from((0.0, 1e-15, 1e-9, 1e-3))))
    @settings(max_examples=300, deadline=None)
    def test_agrees_over_the_accepted_domain(self, pairs, tol):
        # t2 is t1 + k*pi (as a float) or the t1 of the mirrored pair in the list.
        t1 = [t for t, _, _ in pairs]
        t2 = [t + k * math.pi if shifted else t1[-1 - i] for i, (t, k, shifted) in enumerate(pairs)]
        try:
            expected = [rotation_iso(a, b, tol).is_isomorphic for a, b in zip(t1, t2)]
        except ValueError:
            with pytest.raises(ValueError):
                rotation_isomorphic(np.array(t1), np.array(t2), tol)
            return
        assert rotation_isomorphic(np.array(t1), np.array(t2), tol).tolist() == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.5, 2**26 * math.pi])
    @pytest.mark.parametrize("side", [0, 1])
    def test_refuses_a_time_rotation_iso_refuses(self, bad, side):
        good = np.array([0.5, 1.0, 2.0])
        times = [good, good.copy()]
        times[side][1] = bad
        with pytest.raises(ValueError):
            rotation_iso(*(float(t[1]) for t in times))
        with pytest.raises(ValueError):
            rotation_isomorphic(*times)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
    def test_refuses_a_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tolerance must be finite and nonnegative"):
            rotation_isomorphic(np.array([0.5]), np.array([0.5]), tol)

    def test_refuses_shapes_that_do_not_broadcast(self):
        with pytest.raises(ValueError):
            rotation_isomorphic(np.zeros(2), np.zeros(3))

    def test_empty_arrays(self):
        decided = rotation_isomorphic(np.array([]), np.array([]))
        assert decided.dtype == bool and decided.shape == (0,)

class TestInvariantSignature:
    def test_a1(self):
        assert invariant_signature(A1_REP) == InvariantSignature(False, True, 2)

    def test_a0_plus(self):
        assert invariant_signature(A0_REP) == InvariantSignature(False, False, 2)

    def test_zero_algebra(self):
        zero = AlgebraFD(CubicTensor(np.zeros((2, 2, 2))))
        assert invariant_signature(zero) == InvariantSignature(True, True, 0)

    def test_first_difference(self):
        a = invariant_signature(A1_REP)
        b = invariant_signature(A0_REP)
        assert a.first_difference(b) == "associative"
        assert a.first_difference(a) is None

    def test_signature_difference_implies_exact_refusal(self):
        # where signatures differ, the exact decider must refuse too
        sig_half_pi = invariant_signature(flow_algebra(math.pi / 2))
        sig_zero = invariant_signature(flow_algebra(0.0))
        assert sig_half_pi.first_difference(sig_zero) is not None
        assert not rotation_iso(math.pi / 2, 0.0).is_isomorphic

    # Tensors of every signature the flow has, and a commutative random one.
    SCALED = {
        "A1": A1_REP.constants.values,
        "A0Plus": A0_REP.constants.values,
        "A2": class_representative(FlowClassLabel(A2)).constants.values,
        "ACosPlus": class_representative(FlowClassLabel(ACOS_PLUS, 0.5)).constants.values,
        "symmetric": (lambda c: c + c.transpose(1, 0, 2))(
            np.random.default_rng(5).uniform(-1.0, 1.0, (2, 2, 2))),
    }
    MOVE = BasisChange([[0.7, -1.2], [0.4, 0.9]])

    @pytest.mark.parametrize("name, scale", [("A1", 1e4), ("symmetric", 1e8), ("A1", 1e-9)])
    def test_scaled_pair_agrees(self, name, scale):
        # c -> scale * c is an isomorphism, so no invariant may separate the pair.
        a = AlgebraFD(CubicTensor(scale * self.SCALED[name]))
        moved = change_of_basis(a, self.MOVE)
        assert invariant_signature(a).first_difference(invariant_signature(moved)) is None

    @given(k=st.integers(-60, 60))
    @settings(max_examples=50, deadline=None)
    def test_power_of_two_scale_invariant(self, k):
        for c in self.SCALED.values():
            expected = invariant_signature(AlgebraFD(CubicTensor(c)))
            a = AlgebraFD(CubicTensor(np.ldexp(c, k)))
            assert invariant_signature(a) == expected
            assert invariant_signature(change_of_basis(a, self.MOVE)) == expected

    def test_signature_difference_never_isomorphic_sampled(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            differs = invariant_signature(flow_algebra(t1)).first_difference(
                invariant_signature(flow_algebra(t2))
            )
            if differs is not None:
                assert not rotation_iso(t1, t2).is_isomorphic


class TestVerdictJson:
    def test_isomorphic_payload(self):
        verdict = rotation_iso(0.25, 0.25 + math.pi)
        data = verdict.to_json_dict()
        assert data["kind"] == "Isomorphic"
        assert np.allclose(data["certificate"], -np.eye(2))
        assert data["residual"] <= 1e-9

    def test_negative_payload(self):
        data = rotation_iso(0.25, 0.5).to_json_dict()
        assert data["kind"] == "NotIsomorphicExact"
        assert "reason" in data and "certificate" not in data

    def test_not_found_payload(self):
        assert IsoVerdict.not_found().to_json_dict() == {"kind": "NotFoundWithinBudget"}

    def test_separated_payload(self):
        data = IsoVerdict.separated("associative").to_json_dict()
        assert data == {"kind": "SeparatedByInvariant", "reason": "associative"}
