"""Isomorphism deciders: residual, numeric search, exact case analysis."""

import collections
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algflow import isomorphism
from algflow.algebra import (
    AlgebraFD,
    BasisChange,
    change_of_basis,
    determinant,
    from_2x4,
    is_associative,
    max_abs,
    random_invertible,
    unit_entries,
)
from algflow.classification import (
    EXCEPTIONAL_RESIDUES,
    A1,
    A0_PLUS,
    A2,
    ACOS_MINUS,
    ACOS_PLUS,
    PARAM_COUNTS,
    BekbaevForm,
    FlowClassLabel,
    bekbaev_matrix,
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
    _EYE4,
    _MAX_ITERATIONS,
    _SOLVE,
    _search_ruled_out,
    _trace_invariants,
    _transform_jacobian,
    _transform_residual,
    invariant_signature,
    iso_residual,
    iso_search,
    rotation_iso,
    rotation_isomorphic,
    trace_separation,
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


def _einsum_descent(p0, ca, cb, cfg, exits):
    """The einsum descent; counts in ``exits`` how each run ended."""
    ca, cb = np.array(ca), np.array(cb)
    p = p0.copy()
    r = _einsum_residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    end = "iteration cap"
    for _ in range(_MAX_ITERATIONS):
        if float(np.max(np.abs(r))) <= cfg.tol:
            end = "tolerance met"
            break
        jac = _einsum_jacobian(p, ca, cb)
        grad = jac.T @ r
        if float(np.max(np.abs(grad))) < 1e-14:
            end = "stationary gradient"
            break
        step = np.linalg.solve(jac.T @ jac + lam * np.eye(4), -grad)
        candidate = p + step.reshape(2, 2)
        r_new = _einsum_residual(candidate, ca, cb)
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
    assert repr(max_abs(values)) == repr(float(np.max(np.abs(values))))


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


def _search_every_pair(monkeypatch):
    """Turn off both skip rules of ``iso_search``, so that its hopeless, unrelated
    and A1 and A0Plus pairs still go through the descent these tests compare."""
    monkeypatch.setattr(isomorphism, "_search_ruled_out", lambda a, b: None)


def test_search_verdicts_match_einsum_descent(monkeypatch):
    # Every exit of the descent is reached on this corpus: of 2,169 descents, 1,654
    # meet the tolerance, 309 end with damping above 1e12, 203 on a tiny step, 2 at
    # the iteration cap and 1 at a stationary gradient.
    _search_every_pair(monkeypatch)
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
    # Every bit of every verdict: a change to the starts or to the float
    # operations of the descent moves the digest.
    assert _verdicts_digest(verdicts) == \
        "98c43889b8b4f25f65ff604bea4e57f9af0c86ecf9e71fa3ac9ba50b3876dd70"


def test_verdicts_at_64_restarts_are_pinned(monkeypatch):
    # All 64 restarts on every twelfth case: the later restarts, which most
    # pairs never reach, are pinned to the bit as well.
    _search_every_pair(monkeypatch)
    verdicts = [iso_search(a, b, SearchConfig(64, seed=seed))
                for _, a, b, seed in _verdict_corpus()[::12]]
    assert collections.Counter(v.kind for v in verdicts)[KIND_NOT_FOUND_WITHIN_BUDGET] > 0
    assert _verdicts_digest(verdicts) == \
        "7b1d69811f7b2ca9a891f384adfc943f7ac4bfabf1c406a8be90bfdc639a58d9"


def test_rejected_step_takes_no_new_jacobian(monkeypatch):
    # A rejected step leaves p and r as they were, so the descent takes the
    # Jacobian once at its start and once after each accepted step, never more.
    costs, jacobians = [], [0]

    def residual(p, ca, cb):
        r = _transform_residual(p, ca, cb)
        costs.append(float(r @ r))
        return r

    def jacobian(p, ca, cb):
        jacobians[0] += 1
        return _transform_jacobian(p, ca, cb)

    monkeypatch.setattr(isomorphism, "_transform_residual", residual)
    monkeypatch.setattr(isomorphism, "_transform_jacobian", jacobian)
    ca, cb = (class_representative(FlowClassLabel(ACOS_PLUS, c)).constants.values.tolist()
              for c in (0.3, 0.5))
    rng = np.random.default_rng(5)
    rejected = 0
    for _ in range(16):
        costs.clear()
        jacobians[0] = 0
        isomorphism._levenberg_descent(random_invertible(rng, 1e-10, np.inf), ca, cb,
                                       SearchConfig())
        accepted = sum(new < min(costs[:i + 1]) for i, new in enumerate(costs[1:]))
        rejected += len(costs) - 1 - accepted
        assert jacobians[0] <= accepted + 1
    assert rejected > 50  # 104 at this seed


def _verdict_bits(verdict):
    certificate = verdict.certificate
    return verdict.kind, repr(verdict.residual), certificate and certificate.matrix.tobytes()


def _verdicts_digest(verdicts) -> str:
    """sha256 of the ``_verdict_bits`` of each verdict, in order."""
    digest = hashlib.sha256()
    for verdict in verdicts:
        digest.update(repr(_verdict_bits(verdict)).encode())
    return digest.hexdigest()


def _singular_pairs():
    """Pairs whose descents meet singular or overflowing damped systems: families 12
    and 14 scaled by 2^24 and 2^40 (J^T J exactly singular with the damping below its
    rounding), both ways round, and a tensor of scale 1e200 against its move (J^T J
    and J^T r overflow)."""
    family = {f: from_2x4(bekbaev_matrix(BekbaevForm(f, ()))).constants.values for f in (12, 14)}
    pairs = [(AlgebraFD(CubicTensor(np.ldexp(family[f], k))),
              AlgebraFD(CubicTensor(np.ldexp(family[g], k))))
             for k in (24, 40) for f, g in ((12, 14), (14, 12))]
    c = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 2, 2)) * 1e200
    return pairs + [(AlgebraFD(CubicTensor(c)), change_of_basis(
        AlgebraFD(CubicTensor(c)), BasisChange([[0.7, -1.2], [0.4, 0.9]])))]


class TestLapackSolve:
    """The descent calls numpy's LAPACK gufunc ``solve1`` where ``np.linalg.solve`` wraps
    it.  Where the wrapper returns, the gufunc gives its bits; where the wrapper raises
    LinAlgError (a singular system), the gufunc's step is all nan.  A numpy that breaks
    either fails here."""

    @staticmethod
    def _recorded_systems(monkeypatch) -> list:
        systems = []

        def recording(a, b, **kwargs):
            systems.append((a, b))
            return _SOLVE(a, b, **kwargs)

        monkeypatch.setattr(isomorphism, "_SOLVE", recording)
        _search_every_pair(monkeypatch)
        for _, a, b, seed in _verdict_corpus()[::3]:
            iso_search(a, b, SearchConfig(restarts=2, seed=seed))
        for a, b in _singular_pairs():
            iso_search(a, b, SearchConfig(restarts=16))
        return systems

    # Systems no descent is sure to meet: exactly singular, nan-bearing, overflowing.
    _MADE = [
        (np.zeros((4, 4)), np.ones(4)),
        (np.ones((4, 4)), np.ones(4)),
        (1e40 * np.ones((4, 4)) + 1e-3 * np.eye(4), np.ones(4)),
        (np.where(np.eye(4) == 1, np.nan, 1.0), np.ones(4)),
        (np.eye(4), np.array([1.0, np.nan, 0.0, 0.0])),
        (np.eye(4), np.array([np.inf, 1.0, 0.0, 0.0])),
        (np.full((4, 4), 1e300) + np.diag([1e300, 0.0, 0.0, 0.0]), np.full(4, 1e300)),
        (np.diag([1e-300, 1.0, 1.0, 1.0]), np.full(4, 1e300)),
    ]

    def test_gufunc_matches_the_wrapper(self, monkeypatch):
        outcomes = collections.Counter()
        for a, b in self._recorded_systems(monkeypatch) + self._MADE:
            with np.errstate(all="ignore"):
                got = _SOLVE(a, b, signature="dd->d")
            try:
                expected = np.linalg.solve(a, b)
            except np.linalg.LinAlgError:
                assert np.isnan(got).all()
                outcomes["raised"] += 1
                continue
            assert got.tobytes() == expected.tobytes()
            outcomes["nan" if np.isnan(expected).any() else "finite"] += 1
        # 2,958 systems: 16 raise (12 from families 12 and 14), 39 return nan.
        assert outcomes["raised"] >= 12 and outcomes["nan"] >= 30 and outcomes["finite"] > 2000

    def test_singular_system_warns_only_outside_errstate(self):
        with np.errstate(all="ignore"):
            assert np.isnan(_SOLVE(np.zeros((4, 4)), np.ones(4), signature="dd->d")).all()
        with pytest.raises(RuntimeWarning, match="invalid value"):
            _SOLVE(np.zeros((4, 4)), np.ones(4), signature="dd->d")


def _wrapper_descent(p0, ca, cb, cfg, exits):
    """The descent as it was with ``np.linalg.solve``: a LinAlgError ends it, and a
    step holding a nan is rejected like any other, until lam passes 1e12.  Counts in
    ``exits`` the descents that raised and those that took a nan step."""
    p = p0.tolist()
    r = _transform_residual(p, ca, cb)
    cost = float(r @ r)
    lam = 1e-3
    moved = True
    took_nan = False
    for _ in range(_MAX_ITERATIONS):
        if moved:
            if max_abs(r.tolist()) <= cfg.tol:
                break
            jac = _transform_jacobian(p, ca, cb)
            grad = jac.T @ r
            if max_abs(grad.tolist()) < 1e-14:
                break
            normal, descent = jac.T @ jac, -grad
        try:
            step = np.linalg.solve(normal + lam * _EYE4, descent).tolist()
        except np.linalg.LinAlgError:
            exits["LinAlgError"] += 1
            break
        took_nan = took_nan or any(map(math.isnan, step))
        candidate = [[p[0][0] + step[0], p[0][1] + step[1]], [p[1][0] + step[2], p[1][1] + step[3]]]
        r_new = _transform_residual(candidate, ca, cb)
        cost_new = float(r_new @ r_new)
        moved = cost_new < cost
        if moved:
            p, r, cost = candidate, r_new, cost_new
            lam = max(lam / 10.0, 1e-12)
            if max_abs(step) < 1e-14:
                break
        else:
            lam *= 10.0
            if lam > 1e12:
                break
    exits["nan step"] += took_nan
    return np.array(p), max_abs(r.tolist())


def test_nan_exit_returns_what_the_wrapper_descent_returned():
    # The corpus's descents meet singular systems and nan steps: a nan step never
    # moves p, so ending the descent there returns the point and residual that the
    # wrapper's descent reached by raising or by rejecting until lam > 1e12.
    rng = np.random.default_rng(606)
    tensors = [(a.constants.values, b.constants.values) for a, b in _singular_pairs()]
    for i in range(300):
        c = rng.uniform(-1.0, 1.0, (2, 2, 2, 2))
        if i % 3 == 2:
            c[rng.random(c.shape) < 0.5] = 0.0
        tensors.append(np.ldexp(c, int(rng.integers(-600, 601))))
    exits = collections.Counter()
    for ca, cb in tensors:
        ca, cb = ca.tolist(), cb.tolist()
        for tol in (1e-9, 1e-300):
            cfg = SearchConfig(tol=tol)
            for _ in range(2):
                p0 = random_invertible(rng, 1e-10, np.inf)
                with np.errstate(all="ignore"):
                    p, residual = _wrapper_descent(p0, ca, cb, cfg, exits)
                got_p, got_residual = isomorphism._levenberg_descent(p0, ca, cb, cfg)
                assert got_p.tobytes() == p.tobytes() and repr(got_residual) == repr(residual)
    # 1,220 descents: 15 raised, 108 took a nan step.
    assert exits["LinAlgError"] > 10 and exits["nan step"] > 100


def test_search_runs_without_the_numpy_wrapper(monkeypatch):
    # The descent never calls np.linalg.solve: with it raising, the verdicts are the same.
    cases = _verdict_corpus()[::12] + [("singular", a, b, 0) for a, b in _singular_pairs()]
    _search_every_pair(monkeypatch)
    expected = [_verdict_bits(iso_search(a, b, SearchConfig(8, seed=seed)))
                for _, a, b, seed in cases]

    def no_wrapper(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", no_wrapper)
    assert [_verdict_bits(iso_search(a, b, SearchConfig(8, seed=seed)))
            for _, a, b, seed in cases] == expected


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

    def test_builds_no_tensor_or_algebra(self, monkeypatch):
        algebras = [AlgebraFD(CubicTensor(c)) for c in self.SCALED.values()] + [A1_REP, A0_REP]
        expected = [invariant_signature(a) for a in algebras]
        ruled_out = _search_ruled_out(A0_REP, A1_REP)

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built")

        monkeypatch.setattr(CubicTensor, "__post_init__", refuse)
        monkeypatch.setattr(AlgebraFD, "__post_init__", refuse)
        assert [invariant_signature(a) for a in algebras] == expected
        assert _search_ruled_out(A0_REP, A1_REP) == ruled_out is not None

    def test_moved_pairs_keep_their_signatures(self):
        # The triples of every algebra of _moved_pairs at seeds 21-24, as sha256, were
        # taken when the signature scaled a new AlgebraFD and ran the stacked kernels.
        # 66 pairs have signatures that differ although the pair is isomorphic by
        # construction: the margin-less thresholds of the signature, kept as they are.
        digest = hashlib.sha256()
        differ = collections.Counter()
        for seed in (21, 22, 23, 24):
            for _, a, b in _moved_pairs(np.random.default_rng(seed), 4_000):
                pair = invariant_signature(a), invariant_signature(b)
                digest.update(repr(pair).encode())
                differ[pair[0].first_difference(pair[1])] += 1
        assert differ == {None: 15_934, "rank_2x4": 48, "commutative": 14, "associative": 4}
        assert digest.hexdigest() == \
            "4cf0f7ce31ecbd4b929a86d2e7849afebbd449e27f3d57d948130132cbb52f46"

    def test_unit_entries_scale_exactly(self):
        rng = np.random.default_rng(8)
        c = rng.uniform(-1.0, 1.0, (500, 2, 2, 2))
        c[rng.random(c.shape) < 0.2] = -0.0
        c = np.ldexp(c, rng.integers(-1070, 1000, (500, 1, 1, 1)))
        for x in [*c, np.zeros((2, 2, 2))]:
            scaled = np.ldexp(x, -math.frexp(float(np.abs(x).max()))[1])
            assert np.array(unit_entries(x.ravel().tolist())).tobytes() == scaled.tobytes()

    def test_signature_difference_never_isomorphic_sampled(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            t1, t2 = rng.uniform(0.0, 2 * math.pi, size=2)
            differs = invariant_signature(flow_algebra(t1)).first_difference(
                invariant_signature(flow_algebra(t2))
            )
            if differs is not None:
                assert not rotation_iso(t1, t2).is_isomorphic


class TestTwoSidedCertificates:
    """A certificate P must also carry b back onto a: ``_carries_back``."""

    def test_moved_members_stay_isomorphic(self, monkeypatch):
        # The back check refuses no certificate of a family member or flow algebra
        # moved by |det P| in (0.3, 3], in either order.
        rng = np.random.default_rng(25)
        pairs = []
        for i in range(30):
            c = (_family_tensor(i % 15 + 1, rng.uniform(-2.0, 2.0, 4)) if i % 2 else
                 flow_algebra(float(rng.uniform(0.0, 2 * math.pi))).constants.values)
            a = AlgebraFD(CubicTensor(c))
            b = change_of_basis(a, BasisChange(random_invertible(rng, 0.3, 3.0)))
            pairs += [(a, b), (b, a)]
        verdicts = [_verdict_bits(iso_search(a, b)) for a, b in pairs]
        monkeypatch.setattr(isomorphism, "_carries_back", lambda a, b, p, tol: True)
        assert verdicts == [_verdict_bits(iso_search(a, b)) for a, b in pairs]
        assert sum(kind == KIND_ISOMORPHIC for kind, _, _ in verdicts) >= 58

    def test_large_determinant_certificate(self, monkeypatch):
        # P = 2^20 I carries A onto 2^20 A, |det P| = 2^40: P^-1 is below EPS_DET in
        # det, so the back check must not build a BasisChange of it.
        c = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 2, 2))
        a, b = AlgebraFD(CubicTensor(c)), AlgebraFD(CubicTensor(np.ldexp(c, 20)))
        p = np.ldexp(np.eye(2), 20)
        monkeypatch.setattr(isomorphism, "_levenberg_descent", lambda p0, ca, cb, cfg: (p, 0.0))
        verdict = iso_search(a, b)
        assert verdict.is_isomorphic and verdict.residual == 0.0
        assert verdict.certificate.matrix.tobytes() == p.tobytes()


# Families whose trace form B is degenerate: the trace-form invariants do not exist.
DEGENERATE_B = (5, 6, 10, 11, 14, 15)


def _family_tensor(family: int, params) -> np.ndarray:
    """The canonical tensor of ``family`` at the first parameters of ``params``."""
    params = list(params[:PARAM_COUNTS[family]])
    if family in (2, 3, 7, 8):  # beta1 >= 0
        params[1] = abs(params[1])
    return from_2x4(bekbaev_matrix(BekbaevForm(family, params))).constants.values


def _scaled_and_moved(c: np.ndarray, k: int, p: np.ndarray) -> tuple[AlgebraFD, AlgebraFD]:
    a = AlgebraFD(CubicTensor(np.ldexp(c, k)))
    return a, change_of_basis(a, BasisChange(p))


def _moved_pairs(rng, n: int):
    """n (kind, A, A moved by P), |det P| in (0.3, 3], scaled by a common 2^k, |k| <= 500:
    family members, members of the families with degenerate B perturbed by 1e-8 to
    1e-2 (B near degenerate), random tensors and flow algebras, in turn."""
    for i in range(n):
        kind = i % 4
        if kind == 0:
            c = _family_tensor(int(rng.integers(1, 16)), rng.uniform(-2.0, 2.0, 4))
        elif kind == 1:
            c = _family_tensor(int(rng.choice(DEGENERATE_B)), rng.uniform(-2.0, 2.0, 4))
            c = c + 10.0 ** rng.uniform(-8.0, -2.0) * rng.uniform(-1.0, 1.0, (2, 2, 2))
        elif kind == 2:
            c = rng.uniform(-1.0, 1.0, (2, 2, 2))
        else:
            c = flow_algebra(float(rng.uniform(0.0, 2 * math.pi))).constants.values
        k = int(rng.integers(-500, 501))
        yield (("family", "near-degenerate B", "random", "flow")[kind],
               *_scaled_and_moved(c, k, random_invertible(rng, 0.3, 3.0)))


_MOVES = st.tuples(*[st.floats(-2.0, 2.0)] * 4).map(
    lambda v: np.array(v).reshape(2, 2)).filter(lambda p: 0.3 < abs(determinant(p)) <= 3.0)
_PARAMS = st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4)
_SCALES = st.integers(-500, 500)


class TestTraceSeparation:
    """The trace-form rule: it separates only pairs that are not isomorphic."""

    def test_moved_pairs_never_separated(self):
        # About 0.5 s.  The same generator over 64,000 pairs, on other seeds,
        # separated none either.
        kinds = collections.Counter()
        for kind, a, b in _moved_pairs(np.random.default_rng(21), 4_000):
            assert trace_separation(a, b) is None, kind
            assert _search_ruled_out(a, b) is None, kind
            kinds[kind, _trace_invariants(a.constants.values.tolist()) is None] += 1
        # Every kind reaches the comparison of the invariants, not only the decline.
        assert all(kinds[kind, False] > 100 for kind in ("family", "random", "flow"))
        assert kinds["near-degenerate B", False] > 0

    # The move leaves rounding errors in entries that are 0 in the member; against
    # the rounding of B from exact entries alone, I2 read -0.0 and 4.3e-4.
    @example(family=2, params=[0.0, 3.957071917420653e-13, 0.0, 0.0],
             p=np.array([[1.5, 0.0], [0.4375, 1.0]]), k=0)
    @given(family=st.integers(1, 15), params=_PARAMS, p=_MOVES, k=_SCALES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_moved_family_member_never_separated(self, family, params, p, k):
        a, b = _scaled_and_moved(_family_tensor(family, params), k, p)
        assert trace_separation(a, b) is None

    @given(family=st.sampled_from(DEGENERATE_B), params=_PARAMS, p=_MOVES, k=_SCALES)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_declines_where_b_is_degenerate(self, family, params, p, k):
        for algebra in _scaled_and_moved(_family_tensor(family, params), k, p):
            assert _trace_invariants(algebra.constants.values.tolist()) is None

    @pytest.mark.parametrize("algebra", [A1_REP, A0_REP, NEG_A1])
    @example(p=np.array([[0.0, 1.0], [-2.0, 2.0]]), k=0)  # rounding errors of 2e-16 in zeros
    @given(p=_MOVES, k=_SCALES)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_declines_on_a1_and_a0_plus(self, algebra, p, k):
        for moved in _scaled_and_moved(algebra.constants.values, k, p):
            assert _trace_invariants(moved.constants.values.tolist()) is None

    _C = st.floats(1e-3, 1.0 - 1e-6)

    @given(c1=_C, c2=_C, minus_first=st.booleans())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_separates_the_two_continuous_classes(self, c1, c2, minus_first):
        plus = class_representative(FlowClassLabel(ACOS_PLUS, c1))
        minus = class_representative(FlowClassLabel(ACOS_MINUS, c2))
        pair = (minus, plus) if minus_first else (plus, minus)
        assert trace_separation(*pair) is not None

    @given(c1=_C, c2=_C, variant=st.sampled_from([ACOS_PLUS, ACOS_MINUS]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_separates_distinct_parameters(self, c1, c2, variant):
        assume(abs(c1 - c2) >= 1e-3)
        assert trace_separation(class_representative(FlowClassLabel(variant, c1)),
                                class_representative(FlowClassLabel(variant, c2))) is not None

    def test_reason_names_the_invariant_and_both_values(self):
        plus = class_representative(FlowClassLabel(ACOS_PLUS, 0.3))
        minus = class_representative(FlowClassLabel(ACOS_MINUS, 0.3))
        assert trace_separation(plus, minus) == \
            "I1 = B^-1(tr L, tr L): 0.4276364791498325 vs 1.5723635208501676"
        assert trace_separation(plus, plus) is None

    def test_the_flow_invariants(self):
        # ACosPlus(c) and ACosMinus(c) share I3 = 4 c^2 and differ in I1 and I2.
        plus, minus = (_trace_invariants(class_representative(FlowClassLabel(v, 0.3))
                                         .constants.values.tolist())
                       for v in (ACOS_PLUS, ACOS_MINUS))
        assert np.allclose(plus, (0.4276, -0.3924, 0.36), atol=1e-4)
        assert np.allclose(minus, (1.5724, 0.7524, 0.36), atol=1e-4)

    def test_zero_algebra_declines(self):
        zero = AlgebraFD(CubicTensor(np.zeros((2, 2, 2))))
        assert _trace_invariants(zero.constants.values.tolist()) is None
        assert trace_separation(zero, A1_REP) is None

    def test_iso_search_runs_no_descent_on_a_separated_pair(self, monkeypatch):
        def no_descent(*args):
            raise AssertionError("a descent ran")

        monkeypatch.setattr(isomorphism, "_levenberg_descent", no_descent)
        plus = class_representative(FlowClassLabel(ACOS_PLUS, 0.3))
        minus = class_representative(FlowClassLabel(ACOS_MINUS, 0.7))
        assert iso_search(plus, minus).kind == KIND_NOT_FOUND_WITHIN_BUDGET
        # B is degenerate: associativity rules the pair out.
        assert iso_search(A0_REP, A1_REP).kind == KIND_NOT_FOUND_WITHIN_BUDGET
        with pytest.raises(AssertionError, match="a descent ran"):
            # B is degenerate on one side and neither algebra is associative.
            iso_search(A0_REP, class_representative(FlowClassLabel(ACOS_PLUS, 0.5)))


# Associative algebras with degenerate B: the associativity rule must never rule
# out one of them against its own move, however near singular the move.
_ASSOCIATIVE = {
    "A1": A1_REP.constants.values,
    "-A1": NEG_A1.constants.values,
    **{f"family 5 at {params}": _family_tensor(5, params)
       for params in ((0.5, 0.0), (1.0, 0.0), (0.5, 0.5))},
    "family 15": _family_tensor(15, ()),
}
_NEAR_SINGULAR_MOVES = st.tuples(*[st.floats(-2.0, 2.0)] * 4).map(
    lambda v: np.array(v).reshape(2, 2)).filter(lambda p: 1e-3 < abs(determinant(p)) <= 3.0)


class TestAssociativityRule:
    """The skip where B is degenerate: one side associative to rounding, the other far from it."""

    def test_the_associative_members(self):
        for name, c in _ASSOCIATIVE.items():
            a = AlgebraFD(CubicTensor(c))
            assert _trace_invariants(c.tolist()) is None and is_associative(a, 0.0), name

    @given(name=st.sampled_from(sorted(_ASSOCIATIVE)), p=_NEAR_SINGULAR_MOVES, k=_SCALES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_never_rules_out_a_moved_associative_algebra(self, name, p, k):
        assert _search_ruled_out(*_scaled_and_moved(_ASSOCIATIVE[name], k, p)) is None

    @given(name=st.sampled_from(sorted(_ASSOCIATIVE)), size=st.floats(-17.0, -4.0),
           noise=st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8),
           p=_NEAR_SINGULAR_MOVES, k=_SCALES)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_never_rules_out_a_perturbed_associative_algebra(self, name, size, noise, p, k):
        c = _ASSOCIATIVE[name] + 10.0 ** size * np.reshape(noise, (2, 2, 2))
        assert _search_ruled_out(*_scaled_and_moved(c, k, p)) is None

    @pytest.mark.parametrize("associative", [A1_REP, NEG_A1])
    @given(p=_MOVES, q=_MOVES, k=_SCALES, swap=st.booleans())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_rules_out_a0_plus_against_a1(self, associative, p, q, k, swap):
        a = _scaled_and_moved(A0_REP.constants.values, k, p)[1]
        b = _scaled_and_moved(associative.constants.values, k, q)[1]
        for pair in ((a, b), (b, a)) if swap else ((A0_REP, associative), (a, b)):
            assert _search_ruled_out(*pair).startswith("associativity residual: ")

    def test_reason_names_both_residuals(self):
        assert _search_ruled_out(A0_REP, A1_REP) == "associativity residual: 0.25 vs 0.0"
        assert _search_ruled_out(NEG_A1, A0_REP) == "associativity residual: 0.0 vs 0.25"

    def test_nondegenerate_b_computes_no_associativity(self, monkeypatch):
        # Found pairs pay nothing for the rule: where B is nondegenerate on both
        # sides, the trace-form invariants decide alone.
        def no_associativity(*args):
            raise AssertionError("associativity computed")

        monkeypatch.setattr(isomorphism, "associativity_residual_entries", no_associativity)
        checked = 0
        for kind, a, b in _moved_pairs(np.random.default_rng(27), 400):
            if all(_trace_invariants(x.constants.values.tolist()) is not None for x in (a, b)):
                assert _search_ruled_out(a, b) is None, kind
                checked += 1
        assert checked > 200
        plus = class_representative(FlowClassLabel(ACOS_PLUS, 0.3))
        minus = class_representative(FlowClassLabel(ACOS_MINUS, 0.7))
        assert _search_ruled_out(plus, minus) == trace_separation(plus, minus) is not None
        moved = _scaled_and_moved(plus.constants.values, 0, np.array([[1.0, 0.5], [0.25, 1.5]]))
        assert iso_search(*moved).kind == KIND_ISOMORPHIC
        with pytest.raises(AssertionError, match="associativity computed"):
            _search_ruled_out(A0_REP, A1_REP)


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
