"""The benchmark's oracles accept correct outputs and reject corrupted ones.

Run from the repository root:  PYTHONPATH=src python -m pytest bench -q
"""

import dataclasses
import math
import tempfile
import types

import numpy as np
import pytest

import algflow
import hostspeed
import oracles
from oracles import OracleMismatch
from tracing import CHECKS
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def scratch():
    with tempfile.TemporaryDirectory() as path:
        yield path


def workload(name, scratch, seed=11):
    return WORKLOADS[name](seed, scratch)


def test_worked_example_pi_over_3():
    # A^[pi/3] is ACosPlus(1/2), which reduces to family 2 with (1/2, 0, -sqrt(3)/2).
    variant, c = oracles.flow_class(math.pi / 3)
    assert variant == oracles.ACOS_PLUS and c == pytest.approx(0.5, abs=1e-15)
    family, params = oracles.canonical_form(variant, c)
    assert family == 2
    assert params == pytest.approx((0.5, 0.0, -math.sqrt(3) / 2), abs=1e-14)
    # The closed-form basis change carries the representative onto family 2.
    s = math.sqrt(1 - c * c)
    a, b = 1 / (4 * c), 1 / (2 * math.sqrt(2 * c * s))
    p = np.array([[a, a], [b, -b]])
    target = oracles.from_2x4(oracles.family_matrix(family, params))
    assert oracles.certificate_residual(oracles.class_tensor(variant, c), target, p) < 1e-14
    assert oracles.certificate_residual(oracles.class_tensor(variant, c), target,
                                        p + [[0, 0], [0, 1e-3]]) > 1e-4


@pytest.mark.parametrize("t, variant", [
    (0.0, oracles.A1), (math.pi, oracles.A1), (math.pi / 2, oracles.A0_PLUS),
    (3 * math.pi / 4, oracles.A2), (300 * math.pi + 3 * math.pi / 4, oracles.A2),
    (2 * math.pi / 3, oracles.ACOS_MINUS), (1.0, oracles.ACOS_PLUS),
])
def test_flow_class_at_exceptional_and_generic_times(t, variant):
    assert oracles.flow_class(t)[0] == variant


def test_move_matches_product_rederivation():
    rng = np.random.default_rng(3)
    c = rng.uniform(-1, 1, (2, 2, 2))
    p = np.array([[1.0, 2.0], [0.5, -1.0]])
    moved = oracles.move(c, p)
    for i in range(2):
        for j in range(2):
            old = np.einsum("a,b,abk->k", p[i], p[j], c)
            assert moved[i, j] @ p == pytest.approx(old, abs=1e-13)


def test_partition_row_rules_reject_wrong_flags():
    t = 3 * math.pi / 4
    oracles.check_partition_row(t, oracles.A2, True, True, None)
    with pytest.raises(OracleMismatch):
        oracles.check_partition_row(t, oracles.A2, False, True, None)
    with pytest.raises(OracleMismatch):
        oracles.check_partition_row(1.0, oracles.ACOS_PLUS, False, True, math.cos(1.0))
    with pytest.raises(OracleMismatch):
        oracles.check_partition_row(1.0, oracles.ACOS_PLUS, False, False, 0.5)


def test_expected_row_count_by_hand():
    # grid 0..6 (7), t_max, and 0, pi, 2pi, pi/2, 3pi/2, 3pi/4, 7pi/4 (7, 0 shared)
    assert oracles.expected_row_count(2 * math.pi + 0.1, 1.0) == 14


def test_partition_check_rejects_edited_file(scratch):
    w = workload("partition_grid", scratch)
    t_max = w.rounds[0][0]
    out = w.run(t_max)
    w.check(t_max, out)
    with open(w.out, encoding="utf-8") as fh:
        lines = fh.read().splitlines(keepends=True)
    row = 1 + next(i for i, line in enumerate(lines[1:]) if ",ACosPlus," in line)
    for edit in (lambda ls: ls[:row] + [ls[row].replace("ACosPlus", "ACosMinus")] + ls[row + 1:],
                 lambda ls: ls[:row] + ls[row + 1:]):
        with open(w.out, "w", encoding="utf-8") as fh:
            fh.writelines(edit(lines))
        with pytest.raises(OracleMismatch):
            w.check(t_max, out)
    w.close()


def test_time_queries_check_rejects_corruption(scratch):
    w = workload("time_queries", scratch)
    ops = w.rounds[0]
    iso = next(op for op in ops if op[2])
    other = next(op for op in ops if not op[2])
    for op in (iso, other):
        w.check(op, w.run(op))
    l1, reduced1, l2, reduced2, verdict = w.run(other)
    if l1.c is not None:
        wrong = dataclasses.replace(l1, c=l1.c * (1 + 1e-6))
        with pytest.raises(OracleMismatch):
            w.check(other, (wrong, reduced1, l2, reduced2, verdict))
    form, certificate = reduced2
    bent = algflow.BasisChange(certificate.matrix + [[1e-6, 0.0], [0.0, 0.0]])
    with pytest.raises(OracleMismatch):
        w.check(other, (l1, reduced1, l2, (form, bent), verdict))
    l1, reduced1, l2, reduced2, verdict = w.run(iso)
    bent = algflow.IsoVerdict.isomorphic(
        algflow.BasisChange(verdict.certificate.matrix * 1.001), 0.0)
    with pytest.raises(OracleMismatch):
        w.check(iso, (l1, reduced1, l2, reduced2, bent))
    with pytest.raises(OracleMismatch):
        w.check(iso, (l1, reduced1, l2, reduced2, algflow.IsoVerdict.not_isomorphic_exact("x")))


def test_algebra_search_check_rejects_corruption(scratch):
    w = workload("algebra_search", scratch)
    ops = w.rounds[0]
    iso = next(op for op in ops if op[0] == "iso")
    separated = next(op for op in ops if op[0] == "separated")
    hopeless = next(op for op in ops if op[0] == "hopeless")
    for op in (iso, separated):
        w.check(op, w.run(op))
    _, verdict = w.run(iso)
    bent = algflow.IsoVerdict.isomorphic(
        algflow.BasisChange(verdict.certificate.matrix + [[1e-5, 0.0], [0.0, 0.0]]), 0.0)
    with pytest.raises(OracleMismatch):
        w.check(iso, (None, bent))
    with pytest.raises(OracleMismatch):
        w.check(separated, (None, algflow.IsoVerdict.not_found()))
    # A hopeless pair reported isomorphic is rejected.
    with pytest.raises(OracleMismatch):
        w.check(hopeless, (None, algflow.IsoVerdict.isomorphic(algflow.BasisChange.identity(2),
                                                               0.0)))


def test_cubic_check_rejects_corruption(scratch):
    w = workload("cubic_products", scratch)
    for m in (2, 8, 32):
        op = next(op for r in w.rounds for op in r if op[0].dim == m)
        general, type_c = w.run(op)
        w.check(op, (general, type_c))
        for which in (0, 1):
            values = [general.values.copy(), type_c.values.copy()]
            values[which][m - 1, 0, m // 2] += 1e-4
            with pytest.raises(OracleMismatch):
                w.check(op, tuple(algflow.CubicTensor(v) for v in values))


def test_verify_theorems_check_rejects_failed_line(scratch):
    w = workload("verify_theorems", scratch)
    lines = [f"PASS  {name:<14} detail" for name in CHECKS] + ["9/9 checks passed"]
    w.check(None, (0, "\n".join(lines) + "\n"))
    failed = lines.copy()
    failed[3] = failed[3].replace("PASS", "FAIL")
    with pytest.raises(OracleMismatch):
        w.check(None, (0, "\n".join(failed) + "\n"))
    with pytest.raises(OracleMismatch):
        w.check(None, (1, "\n".join(lines) + "\n"))


def test_reference_time_scales_wall_time_by_the_loop_rate_beside_it(monkeypatch):
    # A block every 0.1 s: 2 ms blocks (500/s, the reference rate) for 5 s,
    # then 4 ms blocks (250/s, a host running at half speed).
    ticks = iter(range(0, 10**10, 10**8))
    clock = types.SimpleNamespace(perf_counter_ns=lambda: next(ticks))
    monkeypatch.setattr(hostspeed, "time", clock)
    durations = iter([2_000_000] * 50 + [4_000_000] * 50)
    monkeypatch.setattr(hostspeed, "block", lambda: next(durations))
    meter = hostspeed.Meter()
    for _ in range(100):
        meter.measure()
    assert meter.rate == pytest.approx(100 / 0.3)
    # An operation of 20 ms wall time in each phase, away from the switch.
    assert meter.reference_ns(2 * 10**9, 20_000_000) == pytest.approx(20_000_000)
    assert meter.reference_ns(8 * 10**9, 20_000_000) == pytest.approx(10_000_000)
    # Past the last block, the nearest block on the left still counts.
    assert meter.reference_ns(20 * 10**9, 20_000_000) == pytest.approx(10_000_000)
