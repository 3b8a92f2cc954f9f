"""Command-line surface: reports, exit codes, file formats."""

import collections
import contextlib
import copy
import csv
import hashlib
import io
import itertools
import json
import logging
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import algflow.cli
from algflow import checks, classification, isomorphism
from algflow.algebra import (
    DEFAULT_TOL,
    AlgebraFD,
    BasisChange,
    algebra_to_json_dict,
    associativity_residuals,
    change_of_basis,
    commutativity_residuals,
    from_2x4,
    random_invertible,
    unit_entries,
)
from algflow.classification import (
    A1,
    A0_PLUS,
    A2,
    ACOS_MINUS,
    ACOS_PLUS,
    CLASS_PREDICATES,
    EXCEPTIONAL_RESIDUES,
    PARAM_COUNTS,
    VARIANTS,
    BekbaevForm,
    FlowClassLabel,
    bekbaev_matrix,
    class_representative,
    classify_times,
    residue_times,
    to_bekbaev,
)
from algflow.cli import MAX_PARTITION_POINTS, _check_partition, _partition_blocks, main
from algflow.cubic import CubicTensor
from algflow.flow import MAX_TIME, SWEEP_BLOCK, flow_tensors, time_blocks


def run(capsys, *argv):
    """Exit code, stdout and stderr of the CLI; argparse's SystemExit gives the code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_pi_is_a1(self, capsys):
        code, out, _ = run(capsys, "classify", "--t", "3.14159265358979")
        assert code == 0
        report = json.loads(out)
        assert report["label"]["class"] == "A1"
        assert report["canonical_form"] == {"family": 5, "params": [0.5, 0.0]}

    def test_zero_is_a1(self, capsys):
        code, out, _ = run(capsys, "classify", "--t", "0")
        assert code == 0
        assert json.loads(out)["label"]["class"] == "A1"

    def test_third_pi(self, capsys):
        code, out, _ = run(capsys, "classify", "--t", "1.0471975512")
        assert code == 0
        report = json.loads(out)
        assert report["label"]["class"] == "ACosPlus"
        assert abs(report["label"]["c"] - 0.5) < 1e-9
        assert "basis_change" in report and "representative" in report

    def test_negative_time_is_usage_error(self, capsys):
        code, _, err = run(capsys, "classify", "--t", "-1")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("t", ["nan", "inf", "-inf"])
    def test_non_finite_time_is_usage_error(self, capsys, t):
        code, out, err = run(capsys, "classify", f"--t={t}")
        assert code == 2
        assert out == ""
        assert err == f"error: time must be finite, got {float(t)}\n"

    @pytest.mark.parametrize("t", ["962.8981484966943", "1e-8"])
    def test_reduction_near_a_class_boundary(self, capsys, t):
        # 1.7e-7 from pi/2 (mod pi) and 1e-8 from 0: the reduction matrix is large.
        code, out, err = run(capsys, "classify", "--t", t)
        assert code == 0
        assert err == ""
        assert json.loads(out)["t"] == float(t)

    # 3*pi/4 + 9e-10 and 1e-9: inside the A2 and A1 bands, where the tensor
    # residuals (sqrt(2) |sin delta| and |sin delta| (1 + delta)) exceed 1e-9.
    @pytest.mark.parametrize("t, variant", [("2.356194491092345", A2), ("1e-9", A1)])
    def test_band_edge_predicates_are_those_of_the_class(self, capsys, t, variant):
        code, out, _ = run(capsys, "classify", "--t", t)
        assert code == 0
        report = json.loads(out)
        assert report["label"] == {"class": variant}
        assert (report["commutative"], report["associative"]) == (variant == A2, True)

    @given(t=st.one_of(st.floats(0.0, 2.0**22),
                       st.builds(lambda k, residue, offset: abs(k * math.pi + residue + offset),
                                 st.integers(0, 1000),
                                 st.sampled_from([0.0, math.pi / 2, 3 * math.pi / 4]),
                                 st.floats(-3e-6, 3e-6))),
           tol=st.one_of(st.floats(0.0, 3e-6), st.floats(0.0, 1.0)))
    @settings(max_examples=200, deadline=None)
    def test_predicates_are_those_of_the_class(self, t, tol):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["classify", "--t", repr(t), "--tol", repr(tol)])
        if code == 2:
            assert "too large for tolerance" in err.getvalue()
            return
        assert code == 0
        report = json.loads(out.getvalue())
        assert (report["commutative"], report["associative"]) == \
            CLASS_PREDICATES[report["label"]["class"]]


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["classify", "kce", "iso-times", "iso-files",
                                     "verify-theorems"])
def test_bad_tolerance_is_usage_error(capsys, tmp_path, command, value):
    algebra = tmp_path / "a1.json"
    algebra.write_text(json.dumps(algebra_to_json_dict(class_representative(FlowClassLabel(A1)))))
    argv = {
        "classify": ["classify", "--t", "0", "--tol", value],
        "kce": ["kce", "--s", "0", "--tau", "0.4", "--t", "1", "--tol", value],
        "iso-times": ["iso", "--t1", "0.5", "--t2", "1.5", "--tol", value],
        "iso-files": ["iso", "--a", str(algebra), "--b", str(algebra), "--tol", value],
        "verify-theorems": ["verify-theorems", "--only", "kce", "--tol", f"kce={value}"],
    }[command]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


class TestKce:
    def test_good_triple(self, capsys):
        code, out, _ = run(capsys, "kce", "--s", "0", "--tau", "0.4", "--t", "1.0")
        assert code == 0
        assert json.loads(out)["residual"] < 1e-12

    def test_ordering_violation(self, capsys):
        code, _, err = run(capsys, "kce", "--s", "0", "--tau", "0", "--t", "1")
        assert code == 2

    def test_wide_triple(self, capsys):
        code, out, _ = run(capsys, "kce", "--s", "1", "--tau", "5", "--t", "9")
        assert code == 0

    def test_unattainable_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "kce", "--s", "0", "--tau", "0.4", "--t", "1.0",
                           "--tol", "1e-20")
        assert code == 1

    def test_float_differences_that_miss_the_tolerance_are_refused(self, capsys):
        # ulp(1e5) = 1.5e-11: t - tau and tau - s sum to t - s only within 5.8e-12,
        # so the residual could not meet tol = 1e-12 although the law holds there.
        code, out, err = run(capsys, "kce", "--s", "0.3", "--tau", "0.7", "--t", "1e5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "only within 5.8e-12" in err

    def test_no_accepted_triple_fails(self, capsys):
        rng = np.random.default_rng(314)
        codes = []
        for _ in range(300):
            s, tau, t = np.sort(np.exp(rng.uniform(math.log(1e-3), math.log(2.0**22), 3))).tolist()
            code, _, err = run(capsys, "kce", f"--s={s!r}", f"--tau={tau!r}", f"--t={t!r}")
            assert code != 1, (s, tau, t)
            assert code == 0 or "add up to t - s only within" in err
            codes.append(code)
        assert codes.count(0) >= 50 and codes.count(2) >= 50

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("position", ["--s", "--tau", "--t"])
    def test_non_finite_time_is_usage_error(self, capsys, position, value):
        times = {"--s": "0", "--tau": "0.4", "--t": "1.0", position: value}
        code, out, err = run(capsys, "kce", *(x for item in times.items() for x in item))
        assert code == 2
        assert out == ""
        assert err == f"error: time must be finite, got {float(value)}\n"


# Algebra file contents that must exit 2, and a fragment of each one's message.
BAD_ALGEBRA_FILES = {
    "5": "expected a JSON object",
    "[1, 2]": "expected a JSON object",
    '"c2x4"': "expected a JSON object",
    "null": "expected a JSON object",
    '{"dim": [1], "c": [[[1]]]}': 'disagrees with "dim": [1]',
    '{"dim": null, "c2x4": [[1,0,0,0],[0,0,0,1]]}': '"c2x4" form requires dim 2, got None',
    '{"dim": Infinity, "c2x4": [[1,0,0,0],[0,0,0,1]]}': '"c2x4" form requires dim 2, got inf',
    '{"dim": 2, "c2x4": {"a": 1}}': '"c2x4" is not a rectangular array of numbers',
    '{"dim": 2, "c": [[[1, 0], [0, 1]], [[0, 1], [1]]]}': '"c" is not a rectangular array',
    '{"dim": 2, "c2x4": [[true, 0, 0, 0], [0, 0, 0, 1]]}': '"c2x4" is not a rectangular array',
    '{"dim": 2, "c2x4": [["1", 0, 0, 0], [0, 0, 0, 1]]}': '"c2x4" is not a rectangular array',
    '{"dim": 2, "c2x4": [[1' + '0' * 309 + ', 0, 0, 0], [0, 0, 0, 1]]}':
        '"c2x4" is not a rectangular array',
    '{"dim": 3, "c": ' + json.dumps([[[0] * 3] * 3] * 3) + '}':
        "algebras are two-dimensional, got dim 3",
    '{"dim": 2, "c2x4": [[1, 2], [3, 4]]}': "expected shape (2, 4), got (2, 2)",
}


class TestIsoTimes:
    def test_half_period_with_loose_tolerance(self, capsys):
        # four-decimal inputs sit ~7e-6 off the locus, so widen the band
        code, out, _ = run(capsys, "iso", "--t1", "0.5236", "--t2", "3.6652",
                           "--tol", "1e-4")
        assert code == 0
        assert json.loads(out)["kind"] == "Isomorphic"

    def test_half_period_full_precision(self, capsys):
        code, out, _ = run(capsys, "iso", "--t1", repr(0.5236),
                           "--t2", repr(0.5236 + math.pi))
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "Isomorphic"
        assert np.allclose(report["certificate"], [[-1.0, 0.0], [0.0, -1.0]])

    def test_equal_times(self, capsys):
        code, out, _ = run(capsys, "iso", "--t1", "0.5", "--t2", "0.5")
        assert code == 0
        assert json.loads(out)["certificate"] == [[1.0, 0.0], [0.0, 1.0]]

    def test_non_isomorphic_times(self, capsys):
        code, out, _ = run(capsys, "iso", "--t1", "0.5", "--t2", "0.6")
        assert code == 1
        assert json.loads(out)["kind"] == "NotIsomorphicExact"

    # |sin(t2 - t1)| <= tol, but no certificate meets tol: at tol 0 the shift by
    # the float pi is not exact; at 1e-3 the residual is the chord 2|sin(d/2)| > sin d.
    @pytest.mark.parametrize("t1, t2, tol", [
        ("0.3075", "3.4490926535897932", "0"),
        ("1.570296326712063", "1.57129632687773", "1e-3"),
    ])
    def test_no_certificate_within_tol_is_not_isomorphic(self, capsys, t1, t2, tol):
        code, out, err = run(capsys, "iso", "--t1", t1, "--t2", t2, "--tol", tol)
        assert code == 1
        assert err == ""
        assert json.loads(out)["kind"] == "NotIsomorphicExact"

    @pytest.mark.parametrize("t1, t2, tol, residual", [
        ("0.3075", "3.4490926535897932", "0", "1.1102230246251565e-16"),
        ("1.570296326712063", "1.57129632687773", "1e-3", "0.0010000001240002387"),
    ])
    def test_missed_certificate_reason(self, capsys, t1, t2, tol, residual):
        code, out, _ = run(capsys, "iso", "--t1", t1, "--t2", t2, "--tol", tol)
        assert code == 1
        assert json.loads(out)["reason"] == (
            f"certificate residual {residual} exceeds tol {float(tol)!r}, "
            "although |sin(t2 - t1)| is within it")

    @pytest.mark.parametrize("argv", [
        ("iso", "--t1", "1.5707963267948966", "--t2", "8397585.547992067"),
        ("iso", "--t1", repr(1e8 * math.pi), "--t2", "0.5", "--tol", "1e-3"),
        ("classify", "--t", repr(1e8 * math.pi)),
        ("classify", "--t", "1e15", "--tol", "0"),
    ])
    def test_time_too_large_for_tolerance_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: time ") and "too large for tolerance" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("t1, t2", [("nan", "1"), ("1", "nan"), ("inf", "1")])
    def test_non_finite_time_is_usage_error(self, capsys, t1, t2):
        code, out, err = run(capsys, "iso", "--t1", t1, "--t2", t2)
        assert code == 2
        assert out == ""
        assert "error: time must be finite, got" in err


class TestIsoFiles:
    @pytest.fixture
    def algebra_files(self, tmp_path):
        paths = {}
        for name, variant in (("a0plus", A0_PLUS), ("a1", A1)):
            data = algebra_to_json_dict(class_representative(FlowClassLabel(variant)))
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(data))
            paths[name] = str(path)
        return paths

    def test_separated_by_invariant(self, capsys, algebra_files):
        code, out, _ = run(capsys, "iso", "--a", algebra_files["a0plus"],
                           "--b", algebra_files["a1"])
        assert code == 1
        report = json.loads(out)
        assert report["kind"] == "SeparatedByInvariant"
        assert report["reason"] == "associative"

    def test_self_isomorphic_file(self, capsys, algebra_files):
        code, out, _ = run(capsys, "iso", "--a", algebra_files["a1"],
                           "--b", algebra_files["a1"])
        assert code == 0
        assert json.loads(out)["kind"] == "Isomorphic"

    @staticmethod
    def _write(tmp_path, name: str, c: np.ndarray) -> str:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(algebra_to_json_dict(AlgebraFD(CubicTensor(c)))))
        return str(path)

    @pytest.mark.parametrize("scale", [1.0, 1e-10])
    def test_separated_by_a_trace_form_invariant(self, capsys, tmp_path, scale):
        # The invariants are scale-free; at 1e-10 the search's absolute tol would
        # certify this pair Isomorphic.
        a, b = (self._write(tmp_path, f"plus{c}", scale * class_representative(
            FlowClassLabel(ACOS_PLUS, c)).constants.values) for c in (0.3, 0.5))
        code, out, err = run(capsys, "iso", "--a", a, "--b", b)
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["kind"] == "SeparatedByInvariant"
        name, values = report["reason"].split(": ")
        assert name == "I1 = B^-1(tr L, tr L)"
        assert np.allclose([float(x) for x in values.split(" vs ")], [0.42764, 0.13397], atol=1e-5)

    @pytest.mark.parametrize("k", [24, 40])
    def test_singular_descent_is_not_an_input_error(self, capsys, tmp_path, k):
        # Families 12 and 14 scaled by 2^k: J^T J of their sparse tensors can be exactly
        # singular with the damping below its rounding.  The LinAlgError of that solve is
        # a ValueError, which cli.main would report as an input error (exit 2).
        a, b = (self._write(tmp_path, f"fam{family}", np.ldexp(from_2x4(
            bekbaev_matrix(BekbaevForm(family, ()))).constants.values, k)) for family in (12, 14))
        code, out, err = run(capsys, "iso", "--a", a, "--b", b)
        assert code in (0, 1) and err == ""
        assert json.loads(out)["kind"] in ("Isomorphic", "NotFoundWithinBudget")

    @pytest.mark.parametrize("a, b", [(12, 14), (14, 12), (13, 14), (14, 13)])
    def test_degeneration_is_not_certified(self, capsys, tmp_path, a, b):
        # As det P -> 0, some P carries family 12 or 13 to within tol of family 14, but
        # P^-1 misses the way back by about 1: no certificate.
        paths = {f: self._write(tmp_path, f"fam{f}", from_2x4(bekbaev_matrix(
            BekbaevForm(f, ()))).constants.values) for f in (a, b)}
        code, out, err = run(capsys, "iso", "--a", paths[a], "--b", paths[b])
        assert (code, err) == (1, "")
        assert json.loads(out)["kind"] == "NotFoundWithinBudget"

    def test_distinct_families_are_never_isomorphic(self, capsys, tmp_path):
        # Members of distinct Bekbaev families are not isomorphic: a seeded member of
        # each side for every pair of families, both ways round, at 8 restarts.
        rng = np.random.default_rng(2204)
        kinds = collections.Counter()
        for f, g in itertools.combinations(range(1, 16), 2):
            paths = []
            for side, family in (("a", f), ("b", g)):
                params = rng.uniform(-2.0, 2.0, PARAM_COUNTS[family])
                if family in (2, 3, 7, 8):  # beta1 >= 0
                    params[1] = abs(params[1])
                paths.append(self._write(tmp_path, side, from_2x4(bekbaev_matrix(
                    BekbaevForm(family, params.tolist()))).constants.values))
            for a, b in (paths, paths[::-1]):
                code, out, err = run(capsys, "iso", "--a", a, "--b", b, "--restarts", "8")
                assert (code, err) == (1, ""), (f, g)
                kinds[json.loads(out)["kind"]] += 1
        assert set(kinds) == {"SeparatedByInvariant", "NotFoundWithinBudget"}

    @staticmethod
    def _file_pairs():
        """Seeded tensor pairs for ``iso --a --b``: members of every two distinct Bekbaev
        families both ways round, a moved member of each family (twice), A1, A0Plus and
        -A1 against each other and against their moves, and random tensors against their
        moves and against unrelated ones; each pair scaled by one 2^k, |k| <= 40."""
        rng = np.random.default_rng(2828)

        def member(family):
            params = rng.uniform(-2.0, 2.0, PARAM_COUNTS[family])
            if family in (2, 3, 7, 8):  # beta1 >= 0
                params[1] = abs(params[1])
            return from_2x4(bekbaev_matrix(BekbaevForm(family, params.tolist()))).constants.values

        def moved(c):
            p = BasisChange(random_invertible(rng, 0.3, 3.0))
            return change_of_basis(AlgebraFD(CubicTensor(c)), p).constants.values

        pairs = []
        for f, g in itertools.combinations(range(1, 16), 2):
            a, b = member(f), member(g)
            pairs += [(a, b), (b, a)]
        for family in [*range(1, 16)] * 2:
            a = member(family)
            pairs.append((a, moved(a)))
        special = [class_representative(FlowClassLabel(v)).constants.values for v in (A1, A0_PLUS)]
        special.append(-special[0])
        for a, b in itertools.product(special, repeat=2):
            pairs += [(a, b), (a, moved(b))]
        for _ in range(20):
            c = rng.uniform(-1.0, 1.0, (2, 2, 2))
            pairs += [(c, moved(c)), (c, rng.uniform(-1.0, 1.0, (2, 2, 2)))]
        return [(np.ldexp(a, k), np.ldexp(b, k))
                for (a, b), k in zip(pairs, rng.integers(-40, 41, len(pairs)).tolist())]

    def test_file_verdicts_are_pinned(self, capsys, tmp_path):
        # Exit code and stdout of every pair of ``_file_pairs`` at 8 restarts, as one
        # sha256, taken when the command chained invariant_signature, a trace-form
        # separation and iso_search itself; ``decide``'s one skip rule prints the same.
        digest = hashlib.sha256()
        kinds = collections.Counter()
        for a, b in self._file_pairs():
            paths = [self._write(tmp_path, side, c) for side, c in (("a", a), ("b", b))]
            code, out, err = run(capsys, "iso", "--a", paths[0], "--b", paths[1],
                                 "--restarts", "8")
            assert err == ""
            kinds[json.loads(out)["kind"]] += 1
            digest.update(repr((code, out.replace(str(tmp_path), "TMP"))).encode())
        assert kinds == {"SeparatedByInvariant": 164, "NotFoundWithinBudget": 87, "Isomorphic": 47}
        assert digest.hexdigest() == \
            "c2e3cb392ebd726659e83fef19f72648d7f37da304713b8b5f2b29806666f988"

    def test_overflowing_descent_prints_no_numpy_warning(self, capsys, caplog, tmp_path):
        # Past max|c| of about 1e154 the descent's matmuls overflow: one debug record
        # says so, and no RuntimeWarning reaches stderr.
        c = np.random.default_rng(3).uniform(-1.0, 1.0, (2, 2, 2)) * 1e200
        moved = change_of_basis(AlgebraFD(CubicTensor(c)), BasisChange([[0.7, -1.2], [0.4, 0.9]]))
        a = self._write(tmp_path, "big", c)
        b = self._write(tmp_path, "moved", moved.constants.values)
        caplog.set_level(logging.DEBUG, logger="algflow.isomorphism")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # record every warning, not only the first
            code, out, err = run(capsys, "iso", "--a", a, "--b", b, "--restarts", "12")
        assert [str(w.message) for w in caught] == []
        assert (code, err) == (1, "")
        assert json.loads(out)["kind"] == "NotFoundWithinBudget"
        assert [r.getMessage() for r in caplog.records] == \
            ["decide: 12 descents ended where r @ r overflows"]

    def test_parse_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "iso", "--a", str(bad), "--b", str(bad))
        assert code == 2

    @pytest.mark.parametrize("content", list(BAD_ALGEBRA_FILES))
    def test_non_object_file(self, capsys, tmp_path, content):
        bad = tmp_path / "bad.json"
        bad.write_text(content)
        code, out, err = run(capsys, "iso", "--a", str(bad), "--b", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert BAD_ALGEBRA_FILES[content] in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "iso", "--a", "/nonexistent.json",
                           "--b", "/nonexistent.json")
        assert code == 2

    def test_mixed_modes_rejected(self, capsys, algebra_files):
        code, _, err = run(capsys, "iso", "--t1", "0.5", "--a", algebra_files["a1"])
        assert code == 2

    def test_negative_seed_is_usage_error(self, capsys, algebra_files):
        # Both modes refuse a bad search option, although only files run the search.
        for inputs in (("--a", algebra_files["a1"], "--b", algebra_files["a1"]),
                       ("--t1", "0.5", "--t2", "0.6")):
            for option, message in ((("--seed", "-1"), "seed must be nonnegative, got -1"),
                                    (("--restarts", "0"), "restarts must be at least 1"),
                                    (("--seed", "-1", "--restarts", "-3"),
                                     "restarts must be at least 1")):
                code, out, err = run(capsys, "iso", *inputs, *option)
                assert code == 2
                assert out == ""
                assert err == f"error: {message}\n"

    def test_trace_invariants_taken_once_per_side(self, capsys, tmp_path, monkeypatch):
        # A moved pair whose trace form B is nondegenerate: ``iso --a --b`` and
        # ``iso_search`` each take the invariants of a and of b once.
        calls = []
        trace_invariants = isomorphism._trace_invariants
        monkeypatch.setattr(isomorphism, "_trace_invariants",
                            lambda c: calls.append(c) or trace_invariants(c))
        a = class_representative(FlowClassLabel(ACOS_PLUS, 0.3))
        b = change_of_basis(a, BasisChange([[1.0, 0.5], [0.25, 1.5]]))
        b_entries = unit_entries(b.constants.values.ravel().tolist())
        assert trace_invariants(b_entries) is not None
        paths = [self._write(tmp_path, side, x.constants.values) for side, x in (("a", a), ("b", b))]
        code, out, _ = run(capsys, "iso", "--a", paths[0], "--b", paths[1])
        assert (code, json.loads(out)["kind"], len(calls)) == (0, "Isomorphic", 2)
        calls.clear()
        assert isomorphism.iso_search(a, b).is_isomorphic and len(calls) == 2


# Moves exact in floats: e1 and e2 swapped, -I, diag(2, 1/2) and diag(4, 1).
_EXACT_MOVES = [BasisChange(m) for m in ([[0.0, 1.0], [1.0, 0.0]], -np.eye(2),
                                         np.diag([2.0, 0.5]), np.diag([4.0, 1.0]))]


class TestIsoExactTwins:
    """``iso --a --b`` on exact twins of a question: each pair asked ten ways, as is,
    with the arguments swapped, and with either side moved by one of ``_EXACT_MOVES``."""

    @staticmethod
    def _pairs():
        """A seeded member of each Bekbaev family against every other family's (105
        pairs), and 45 members, three per family, against their moves (45 pairs)."""
        rng = np.random.default_rng(2929)

        def member(family):
            params = rng.uniform(-2.0, 2.0, PARAM_COUNTS[family])
            if family in (2, 3, 7, 8):  # beta1 >= 0
                params[1] = abs(params[1])
            return from_2x4(bekbaev_matrix(BekbaevForm(family, params.tolist())))

        members = [member(family) for family in range(1, 16)]
        distinct = list(itertools.combinations(members, 2))
        moved = []
        for family in [*range(1, 16)] * 3:
            a = member(family)
            moved.append((a, change_of_basis(a, BasisChange(random_invertible(rng, 0.3, 3.0)))))
        return distinct, moved

    @staticmethod
    def _kinds(capsys, tmp_path, pairs, scale: float = 1.0) -> list[tuple[int, int, str]]:
        """(pair index, exit code, verdict kind) of each of the ten questions of every
        pair, at 8 restarts seeded by the pair's index, both tensors scaled by ``scale``."""
        asked = []
        for i, (a, b) in enumerate(pairs):
            paths = {}
            for side, x in (("a", a), ("b", b)):
                for j, y in enumerate([x, *(change_of_basis(x, p) for p in _EXACT_MOVES)]):
                    path = tmp_path / f"{side}{j}.json"
                    path.write_text(json.dumps(algebra_to_json_dict(
                        AlgebraFD(CubicTensor(scale * y.constants.values)))))
                    paths[side, j] = str(path)
            questions = [(paths["a", 0], paths["b", 0]), (paths["b", 0], paths["a", 0])]
            questions += [(paths["a", j], paths["b", 0]) for j in range(1, 5)]
            questions += [(paths["a", 0], paths["b", j]) for j in range(1, 5)]
            for x, y in questions:
                code, out, _ = run(capsys, "iso", "--a", x, "--b", y, "--restarts", "8",
                                   "--seed", str(i))
                asked.append((i, code, json.loads(out)["kind"] if code != 2 else None))
        return asked

    def test_twins_keep_every_verdict_sound(self, capsys, tmp_path):
        # About 1.5 s.  No twin of a distinct-family pair is Isomorphic, no twin of a
        # moved pair is separated, and no question is an input error.
        distinct, moved = self._pairs()
        asked = self._kinds(capsys, tmp_path, distinct + moved)
        assert len(asked) == 1_500
        assert [i for i, code, _ in asked if code == 2] == []
        assert [i for i, _, kind in asked[:1_050] if kind == "Isomorphic"] == []
        assert [i for i, _, kind in asked[1_050:] if kind == "SeparatedByInvariant"] == []
        kinds = collections.Counter(kind for _, _, kind in asked)
        assert min(kinds.values()) > 100 and len(kinds) == 3

    @pytest.mark.xfail(strict=True, reason="F3, ROADMAP item 2: the search's tol is absolute, "
                       "so at a common scale of 2^-40 it certifies distinct families")
    def test_distinct_families_at_a_common_scale_of_2_to_the_minus_40(self, capsys, tmp_path):
        distinct, _ = self._pairs()
        asked = self._kinds(capsys, tmp_path, distinct, scale=2.0**-40)
        assert [i for i, _, kind in asked if kind == "Isomorphic"] == []


class TestSkipRuleOnTwins:
    """The one skip rule, ``isomorphism._search_ruled_out``, on the pairs of
    ``TestIsoExactTwins`` and ``TestIsoFiles``."""

    def test_same_answer_on_every_exact_twin(self):
        # About 0.5 s.  The ten questions of each pair, each at common scales 2^k: the
        # answer, None or the invariant's name, is the same on all of them.
        distinct, moved = TestIsoExactTwins._pairs()
        calls = decided = 0
        for a, b in distinct + moved:
            twins_a, twins_b = ([x, *(change_of_basis(x, p) for p in _EXACT_MOVES)] for x in (a, b))
            questions = [(a, b), (b, a), *((x, b) for x in twins_a[1:]),
                         *((a, y) for y in twins_b[1:])]
            names = set()
            for k in (-500, -60, -34, 40, 100, 500):
                for x, y in questions:
                    reason = isomorphism._search_ruled_out(
                        *(AlgebraFD(CubicTensor(np.ldexp(z.constants.values, k))) for z in (x, y)))
                    names.add(reason and reason.split(":")[0])
                    calls += 1
            assert len(names) == 1
            decided += names != {None}
        assert (calls, decided) == (9_000, 68)

    def test_iso_search_runs_no_descent_where_decide_separates(self, monkeypatch):
        # Items 114, 134, 187 and 192 (max|c| near 1e-10, one side commutative) got
        # false certificates from a direct ``iso_search``, at residuals 5.7e-11 to 7.2e-10
        # below its absolute tol, where ``decide`` separated them.
        pairs = [tuple(AlgebraFD(CubicTensor(x)) for x in pair) for pair in TestIsoFiles._file_pairs()]
        descents = []
        monkeypatch.setattr(isomorphism, "_levenberg_descent",
                            lambda p0, ca, cb, tol, radius2: descents.append(p0) or (p0, math.inf))
        cfg = isomorphism.SearchConfig(restarts=1)
        separated = set()
        for i, (a, b) in enumerate(pairs):
            descents.clear()
            assert isomorphism.iso_search(a, b, cfg).kind == "NotFoundWithinBudget"
            if not descents:
                separated.add(i)
            assert (isomorphism.decide(a, b, cfg).kind == "SeparatedByInvariant") == (not descents)
        assert len(separated) == 164 and {114, 134, 187, 192} <= separated


def _reference_partition_times(t_max: float, step: float) -> np.ndarray:
    """The partition's times as one array, as ``partition`` made them before it streamed
    its blocks: the reference of the byte-identity tests."""
    _check_partition(t_max, step)
    grid = np.arange(1, math.ceil(t_max / step) + 2) * step
    exceptional = [residue_times(residue, t_max) for residue, _ in EXCEPTIONAL_RESIDUES]
    return np.unique(np.concatenate(([0.0], grid[grid < t_max], [t_max], *exceptional)))


def _reference_rows(times):
    """(t, class, param_c, commutative, associative) for each time, one row at a time."""
    for block in time_blocks(times):
        codes, c = classify_times(block)
        tensors = flow_tensors(block)
        commutative = commutativity_residuals(tensors) <= DEFAULT_TOL
        associative = associativity_residuals(tensors) <= DEFAULT_TOL
        for t, code, c_t, comm, assoc in zip(block.tolist(), codes.tolist(), c.tolist(),
                                             commutative.tolist(), associative.tolist()):
            yield t, VARIANTS[code], None if math.isnan(c_t) else c_t, comm, assoc


def _reference_csv(times) -> bytes:
    """The partition CSV as ``csv.writer`` writes it row by row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["t", "class", "param_c", "commutative", "associative"])
    writer.writerows(
        (repr(t), variant, "" if c is None else repr(c), json.dumps(comm), json.dumps(assoc))
        for t, variant, c, comm, assoc in _reference_rows(times)
    )
    return buffer.getvalue().encode()


def _reference_json(times) -> bytes:
    """The partition JSON as ``json.dumps(record, indent=2)`` writes it record by record."""
    records = [
        json.dumps({"t": t, "class": variant, "param_c": c, "commutative": comm,
                    "associative": assoc}, indent=2).replace("\n", "\n  ")
        for t, variant, c, comm, assoc in _reference_rows(times)
    ]
    return ("[\n  " + ",\n  ".join(records) + "\n]\n").encode()


_REFERENCE_WRITERS = {"csv": _reference_csv, "json": _reference_json}


def _partition_bytes(capsys, path, t_max: float, step: float, fmt: str) -> bytes:
    code, _, _ = run(capsys, "partition", "--t-max", repr(t_max), "--step", repr(step),
                     "--out", str(path), "--format", fmt)
    assert code == 0
    return path.read_bytes()


class TestPartition:
    def test_short_grid(self, capsys, tmp_path):
        out_path = tmp_path / "part.csv"
        code, _, _ = run(capsys, "partition", "--t-max", "0.1", "--step", "0.05",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == "t,class,param_c,commutative,associative"
        assert len(lines) == 4  # header + 3 grid records, no extra exceptional points
        classes = [line.split(",")[1] for line in lines[1:]]
        assert classes == ["A1", "ACosPlus", "ACosPlus"]  # t = 0 is a pi-multiple

    def test_degenerate_grid(self, capsys, tmp_path):
        out_path = tmp_path / "part.csv"
        code, _, _ = run(capsys, "partition", "--t-max", "0.04", "--step", "0.05",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 3  # header + t = 0 + endpoint

    def test_class_changes_at_exceptional_points(self, capsys, tmp_path):
        out_path = tmp_path / "part.csv"
        code, _, _ = run(capsys, "partition", "--t-max", repr(2 * math.pi),
                         "--step", "0.01", "--out", str(out_path))
        assert code == 0
        rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
        by_time = {float(r[0]): r[1] for r in rows}
        for point, expected in [
            (math.pi / 2, "A0Plus"), (3 * math.pi / 4, "A2"), (math.pi, "A1"),
            (3 * math.pi / 2, "A0Plus"), (7 * math.pi / 4, "A2"), (2 * math.pi, "A1"),
        ]:
            assert by_time[point] == expected
        # neighbours of each exceptional point carry the surrounding classes
        times = sorted(by_time)
        i = times.index(math.pi / 2)
        assert by_time[times[i - 1]] == "ACosPlus"
        assert by_time[times[i + 1]] == "ACosMinus"

    def test_band_edge_rows_agree_with_their_class(self, capsys, tmp_path, monkeypatch):
        # Within 3e-9 of 3*pi/4 and of 0 the tensor residuals cross 1e-9 at other
        # distances than the class bands do; the predicates must follow the class.
        rng = np.random.default_rng(20261018)
        times = np.concatenate((3 * math.pi / 4 + rng.uniform(-3e-9, 3e-9, 10_000),
                                rng.uniform(0.0, 3e-9, 10_000)))
        monkeypatch.setattr(algflow.cli, "_partition_blocks",
                            lambda t_max, step: time_blocks(times))
        out_path = tmp_path / "part.csv"
        code, _, _ = run(capsys, "partition", "--t-max", "1", "--step", "1",
                         "--out", str(out_path))
        assert code == 0
        rows = list(csv.reader(out_path.read_text().splitlines()[1:]))
        assert len(rows) == 20_000
        assert {row[1] for row in rows} == {"A1", "A2", "ACosPlus", "ACosMinus"}
        contradicting = [row for row in rows
                         if row[3:] != [json.dumps(row[1] == "A2"),
                                        json.dumps(row[1] in ("A1", "A2"))]]
        assert contradicting == []

    def test_byte_identical_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run(capsys, "partition", "--t-max", "3.5", "--step", "0.2",
                "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys, tmp_path):
        out_path = tmp_path / "part.json"
        code, _, _ = run(capsys, "partition", "--t-max", "1.0", "--step", "0.5",
                         "--out", str(out_path), "--format", "json")
        assert code == 0
        records = json.loads(out_path.read_text())
        assert records[0] == {
            "t": 0.0, "class": "A1", "param_c": None,
            "commutative": False, "associative": True,
        }
        assert all(set(r) == {"t", "class", "param_c", "commutative", "associative"}
                   for r in records)

    def test_json_is_one_document(self, capsys, tmp_path):
        # records are written one at a time; the file must still read as
        # json.dumps(records, indent=2) of the whole list
        out_path = tmp_path / "part.json"
        code, _, _ = run(capsys, "partition", "--t-max", "7.0", "--step", "0.3",
                         "--out", str(out_path), "--format", "json")
        assert code == 0
        text = out_path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_csv_and_json_rows_agree(self, capsys, tmp_path):
        paths = {fmt: tmp_path / f"part.{fmt}" for fmt in ("csv", "json")}
        for fmt, path in paths.items():
            code, _, _ = run(capsys, "partition", "--t-max", "4.0", "--step", "0.25",
                             "--out", str(path), "--format", fmt)
            assert code == 0
        rows = [line.split(",") for line in paths["csv"].read_text().splitlines()[1:]]
        records = json.loads(paths["json"].read_text())
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert float(row[0]) == record["t"] and row[1] == record["class"]
            assert (float(row[2]) if row[2] else None) == record["param_c"]
            assert row[3:] == [json.dumps(record["commutative"]),
                               json.dumps(record["associative"])]

    @pytest.mark.parametrize("t_max, step", [
        ("inf", "0.5"), ("nan", "0.5"), ("10", "inf"), ("10", "nan"),
        ("1e9", "1e-9"), ("1e300", "1e-300"), ("1e9", "1000"),
    ])
    def test_unbounded_grid_refused_at_once(self, capsys, tmp_path, t_max, step):
        out_path = tmp_path / "part.csv"
        start = time.perf_counter()
        code, out, err = run(capsys, "partition", "--t-max", t_max, "--step", step,
                             "--out", str(out_path))
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == "" and err.startswith("error: ")
        assert not out_path.exists()

    def test_time_too_large_for_tolerance_refused_at_once(self, capsys, tmp_path):
        # under the point cap, but its last blocks are past 2**23
        out_path = tmp_path / "part.csv"
        code, out, err = run(capsys, "partition", "--t-max", "9e6", "--step", "10",
                             "--out", str(out_path))
        assert code == 2
        assert out == "" and "too large for tolerance" in err
        assert not out_path.exists()

    # (t_max, step): t_max below step, on a residue, on a grid point, steps on both
    # sides of pi/3 (where the windows stop following the grid), long windows.
    _GRIDS = [(0.04, 0.05), (3 * math.pi / 4, 0.01), (2 * math.pi, 0.01), (10.24, 0.01),
              (20.5 * math.pi, 0.01), (2000.0, math.pi / 3), (2000.0, 1.1), (1e4, 50.0),
              (3e4, 1e4), (5e4, 0.7)]

    def test_blocks_are_the_whole_list_in_order(self):
        rng = np.random.default_rng(77)
        grids = self._GRIDS + [(float(10.0 ** rng.uniform(-2.0, 4.0)), 0.0) for _ in range(40)]
        for t_max, step in grids:
            if step == 0.0:  # at most about 60,000 points
                step = float(t_max * 10.0 ** rng.uniform(-4.5, 0.5))
            blocks = list(_partition_blocks(t_max, step))
            assert all(0 < len(block) <= 2 * SWEEP_BLOCK + 8 for block in blocks)
            whole = _reference_partition_times(t_max, step)
            assert np.concatenate(blocks).tobytes() == whole.tobytes(), (t_max, step)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_record_count_is_the_rows_written(self, capsys, tmp_path, fmt):
        path = tmp_path / f"part.{fmt}"
        code, out, _ = run(capsys, "partition", "--t-max", "75.0", "--step", "0.01",
                           "--out", str(path), "--format", fmt)
        assert code == 0
        text = path.read_text()
        rows = len(json.loads(text)) if fmt == "json" else len(text.splitlines()) - 1
        assert rows == len(_reference_partition_times(75.0, 0.01)) > 2 * SWEEP_BLOCK
        assert out == f"wrote {rows} records to {path}\n"

    def test_point_cap_counts_grid_and_exceptional_points(self):
        step = 1.0
        t_max = MAX_PARTITION_POINTS / (1 + 3 / math.pi) * 1.001
        with pytest.raises(ValueError, match="over the cap"):
            _check_partition(t_max, step)

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "partition", "--t-max", "1", "--step", "0.5",
                           "--out", str(tmp_path / "missing" / "part.csv"))
        assert code == 2

    def test_bad_step(self, capsys, tmp_path):
        code, _, err = run(capsys, "partition", "--t-max", "1", "--step", "0",
                           "--out", str(tmp_path / "part.csv"))
        assert code == 2

    # Each block's text is built column by column; the bytes are those of the
    # row-by-row writers above.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("t_max, step", [
        (0.04, 0.05),                  # t_max < step
        (3 * math.pi / 4, 0.01),       # t_max on A2's residue
        (2 * math.pi, 0.01),           # t_max on a multiple of pi
        (20.5 * math.pi, 0.01),        # the benchmark's grid, seven blocks
    ])
    def test_fixed_cases_byte_identical(self, capsys, tmp_path, t_max, step, fmt):
        got = _partition_bytes(capsys, tmp_path / f"part.{fmt}", t_max, step, fmt)
        assert got == _REFERENCE_WRITERS[fmt](_reference_partition_times(t_max, step))

    @given(t_max=st.floats(0.0, 200.0, exclude_min=True), step=st.floats(1e-3, 2.0),
           fmt=st.sampled_from(["csv", "json"]))
    @settings(max_examples=20, deadline=None)
    def test_sampled_grids_byte_identical(self, tmp_path_factory, t_max, step, fmt):
        path = tmp_path_factory.mktemp("partition") / f"part.{fmt}"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["partition", "--t-max", repr(t_max), "--step", repr(step),
                         "--out", str(path), "--format", fmt]) == 0
        got = path.read_bytes()
        assert got == _REFERENCE_WRITERS[fmt](_reference_partition_times(t_max, step))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_write_per_block(self, capsys, tmp_path, monkeypatch, fmt):
        # No write holds more than one block's text, so the whole file is
        # never joined in memory.
        sizes = []
        real_open = open

        class RecordingFile(io.TextIOWrapper):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        def recording_open(path, mode, **kwargs):
            fh = real_open(path, mode.replace("w", "wb"))
            return RecordingFile(fh, encoding=kwargs["encoding"], newline=kwargs["newline"])

        monkeypatch.setattr(algflow.cli, "open", recording_open, raising=False)
        step = 0.01
        t_max = 3.5 * SWEEP_BLOCK * step
        path = tmp_path / f"part.{fmt}"
        got = _partition_bytes(capsys, path, t_max, step, fmt)
        n_blocks = math.ceil(len(_reference_partition_times(t_max, step)) / SWEEP_BLOCK)
        assert n_blocks > 3
        assert n_blocks <= len(sizes) <= n_blocks + 2
        assert max(sizes) <= SWEEP_BLOCK * 200
        assert sum(sizes) == len(got)


class TestVerifyTheorems:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--only", "kce")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS  kce")
        assert "1/1 checks passed" in out

    def test_no_state_carried_across_calls(self, capsys):
        # main reuses one parser; the appended --only and --tol of one call
        # must not reach the next.
        code, out, _ = run(capsys, "verify-theorems", "--only", "kce", "--tol", "kce=1e-3")
        assert code == 0 and out.splitlines()[0].startswith("PASS  kce")
        code, out, _ = run(capsys, "verify-theorems", "--only", "mirror")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("PASS  mirror") and lines[1] == "1/1 checks passed"

    def test_injected_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--only", "kce",
                           "--tol", "kce=1e-20")
        assert code == 1
        assert out.splitlines()[0].startswith("FAIL  kce")

    def test_full_suite(self, capsys):
        code, out, _ = run(capsys, "verify-theorems")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 10  # nine checks plus the summary
        assert all(line.startswith("PASS") for line in lines[:-1])
        assert "9/9 checks passed" in lines[-1]

    # The nine detail lines with the elapsed times masked.  The residuals are the bits
    # of operator-only kernels, each product and sum rounded once: no BLAS kernel can
    # fuse them into a multiply-add, as matmul could.
    DETAIL_LINES = [
        "PASS  kce            max residual 2.78e-15 over 1000 triples (tol 1e-12, #s)",
        "PASS  locus          0 mismatches over 10004 points in [0, 12.57] (tol 1e-09)",
        "PASS  mirror         max residual 0.00e+00 over c grid 0.1..0.9 (tol 1e-12)",
        "PASS  iso-grid       0 mismatches over 2500 pairs on a 50x50 grid (#s)",
        "PASS  canonical      plus-branch max err 3.55e-15 (tol 1e-12), minus-branch max "
        "residual 1.11e-15 (tol 1e-10), fixed targets exact, label grid certified",
        "PASS  census         census over 21 classes matches, residual at c=0.5 is 1.183 "
        "(> 0.1)",
        "PASS  separation     decide: SeparatedByInvariant by 'associative'",
        "PASS  basis-oracle   max difference 3.55e-15 over 500 trials (tol 1e-10)",
        "PASS  product-assoc  max |(AB)C - A(BC)| = 8.88e-16 over 1000 triples (tol 1e-12)",
        "9/9 checks passed",
    ]

    @staticmethod
    def masked(out: str) -> list[str]:
        return [re.sub(r"\d+\.\d\ds\)", "#s)", line) for line in out.splitlines()]

    def test_detail_lines_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-theorems")
        assert code == 0
        assert self.masked(out) == self.DETAIL_LINES

    def test_detail_lines_do_not_depend_on_the_blas_kernel(self):
        # OPENBLAS_CORETYPE forces OpenBLAS's kernel for the CPU, here in a child process
        # only.  While iso_residuals ran on matmul, Prescott moved the canonical line.
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(algflow.__file__).resolve().parents[1]))
        for coretype in ("Prescott", "Haswell"):
            done = subprocess.run([sys.executable, "-m", "algflow.cli", "verify-theorems"],
                                  capture_output=True, text=True, timeout=300,
                                  env=dict(env, OPENBLAS_CORETYPE=coretype))
            assert done.returncode == 0, done.stderr
            assert self.masked(done.stdout) == self.DETAIL_LINES, coretype

    @pytest.mark.parametrize("variant, failed", [
        (A1, "fixed targets INEXACT"), (ACOS_MINUS, "minus-branch reduction FAILED")])
    def test_raising_reduction_is_a_fail_line(self, capsys, monkeypatch, variant, failed):
        # The minus branch and the exact targets reduce outside the label grid.  A1
        # reduces through to_bekbaev, the minus branch through the kernel on arrays: its
        # P is doubled there, so that to_bekbaev raises on ACosMinus too.
        def to_bekbaev_failing(label):
            if label.variant == variant:
                raise AssertionError("canonical reduction residual too large")
            return to_bekbaev(label)

        kernel = classification._acos_reduction

        def doubled_on_the_minus_branch(c, s, sqrt):
            param, ((a, b), (c_, d)), target = kernel(c, s, sqrt)
            k = 1.0 + (s < 0)
            return param, ((a * k, b * k), (c_ * k, d * k)), target

        if variant == ACOS_MINUS:
            monkeypatch.setattr(classification, "_acos_reduction", doubled_on_the_minus_branch)
            with pytest.raises(AssertionError, match="canonical reduction residual"):
                to_bekbaev(FlowClassLabel(ACOS_MINUS, 0.5))
        else:
            monkeypatch.setattr(checks, "to_bekbaev", to_bekbaev_failing)
        code, out, err = run(capsys, "verify-theorems", "--only", "canonical")
        assert code == 1 and err == ""
        line, summary = out.splitlines()
        assert line.startswith("FAIL  canonical") and failed in line, line
        assert line.endswith("label grid FAILED") and summary == "0/1 checks passed"

    # The reproducers of two checks that held a distance in t against a residual
    # or a difference of c.
    @pytest.mark.parametrize("override", ["locus=1e-3", "iso-grid=0.1"])
    def test_overrides_in_t_pass(self, capsys, override):
        name = override.partition("=")[0]
        code, out, _ = run(capsys, "verify-theorems", "--only", name, "--tol", override)
        assert code == 0
        assert out.splitlines()[0].startswith(f"PASS  {name:<14} 0 mismatches")

    def test_unresolvable_iso_grid_tolerance_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify-theorems", "--only", "iso-grid",
                             "--tol", "iso-grid=1e300")
        assert code == 2
        assert out == ""
        assert err == ("error: iso-grid tol 1e+300 is not below sin(2 pi / 50) = 0.1253, "
                       "the least gap between its grid points\n")

    def test_bad_tolerance_argument(self, capsys):
        code, _, err = run(capsys, "verify-theorems", "--tol", "kce")
        assert code == 2

    def test_unknown_tolerance_target(self, capsys):
        code, _, err = run(capsys, "verify-theorems", "--tol", "nope=1e-3")
        assert code == 2

    # An override that would go unused is refused before any check runs.
    @pytest.mark.parametrize("argv, message", [
        (("--only", "kce", "--tol", "separation=1"), "check 'separation' takes no tolerance"),
        (("--only", "locus", "--tol", "kce=1e-30"),
         "a tolerance is given for check 'kce', which is not run"),
        (("--tol", "separation=1"), "check 'separation' takes no tolerance"),
    ])
    def test_unused_tolerance_refused(self, capsys, monkeypatch, argv, message):
        ran = self._record_runs(monkeypatch)
        code, out, err = run(capsys, "verify-theorems", *argv)
        assert code == 2
        assert out == "" and ran == []
        assert err == f"error: {message}\n"

    @staticmethod
    def _record_runs(monkeypatch) -> list[str]:
        """The names of the checks run from now on, in order."""
        ran = []
        for name, (fn, tol_arg) in checks._REGISTRY.items():
            monkeypatch.setitem(checks._REGISTRY, name,
                                (lambda *a, name=name, fn=fn, **kw: ran.append(name) or fn(*a, **kw),
                                 tol_arg))
        return ran

    def test_repeated_only_runs_each_check_once(self, capsys, monkeypatch):
        ran = self._record_runs(monkeypatch)
        code, out, _ = run(capsys, "verify-theorems", "--only", "mirror", "--only", "kce",
                           "--only", "mirror", "--only", "kce", "--tol", "kce=1e-3")
        assert code == 0 and ran == ["mirror", "kce"]
        lines = out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == ["mirror", "kce"]
        assert "(tol 1e-03, " in lines[1] and lines[-1] == "2/2 checks passed"

    @pytest.mark.parametrize("argv", [
        ("--tol", "kce=1e-20", "--tol", "kce=1"),
        ("--only", "kce", "--tol", "kce=1", "--tol", "kce=1"),
        ("--tol", "mirror=1", "--tol", "kce=1", "--tol", "mirror=1e-3"),
    ])
    def test_repeated_tolerance_refused(self, capsys, monkeypatch, argv):
        ran = self._record_runs(monkeypatch)
        code, out, err = run(capsys, "verify-theorems", *argv)
        assert code == 2
        assert out == "" and ran == []
        assert err.startswith("error: --tol is given twice for check ")

    def test_each_check_alone_prints_its_suite_line(self, capsys):
        """No check reads random state another one left: alone, each prints what it
        prints in the full suite."""
        def masked(out):
            return [re.sub(r"\d+\.\d\ds\)", "#s)", line) for line in out.splitlines()]

        code, out, _ = run(capsys, "verify-theorems")
        suite = masked(out)[:-1]
        assert code == 0 and len(suite) == len(checks.CHECK_NAMES)
        for name, line in zip(reversed(checks.CHECK_NAMES), reversed(suite)):
            code, out, _ = run(capsys, "verify-theorems", "--only", name)
            assert code == 0 and masked(out) == [line, "1/1 checks passed"]


class TestMalformedInputFuzz:
    """Seeded malformed times and algebra files: each exits 2 with one error line."""

    GOOD_ALGEBRAS = (
        {"dim": 2, "c2x4": [[1.0, 0.5, 0.0, -1.0], [0.25, 0.0, 1.0, 0.0]]},
        {"dim": 2, "c": [[[1.0, 0.0], [0.5, 0.0]], [[0.0, -1.0], [1.0, 0.25]]]},
    )
    JUNK = ("x", "1", None, True, False, [], {}, [1.0], {"a": 1}, math.nan, math.inf, 10**400)
    BAD_DIMS = (3, 1, 0, -2, "2", None, [2], 2.5)
    NON_NUMERIC = ("abc", "", "1..2", "0x1p", "--", "1e", "pi", "1,5")

    @staticmethod
    def malformed_times(rng, count):
        """Non-finite, negative, beyond MAX_TIME and non-numeric times, as option text."""
        kinds = (
            lambda: str(rng.choice(["nan", "inf", "-inf"])),
            lambda: repr(-float(rng.uniform(1e-9, 1e3))),
            lambda: repr(MAX_TIME * float(rng.uniform(1.0001, 1e6))),
            lambda: str(rng.choice(TestMalformedInputFuzz.NON_NUMERIC)),
        )
        return [kinds[n % len(kinds)]() for n in range(count)]

    def malformed_algebra(self, rng, n):
        """JSON text of a good algebra broken in one of five ways, chosen by n."""
        doc = copy.deepcopy(self.GOOD_ALGEBRAS[n % 2])
        key = "c2x4" if "c2x4" in doc else "c"
        kind = n // 2 % 5
        if kind == 0:  # truncated anywhere before the closing brace
            text = json.dumps(doc)
            return text[:int(rng.integers(len(text)))]
        if kind == 1:  # one entry replaced by a value that is not a number
            leaf = doc[key]
            while isinstance(leaf[0], list):
                leaf = leaf[int(rng.integers(len(leaf)))]
            leaf[int(rng.integers(len(leaf)))] = self.JUNK[int(rng.integers(len(self.JUNK)))]
        elif kind == 2:  # a row or an entry dropped
            part = doc[key]
            for _ in range(int(rng.integers(np.ndim(part)))):
                part = part[int(rng.integers(len(part)))]
            del part[int(rng.integers(len(part)))]
        elif kind == 3:  # a "dim" that is not 2
            doc["dim"] = self.BAD_DIMS[int(rng.integers(len(self.BAD_DIMS)))]
        else:  # not an object, or no entries
            return [json.dumps(doc[key]), "5", "null", '"c2x4"', json.dumps({"dim": 2})][n % 5]
        return json.dumps(doc)

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1, err
        assert "Traceback" not in err

    def test_malformed_times(self, capsys, tmp_path):
        rng = np.random.default_rng(20260811)
        out = str(tmp_path / "part.csv")
        for bad in self.malformed_times(rng, 40):
            self.assert_refused(capsys, "classify", f"--t={bad}")
            for position in ("--s", "--tau", "--t"):
                times = {"--s": "0", "--tau": "0.4", "--t": "1.0", position: bad}
                self.assert_refused(capsys, "kce", *(f"{k}={v}" for k, v in times.items()))
            self.assert_refused(capsys, "iso", f"--t1={bad}", "--t2=0.5")
            self.assert_refused(capsys, "iso", "--t1=0.5", f"--t2={bad}")
            self.assert_refused(capsys, "partition", f"--t-max={bad}", "--step=0.5",
                                f"--out={out}")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("argv", [
        ("verify-theorems", "--only=--"), ("verify-theorems", "--tol=--"),
        ("iso", "--a=--", "--b=x.json"), ("partition", "--t-max=1", "--step=0.5", "--out=--"),
    ])
    def test_double_dash_as_option_value(self, capsys, argv):
        self.assert_refused(capsys, *argv)

    def test_malformed_algebra_files(self, capsys, tmp_path):
        rng = np.random.default_rng(20260811)
        good = tmp_path / "good.json"
        good.write_text(json.dumps(self.GOOD_ALGEBRAS[0]))
        bad = tmp_path / "bad.json"
        for n in range(60):
            bad.write_text(self.malformed_algebra(rng, n), encoding="utf-8")
            self.assert_refused(capsys, "iso", f"--a={bad}", f"--b={good}")
            self.assert_refused(capsys, "iso", f"--a={good}", f"--b={bad}")
