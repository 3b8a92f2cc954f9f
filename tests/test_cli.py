"""Command-line surface: reports, exit codes, file formats."""

import copy
import json
import math
import os
import re
import time

import numpy as np
import pytest

from algflow.algebra import algebra_to_json_dict
from algflow.classification import A1, A0_PLUS, FlowClassLabel, class_representative
from algflow.cli import main
from algflow.flow import MAX_TIME


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
        code, out, err = run(capsys, "iso", "--a", algebra_files["a1"],
                             "--b", algebra_files["a1"], "--seed", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: seed must be nonnegative, got -1\n"


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

    def test_point_cap_counts_grid_and_exceptional_points(self):
        from algflow.cli import MAX_PARTITION_POINTS, _partition_times

        step = 1.0
        t_max = MAX_PARTITION_POINTS / (1 + 3 / math.pi) * 1.001
        with pytest.raises(ValueError, match="over the cap"):
            _partition_times(t_max, step)

    def test_unwritable_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "partition", "--t-max", "1", "--step", "0.5",
                           "--out", str(tmp_path / "missing" / "part.csv"))
        assert code == 2

    def test_bad_step(self, capsys, tmp_path):
        code, _, err = run(capsys, "partition", "--t-max", "1", "--step", "0",
                           "--out", str(tmp_path / "part.csv"))
        assert code == 2


class TestVerifyTheorems:
    def test_single_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify-theorems", "--only", "kce")
        assert code == 0
        assert out.splitlines()[0].startswith("PASS  kce")
        assert "1/1 checks passed" in out

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

    # The nine detail lines with the elapsed times masked.  Three worst residuals
    # differ from the array-free formulas in their last bits: canonical
    # 8.88e-16 / 4.44e-16 and basis-oracle 1.07e-14 before the stacked kernel.
    DETAIL_LINES = [
        "PASS  kce            max residual 2.78e-15 over 1000 triples (tol 1e-12, #s)",
        "PASS  locus          0 mismatches over 10004 points in [0, 12.57] (tol 1e-09)",
        "PASS  mirror         max residual 0.00e+00 over c grid 0.1..0.9 (tol 1e-12)",
        "PASS  iso-grid       0 mismatches over 2500 pairs on a 50x50 grid (#s)",
        "PASS  canonical      plus-branch max err 2.11e-15 (tol 1e-12), minus-branch max "
        "residual 8.88e-16 (tol 1e-10), fixed targets exact, label grid certified",
        "PASS  census         census over 21 classes matches, residual at c=0.5 is 1.183 "
        "(> 0.1)",
        "PASS  separation     signatures differ at 'associative', search verdict "
        "NotFoundWithinBudget",
        "PASS  basis-oracle   max difference 1.24e-14 over 500 trials (tol 1e-10)",
        "PASS  product-assoc  max |(AB)C - A(BC)| = 8.88e-16 over 1000 triples (tol 1e-12)",
        "9/9 checks passed",
    ]

    def test_detail_lines_pinned(self, capsys):
        code, out, _ = run(capsys, "verify-theorems")
        assert code == 0
        masked = [re.sub(r"\d+\.\d\ds\)", "#s)", line) for line in out.splitlines()]
        assert masked == self.DETAIL_LINES

    def test_bad_tolerance_argument(self, capsys):
        code, _, err = run(capsys, "verify-theorems", "--tol", "kce")
        assert code == 2

    def test_unknown_tolerance_target(self, capsys):
        code, _, err = run(capsys, "verify-theorems", "--tol", "nope=1e-3")
        assert code == 2


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
