"""The five benchmark workloads: seeded inputs, one operation, its check.

Each workload builds, from the seed alone, a pool of rounds.  A round is a
short list of operations with a fixed make-up (for example 12 isomorphic,
3 separated and 5 hopeless pairs), shuffled by the seed.  A run executes
whole rounds only, so every run holds the populations in the same
proportions and the median latency always lands inside the same population.

Operations call public algflow functions through module attributes
(``algflow.cli.main``, ``algflow.classify_time``...), so the tracer can
replace those attributes with timed wrappers.  Checks use ``oracles`` only.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import tempfile
import zlib

import numpy as np

import algflow
import algflow.cli
import oracles
from oracles import expect
from tracing import CHECKS

STEP = 0.01
TIME_MAX = 1000.0
# Residues closer than this to 0, pi/2 or 3*pi/4 are avoided where a workload
# wants a generic time, so thresholded invariants cannot flip.
GENERIC_MARGIN = 0.01
# to_bekbaev raises AssertionError for times within about 1.6e-5 of
# pi/2 + k pi (and 1.6e-8 of k pi), a fault listed in CHANGES.md; the random
# times of time_queries keep this far from the exceptional residues.
FAULT_MARGIN = 1e-4


def _rng(name: str, seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode()), stream])


def _is_generic(t: float, margin: float = GENERIC_MARGIN) -> bool:
    """True when t mod pi is farther than margin from 0, pi/2 and 3*pi/4.

    Inputs stay below 1000, where the float reduction is good to 1e-12.
    """
    r = math.fmod(t, math.pi)
    return min(abs(r - e) for e in (0.0, math.pi / 2, 3 * math.pi / 4, math.pi)) > margin


def _generic_time(rng: np.random.Generator, low: float = 0.0, high: float = TIME_MAX,
                  margin: float = GENERIC_MARGIN) -> float:
    while True:
        t = float(rng.uniform(low, high))
        if _is_generic(t, margin):
            return t


def _well_conditioned(rng: np.random.Generator) -> np.ndarray:
    while True:
        p = rng.uniform(-2.0, 2.0, size=(2, 2))
        if 0.5 <= abs(p[0, 0] * p[1, 1] - p[0, 1] * p[1, 0]) <= 2.0:
            return p


def _rounds(rng: np.random.Generator, n_rounds: int, make) -> list[list]:
    """n_rounds rounds, round r the list make(rng, r) shuffled."""
    out = []
    for r in range(n_rounds):
        ops = make(rng, r)
        order = rng.permutation(len(ops))
        out.append([ops[i] for i in order])
    return out


def _call_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = algflow.cli.main(argv)
    return code, buffer.getvalue()


class Workload:
    """A seeded pool of rounds, an operation and the check of its output."""

    name = ""
    # Rough seconds per round on the reference host; sizes the traced pass.
    round_s = 1.0

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.rounds = self.build(_rng(self.name, seed))
        self.found = 0           # isomorphic pairs whose certificate was found
        self.searched_iso = 0    # isomorphic pairs handed to iso_search

    def build(self, rng: np.random.Generator) -> list[list]:
        raise NotImplementedError

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


class PartitionGrid(Workload):
    name = "partition_grid"
    round_s = 0.45

    def build(self, rng):
        self.dir = tempfile.mkdtemp(prefix="partition-", dir=self.scratch)
        self.out = os.path.join(self.dir, "partition.csv")
        return [[float(t)] for t in rng.uniform(20 * math.pi, 21 * math.pi, size=64)]

    def run(self, t_max):
        return _call_cli(["partition", "--t-max", repr(t_max), "--step", repr(STEP),
                          "--out", self.out, "--format", "csv"])

    def check(self, t_max, out):
        code, stdout = out
        expect(code == 0, f"partition exited {code}")
        with open(self.out, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        expect(rows[0] == ["t", "class", "param_c", "commutative", "associative"],
               f"header {rows[0]}")
        rows = rows[1:]
        n = oracles.expected_row_count(t_max, STEP)
        expect(len(rows) == n, f"{len(rows)} rows, expected {n}")
        expect(stdout.strip() == f"wrote {n} records to {self.out}", f"stdout {stdout!r}")
        times = []
        for t, variant, c, comm, assoc in rows:
            times.append(float(t))
            oracles.check_partition_row(float(t), variant, comm == "true", assoc == "true",
                                        float(c) if c else None)
        expect(times == sorted(times), "rows are not sorted by time")
        grid = np.asarray(times)
        for variant, exact in oracles.exceptional_times(t_max):
            i = int(np.searchsorted(grid, float(exact)))
            near = [j for j in (i - 1, i) if 0 <= j < len(rows)
                    and abs(times[j] - float(exact)) <= 1e-12]
            expect(len(near) == 1 and rows[near[0]][1] == variant,
                   f"exceptional point {exact:.15} ({variant}) missing")

    def close(self):
        with contextlib.suppress(OSError):
            os.remove(self.out)
        with contextlib.suppress(OSError):
            os.rmdir(self.dir)


class TimeQueries(Workload):
    name = "time_queries"
    round_s = 0.009

    def build(self, rng):
        return _rounds(rng, 200, self._round)

    @staticmethod
    def _exceptional(rng, base: float, high: float = TIME_MAX) -> float:
        return base + int(rng.integers(0, int((high - base) / math.pi))) * math.pi

    def _iso_pair(self, rng, t1: float | None = None) -> tuple[float, float, bool]:
        k = int(rng.integers(1, 301))
        if t1 is None:
            t1 = _generic_time(rng, 0.0, TIME_MAX - k * math.pi, FAULT_MARGIN)
        else:
            k = min(k, int((TIME_MAX - t1) / math.pi))
        pair = (t1, t1 + k * math.pi)
        return (*(pair if rng.random() < 0.5 else pair[::-1]), True)

    def _other_pair(self, rng, t1: float) -> tuple[float, float, bool]:
        while True:
            t2 = _generic_time(rng, margin=FAULT_MARGIN)
            if abs(math.sin(t2 - t1)) >= 1e-6:
                return (t1, t2, False) if rng.random() < 0.5 else (t2, t1, False)

    def _round(self, rng, _):
        # 20 pairs, 40 times: 5 isomorphic pairs, 4 exceptional times (A1 twice
        # in one isomorphic pair, A0Plus and A2 once each in other pairs).
        a1 = self._exceptional(rng, 0.0, TIME_MAX / 2)
        ops = [self._iso_pair(rng, a1)]
        ops += [self._iso_pair(rng) for _ in range(4)]
        ops.append(self._other_pair(rng, self._exceptional(rng, math.pi / 2)))
        ops.append(self._other_pair(rng, self._exceptional(rng, 3 * math.pi / 4)))
        ops += [self._other_pair(rng, _generic_time(rng, margin=FAULT_MARGIN))
                for _ in range(13)]
        return ops

    def run(self, op):
        t1, t2, _ = op
        l1 = algflow.classify_time(t1)
        l2 = algflow.classify_time(t2)
        return l1, algflow.to_bekbaev(l1), l2, algflow.to_bekbaev(l2), \
            algflow.rotation_iso(t1, t2)

    def check(self, op, out):
        t1, t2, isomorphic = op
        l1, reduced1, l2, reduced2, verdict = out
        for t, label, (form, certificate) in ((t1, l1, reduced1), (t2, l2, reduced2)):
            variant, c = oracles.flow_class(t)
            expect(label.variant == variant, f"t={t!r}: class {label}, expected {variant}")
            if c is not None:
                expect(abs(label.c - c) <= 1e-12, f"t={t!r}: c={label.c!r}, expected {c!r}")
            family, params = oracles.canonical_form(variant, c)
            expect(form.family == family, f"t={t!r}: family {form.family}, expected {family}")
            expect(all(math.isclose(x, y, rel_tol=1e-8, abs_tol=1e-12)
                       for x, y in zip(form.params, params, strict=True)),
                   f"t={t!r}: params {form.params}, expected {params}")
            target = oracles.from_2x4(oracles.family_matrix(family, params))
            residual = oracles.certificate_residual(
                oracles.class_tensor(variant, c), target, certificate.matrix)
            expect(residual <= 1e-9 * max(1.0, float(np.max(np.abs(target)))),
                   f"t={t!r}: reduction certificate residual {residual:.3e}")
        if isomorphic:
            expect(verdict.kind == "Isomorphic", f"({t1!r}, {t2!r}): {verdict.kind}")
            residual = oracles.certificate_residual(
                oracles.flow_tensor(t1), oracles.flow_tensor(t2), verdict.certificate.matrix)
            expect(residual <= 1e-9, f"({t1!r}, {t2!r}): certificate residual {residual:.3e}")
        else:
            expect(verdict.kind == "NotIsomorphicExact", f"({t1!r}, {t2!r}): {verdict.kind}")


class AlgebraSearch(Workload):
    name = "algebra_search"
    round_s = 0.4

    # Algebras that differ from a generic flow algebra first in the named
    # invariant: A2 (commutative), A1 (associative) and a rank-1 algebra.
    SEPARATED = (
        ("commutative", oracles.class_tensor(oracles.A2, None)),
        ("associative", oracles.class_tensor(oracles.A1, None)),
        ("rank_2x4", oracles.from_2x4([[0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 1.0]])),
    )

    def build(self, rng):
        return _rounds(rng, 64, self._round)

    @staticmethod
    def _algebra(c: np.ndarray):
        return algflow.AlgebraFD(algflow.CubicTensor(c))

    def _round(self, rng, r: int):
        # 12 isomorphic, 3 separated, 5 hopeless pairs.  Inputs are balanced on
        # what drives the search cost, so that every seed sees the same spread
        # of costs: the sign of det P (a random tensor moved by det P > 0 is
        # about three times as costly to search) and, for hopeless pairs,
        # which of the two algebras is the ACosMinus one.
        ops = []
        for i in range(12):
            if i % 2:
                a = oracles.flow_tensor(_generic_time(rng))
            else:
                a = rng.uniform(-1.0, 1.0, size=(2, 2, 2))
            p = _well_conditioned(rng)
            if (np.linalg.det(p) > 0) != (i % 4 < 2):
                p = p[::-1]
            ops.append(("iso", a, oracles.move(a, p), None))
        for invariant, special in self.SEPARATED:
            a = oracles.move(special, _well_conditioned(rng))
            b = oracles.flow_tensor(_generic_time(rng))
            if rng.random() < 0.5:
                a, b = b, a
            ops.append(("separated", a, b, invariant))
        for k in range(5):
            t1, t2 = self._hopeless(rng, swap=(r + k) % 2 == 1)
            ops.append(("hopeless", oracles.flow_tensor(t1), oracles.flow_tensor(t2), None))
        return [(kind, a, b, self._algebra(a), self._algebra(b), invariant)
                for kind, a, b, invariant in ops]

    @staticmethod
    def _hopeless(rng, swap: bool) -> tuple[float, float]:
        """Times of an ACosMinus and an ACosPlus flow algebra, far from isomorphic.

        t1 mod pi lies in [1.9, 2.7] (ACosMinus, c in [0.32, 0.90]) and t2 mod
        pi in [0.5, 1.3] (ACosPlus, c in [0.27, 0.88]), so |sin(t2 - t1)| >=
        0.56.  There a 64-restart search costs about 35 to 75 ms.  Pairs
        closer to isomorphic (sin(t2 - t1) -> 0) or to A1 (c -> 1) cost up to
        0.6 s, with a tail heavy enough to move a run's mean by a tenth from
        seed to seed.
        """
        t1 = float(rng.uniform(1.9, 2.7)) + int(rng.integers(0, 150)) * math.pi
        t2 = float(rng.uniform(0.5, 1.3)) + int(rng.integers(0, 150)) * math.pi
        return (t2, t1) if swap else (t1, t2)

    def run(self, op):
        _, _, _, a, b, _ = op
        separating = algflow.invariant_signature(a).first_difference(
            algflow.invariant_signature(b))
        if separating is not None:
            return separating, None
        return None, algflow.iso_search(a, b, algflow.SearchConfig())

    def check(self, op, out):
        kind, ca, cb, _, _, invariant = op
        separating, verdict = out
        expect(separating == oracles.first_difference(ca, cb),
               f"{kind} pair: separating invariant {separating!r}")
        if kind == "separated":
            expect(separating == invariant, f"separated by {separating!r}, not {invariant!r}")
            return
        if kind == "hopeless":
            expect(verdict.kind == "NotFoundWithinBudget",
                   f"hopeless pair: verdict {verdict.kind}")
            return
        self.searched_iso += 1
        if verdict.kind == "Isomorphic":
            self.found += 1
            residual = oracles.certificate_residual(ca, cb, verdict.certificate.matrix)
            expect(residual <= 1e-8 * max(1.0, float(np.max(np.abs(cb)))),
                   f"search certificate residual {residual:.3e}")
        else:
            # Not finding a certificate is allowed; found_ratio reports it.
            expect(verdict.kind == "NotFoundWithinBudget", f"isomorphic pair: {verdict.kind}")


class CubicProducts(Workload):
    name = "cubic_products"
    round_s = 1.05

    # Per round: 7 ops at m = 2, 7 at 8, 3 at 32, 3 at 64.
    MIX = ((2, 7), (8, 7), (32, 3), (64, 3))
    PAIRS_PER_SIZE = {2: 8, 8: 8, 32: 4, 64: 3}

    def build(self, rng):
        pools = {}
        for m, n in self.PAIRS_PER_SIZE.items():
            tensors = [algflow.CubicTensor(rng.uniform(-1.0, 1.0, size=(m, m, m)))
                       for _ in range(2 * n)]
            tables = {kind: algflow.BinaryOpTable(oracles.associative_table(kind, m))
                      for kind in oracles.TABLE_KINDS}
            pools[m] = (list(zip(tensors[::2], tensors[1::2])), tables)
        self.probe_rng = _rng(self.name, self.seed, 1)

        def make(rng, _):
            ops = []
            for m, count in self.MIX:
                pairs, tables = pools[m]
                for _ in range(count):
                    a, b = pairs[int(rng.integers(len(pairs)))]
                    kind = oracles.TABLE_KINDS[int(rng.integers(len(oracles.TABLE_KINDS)))]
                    ops.append((a, b, tables[kind]))
            return ops

        return _rounds(rng, 16, make)

    def run(self, op):
        a, b, table = op
        table.check_associative()
        return algflow.mul_general(a, b, table), algflow.mul_type_c(a, b)

    def check(self, op, out):
        a, b, table = op
        general, type_c = out
        m = a.dim
        expected = oracles.type_c(a.values, b.values)
        err = float(np.max(np.abs(type_c.values - expected)))
        expect(err <= 1e-12 * m, f"m={m}: type-C product differs by {err:.3e}")
        oracles.check_general_product(a.values, b.values, table.values, general.values,
                                      self.probe_rng)


class VerifyTheorems(Workload):
    name = "verify_theorems"
    round_s = 0.5

    def build(self, rng):
        return [[None]]

    def run(self, _):
        return _call_cli(["verify-theorems"])

    def check(self, _, out):
        code, stdout = out
        lines = stdout.strip().splitlines()
        expect(code == 0, f"verify-theorems exited {code}")
        expect(len(lines) == len(CHECKS) + 1, f"{len(lines)} lines of output")
        for name, line in zip(CHECKS, lines):
            expect(re.match(rf"PASS  {re.escape(name)}\s", line) is not None,
                   f"check line {line!r}")
        n = len(CHECKS)
        expect(lines[-1] == f"{n}/{n} checks passed", f"summary {lines[-1]!r}")


WORKLOADS = {w.name: w for w in (PartitionGrid, TimeQueries, AlgebraSearch,
                                 CubicProducts, VerifyTheorems)}
