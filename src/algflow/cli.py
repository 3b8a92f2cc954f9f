"""Command-line interface.

Subcommands:

* ``classify``         class, canonical form and certificate of A^[t]
* ``kce``              composition-law residual at one time triple
* ``iso``              isomorphism verdict for two times or two algebra files
* ``partition``        CSV/JSON export of the time-axis classification
* ``verify-theorems``  run the full verification suite

Exit codes: 0 success (for checks: passed), 1 check failed / not isomorphic,
2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .algebra import (
    DEFAULT_TOL,
    AlgebraFD,
    algebra_from_json_dict,
    algebra_to_json_dict,
    check_tol,
)
from .checks import CHECK_NAMES, run_checks
from .classification import (
    CLASS_PREDICATES,
    CLASSIFY_TOL,
    EXCEPTIONAL_RESIDUES,
    VARIANTS,
    bekbaev_matrix,
    classify_time,
    classify_times,
    class_representative,
    label_to_json_dict,
    residue_times,
    to_bekbaev,
)
from .flow import check_time, time_blocks, verify_kce
from .isomorphism import (
    IsoVerdict,
    SearchConfig,
    invariant_signature,
    iso_search,
    rotation_iso,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


# Most points a partition may hold; counted from --t-max and --step before
# anything is allocated.
MAX_PARTITION_POINTS = 10**7


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2))


def cmd_classify(args: argparse.Namespace) -> int:
    label = classify_time(args.t, args.tol)
    form, certificate = to_bekbaev(label)
    commutative, associative = CLASS_PREDICATES[label.variant]
    _emit({
        "t": args.t,
        "label": label_to_json_dict(label),
        "commutative": commutative,
        "associative": associative,
        "representative": algebra_to_json_dict(class_representative(label)),
        "canonical_form": form.to_json_dict(),
        "canonical_matrix": bekbaev_matrix(form).tolist(),
        "basis_change": certificate.matrix.tolist(),
    })
    return EXIT_OK


def cmd_kce(args: argparse.Namespace) -> int:
    check_tol(args.tol)
    residual = verify_kce(args.s, args.tau, args.t)
    gap = abs(math.fsum((args.t - args.tau, args.tau - args.s, -(args.t - args.s))))
    if gap > args.tol / 2:  # rotation entries are 1-Lipschitz: residual <= gap + rounding
        raise ValueError(f"t - tau and tau - s add up to t - s only within {gap:.2g} as floats, "
                         f"over half of tol {args.tol:g}")
    ok = residual < args.tol
    _emit({
        "s": args.s,
        "tau": args.tau,
        "t": args.t,
        "residual": residual,
        "tol": args.tol,
        "ok": ok,
    })
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _load_algebra(path: str) -> AlgebraFD:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read algebra file {path}: {exc}") from exc
    return algebra_from_json_dict(data)


def cmd_iso(args: argparse.Namespace) -> int:
    time_mode = args.t1 is not None or args.t2 is not None
    file_mode = args.a is not None or args.b is not None
    if time_mode == file_mode or (time_mode and (args.t1 is None or args.t2 is None)) \
            or (file_mode and (args.a is None or args.b is None)):
        raise ValueError("pass either --t1 and --t2, or --a and --b")
    if time_mode:
        verdict = rotation_iso(args.t1, args.t2, args.tol)
        report = {"t1": args.t1, "t2": args.t2, **verdict.to_json_dict()}
    else:
        cfg = SearchConfig(restarts=args.restarts, tol=args.tol, seed=args.seed)
        a, b = _load_algebra(args.a), _load_algebra(args.b)
        separating = invariant_signature(a).first_difference(invariant_signature(b))
        verdict = iso_search(a, b, cfg) if separating is None else IsoVerdict.separated(separating)
        report = {"a": args.a, "b": args.b, **verdict.to_json_dict()}
    _emit(report)
    return EXIT_OK if verdict.is_isomorphic else EXIT_CHECK_FAILED


def _partition_times(t_max: float, step: float) -> np.ndarray:
    """Grid points k*step < t_max, t_max itself and the exceptional times, sorted."""
    if not (math.isfinite(t_max) and math.isfinite(step)):
        raise ValueError(f"t_max and step must be finite, got {t_max} and {step}")
    if t_max <= 0 or step <= 0:
        raise ValueError("t_max and step must be positive")
    n_grid = t_max / step
    n_points = n_grid + len(EXCEPTIONAL_RESIDUES) * t_max / math.pi
    if n_points > MAX_PARTITION_POINTS:
        raise ValueError(
            f"--t-max {t_max} at --step {step} gives about {n_points:.3g} points, "
            f"over the cap of {MAX_PARTITION_POINTS}"
        )
    check_time(t_max, CLASSIFY_TOL)  # the tolerance classify_times bands with
    grid = np.arange(1, math.ceil(n_grid) + 2) * step
    exceptional = [residue_times(residue, t_max) for residue, _ in EXCEPTIONAL_RESIDUES]
    return np.unique(np.concatenate(([0.0], grid[grid < t_max], [t_max], *exceptional)))


def _partition_columns(times: np.ndarray, missing: str):
    """Text columns (t, class, param_c, commutative, associative) for each block of
    ``times``, each made by one C-level loop; param_c is ``missing`` for a class without
    one.  The class bands are CLASSIFY_TOL wide in t mod pi on each side; the predicates
    are the class's (``CLASS_PREDICATES``, tested on tensors by ``locus`` and ``census``)."""
    commutative, associative = ([("false", "true")[CLASS_PREDICATES[variant][i]]
                                 for variant in VARIANTS] for i in (0, 1))
    for block in time_blocks(times):
        codes, c = classify_times(block)
        codes = codes.tolist()
        c_text = list(map(repr, c.tolist()))
        for i in np.flatnonzero(np.isnan(c)).tolist():
            c_text[i] = missing
        yield (map(repr, block.tolist()), map(VARIANTS.__getitem__, codes), c_text,
               map(commutative.__getitem__, codes), map(associative.__getitem__, codes))


def _write_csv(fh, times: np.ndarray) -> None:
    """The partition as CSV, one write per block.  No field needs quoting: floats,
    class names and true/false hold no comma, quote or line break."""
    fh.write("t,class,param_c,commutative,associative\n")
    for columns in _partition_columns(times, ""):
        fh.write("\n".join(map(",".join, zip(*columns))) + "\n")


# One record of json.dumps(records, indent=2), as it reads inside the list.
_JSON_RECORD = ('{{\n    "t": {},\n    "class": "{}",\n    "param_c": {},\n'
                '    "commutative": {},\n    "associative": {}\n  }}')


def _write_json(fh, times: np.ndarray) -> None:
    """The bytes of ``json.dumps(records, indent=2)``, written one block at a time:
    each block's records are formatted from ``_JSON_RECORD`` column by column."""
    separator = "[\n  "
    for columns in _partition_columns(times, "null"):
        fh.write(separator + ",\n  ".join(map(_JSON_RECORD.format, *columns)))
        separator = ",\n  "
    fh.write("\n]\n")


def cmd_partition(args: argparse.Namespace) -> int:
    times = _partition_times(args.t_max, args.step)
    write = _write_csv if args.format == "csv" else _write_json
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh, times)
    except OSError as exc:
        raise ValueError(f"cannot write {args.out}: {exc}") from exc
    print(f"wrote {len(times)} records to {args.out}")
    return EXIT_OK


def _parse_tol_override(item: str) -> tuple[str, float]:
    name, _, value = item.partition("=")
    if not value:
        raise ValueError(f"expected NAME=VALUE, got {item!r}")
    check_tol(float(value))
    return name, float(value)


def cmd_verify_theorems(args: argparse.Namespace) -> int:
    overrides: dict[str, float] = {}
    for name, value in map(_parse_tol_override, args.tol or []):
        if name in overrides:
            raise ValueError(f"--tol is given twice for check {name!r}")
        overrides[name] = value
    results = run_checks(only=args.only or None, tol_overrides=overrides)
    for result in results:
        print(result.line())
    failed = sum(not r.passed for r in results)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algflow",
        description="Rotational flow of two-dimensional algebras: "
                    "classification, composition-law checks, isomorphism "
                    "testing and canonical forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the flow algebra at a time")
    p.add_argument("--t", type=float, required=True, help="time, t >= 0")
    p.add_argument("--tol", type=float, default=CLASSIFY_TOL,
                   help="band tolerance around the exceptional times")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("kce", help="composition-law residual at one triple")
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(fn=cmd_kce)

    p = sub.add_parser("iso", help="isomorphism verdict for two times or files")
    p.add_argument("--t1", type=float)
    p.add_argument("--t2", type=float)
    p.add_argument("--a", help="JSON algebra file")
    p.add_argument("--b", help="JSON algebra file")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--restarts", type=int, default=SearchConfig().restarts)
    p.add_argument("--seed", type=int, default=SearchConfig().seed, help="search seed")
    p.set_defaults(fn=cmd_iso)

    p = sub.add_parser("partition", help="export the time-axis classification")
    p.add_argument("--t-max", dest="t_max", type=float, required=True)
    p.add_argument("--step", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_partition)

    p = sub.add_parser("verify-theorems", help="run the verification suite")
    p.add_argument("--only", action="append", choices=CHECK_NAMES,
                   help="run only the named check (repeatable; each runs once)")
    p.add_argument("--tol", action="append", metavar="NAME=VALUE",
                   help="override a check's headline tolerance (once per check)")
    p.set_defaults(fn=cmd_verify_theorems)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    argv = sys.argv[1:] if argv is None else argv
    # Python 3.11's argparse stores "--opt=--" as an empty list, which no command expects.
    if any(arg.startswith("-") and arg.endswith("=--") for arg in argv):
        parser.error("'--' is not an option value")
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
