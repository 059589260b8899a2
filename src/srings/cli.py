"""Command line front end.

Commands:
  enumerate  build a catalog of Schur rings over a group
  classify   classify p-power Schur rings over the rank-3 group C_p^3
  ci         decide the CI property for every entry of a catalog
  criterion  test the section-factorization criterion over a full catalog

Exit codes: 0 success, 2 usage error, 3 undecided within bounds,
4 mismatch with the expected classification, a class whose raw count
differs from its Aut(G) orbit, or a soundness violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from .config import DEFAULT_BOUNDS, extended_bounds
from .errors import CatalogFormatError, ClassificationMismatch, \
    EnumerationMismatch, ResourceBoundExceeded
from .groups import format_group, group_spec, parse_group
from .catalog import (enumerate_srings, load_catalog, rank3_classification,
                      save_catalog)
from .ci import CIDecider, is_ci, is_ci_bruteforce, verify_criterion
from .sring import SRing

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNDECIDED = 3
EXIT_MISMATCH = 4


def _write_report(path, header, records):
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    lines += [json.dumps(r, sort_keys=True, separators=(",", ":"))
              for r in records]
    text = "\n".join(lines) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_out(path):
    """Fail before any work when the output path lies in a directory that
    does not exist."""
    folder = os.path.dirname(path or "")
    if folder and not os.path.isdir(folder):
        raise FileNotFoundError(f"no such directory: {folder!r}")


def _bounds(args):
    bounds = extended_bounds() if args.extended else DEFAULT_BOUNDS
    if args.max_order is not None:
        bounds = dataclasses.replace(bounds, max_group_order=args.max_order,
                                     enum_all_order=args.max_order)
    return bounds


def cmd_enumerate(args) -> int:
    _check_out(args.out)
    bounds = _bounds(args)
    spec = parse_group(args.group, max_order=bounds.max_group_order)
    checkpoint = f"{args.out}.ckpt" if args.checkpoint else None
    catalog = enumerate_srings(spec, args.filter, bounds,
                               label=not args.no_labels,
                               checkpoint=checkpoint)
    save_catalog(catalog, args.out)
    print(f"{len(catalog.entries)} classes "
          f"({catalog.raw_total} rings) -> {args.out}")
    return EXIT_OK


def cmd_classify(args) -> int:
    _check_out(args.out)
    report = rank3_classification(args.p, _bounds(args))
    records = list(report["rows"])
    header = {"command": "classify", "p": args.p, "seed": args.seed,
              "classes": report["classes"], "raw_total": report["raw_total"]}
    _write_report(args.out, header, records)
    for row in report["rows"]:
        print(f"  {row['row']}. {row['template']:40s} rank {row['rank']:3d}  "
              f"decomposable {str(row['decomposable']):5s}  "
              f"thin radical {row['thin_radical_order']}")
    return EXIT_OK


_decider = None  # the running ci command's CIDecider in this process


def decide_ci(ring, bounds):
    """Decide one entry with the decider that the running ci command shares
    among the entries this process decides; cmd_ci drops it when it starts
    and when it ends."""
    global _decider
    if _decider is None or _decider.bounds != bounds:
        _decider = CIDecider(bounds=bounds)
    return _decider.decide(ring)


def _decide_entry(payload):
    """Worker body: decide one catalog entry from the group's factors and
    the cells that load_catalog validated, or mark it undecided once the
    deadline (a time.monotonic() reading, which worker processes share
    with the parent) has passed."""
    factors, cells, method, bounds, deadline = payload
    if deadline is not None and time.monotonic() >= deadline:
        return {"verdict": "Undecided", "method": None,
                "resource": {"what": "time limit"}}
    ring = SRing(group_spec(factors, max_order=None), cells)
    if method == "bruteforce":
        status = is_ci_bruteforce(ring, bounds)
    elif method == "regular":
        status = is_ci(ring, bounds)
    else:
        status = decide_ci(ring, bounds)
    record = {"verdict": status.verdict, "method": status.method}
    if status.resource:
        record["resource"] = status.resource
    if isinstance(status.witness, dict) and "classes" in status.witness:
        # regular-subgroup certificate: one generator list per class
        record["certificate"] = [[list(g) for g in gens]
                                 for gens in status.witness["classes"]]
    return record


def cmd_ci(args) -> int:
    global _decider
    _decider = None
    try:
        return _run_ci(args)
    finally:
        _decider = None


def _run_ci(args) -> int:
    _check_out(args.out)
    bounds = _bounds(args)
    catalog = load_catalog(args.catalog)
    deadline = None if args.time_limit is None \
        else time.monotonic() + args.time_limit
    payloads = [(catalog.spec.factors, e.cells, args.method, bounds, deadline)
                for e in catalog.entries]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = list(pool.map(_decide_entry, payloads))
    else:
        records = list(map(_decide_entry, payloads))
    undecided = sum(1 for r in records if r["verdict"] == "Undecided")
    for entry, rec in zip(catalog.entries, records):
        entry.ci = rec
    if args.update_catalog:
        save_catalog(catalog, args.catalog)
    header = {"command": "ci", "catalog": args.catalog, "method": args.method,
              "seed": args.seed, "group": format_group(catalog.spec),
              "undecided": undecided}
    out_records = [dict(rec, entry=i) for i, rec in enumerate(records)]
    _write_report(args.out, header, out_records)
    counts = {}
    for rec in records:
        counts[rec["verdict"]] = counts.get(rec["verdict"], 0) + 1
    print(f"verdicts: {counts}")
    return EXIT_UNDECIDED if undecided else EXIT_OK


def cmd_criterion(args) -> int:
    _check_out(args.out)
    bounds = _bounds(args)
    spec = parse_group(args.group, max_order=bounds.max_group_order)
    catalog = enumerate_srings(spec, "all", bounds, label=False)
    report = verify_criterion(catalog.rings(), bounds)
    header = {"command": "criterion", "group": args.group, "seed": args.seed,
              "entries": len(catalog.entries),
              "soundness_violations": len(report["soundness_violations"]),
              "criterion_every_section": report["criterion_every_section"],
              "criterion_some_section": report["criterion_some_section"],
              "undecided": report["undecided_entries"]}
    _write_report(args.out, header, report["records"])
    print(f"decomposable entries checked: {len(report['records'])}")
    print(f"soundness violations: {len(report['soundness_violations'])}")
    print(f"criterion (every witnessing section): "
          f"{report['criterion_every_section']}")
    print(f"criterion (some witnessing section): "
          f"{report['criterion_some_section']}")
    if report["soundness_violations"]:
        return EXIT_MISMATCH
    if report["undecided_entries"]:
        return EXIT_UNDECIDED
    return EXIT_OK


def _at_least(kind, low):
    """An argparse type: a kind (int or float) of value >= low."""
    def number(text):
        value = kind(text)
        if not value >= low:  # also rejects nan
            raise argparse.ArgumentTypeError(f"{text!r} is not >= {low}")
        return value
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srings",
        description="Schur rings over products of elementary abelian groups")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed recorded in reports (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_enum = sub.add_parser("enumerate", help="catalog all Schur rings")
    p_enum.add_argument("--group", required=True, help='e.g. "3^3", "2^2x3"')
    p_enum.add_argument("--filter", choices=("all", "p-srings"),
                        default="all")
    p_enum.add_argument("--out", required=True)
    p_enum.add_argument("--no-labels", action="store_true",
                        help="skip construction labels (faster)")
    p_enum.add_argument("--extended", action="store_true",
                        help="hours-scale bounds")
    p_enum.add_argument("--max-order", type=_at_least(int, 1), default=None)
    p_enum.add_argument("--checkpoint", action="store_true",
                        help="write/resume <out>.ckpt during long runs")
    p_enum.set_defaults(func=cmd_enumerate)

    p_cls = sub.add_parser("classify",
                           help="rank-3 p-power classification")
    p_cls.add_argument("--p", type=int, required=True, help="odd prime")
    p_cls.add_argument("--out", default=None)
    p_cls.add_argument("--extended", action="store_true")
    p_cls.set_defaults(func=cmd_classify, max_order=None)

    p_ci = sub.add_parser("ci", help="CI decision over a catalog")
    p_ci.add_argument("--catalog", required=True)
    p_ci.add_argument("--method", choices=("auto", "regular", "bruteforce"),
                      default="auto",
                      help="auto: the section condition, then regular "
                           "subgroups (default)")
    p_ci.add_argument("--out", default=None)
    p_ci.add_argument("--workers", type=_at_least(int, 1), default=1)
    p_ci.add_argument("--time-limit", type=_at_least(float, 0), default=None,
                      help="soft wall clock limit in seconds; 0 decides "
                           "no entry")
    p_ci.add_argument("--update-catalog", action="store_true",
                      help="write verdicts back into the catalog file")
    p_ci.add_argument("--extended", action="store_true")
    p_ci.set_defaults(func=cmd_ci, max_order=None)

    p_cr = sub.add_parser("criterion",
                          help="factorization condition vs CI over a group")
    p_cr.add_argument("--group", required=True)
    p_cr.add_argument("--out", default=None)
    p_cr.add_argument("--extended", action="store_true")
    p_cr.add_argument("--max-order", type=_at_least(int, 1), default=None)
    p_cr.set_defaults(func=cmd_criterion)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on usage errors already
        return int(exc.code or 0)
    # the one place where what a command raises becomes an exit code
    try:
        return args.func(args)
    except ResourceBoundExceeded as exc:
        message, code = f"undecided: {exc}", EXIT_UNDECIDED
    except (EnumerationMismatch, ClassificationMismatch) as exc:
        message, code = f"mismatch: {exc}", EXIT_MISMATCH
    except (OSError, ValueError, CatalogFormatError) as exc:
        message, code = f"error: {exc}", EXIT_USAGE
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
