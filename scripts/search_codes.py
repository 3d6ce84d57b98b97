#!/usr/bin/env python3
"""Search single-distance encoding tables and compare them to the baselines.

Example sweep over both objectives for d = 3 with a few seeds:

    python scripts/search_codes.py --d 3 --budget 300 --seeds 0 1 2
"""

import argparse
import json
import sys

from qracsim.codes import builtin_table, search_tables, validate
from qracsim.qracse import QracTask, run_protocol


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, required=True)
    parser.add_argument("--budget", type=int, default=300)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--objective", choices=("p_min", "p_avg"), default="p_min")
    parser.add_argument("--json", action="store_true", help="emit machine-readable results")
    args = parser.parse_args()

    try:
        if min(args.seeds) < 0:
            raise ValueError(f"seeds must be non-negative integers, got {min(args.seeds)}")
        results = [search_tables(args.d, objective=args.objective, budget=args.budget, seed=s) for s in args.seeds]
    except ValueError as exc:  # bad --d, --budget or --seeds
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for seed, res in zip(args.seeds, results):
        if not validate(res.table).valid:
            print(f"error: seed {seed} returned an invalid table {res.table.to_json()}", file=sys.stderr)
            return 1

    best = max(results, key=lambda r: r.score)
    report = run_protocol(QracTask(d=args.d, table=best.table, variant="two_strings"))

    if args.json:
        print(
            json.dumps(
                {
                    "d": args.d,
                    "objective": args.objective,
                    "score": best.score,
                    "table": json.loads(best.table.to_json()),
                    "p_avg": report.p_avg,
                    "p_min": report.p_min,
                },
                sort_keys=True,
            )
        )
        return 0

    for seed, res in zip(args.seeds, results):
        print(f"seed {seed:4d}: {args.objective} = {res.score:.6f} after {res.evaluations} evaluations")
    print(f"\nbest table ({args.objective} = {best.score:.6f}):")
    for e, pair in enumerate(best.table.pairs):
        print(f"  e = {e:2d} -> {pair}")
    print(f"full run: p_avg = {report.p_avg:.6f}, p_min = {report.p_min:.6f}")
    try:
        reference = builtin_table(args.d)
    except LookupError:
        return 0
    ref_report = run_protocol(QracTask(d=args.d, table=reference, variant="two_strings"))
    print(f"baseline:  p_avg = {ref_report.p_avg:.6f}, p_min = {ref_report.p_min:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
