#!/usr/bin/env python3
"""Sweep finite-target kernel readings toward a boundary end.

For each start x in a small ball, evaluates H(x, y_d) at vertices y_d
marching down a fixed end prefix and compares with the boundary value
K(x, xi).  The gap shrinks monotonically once y_d passes the confluent
with x, but plateaus well above zero: the vertex reading carries a
geometric factor the end value does not.  Emits one CSV row per
(start, depth).

Example:
    python3 scripts/boundary_convergence.py --radius 2 --max-depth 12
"""

import argparse
import csv
import sys

from treewalks import (
    EndPrefix,
    ValidationError,
    ball,
    format_word,
    parse_word,
    preset,
    ratio_kernel_nn,
)
from treewalks.series import shared_system


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="f2-lazy-uniform")
    ap.add_argument("--pattern", default="2,-1")
    ap.add_argument("--radius", type=int, default=2, help="ball of starts")
    ap.add_argument("--max-depth", type=int, default=12)
    args = ap.parse_args()

    spec = preset(args.preset)
    try:
        pattern = parse_word(spec.alphabet, args.pattern).letters
        xi = EndPrefix.from_pattern(spec.alphabet, pattern, args.max_depth)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    system = shared_system(spec)

    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["x", "depth", "finite_reading", "boundary_value", "gap"])
    worst_final = 0.0
    for x in ball(spec.alphabet, args.radius):
        limit = ratio_kernel_nn(system, x, xi).value
        for depth in range(1, args.max_depth + 1):
            y = EndPrefix.from_pattern(spec.alphabet, pattern, depth).word
            reading = ratio_kernel_nn(system, x, y).value
            gap = abs(reading - limit)
            writer.writerow(
                [format_word(x), depth, repr(reading), repr(limit), repr(gap)]
            )
        worst_final = max(worst_final, gap)
    print(
        f"# worst gap at depth {args.max_depth}: {worst_final:.6f} "
        "(the plateau, not a convergence failure)",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
