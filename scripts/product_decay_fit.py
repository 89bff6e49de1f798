#!/usr/bin/env python3
"""Fit the decay of a switching-product return sequence window by window.

Computes return probabilities of the chosen product preset, slides a
fitting window outward, and prints fitted (rho_hat, alpha_hat) next to
the closed-form interpolation s*rho1 + (1-s)*rho2 and the power sum
alpha1 + alpha2.  Shows how slowly alpha_hat settles: early windows sit
visibly below the limit power while rho_hat is already accurate.

Example:
    python3 scripts/product_decay_fit.py --n-max 6000
"""

import argparse
import sys

from treewalks import fit_local_limit, preset, product_report, product_return_sequence


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--preset", default="t3xZ")
    ap.add_argument("--n-max", type=int, default=6000)
    args = ap.parse_args()

    pw = preset(args.preset)
    combined = product_report(pw)["combined"]
    rho, alpha = combined["rho"], combined["alpha"]
    print(f"closed form: rho = {rho!r}  alpha = {alpha!r}")

    seq = product_return_sequence(pw, args.n_max)
    print(f"{'window':>14} {'rho_hat':>20} {'rho gap':>10} {'alpha_hat':>10}")
    lo = 250
    while 4 * lo <= args.n_max:
        hi = min(args.n_max, 4 * lo)
        fit = fit_local_limit(seq, (lo, hi))
        print(
            f"{lo:>6}:{hi:<7} {fit.rho:>20.12f} {abs(fit.rho - rho):>10.1e} "
            f"{fit.alpha:>10.4f}"
        )
        lo *= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
