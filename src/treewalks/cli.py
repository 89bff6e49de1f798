"""Command-line front end: kernel tables, convergence sweeps, fit reports.

Every subcommand renders to CSV or JSON with schema version 1, writes
to stdout or --out, and is deterministic for a fixed argument vector.
Exit codes: 0 success, 2 invalid input, 3 convergence failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .errors import ConvergenceError, ValidationError
from .geometry import EndPrefix, identity, parse_word, tree_alphabet
from .kernels import (
    KernelTable,
    KernelValue,
    _csv_text,
    _json_text,
    ancona_harnack_check,
    martin_kernel_nn,
    ratio_kernel_isotropic,
)
from .matrix_boundary import martin_kernel_matrix
from .presets import preset
from .products import (
    ProductWalk,
    factor_kernel,
    factor_returns,
    product_report,
    product_return_sequence,
)
from .reduced_boundary import detect_R_mu
from .series import green_second_order, shared_system
from .walks import (
    WalkSpec,
    fit_local_limit,
    isotropic_walk,
    load_walk_spec,
    ratio_sequence,
)

__all__ = ["main"]


def _end(text: str, alphabet, depth: int) -> EndPrefix:
    """End prefix repeating the word spelled by a --pattern argument."""
    return EndPrefix.from_pattern(alphabet, parse_word(alphabet, text).letters, depth)


def _parse_window(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise ValidationError("window must look like lo:hi")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValidationError("window bounds must be integers")
    if min(lo, hi) < 0:
        raise ValidationError("window bounds must be nonnegative")
    return lo, hi


def _load_walk(args) -> WalkSpec | ProductWalk:
    path = getattr(args, "spec_file", None)
    if not path:
        return preset(args.preset)
    try:
        with open(path, encoding="utf-8") as fh:
            return load_walk_spec(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read --spec-file {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise ValidationError(f"cannot read --spec-file {path}: not UTF-8 text")


def _preset_label(args) -> str | None:
    """The preset a report names: none when the walk came from --spec-file."""
    return None if args.spec_file else args.preset


def _require_factor(walk) -> WalkSpec:
    if isinstance(walk, ProductWalk):
        raise ValidationError("this subcommand needs a single-factor walk")
    return walk


def _require_word_walk(walk) -> WalkSpec:
    if _require_factor(walk).mode != "finitely-supported":
        raise ValidationError("this subcommand needs a word walk preset")
    return walk


def _emit(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValidationError(f"cannot write --out {args.out}: {exc.strerror}")
    else:
        sys.stdout.write(text)


def _kv_report(args, payload: dict) -> str:
    if args.format == "json":
        return _json_text({"schema": 1, **payload})
    return _csv_text(("key", "value"), sorted(payload.items()))


def _flat(obj, prefix: str = "") -> dict:
    """Nested dicts and lists as one level of dotted keys, for CSV."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix.rstrip("."): obj}
    out: dict = {}
    for k, v in items:
        out.update(_flat(v, f"{prefix}{k}."))
    return out


def _emit_table(args, kind: str, rows: list, meta: dict) -> None:
    table = KernelTable(kind=kind, rows=rows, meta=meta)
    _emit(args, table.to_json() if args.format == "json" else table.to_csv())


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_tree_kernel(args) -> None:
    if args.q < 2:
        raise ValidationError("need q >= 2")
    ab = tree_alphabet(args.q)
    spec = isotropic_walk(args.q, {0: Fraction(1, 2), 1: Fraction(1, 2)})
    x = parse_word(ab, args.x)
    xi = EndPrefix.from_pattern(ab, [1, 2], args.depth)
    row = ratio_kernel_isotropic(spec, x, xi)
    _emit_table(args, "tree-kernel", [row], {"q": args.q, "depth": args.depth})


def _cmd_free_kernel(args) -> None:
    spec = _require_word_walk(_load_walk(args))
    x = parse_word(spec.alphabet, args.x)
    if args.y is not None:
        target = parse_word(spec.alphabet, args.y)
    else:
        target = _end(args.pattern, spec.alphabet, args.depth)
    if args.t is not None:
        row = martin_kernel_nn(shared_system(spec), x, target, args.t)
    else:
        row = factor_kernel(spec, x, target)
    meta = {"preset": _preset_label(args), "depth": args.depth}
    _emit_table(args, "free-kernel", [row], meta)


def _cmd_ratio_converge(args) -> None:
    spec = _require_factor(_load_walk(args))
    if not args.tol >= 0:
        raise ValidationError(f"need tolerance tol >= 0, got tol = {args.tol!r}")
    x = parse_word(spec.alphabet, args.x)
    y = parse_word(spec.alphabet, args.y)
    seq = ratio_sequence(spec, x, y, args.n_max)
    picks = []
    n = 1
    while n < args.n_max:
        picks.append(n)
        n *= 2
    picks.append(args.n_max)
    by_n = dict(zip(seq.ns, seq.values))
    rows = []
    for n in picks:
        if n not in by_n:
            continue
        value = by_n[n]
        gap = abs(value - seq.last)
        rows.append(
            KernelValue(
                x=args.x or "e",
                y_or_prefix=args.y or "e",
                depth=n,
                value=value,
                error=gap,
                stabilized=gap <= args.tol,
            )
        )
    meta = {
        "preset": _preset_label(args),
        "n_max": args.n_max,
        "tail_spread": seq.tail_spread,
    }
    _emit_table(args, "ratio-converge", rows, meta)


def _cmd_llt_fit(args) -> None:
    walk = _load_walk(args)
    lo, hi = _parse_window(args.window)
    if isinstance(walk, ProductWalk):
        values = product_return_sequence(walk, hi)
    else:
        values = factor_returns(walk, hi)
    fit = fit_local_limit(values, (lo, hi))
    payload = {
        "preset": _preset_label(args),
        "window_lo": lo,
        "window_hi": hi,
        "rho_hat": fit.rho,
        "alpha_hat": fit.alpha,
        "log_c": fit.log_c,
        "residual_rms": fit.residual_rms,
        "rho_shift": fit.rho_shift,
        "alpha_shift": fit.alpha_shift,
    }
    _emit(args, _kv_report(args, payload))


def _cmd_martin_matrix(args) -> None:
    spec = _require_word_walk(_load_walk(args))
    x = parse_word(spec.alphabet, args.x)
    xi = _end(args.pattern, spec.alphabet, args.depth)
    row = martin_kernel_matrix(spec, x, xi)
    meta = {"preset": _preset_label(args), "depth": args.depth}
    _emit_table(args, "martin-matrix", [row], meta)


def _cmd_product(args) -> None:
    walk = _load_walk(args)
    if not isinstance(walk, ProductWalk):
        raise ValidationError("this subcommand needs a product preset")
    payload = product_report(walk)
    if args.n_max:
        seq = product_return_sequence(walk, args.n_max)
        lo = max(8, args.n_max // 3)
        fit = fit_local_limit(seq, (lo, args.n_max))
        payload["measured"] = {
            "rho_hat": fit.rho,
            "alpha_hat": fit.alpha,
            "window": [lo, args.n_max],
        }
    # the report already carries its schema key, so JSON comes out as is
    _emit(args, _kv_report(args, payload if args.format == "json" else _flat(payload)))


def _cmd_reduced(args) -> None:
    walk = _load_walk(args)
    report = detect_R_mu(
        walk,
        candidate_radius=args.candidate_radius,
        probe_radius=args.probe_radius,
        tol=args.tol,
    )
    if args.format == "json":
        _emit(args, report.to_json())
        return
    members = set(report.member_indices)
    rows = [
        (label, report.deviations[i], i in members)
        for i, label in enumerate(report.labels)
    ]
    table = _csv_text(("label", "deviation", "member"), rows)
    _emit(args, table + f"# {report.certificate}\n")


def _cmd_ancona_check(args) -> None:
    spec = _require_word_walk(_load_walk(args))
    system = shared_system(spec)
    report = ancona_harnack_check(
        system, n_pairs=args.pairs, seed=args.seed
    )
    payload = {
        "preset": _preset_label(args),
        "samples": report.samples,
        "triple_min": report.triple_min,
        "triple_max": report.triple_max,
        "triple_green_gap": report.triple_green_gap,
        "harnack_max": report.harnack_max,
        "quadruple_max": report.quadruple_max,
    }
    for d, spread in report.per_distance_spread:
        payload[f"spread_at_{d}"] = spread
    _emit(args, _kv_report(args, payload))


def _cmd_phi_claim(args) -> None:
    spec = _require_word_walk(_load_walk(args))
    if not math.isfinite(args.z_offset):
        raise ValidationError(f"need a finite z-offset, got {args.z_offset!r}")
    if args.depth < 2:
        raise ValidationError("need depth >= 2: the first row is at depth 2")
    system = shared_system(spec)
    r = float(system.radius().r)
    z = r * (1.0 - args.z_offset)
    x = parse_word(spec.alphabet, args.x)
    e = identity(spec.alphabet)
    rows = []
    for depth in range(2, args.depth + 1, 2):
        y = _end(args.pattern, spec.alphabet, depth).word
        top = green_second_order(system, x, y, z, tol=args.tol)
        bot = green_second_order(system, e, y, z, tol=args.tol)
        ratio = top.phi / bot.phi
        rows.append(
            KernelValue(
                x=args.x or "e",
                y_or_prefix=f"{args.pattern}...",
                depth=depth,
                value=ratio,
                error=top.error + bot.error,
                stabilized=top.stabilized and bot.stabilized,
            )
        )
    meta = {"preset": _preset_label(args), "z": z, "z_offset": args.z_offset}
    _emit_table(args, "phi-claim", rows, meta)


# ---------------------------------------------------------------------------
# Parser assembly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treewalks",
        description="ratio-limit boundary experiments on trees and free groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, preset_default=None, with_tol=None):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None)
        if preset_default is not None:
            p.add_argument("--preset", default=preset_default)
            p.add_argument("--spec-file", default=None)
        if with_tol is not None:
            p.add_argument("--tol", type=float, default=with_tol)

    p = sub.add_parser("tree-kernel", help="boundary kernel on a regular tree")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--depth", type=int, default=30)
    p.add_argument("--x", default="1")
    common(p)
    p.set_defaults(func=_cmd_tree_kernel)

    p = sub.add_parser("free-kernel", help="boundary kernel of a word walk")
    p.add_argument("--x", default="1")
    p.add_argument("--y", default=None)
    p.add_argument("--pattern", default="1,2")
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--t", type=float, default=None)
    common(p, preset_default="f2-lazy-uniform")
    p.set_defaults(func=_cmd_free_kernel)

    p = sub.add_parser("ratio-converge", help="n-step ratio sweep")
    p.add_argument("--x", default="1")
    p.add_argument("--y", default="e")
    p.add_argument("--n-max", type=int, default=10000)
    common(p, preset_default="z-lazy", with_tol=1e-2)
    p.set_defaults(func=_cmd_ratio_converge)

    p = sub.add_parser("llt-fit", help="local limit fit of return probabilities")
    p.add_argument("--window", default="500:2000")
    common(p, preset_default="f2-lazy-uniform")
    p.set_defaults(func=_cmd_llt_fit)

    p = sub.add_parser("martin-matrix", help="Martin kernel via ball matrices")
    p.add_argument("--x", default="1")
    p.add_argument("--pattern", default="2,-1")
    p.add_argument("--depth", type=int, default=44)
    common(p, preset_default="f2-lazy-uniform")
    p.set_defaults(func=_cmd_martin_matrix)

    p = sub.add_parser("product", help="product-walk asymptotics report")
    p.add_argument("--n-max", type=int, default=0)
    common(p, preset_default="t3xZ")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("reduced", help="kernel-equivalence scan of a ball")
    p.add_argument("--candidate-radius", type=int, default=4)
    p.add_argument("--probe-radius", type=int, default=4)
    common(p, preset_default="f2-lazy-uniform", with_tol=1e-6)
    p.set_defaults(func=_cmd_reduced)

    p = sub.add_parser("ancona-check", help="Green comparison constants")
    p.add_argument("--pairs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    common(p, preset_default="f2-lazy-uniform")
    p.set_defaults(func=_cmd_ancona_check)

    p = sub.add_parser("phi-claim", help="second-order Green ratio along a ray")
    p.add_argument("--x", default="1,1")
    p.add_argument("--pattern", default="2,-1")
    p.add_argument("--depth", type=int, default=10)
    p.add_argument("--z-offset", type=float, default=1e-6)
    common(p, preset_default="f2-lazy-uniform")
    p.add_argument(
        "--tol", type=float, default=1e-10,
        help="relative accuracy asked of each second-order sum; a row is "
        "stabilized when both sums' error bounds are at most this",
    )
    p.set_defaults(func=_cmd_phi_claim)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
