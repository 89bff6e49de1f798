"""The three workloads: seeded inputs, fixed op lists per pass, checks.

Every op drives the package through a public entry point only:
``treewalks.cli.main(argv)`` with stdout captured, or the public library
functions the scripts under ``scripts/`` call.  Package functions are
looked up at call time (``tw.X``, ``tw_cli.main``) so the tracer's
in-place wrappers see every call.

* ``nn-cold``: one free-group CLI query per op on a freshly generated
  nearest-neighbour walk, with ``shared_system.cache_clear()`` before the
  op, so each query pays for the singularity bracket once.
* ``nn-warm``: script-style library calls on two walks whose shared system
  was warmed (radius, fold, gamma table) during set-up.
* ``sweeps``: n-step sweeps and products, with no first-passage system.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import treewalks as tw
import treewalks.cli as tw_cli
import treewalks.series as tw_series

from checks import (
    F2_LAZY_RHO,
    T3_RHO,
    References,
    check_t_harmonic,
    check_walk_radius,
    close,
    derivative_phi,
    direct_ratio,
    lattice_ratio,
    lattice_rho,
    passage_bracket,
    require,
    signed_length,
    spherical_ratio,
    uniform_end_kernel,
)
from inputs import (
    HOLDS,
    Walk,
    end_pattern,
    lattice_walk,
    letters_arg,
    nn_walk,
    reduced_letters,
    rng_for,
    spread,
    write_spec,
)


@dataclass
class Op:
    kind: str
    tags: tuple[str, ...]  # input properties, for the recorded mix
    run: Callable[[], object]  # timed
    check: Callable[[object], None]  # untimed; raises CheckFailed
    prepare: Callable[[], None] | None = None  # untimed, before the timer


class Context:
    """What a workload needs from the harness: scratch dir, counter sink."""

    def __init__(self, workdir: Path, count: Callable[[str, float], None], smoke: bool):
        self.workdir = workdir
        self.count = count
        self.smoke = smoke
        self.refs = References()


def run_cli(ctx: Context, argv: list[str]) -> str:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = tw_cli.main(argv)
    except SystemExit as exc:  # argparse rejected the argument vector
        raise RuntimeError(f"treewalks {' '.join(argv)}: usage error") from exc
    text = buf.getvalue()
    ctx.count("cli.main.bytes_out", len(text))
    if code != 0:
        raise RuntimeError(f"treewalks {' '.join(argv)} exited with {code}")
    return text


def cli_op(ctx, kind, tags, argv, check, prepare=None) -> Op:
    return Op(
        kind,
        tags,
        lambda: run_cli(ctx, argv + ["--format", "json"]),
        lambda text: check(json.loads(text)),
        prepare,
    )


# ---------------------------------------------------------------------------
# nn-cold


class NNCold:
    """Free-group CLI queries, each on a new walk with cold caches.

    A pass is four queries: F2 uniform, F2 skewed, then F2 and F3 with the
    uniform/skewed roles swapping between even and odd passes, so every
    pass has three F2 and one F3 walk and half of all walks are uniform.
    Each pass also uses every holding probability in HOLDS once.

    The walks of pass k (rank, hold, skewed letter weights) are the same
    for every seed; the seed draws the queries: which kind each walk
    serves, x, the end pattern, y, t and the sampling seed.  A query's
    cost is set by its walk's bisection path, about 22 failed solves out
    of 46 depending on the binary digits of the radius, and a 20-second
    run holds only eight queries, so seeded walks would make the run-to-run
    spread that of eight random bisection paths rather than of the code.
    """

    name = "nn-cold"
    UNIFORM_KINDS = ("free-kernel", "free-kernel-y", "free-kernel-t",
                     "ancona-check", "phi-claim", "martin-matrix")
    SKEWED_KINDS = UNIFORM_KINDS[:-1]  # sparse matrix route: see expectations.json
    POOL = 4  # passes generated during set-up; later ones are made between passes

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        self.passes: list[list[Op]] = []
        start = rng_for(self.name, seed, "kinds")
        self._u = start.randrange(len(self.UNIFORM_KINDS))
        self._s = start.randrange(len(self.SKEWED_KINDS))

    def setup(self) -> None:
        for _ in range(1 if self.ctx.smoke else self.POOL):
            self._make_pass()

    def pass_ops(self, k: int) -> list[Op]:
        while len(self.passes) <= k:
            self._make_pass()
        return self.passes[k]

    def _make_pass(self) -> None:
        k = len(self.passes)
        rng = rng_for(self.name, self.seed, k)
        walk_rng = rng_for(self.name, "walks", k)
        if self.ctx.smoke:
            slots = [(2, True)] * len(self.UNIFORM_KINDS) + [(2, False)] * len(self.SKEWED_KINDS)
        else:
            slots = [(2, True), (2, False), (2, k % 2 == 0), (3, k % 2 == 1)]
        ops = []
        smoke_walks = {}
        for j, (rank, uniform) in enumerate(slots):
            if self.ctx.smoke:
                if uniform not in smoke_walks:
                    smoke_walks[uniform] = write_spec(
                        nn_walk(rng, rank, uniform), self.ctx.workdir, f"cold-smoke-{int(uniform)}"
                    )
                walk = smoke_walks[uniform]
            else:
                hold = HOLDS[(k + j) % len(HOLDS)]
                walk = write_spec(nn_walk(walk_rng, rank, uniform, hold), self.ctx.workdir,
                                  f"cold-{k}-{j}")
            if uniform:
                kind = self.UNIFORM_KINDS[self._u % len(self.UNIFORM_KINDS)]
                self._u += 1
            else:
                kind = self.SKEWED_KINDS[self._s % len(self.SKEWED_KINDS)]
                self._s += 1
            ops.append(self._op(rng, walk, kind))
        self.passes.append(ops)

    def _op(self, rng, walk: Walk, kind: str) -> Op:
        ab = walk.spec.alphabet
        x = reduced_letters(rng, ab, rng.randint(0, 2))
        pattern = end_pattern(rng, ab)
        base = ["--spec-file", walk.path, f"--x={letters_arg(x)}"]
        pat = [f"--pattern={letters_arg(pattern)}"]
        tags = (f"F{walk.rank}", "uniform" if walk.uniform else "skewed")
        # in smoke mode one walk serves several kinds, so keep its system
        prepare = None if self.ctx.smoke else tw_series.shared_system.cache_clear

        def system():
            return tw_series.shared_system(walk.spec, 96)

        x_w = tw.word(ab, x)
        if kind == "free-kernel":
            argv = ["free-kernel", *base, *pat, "--depth", "24"]

            def check(payload):
                check_walk_radius(system(), walk)
                value = payload["rows"][0]["value"]
                xi = tw.EndPrefix.from_pattern(ab, pattern, 24)
                if walk.uniform:
                    h = tw.horocycle(x_w, xi)
                    close("end kernel", value, uniform_end_kernel(walk.rank, h), 1e-9)
                    return
                sysm = system()
                rho = 1.0 / float(sysm.fold().r)

                def kernel(v):
                    return tw.martin_kernel_nn(sysm, v, xi, rho).value

                close("end kernel at x", value, kernel(x_w), 1e-12)
                check_t_harmonic(walk.spec, kernel, rho, "end kernel")

        elif kind == "free-kernel-y":
            y = reduced_letters(rng, ab, rng.randint(1, 3))
            argv = ["free-kernel", *base, f"--y={letters_arg(y)}"]

            def check(payload):
                check_walk_radius(system(), walk)
                value = payload["rows"][0]["value"]
                y_w = tw.word(ab, y)
                if walk.uniform:
                    want = spherical_ratio(
                        2 * walk.rank - 1, tw.distance(x_w, y_w), len(y_w)
                    )
                    close("finite kernel", value, want, 1e-6)
                else:
                    close("finite kernel", value, direct_ratio(system(), x_w, y_w), 1e-5)

        elif kind == "free-kernel-t":
            t = 1.0 + rng.uniform(0.01, 0.3)  # rho < 1, so t > rho
            argv = ["free-kernel", *base, *pat, "--depth", "24", "--t", repr(t)]

            def check(payload):
                check_walk_radius(system(), walk)
                value = payload["rows"][0]["value"]
                xi = tw.EndPrefix.from_pattern(ab, pattern, 24)
                if walk.uniform:
                    f = tw.radial_passage(walk.spec, 1, 1.0 / t)
                    close("Martin kernel", value, f ** tw.horocycle(x_w, xi), 1e-9)
                    return
                sysm = system()

                def kernel(v):
                    return tw.martin_kernel_nn(sysm, v, xi, t).value

                close("Martin kernel at x", value, kernel(x_w), 1e-12)
                check_t_harmonic(walk.spec, kernel, t, "Martin kernel")

        elif kind == "ancona-check":
            argv = ["ancona-check", "--spec-file", walk.path, "--pairs", "20",
                    "--seed", str(rng.randrange(1000))]

            def check(payload):
                check_walk_radius(system(), walk)
                require(payload["samples"] == 3 * 4 * 20, f"samples {payload['samples']}")
                gap = payload["triple_green_gap"]
                require(gap <= 1e-9, f"triple_green_gap {gap:.3e} > 1e-9")

        elif kind == "phi-claim":
            argv = ["phi-claim", *base, *pat, "--z-offset", "1e-4"]

            def check(payload):
                sysm = system()
                check_walk_radius(sysm, walk)
                z = payload["meta"]["z"]
                require(len(payload["rows"]) == 5, "phi-claim rows")
                e = tw.identity(ab)
                for row in payload["rows"]:
                    y = tw.EndPrefix.from_pattern(ab, pattern, row["depth"]).word
                    want = derivative_phi(sysm, x_w, y, z) / derivative_phi(sysm, e, y, z)
                    close(f"phi ratio at depth {row['depth']}", row["value"], want, 1e-7)

        elif kind == "martin-matrix":
            argv = ["martin-matrix", *base, *pat, "--depth", "44"]

            def check(payload):
                # martin_kernel_matrix keys the shared system without a precision
                check_walk_radius(tw_series.shared_system(walk.spec), walk)
                value = payload["rows"][0]["value"]
                xi = tw.EndPrefix.from_pattern(ab, pattern, 44)
                want = uniform_end_kernel(walk.rank, tw.horocycle(x_w, xi))
                close("matrix kernel", value, want, 1e-4)

        else:
            raise ValueError(kind)
        return cli_op(self.ctx, kind, tags, argv, check, prepare)


# ---------------------------------------------------------------------------
# nn-warm


class NNWarm:
    """Library calls on two warmed walks: f2-lazy-uniform and a skewed F2.

    Sizes follow the pass index, so a traced replay repeats the work of
    its untraced pass; evaluation points t and z follow a call counter,
    so the replay's solves are as fresh as the original's.  Martin kernels
    at new t are the most numerous op, so op_p50_s measures one fresh
    successful solve plus a kernel quotient.
    """

    name = "nn-warm"
    MARTIN_OPS = 8  # per walk and pass

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        rng = rng_for(self.name, seed, "walks")
        f2 = tw.preset("f2-lazy-uniform")
        self.walks = [
            Walk(f2, 2, True, Fraction(1, 5)),
            nn_walk(rng, 2, False),
        ]
        self.patterns = [end_pattern(rng, w.spec.alphabet) for w in self.walks]
        offsets = rng_for(self.name, seed, "offsets")
        self.offsets = {key: offsets.random() for key in
                        ("depth", "pairs", "radius", "z", "g2", "mkm", "t")}
        # x choices and op seeds; advances on every pass, replays included
        self.fresh = rng_for(self.name, seed, "fresh")
        self.calls = 0  # fresh evaluation points (t, z) differ on every call
        self.systems = []

    def setup(self) -> None:
        for walk in self.walks:
            system = tw_series.shared_system(walk.spec)
            system.radius()
            system.fold()
            system.gamma_table()
            self.systems.append(system)

    def pass_ops(self, k: int) -> list[Op]:
        ops = []
        for i, walk in enumerate(self.walks):
            ops.extend(self._walk_ops(k, i, walk))
        self.calls += 1
        return ops

    def _walk_ops(self, k, i, walk) -> list[Op]:
        ctx, rng, off = self.ctx, self.fresh, self.offsets
        spec, system, pattern = walk.spec, self.systems[i], self.patterns[i]
        ab = spec.alphabet
        r = float(system.radius().r)
        rho = 1.0 / float(system.fold().r)
        tags = (walk.label,)
        e = tw.identity(ab)
        smoke = ctx.smoke
        depth_max = 4 if smoke else 12
        ops = []

        # boundary_convergence.py: ball radius 2 x depths 1..12
        xi = tw.EndPrefix.from_pattern(ab, pattern, depth_max)
        starts = tw.ball(ab, 1 if smoke else 2)

        def sweep():
            out = []
            for x in starts:
                limit = tw.ratio_kernel_nn(system, x, xi).value
                for depth in range(1, depth_max + 1):
                    y = tw.EndPrefix.from_pattern(ab, pattern, depth).word
                    out.append((x, y, limit, tw.ratio_kernel_nn(system, x, y).value))
            return out

        pick = rng.randrange(1000)

        def check_sweep(rows):
            require(len(rows) == len(starts) * depth_max, "sweep rows")
            for x, y, limit, reading in rows[pick % 7 :: 7]:
                if walk.uniform:
                    close("end kernel", limit,
                          uniform_end_kernel(walk.rank, tw.horocycle(x, xi)), 1e-9)
                    close("finite reading", reading,
                          spherical_ratio(2 * walk.rank - 1, tw.distance(x, y), len(y)), 1e-6)
                else:
                    close("finite reading", reading, direct_ratio(system, x, y), 1e-5)
            if not walk.uniform:
                deep = tw.EndPrefix.from_pattern(ab, pattern, 24)
                check_t_harmonic(
                    spec, lambda v: tw.martin_kernel_nn(system, v, deep, rho).value,
                    rho, "end kernel",
                )

        ops.append(Op("ratio-sweep", tags, sweep, check_sweep))

        # green_second_order along a ray, one z-offset per decade 1e-4..1e-7
        x = tw.word(ab, reduced_letters(rng, ab, rng.randint(1, 2)))
        y = tw.EndPrefix.from_pattern(
            ab, pattern, 4 + int(7 * spread(off["depth"], k))
        ).word
        u = spread(off["g2"], self.calls)
        for decade in ((4,) if smoke else (4, 5, 6)):
            offset = 10.0 ** -(decade + u)
            z = r * (1.0 - offset)

            def g2(z=z):
                return tw.green_second_order(system, x, y, z, tol=1e-10)

            def check_g2(out, z=z):
                # the stopping rule leaves a geometric tail of about
                # tol * total / (1 - ratio); tol * shells bounds it
                require(out.stabilized, "second-order sum not stabilized")
                want = derivative_phi(system, x, y, z)
                close("phi", out.phi, want, 1e-10 * out.shells + 1e-9)

            ops.append(Op("green-second-order", tags, g2, check_g2))

        # ancona_harnack_check with 50..200 pairs
        pairs = 5 if smoke else 50 + int(150 * spread(off["pairs"], k))
        seed = rng.randrange(10**6)

        def check_ancona(rep):
            require(rep.samples == 3 * 4 * pairs, f"samples {rep.samples}")
            require(rep.triple_green_gap <= 1e-9,
                    f"triple_green_gap {rep.triple_green_gap:.3e} > 1e-9")

        ops.append(Op("ancona", tags,
                      lambda: tw.ancona_harnack_check(system, n_pairs=pairs, seed=seed),
                      check_ancona))

        # martin_kernel_nn at new t > rho: each a fresh successful solve
        deep = tw.EndPrefix.from_pattern(ab, pattern, 24)
        count = 1 if smoke else self.MARTIN_OPS
        u = spread(off["t"], self.calls)
        for j in range(count):
            t = rho * (1.0 + 10.0 ** (-3.0 + 2.7 * (j + u) / count))
            xm = tw.word(ab, reduced_letters(rng, ab, rng.randint(0, 2)))

            def martin(t=t, xm=xm):
                return tw.martin_kernel_nn(system, xm, deep, t)

            def check_martin(kv, t=t, xm=xm):
                if walk.uniform:
                    f = tw.radial_passage(spec, 1, 1.0 / t)
                    close("Martin kernel", kv.value, f ** tw.horocycle(xm, deep), 1e-9)
                    return

                def kernel(v):
                    return tw.martin_kernel_nn(system, v, deep, t).value

                check_t_harmonic(spec, kernel, t, "Martin kernel")

            ops.append(Op("martin-new-t", tags, martin, check_martin))

        # martin_kernel_matrix over ball 2 at depths 44..88 (uniform walk)
        if walk.uniform:
            depth = 44 + int(45 * spread(off["mkm"], k))
            xi_m = tw.EndPrefix.from_pattern(ab, pattern, depth)
            ball2 = tw.ball(ab, 1 if smoke else 2)

            def mkm():
                return [tw.martin_kernel_matrix(spec, v, xi_m).value for v in ball2]

            def check_mkm(values):
                for v, got in zip(ball2, values):
                    want = uniform_end_kernel(walk.rank, tw.horocycle(v, xi_m))
                    close(f"matrix kernel at {tw.format_word(v)}", got, want, 1e-4)

            ops.append(Op("martin-matrix", tags, mkm, check_mkm))

        # first_passage_to_ball by the sparse sweep at an explicit state radius
        state_radius = 6 if smoke else 6 + int(3 * spread(off["radius"], k))
        zp = 0.5 + 0.45 * spread(off["z"], k)
        src = tw.word(ab, reduced_letters(rng, ab, rng.randint(4, 5)))

        def dp():
            return tw.first_passage_to_ball(
                spec, src, e, zp, state_radius=state_radius, method="dp"
            )

        def check_dp(pv):
            if walk.uniform:
                route = tw.first_passage_to_ball(spec, src, e, zp, index=pv.index).values
            else:
                sol = system.solve(zp)
                route = [
                    float(sol.first_passage(src.inverse() * u))
                    if len(u) == pv.index.reach and src.prefix(len(u)) == u
                    else 0.0
                    for u in pv.index.words
                ]
            passage_bracket(pv, list(route), f"dp at state radius {state_radius}")

        ops.append(Op("first-passage-dp", tags, dp, check_dp))

        # detect_R_mu at 3/3 and 4/4 (script-style scan)
        for radius in ((2,) if smoke else (3, 4)):
            def detect(radius=radius):
                return tw.detect_R_mu(spec, candidate_radius=radius, probe_radius=radius)

            def check_detect(rep):
                require(rep.members() == ["e"], f"members {rep.members()}")
                require(rep.inverse_closed, "member set not inverse-closed")

            ops.append(Op(f"detect-{radius}", tags, detect, check_detect))
        return ops


# ---------------------------------------------------------------------------
# sweeps


class Sweeps:
    """n-step sweeps, local-limit fits and products; no first-passage radius."""

    name = "sweeps"

    def __init__(self, seed: int, ctx: Context):
        self.seed = seed
        self.ctx = ctx
        rng = rng_for(self.name, seed, "walks")
        self.lattice = [lattice_walk(rng, False), lattice_walk(rng, True)]
        self.f2 = [Walk(tw.preset("f2-lazy-uniform"), 2, True, Fraction(1, 5)),
                   nn_walk(rng, 2, False)]
        offsets = rng_for(self.name, seed, "offsets")
        self.offsets = {key: offsets.random() for key in ("product",)}
        self.t3xz = tw.preset("t3xZ")
        self.t3xt3 = tw.preset("t3xt3")

    def setup(self) -> None:
        self.lattice = [write_spec(w, self.ctx.workdir, f"lattice-{i}")
                        for i, w in enumerate(self.lattice)]

    def pass_ops(self, k: int) -> list[Op]:
        ctx = self.ctx
        smoke = ctx.smoke
        rng = rng_for(self.name, self.seed, k)
        ops: list[Op] = []

        # ratio-converge on seeded lattice walks
        n_max = 500 if smoke else 10_000
        for walk in self.lattice:
            ab = walk.spec.alphabet
            x = reduced_letters(rng, ab, rng.randint(0, 1))
            y = reduced_letters(rng, ab, rng.randint(0, 2))
            m = signed_length(tw.word(ab, x).inverse() * tw.word(ab, y))

            def check_rc(payload, walk=walk, m=m):
                last = payload["rows"][-1]
                require(last["depth"] == n_max, "last row is not n-max")
                tol = 5e-2 if smoke else 1e-2
                close("lattice ratio limit", last["value"], lattice_ratio(walk, m), tol)

            ops.append(cli_op(ctx, "ratio-converge", ("lattice",), [
                "ratio-converge", "--spec-file", walk.path, f"--x={letters_arg(x)}",
                f"--y={letters_arg(y)}", "--n-max", str(n_max)], check_rc))

        # llt-fit: isotropic tree, free group (float series), lattice
        lat = self.lattice[k % 2]
        for label, source, rho, alpha in (
            ("t3-lazy-iso", ["--preset", "t3-lazy-iso"], T3_RHO, 1.5),
            ("f2-lazy-uniform", ["--preset", "f2-lazy-uniform"], F2_LAZY_RHO, 1.5),
            ("lattice", ["--spec-file", lat.path], lattice_rho(lat), 0.5),
        ):
            def check_llt(payload, rho=rho, alpha=alpha):
                require(abs(payload["rho_hat"] - rho) <= 1e-3,
                        f"rho_hat {payload['rho_hat']!r} vs {rho!r}")
                require(abs(payload["alpha_hat"] - alpha) <= 0.15,
                        f"alpha_hat {payload['alpha_hat']!r} vs {alpha}")

            ops.append(cli_op(ctx, "llt-fit", (label,),
                              ["llt-fit", *source, "--window", "500:2000"], check_llt))

        # product: the O(n^2) binomial mixture, n-max spread over 2000..6000
        u = spread(self.offsets["product"], k)
        low, high = (2000 + int(2000 * u), 4000 + int(2000 * u))
        sizes = (low, high) if k % 2 == 0 else (high, low)
        if smoke:
            sizes = (300, 300)
        for name, pw, n, rho2 in (("t3xZ", self.t3xz, sizes[0], 1.0),
                                  ("t3xt3", self.t3xt3, sizes[1], T3_RHO)):
            s = float(pw.weight)
            want = s * T3_RHO + (1.0 - s) * rho2

            def check_product(payload, want=want):
                close("combined rho", payload["combined"]["rho"], want, 1e-12)
                got = payload["measured"]["rho_hat"]
                require(abs(got - want) <= (3e-3 if smoke else 1e-3),
                        f"measured rho_hat {got!r} vs {want!r}")

            ops.append(cli_op(ctx, "product", (name,),
                              ["product", "--preset", name, "--n-max", str(n)], check_product))

        # reduced: the line fibre over e on t3xZ, the identity only on t3xt3
        cand = 2 if smoke else 4
        fibre = {"e|e"}
        for mlen in range(1, cand + 1):
            fibre.add("e|" + ",".join(["1"] * mlen))
            fibre.add("e|" + ",".join(["-1"] * mlen))
        for name, want in (("t3xZ", fibre), ("t3xt3", {"e|e"})):
            def check_reduced(payload, want=want):
                require(set(payload["members"]) == want,
                        f"members {sorted(payload['members'])}")
                require(payload["inverse_closed"], "member set not inverse-closed")

            ops.append(cli_op(ctx, "reduced", (name,), [
                "reduced", "--preset", name, "--candidate-radius", str(cand),
                "--probe-radius", str(min(cand, 3))], check_reduced))

        # tree-kernel for q = 2..4
        for q in (2, 3, 4):
            ab = tw.tree_alphabet(q)
            x = reduced_letters(rng, ab, rng.randint(0, 3))
            depth = rng.randint(20, 40)

            def check_tree(payload, q=q, x=x, depth=depth):
                xi = tw.EndPrefix.from_pattern(tw.tree_alphabet(q), [1, 2], depth)
                h = tw.horocycle(tw.word(tw.tree_alphabet(q), x), xi)
                close("tree kernel", payload["rows"][0]["value"], q ** (-h / 2.0), 1e-12)

            ops.append(cli_op(ctx, "tree-kernel", (f"q={q}",), [
                "tree-kernel", "--q", str(q), f"--x={letters_arg(x)}", "--depth", str(depth)],
                check_tree))

        # exact engines no subcommand calls
        walk = self.f2[k % 2]
        spec = walk.spec
        ab = spec.alphabet
        n_exact = 4 if smoke else 8

        def check_nstep(res, spec=spec):
            require(sum(res.table.values()) == 1, "exact mass does not sum to 1")
            sc = tw.series_coefficients(
                tw_series.shared_system(spec), None, n_exact, exact=True
            )
            require(res.probability(tw.identity(ab)) == sc.coefficients[n_exact],
                    "p^(n)(e,e) differs from the exact Green series")

        ops.append(Op("nstep-exact", (walk.label,),
                      lambda spec=spec: tw.nstep(spec, n_exact, exact=True), check_nstep))

        n_word = 5 if smoke else 9
        xs = tw.word(ab, reduced_letters(rng, ab, rng.randint(0, 1)))
        ys = tw.word(ab, reduced_letters(rng, ab, rng.randint(0, 2)))

        def check_ratio_seq(seq, spec=spec, xs=xs, ys=ys):
            system = tw_series.shared_system(spec)
            num = tw.series_coefficients(system, xs.inverse() * ys, n_word, exact=True)
            den = tw.series_coefficients(system, None, n_word, exact=True)
            require(seq.ns == list(range(n_word + 1)), "ratio sequence steps")
            for n, got in zip(seq.ns, seq.values):
                want = float(num.coefficients[n] / den.coefficients[n])
                if want:
                    close(f"ratio at n = {n}", got, want, 1e-9)
                else:
                    require(got == 0.0, f"ratio at n = {n} should vanish")

        ops.append(Op("ratio-sequence-word", (walk.label,),
                      lambda spec=spec: tw.ratio_sequence(spec, xs, ys, n_word),
                      check_ratio_seq))

        pw = self.t3xz
        n_pair = 4 if smoke else 10
        a1, a2 = tw.tree_alphabet(2), pw.right.alphabet
        y1 = tw.word(a1, reduced_letters(rng, a1, rng.randint(0, 2)))
        y2 = tw.word(a2, reduced_letters(rng, a2, rng.randint(0, 2)))

        def check_pair(p):
            want = ctx.refs.product_mixture(pw, n_pair).get((y1, y2), Fraction(0))
            require(p == want, f"product law {p} vs pair-state convolution {want}")

        ops.append(Op("product-nstep-pair", ("t3xZ",),
                      lambda: tw.product_nstep_pair(pw, n_pair, y1, y2), check_pair))

        n_series = 20 if smoke else 120

        def series(spec=spec):
            system = tw_series.shared_system(spec)
            return tw.series_coefficients(system, None, n_series, exact=True)

        def check_series(ps, spec=spec):
            e = tw.identity(ab)
            for n, law in enumerate(ctx.refs.exact_laws(spec, n_exact)):
                require(ps.coefficients[n] == law.get(e, Fraction(0)),
                        f"coefficient {n} differs from nstep(exact)")
            system = tw_series.shared_system(spec)
            floats = tw.series_coefficients(system, None, n_series, exact=False)
            for n, (a, b) in enumerate(zip(ps.coefficients, floats.coefficients)):
                close(f"float coefficient {n}", b, float(a), 1e-9)

        ops.append(Op("series-exact", (walk.label,), series, check_series))
        return ops


WORKLOADS = {cls.name: cls for cls in (NNCold, NNWarm, Sweeps)}
