"""Ball indices, first-passage vectors and matrices, contracted kernels."""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treewalks import (
    BallIndex,
    ConvergenceError,
    EndPrefix,
    FirstPassageSystem,
    PassageMatrix,
    ValidationError,
    ball,
    ball_index,
    contraction_limit,
    finite_walk,
    first_passage_to_ball,
    format_word,
    free_group,
    identity,
    lambda_z,
    martin_kernel_matrix,
    passage_matrix,
    radial_passage,
    ratio_kernel_nn,
    word,
)
from treewalks import matrix_boundary

F2 = free_group(2)
F3 = free_group(3)


def letter_products(system, z):
    sol = system.solve(z)
    return {c: float(sol.values[c]) for c in system.letters}


def passage_product(values, w):
    out = 1.0
    for c in w.letters:
        out *= values[c]
    return out


# -- ball index ----------------------------------------------------------------


def test_ball_index_shape_for_lazy_uniform(f2_spec):
    idx = ball_index(f2_spec)
    assert idx.reach == 1
    assert idx.connect_radius == 1
    assert idx.block_length == 4
    assert idx.size == 5
    assert [format_word(w) for w in idx.words] == ["e", "-2", "-1", "1", "2"]


def test_ball_index_coordinate_lookup(f2_spec):
    idx = ball_index(f2_spec)
    assert idx.coordinate(identity(F2)) == 0
    with pytest.raises(ValidationError):
        idx.coordinate(word(F2, [1, 1]))


def test_ball_index_needs_room_to_connect(f2_spec, monkeypatch):
    monkeypatch.setattr(matrix_boundary, "RADIUS_CAP", 0)
    with pytest.raises(ValidationError):
        ball_index(f2_spec)


def test_ball_index_is_built_once_per_walk_and_cap(f2_spec, monkeypatch):
    idx = ball_index(f2_spec)
    twin = finite_walk(F2, dict(f2_spec.mu))
    assert twin is not f2_spec
    assert ball_index(f2_spec) is idx
    assert ball_index(twin) is idx
    # the cap is part of the key: a smaller one still runs the search
    monkeypatch.setattr(matrix_boundary, "RADIUS_CAP", 0)
    with pytest.raises(ValidationError, match="no connecting radius up to 0"):
        ball_index(f2_spec)


def test_ball_index_rejects_isotropic_input(t3_spec):
    with pytest.raises(ValidationError):
        ball_index(t3_spec)


# -- confined-chain floor ---------------------------------------------------------


def exact_confined_floor(z: Fraction) -> Fraction:
    # the radius-1 ball of the lazy uniform walk confined to itself:
    # from e, stay 1/5 and 1/5 to each letter; from a letter, stay 1/5
    # and 1/5 back to e; all other mass leaves the ball.  Exact
    # Gauss-Jordan on I - zP gives the Green matrix, and the floor is
    # the smallest off-diagonal G[i][j]/G[j][j].
    fifth = Fraction(1, 5)
    P = [[Fraction(0)] * 5 for _ in range(5)]
    P[0][0] = fifth
    for j in range(1, 5):
        P[0][j] = fifth
        P[j][j] = fifth
        P[j][0] = fifth
    n = 5
    A = [
        [
            (Fraction(1) if i == j else Fraction(0)) - z * P[i][j]
            for j in range(n)
        ]
        + [Fraction(1) if k == i else Fraction(0) for k in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    G = [row[n:] for row in A]
    return min(
        G[i][j] / G[j][j] for i in range(n) for j in range(n) if i != j
    )


@pytest.mark.parametrize(
    "z,expect",
    [(Fraction(1, 2), Fraction(1, 78)), (Fraction(1), Fraction(1, 13))],
)
def test_lambda_matches_exact_rational_solve(f2_spec, z, expect):
    assert exact_confined_floor(z) == expect
    assert abs(lambda_z(f2_spec, float(z)) - float(expect)) < 5e-15


def test_lambda_increases_with_z(f2_spec, f2_system):
    r = f2_system.radius().r
    vals = [lambda_z(f2_spec, z) for z in (0.5, 0.9, 1.0, r)]
    assert all(v > 0 for v in vals)
    assert all(a < b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1.0


# -- radial first passage -----------------------------------------------------


def banded_passage_oracle(per, stay, deg, z, k, pad=300):
    # truncated linear system u_j = z (per u_{j-1} + stay u_j
    # + (deg-1) per u_{j+1}), absorbing at 0, killed at pad
    import scipy.linalg

    n = pad
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 - z * stay
    ab[0, 1:] = -z * per * (deg - 1)  # superdiagonal
    ab[2, :-1] = -z * per  # subdiagonal
    rhs = np.zeros(n)
    rhs[0] = z * per
    u = scipy.linalg.solve_banded((1, 1), ab, rhs)
    return u[k - 1]


@pytest.mark.parametrize("z", [0.5, 0.9])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_radial_passage_matches_banded_solve(f2_spec, z, k):
    got = radial_passage(f2_spec, k, z)
    expect = banded_passage_oracle(0.2, 0.2, 4, z, k)
    assert abs(got - expect) < 1e-13


def test_radial_passage_at_fold_matches_branch_value(f2_spec, f2_system):
    fp = f2_system.fold()
    got = radial_passage(f2_spec, 1, float(fp.r))
    assert abs(got - float(fp.values[1])) < 1e-10


def test_radial_passage_rejects_points_past_singularity(f2_spec):
    with pytest.raises(ValidationError):
        radial_passage(f2_spec, 1, 1.3)


def test_radial_passage_accepts_isotropic_nn(t3_spec):
    # a lazy uniform radial law expands to uniform word steps: the
    # birth-death reduction applies with per-letter mass 1/6
    got = radial_passage(t3_spec, 2, 0.5)
    expect = banded_passage_oracle(1.0 / 6.0, 0.5, 3, 0.5, 2)
    assert abs(got - expect) < 1e-13


def test_radial_passage_needs_uniform_law():
    e = identity(F2)
    t = Fraction(1, 10)
    skew = finite_walk(
        F2,
        {
            e: 2 * t,
            word(F2, [1]): 3 * t,
            word(F2, [-1]): t,
            word(F2, [2]): 2 * t,
            word(F2, [-2]): 2 * t,
        },
    )
    with pytest.raises(ValidationError):
        radial_passage(skew, 1, 0.5)


# -- first passage into a ball ---------------------------------------------------


def test_gateway_vector_has_single_coordinate(f2_spec):
    idx = ball_index(f2_spec)
    x = word(F2, [2, 1, 1])
    y = identity(F2)
    fpv = first_passage_to_ball(f2_spec, x, y, 0.5, index=idx)
    assert fpv.method == "radial"
    sup = fpv.support()
    assert len(sup) == 1
    gate, weight = sup[0]
    # the walker descends 2,1,1 -> 2,1 -> 2: first entry at the ball
    # point on its own branch
    assert gate == word(F2, [2])
    assert abs(weight - radial_passage(f2_spec, 2, 0.5)) < 1e-15


def test_inside_ball_is_immediate(f2_spec):
    fpv = first_passage_to_ball(
        f2_spec, word(F2, [1]), identity(F2), 0.5
    )
    assert fpv.method == "inside"
    assert fpv.support() == [(word(F2, [1]), 1.0)]


def test_sparse_engine_agrees_with_radial(f2_spec):
    x = word(F2, [1, 1, 1])
    y = identity(F2)
    rad = first_passage_to_ball(f2_spec, x, y, 0.5, method="auto")
    dp = first_passage_to_ball(
        f2_spec, x, y, 0.5, method="dp", state_radius=8
    )
    assert rad.method == "radial"
    assert dp.method == "sparse-dp"
    gap = np.max(np.abs(rad.values - dp.values))
    assert gap < 1e-8


def test_sparse_engine_on_the_line(z_spec):
    # rank-one walk: two independent routes plus a polynomial-root oracle
    ab = z_spec.alphabet
    x = word(ab, [1, 1, 1, 1])
    y = identity(ab)
    z = 0.8
    rad = first_passage_to_ball(z_spec, x, y, z, method="auto")
    dp = first_passage_to_ball(z_spec, x, y, z, method="dp")
    assert rad.method == "radial"
    # the solve truncates excursions past its state ball and says by
    # how much; the closed form sits inside that bracket
    gap = float(np.max(np.abs(rad.values - dp.values)))
    assert gap <= dp.escaped + 1e-12
    # minimal root of (1/4) z f^2 - (1 - z/2) f + z/4 = 0
    roots = np.roots([0.25 * z, -(1.0 - 0.5 * z), 0.25 * z])
    f = min(r.real for r in roots if abs(r.imag) < 1e-12 and r.real > 0)
    k = 3  # distance to the ball edge
    got = max(rad.values)
    assert abs(got - f**k) < 1e-12


def test_passage_validates_method_and_alphabet(f2_spec):
    x = word(F2, [1, 1])
    with pytest.raises(ValidationError):
        first_passage_to_ball(f2_spec, x, identity(F2), 0.5, method="magic")
    other = identity(free_group(3))
    with pytest.raises(ValidationError):
        first_passage_to_ball(f2_spec, x, other, 0.5)


def test_sparse_solve_past_the_singularity_is_reported(f2_spec):
    # the walk killed outside the radius-7 state ball still has its
    # singularity below z = 1.5, where the Green row turns negative
    x = word(F2, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ConvergenceError, match="z = 1.5 .* past the singularity"):
        first_passage_to_ball(
            f2_spec, x, identity(F2), 1.5, method="dp", state_radius=7
        )


def test_sparse_state_ball_builds_no_words(count_reduced_words):
    # states are letter tuples: the words built do not grow with the ball
    spec = nn_f2_walk(2, [3, 1, 2, 2])
    idx = ball_index(spec)
    x, y = identity(F2), word(F2, [1, 2, 1])
    built = [
        count_reduced_words(
            lambda: first_passage_to_ball(
                spec, x, y, 0.8, index=idx, state_radius=r, method="dp"
            )
        )
        for r in (4, 7)
    ]
    assert built[0] == built[1]


def test_sparse_state_ball_takes_each_step_product_once(monkeypatch):
    # one product per ball point for the absorbing keys, then one per
    # state and step while the flood writes the killed chain
    import scipy.sparse.linalg

    spec = nn_f2_walk(2, [3, 1, 2, 2])
    idx = ball_index(spec)
    calls = 0
    product = matrix_boundary._reduced_product

    def counted(*args):
        nonlocal calls
        calls += 1
        return product(*args)

    shapes = []
    solve = scipy.sparse.linalg.spsolve

    def recorded(matrix, rhs):
        shapes.append(matrix.shape)
        return solve(matrix, rhs)

    monkeypatch.setattr(matrix_boundary, "_reduced_product", counted)
    monkeypatch.setattr(scipy.sparse.linalg, "spsolve", recorded)
    first_passage_to_ball(
        spec, identity(F2), word(F2, [1, 2, 1]), 0.8,
        index=idx, state_radius=6, method="dp",
    )
    [(n, _)] = shapes
    assert n > 100
    assert calls == idx.size + len(spec.step_items()) * n


def test_sparse_state_cap_is_reported(f2_spec, monkeypatch):
    monkeypatch.setattr(matrix_boundary, "STATE_CAP", 10)
    x = word(F2, [1, 1, 1, 1, 1, 1])
    with pytest.raises(ConvergenceError, match="exceeds 10 vertices"):
        first_passage_to_ball(f2_spec, x, identity(F2), 0.9, method="dp")


def nn_f2_walk(hold, weights):
    e = identity(F2)
    letters = [word(F2, [c]) for c in (1, -1, 2, -2)]
    total = hold + sum(weights)
    mu = {e: Fraction(hold, total)}
    mu.update({w: Fraction(p, total) for w, p in zip(letters, weights)})
    return finite_walk(F2, mu)


def reduced_words(min_len, max_len):
    def build(letters):
        out = [letters[0]]
        for c in letters[1:]:
            out.append(c if c != -out[-1] else -c)
        return word(F2, out)

    return st.lists(
        st.sampled_from([1, -1, 2, -2]), min_size=min_len, max_size=max_len
    ).map(build)


@pytest.mark.parametrize(
    "weights,x",
    [([3, 1, 2, 2], [1, 2, 1]), ([1, 1, 1, 1], [2, 2, -1, -1])],
)
def test_sparse_solve_conserves_mass_at_z_one(weights, x):
    # at z = 1 every path from x ends in the target ball or is killed at
    # the state ball's edge, so the entry weights and escaped sum to 1
    spec = nn_f2_walk(2, weights)
    pv = first_passage_to_ball(
        spec, word(F2, x), identity(F2), 1.0, method="dp", state_radius=7
    )
    assert 0.0 < pv.escaped < 1.0
    assert abs(pv.values.sum() + pv.escaped - 1.0) < 1e-12


def assert_bracketed(route, pv):
    # paths the state ball kills carry their weight up to the kill in
    # ``escaped``, and for z <= 1 the rest of their way into the ball
    # weighs at most 1, so 0 <= route - dp <= escaped coordinatewise-summed
    gap = np.asarray(route) - pv.values
    scale = float(np.max(route))
    assert gap.min() >= -1e-11 * scale
    assert gap.sum() <= pv.escaped + 1e-11 * scale


@settings(max_examples=8, deadline=None)
@given(
    hold=st.integers(1, 3),
    weights=st.lists(st.integers(1, 5), min_size=4, max_size=4),
    x=reduced_words(2, 5),
    z=st.floats(0.3, 0.95),
    state_radius=st.integers(6, 7),
)
def test_sparse_solve_against_letter_passages(hold, weights, x, z, state_radius):
    # skewed nearest-neighbour walks: the tree forces first entry at the
    # ball point x starts towards, and the untruncated weight is the
    # product of the letter first-passage functions from the mpmath solve
    spec = nn_f2_walk(hold, weights)
    pv = first_passage_to_ball(
        spec, x, identity(F2), z, method="dp", state_radius=state_radius
    )
    assert pv.method == "sparse-dp" and pv.steps == 1
    sol = FirstPassageSystem(spec).solve(z)
    route = [
        float(sol.first_passage(x.inverse() * u))
        if len(u) == 1 and x.prefix(1) == u
        else 0.0
        for u in pv.index.words
    ]
    assert_bracketed(route, pv)


@settings(max_examples=8, deadline=None)
@given(
    hold=st.integers(1, 3),
    x=reduced_words(2, 5),
    z=st.floats(0.3, 0.95),
    state_radius=st.integers(6, 7),
)
def test_sparse_solve_against_radial_closed_form(hold, x, z, state_radius):
    spec = nn_f2_walk(hold, [1, 1, 1, 1])
    e = identity(F2)
    pv = first_passage_to_ball(
        spec, x, e, z, method="dp", state_radius=state_radius
    )
    route = first_passage_to_ball(spec, x, e, z, method="auto")
    assert route.method == "radial"
    assert_bracketed(route.values, pv)


# -- separation and product identities ----------------------------------------


# the auto case keeps the id of the radial engine it reaches
@pytest.mark.parametrize(
    "method,tol", [pytest.param("auto", 1e-12, id="radial-1e-12"), ("dp", 1e-6)]
)
def test_passage_separates_through_the_ball(f2_system, method, tol):
    # every path from x0 to x1 first meets the middle ball, so the
    # passage function factorizes through its entry points
    spec = f2_system.spec
    z = 0.5
    vals = letter_products(f2_system, z)
    x0 = word(F2, [-1])
    center = word(F2, [1, 1])
    x1 = word(F2, [1, 1, 1, 1])
    fpv = first_passage_to_ball(
        spec, x0, center, z, method=method, state_radius=8
    )
    assert fpv.method == {"auto": "radial", "dp": "sparse-dp"}[method]
    total = 0.0
    for v, wgt in fpv.support():
        total += wgt * passage_product(vals, (center * v).inverse() * x1)
    direct = passage_product(vals, x0.inverse() * x1)
    assert abs(total - direct) < tol * direct


def test_green_product_formula_with_one_matrix(f2_system):
    # <fb, Fb gb> reassembles the two-point Green function across two
    # ball cross-sections on the way to the target
    spec = f2_system.spec
    z = 0.9
    sol = f2_system.solve(z)
    green = float(sol.green)
    vals = letter_products(f2_system, z)
    idx = ball_index(spec)
    block = word(F2, [1] * idx.block_length)
    c1 = word(F2, [1, 1])
    c2 = c1 * block
    x1 = c2 * word(F2, [1, 1])
    e = identity(F2)
    fb = first_passage_to_ball(spec, e, c1, z, index=idx).values
    Fb = passage_matrix(spec, block, z, index=idx).array
    gb = np.array(
        [
            green * passage_product(vals, (c2 * v).inverse() * x1)
            for v in idx.words
        ]
    )
    got = float(fb @ Fb @ gb)
    expect = green * passage_product(vals, x1)
    assert abs(got - expect) < 1e-12 * expect


@pytest.mark.parametrize("z", [math.nan, -1.0, 0.0, math.inf])
def test_passage_refuses_z_that_is_not_finite_and_positive(f2_spec, z):
    x = word(F2, [1, 1])
    with pytest.raises(ValidationError, match=f"z = {z} is not finite and positive"):
        first_passage_to_ball(f2_spec, x, identity(F2), z)
    with pytest.raises(ValidationError, match=f"z = {z} is not finite and positive"):
        passage_matrix(f2_spec, word(F2, [2, -1, 2, -1]), z)
    xi = EndPrefix.from_pattern(F2, [2, -1], 44)
    with pytest.raises(ValidationError, match=f"z = {z} is not finite and positive"):
        martin_kernel_matrix(f2_spec, word(F2, [1]), xi, z=z)


# -- passage matrices -----------------------------------------------------------


def test_passage_matrix_block_length_is_enforced(f2_spec):
    idx = ball_index(f2_spec)
    with pytest.raises(ValidationError):
        PassageMatrix(
            index=idx,
            block=word(F2, [1, 1]),
            z=0.5,
            array=np.zeros((5, 5)),
        )


def test_passage_matrix_rejects_mixed_columns(f2_spec):
    idx = ball_index(f2_spec)
    arr = np.zeros((5, 5))
    arr[:, 2] = 1.0
    arr[0, 2] = 0.0  # a zero in an otherwise positive column
    with pytest.raises(ValidationError):
        PassageMatrix(
            index=idx, block=word(F2, [1, 1, 1, 1]), z=0.5, array=arr
        )


def test_passage_matrix_json_and_floor(f2_spec, f2_system):
    import json

    idx = ball_index(f2_spec)
    r = f2_system.radius().r
    mat = passage_matrix(f2_spec, word(F2, [1, 2, 1, 2]), r, index=idx)
    payload = json.loads(mat.to_json())
    assert payload["schema"] == 1
    # nonzero columns of a nearest-neighbour block are fully positive,
    # so their min/max ratio clears the confined-chain floor easily
    cols = mat.array[:, mat.array.max(axis=0) > 0.0]
    assert (cols.min(axis=0) / cols.max(axis=0)).min() >= lambda_z(f2_spec, r)


# -- contraction ------------------------------------------------------------------


def test_contraction_collapses_rank_one_factor():
    m = np.ones((2, 2))
    got = contraction_limit([m, m, m])
    assert np.allclose(got.direction, [0.5, 0.5])
    assert got.seed_gap == 0.0
    assert got.rate == 0.0


def test_contraction_rejects_non_contracting_product():
    eye = np.eye(3)
    with pytest.raises(ConvergenceError):
        contraction_limit([eye, eye])


def test_contraction_reports_annihilation():
    m = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ConvergenceError):
        contraction_limit([m, m])


def test_contraction_needs_at_least_one_factor():
    with pytest.raises(ValidationError):
        contraction_limit([])


# -- the matrix kernel -------------------------------------------------------------


def test_matrix_kernel_matches_passage_products(f2_spec, f2_system):
    xi = EndPrefix.from_pattern(F2, [2, -1], 12)
    for letters in [[1], [2, -1], [1, 1]]:
        x = word(F2, letters)
        got = martin_kernel_matrix(f2_spec, x, xi)
        expect = ratio_kernel_nn(f2_system, x, xi)
        assert abs(got.value - expect.value) < 1e-4 * abs(expect.value)
        # two admissible starting blocks agree: the reported error is
        # the start-invariance defect
        assert got.error < 1e-8
        assert got.stabilized


@pytest.mark.parametrize("pattern, distinct", [((2, -1), 1), ((1, 2, 2), 3)])
def test_matrix_kernel_builds_each_distinct_block_once(
    f2_spec, monkeypatch, pattern, distinct
):
    blocks = []
    build = matrix_boundary.passage_matrix

    def counted(spec, block, z, index=None):
        blocks.append(block.letters)
        return build(spec, block, z, index)

    monkeypatch.setattr(matrix_boundary, "passage_matrix", counted)
    xi = EndPrefix.from_pattern(F2, pattern, 44)
    martin_kernel_matrix(f2_spec, word(F2, [1]), xi)
    # ten blocks of length 4, between the centres at depths 4, 8, ..., 44
    assert len(blocks) == len(set(blocks)) == distinct


def test_matrix_kernel_is_one_at_root(f2_spec):
    xi = EndPrefix.from_pattern(F2, [2, -1], 12)
    got = martin_kernel_matrix(f2_spec, identity(F2), xi)
    assert abs(got.value - 1.0) < 1e-12


def test_matrix_kernel_needs_enough_prefix(f2_spec):
    xi = EndPrefix.from_pattern(F2, [2, -1], 7)
    with pytest.raises(ValidationError):
        martin_kernel_matrix(f2_spec, word(F2, [1]), xi)


def test_matrix_kernel_needs_certified_z_or_explicit(t3_spec, f2_spec):
    # longer-range walks have no certified singularity: demand explicit z
    e = identity(F2)
    t = Fraction(1, 10)
    longer = finite_walk(
        F2,
        {
            e: 2 * t,
            word(F2, [1]): 2 * t,
            word(F2, [-1]): 2 * t,
            word(F2, [2]): t,
            word(F2, [-2]): t,
            word(F2, [1, 2]): t,
            word(F2, [-2, -1]): t,
        },
    )
    xi = EndPrefix.from_pattern(F2, [2, -1], 40)
    with pytest.raises(ValidationError):
        martin_kernel_matrix(longer, word(F2, [1]), xi)


def lazy_uniform_f3_walk():
    # every letter 5/48, holding 3/8
    mu = {identity(F3): Fraction(3, 8)}
    for c in F3.letters:
        mu[word(F3, [c])] = Fraction(5, 48)
    return finite_walk(F3, mu)


# sha256 over the reprs of martin_kernel_matrix at every x of ball 2, in
# ball order, at the certified z: recorded while every block of the end
# still got its own passage matrix
MATRIX_KERNEL_PINS = {
    ("f2-lazy-uniform", (2, -1), 44): "f66af8e052acdc31535bfdf1bdb43aff599bccd559391b85cee766e240f42666",
    ("f2-lazy-uniform", (2, -1), 66): "8c121b8a15eebd186248c453b532e474d962d4b4d76837783fe826729f96776b",
    ("f2-lazy-uniform", (2, -1), 88): "cb1dcbb7753b7ee5dec6c099052f9a133f45f469ec5bd5dc9e1097a9f05cdcd5",
    ("f2-lazy-uniform", (1, 2, 2), 44): "08cb9dac77b0c3420da7c9c53f4254ec4c059384857aff5f58b43b69374719fd",
    ("f2-lazy-uniform", (1, 2, 2), 66): "664e516de1054bac3d88d72e2b352d4c5c4ac62495a17fe00dbf4d64ef829435",
    ("f2-lazy-uniform", (1, 2, 2), 88): "fe768b092065d9b0c9e662362f7311a92d317324c2fc650915ff6ff1cf41c7a9",
    ("uniform-f3", (3, -1), 44): "5cf60e9ba3dc6f859ee83ac9d342d21e97a708435b35d68eecddcb02af3fc0f1",
    ("uniform-f3", (3, -1), 66): "53cc4b4db0e65fadec1116995ed6c9be046ca7b3a8a0b84a49c47323b709b71a",
    ("uniform-f3", (3, -1), 88): "0d8a1c96c016ff82c96ca060a10d00930fe4238111a02c8e943c3a15a9dc12bc",
    ("uniform-f3", (1, 2, 3), 44): "32d9cc668ae200f0f4b54bfc799e761b4a0c0d45b6375ccbb6a496a1547c75d3",
    ("uniform-f3", (1, 2, 3), 66): "7b2d59a641e0a30d840d12ae034ae8ed34449a19272dc30b76cd912456d291f0",
    ("uniform-f3", (1, 2, 3), 88): "1145f5282505c17a3e8f30e06df2546826587180817cce7414a1936a8e7ea832",
}


@pytest.mark.parametrize("name, pattern, depth", sorted(MATRIX_KERNEL_PINS))
def test_matrix_kernel_reprs_are_pinned(f2_spec, name, pattern, depth):
    spec, ab = (f2_spec, F2) if name == "f2-lazy-uniform" else (lazy_uniform_f3_walk(), F3)
    xi = EndPrefix.from_pattern(ab, pattern, depth)
    reprs = [repr(martin_kernel_matrix(spec, x, xi)) for x in ball(ab, 2)]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == MATRIX_KERNEL_PINS[name, pattern, depth]
