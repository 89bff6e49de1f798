"""One engine per walk class: pinned outputs and cross-engine agreement.

The pins in ``golden_library_pins.json`` hold the exact ``repr`` of
library results on every walk class (radial, lattice, nearest-neighbour,
general words), so a refactor of the sweep, series or dispatch code has
to reproduce them bit for bit.  The hypothesis tests check independent
engines against each other on random small walks, and each engine
against the plain loop that its buffers, windows or letter-tuple keys
replaced.
"""

import ast
import csv
import hashlib
import importlib
import inspect
import io
import json
import math
import pkgutil
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from treewalks import (
    ConvergenceError,
    EndPrefix,
    ValidationError,
    ancona_harnack_check,
    ball,
    detect_R_mu,
    factor_kernel,
    factor_kernel_grid,
    factor_returns,
    finite_walk,
    first_passage_to_ball,
    format_word,
    free_group,
    identity,
    isotropic_walk,
    load_walk_spec,
    nstep,
    preset,
    product_nstep_pair,
    product_return_sequence,
    ratio_sequence,
    series_coefficients,
    spectral_radius,
    sphere_size,
    tree_alphabet,
    word,
    word_twin,
)
import treewalks
from treewalks import kernels, series, walks
from treewalks.cli import main
from treewalks.series import FirstPassageSystem, shared_system
from treewalks.walks import (
    PRUNE_DEFAULT,
    RadialChain,
    lattice_distributions,
    lattice_offsets,
)

Z = free_group(1)
F2 = free_group(2)
F3 = free_group(3)
T3 = tree_alphabet(2)


def lattice_walk(weights):
    """Rank-one word walk from {signed displacement: probability}."""
    mu = {}
    for m, p in weights.items():
        letters = [1] * m if m >= 0 else [-1] * (-m)
        mu[word(Z, letters)] = Fraction(p)
    return finite_walk(Z, mu)


def biased_lattice():
    return lattice_walk({0: "1/4", 1: "1/2", -1: "1/4"})


def range2_lattice():
    return lattice_walk({0: "1/2", 1: "1/4", -2: "1/4"})


def range3_iso():
    # no holding: p^(1)(e, e) = 0, so the window leaves the root
    return isotropic_walk(3, {1: "1/2", 2: "1/3", 3: "1/6"})


def range2_f2():
    e = identity(F2)
    return finite_walk(
        F2,
        {
            e: Fraction(1, 4),
            word(F2, [1]): Fraction(1, 4),
            word(F2, [-1]): Fraction(1, 8),
            word(F2, [2]): Fraction(1, 8),
            word(F2, [-2]): Fraction(1, 8),
            word(F2, [1, 2]): Fraction(1, 8),
        },
    )


def lazy_range2_f2():
    # holding 1 - 10^-8 keeps the pruned word support small for 120 steps
    eps = Fraction(1, 10**8)
    steps = {(1,): 2, (-1,): 1, (2,): 1, (-2,): 1, (1, 2): 1}
    mu = {identity(F2): 1 - eps}
    for letters, k in steps.items():
        mu[word(F2, letters)] = eps * Fraction(k, 6)
    return finite_walk(F2, mu)


def skewed_f2():
    e = identity(F2)
    return finite_walk(
        F2,
        {
            e: Fraction(1, 4),
            word(F2, [1]): Fraction(1, 4),
            word(F2, [-1]): Fraction(1, 8),
            word(F2, [2]): Fraction(1, 4),
            word(F2, [-2]): Fraction(1, 8),
        },
    )


def skewed_f3():
    mu = {identity(F3): Fraction(1, 4)}
    for c, k in {1: 3, -1: 1, 2: 2, -2: 2, 3: 1, -3: 3}.items():
        mu[word(F3, [c])] = Fraction(k, 16)
    return finite_walk(F3, mu)


def skewed_t3():
    mu = {identity(T3): Fraction(1, 4), word(T3, [1]): Fraction(1, 4)}
    mu[word(T3, [2])] = Fraction(1, 3)
    mu[word(T3, [3])] = Fraction(1, 6)
    return finite_walk(T3, mu)


def _ancona(spec, seed):
    # letter values differ on these walks, so the report sees every sample
    return ancona_harnack_check(
        shared_system(spec), n_pairs=6, distances=(4, 7), seed=seed
    )


def _sparse(spec, y_letters, z, state_radius):
    pv = first_passage_to_ball(
        spec, identity(F2), word(F2, y_letters), z,
        state_radius=state_radius, method="dp",
    )
    return (pv.values.tolist(), pv.escaped, pv.steps)


def _series(target, n, exact):
    ps = series_coefficients(shared_system(skewed_f2()), target, n, exact=exact)
    return (ps.exact, ps.coefficients)


def _law(res):
    table = sorted((w.letters, p) for w, p in res.table.items())
    return (res.exact, table, res.pruned)


def _strided(values):
    """Every 97th entry plus the last: long sequences, short pins."""
    return list(values[::97]) + [values[-1]]


def _sr(spec):
    sr = spectral_radius(spec)
    return (sr.value, sr.method, sr.details)


PINS = {
    "ratio_sequence radial t3-lazy-iso n=400": lambda: ratio_sequence(
        preset("t3-lazy-iso"), word(T3, [1]), word(T3, [2, 1]), 400
    ).values,
    "ratio_sequence lattice biased n=2000": lambda: ratio_sequence(
        biased_lattice(), word(Z, [1]), word(Z, [-1, -1]), 2000
    ).values,
    "ratio_sequence nn f2-lazy-uniform n=9": lambda: ratio_sequence(
        preset("f2-lazy-uniform"), word(F2, [1]), word(F2, [2, -1]), 9
    ).values,
    "ratio_sequence words range-2 F2 n=6": lambda: ratio_sequence(
        range2_f2(), identity(F2), word(F2, [1, 2]), 6
    ).values,
    "factor_returns radial t3-lazy-iso n=500": lambda: list(
        factor_returns(preset("t3-lazy-iso"), 500)
    ),
    "factor_returns lattice biased n=500": lambda: list(
        factor_returns(biased_lattice(), 500)
    ),
    "factor_returns nn f2-lazy-uniform n=500": lambda: list(
        factor_returns(preset("f2-lazy-uniform"), 500)
    ),
    "nstep exact words skewed F2 n=5": lambda: _law(nstep(skewed_f2(), 5)),
    "nstep float words range-2 F2 n=5": lambda: _law(
        nstep(range2_f2(), 5, exact=False, prune=1e-5)
    ),
    "nstep float words range-2 lattice n=120": lambda: _law(
        nstep(range2_lattice(), 120, exact=False)
    ),
    "nstep float radial t3-lazy-iso n=80": lambda: nstep(
        preset("t3-lazy-iso"), 80
    ).radial,
    "nstep exact radial t3-lazy-iso n=12": lambda: nstep(
        preset("t3-lazy-iso"), 12, exact=True
    ).radial,
    "nstep exact radial range-3 no holding n=9": lambda: nstep(
        range3_iso(), 9, exact=True
    ).radial,
    "spectral_radius radial t3-lazy-iso": lambda: _sr(preset("t3-lazy-iso")),
    "spectral_radius lattice biased": lambda: _sr(biased_lattice()),
    "spectral_radius nn f2-lazy-uniform": lambda: _sr(preset("f2-lazy-uniform")),
    "spectral_radius lattice range-2": lambda: _sr(range2_lattice()),
    "spectral_radius fit lazy range-2 F2": lambda: _sr(lazy_range2_f2()),
    "product_return_sequence t3xZ n=2500 strided": lambda: _strided(
        product_return_sequence(preset("t3xZ"), 2500)
    ),
    "product_return_sequence t3xt3 n=1200 strided": lambda: _strided(
        product_return_sequence(preset("t3xt3"), 1200)
    ),
    "factor_returns radial t3-lazy-iso n=3000 strided": lambda: _strided(
        factor_returns(preset("t3-lazy-iso"), 3000)
    ),
    # drifted, rho = 0.9725: p^(4000)(e, e) = 2.0e-51 stays normal while the
    # edges of the reachable window, (1/4)^4000 and below, underflow to 0
    "ratio_sequence lattice range-2 n=4000 strided": lambda: _strided(
        ratio_sequence(range2_lattice(), word(Z, [1]), word(Z, [-1, -1]), 4000).values
    ),
    "series exact green n=30": lambda: _series(None, 30, True),
    "series exact letter n=30": lambda: _series(-2, 30, True),
    "series exact word n=30": lambda: _series(word(F2, [1, -2, 1]), 30, True),
    "series float green n=300": lambda: _series(None, 300, False),
    "series float letter n=300": lambda: _series(-2, 300, False),
    "series float word n=300": lambda: _series(word(F2, [1, -2, 1]), 300, False),
    "ancona_harnack_check nn skewed F2": lambda: _ancona(skewed_f2(), 3),
    "ancona_harnack_check nn skewed F3": lambda: _ancona(skewed_f3(), 5),
    "ancona_harnack_check nn involutive T3": lambda: _ancona(skewed_t3(), 11),
    "first_passage_to_ball dp skewed F2 state radius 6": lambda: _sparse(
        skewed_f2(), [2, -1, 2], 0.9, 6
    ),
    "first_passage_to_ball dp range-2 F2 state radius 7": lambda: _sparse(
        range2_f2(), [1, 2, 1], 0.8, 7
    ),
}

GOLDEN_PINS = json.loads(
    (Path(__file__).parent / "golden_library_pins.json").read_text()
)


def test_pins_cover_every_case():
    assert set(GOLDEN_PINS) == set(PINS)


@pytest.mark.parametrize("name", sorted(PINS))
def test_library_pin_is_repr_identical(name):
    assert repr(PINS[name]()) == GOLDEN_PINS[name]


# -- walk classes --------------------------------------------------------------


def test_walk_class_of_each_preset_and_range():
    assert preset("t3-lazy-iso").walk_class == "radial"
    assert preset("z-lazy").walk_class == "lattice"
    assert range2_lattice().walk_class == "lattice"
    assert preset("f2-lazy-uniform").walk_class == "nn"
    assert range2_f2().walk_class == "words"
    assert spectral_radius(preset("t3-lazy-iso")).method == "spherical-transform"
    assert spectral_radius(preset("z-lazy")).method == "lattice-exponential"
    assert spectral_radius(range2_lattice()).method == "lattice-exponential"
    assert spectral_radius(preset("f2-lazy-uniform")).method == "singularity-radius"
    assert spectral_radius(lazy_range2_f2()).method == "fit"


def test_words_class_has_no_factor_route():
    with pytest.raises(ValidationError, match="no ratio kernel or return-sequence"):
        factor_returns(range2_f2(), 4)
    with pytest.raises(ValidationError, match="no ratio kernel or return-sequence"):
        factor_kernel(range2_f2(), identity(F2), word(F2, [1]))
    with pytest.raises(ValidationError, match="no ratio kernel or return-sequence"):
        factor_kernel_grid(range2_f2(), [identity(F2)], [word(F2, [1])])


def walk_class_readers():
    """Qualified name of each function in the package that reads .walk_class."""
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Attribute) and child.attr == "walk_class":
                readers.add(".".join(scope))
            visit(child, scope)

    for path in sorted(Path(walks.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), [path.stem])
    return readers


def test_walk_class_picks_engines_in_route_alone():
    # products.route is the one dispatch; the other readers are input guards
    assert walk_class_readers() == {
        "products.route",
        "walks.lattice_offsets",
        "series.FirstPassageSystem.fold",
    }


def test_each_public_name_is_declared_once_where_it_is_defined():
    # the package star-imports each module's __all__, so a name there must
    # be that module's own, and a name in two lists would let one export
    # shadow another
    owner = {}
    for info in pkgutil.iter_modules(treewalks.__path__):
        module = importlib.import_module(f"treewalks.{info.name}")
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                assert obj.__module__ == module.__name__, name
            assert name not in owner, (name, owner.get(name), info.name)
            owner[name] = info.name
    # and the lists are the package's only public names besides its modules
    public = {
        name
        for name, value in vars(treewalks).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == {name for name, mod in owner.items() if mod != "cli"}


# library entry points that no module, script or benchmark calls: the
# direct product beside the switching one, and the list of preset names
UNREAD_PUBLIC_NAMES = {"direct_product", "preset_names"}


def names_read(path):
    """Names and attributes a file loads, outside the top-level definition
    of the same name."""
    read = set()
    for stmt in ast.parse(path.read_text()).body:
        here = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                here.add(node.attr)
        here.discard(getattr(stmt, "name", None))
        read |= here
    return read


def test_each_public_name_is_read_outside_the_unit_tests():
    # an __all__ entry is a string and an import binds, so neither reads;
    # the acceptance gate, the scripts and the benchmark count as readers
    root = Path(__file__).parents[1]
    paths = [
        *Path(treewalks.__file__).parent.glob("*.py"),
        *(root / "scripts").glob("*.py"),
        *(root / "perfbench").glob("*.py"),
        root / "tests" / "test_acceptance.py",
    ]
    read = set().union(*(names_read(path) for path in paths))
    unread = {
        name
        for info in pkgutil.iter_modules(treewalks.__path__)
        for name in importlib.import_module(f"treewalks.{info.name}").__all__
        if name not in read
    }
    assert unread == UNREAD_PUBLIC_NAMES


# -- lattice route: targets out of reach, walks of range two -------------------


def ratio_rows(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    assert rc == 0
    return [row[3] for row in csv.reader(io.StringIO(out))][1:]


@pytest.mark.parametrize("y", ["-1,-1,-1", "1,1,1"])
def test_lattice_target_out_of_reach_reads_zero(capsys, y):
    # p^(n)(e, +-3) = 0 for n <= 2: both targets lie outside the dense
    # lattice vector, on either side
    values = ratio_rows(
        capsys, "ratio-converge", "--preset", "z-lazy", "--x=e", f"--y={y}",
        "--n-max", "2",
    )
    assert values == ["0.0", "0.0"]


def test_range_two_lattice_walk_takes_the_lattice_route():
    # mu = {e: 1/2, a: 1/4, a^-2: 1/4}: the tilt solves e^(3c) = 2
    spec = range2_lattice()
    sr = spectral_radius(spec)
    assert sr.method == "lattice-exponential"
    closed = 0.5 + 2 ** (1 / 3) / 4 + 2 ** (-2 / 3) / 4
    assert abs(sr.value - closed) < 1e-13
    assert abs(math.exp(sr.details["c"]) - 2 ** (1 / 3)) < 1e-13
    a = word(Z, [1])
    kernel = factor_kernel(spec, a, identity(Z))
    assert abs(kernel.value - 2 ** (1 / 3)) < 1e-13
    seq = ratio_sequence(spec, a, identity(Z), 4000)
    assert abs(seq.last - kernel.value) < 1e-2


@pytest.mark.parametrize(
    "make, root",
    [
        (biased_lattice, lambda: mp.log(mp.mpf(1) / 2) / 2),
        (range2_lattice, lambda: mp.log(2) / 3),
        (lambda: lattice_walk({0: "1/2", 1: "3/8", -1: "1/8"}), lambda: -mp.log(3) / 2),
        (lambda: preset("z-lazy"), lambda: mp.mpf(0)),
    ],
    ids=["biased", "range-2", "drifted", "z-lazy"],
)
def test_lattice_tilt_sits_within_two_ulps_of_its_root(make, root):
    # the bisection on the sign of M'(c) ends on adjacent doubles, or on
    # an exact zero: a symmetric walk keeps c = 0.0
    c = spectral_radius(make()).details["c"]
    with mp.workprec(200):
        assert abs(mp.mpf(c) - root()) <= 2 * math.ulp(c)
    if root() == 0:
        assert c == 0.0


# -- underflow of the return probability ---------------------------------------

STEEP_SPEC = "mode finitely-supported\nrank 1\ne 1/4\n1 9/16\n-1 3/16\n"

# stdout at n_max = 4000, where p^(n)(e, e) stays a normal double
STEEP_4000 = """\
x,y_or_prefix,depth,value,error,stabilized
1,e,1,0.75,0.17274964855015695,false
1,e,2,0.34285714285714286,0.2343932085927002,false
1,e,4,0.47442429182800083,0.10282605962184221,false
1,e,8,0.5326762774401956,0.04457407400964741,false
1,e,16,0.5540557111030092,0.023194640346833828,false
1,e,32,0.5652935155533398,0.011956835896503204,false
1,e,64,0.5712144614563476,0.006035889993495469,true
1,e,128,0.5742548707298205,0.0029954807200225364,true
1,e,256,0.5757956146743884,0.0014547367754546014,true
1,e,512,0.5765711927755365,0.0006791586743065681,true
1,e,1024,0.5769602923932955,0.0002900590565475536,true
1,e,2048,0.5771551709810971,9.518046874590347e-05,true
1,e,4000,0.577250351449843,0.0,true
"""


def test_underflowed_return_probability_exits_3(capsys, tmp_path):
    spec_file = tmp_path / "steep.txt"
    spec_file.write_text(STEEP_SPEC)
    argv = ["ratio-converge", "--spec-file", str(spec_file), "--n-max"]
    assert main(argv + ["4000"]) == 0
    assert capsys.readouterr().out == STEEP_4000
    # rho = 0.8995, so p^(n)(e, e) leaves the normal doubles near n = 6600,
    # where ratios of subnormal numbers would read 1.0, stabilized
    assert main(argv + ["10000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "underflows" in captured.err and "n = 6641" in captured.err


def test_subnormal_target_law_raises_naming_the_word():
    # at n = 6600 the return row is still normal, but p^(n)(0, -40) is
    # 4.1e-316, a subnormal with about 8 good digits of 17
    lattice = load_walk_spec(STEEP_SPEC)
    e, target = identity(Z), word(Z, [-1] * 40)
    assert factor_returns(lattice, 6600)[-1] >= sys.float_info.min
    with pytest.raises(ConvergenceError) as got:
        ratio_sequence(lattice, e, target, 6600)
    message = str(got.value)
    assert f"target w = {format_word(target)} = " in message
    assert "underflows below sys.float_info.min at n = 6432" in message
    assert ratio_sequence(lattice, e, target, 6431).last > 0
    # (3/16)^m, the first nonzero law of a^-m, is subnormal from m = 424 on
    with pytest.raises(ConvergenceError, match=r"at n = 424$"):
        ratio_sequence(lattice, e, word(Z, [-1] * 424), 500)
    assert ratio_sequence(lattice, e, word(Z, [-1] * 423), 500).last > 0


def test_radial_sweep_checks_underflow_too():
    steep = isotropic_walk(50, {0: Fraction(1, 10), 1: Fraction(9, 10)})
    e = identity(tree_alphabet(50))
    with pytest.raises(ConvergenceError, match=r"n = \d+"):
        ratio_sequence(steep, e, e, 1000)
    with pytest.raises(ConvergenceError, match="underflows"):
        factor_returns(steep, 1000)


def test_structural_zero_return_is_skipped_not_raised():
    # without holding, p^(1)(e, e) = 0 exactly and the sweep goes on
    spec = isotropic_walk(2, {1: Fraction(1, 2), 2: Fraction(1, 2)})
    e = identity(T3)
    seq = ratio_sequence(spec, e, word(T3, [1]), 6)
    assert seq.skipped == [1]
    assert seq.ns == [0, 2, 3, 4, 5, 6]


# -- support cap of the word convolution --------------------------------------


def test_word_support_cap_stops_a_growing_walk():
    # the word fit convolves 120 steps and this walk's support roughly
    # triples per step: uncapped it passed 2 GB of memory within minutes
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"passes 200000 words .* n = 10"):
        spectral_radius(range2_f2())
    assert time.perf_counter() - t0 < 30.0


# -- differential tests between independent engines ---------------------------


@settings(max_examples=6, deadline=None)
@given(
    q=st.sampled_from([2, 3, 4]),
    hold=st.sampled_from([Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)]),
    letters=st.lists(st.integers(1, 3), min_size=0, max_size=3),
)
def test_radial_chain_against_word_twin(q, hold, letters):
    spec = isotropic_walk(q, {0: hold, 1: 1 - hold})
    twin = word_twin(spec)
    ab = twin.alphabet
    y = word(ab, [(c - 1) % ab.size + 1 for c in letters])
    e = identity(ab)
    n = 6
    assert nstep(spec, n, exact=True).probability(y) == nstep(
        twin, n, exact=True
    ).probability(y)
    radial = ratio_sequence(spec, e, y, n)
    series = ratio_sequence(twin, e, y, n)  # the twin is nn: Green series
    assert radial.ns == series.ns
    assert radial.values == pytest.approx(series.values, rel=1e-12, abs=0)


@pytest.mark.parametrize("y_letters", [[2], [2, -1]])
def test_green_series_against_the_radial_chain_on_t4(y_letters):
    # f2-lazy-uniform holds 1/5 and steps to each of the four letters with
    # 1/5: the lazy walk on T4, whose isotropic twin projects to distances;
    # n <= 6000 stays short of the series' underflow at n = 6145
    n_max = 6000
    x, y = word(F2, [1]), word(F2, y_letters)
    series = ratio_sequence(preset("f2-lazy-uniform"), x, y, n_max)
    t4 = tree_alphabet(3)
    same_distance = word(t4, [1, 2, 1][: len(x.inverse() * y)])
    radial = ratio_sequence(
        isotropic_walk(3, {0: Fraction(1, 5), 1: Fraction(4, 5)}),
        identity(t4), same_distance, n_max,
    )
    assert series.ns == radial.ns
    assert series.values == pytest.approx(radial.values, rel=1e-13, abs=0)


def test_nn_walks_read_no_word_tables(monkeypatch):
    calls = []
    word_laws = walks._word_laws

    def counted(*args, **kwargs):
        calls.append(args[0])
        return word_laws(*args, **kwargs)

    monkeypatch.setattr(walks, "_word_laws", counted)
    spec = preset("f2-lazy-uniform")
    ratio_sequence(spec, word(F2, [1]), word(F2, [2, -1]), 40)
    factor_returns(spec, 40)
    assert calls == []
    # the words class still convolves, through the same module name
    ratio_sequence(range2_f2(), identity(F2), word(F2, [1, 2]), 3)
    assert calls == [range2_f2()]


@settings(max_examples=8, deadline=None)
@given(
    near=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    far=st.tuples(st.integers(0, 4), st.integers(0, 4)),
    hold=st.integers(1, 4),
    x=st.integers(-3, 3),
    y=st.integers(-3, 3),
)
def test_lattice_sweep_against_word_convolution(near, far, hold, x, y):
    # steps -1 and +1 always carry mass, -2 and +2 may
    steps = {0: hold, -1: near[0], 1: near[1], -2: far[0], 2: far[1]}
    total = sum(steps.values())
    spec = lattice_walk({m: Fraction(k, total) for m, k in steps.items() if k})
    assert spec.walk_class == "lattice"
    xw = word(Z, [1] * x if x >= 0 else [-1] * -x)
    yw = word(Z, [1] * y if y >= 0 else [-1] * -y)
    n_max = 6
    seq = ratio_sequence(spec, xw, yw, n_max)
    e = identity(Z)
    for n, value in zip(seq.ns, seq.values):
        law = nstep(spec, n, exact=True)
        want = float(law.pair(xw, yw) / law.probability(e))
        assert value == pytest.approx(want, rel=1e-12, abs=1e-300)


@settings(max_examples=6, deadline=None)
@given(
    rank=st.sampled_from([2, 3]),
    weights=st.lists(st.integers(1, 5), min_size=6, max_size=6),
    hold=st.sampled_from([Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)]),
    letters=st.lists(st.integers(0, 5), min_size=0, max_size=2),
)
def test_float_series_against_exact_nstep(rank, weights, hold, letters):
    ab = free_group(rank)
    weights = weights[: len(ab.letters)]
    mu = {identity(ab): hold}
    for c, k in zip(ab.letters, weights):
        mu[word(ab, [c])] = (1 - hold) * Fraction(k, sum(weights))
    spec = finite_walk(ab, mu)
    target = word(ab, [ab.letters[i % len(ab.letters)] for i in letters])
    system = FirstPassageSystem(spec)
    n_max = 5
    green = series_coefficients(system, None, n_max, exact=False).coefficients
    to_target = series_coefficients(system, target, n_max, exact=False).coefficients
    for n in range(n_max + 1):
        law = nstep(spec, n, exact=True)
        assert green[n] == pytest.approx(float(law.probability(identity(ab))), rel=1e-12)
        want = float(law.probability(target))
        assert to_target[n] == pytest.approx(want, rel=1e-12, abs=1e-300)


# -- reference forms: the straightforward loops the engines replace -----------
#
# Each engine keeps buffers, windows or letter tuples to save time; the
# loops below are the plain forms, and every value must match bit for bit.


def reference_lattice(spec, n_max):
    """A fresh full-width vector per step over the reachable range: the
    origin index, and a generator of the vectors for n = 0..n_max that
    holds only the current one."""
    steps = lattice_offsets(spec)
    rng = max(abs(m) for m in steps)
    half = n_max * rng

    def vectors():
        vec = np.zeros(2 * half + 1)
        vec[half] = 1.0
        yield vec
        for n in range(1, n_max + 1):
            nxt = np.zeros_like(vec)
            lo, hi = half - (n - 1) * rng, half + (n - 1) * rng + 1
            for m, p in steps.items():
                nxt[lo + m : hi + m] += p * vec[lo:hi]
            vec = nxt
            yield vec

    return half, vectors()


@pytest.mark.parametrize(
    "q, coefficients",
    [
        (2, {0: Fraction(1, 2), 1: Fraction(1, 2)}),
        (3, {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}),
        (2, {0: Fraction(1, 5), 2: Fraction(3, 5), 3: Fraction(1, 5)}),
    ],
)
def test_radial_rows_past_the_range_are_shifts(q, coefficients):
    # the banded recursion builds rows 0..range and repeats row range
    # down the column tails
    spec = isotropic_walk(q, coefficients)
    chain, rng = RadialChain(spec), spec.range
    base = chain.row(rng)
    for k in range(rng, 40):
        assert chain.row(k) == {kp + k - rng: p for kp, p in base.items()}


def reference_radial(spec, n_max, num):
    """A fresh full-width vector per step over the reachable band."""
    chain = RadialChain(spec)
    rng = spec.range
    kmax = n_max * rng
    dtype = float if num is float else object
    zero = num(0)
    coeffs = [(d, num(a)) for d, a in spec.coefficients if a > 0]
    rows = [chain._row(k, coeffs) for k in range(kmax + 1)]
    offsets = {}
    for delta in range(-rng, rng + 1):
        col = np.full(kmax + 1, zero, dtype=dtype)
        for k, row in enumerate(rows):
            if k + delta <= kmax:
                col[k] = row.get(k + delta, zero)
        offsets[delta] = col
    vec = np.full(kmax + 1, zero, dtype=dtype)
    vec[0] = num(1)
    out = [vec]
    for n in range(1, n_max + 1):
        nxt = np.full(kmax + 1, zero, dtype=dtype)
        top = (n - 1) * rng + 1
        for delta, col in offsets.items():
            k0 = max(0, -delta)
            k1 = max(k0, top)
            nxt[k0 + delta : k1 + delta] += col[k0:k1] * vec[k0:k1]
        vec = nxt
        out.append(vec)
    return out


def reference_word_laws(spec, n_max, exact, prune):
    """ReducedWord-keyed dict convolution; [(table, pruned)] for n = 0..n_max."""
    num = Fraction if exact else float
    if prune is None:
        prune = 0 if exact else PRUNE_DEFAULT
    threshold = num(prune)
    steps = [(w, num(p)) for w, p in spec.step_items()]
    cur = {identity(spec.alphabet): num(1)}
    pruned = num(0)
    out = [(cur, pruned)]
    for n in range(1, n_max + 1):
        nxt = {}
        for x, mass in cur.items():
            for g, p in steps:
                y = x * g
                nxt[y] = nxt.get(y, 0) + mass * p
            if len(nxt) > walks.WORD_SUPPORT_CAP:
                raise ConvergenceError(
                    f"word convolution support passes {walks.WORD_SUPPORT_CAP} "
                    f"words (WORD_SUPPORT_CAP) at n = {n}"
                )
        if threshold:
            kept = {}
            for y, mass in nxt.items():
                if mass < threshold:
                    pruned += mass
                else:
                    kept[y] = mass
            nxt = kept
        cur = nxt
        out.append((cur, pruned))
    return out


def reference_underflow(returns):
    """The guard's message for the first subnormal return, if any."""
    for n, ret in enumerate(returns):
        if 0.0 < ret < sys.float_info.min:
            return (
                f"return probability p^(n)(e, e) = {ret!r} underflows "
                f"below sys.float_info.min at n = {n}"
            )
    return None


@settings(max_examples=12, deadline=None)
@given(
    rng=st.integers(1, 3),
    weights=st.lists(st.integers(0, 9), min_size=7, max_size=7),
    hold=st.integers(1, 9),
    n_max=st.integers(1, 400),
)
def test_lattice_distributions_match_full_width_steps(rng, weights, hold, n_max):
    # weights[j] is the mass on displacement j - 3; the walk has range
    # rng, steps +-1 and +-rng, and usually drifts
    steps = {m: weights[m + 3] for m in range(-rng, rng + 1) if m}
    for m in {1, rng}:
        steps[-m] = steps[-m] or 1
        steps[m] = steps[m] or 1
    steps[0] = hold
    total = sum(steps.values())
    spec = lattice_walk({m: Fraction(k, total) for m, k in steps.items() if k})
    half, want = reference_lattice(spec, n_max)
    returns, quotients = [], []
    pairs = zip(lattice_distributions(spec, n_max), enumerate(want), strict=True)
    for (n, origin, vec), (k, v) in pairs:
        assert (n, origin) == (k, half)
        assert np.array_equal(vec, v)
        returns.append(v[half])
        if v[half] > 0:
            quotients.append(v[half + rng] / v[half])
    e = identity(Z)
    y = word(Z, [1] * rng)
    seq = ratio_sequence(spec, e, y, n_max)
    assert seq.values == quotients
    assert list(factor_returns(spec, n_max)) == returns


def test_lattice_windows_underflow_at_the_edges():
    # the pinned range-2 walk at n = 1000: both far edges of the reachable
    # range are exact zeros, so the window has stopped tracking them
    spec = range2_lattice()
    half, want = reference_lattice(spec, 1000)
    pairs = zip(lattice_distributions(spec, 1000), enumerate(want), strict=True)
    for (n, _, vec), (k, last) in pairs:
        assert n == k
        assert np.array_equal(vec, last)
    nonzero = np.flatnonzero(last)
    assert nonzero[0] > half - 2000 and nonzero[-1] < half + 1000


@settings(max_examples=10, deadline=None)
@given(
    q=st.integers(2, 4),
    weights=st.lists(st.integers(0, 9), min_size=3, max_size=3),
    hold=st.integers(0, 9),
    n_max=st.integers(0, 300),
)
def test_radial_distributions_match_full_width_steps(q, weights, hold, n_max):
    # radial weights a_0 = hold and a_d = weights[d - 1], with a_1 > 0;
    # without holding a_2 > 0 keeps the walk aperiodic, and p^(1)(e, e) = 0
    # moves the window off the root
    raw = {0: hold, 1: weights[0] or 1, 2: weights[1], 3: weights[2]}
    if not hold:
        raw[2] = raw[2] or 1
    total = sum(raw.values())
    spec = isotropic_walk(q, {d: Fraction(k, total) for d, k in raw.items() if k})
    want = reference_radial(spec, n_max, float)
    got = [(n, vec.copy()) for n, vec in RadialChain(spec).distributions_float(n_max)]
    assert [n for n, _ in got] == list(range(n_max + 1))
    for n, vec in got:
        assert np.array_equal(vec, want[n])
    picked = [n_max // 3, n_max]
    collected = [
        (n, list(vec))
        for n, vec in RadialChain(spec).distributions_float(n_max)
        if n in picked
    ]
    assert collected == [
        (n, list(want[n])) for n in sorted(set(picked))
    ]
    assert nstep(spec, n_max, exact=False).radial == list(want[n_max])
    e = identity(spec.alphabet)
    assert list(factor_returns(spec, n_max)) == [v[0] for v in want]
    seq = ratio_sequence(spec, e, e, n_max)
    assert seq.ns == [n for n, v in enumerate(want) if v[0] > 0]
    assert seq.values == [1.0] * len(seq.ns)


@settings(max_examples=6, deadline=None)
@given(
    q=st.integers(2, 4),
    weights=st.lists(st.integers(0, 4), min_size=2, max_size=2),
    n=st.integers(0, 12),
)
def test_radial_exact_law_matches_full_width_steps(q, weights, n):
    raw = {0: 1, 1: weights[0] or 1, 2: weights[1]}
    total = sum(raw.values())
    spec = isotropic_walk(q, {d: Fraction(k, total) for d, k in raw.items() if k})
    want = reference_radial(spec, n, Fraction)[n]
    assert RadialChain(spec).distribution_exact(n) == list(want)


def random_word_walk(ab, weights, long_words):
    """Hold, every letter and a few two-letter words, weights from the list."""
    supp = [identity(ab)] + [word(ab, [c]) for c in ab.letters]
    letters = ab.letters
    for i, j in long_words:
        w = word(ab, [letters[i % len(letters)], letters[j % len(letters)]])
        if len(w) == 2 and w not in supp:
            supp.append(w)
    ks = [1 + weights[i % len(weights)] for i in range(len(supp))]
    return finite_walk(ab, {w: Fraction(k, sum(ks)) for w, k in zip(supp, ks)})


@settings(max_examples=12, deadline=None)
@given(
    ab=st.sampled_from([F2, T3]),
    weights=st.lists(st.integers(0, 6), min_size=3, max_size=7),
    long_words=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=2),
    exact=st.booleans(),
    prune=st.sampled_from([None, 0, "1/5000"]),
    n_max=st.integers(0, 4),
)
def test_word_laws_match_reduced_word_convolution(
    ab, weights, long_words, exact, prune, n_max
):
    spec = random_word_walk(ab, weights, long_words)
    if prune is not None:
        prune = Fraction(prune) if exact else float(Fraction(prune))
    want = reference_word_laws(spec, n_max, exact, prune)
    for n in range(n_max + 1):
        res = nstep(spec, n, exact=exact, prune=prune)
        table, pruned = want[n]
        assert list(res.table.items()) == list(table.items())
        assert res.pruned == pruned
        assert type(res.pruned) is type(pruned)
    if exact or prune is not None:
        return
    # a words walk's float laws read the same tables through their
    # letter-tuple keys; a nearest-neighbour walk (no two-letter word made
    # it into the support) reads the Green series, a few ulps away
    e = identity(ab)
    y = spec.step_items()[-1][0]
    seq = ratio_sequence(spec, e, y, n_max)
    quotients = [t.get(y, 0.0) / t[e] for t, _ in want]
    if spec.walk_class == "words":
        assert seq.values == quotients
    else:
        assert seq.values == pytest.approx(quotients, rel=1e-13, abs=0)


def test_word_support_cap_message_matches_the_reference(monkeypatch):
    monkeypatch.setattr(walks, "WORD_SUPPORT_CAP", 60)
    for exact in (True, False):
        with pytest.raises(ConvergenceError) as want:
            reference_word_laws(range2_f2(), 6, exact, None)
        with pytest.raises(ConvergenceError) as got:
            nstep(range2_f2(), 6, exact=exact)
        assert str(got.value) == str(want.value)
        assert "passes 60 words" in str(got.value)


def test_underflow_messages_match_the_reference(tmp_path):
    lattice = load_walk_spec(STEEP_SPEC)
    half, want = reference_lattice(lattice, 6700)
    message = reference_underflow([float(v[half]) for v in want])
    assert message.endswith("at n = 6641")
    e = identity(Z)
    with pytest.raises(ConvergenceError) as got:
        ratio_sequence(lattice, e, e, 6700)
    assert str(got.value) == message

    radial = isotropic_walk(50, {0: Fraction(1, 10), 1: Fraction(9, 10)})
    returns = [float(v[0]) for v in reference_radial(radial, 1000, float)]
    message = reference_underflow(returns)
    assert message is not None
    with pytest.raises(ConvergenceError) as got:
        factor_returns(radial, 1000)
    assert str(got.value) == message


def test_nn_return_route_checks_underflow_too():
    # the float Green series of f2-lazy-uniform leaves the normal doubles
    # at n = 6145; before that the route returns the series unchanged
    spec = preset("f2-lazy-uniform")
    system = shared_system(spec)
    series = series_coefficients(system, None, 6200, exact=False).floats()
    message = reference_underflow(series.tolist())
    assert message.endswith("at n = 6145")
    with pytest.raises(ConvergenceError) as got:
        factor_returns(spec, 6200)
    assert str(got.value) == message
    assert np.array_equal(factor_returns(spec, 6144), series[:6145])


# -- exact engines against the Fraction loops they replaced ---------------------
#
# The exact engines carry integer numerators over D**n; the references keep
# a Fraction in every cell, as the engines did before.


def reference_series_rows(system, targets, n_max):
    """The Green recursion of series._series_rows on object arrays of
    Fractions."""
    zero = Fraction(0)
    L = len(system.letters)
    inv = system.inv_index
    mu0 = system.mu0_fraction
    mu = np.array(system.mu_fractions, dtype=object)
    f = np.full((L, n_max + 1), zero, dtype=object)
    t = np.full((L, n_max + 1), zero, dtype=object)
    s = np.full(n_max + 1, zero, dtype=object)
    for n in range(1, n_max + 1):
        for i in range(L):
            acc = mu[i] if n == 1 else zero
            acc += mu0 * f[i, n - 1]
            if n >= 3:
                acc += np.dot(t[i, 1 : n - 1], f[i, n - 2 : 0 : -1])
            f[i, n] = acc
        s[n] = np.dot(mu, f[inv, n])
        t[:, n] = s[n] - mu * f[inv, n]
    u = np.full(n_max + 1, zero, dtype=object)
    u[1:] = s[:-1]
    if n_max >= 1:
        u[1] += mu0
    g = np.full(n_max + 1, zero, dtype=object)
    g[0] = Fraction(1)
    for n in range(1, n_max + 1):
        g[n] = np.dot(u[1 : n + 1], g[n - 1 :: -1])
    rows = []
    for target in targets:
        if target is None:
            rows.append(g)
        elif isinstance(target, int):
            rows.append(f[system.index[target]])
        else:
            coeffs = np.full(n_max + 1, zero, dtype=object)
            coeffs[0] = Fraction(1)
            for c in target.letters:
                coeffs = np.convolve(coeffs, f[system.index[c]])[: n_max + 1]
            rows.append(np.convolve(coeffs, g)[: n_max + 1])
    return [row.tolist() for row in rows]


def reference_pair_law(pw, n, y1, y2):
    """product_nstep_pair's binomial mixture over the reference laws."""

    def laws(spec, y):
        if spec.mode == "isotropic":
            size = sphere_size(spec.q, len(y))
            vecs = reference_radial(spec, n, Fraction)
            return [v[len(y)] / size if len(y) < len(v) else 0 for v in vecs]
        return [table.get(y, 0) for table, _ in reference_word_laws(spec, n, True, None)]

    laws1, laws2 = laws(pw.left, y1), laws(pw.right, y2)
    s = pw.weight
    return sum(
        math.comb(n, k) * s**k * (1 - s) ** (n - k) * laws1[k] * laws2[n - k]
        for k in range(n + 1)
    )


def assert_fractions(values):
    assert all(type(x) is Fraction for x in values)


@pytest.mark.parametrize(
    "make",
    [lambda: preset("f2-lazy-uniform"), skewed_f2, skewed_f3, lambda: t3_twin()],
    ids=["f2-lazy-uniform", "skewed-f2", "skewed-f3", "t3-twin"],
)
def test_exact_series_rows_match_the_fraction_recursion(make):
    spec = make()
    ab = spec.alphabet
    system = FirstPassageSystem(spec)
    three = word(ab, [1, 2, 3] if ab.kind == "involutive" else [1, 2, -1])
    targets = [None, ab.letters[-1], three]
    rows = series._series_rows(system, targets, 60, True)
    want = reference_series_rows(system, targets, 60)
    for row, ref in zip(rows, want):
        assert row.tolist() == ref
        assert_fractions(row)
    got = series_coefficients(system, three, 60, exact=True).coefficients
    assert list(got) == want[2]
    assert_fractions(got)


@pytest.mark.parametrize(
    "make", [skewed_f2, lambda: t3_twin(), range2_f2],
    ids=["skewed-f2", "t3-twin", "range2-f2"],
)
@pytest.mark.parametrize("prune", [None, Fraction(1, 10**4)], ids=["whole", "pruned"])
def test_exact_word_laws_match_the_fraction_convolution(make, prune):
    spec = make()
    want = reference_word_laws(spec, 6, True, prune)
    for n, (table, pruned) in enumerate(want):
        res = nstep(spec, n, exact=True, prune=prune)
        assert res.table == table
        assert res.pruned == pruned
        assert_fractions([*res.table.values(), res.pruned])
    if prune is not None:
        assert pruned > 0


@pytest.mark.parametrize(
    "make",
    [
        lambda: preset("t3-lazy-iso"),
        lambda: isotropic_walk(3, {0: "1/3", 1: "2/3"}),
        lambda: isotropic_walk(3, {0: "1/5", 1: "1/2", 2: "3/10"}),
    ],
    ids=["q2", "q3", "q3-range2"],
)
def test_exact_radial_laws_match_the_fraction_sweep(make):
    spec = make()
    want = reference_radial(spec, 64, Fraction)
    chain = RadialChain(spec)
    for n in range(65):
        got = chain.distribution_exact(n)
        assert got == want[n][: len(got)].tolist()
        assert not any(want[n][len(got):])
        assert_fractions(got)
    assert nstep(spec, 64, exact=True).radial == got


@pytest.mark.parametrize("name", ["t3xZ", "t3xt3"])
def test_exact_product_pairs_match_the_fraction_mixture(name):
    pw = preset(name)
    a1, a2 = pw.left.alphabet, pw.right.alphabet
    ys1 = [identity(a1), word(a1, [1]), word(a1, [2, 1])]
    ys2 = [identity(a2), word(a2, [1]), word(a2, [a2.letters[-1]] * 2)]
    for n in range(13):
        for y1 in ys1:
            for y2 in ys2:
                got = product_nstep_pair(pw, n, y1, y2)
                assert got == reference_pair_law(pw, n, y1, y2)
                assert type(got) is Fraction


# -- one Green recursion per call -----------------------------------------------


@pytest.mark.parametrize("make", [lambda: preset("f2-lazy-uniform"), skewed_f2, skewed_f3])
@pytest.mark.parametrize("n_max, exact", [(300, False), (12, True)])
def test_series_rows_are_the_one_target_coefficients(make, n_max, exact):
    # one recursion for every target gives each row bit for bit, floats
    # and Fractions alike
    spec = make()
    ab = spec.alphabet
    system = FirstPassageSystem(spec)
    targets = [None, ab.letters[-1], identity(ab), word(ab, ab.letters[:3])]
    rows = series._series_rows(system, targets, n_max, exact)
    assert rows.shape == (len(targets), n_max + 1)
    for target, row in zip(targets, rows):
        want = series_coefficients(system, target, n_max, exact=exact).coefficients
        assert tuple(row.tolist()) == want
        assert all(type(c) is (Fraction if exact else float) for c in want)


class _CountedIter(list):
    """A list that counts how often it is iterated over."""

    runs = 0

    def __iter__(self):
        _CountedIter.runs += 1
        return super().__iter__()


def test_nn_laws_run_the_recursion_once(monkeypatch):
    # the recursion reads the letter weights once per run, so counting
    # passes over them counts runs
    spec = preset("f2-lazy-uniform")
    system = shared_system(spec)
    monkeypatch.setattr(system, "mu_fractions", _CountedIter(system.mu_fractions))
    e, a = identity(spec.alphabet), word(spec.alphabet, [1])
    for call in (
        lambda: ratio_sequence(spec, e, a, 200),
        lambda: factor_returns(spec, 200),
    ):
        _CountedIter.runs = 0
        call()
        assert _CountedIter.runs == 1


# -- bit-identity pins of the nn kernel grid and reports, and Ancona forms -------


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def t3_twin():
    return word_twin(preset("t3-lazy-iso"))


NN_WALKS = {
    "f2-lazy-uniform": lambda: preset("f2-lazy-uniform"),
    "skewed F2": skewed_f2,
    "skewed F3": skewed_f3,
    "involutive T3": skewed_t3,
    "T3 twin": t3_twin,
}

# sha256 of kernels.ratio_grid_nn(ball r, ball r).tobytes(), recorded before the
# prefix-tree grid replaced the per-entry chains
GRID_PINS = {
    ("f2-lazy-uniform", 4): "ed50a2c4aee38ee881e465d8cb2e5d5b824e887b11921c5c11d5d01fd772d3f5",
    ("skewed F2", 3): "cd8a22c71ecfed5db11dec699bda24ddc5f21c45cd0545f303665032a9f471e9",
    ("skewed F3", 3): "4073b1282824b527230d6607546a0a352eaf20790c64b3650d7e589aa237e7e7",
    ("involutive T3", 3): "5b35859baa90aa838d81a91bd318946e146de612c9e41645d807d8d1ba5bf905",
    ("T3 twin", 3): "017269a280913d0a1945839210b35695dca3c00532674dbf1698f8adb3516d1d",
}


@pytest.mark.parametrize("name, radius", sorted(GRID_PINS))
def test_ratio_grid_nn_bytes_are_pinned(name, radius):
    spec = NN_WALKS[name]()
    words = ball(spec.alphabet, radius)
    grid = kernels.ratio_grid_nn(shared_system(spec), words, words)
    assert _digest(grid.tobytes()) == GRID_PINS[name, radius]


def _uneven_lists(ab):
    # target lists that are not prefix-closed: end prefixes deepest first,
    # part of a sphere without its ball, duplicates and e; probes from
    # ball 1 and sphere 5, and two that reach past every target
    first, last = ab.letters[0], ab.letters[-1]
    ends = [EndPrefix.from_pattern(ab, (first, last), d).word for d in range(12, 0, -1)]
    sphere3 = [w for w in ball(ab, 3) if len(w) == 3]
    targets = ends + sphere3[::3] + [identity(ab)] + ends[::4] + sphere3[:2]
    long = [EndPrefix.from_pattern(ab, pattern, 14).word for pattern in ((first, last), (last, first))]
    probes = ball(ab, 1) + [w for w in ball(ab, 5) if len(w) == 5][::17] + long
    return probes, targets


UNEVEN_GRID_PINS = {
    "f2-lazy-uniform": "c23e90016209c7a2dae58c2275e24ec1fe7e4b9ed8b922d405f153bb85e325ae",
    "skewed F2": "7b94117d3893ed374e11d13dc9de3fbdfcdae2c677198091086dcc9b0203e77c",
    "skewed F3": "76b0de2c040e074e9a87934e3b2ca69f4a982387f1aaed7f20a09e926615bd5e",
    "involutive T3": "78371c1f09a24a9d3c8bac1b163e566805e163b2dc0338383b894aa5c7cb39f2",
}


@pytest.mark.parametrize("name", sorted(UNEVEN_GRID_PINS))
def test_ratio_grid_nn_bytes_on_uneven_target_lists_are_pinned(name):
    spec = NN_WALKS[name]()
    probes, targets = _uneven_lists(spec.alphabet)
    assert max(map(len, probes)) > max(map(len, targets))
    grid = kernels.ratio_grid_nn(shared_system(spec), probes, targets)
    assert _digest(grid.tobytes()) == UNEVEN_GRID_PINS[name]


REPORT_WALKS = {**NN_WALKS, "t3xZ": lambda: preset("t3xZ"), "t3xt3": lambda: preset("t3xt3")}

# sha256 of repr(detect_R_mu(walk, candidate radius, probe radius))
REPORT_PINS = {
    ("f2-lazy-uniform", 4, 4): "6973a58e31eed49c684660c596e03c5c4b0d4789e6d23423ad997ebc13686132",
    ("skewed F2", 3, 3): "37f03ca5a77530c7e5c24f179ff4e1b6c206e0de45bb4524e61800445f7b885d",
    ("skewed F3", 3, 3): "9fa76b9207bf46c346182f2dd114ee12b7d0af7ae7ca8e2cf367aee2f48b2a9f",
    ("involutive T3", 3, 3): "1141d2dd0065648af689f4a61372beb462dbb4640504492b1c371cc4fe1b03d2",
    ("T3 twin", 3, 3): "9b115739444b5fd74be13bd36c08c7072fa40279b8e42cfa061581fc57128776",
    ("t3xZ", 4, 3): "6af9c4763e133cbc6cb1a5733d5beb4412e3d4173ca832be9be8389286b00dbd",
    ("t3xt3", 4, 3): "1beef17c8d3fa8b7e9a3076401b1b0d7dca0be4df5d0708e85364ec6c0e94fef",
}


@pytest.mark.parametrize("name, cand, probe", sorted(REPORT_PINS))
def test_detect_R_mu_reprs_are_pinned(name, cand, probe):
    report = detect_R_mu(REPORT_WALKS[name](), candidate_radius=cand, probe_radius=probe)
    assert _digest(repr(report).encode()) == REPORT_PINS[name, cand, probe]


# the walks and seeds whose sampled reports were pinned before the check read
# its closed forms
ANCONA_CASES = [
    (name, seed)
    for name in ("skewed F2", "skewed F3", "involutive T3")
    for seed in range(3)
]


def closed_form_ancona(system, n_pairs, distances):
    # each field from system.solve at the three points: 1/G(e, e | z), the
    # larger of F_c(z) and 1/F_c(z), and 0.0 where the quotients cancel
    cert = system.radius()
    z_values = (1.0, 0.5 * (1.0 + cert.lo), cert.lo)
    solves = [system.solve(z) for z in z_values]
    triples = [1.0 / float(sol.green) for sol in solves]
    letters = [float(f) for sol in solves for f in sol.values.values()]
    growth = [max(f, 1.0 / f) for f in letters]
    return kernels.AnconaReport(
        z_values=z_values,
        distances=tuple(distances),
        triple_min=min(triples),
        triple_max=max(triples),
        triple_green_gap=0.0,
        per_distance_spread=tuple((n, 0.0) for n in sorted(set(distances))),
        harnack_max=max(growth),
        quadruple_max=0.0,
        samples=3 * len(distances) * n_pairs,
    )


@pytest.mark.parametrize("name, seed", ANCONA_CASES)
def test_ancona_reprs_are_pinned(name, seed):
    # pinned to the closed forms, and the same for every seed
    system = shared_system(NN_WALKS[name]())
    report = ancona_harnack_check(system, n_pairs=37, seed=seed)
    assert report == ancona_harnack_check(system, n_pairs=37, seed=(seed + 1) % 3)
    want = closed_form_ancona(system, 37, (4, 6, 8, 10))
    assert repr(report) == repr(want)


def test_ancona_check_makes_no_random_draw(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ancona_harnack_check drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    for name in ("seed", "random", "getrandbits", "randrange", "choice", "sample"):
        monkeypatch.setattr(random, name, refuse)
    assert "random" not in vars(kernels)
    for name in ("f2-lazy-uniform", "skewed F3", "involutive T3"):
        system = shared_system(NN_WALKS[name]())
        report = ancona_harnack_check(system, n_pairs=50, distances=(4, 7), seed=5)
        assert report == closed_form_ancona(system, 50, (4, 7))


def reference_grid_nn(system, probes, targets):
    # one chain per entry from 1.0: x^-1's first |x| - k letters, then y[k:]
    values = {c: float(v) for c, v in system.fold().values.items()}
    gammas = system.gamma_table()

    def chain(letters):
        p, g = 1.0, gammas["green"]
        for c in letters:
            p *= values[c]
            g += gammas[c]
        return p, g

    grid = np.empty((len(probes), len(targets)))
    for i, x in enumerate(probes):
        down = x.inverse().letters
        for j, y in enumerate(targets):
            k = 0
            while k < min(len(x), len(y)) and x.letters[k] == y.letters[k]:
                k += 1
            p, g = chain(down[: len(x) - k] + y.letters[k:])
            p_y, g_y = chain(y.letters)
            grid[i, j] = (p / p_y) * g / g_y
    return grid


letter_lists = st.lists(st.lists(st.integers(0, 5), max_size=9), max_size=12)


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(["skewed F2", "skewed F3", "involutive T3"]),
       probes=letter_lists, targets=letter_lists)
def test_ratio_grid_nn_is_the_per_entry_chain_bit_for_bit(name, probes, targets):
    spec = NN_WALKS[name]()
    ab = spec.alphabet

    def words(lists):
        return [word(ab, [ab.letters[k % len(ab.letters)] for k in w]) for w in lists]

    probes, targets = words(probes), words(targets)
    system = shared_system(spec)
    got = kernels.ratio_grid_nn(system, probes, targets)
    assert got.tobytes() == reference_grid_nn(system, probes, targets).tobytes()
