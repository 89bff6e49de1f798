"""Command-line interface: output formats, exit codes, determinism.

Everything runs in-process through main(argv) so coverage and the
solver caches are shared. One subprocess test checks the console script
declared in pyproject.toml: the installed one when `treewalks` is on
PATH, otherwise the declared entry point run through the same wrapper
an installer writes for a console script.
"""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mp

import treewalks
from treewalks import (
    ConvergenceError,
    EndPrefix,
    dump_walk_spec,
    factor_kernel,
    factor_returns,
    finite_walk,
    free_group,
    identity,
    martin_kernel_matrix,
    martin_kernel_nn,
    preset,
    ratio_kernel_isotropic,
    ratio_kernel_nn,
    ratio_sequence,
    tree_alphabet,
    word,
)
from treewalks.cli import main
from treewalks.series import shared_system

T3 = tree_alphabet(2)


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


# -- tree-kernel ---------------------------------------------------------------


def test_tree_kernel_csv_matches_api(capsys):
    rc, out, err = run_cli(capsys, "tree-kernel", "--depth", "30")
    assert rc == 0 and err == ""
    header, rows = parse_csv(out)
    assert header == ["x", "y_or_prefix", "depth", "value", "error", "stabilized"]
    assert len(rows) == 1
    row = rows[0]
    spec = preset("t3-lazy-iso")
    api = ratio_kernel_isotropic(
        spec, word(T3, [1]), EndPrefix.from_pattern(T3, [1, 2], 30)
    )
    assert float(row[3]) == api.value
    assert math.isclose(float(row[3]), math.sqrt(2.0), rel_tol=1e-6)
    assert row[2] == "30"
    assert row[5] in ("true", "false")


def test_tree_kernel_json_schema(capsys):
    rc, out, _ = run_cli(capsys, "tree-kernel", "--format", "json", "--depth", "16")
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["kind"] == "tree-kernel"
    assert payload["meta"] == {"q": 2, "depth": 16}
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["value"] == pytest.approx(math.sqrt(2.0), rel=1e-3)


def test_tree_kernel_rejects_degenerate_branching(capsys):
    rc, out, err = run_cli(capsys, "tree-kernel", "--q", "1")
    assert rc == 2
    assert out == ""
    assert "q >= 2" in err


# -- argument validation -------------------------------------------------------


def test_unknown_preset_exits_2(capsys):
    rc, _, err = run_cli(capsys, "llt-fit", "--preset", "nosuch")
    assert rc == 2
    assert "unknown preset" in err


def test_unknown_command_is_an_argparse_error():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_malformed_word_exits_2(capsys):
    rc, _, err = run_cli(capsys, "free-kernel", "--x", "1,,2")
    assert rc == 2
    assert "cannot parse word" in err


@pytest.mark.parametrize(
    "arg, message",
    [
        ("--x=5", "outside alphabet"),
        ("--pattern=1,-1", "pattern must be nonempty"),
        ("--pattern=a", "cannot parse word"),
    ],
)
def test_bad_word_argument_exits_2(capsys, arg, message):
    rc, out, err = run_cli(capsys, "free-kernel", arg)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("t", ["0", "nan"])
def test_invalid_time_scale_exits_2(capsys, t):
    # 1/t must be a finite point at or inside the singularity
    rc, out, err = run_cli(capsys, "free-kernel", "--t", t)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "time-scale t > 0" in err


def test_malformed_window_exits_2(capsys):
    for window in ("oops", "10", "a:b", "10:-5", "-3:100", "0:100"):
        rc, _, err = run_cli(capsys, "llt-fit", f"--window={window}")
        assert rc == 2
        assert "window" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["free-kernel", "--precision", "96"],
        ["ancona-check", "--precision", "96"],
        ["phi-claim", "--precision", "96"],
        ["llt-fit", "--n-max", "10"],
    ],
)
def test_removed_options_are_unknown(argv, capsys):
    # every query runs at the shared system's 96 bits, and llt-fit reads
    # the returns up to the window's end and no further
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_free_kernel_on_a_longer_range_walk_names_the_missing_route(capsys, tmp_path):
    f2 = free_group(2)
    mu = {identity(f2): Fraction(1, 4), word(f2, [1]): Fraction(1, 4)}
    for letters in ([-1], [2], [-2], [1, 2]):
        mu[word(f2, letters)] = Fraction(1, 8)
    spec_path = tmp_path / "range2.spec"
    spec_path.write_text(dump_walk_spec(finite_walk(f2, mu)))
    rc, out, err = run_cli(capsys, "free-kernel", "--spec-file", str(spec_path))
    assert rc == 2 and out == ""
    assert "no ratio kernel or return-sequence route" in err


def test_single_factor_subcommand_rejects_products(capsys):
    rc, _, err = run_cli(capsys, "ratio-converge", "--preset", "t3xZ")
    assert rc == 2
    assert "single-factor" in err


def test_product_subcommand_rejects_single_walks(capsys):
    rc, _, err = run_cli(capsys, "product", "--preset", "f2-lazy-uniform")
    assert rc == 2
    assert "product preset" in err


def test_convergence_failure_exits_3(capsys):
    # a negative offset puts the evaluation point past the singularity
    rc, _, err = run_cli(
        capsys, "phi-claim", "--depth", "2", "--z-offset", "-0.001"
    )
    assert rc == 3
    assert "error:" in err


# -- free-kernel ---------------------------------------------------------------


def test_free_kernel_end_target_matches_api(capsys, f2_spec):
    rc, out, _ = run_cli(capsys, "free-kernel", "--x", "1", "--depth", "12")
    assert rc == 0
    _, rows = parse_csv(out)
    xi = EndPrefix.from_pattern(f2_spec.alphabet, [1, 2], 12)
    api = ratio_kernel_nn(shared_system(f2_spec, 96), word(f2_spec.alphabet, [1]), xi)
    assert float(rows[0][3]) == api.value


def test_free_kernel_vertex_target(capsys, f2_spec):
    rc, out, _ = run_cli(capsys, "free-kernel", "--x", "2", "--y", "1")
    assert rc == 0
    _, rows = parse_csv(out)
    api = ratio_kernel_nn(
        shared_system(f2_spec, 96),
        word(f2_spec.alphabet, [2]),
        word(f2_spec.alphabet, [1]),
    )
    assert float(rows[0][3]) == api.value
    assert rows[0][1] == "1"


def test_free_kernel_vertex_target_with_t_is_the_martin_kernel(capsys, f2_spec):
    # --t reads the Martin kernel at 1/t for vertex targets as for ends
    rc, out, _ = run_cli(capsys, "free-kernel", "--x", "1", "--y", "2", "--t", "1.5")
    assert rc == 0
    _, rows = parse_csv(out)
    ab = f2_spec.alphabet
    api = martin_kernel_nn(
        shared_system(f2_spec, 96), word(ab, [1]), word(ab, [2]), 1.5
    )
    assert float(rows[0][3]) == api.value
    assert api.value != ratio_kernel_nn(
        shared_system(f2_spec, 96), word(ab, [1]), word(ab, [2])
    ).value


# -- ratio-converge ------------------------------------------------------------


def test_ratio_converge_doubling_rows(capsys):
    rc, out, _ = run_cli(
        capsys, "ratio-converge", "--n-max", "512", "--tol", "1e-2"
    )
    assert rc == 0
    _, rows = parse_csv(out)
    depths = [int(r[2]) for r in rows]
    assert depths == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512]
    final = rows[-1]
    assert float(final[4]) == 0.0
    assert final[5] == "true"
    assert abs(float(final[3]) - 1.0) < 0.05


def test_ratio_converge_runs_isotropic_walks_on_the_radial_sweep(capsys):
    rc, out, _ = run_cli(
        capsys, "ratio-converge", "--preset", "t3-lazy-iso",
        "--x", "1", "--y", "e", "--n-max", "64",
    )
    assert rc == 0
    seq = ratio_sequence(preset("t3-lazy-iso"), word(T3, [1]), identity(T3), 64)
    assert seq.ns == list(range(65))
    _, rows = parse_csv(out)
    assert [int(r[2]) for r in rows] == [1, 2, 4, 8, 16, 32, 64]
    for r in rows:
        assert r[3] == repr(seq.values[int(r[2])])


def test_ratio_converge_reads_the_green_series_on_nn_walks(capsys):
    # nn walks read the float Green series, which runs until p^(n)(e, e)
    # leaves the normal doubles; word convolution stops at n = 11
    argv = ("ratio-converge", "--preset", "f2-lazy-uniform", "--n-max")
    rc, out, err = run_cli(capsys, *argv, "6000")
    assert rc == 0 and err == ""
    _, rows = parse_csv(out)
    assert [int(r[2]) for r in rows] == [2**k for k in range(13)] + [6000]
    with pytest.raises(ConvergenceError) as want:
        factor_returns(preset("f2-lazy-uniform"), 10000)
    rc, out, err = run_cli(capsys, *argv, "10000")
    assert (rc, out) == (3, "")
    assert err == f"error: {want.value}\n"
    assert "at n = 6145" in err


# -- llt-fit ---------------------------------------------------------------------


def test_llt_fit_recovers_line_exponent(capsys):
    rc, out, _ = run_cli(
        capsys, "llt-fit", "--preset", "z-lazy", "--window", "200:800"
    )
    assert rc == 0
    kv = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    assert set(kv) >= {
        "rho_hat",
        "alpha_hat",
        "log_c",
        "residual_rms",
        "rho_shift",
        "alpha_shift",
        "window_lo",
        "window_hi",
    }
    assert abs(float(kv["rho_hat"]) - 1.0) < 1e-3
    assert abs(float(kv["alpha_hat"]) - 0.5) < 0.05
    assert kv["window_lo"] == "200"


def test_llt_fit_stops_when_the_green_series_underflows(capsys):
    # p^(n)(e, e) of f2-lazy-uniform is subnormal from n = 6145 on and
    # reads 0.0 by n = 8000; a fit over that window would look fine
    rc, out, err = run_cli(
        capsys, "llt-fit", "--preset", "f2-lazy-uniform", "--window", "500:8000"
    )
    assert rc == 3
    assert out == ""
    assert "underflows" in err and "n = 6145" in err


# -- martin-matrix ---------------------------------------------------------------


def test_martin_matrix_matches_api(capsys, f2_spec):
    rc, out, _ = run_cli(capsys, "martin-matrix", "--depth", "12")
    assert rc == 0
    _, rows = parse_csv(out)
    xi = EndPrefix.from_pattern(f2_spec.alphabet, [2, -1], 12)
    api = martin_kernel_matrix(f2_spec, word(f2_spec.alphabet, [1]), xi)
    assert float(rows[0][3]) == api.value
    assert float(rows[0][4]) < 1e-6
    assert rows[0][5] == "true"


# -- product ----------------------------------------------------------------------


def test_product_flat_csv_report(capsys):
    rc, out, _ = run_cli(capsys, "product")
    assert rc == 0
    kv = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
    rho1 = 0.5 + math.sqrt(2.0) / 3.0
    assert float(kv["factors.0.rho"]) == pytest.approx(rho1, rel=1e-14)
    assert float(kv["factors.1.rho"]) == 1.0
    assert float(kv["combined.rho"]) == pytest.approx(0.5 * rho1 + 0.5, rel=1e-14)
    assert float(kv["combined.alpha"]) == 2.0
    assert kv["kind"] == "cartesian"


def test_product_measured_fit_agrees_with_closed_form(capsys):
    rc, out, _ = run_cli(capsys, "product", "--n-max", "900", "--format", "json")
    assert rc == 0
    payload = json.loads(out)
    measured = payload["measured"]
    assert measured["window"] == [300, 900]
    assert measured["rho_hat"] == pytest.approx(
        payload["combined"]["rho"], rel=1e-3
    )
    assert measured["alpha_hat"] == pytest.approx(2.0, abs=0.4)


# -- reduced ----------------------------------------------------------------------


def test_reduced_csv_lists_members_and_certificate(capsys):
    rc, out, _ = run_cli(
        capsys,
        "reduced",
        "--preset",
        "t3xZ",
        "--candidate-radius",
        "1",
        "--probe-radius",
        "1",
    )
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "label,deviation,member"
    assert lines[-1].startswith("# ")
    flags = {}
    for line in lines[1:-1]:
        label, _, member = line.rsplit(",", 2)
        flags[label] = member
    assert flags["e|e"] == "true"
    assert flags["e|1"] == "true"
    assert flags["e|-1"] == "true"
    assert flags["1|e"] == "false"


def test_reduced_json_round_trip(capsys):
    rc, out, _ = run_cli(
        capsys,
        "reduced",
        "--preset",
        "t3xZ",
        "--candidate-radius",
        "1",
        "--probe-radius",
        "1",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert set(payload["members"]) == {"e|e", "e|1", "e|-1"}
    assert payload["inverse_closed"] is True


def test_reduced_csv_rows_read_back_as_three_fields(capsys):
    # labels such as e|-1,-1 hold commas, so the writer quotes them
    args = ["reduced", "--preset", "t3xZ", "--candidate-radius", "2"]
    args += ["--probe-radius", "2"]
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    body, certificate = out.rstrip("\n").rsplit("\n", 1)
    assert certificate.startswith("# ")
    header, rows = parse_csv(body)
    assert header == ["label", "deviation", "member"]
    assert all(len(row) == 3 for row in rows)
    assert any("," in row[0] for row in rows)
    rc, out, _ = run_cli(capsys, *args, "--format", "json")
    members = {row[0] for row in rows if row[2] == "true"}
    assert members == set(json.loads(out)["members"])


# -- ancona-check -----------------------------------------------------------------


def test_ancona_check_is_deterministic(capsys):
    args = ("ancona-check", "--pairs", "4", "--seed", "7")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2
    kv = dict(line.split(",", 1) for line in out1.strip().splitlines()[1:])
    assert int(kv["samples"]) > 0
    assert float(kv["triple_green_gap"]) < 1e-8
    assert any(key.startswith("spread_at_") for key in kv)


def test_ancona_check_needs_two_axes(capsys):
    rc, out, err = run_cli(capsys, "ancona-check", "--preset", "z-lazy")
    assert rc == 2 and out == ""
    assert "needs a letter off the first letter's axis" in err


# -- sizes below their range --------------------------------------------------------


BELOW_RANGE = {
    "ratio-converge --n-max -5": "need n_max >= 0",
    "product --n-max -4": "need n_max >= 0",
    "reduced --probe-radius -1": "radii must be >= 0",
    "reduced --candidate-radius -1": "radii must be >= 0",
    "ancona-check --pairs 0": "n_pairs >= 1",
    "ancona-check --pairs -3": "n_pairs >= 1",
}


@pytest.mark.parametrize("command", sorted(BELOW_RANGE))
def test_sizes_below_their_range_exit_2(capsys, command):
    # refused up front, not with a traceback or an empty report
    message = BELOW_RANGE[command]
    rc, out, err = run_cli(capsys, *command.split())
    assert (rc, out) == (2, "")
    assert message in err


NO_RESULT = {
    "phi-claim --z-offset nan": "need a finite z-offset, got nan",
    "phi-claim --depth 1": "need depth >= 2",
    "phi-claim --tol nan": "need tol > 0",
    "ratio-converge --tol -1": "need tolerance tol >= 0, got tol = -1.0",
    "ratio-converge --tol nan": "need tolerance tol >= 0, got tol = nan",
}


@pytest.mark.parametrize("command", sorted(NO_RESULT))
def test_inputs_with_no_result_exit_2(capsys, command):
    # a nan offset used to fail in Newton (exit 3), and the others printed
    # a header with no row or rows that were all false (exit 0)
    rc, out, err = run_cli(capsys, *command.split())
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and NO_RESULT[command] in err


# -- one-generator walks ----------------------------------------------------------


def test_one_generator_free_kernel_names_the_lattice_route(capsys):
    # vertex and end targets print the lattice kernel of factor_kernel
    header = "x,y_or_prefix,depth,value,error,stabilized\n"
    for extra, row in (
        (["--y", "1,1"], '1,"1,1",,1.0,0.0,true\n'),
        (["--pattern", "1", "--depth", "6"], '1,"1,1,1,1,1,1...",6,1.0,0.0,true\n'),
    ):
        rc, out, err = run_cli(
            capsys, "free-kernel", "--preset", "z-lazy", "--x", "1", *extra
        )
        assert rc == 0 and err == ""
        assert out == header + row
    # the Martin kernel at the decay rate needs the fold, which one
    # generator does not have; the error names the route that does apply
    rc, out, err = run_cli(
        capsys, "free-kernel", "--preset", "z-lazy", "--x", "1",
        "--pattern", "1", "--t", "1.0",
    )
    assert rc == 2 and out == ""
    assert "lattice route (factor_kernel)" in err


def test_one_generator_free_kernel_tilts_a_drifted_walk(capsys, tmp_path):
    z1 = free_group(1)
    spec = finite_walk(
        z1,
        {
            identity(z1): Fraction(1, 4),
            word(z1, [1]): Fraction(9, 16),
            word(z1, [-1]): Fraction(3, 16),
        },
    )
    spec_path = tmp_path / "drift.spec"
    spec_path.write_text(dump_walk_spec(spec))
    rc, out, err = run_cli(
        capsys, "free-kernel", "--spec-file", str(spec_path), "--x", "1", "--y", "-1"
    )
    assert rc == 0 and err == ""
    _, (row,) = parse_csv(out)
    x, y = word(z1, [1]), word(z1, [-1])
    assert float(row[3]) == factor_kernel(spec, x, y).value
    # the tilt exp(c), c = ln(mu(-1) / mu(1)) / 2, is 1 / sqrt(3)
    assert math.isclose(float(row[3]), 1 / math.sqrt(3), rel_tol=1e-14)


# stdout of the commands that read only radius() and solve() on z-lazy
ONE_GENERATOR_STDOUT = {
    "martin-matrix": (
        ["--pattern", "1", "--depth", "44"],
        "x,y_or_prefix,depth,value,error,stabilized\n"
        '1,"' + ",".join(["1"] * 44) + '...",44,0.9999999999999433,0.0,true\n',
    ),
    "phi-claim": (
        ["--pattern", "1", "--depth", "4"],
        "x,y_or_prefix,depth,value,error,stabilized\n"
        "1,1...,2,0.9980079701397506,2.2318463168544628e-13,true\n"
        "1,1...,4,0.998015875012195,2.223052662920031e-13,true\n",
    ),
}


@pytest.mark.parametrize("command", sorted(ONE_GENERATOR_STDOUT))
def test_one_generator_radius_commands_keep_their_output(capsys, command):
    extra, want = ONE_GENERATOR_STDOUT[command]
    rc, out, err = run_cli(capsys, command, "--preset", "z-lazy", "--x", "1", *extra)
    assert rc == 0 and err == ""
    assert out == want


# -- phi-claim --------------------------------------------------------------------


def test_phi_claim_ratios_decrease_toward_one(capsys):
    rc, out, _ = run_cli(
        capsys,
        "phi-claim",
        "--depth",
        "6",
        "--z-offset",
        "1e-4",
        "--format",
        "json",
    )
    assert rc == 0
    payload = json.loads(out)
    values = [row["value"] for row in payload["rows"]]
    assert [row["depth"] for row in payload["rows"]] == [2, 4, 6]
    assert all(v > 1.0 for v in values)
    assert values[0] > values[1] > values[2]
    assert all(row["stabilized"] for row in payload["rows"])


def test_phi_claim_is_finite_next_to_the_singularity(capsys):
    rc, out, _ = run_cli(
        capsys, "phi-claim", "--depth", "2", "--z-offset", "1e-10",
        "--format", "json",
    )
    assert rc == 0
    (row,) = json.loads(out)["rows"]
    assert row["stabilized"]
    # phi(x, y) = sum_v G(x,v) G(v,y) / G(x,y) = 1 + z G'(x,y) / G(x,y),
    # with G' by central differences, step 1e-5 of the distance to r
    system = shared_system(preset("f2-lazy-uniform"))
    F2 = system.spec.alphabet
    r = float(system.radius().r)
    z = r * (1.0 - 1e-10)
    y = EndPrefix.from_pattern(F2, [2, -1], 2).word

    def phi(x):
        w = x.inverse() * y
        with mp.workprec(system.prec):
            zz = mp.mpf(z)
            h = (mp.mpf(r) - zz) * mp.mpf("1e-5")
            up = system.solve(zz + h).green_to(w)
            dn = system.solve(zz - h).green_to(w)
            return 1 + zz * (up - dn) / (2 * h) / system.solve(zz).green_to(w)

    want = float(phi(word(F2, [1, 1])) / phi(identity(F2)))
    assert abs(row["value"] - want) <= 1e-7 * want


# -- output plumbing ---------------------------------------------------------------


def test_out_flag_writes_identical_bytes(capsys, tmp_path):
    target = tmp_path / "kernel.csv"
    rc, out, _ = run_cli(capsys, "tree-kernel", "--depth", "12")
    assert rc == 0
    rc2, out2, _ = run_cli(
        capsys, "tree-kernel", "--depth", "12", "--out", str(target)
    )
    assert rc2 == 0
    assert out2 == ""
    assert target.read_text() == out


def test_repeated_runs_are_byte_identical(capsys):
    rc1, out1, _ = run_cli(capsys, "tree-kernel", "--depth", "20")
    rc2, out2, _ = run_cli(capsys, "tree-kernel", "--depth", "20")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_spec_file_round_trip(capsys, tmp_path, f2_spec):
    spec_path = tmp_path / "walk.spec"
    spec_path.write_text(dump_walk_spec(f2_spec))
    rc, from_file, _ = run_cli(
        capsys, "free-kernel", "--spec-file", str(spec_path), "--y", "2"
    )
    assert rc == 0
    rc2, from_preset, _ = run_cli(capsys, "free-kernel", "--y", "2")
    assert rc2 == 0
    assert from_file == from_preset


def test_spec_file_runs_name_no_preset(capsys, tmp_path):
    # the walk comes from the file, so the unused --preset default is not
    # reported: null in JSON, an empty cell in CSV
    spec_path = tmp_path / "z.spec"
    spec_path.write_text(dump_walk_spec(preset("z-lazy")))
    args = ["llt-fit", "--spec-file", str(spec_path), "--window", "100:400"]
    rc, out, _ = run_cli(capsys, *args)
    assert rc == 0
    header, rows = parse_csv(out)
    assert header == ["key", "value"]
    assert ["preset", ""] in rows
    rc, out, _ = run_cli(capsys, *args, "--format", "json")
    assert rc == 0
    assert json.loads(out)["preset"] is None
    rc, out, _ = run_cli(
        capsys, "free-kernel", "--spec-file", str(spec_path), "--y", "1",
        "--format", "json",
    )
    assert rc == 0
    assert json.loads(out)["meta"]["preset"] is None
    rc, out, _ = run_cli(capsys, "llt-fit", "--preset", "z-lazy", "--window", "100:400")
    assert ["preset", "z-lazy"] in parse_csv(out)[1]


# one cheap invocation of every subcommand, in its CSV format
CSV_COMMANDS = {
    "tree-kernel": ["--depth", "8", "--x", "1,2"],
    "free-kernel": ["--x", "1,2", "--y", "2,-1"],
    "ratio-converge": ["--preset", "z-lazy", "--n-max", "16"],
    "llt-fit": ["--preset", "z-lazy", "--window", "20:60"],
    "martin-matrix": ["--x", "1", "--pattern", "2,-1", "--depth", "44"],
    "product": ["--preset", "t3xZ", "--n-max", "60"],
    "reduced": ["--preset", "t3xZ", "--candidate-radius", "2", "--probe-radius", "1"],
    "ancona-check": ["--pairs", "2"],
    "phi-claim": ["--depth", "4"],
}


@pytest.mark.parametrize("command", sorted(CSV_COMMANDS))
def test_every_csv_row_has_the_header_width(capsys, command):
    rc, out, err = run_cli(capsys, command, *CSV_COMMANDS[command])
    assert rc == 0 and err == ""
    if command == "reduced":
        out, certificate = out.rstrip("\n").rsplit("\n", 1)
        assert certificate.startswith("# ")
    header, rows = parse_csv(out)
    assert rows
    assert all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize(
    "text,line",
    [
        ("mode finitely-supported\nrank 2\ne 1/2\n1 abc\n-1 1/2\n", "1 abc"),
        ("mode isotropic\nq 2\n0 1/2\nx 1/2\n", "x 1/2"),
    ],
)
def test_malformed_spec_file_exits_2(capsys, tmp_path, text, line):
    spec_path = tmp_path / "walk.spec"
    spec_path.write_text(text)
    rc, out, err = run_cli(
        capsys, "ratio-converge", "--spec-file", str(spec_path), "--n-max", "4"
    )
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and repr(line) in err


def _bad_path_args(tmp_path, case):
    """The arguments of one file error, and the path it should name."""
    if case == "out missing directory":
        path = tmp_path / "missing" / "out.csv"
        return ["--out", str(path)], str(path)
    path = tmp_path / "walk.spec"
    if case == "spec-file directory":
        path.mkdir()
    elif case == "spec-file not UTF-8":
        path.write_bytes(b"mode finitely-supported\nrank 2\ne 1/2\n\xff\xfe 1/2\n")
    return ["--spec-file", str(path)], str(path)


@pytest.mark.parametrize(
    "case",
    ["spec-file missing", "spec-file directory", "spec-file not UTF-8",
     "out missing directory"],
)
def test_file_errors_exit_2_naming_the_path(capsys, tmp_path, case):
    args, path = _bad_path_args(tmp_path, case)
    rc, out, err = run_cli(capsys, "ratio-converge", "--n-max", "4", *args)
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and path in err


def test_free_kernel_row_that_overflows_exits_3(capsys):
    argv = ("free-kernel", "--x", "1", "--y", "1", "--t", "1e308")
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err.startswith("error:") and "x = 1, target 1 is inf" in err


@pytest.mark.parametrize(
    "argv, target",
    [
        (("free-kernel", "--x", "1", "--pattern", "2,-1", "--t", "1e308"),
         "x = 1, target 2,-1,2,-1,"),
        (("tree-kernel", "--q", "100000000", "--depth", "120",
          "--x", ",".join(["1"] * 120)),
         "target 1,2,1,2,"),
    ],
    ids=["free-kernel", "tree-kernel"],
)
def test_kernel_row_whose_divisor_underflows_exits_3(capsys, argv, target):
    rc, out, err = run_cli(capsys, *argv)
    assert (rc, out) == (3, "")
    assert err.startswith("error:") and target in err and "underflows to 0" in err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_console_script(name):
    """The `module:function` entry of `name` in [project.scripts]."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def write_console_script(bin_dir, name, entry_point):
    """Write the wrapper an installer generates for a console_scripts entry."""
    module, _, func = entry_point.partition(":")
    bin_dir.mkdir(parents=True, exist_ok=True)
    script = bin_dir / name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        "if __name__ == '__main__':\n"
        f"    sys.exit({func}())\n"
    )
    script.chmod(0o755)


def test_console_script_is_installed(tmp_path):
    env = None
    if shutil.which("treewalks") is None:
        entry_point = declared_console_script("treewalks")
        write_console_script(tmp_path / "bin", "treewalks", entry_point)
        env = dict(os.environ)
        env["PATH"] = os.pathsep.join(
            p for p in (str(tmp_path / "bin"), env.get("PATH")) if p
        )
        # import the same treewalks as this process, whatever the cwd
        src_root = str(Path(treewalks.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_root, env.get("PYTHONPATH")) if p
        )
    proc = subprocess.run(
        ["treewalks", "tree-kernel", "--depth", "8"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("x,y_or_prefix,depth,value,error,stabilized")


# -- golden stdout ---------------------------------------------------------------


# stdout of six free-group invocations; a solver change that keeps every
# verdict leaves these bytes alone, so regenerate only for a change of output
GOLDEN = json.loads(
    (Path(__file__).parent / "golden_cli_stdout.json").read_text()
)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_stdout_matches_golden_bytes(capsys, case):
    rc, out, _ = run_cli(capsys, *case["argv"])
    assert rc == case["exit"]
    assert out == case["stdout"]


# -- import cost -----------------------------------------------------------------


def run_python(code):
    """Run code in a fresh interpreter that imports this process's treewalks."""
    src_root = str(Path(treewalks.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_import_loads_no_scipy():
    # scipy is imported inside the few routines that use it, so the
    # package import (the floor of every CLI call) does not pay for it
    assert run_python(f"import sys, treewalks\nprint({SCIPY_MODULES})") == "[]\n"


@pytest.mark.parametrize(
    "command",
    [
        "reduced --preset t3xZ --candidate-radius 4 --probe-radius 3",
        "reduced --preset z-lazy",
        "product --preset t3xZ",
        "ratio-converge --preset z-lazy --n-max 64",
    ],
)
def test_lattice_factor_commands_load_no_scipy(command):
    # the lattice decay rate bisects on its own, with no scipy.optimize
    code = (
        "import io, sys, contextlib\n"
        "from treewalks.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    rc = main({command.split()!r})\n"
        f"print(rc, {SCIPY_MODULES})"
    )
    assert run_python(code) == "0 []\n"
