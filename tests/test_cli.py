"""End-to-end command-line runs, in process via talbot.cli.main()."""
import argparse
import json
import math
import time

import numpy as np
import pytest

from talbot import (__version__, _fftsum, cli, evolution, kdv_solve, nls_wick_solve,
                    parse_datum, smoothing_residual)
from talbot.cli import ConfigError, main


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- bounds ------------------------------------------------------------------------

def test_bounds_oblique_example(capsys):
    code, out, _ = run(capsys, "bounds", "--theorem", "oblique", "--d", "2")
    assert code == 0
    assert out.strip() == "[7/4, 19/10]"


def test_bounds_single_value(capsys):
    code, out, _ = run(capsys, "bounds", "--theorem", "t32", "--r", "3")
    assert code == 0
    assert out.strip() == "5/8"


def test_bounds_fraction_flags(capsys):
    code, out, _ = run(capsys, "bounds", "--theorem", "exppair", "--k", "1/9",
                       "--ell", "13/18", "--alpha", "3/2")
    assert code == 0
    assert out.strip() == "7/9"


@pytest.mark.parametrize("flags, printed", [
    ("oblique --d 3", "[11/6, 53/27]"),
    ("weyl --d 3", "1/4"),
    ("vinogradov --d 4", "[13/12, 23/12]"),
    ("vdc --alpha 3/2", "1/4"),
    ("fracnls --alpha 3/2", "1/4"),
    ("heathbrown --alpha 5/2 --d 3", "11/12"),
    ("exppair --k 1/6 --ell 2/3 --alpha 3/2", "3/4"),
    ("strichartz --r0 1/2 --s 1/16 --q 4", "11/8"),
    ("t32 --r 3", "5/8"),
    ("t32dim", "[11/8, 13/8]"),
])
def test_bounds_every_theorem(capsys, flags, printed):
    code, out, _ = run(capsys, "bounds", "--theorem", *flags.split())
    assert code == 0
    assert out == printed + "\n"


def test_bounds_table(capsys, tmp_path):
    out_path = tmp_path / "table.json"
    code, out, _ = run(capsys, "bounds", "--table", "--out", str(out_path))
    assert code == 0
    assert len(out.strip().splitlines()) == 18
    assert len(read_json(out_path)["rows"]) == 18


def test_bounds_usage_errors(capsys):
    assert run(capsys, "bounds")[0] == 2  # neither --theorem nor --table
    assert run(capsys, "bounds", "--table", "--theorem", "t32")[0] == 2
    code, _, err = run(capsys, "bounds", "--theorem", "oblique")  # missing --d
    assert code == 2
    assert "config error" in err
    with pytest.raises(SystemExit) as info:  # rejected by argparse choices
        main(["bounds", "--theorem", "unknown"])
    assert info.value.code == 2
    capsys.readouterr()


# -- sweep -------------------------------------------------------------------------

def test_sweep_degenerate_zero_time(capsys):
    code, out, _ = run(capsys, "sweep", "--rel", "poly:-1,0,0",
                       "--at", "rat:0/1", "--scales", "6..10")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    entry = report["results"][0]
    assert entry["degenerate_control"] is True
    assert entry["sup"]["slope"] == pytest.approx(1.0, abs=1e-9)


def test_sweep_threshold_failure_still_writes_report(capsys, tmp_path):
    out_path = tmp_path / "sweep.json"
    code, _, err = run(capsys, "sweep", "--rel", "poly:-1,0,0",
                       "--at", "rat:0/1", "--scales", "6..9",
                       "--min-slope", "1.5", "--out", str(out_path))
    assert code == 1
    assert "threshold failed" in err
    report = read_json(out_path)
    assert report["passed"] is False
    assert report["failures"]


def test_sweep_csv_deterministic(capsys, tmp_path):
    argv = ["sweep", "--rel", "poly:1,0,0,0", "--at", "kl:sqrt2",
            "--scales", "64,128,256,512"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, *argv, "--csv", str(a))[0] == 0
    assert run(capsys, *argv, "--csv", str(b))[0] == 0
    text = a.read_text()
    assert text == b.read_text()
    assert text.splitlines()[0] == "at,N,sup_abs,l2,l4,grid,refined"
    assert len(text.splitlines()) == 5
    assert all(line.endswith(",1") for line in text.splitlines()[1:])


def test_sweep_seeded_and_oblique(capsys):
    code, out, _ = run(capsys, "sweep", "--rel", "poly:-1,0,0", "--seeds", "1,2",
                       "--oblique", "1/1", "--scales", "6..9")
    assert code == 0
    report = json.loads(out)
    assert len(report["results"]) == 2
    assert all("oblique" in entry["at"] for entry in report["results"])


@pytest.mark.parametrize("slope", ["a/b", "1", "1/"])
def test_sweep_oblique_slope_other_than_k_over_ell_exits_2(capsys, monkeypatch, slope):
    # the sweep reads its line through parse_slice, as dimension --slice does:
    # "1" and "1/" were read as 1/1, and "a/b" was refused without the slice
    def no_rows(*args, **kwargs):
        raise AssertionError("sup_norm_sweep ran on a bad slope")
    monkeypatch.setattr(cli, "sup_norm_sweep", no_rows)
    code, out, err = run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "kl:sqrt2",
                         "--oblique", slope, "--scales", "6..9")
    assert code == 2
    assert out == ""
    assert err == f"config error: bad oblique slice 'obliq:kl:sqrt2:{slope}'\n"


def test_sweep_usage_errors(capsys):
    assert run(capsys, "sweep", "--at", "rat:0/1")[0] == 2  # no --rel
    assert run(capsys, "sweep", "--rel", "poly:-1,0,0")[0] == 2  # no at/seeds
    assert run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1",
               "--seeds", "1")[0] == 2  # both
    assert run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1",
               "--scales", "9..25")[0] == 2  # exponent out of range


def test_sweep_with_fewer_than_four_scales_exits_2_before_any_row(capsys, monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("sup_norm_sweep ran before the scale count was checked")
    monkeypatch.setattr(cli, "sup_norm_sweep", no_rows)
    code, out, err = run(capsys, "sweep", "--rel", "frac:3/2", "--at", "kl:sqrt2",
                         "--scales", "17..19")
    assert code == 2
    assert out == ""
    assert "config error: the sup exponent fit needs at least four distinct scales" in err


@pytest.mark.parametrize("scales", ["8,8,16,32,64", "8,16,8,32,64,64"])
def test_sweep_with_a_repeated_scale_exits_2_before_any_row(capsys, monkeypatch, scales):
    # a repeated N was fitted as one more independent point: on kl:sqrt2 the
    # sup slope of 8,8,16,32,64 read 0.5309 with stderr 0.057, not 0.5162 and 0.079
    def no_rows(*args, **kwargs):
        raise AssertionError("sup_norm_sweep ran before the scales were checked")
    monkeypatch.setattr(cli, "sup_norm_sweep", no_rows)
    code, out, err = run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "kl:sqrt2",
                         "--scales", scales)
    assert code == 2
    assert out == ""
    assert f"config error: scale 8 is repeated in [{scales.replace(',', ', ')}]" in err


def test_sweep_row_past_the_offset_bound_exits_2_before_its_grid(capsys, monkeypatch):
    # cubic oblique frequencies n - n^3 reach 2^54 at N = 2^17, where
    # refinement offsets f*delta/G would no longer start from an exact double
    def no_grid(*args, **kwargs):
        raise AssertionError("grid_values ran before the offset bound was checked")
    monkeypatch.setattr(_fftsum, "grid_values", no_grid)
    code, out, err = run(capsys, "sweep", "--rel", "poly:1,0,0,0", "--at", "kl:sqrt2",
                         "--oblique", "1/1", "--scales", "17..20")
    assert code == 2
    assert out == ""
    assert ("config error: N=131072: max|f| = 2^54.00 is not below the 2^53 bound "
            "of refinement offsets") in err


SWEEP_SMALL = ("sweep", "--rel", "poly:-1,0,0", "--at", "rat:1/3", "--scales", "4..7")


@pytest.mark.parametrize("flags", [("--grid", "1024"), ("--no-refine",), ("--threads", "2")])
def test_removed_sweep_flags_exit_2(capsys, flags):
    # argparse rejects them: the grid and refinement are fixed, scales run serially
    with pytest.raises(SystemExit) as info:
        main([*SWEEP_SMALL, *flags])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("key, value", [("grid", 1024), ("no_refine", True), ("threads", 2)])
def test_removed_sweep_config_keys_exit_2(capsys, tmp_path, key, value):
    config = tmp_path / "sweep.json"
    config.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, *SWEEP_SMALL, "--config", str(config))
    assert code == 2
    assert out == ""
    assert f"config error: unknown config keys for this subcommand: {[key]}" in err


# -- quantize ------------------------------------------------------------------------

def test_quantize_default_run_passes(capsys, tmp_path):
    csv_path = tmp_path / "weights.csv"
    code, out, _ = run(capsys, "quantize", "--rel", "poly:-1,0,0",
                       "--a", "1", "--q", "2", "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "m,re,im"
    assert len(lines) == 3
    m, re, im = lines[2].split(",")
    assert (int(m), float(re), float(im)) == (1, 1.0, 0.0)


def test_quantize_missing_flags(capsys):
    assert run(capsys, "quantize", "--rel", "poly:-1,0,0", "--q", "2")[0] == 2


# -- l4count -------------------------------------------------------------------------

def test_l4count_counts_and_quadrature(capsys):
    code, out, _ = run(capsys, "l4count", "--h", "poly:1,1,0", "--K", "16,32")
    assert code == 0
    report = json.loads(out)
    rows = report["rows"]
    assert [r["count"] for r in rows] == [536, 2244]
    assert all(r["relative_error"] <= 1e-9 for r in rows)
    assert "count_slope" in report


def test_l4count_identical_block_sizes_have_no_slope(capsys):
    # a count slope through two equal K is undefined, so it cannot be gated:
    # the repeated K is refused before any count
    code, out, err = run(capsys, "l4count", "--h", "poly:1,1,0", "--K", "16,16",
                         "--max-slope", "2.25")
    assert code == 2
    assert out == ""
    assert "config error: block size 16 is repeated in [16, 16]" in err


def test_l4count_repeated_block_size_exits_2_before_any_count(capsys, monkeypatch):
    # with a third K the slope was defined, and the repeated K counted twice in it
    def no_count(*args, **kwargs):
        raise AssertionError("l4_quadruple_oracle ran before the block sizes were checked")
    monkeypatch.setattr(cli, "l4_quadruple_oracle", no_count)
    code, out, err = run(capsys, "l4count", "--h", "poly:1,1,0", "--K", "16,16,32")
    assert code == 2
    assert out == ""
    assert "config error: block size 16 is repeated in [16, 16, 32]" in err


def test_l4count_slope_gate_needs_two_block_sizes(capsys):
    code, out, err = run(capsys, "l4count", "--h", "poly:1,1,0", "--K", "16",
                         "--max-slope", "0.1")
    assert code == 2
    assert out == ""
    assert "config error: --max-slope gates the count slope" in err


def test_l4count_skip_quadrature(capsys):
    code, out, _ = run(capsys, "l4count", "--h", "poly:1,0,0", "--K", "16",
                       "--skip-quadrature")
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["count"] == 500
    assert report["rows"][0]["quadrature"] is None


def test_l4count_nontrivial_count_is_exact(capsys):
    # 9600 quadruples, less the 2*64^2 - 64 = 8128 trivial ones
    code, out, _ = run(capsys, "l4count", "--h", "poly:1,1,0", "--K", "64",
                       "--skip-quadrature")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["count"] == 9600
    assert row["nontrivial_resonances"] == 1472


# -- solvers -------------------------------------------------------------------------

def test_nls_quick_run(capsys, tmp_path):
    res_csv = tmp_path / "residual.csv"
    code, out, _ = run(capsys, "nls", "--M", "256", "--dt", "1e-3",
                       "--t-max", "0.05", "--residual-length", "4096",
                       "--residual-csv", str(res_csv))
    assert code == 0
    report = json.loads(out)
    assert report["run"]["kind"] == "nls"
    assert report["run"]["l2_drift"] < 1e-8
    assert 0.0 < report["residual_rms"] < 1.0
    lines = res_csv.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 4096
    x, re, im = lines[5].split(",")  # every cell parses back to a float
    float(x), float(re), float(im)


def test_nls_holder_threshold_failure(capsys):
    code, out, err = run(capsys, "nls", "--M", "128", "--dt", "1e-3",
                         "--t-max", "0.02", "--residual-length", "4096",
                         "--min-holder", "0.99")
    assert code == 1
    assert "residual Holder" in err
    assert json.loads(out)["passed"] is False


def test_kdv_blowup_reports_failure(capsys):
    code, out, _ = run(capsys, "kdv", "--data", "step:0,pi:1200,-1200",
                       "--M", "64", "--dt", "1e-3", "--t-max", "0.01")
    assert code == 1
    report = json.loads(out)
    assert report["blow_up"]["kind"] == "kdv"
    assert report["failures"]


def test_kdv_runs_on_its_own_default_datum(capsys):
    # no --data: the default is the mean-zero step of criterion 10
    code, out, _ = run(capsys, "kdv", "--M", "64", "--dt", "1e-3", "--t-max", "0.05")
    assert code == 0
    report = json.loads(out)
    assert report["config"]["options"]["data"] == "step:0,pi:0.5,-0.5"
    assert "sign" not in report["config"]["options"]
    assert report["run"]["mean_drift"] == 0.0


def test_kdv_config_sign_is_an_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "kdv.json"
    cfg.write_text(json.dumps({"sign": -1}))
    code, out, err = run(capsys, "kdv", "--M", "8", "--dt", "1e-3", "--t-max", "0.01",
                         "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "config error: unknown config keys for this subcommand: ['sign']" in err


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic warns
@pytest.mark.parametrize("kind, value", [("nls", "nan"), ("kdv", "inf")])
def test_solver_non_finite_datum_is_a_config_error(capsys, kind, value):
    code, out, err = run(capsys, kind, "--data", f"step:0,pi:{value},1",
                         "--M", "8", "--dt", "1e-3", "--t-max", "0.01")
    assert code == 2
    assert out == ""
    assert "config error: datum must be finite" in err


@pytest.mark.parametrize("kind", ["nls", "kdv"])
def test_solver_snapshot_between_steps_is_a_config_error(capsys, kind):
    code, out, err = run(capsys, kind, "--M", "8", "--dt", "1e-4", "--t-max", "1e-3",
                         "--snapshots", "0.00015")
    assert code == 2
    assert out == ""
    assert "config error: snapshot time 0.00015 must be an integer multiple of dt" in err


@pytest.mark.parametrize("kind", ["nls", "kdv"])
@pytest.mark.parametrize("flags, message", [
    (("--t-max", "inf"), "t_max must be finite and nonnegative, got inf"),
    (("--t-max", "1e400"), "t_max must be finite and nonnegative, got inf"),
    (("--t-max", "nan"), "t_max must be finite and nonnegative, got nan"),
    (("--snapshots", "inf"), "snapshot time inf is not a finite number"),
    (("--snapshots", "0.001,1e400"), "snapshot time inf is not a finite number"),
])
def test_solver_non_finite_time_is_a_config_error(capsys, kind, flags, message):
    # an infinite time overflowed the step count with a traceback and exit 1
    code, out, err = run(capsys, kind, "--M", "16", *flags)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize("kind, solver", [("nls", "nls_wick_solve"), ("kdv", "kdv_solve")])
@pytest.mark.parametrize("M, length, message", [
    # not a power of two
    pytest.param("1024", "1000", "length must be a power of two >= 2M+1", id="1000"),
    # below 2M+1 = 2049
    pytest.param("1024", "1024", "length must be a power of two >= 2M+1", id="1024"),
    # below the Holder exponent's 4096 samples: refused only after the whole solve
    pytest.param("512", "2048", "--residual-length 2048 is below the 4096 samples of the "
                                "residual's Holder exponent", id="2048"),
])
def test_bad_residual_length_exits_2_before_the_solve(capsys, monkeypatch, kind, solver,
                                                      M, length, message):
    def no_solve(*args, **kwargs):
        raise AssertionError("the solver ran before the residual length was checked")
    monkeypatch.setattr(cli, solver, no_solve)
    code, out, err = run(capsys, kind, "--M", M, "--residual-length", length)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


def _unreachable(*args, **kwargs):
    raise AssertionError("a series was evolved or a step taken past the grid cap")


@pytest.mark.parametrize("argv, module, guarded", [
    (("dimension", "--rel", "poly:-1,0,0", "--slice", "horiz:rat:1/3"), evolution, "line_spectrum"),
    (("quantize", "--rel", "poly:-1,0,0", "--a", "1", "--q", "3"), evolution, "quantize_coefficients"),
    (("nls", "--residual-length"), cli, "nls_wick_solve"),
    (("kdv", "--residual-length"), cli, "kdv_solve"),
])
def test_grid_above_the_cap_exits_2_before_any_series_or_step(capsys, monkeypatch, argv,
                                                              module, guarded):
    # 2^23 complex samples are 128 MiB; the one cap, GRID_CAP = 2^22, refuses them
    monkeypatch.setattr(module, guarded, _unreachable)
    length = str(2 * _fftsum.GRID_CAP)
    flag = () if argv[-1] == "--residual-length" else ("--length",)
    code, out, err = run(capsys, *argv, *flag, length)
    assert code == 2
    assert out == ""
    assert f"grid of {length} points too large" in err


# -- CSV tables ---------------------------------------------------------------------

def test_csv_cells_are_repr_of_float_or_str(tmp_path):
    # a numpy scalar's repr is np.float64(...) under numpy 2, so floats are cast
    path = tmp_path / "t.csv"
    cli._write_csv(str(path), "a,b,c,d", [(np.float64(0.1), 3, None, "oblique(k=1, ell=1)")])
    assert path.read_text() == "a,b,c,d\n0.1,3,None,oblique(k=1, ell=1)\n"


def _sample_lines(samples: np.ndarray, period: float) -> list[str]:
    """The x,re,im table of uniform samples over [0, period), cell by cell."""
    xs = np.arange(len(samples)) * (period / len(samples))
    return ["x,re,im"] + [f"{x!r},{v.real!r},{v.imag!r}" for x, v in
                          zip(xs.tolist(), samples.astype(np.complex128).tolist())]


@pytest.mark.parametrize("kind, solve, data", [("nls", nls_wick_solve, "step:0,pi"),
                                               ("kdv", kdv_solve, "step:0,pi:0.5,-0.5")])
def test_solver_csvs_hold_every_sample_of_the_final_field_and_the_residual(
        capsys, tmp_path, kind, solve, data):
    final, res = tmp_path / "final.csv", tmp_path / "res.csv"
    code, _, _ = run(capsys, kind, "--M", "8", "--dt", "1e-3", "--t-max", "0.01",
                     "--csv", str(final), "--residual-csv", str(res))
    assert code == 0
    traj = solve(parse_datum(data), M=8, dt=1e-3, t_max=0.01)
    assert final.read_text().splitlines() == _sample_lines(traj.final.values(), 2 * math.pi)
    assert res.read_text().splitlines() == _sample_lines(smoothing_residual(traj).samples,
                                                         2 * math.pi)


def test_dimension_csv_spans_the_period_of_its_slice(capsys, tmp_path):
    # an oblique slice of slope k/ell runs over [0, 2 pi ell)
    csv_path = tmp_path / "slice.csv"
    code, _, _ = run(capsys, "dimension", "--rel", "poly:-1,0,0", "--slice",
                     "obliq:rat:1/3:1/2", "--truncation", "256", "--length", "16384",
                     "--csv", str(csv_path))
    assert code == 0
    sg = evolution.evolve_slice("poly:-1,0,0", parse_datum("step:0,pi"),
                                evolution.parse_slice("obliq:rat:1/3:1/2"),
                                M=256, length=16384)
    assert csv_path.read_text().splitlines() == _sample_lines(sg.samples, 4 * math.pi)


# -- dimension ------------------------------------------------------------------------

def test_dimension_quick_run(capsys, tmp_path):
    csv_path = tmp_path / "slice.csv"
    code, out, _ = run(capsys, "dimension", "--rel", "poly:-1,0,0",
                       "--slice", "horiz:kl:sqrt2", "--truncation", "2048",
                       "--length", "16384", "--csv", str(csv_path))
    assert code == 0
    report = json.loads(out)
    assert 1.0 <= report["box_dimension"] <= 2.0
    assert set(report["parts"]) == {"re", "im"}
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,re,im"
    assert len(lines) == 1 + 16384


def test_dimension_skips_the_rounding_noise_part(capsys):
    # an odd omega with a real datum gives a real field: Im is rounding noise
    # and must not set the reported max/min
    code, out, _ = run(capsys, "dimension", "--rel", "poly:1,0,0,0",
                       "--slice", "horiz:kl:sqrt2", "--truncation", "2048",
                       "--length", "16384")
    assert code == 0
    report = json.loads(out)
    im, re = report["parts"]["im"], report["parts"]["re"]
    assert im["box_dimension"] is None and im["holder"] is None
    assert "rounding noise" in im["skipped"]
    assert report["box_dimension"] == re["box_dimension"]
    assert report["holder_exponent"] == re["holder"]["slope"]
    assert 1.2 <= report["box_dimension"] <= 1.8


def test_dimension_threshold_failure(capsys):
    code, _, err = run(capsys, "dimension", "--rel", "poly:-1,0,0",
                       "--slice", "horiz:kl:sqrt2", "--truncation", "1024",
                       "--length", "8192", "--min-dim", "1.99")
    assert code == 1
    assert "box dimension" in err


@pytest.mark.parametrize("drop, kept", [("2,4", 1), ("3,4", 0)])
def test_dimension_drop_window_too_small(capsys, drop, kept):
    code, out, err = run(capsys, "dimension", "--rel", "poly:-1,0,0",
                         "--slice", "horiz:kl:phi", "--truncation", "1024",
                         "--length", "16384", "--drop", drop)
    assert code == 2
    assert out == ""
    assert f"keeps {kept} of the 7 box-count scales" in err


def test_dimension_needs_slice(capsys):
    assert run(capsys, "dimension", "--rel", "poly:-1,0,0")[0] == 2


@pytest.mark.parametrize("argv", [
    ("sweep", "--rel", "poly:-1,0,0", "--at", "rat:1/0", "--scales", "6..7"),
    ("sweep", "--rel", "frac:1/0", "--at", "rat:1/3", "--scales", "6..7"),
    ("dimension", "--rel", "poly:-1,0,0", "--data", "step:0,pi/0", "--slice", "horiz:rat:1/3"),
    ("dimension", "--rel", "poly:-1,0,0", "--slice", "vert:pi/0:0,1"),
    ("dimension", "--rel", "poly:-1,0,0", "--slice", "obliq:rat:1/0:1/1"),
])
def test_zero_denominator_is_a_config_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "config error:" in err


@pytest.mark.parametrize("argv", [
    ("quantize", "--rel", "poly:-1,0,0", "--a", "1", "--q", "2", "--data", "step:0:1,2,3"),
    ("dimension", "--rel", "poly:-1,0,0", "--slice", "horiz:rat:1/3", "--data", "step:0,pi:1"),
])
def test_datum_with_a_value_count_unlike_its_breakpoint_count_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "config error:" in err and "breakpoints but" in err


@pytest.mark.parametrize("slc", ["vert:0:1/4,1/4", "vert:0:1/2,1/4"])
def test_empty_or_reversed_vertical_slice_is_a_config_error(capsys, tmp_path, slc):
    csv_path = tmp_path / "trace.csv"
    code, out, err = run(capsys, "dimension", "--rel", "poly:-1,0,0", "--slice", slc,
                         "--truncation", "256", "--length", "16384", "--csv", str(csv_path))
    assert code == 2
    assert out == "" and not csv_path.exists()
    assert "config error:" in err and "t0 < t1" in err


@pytest.mark.parametrize("rel, slc, message", [
    ("frac:1/2", "vert:0:0,1/2", "integer-valued"),
    ("poly:-1,0,0", "vert:0:0,kl:sqrt2", "rational endpoints"),
    ("poly:-1,0,0", "vert:0:0,1/997", "too large"),
])
def test_unsampleable_vertical_slice_is_a_config_error(capsys, tmp_path, rel, slc, message):
    csv_path = tmp_path / "trace.csv"
    code, out, err = run(capsys, "dimension", "--rel", rel, "--slice", slc,
                         "--truncation", "256", "--length", "16384", "--csv", str(csv_path))
    assert code == 2
    assert out == "" and not csv_path.exists()
    assert "config error:" in err and message in err


# -- acceptance -----------------------------------------------------------------------

def test_acceptance_only_exact_criterion(capsys, tmp_path):
    out_path = tmp_path / "acc.json"
    code, _, err = run(capsys, "acceptance", "--only", "11", "--out", str(out_path))
    assert code == 0
    report = read_json(out_path)
    assert report["passed"] is True
    assert [c["number"] for c in report["criteria"]] == [11]
    assert "[11] pass" in err


def test_acceptance_unknown_criterion(capsys):
    assert run(capsys, "acceptance", "--only", "99")[0] == 2


# -- comma lists ----------------------------------------------------------------------

SWEEP = ("sweep", "--rel", "poly:-1,0,0")


@pytest.mark.parametrize("argv, message", [
    ((*SWEEP, "--seeds", ",", "--scales", "6..9"), "empty seed list"),
    ((*SWEEP, "--seeds", "1,x", "--scales", "6..9"), "bad seed list '1,x'"),
    (("l4count", "--h", "poly:1,1,0", "--K", ","), "empty block size list"),
    (("l4count", "--h", "poly:1,1,0", "--K", "16,3.5"), "bad block size list '16,3.5'"),
    (("acceptance", "--only", ","), "empty criterion list"),
    (("acceptance", "--only", "1,x"), "bad criterion list '1,x'"),
    (("nls", "--M", "64", "--snapshots", ","), "empty snapshot time list"),
    (("kdv", "--M", "64", "--snapshots", "0.1,x"), "bad snapshot time list '0.1,x'"),
    (("dimension", "--rel", "poly:-1,0,0", "--slice", "horiz:rat:1/3", "--drop", ","),
     "empty drop list"),
    ((*SWEEP, "--at", "rat:0/1", "--scales", ","), "empty scale list"),
    ((*SWEEP, "--at", "rat:0/1", "--scales", "64,x,256"), "bad scale list '64,x,256'"),
])
def test_comma_list_flags_refuse_bad_or_empty_lists(capsys, argv, message):
    # an empty --only ran nothing and passed; an empty --seeds or --K swept
    # nothing and an empty --snapshots took none: each exits 2 before any work
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"config error: {message}\n"


# -- configuration ----------------------------------------------------------------------

def test_config_file_fills_missing_flags(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"at": "rat:0/1", "scales": "6..9"}))
    code, out, _ = run(capsys, "sweep", "--rel", "poly:-1,0,0",
                       "--config", str(cfg), "--scales", "6..10")
    assert code == 0
    report = json.loads(out)
    # CLI flag wins over the config file; config fills what the CLI omitted
    assert report["config"]["options"]["scales"] == "6..10"
    assert report["config"]["options"]["at"] == "rat:0/1"
    assert len(report["results"][0]["sup"]["scales"]) == 5


def test_config_file_full_form(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"subcommand": "bounds",
                               "options": {"theorem": "weyl", "d": 3}}))
    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert out.strip() == "1/4"


def test_config_file_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, "sweep", "--rel", "poly:-1,0,0",
                       "--at", "rat:0/1", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys" in err


def test_config_file_unreadable(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1",
               "--config", str(missing))[0] == 2
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1",
               "--config", str(broken))[0] == 2


@pytest.mark.parametrize("content", [[], {"subcommand": "sweep", "options": ["at"]}])
def test_config_file_not_an_object(capsys, tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(content))
    code, out, err = run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1",
                         "--scales", "4..7", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert "must hold a JSON object" in err


def test_config_file_sets_a_store_true_flag(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"table": True}))
    code, out, _ = run(capsys, "bounds", "--config", str(cfg))
    assert code == 0
    assert len(out.strip().splitlines()) == 18
    cfg.write_text(json.dumps({"skip_quadrature": True}))
    code, out, _ = run(capsys, "l4count", "--h", "poly:1,0,0", "--K", "16",
                       "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["rows"][0]["quadrature"] is None


def test_experiment_config_round_trip(capsys, tmp_path):
    # a report's config block, saved as a file, reproduces the run on its own
    code, out, _ = run(capsys, "sweep", "--rel", "poly:-1,0,0", "--at", "kl:sqrt2",
                       "--scales", "6..9", "--min-slope", "0.3")
    assert code == 0
    first = json.loads(out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(first["config"]))
    code, out, _ = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    again = json.loads(out)
    assert again["config"] == first["config"]
    assert again["results"] == first["results"]


def test_report_envelope_fields(capsys):
    code, out, _ = run(capsys, "sweep", "--rel", "poly:-1,0,0",
                       "--at", "rat:0/1", "--scales", "6..9")
    assert code == 0
    report = json.loads(out)
    for key in ("subcommand", "version", "timestamp", "elapsed_s", "config", "results",
                "failures", "passed"):
        assert key in report
    assert report["version"] == __version__


@pytest.mark.parametrize("argv", [
    ("sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1", "--scales", "6..9"),
    ("dimension", "--rel", "poly:-1,0,0", "--slice", "horiz:kl:sqrt2",
     "--truncation", "2048", "--length", "16384"),
    ("nls", "--M", "128", "--dt", "1e-3", "--t-max", "0.02", "--residual-length", "4096"),
], ids=lambda argv: argv[0])
def test_report_states_its_wall_seconds_outside_the_options(capsys, argv):
    before = time.perf_counter()
    code, out, _ = run(capsys, *argv)
    took = time.perf_counter() - before
    assert code == 0
    report = json.loads(out)
    assert 0.0 <= report["elapsed_s"] <= took + 1e-3
    assert "started" not in report["config"]["options"]
    assert "elapsed_s" not in report["config"]["options"]


def test_help_shows_the_defaults(capsys):
    with pytest.raises(SystemExit) as info:
        main(["sweep", "--help"])
    assert info.value.code == 0
    out = capsys.readouterr().out
    assert "(default 8..16)" in out and "(default unit)" in out and "(default +)" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == f"talbot {__version__}"


def _options_of_every_subcommand() -> list[tuple[str, argparse.Action]]:
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, action) for name, sub in subparsers.items() for action in sub._actions
            if action.dest not in ("help", "config")]


def _non_default(action: argparse.Action):
    """A value of the option other than its default, as a JSON file holds it."""
    if action.nargs == 0:
        return True
    if action.choices:
        return list(action.choices)[-1]
    return {int: 3, float: 0.25, cli._threshold: 0.25}.get(action.type, "x")


@pytest.mark.parametrize("subcommand, action", _options_of_every_subcommand(),
                         ids=lambda v: v if isinstance(v, str) else v.option_strings[0].lstrip("-"))
def test_config_value_parses_like_its_flag(tmp_path, subcommand, action):
    value = _non_default(action)
    flag = [action.option_strings[0]] + ([] if value is True else [str(value)])
    from_flag = vars(cli._parse_args([subcommand, *flag]))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({action.dest: value}))
    from_file = vars(cli._parse_args([subcommand, "--config", str(cfg)]))
    assert from_flag[action.dest] != action.default
    assert (from_flag.pop("config"), from_file.pop("config")) == (None, str(cfg))
    assert from_file == from_flag


@pytest.mark.parametrize("argv, options, message", [
    (["sweep", "--rel", "poly:-1,0,0", "--at", "rat:0/1"], {"scales": 8},
     "config error: the sup exponent fit needs at least four distinct scales"),
    (["sweep", "--at", "rat:0/1", "--scales", "4..7"], {"rel": 5}, "config error:"),
    (["nls"], {"M": 64.5}, "argument --M: invalid int value: '64.5'"),
    (["dimension", "--rel", "poly:-1,0,0", "--slice", "horiz:rat:1/3"], {"truncation": 1024.9},
     "argument --truncation: invalid int value: '1024.9'"),
    (["l4count", "--h", "poly:1,0,0"], {"skip_quadrature": "false"},
     "argument --skip-quadrature: ignored explicit argument 'false'"),
])
def test_config_value_of_the_wrong_kind_exits_2(capsys, tmp_path, argv, options, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(options))
    try:
        code = main([*argv, "--config", str(cfg)])
    except SystemExit as exc:  # rejected by argparse, as the same flag is
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert message in err


THRESHOLD_FLAGS = [("sweep", "--min-slope"), ("sweep", "--max-slope"),
                   ("dimension", "--min-dim"), ("dimension", "--max-dim"),
                   ("dimension", "--min-holder"), ("quantize", "--max-deviation"),
                   ("l4count", "--max-slope"), ("nls", "--min-holder"),
                   ("nls", "--max-l2-drift"), ("kdv", "--min-holder"),
                   ("kdv", "--max-l2-drift")]


@pytest.mark.parametrize("subcommand, flag", THRESHOLD_FLAGS)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_threshold_that_is_not_finite_exits_2_before_any_work(
        capsys, monkeypatch, tmp_path, subcommand, flag, value, source):
    # every comparison with NaN is false, so a NaN threshold never failed a run
    def no_work(args):
        raise AssertionError("the run started with a threshold that is not finite")
    for handler in ("_cmd_sweep", "_cmd_dimension", "_cmd_quantize", "_cmd_l4count",
                    "_cmd_solver"):
        monkeypatch.setattr(cli, handler, no_work)
    if source == "flag":
        argv = [subcommand, f"{flag}={value}"]   # "-inf" alone would read as a flag
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({flag.lstrip("-").replace("-", "_"): value}))
        argv = [subcommand, "--config", str(cfg)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert f"argument {flag}: '{value}' is not a finite number" in capsys.readouterr().err
