import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import dftstat
from dftstat import CorrectionSpec
from dftstat.cli import (main, read_series, apply_transform, _parse_lag_list, _study,
                         build_parser)
from dftstat.errors import InputError


def write_series(path, values, header=None):
    lines = ([header] if header else []) + [f"{v!r}" for v in values]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture()
def model1_file(tmp_path):
    path = tmp_path / "series.txt"
    rc = main(["simulate", "model1", "--T", "512", "--seed", "9",
               "--output", str(path)])
    assert rc == 0
    return path


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def test_read_series_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "data.txt"
    p.write_text("# a comment\n1.5\n\n2.5\n# another\n3.5\n")
    assert read_series(str(p)).tolist() == [1.5, 2.5, 3.5]


def test_read_series_csv_column_with_header(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("date,value\n2001,1.0\n2002,2.0\n")
    assert read_series(str(p), column=1).tolist() == [1.0, 2.0]


def test_read_series_non_numeric_row(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\nnot-a-number\n")
    with pytest.raises(InputError):
        read_series(str(p))


def test_read_series_rejects_a_negative_column(tmp_path):
    p = tmp_path / "data.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n")
    with pytest.raises(InputError, match="column"):
        read_series(str(p), column=-1)


def test_read_series_missing_and_empty(tmp_path):
    with pytest.raises(InputError):
        read_series(str(tmp_path / "nope.txt"))
    p = tmp_path / "empty.txt"
    p.write_text("# only comments\n")
    with pytest.raises(InputError):
        read_series(str(p))


def test_transform_sqrt_abs_logdiff2():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    out = apply_transform(y, "sqrt-abs-logdiff2")
    expected = np.sqrt(np.abs(np.log(y[2:] ** 2) - np.log(y[:-2] ** 2)))
    assert np.allclose(out, expected)
    with pytest.raises(InputError):
        apply_transform(np.array([1.0, 0.0, 2.0]), "sqrt-abs-logdiff2")


def test_parse_lag_list():
    assert _parse_lag_list("3,17,40") == (3, 17, 40)
    assert _parse_lag_list("1..5") == (1, 2, 3, 4, 5)
    assert _parse_lag_list("1..3,10") == (1, 2, 3, 10)
    with pytest.raises(InputError):
        _parse_lag_list("5..1")
    with pytest.raises(InputError):
        _parse_lag_list("abc")
    # with the series length, a range is cut after it: from T on every lag is bad
    assert _parse_lag_list("1..1000000000,5", 64) == (*range(1, 65), 5)
    assert _parse_lag_list("100..1000000000", 64) == (100,)
    assert _parse_lag_list("1..5", 64) == (1, 2, 3, 4, 5)


# --m and --lags ranges far beyond T fail at the same first bad lag as T itself,
# without building the lags (10**9 of them would not fit in memory)
@pytest.mark.parametrize("argv, at_T, huge", [
    ("test {series}", "--m 64", "--m 10000000"),
    ("test {series}", "--lags 1..64", "--lags 1..10000000"),
    ("segment {series} --depth 1", "--m 64", "--m 10000000"),
    ("segment {series} --depth 1", "--lags 1..64", "--lags 1..10000000"),
    ("mc model1 --T 64 --N 2 --outdir {out}", "--m 64", "--m 10000000"),
    ("scan model1 --T 64 --N 2 --outdir {out}", "--lags 1..64", "--lags 1..10000000"),
])
def test_a_huge_lag_count_exits_2_like_m_equal_T(argv, at_T, huge, tmp_path, capsys):
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(4).standard_normal(64).tolist())
    errors = []
    for lag_flags in (at_T, huge):
        assert main(f"{argv} {lag_flags}".format(series=series, out=tmp_path).split()) == 2
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == "error: lag 32 equals T/2 and is excluded for T=64\n"


# ---------------------------------------------------------------------------
# test / segment commands
# ---------------------------------------------------------------------------


def test_zero_series_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "zeros.txt"
    write_series(p, [0.0] * 512)
    rc = main(["test", str(p)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "zero variance" in captured.err


@pytest.mark.parametrize("command", [["test", "--m", "6"], ["segment", "--depth", "1"]])
def test_a_series_at_any_power_of_two_scale_gives_the_same_report(command, tmp_path, capsys):
    x = np.random.default_rng(12).standard_normal(257)  # prime: the kernel's loop route
    reports = []
    for k in (0, -900, -600, 600, 900):
        p = tmp_path / f"x{k}.txt"
        write_series(p, np.ldexp(x, k).tolist())
        rc = main([command[0], str(p), *command[1:], "--format", "json"])
        captured = capsys.readouterr()
        assert (rc, captured.err) == (0, "")
        payload = json.loads(captured.out)
        payload.get("config", {}).pop("input")
        reports.append(payload)
    assert all(report == reports[0] for report in reports)


@pytest.mark.parametrize("command", [["test"], ["segment", "--depth", "1"]])
def test_a_zero_ridge_on_a_cosine_exits_3_suggesting_a_ridge(command, tmp_path, capsys):
    p = tmp_path / "cosine.txt"
    write_series(p, np.cos(2 * np.pi * 5 * np.arange(1, 257) / 256).tolist())
    rc = main([command[0], str(p), *command[1:], "--ridge-factor", "0"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "smoothed spectrum is zero" in captured.err
    assert "ridge_factor > 0" in captured.err
    assert captured.out == ""


def test_test_command_echoes_lags(model1_file, capsys):
    rc = main(["test", str(model1_file), "--lags", "3,17,40", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "test"
    assert payload["config"]["lags"] == [3, 17, 40]
    assert payload["result"]["dof"] == 6


def test_exit_code_zero_even_when_rejecting(tmp_path, capsys):
    p = tmp_path / "m6.txt"
    assert main(["simulate", "model6", "--T", "512", "--seed", "4",
                 "--output", str(p)]) == 0
    rc = main(["test", str(p), "--m", "10", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["decisions"]["0.05"] is True


def test_formats_carry_identical_numbers(model1_file, capsys, tmp_path):
    rc = main(["test", str(model1_file), "--m", "4", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)

    csv_path = tmp_path / "out.csv"
    rc = main(["test", str(model1_file), "--m", "4", "--format", "csv",
               "--output", str(csv_path)])
    assert rc == 0
    header, row = csv_path.read_text().strip().splitlines()
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["statistic"]) == payload["result"]["statistic"]
    assert float(cols["p_value"]) == payload["result"]["p_value"]

    rc = main(["test", str(model1_file), "--m", "4"])
    assert rc == 0
    text = capsys.readouterr().out
    assert f"{payload['result']['statistic']:.6g}" in text


def test_conflicting_lag_flags_rejected_before_output(model1_file, tmp_path, capsys):
    out = tmp_path / "never.json"
    rc = main(["test", str(model1_file), "--m", "4", "--lags", "1,2",
               "--format", "json", "--output", str(out)])
    assert rc == 2
    assert not out.exists()
    assert "not both" in capsys.readouterr().err


# Arguments that at one time gave a silent wrong answer or a traceback: a
# level outside (0, 1), a negative CSV column, no replications, a
# non-positive T for the finite lag shift, an --output in a missing
# directory. Each must exit 2 before anything is written.
BAD_ARGV = [
    "test {series} --level 2 --format csv --output {out}/report.csv",
    "test {series} --level 0.05 --level 0 --format json --output {out}/report.json",
    "test {series} --column -1 --format csv --output {out}/report.csv",
    "segment {series} --depth 1 --level 1.5 --format csv --output {out}/report.csv",
    "scan model6 --T 64 --lags 1..3 --N 0 --outdir {out}",
    "power model6 --lags 1..3 --T 0 --finite-lag-shift --outdir {out}",
    "power model3 --lags 1..3 --T 0 --finite-lag-shift --outdir {out}",
    "power model6 --lags 1..3 --T -512 --finite-lag-shift --outdir {out}",
    "power model4 --lags 1..3 --T 0 --outdir {out}",
    "test {series} --format json --output {out}/missing/r.json",
    "simulate model1 --T 64 --output {out}/missing/x.csv",
    "segment {series} --depth 40 --format csv --output {out}/report.csv",
]


@pytest.mark.parametrize("argv", BAD_ARGV)
def test_bad_arguments_exit_2_and_write_nothing(argv, tmp_path, capsys):
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(4).standard_normal(128).tolist())
    rc = main(argv.format(series=series, out=tmp_path / "out").split())
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [series]


@pytest.mark.parametrize("flags, named", [
    ("--correction linear --psi 1,x --kappa4 1", "--psi"),
    ("--correction user --kappa a", "--kappa"),
    ("--ridge-factor inf", "ridge_factor"),
    ("--ridge-factor nan", "ridge_factor"),
    ("--correction linear --psi 1,0.5 --kappa4 inf", "kappa4"),
    ("--correction linear --psi 1,0.5 --kappa4 nan", "kappa4"),
    ("--correction user --kappa inf,0,0,0", "kappa"),
    ("--correction user --kappa 0,nan,0,0", "kappa"),
])
def test_unusable_model_flags_exit_2_naming_the_flag(flags, named, tmp_path, capsys):
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(4).standard_normal(128).tolist())
    out = tmp_path / "report.csv"
    rc = main(["test", str(series), *flags.split(), "--format", "csv", "--output", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and named in err
    assert not out.exists()


@pytest.mark.parametrize("spec, named", [
    ([1, 2], "'family'"),
    ({"family": "changepoint_ar", "segments": [[0.5]]}, "'segments'"),
    ({"family": "modulated_noise", "sigma": {"kind": "constant"}}, "'value'"),
    ({"family": "ar_ma", "ar": [0.5, "x"]}, "'ar'"),
])
@pytest.mark.parametrize("command", ["simulate {spec} --T 64 --output {out}/x.csv",
                                     "power {spec} --lags 1..2 --outdir {out}"])
def test_malformed_json_model_spec_exits_2_naming_the_field(command, spec, named,
                                                           tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc = main(command.format(spec=path, out=tmp_path / "out").split())
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and named in err
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] == ["spec.json"]


@pytest.mark.parametrize("argv", [
    "power model6 --lags 1..2 --outdir {file}",
    "mc model1 --T 64 --N 2 --m 1 --outdir {file}",
    "scan model6 --T 64 --lags 1..2 --N 2 --outdir {file}",
])
def test_outdir_naming_a_file_exits_2(argv, tmp_path, capsys):
    file = tmp_path / "taken"
    file.write_text("keep\n")
    assert main(argv.format(file=file).split()) == 2
    assert "error:" in capsys.readouterr().err
    assert file.read_text() == "keep\n"


def test_out_of_memory_exits_3_and_writes_nothing(tmp_path, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 382. GiB")

    # the power command looks the function up in experiments when it runs
    monkeypatch.setattr("dftstat.experiments.power_profile", exhausted)
    rc = main(["power", "model6", "--lags", "1..2", "--u-grid", "100000000",
               "--outdir", str(tmp_path)])
    assert rc == 3
    assert "error: out of memory" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_correction_flag_validation(model1_file, capsys):
    assert main(["test", str(model1_file), "--correction", "linear"]) == 2
    assert main(["test", str(model1_file), "--psi", "1,0.5"]) == 2
    assert main(["test", str(model1_file), "--correction", "linear",
                 "--psi", "1,0.5", "--kappa4", "0.0"]) == 0


def test_segment_command_rows(tmp_path, capsys):
    p = tmp_path / "long.txt"
    assert main(["simulate", "model1", "--T", "2048", "--seed", "2",
                 "--output", str(p)]) == 0
    rc = main(["segment", str(p), "--depth", "3", "--format", "csv"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "depth,index,start,end,statistic,dof,p_value"
    assert len(lines) == 1 + 15
    rc = main(["segment", str(p), "--depth", "3", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["blocks"]) == 15


def test_segment_text_flags_a_block_at_the_requested_levels(tmp_path, capsys):
    p = tmp_path / "m6.csv"
    assert main(["simulate", "model6", "--T", "512", "--seed", "1", "--output", str(p)]) == 0
    capsys.readouterr()
    main(["segment", str(p), "--depth", "1", "--format", "json", "--level", "0.001"])
    blocks = json.loads(capsys.readouterr().out)["blocks"]
    # the depth-1 block 0 rejects at 0.05 but not at 0.001
    assert 0.001 < blocks[1]["p_value"] < 0.05
    assert main(["segment", str(p), "--depth", "1", "--level", "0.001"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for block, line in zip(blocks, lines):
        assert ("reject" in line) == block["decisions"]["0.001"]
    assert "reject" not in lines[1]
    main(["segment", str(p), "--depth", "1", "--level", "0.001", "--level", "0.05"])
    assert capsys.readouterr().out.splitlines()[1].endswith("reject at 0.05")


def test_segment_depth_error(model1_file, capsys):
    rc = main(["segment", str(model1_file), "--depth", "5"])
    assert rc == 2
    assert "leaf" in capsys.readouterr().err


def test_segment_names_the_block_it_cannot_test(tmp_path, capsys):
    x = np.random.default_rng(33).standard_normal(1024)
    x[512:768] = 1.0  # the series has variance, its third quarter none
    path = tmp_path / "series.txt"
    write_series(path, x.tolist())
    assert main(["segment", str(path), "--depth", "2"]) == 2
    assert capsys.readouterr().err == (
        "error: depth 2 block 2 [512, 768): degenerate series: zero variance\n")


@pytest.mark.parametrize("command, windows", [
    (["test"], ["(0.04419, 0.2102) for T=512"]),
    (["segment", "--depth", "1"], ["(0.04419, 0.2102) for T=512", "(0.0625, 0.25) for T=256"]),
])
def test_a_library_warning_prints_as_a_warning_line(command, windows, tmp_path):
    # run as a module, where Python's own format would name runpy's frame
    path = tmp_path / "series.txt"
    write_series(path, np.random.default_rng(34).standard_normal(512).tolist())
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "dftstat.cli", command[0], str(path), *command[1:],
         "--bandwidth", "0.3"], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"warning: bandwidth 0.3 outside the admissible window {w}" for w in windows]


# ---------------------------------------------------------------------------
# simulate / mc / scan / power commands
# ---------------------------------------------------------------------------


def test_simulate_deterministic_bytes(tmp_path):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    assert main(["simulate", "model3", "--T", "256", "--seed", "7",
                 "--output", str(a)]) == 0
    assert main(["simulate", "model3", "--T", "256", "--seed", "7",
                 "--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(read_series(str(a))) == 256


def test_a_stream_past_2_64_exits_2_and_the_last_one_draws():
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    run = lambda stream: subprocess.run(  # noqa: E731
        [sys.executable, "-m", "dftstat.cli", "simulate", "model1", "--T", "64",
         "--stream", str(stream)], env=env, capture_output=True, text=True, timeout=120)
    past, last = run(2 ** 64), run(2 ** 64 - 1)
    assert (past.returncode, past.stdout) == (2, "")
    assert past.stderr == "error: stream_id must be below 2**64\n"
    assert last.returncode == 0, last.stderr
    assert len(last.stdout.splitlines()) == 65  # the header and 64 values


def test_unknown_model_lists_presets(capsys):
    rc = main(["simulate", "modelx", "--T", "64"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "model1" in err and "model6" in err


def test_model_from_json_spec(tmp_path, capsys):
    spec_path = tmp_path / "mymodel.json"
    spec_path.write_text(json.dumps(
        {"family": "ar_ma", "ar": [0.5], "ma": []}))
    out = tmp_path / "sim.txt"
    rc = main(["simulate", str(spec_path), "--T", "128", "--seed", "1",
               "--output", str(out)])
    assert rc == 0
    assert len(read_series(str(out))) == 128


def test_mc_command_artifacts(tmp_path, capsys):
    rc = main(["mc", "model6", "--T", "256", "--m", "3", "--N", "40",
               "--seed", "5", "--outdir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "model6_report.json").read_text())
    assert report["command"] == "mc"
    assert report["config"]["N"] == 40
    assert 0.0 <= report["rejection_rate"] <= 1.0
    stats_lines = (tmp_path / "model6_statistics.csv").read_text().strip().splitlines()
    assert stats_lines[0] == "replication,statistic"
    assert len(stats_lines) == 41
    hist_lines = (tmp_path / "model6_histogram.csv").read_text().strip().splitlines()
    assert hist_lines[0] == "bin_left,bin_right,density"

    # deterministic artifacts for a fixed seed
    again = tmp_path / "again"
    rc = main(["mc", "model6", "--T", "256", "--m", "3", "--N", "40",
               "--seed", "5", "--outdir", str(again)])
    assert rc == 0
    assert (again / "model6_report.json").read_bytes() == \
        (tmp_path / "model6_report.json").read_bytes()


@pytest.mark.parametrize("given, warned", [("auto", []), ("0.3", ["(0.0625, 0.25) for T=256"])])
def test_mc_report_writes_the_bandwidth_the_study_used(given, warned, tmp_path, capsys):
    # the bandwidth `test` reports for a series of the study's length, with
    # the one warning the study gives
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(35).standard_normal(256).tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["test", str(series), "--bandwidth", given, "--format", "json"]) == 0
        used = json.loads(capsys.readouterr().out)["config"]["bandwidth"]
        assert main(["mc", "model1", "--T", "256", "--N", "5", "--bandwidth", given,
                     "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "model1_report.json").read_text())
    assert report["config"]["bandwidth"] == used == (256 ** (-1 / 3) if given == "auto" else 0.3)
    assert capsys.readouterr().err.splitlines() == [
        f"warning: bandwidth 0.3 outside the admissible window {w}" for w in warned]


@pytest.mark.parametrize("flags", [[], ["--correction", "linear", "--psi", "1,0.8", "--kappa4", "1.2"],
                                   ["--correction", "user", "--kappa", "0.5,-0.25"]])
def test_mc_report_rebuilds_the_study_correction(flags, tmp_path, capsys):
    argv = ["mc", "model1", "--T", "256", "--m", "2", "--N", "5", "--outdir", str(tmp_path),
            *flags]
    assert main(argv) == 0
    config = json.loads((tmp_path / "model1_report.json").read_text())["config"]
    fields = {k: tuple(v) if isinstance(v, list) else v
              for k, v in config.items() if k in ("psi", "kappa4", "kappa")}
    assert CorrectionSpec(mode=config["correction"], **fields) == \
        _study(build_parser().parse_args(argv), (1, 2))[0]["correction"]
    # the mode as `test` writes it, and a Gaussian study's keys as before
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(36).standard_normal(256).tolist())
    capsys.readouterr()
    assert main(["test", str(series), "--m", "2", "--format", "json", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["correction"] == config["correction"]
    if not flags:
        assert [*config] == ["model", "T", "lags", "level", "N", "seed", "kernel", "bandwidth",
                             "ridge_factor", "correction", "burn_in"]


def test_outdir_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DFTSTAT_OUTDIR", str(tmp_path / "envdir"))
    rc = main(["mc", "model1", "--T", "256", "--m", "1", "--N", "5",
               "--seed", "1"])
    assert rc == 0
    assert (tmp_path / "envdir" / "model1_report.json").exists()


def test_scan_command_schema(tmp_path, capsys):
    rc = main(["scan", "model6", "--T", "256", "--lags", "1..5", "--N", "30",
               "--seed", "2", "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "model6_scan.csv").read_text().strip().splitlines()
    assert lines[0] == "lag,rejection_rate"
    assert len(lines) == 6
    lags = [int(l.split(",")[0]) for l in lines[1:]]
    assert lags == [1, 2, 3, 4, 5]


def test_scan_accepts_every_model_option_with_mc_defaults():
    parser = build_parser()
    model_options = ("bandwidth", "kernel", "ridge_factor", "correction", "psi",
                     "kappa4", "kappa", "burn_in")
    mc = vars(parser.parse_args(["mc", "model1", "--T", "64"]))
    scan = vars(parser.parse_args(["scan", "model1", "--T", "64", "--lags", "1..3"]))
    assert {k: scan[k] for k in model_options} == {k: mc[k] for k in model_options}
    given = ["--bandwidth", "0.2", "--kernel", "bartlett", "--ridge-factor", "0.01",
             "--correction", "user", "--psi", "0.5", "--kappa4", "1.5",
             "--kappa", "1,2,3", "--burn-in", "50"]
    scan = vars(parser.parse_args(["scan", "model1", "--T", "64", "--lags", "1..3", *given]))
    assert {k: scan[k] for k in model_options} == {
        "bandwidth": "0.2", "kernel": "bartlett", "ridge_factor": 0.01,
        "correction": "user", "psi": "0.5", "kappa4": 1.5, "kappa": "1,2,3",
        "burn_in": 50}


@pytest.mark.parametrize("command", ["test", "segment"])
def test_burn_in_is_a_usage_error_where_nothing_is_simulated(command, capsys):
    with pytest.raises(SystemExit) as exit_info:  # argparse stops before the file is read
        main([command, "series.txt", "--burn-in", "5"])
    assert exit_info.value.code == 2
    assert "--burn-in" in capsys.readouterr().err


def test_power_command_schema(tmp_path, capsys):
    rc = main(["power", "model6", "--lags", "1..8", "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "model6_power.csv").read_text().strip().splitlines()
    assert lines[0] == "lag,re,im,abs"
    assert len(lines) == 9
    rows = [l.split(",") for l in lines[1:]]
    mags = [float(r[3]) for r in rows]
    # the scale function is genuinely time varying, so some lag must light up
    assert max(mags) > 0.05
    for r in rows:
        assert abs(complex(float(r[1]), float(r[2]))) == pytest.approx(float(r[3]))


def test_power_time_constant_model_is_flat(tmp_path):
    rc = main(["power", "model1", "--lags", "1..4", "--outdir", str(tmp_path)])
    assert rc == 0
    lines = (tmp_path / "model1_power.csv").read_text().strip().splitlines()
    mags = [float(l.split(",")[3]) for l in lines[1:]]
    assert max(mags) < 1e-8


@pytest.mark.parametrize("shift", [[], ["--finite-lag-shift"]], ids=["limit", "finite_shift"])
def test_power_command_takes_a_lag_beyond_int64(shift, tmp_path):
    # 10**23 is a multiple of 512, so with the default 257 u-points and T=512
    # the huge lag's row is lag 3's
    rows = []
    for lag in (10 ** 23 + 3, 3):
        rc = main(["power", "model6", "--lags", str(lag), "--outdir", str(tmp_path)] + shift)
        assert rc == 0
        lines = (tmp_path / "model6_power.csv").read_text().strip().splitlines()
        rows.append(lines[1].split(","))
    assert rows[0][0] == str(10 ** 23 + 3)
    assert rows[0][1:] == rows[1][1:]


def test_power_artifact_does_not_depend_on_blas_threads(tmp_path):
    # the BLAS thread count is read when numpy loads, so each run is its own
    # process; on a one-CPU machine both runs use one thread and agree trivially
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    artifacts = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "dftstat.cli", "power", "model3", "--T", "256",
             "--lags", "1..12", "--finite-lag-shift", "--outdir", str(out)],
            env=dict(env, OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        artifacts.append((out / "model3_power.csv").read_bytes())
    assert artifacts[0] == artifacts[1]


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------


_IMPORT_GUARD = textwrap.dedent("""
    import sys
    lazy = {"dftstat.simulate", "dftstat.experiments"}
    import dftstat
    assert not lazy & set(sys.modules), "loaded by import dftstat"
    import dftstat.cli
    assert dftstat.cli.main(["test", sys.argv[1]]) == 0
    assert dftstat.cli.main(["segment", sys.argv[1], "--depth", "1"]) == 0
    assert not lazy & set(sys.modules), "loaded by test or segment"
    heavy = {"scipy", "statistics"} & {name.partition(".")[0] for name in sys.modules}
    assert not heavy, heavy
    from dftstat import GeneratorConfig, RngStream, generate, model_preset
    assert "dftstat.simulate" in sys.modules
    for name in ("model1", "model2", "model3", "model4", "model5"):
        x = generate(model_preset(name, 256), GeneratorConfig(T=256, rng=RngStream(1, 0)))
        assert x.shape == (256,) and "scipy.linalg" in sys.modules, name
        assert not {"scipy.signal", "scipy.ndimage"} & set(sys.modules), name
    namespace = {}
    exec("from dftstat import *", namespace)
    unbound = set(dftstat.__all__) - set(namespace)
    assert not unbound, unbound
""")


def test_test_command_loads_no_scipy_signal_or_ndimage(tmp_path):
    # The simulators solve their AR recursions with scipy.linalg, which they
    # import on first use; scipy.signal and scipy.ndimage, which take about
    # 0.5 s more, are never loaded. The simulation and Monte Carlo layers
    # themselves load on first use too, so a test or segment command never
    # compiles them.
    path = tmp_path / "series.txt"
    write_series(path, np.random.default_rng(3).standard_normal(512).tolist())
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
