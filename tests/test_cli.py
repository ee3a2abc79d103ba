import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import dftstat
from dftstat.cli import main, read_series, apply_transform, _parse_lag_list, build_parser
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


# Arguments that at one time gave a silent wrong answer: a level outside
# (0, 1), a negative CSV column, no replications, a non-positive T for the
# finite lag shift. Each must exit 2 before anything is written.
BAD_ARGV = [
    "test {series} --level 2 --format csv --output {out}/report.csv",
    "test {series} --level 0.05 --level 0 --format json --output {out}/report.json",
    "test {series} --column -1 --format csv --output {out}/report.csv",
    "segment {series} --depth 1 --level 1.5 --format csv --output {out}/report.csv",
    "scan model6 --T 64 --lags 1..3 --N 0 --outdir {out}",
    "power model6 --lags 1..3 --T 0 --finite-lag-shift --outdir {out}",
    "power model3 --lags 1..3 --T 0 --finite-lag-shift --outdir {out}",
    "power model6 --lags 1..3 --T -512 --finite-lag-shift --outdir {out}",
]


@pytest.mark.parametrize("argv", BAD_ARGV)
def test_bad_arguments_exit_2_and_write_nothing(argv, tmp_path, capsys):
    series = tmp_path / "series.txt"
    write_series(series, np.random.default_rng(4).standard_normal(128).tolist())
    rc = main(argv.format(series=series, out=tmp_path / "out").split())
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [series]


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


def test_segment_depth_error(model1_file, capsys):
    rc = main(["segment", str(model1_file), "--depth", "5"])
    assert rc == 2
    assert "leaf" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# start-up cost
# ---------------------------------------------------------------------------


_IMPORT_GUARD = textwrap.dedent("""
    import sys
    import dftstat, dftstat.cli
    assert dftstat.cli.main(["test", sys.argv[1]]) == 0
    heavy = {"scipy", "statistics"} & {name.partition(".")[0] for name in sys.modules}
    assert not heavy, heavy
    from dftstat import GeneratorConfig, RngStream, generate, model_preset
    x = generate(model_preset("model3", 256), GeneratorConfig(T=256, rng=RngStream(1, 0)))
    assert x.shape == (256,) and "scipy.signal" in sys.modules
""")


def test_test_command_loads_no_scipy_signal_or_ndimage(tmp_path):
    # scipy.signal (which pulls in scipy.ndimage) takes about 1 s to import;
    # only the simulators need it, and they import it on first use
    path = tmp_path / "series.txt"
    write_series(path, np.random.default_rng(3).standard_normal(512).tolist())
    env = dict(os.environ, PYTHONPATH=str(Path(dftstat.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
