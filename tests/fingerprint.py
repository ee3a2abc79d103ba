"""Fingerprint the numbers a source tree of dftstat computes.

    python tests/fingerprint.py --src TREE [--save DIR] [--against DIR]

imports ``dftstat`` from ``TREE/src`` alone and prints the module file it
loaded, then one SHA-256 per family of results as JSON. ``--save`` writes
each family's arrays to ``DIR/<family>.npz``; ``--against`` reads a saved
fingerprint and prints, for each family whose hash differs, its largest
relative difference: max |a - b| / max |b| over each array of the family
(inf where an array's shape or a message differs). Two trees compute the
same numbers where their hashes agree, so a change that should keep every
bit is checked by fingerprinting its parent and itself:

    python tests/fingerprint.py --src ../parent --save /tmp/fp-parent
    python tests/fingerprint.py --src . --against /tmp/fp-parent

The families use the public API and the command line only, so any tree
with them can be compared:

rejection_rate  statistics and rate of six presets x T 256/257/375/512 x
                m 1/4/10 x daniell/bartlett, plus a linear_plugin study
lag_scan        rates of six presets x T 512/257 at lags 1..40
test            stationarity_test at T 2**18, 262139, 4096, 1000 and 33,
                demean on and off: statistic, p-value, c(r), contributions
segmented       segmented_test at T 2**16 and 5003, depth 3
generate        generate of models 1-6 at T 64, 257 and 512
power_profile   B of six presets x T None/500/512 at 14 lags
threshold       McReport.threshold at dof 2 and 20 over nine levels
quantile        chisq_quantile at dof 1/2/3/20/61/240 for p above 2**-54
quantile_tiny   the same for p at or below 2**-54
gauss_stream    1012 draws at seeds 0, 2**63, 2**64 - 1 x streams 0, 1, 2**63 + 5,
                as generate of white noise with no burn-in
study_pair      three rejection_rate studies of one shape, back to back
errors          the class and message of the error each of ten bad calls raises
test_pair       stationarity_test before and after a rejection_rate study of its
                shape, then segmented_test at T 5003, depth 3, twice
study_table     rejection_rate at m 1, 5, 10, then lag_scan, of one replication
                set (two chunks) for models 1/3/6 x T 512/375/257, back to back
chirp           stationarity_test at chirp-z lengths 16411, 3 * 8209, 16411, 16411,
                then segmented_test at T 2 * 16411, depth 1 (a block of two rows
                of 16411) and dft_canonical at 16411; the same at 174763 and
                2 * 174763, whose depth-0 transform is not kept
cli             exit code, stdout, stderr and written files of dftstat test (json,
                csv, text), segment, mc, scan and power on fixed inputs, run in
                process through cli.main with a temporary output directory

It takes about two seconds on one core. The file is not collected by
pytest.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

PRESETS = [f"model{i}" for i in range(1, 7)]
DOFS = (1, 2, 3, 20, 61, 240)


def rejection_rate_family(ds):
    out = {}
    for name in PRESETS:
        for T in (256, 257, 375, 512):
            for m in (1, 4, 10):
                for kind in ("daniell", "bartlett"):
                    rep = ds.rejection_rate(ds.McConfig(
                        model=ds.model_preset(name, T), T=T, lags=range(1, m + 1),
                        replications=20, master_seed=7, kernel=ds.KernelSpec(kind)))
                    key = f"{name}_{T}_{m}_{kind}"
                    out[key] = np.append(rep.statistics, rep.rejection_rate)
    rep = ds.rejection_rate(ds.McConfig(
        model=ds.model_preset("model1", 256), T=256, replications=20, master_seed=7,
        correction=ds.CorrectionSpec.linear([1.0, 0.8, 0.64], 1.5)))
    out["linear_plugin"] = np.append(rep.statistics, rep.rejection_rate)
    return out


def lag_scan_family(ds):
    return {f"{name}_{T}": ds.lag_scan(ds.model_preset(name, T), T, range(1, 41),
                                       replications=20, master_seed=8)
            for name in PRESETS for T in (512, 257)}


def _result_arrays(res):
    return np.concatenate([[res.statistic, res.p_value],
                           np.array(res.covariances).view(float), res.contributions])


def stationarity_family(ds):
    out = {}
    for T in (2 ** 18, 262139, 4096, 1000, 33):
        x = ds.generate(ds.model_preset("model3", T),
                        ds.GeneratorConfig(T=T, rng=ds.RngStream(9)))
        for demean in (True, False):
            out[f"{T}_{demean}"] = _result_arrays(ds.stationarity_test(x, m=10, demean=demean))
    return out


def segmented_family(ds):
    out = {}
    for T in (2 ** 16, 5003):
        x = ds.generate(ds.model_preset("model5", T),
                        ds.GeneratorConfig(T=T, rng=ds.RngStream(10)))
        report = ds.segmented_test(x, depth=3)
        out[str(T)] = np.concatenate([_result_arrays(b.result) for b in report.blocks])
    return out


def generate_family(ds):
    return {f"{name}_{T}": ds.generate(ds.model_preset(name, T),
                                       ds.GeneratorConfig(T=T, rng=ds.RngStream(11, 3)))
            for name in PRESETS for T in (64, 257, 512)}


def power_profile_family(ds):
    lags = list(range(1, 13)) + [60, 120]
    return {f"{name}_{T}": ds.power_profile(ds.local_spectrum(ds.model_preset(name, T or 512)),
                                            lags, T=T).B_values
            for name in PRESETS for T in (None, 500, 512)}


def threshold_family(ds):
    levels = (1e-9, 1e-4, 0.01, 0.05, 0.1, 0.5, 0.9, 0.99, 1 - 1e-9)
    return {str(2 * m): np.array([ds.rejection_rate(ds.McConfig(
                model=ds.model_preset("model1", 64), T=64, lags=range(1, m + 1), level=a,
                replications=1)).threshold for a in levels])
            for m in (1, 10)}


def gauss_stream_family(ds):
    # white noise with no burn-in is the stream's draws as they come
    return {f"{seed}_{stream}": ds.generate(ds.ArmaSpec(), ds.GeneratorConfig(
                T=1012, burn_in=0, rng=ds.RngStream(seed, stream)))
            for seed in (0, 2 ** 63, 2 ** 64 - 1) for stream in (0, 1, 2 ** 63 + 5)}


def study_pair_family(ds):
    # the second study of a shape reuses the first one's plan
    out = {}
    for name, seed in (("model1", 12), ("model3", 13), ("model1", 12)):
        rep = ds.rejection_rate(ds.McConfig(
            model=ds.model_preset(name, 300), T=300, lags=(1, 3, 5), replications=20,
            master_seed=seed, kernel=ds.KernelSpec("bartlett", 0.2),
            correction=ds.CorrectionSpec.linear([1.0, 0.6], 0.8)))
        out[f"{len(out)}_{name}"] = np.append(rep.statistics, rep.rejection_rate)
    return out


def test_pair_family(ds):
    # single tests share plans with a study of their shape and with each other
    shape = dict(lags=(2, 3, 7), kernel=ds.KernelSpec("bartlett", 0.2),
                 correction=ds.CorrectionSpec.linear([1.0, -0.5], 0.9))
    model = ds.model_preset("model3", 320)
    x = ds.generate(model, ds.GeneratorConfig(T=320, rng=ds.RngStream(14)))
    out = {"before": _result_arrays(ds.stationarity_test(x, **shape))}
    rep = ds.rejection_rate(ds.McConfig(model=model, T=320, replications=20, master_seed=14,
                                        **shape))
    out["study"] = np.append(rep.statistics, rep.rejection_rate)
    out["after"] = _result_arrays(ds.stationarity_test(x, **shape))
    y = ds.generate(ds.model_preset("model5", 5003),
                    ds.GeneratorConfig(T=5003, rng=ds.RngStream(15)))
    for i in range(2):
        report = ds.segmented_test(y, depth=3)
        out[f"segmented_{i}"] = np.concatenate([_result_arrays(b.result) for b in report.blocks])
    return out


def study_table_family(ds):
    # the studies after the first of each set read its kept replications
    out = {}
    for name in ("model1", "model3", "model6"):
        for T in (512, 375, 257):  # 257 takes the kernel's loop route
            model = ds.model_preset(name, T)
            for m in (1, 5, 10):
                rep = ds.rejection_rate(ds.McConfig(model=model, T=T, lags=range(1, m + 1),
                                                    replications=100, master_seed=16))
                out[f"{name}_{T}_{m}"] = np.append(rep.statistics, rep.rejection_rate)
            out[f"{name}_{T}_scan"] = ds.lag_scan(model, T, range(1, 41), replications=100,
                                                  master_seed=16)
    return out


def chirp_family(ds):
    # lengths with a prime factor above 2**13, in an order that builds, rebuilds
    # and reuses the kept chirp-z transform, for one row and for two
    out = {}
    for T, depth, tests in ((2 * 16411, 1, (16411, 3 * 8209, 16411, 16411)),
                            (2 * 174763, 1, (174763,))):  # depth 0 over the memo's bound
        x = ds.generate(ds.model_preset("model3", T),
                        ds.GeneratorConfig(T=T, rng=ds.RngStream(20)))
        for n in tests:
            out[f"{len(out)}_{n}"] = _result_arrays(ds.stationarity_test(x[:n], m=10))
        report = ds.segmented_test(x, depth=depth)
        out[f"segmented_{T}"] = np.concatenate([_result_arrays(b.result) for b in report.blocks])
        out[f"dft_canonical_{T}"] = ds.dft_canonical(x[:T // 2])
    return out


def cli_family(ds):
    main = importlib.import_module("dftstat.cli").main
    out = {}
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("always")  # every warning line, whatever ran before
        series = Path(tmp) / "series.txt"
        x = ds.generate(ds.model_preset("model3", 512),
                        ds.GeneratorConfig(T=512, rng=ds.RngStream(17)))
        series.write_text("".join(f"{v!r}\n" for v in x.tolist()))
        outdir = ["--outdir", tmp]
        runs = {
            "test_json": ["test", series, "--m", "5", "--format", "json"],
            "test_csv": ["test", series, "--lags", "1,3,40", "--kernel", "bartlett",
                         "--format", "csv"],
            "test_text": ["test", series, "--bandwidth", "0.3"],  # warns
            "segment": ["segment", series, "--depth", "2", "--format", "json"],
            "mc": ["mc", "model4", "--T", "256", "--m", "3", "--N", "40", "--seed", "18",
                   *outdir],
            "scan": ["scan", "model6", "--T", "257", "--lags", "1..20", "--N", "30",
                     "--seed", "19", *outdir],
            "power": ["power", "model4", "--lags", "1..12", "--T", "500",
                      "--finite-lag-shift", *outdir],
        }
        for name, argv in runs.items():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main([str(a) for a in argv])
            out[name] = f"exit {code}\n{stdout.getvalue()}\n{stderr.getvalue()}"
        for path in sorted(Path(tmp).iterdir()):
            if path != series:
                out[path.name] = path.read_text()
    return {key: np.array(text.replace(tmp, "<tmp>")) for key, text in out.items()}


def quantile_family(ds, ps):
    return {str(dof): np.array([ds.chisq_quantile(p, dof) for p in ps]) for dof in DOFS}


def errors_family(ds):
    t = np.arange(1, 257)
    cosine = np.cos(2 * np.pi * 5 * t / 256)
    noisy = ds.generate(ds.model_preset("model1", 256), ds.GeneratorConfig(T=256))
    zero_scale = ds.TvInnovationArSpec(ar=(0.5,),
                                       sigma=lambda u: np.zeros_like(np.asarray(u, float)))
    calls = [
        lambda: ds.stationarity_test(cosine, ridge_factor=0.0),
        lambda: ds.segmented_test(cosine, depth=1, ridge_factor=0.0),
        lambda: ds.segmented_test(np.concatenate([noisy[:128], cosine[::2]]), depth=1,
                                  ridge_factor=0.0),
        lambda: ds.stationarity_test(np.where(t == 9, np.nan, noisy), lags=[300]),  # two faults
        lambda: ds.stationarity_test(noisy, lags=[128]),
        lambda: ds.stationarity_test(noisy[:20]),
        lambda: ds.rejection_rate(ds.McConfig(model=zero_scale, T=128, replications=5)),
        lambda: ds.rejection_rate(ds.McConfig(model=ds.ArmaSpec(ar=(1.2,)), T=128)),
        lambda: ds.lag_scan(ds.model_preset("model1", 128), 128, [1], level=1.5),
        lambda: ds.power_profile(ds.local_spectrum(ds.model_preset("model3")), [0]),
    ]
    out = []
    for call in calls:
        try:
            call()
            out.append("no error")
        except ds.StationarityTestError as exc:  # its class and message are the fingerprint
            out.append(f"{type(exc).__name__}: {exc}")
    return {"messages": np.array(out)}


def families(ds):
    tiny = (2.0 ** -54, 5e-17, 1e-17, 1e-20, 1e-50, 1e-100, 1e-300, 1e-310, 1e-320, 5e-324)
    above = (1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.5, 0.95, 0.999, 1 - 1e-10)
    return {
        "rejection_rate": rejection_rate_family, "lag_scan": lag_scan_family,
        "test": stationarity_family, "segmented": segmented_family,
        "generate": generate_family,
        "power_profile": power_profile_family, "threshold": threshold_family,
        "quantile": lambda ds: quantile_family(ds, above),
        "quantile_tiny": lambda ds: quantile_family(ds, tiny),
        "errors": errors_family,
        "gauss_stream": gauss_stream_family, "study_pair": study_pair_family,
        "test_pair": test_pair_family, "study_table": study_table_family,
        "chirp": chirp_family, "cli": cli_family,
    }


def digest(arrays):
    h = hashlib.sha256()
    for key in sorted(arrays):
        a = np.ascontiguousarray(arrays[key])
        h.update(f"{key}|{a.dtype.str}|{a.shape}|".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def largest_difference(arrays, saved):
    worst = 0.0
    for key in sorted(set(arrays) | set(saved)):
        if key not in arrays or key not in saved:
            return float("inf")
        a, b = np.asarray(arrays[key]), np.asarray(saved[key])
        if a.shape != b.shape or a.dtype.kind != b.dtype.kind:
            return float("inf")
        if a.dtype.kind == "U":
            worst = max(worst, 0.0 if np.array_equal(a, b) else float("inf"))
            continue
        with np.errstate(all="ignore"):
            scale = np.max(np.abs(b)) if b.size else 0.0
            gap = np.max(np.abs(a - b)) if a.size else 0.0
            worst = max(worst, float(gap / scale) if scale else float(gap))
    return worst


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="source tree whose src/ holds dftstat")
    parser.add_argument("--save", type=Path, help="write each family's arrays here")
    parser.add_argument("--against", type=Path, help="a saved fingerprint to compare with")
    args = parser.parse_args(argv)
    src = (Path(args.src) / "src").resolve()
    sys.path.insert(0, str(src))
    import dftstat as ds

    if not Path(ds.__file__).resolve().is_relative_to(src):
        sys.exit(f"dftstat was imported from {ds.__file__}, not from {src}")
    print(ds.__file__)
    hashes, differences = {}, {}
    for name, family in families(ds).items():
        arrays = family(ds)
        hashes[name] = digest(arrays)
        if args.save:
            args.save.mkdir(parents=True, exist_ok=True)
            np.savez(args.save / f"{name}.npz", **arrays)
        if args.against:
            with np.load(args.against / f"{name}.npz") as saved:
                saved = dict(saved)
            if digest(saved) != hashes[name]:
                differences[name] = largest_difference(arrays, saved)
    print(json.dumps(hashes, indent=1))
    if args.against:
        print(json.dumps({"largest relative difference": differences}, indent=1))


if __name__ == "__main__":
    main()
