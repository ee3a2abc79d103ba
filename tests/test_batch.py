"""Batched Monte Carlo: replications run as (rows, T) blocks
through the same pipeline that tests a single series as a block of one row.
These tests pin the contract that makes the two interchangeable: bit-equal
statistics per stream, results independent of chunking, bounded memory, and
the per-replication error messages."""

import re
import sys
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

import dftstat.experiments as experiments
import dftstat.simulate as simulate
import dftstat.stattest as stattest
from dftstat import (
    ArmaSpec,
    BandwidthWarning,
    CorrectionSpec,
    ComputationError,
    GeneratorConfig,
    InputError,
    KernelSpec,
    McConfig,
    PRESET_NAMES,
    RngStream,
    TvInnovationArSpec,
    chisq_quantile,
    generate,
    lag_scan,
    model_preset,
    rejection_rate,
    segmented_test,
    stationarity_test,
)
from dftstat.numerics import _gauss_rows
from dftstat.simulate import innovation_count
from dftstat.stattest import _scan_rows

BURN_IN = 500


def single_path(spec, T, seed, i, **test_kwargs):
    """Replication i the slow way: generate stream i, then test it alone."""
    x = generate(spec, GeneratorConfig(T=T, burn_in=BURN_IN, rng=RngStream(seed, i)))
    return stationarity_test(x, **test_kwargs).statistic


def chunk_rows(spec, T):
    return experiments._CHUNK_ELEMENTS // innovation_count(spec, GeneratorConfig(T=T))


# ---------------------------------------------------------------------------
# replication i of the batch is the single test on stream i
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T", [64, 257])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_statistics_equal_single_tests(name, T):
    spec = model_preset(name, T)
    for kernel in (KernelSpec("daniell"), KernelSpec("bartlett")):
        for correction in (None, CorrectionSpec.linear([1.0, 0.5, -0.2], 2.0)):
            cfg = McConfig(model=spec, T=T, lags=(1, 2, 5), replications=4,
                           master_seed=70, kernel=kernel, correction=correction)
            stats = rejection_rate(cfg).statistics
            for i in range(cfg.replications):
                assert stats[i] == single_path(spec, T, 70, i, lags=(1, 2, 5), kernel=kernel,
                                               correction=correction)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_batch_statistics_equal_single_tests_on_the_transform_route(name):
    # 5-smooth T takes the covariance kernel's transform route; 375 = 3 * 5**3 is odd
    lags = tuple(range(1, 11))
    for T in (512, 375):
        cfg = McConfig(model=model_preset(name, T), T=T, lags=lags, replications=6,
                       master_seed=72)
        stats = rejection_rate(cfg).statistics
        for i in range(cfg.replications):
            assert stats[i] == single_path(cfg.model, T, 72, i, lags=lags)


def test_gauss_rows_are_the_streams():
    for seed in (0, 71, 2 ** 64 - 1):
        block = _gauss_rows(seed, 5, 12, 300)
        for row in range(7):
            want = RngStream(seed, 5 + row).generator().standard_normal(300)
            assert np.array_equal(block[row], want)


def test_gauss_rows_are_the_reference_generators_at_extreme_keys():
    # the key is the pair (seed, stream) as two 64-bit words
    for seed in (0, 2 ** 63, 2 ** 64 - 1):
        for start in (0, 2 ** 40, 2 ** 63 + 5):
            block = _gauss_rows(seed, start, start + 3, 1012)
            for row in range(3):
                want = RngStream(seed, start + row).generator().standard_normal(1012)
                assert np.array_equal(block[row], want), (seed, start + row)


def studies_on(seed):
    """Draws and statistics of one seed: several blocks and a two-chunk study."""
    blocks = [_gauss_rows(seed, start, start + 30, 400) for start in range(0, 150, 30)]
    spec = model_preset("model1", 64)
    config = McConfig(model=spec, T=64, replications=chunk_rows(spec, 64) + 5, master_seed=seed)
    return blocks + [rejection_rate(config).statistics]


def test_concurrent_threads_draw_their_own_streams():
    # each thread resets its own generator, so threads interleaving between a
    # reset and its draws (a short switch interval makes that likely) still
    # draw exactly the sequential streams
    seeds = range(80, 88)
    expected = [studies_on(seed) for seed in seeds]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(studies_on, seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for want, have in zip(expected, got):
        assert all(np.array_equal(a, b) for a, b in zip(want, have))


def test_concurrent_studies_share_the_plan_memo(monkeypatch):
    # more shapes than the memo keeps, in more threads than cores: studies
    # insert and evict plans while others read them, and keep their statistics
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    spec = model_preset("model6")
    configs = [McConfig(model=spec, T=T, replications=2, master_seed=T)
               for T in range(64, 76)] * 3
    expected = [rejection_rate(config).statistics for config in configs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda config: rejection_rate(config).statistics, configs,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))
    plans = stattest._PLANS.kept.values()
    assert len(plans) <= stattest._PLANS.entries
    assert not any(plan.weight_spectrum.flags.writeable for plan in plans)


def test_a_thread_builds_one_philox_for_all_its_studies(monkeypatch):
    built = []
    real = np.random.Philox

    def counting(*args, **kwargs):
        built.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counting)
    done = []
    worker = threading.Thread(target=lambda: done.extend(studies_on(s) for s in (1, 2, 3)))
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive() and len(done) == 3
    assert built == [worker.ident]


def test_chunk_seams_match_single_tests():
    spec = model_preset("model3", 64)
    rows = chunk_rows(spec, 64)
    n = rows + 5  # two chunks
    stats = rejection_rate(McConfig(model=spec, T=64, replications=n, master_seed=72)).statistics
    for i in (0, rows - 2, rows - 1, rows, rows + 1, n - 1):
        assert stats[i] == single_path(spec, 64, 72, i, lags=(1, 2, 3, 4))


def test_results_do_not_depend_on_chunk_size(monkeypatch):
    spec = model_preset("model6", 128)
    cfg = McConfig(model=spec, T=128, lags=(1, 3), replications=30, master_seed=73)
    scan = lambda: lag_scan(spec, 128, range(1, 30), replications=30,  # noqa: E731
                            master_seed=73)
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    whole = rejection_rate(cfg).statistics
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # each study draws its own
    scan_whole = scan()
    # seven replications per chunk, so the 30 split 7+7+7+7+2
    monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS",
                        7 * innovation_count(spec, GeneratorConfig(T=128)))
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    assert np.array_equal(rejection_rate(cfg).statistics, whole)
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    assert np.array_equal(scan(), scan_whole)
    # a study of the same chunks reads the last one's kept replications
    assert np.array_equal(rejection_rate(cfg).statistics, whole)


def test_lag_scan_equals_per_replication_covariance_loop():
    T, lags, reps = 256, (1, 4, 20, 100), 40
    spec = model_preset("model6", T)
    correction = CorrectionSpec.linear([1.0, 0.4], 0.8)
    rates = lag_scan(spec, T, lags, replications=reps, master_seed=74,
                     correction=correction)
    threshold = chisq_quantile(0.95, 2)
    counts = np.zeros(len(lags), dtype=int)
    for i in range(reps):
        x = generate(spec, GeneratorConfig(T=T, burn_in=BURN_IN, rng=RngStream(74, i)))
        res = stationarity_test(x, lags=lags, correction=correction)
        counts += np.array(res.contributions) > threshold
    assert np.array_equal(rates, counts / reps)


def test_memory_does_not_grow_with_replications():
    # unchunked, N=4000 at T=1024 would hold 4000 x 1524 innovations alone
    # (46.5 MiB); chunked, the peak is set by the chunk, not by N
    bound = 16 * 2 ** 20
    peaks = {}
    for n in (500, 4000):
        cfg = McConfig(model=model_preset("model1", 1024), T=1024, replications=n,
                       master_seed=75)
        tracemalloc.start()
        try:
            rejection_rate(cfg)
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[500] < bound and peaks[4000] < bound
    assert peaks[4000] - peaks[500] < 2 ** 20  # the statistics array is 31 KiB


# ---------------------------------------------------------------------------
# per-study work is done once per study
# ---------------------------------------------------------------------------


def counting(monkeypatch, owner, attr):
    calls = []
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)
    return calls


def test_study_work_is_hoisted_out_of_replications(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})  # no plan of this shape yet
    validate = counting(monkeypatch, ArmaSpec, "validate")
    corrections = counting(monkeypatch, stattest, "_correction_denominators")
    # patch the names the library looks up, which it binds at import
    sf = counting(monkeypatch, stattest, "chisq_sf")
    quantile = counting(monkeypatch, experiments, "chisq_quantile")
    for n, plans in ((5, 1), (40, 0)):
        cfg = McConfig(model=model_preset("model1", 128), T=128, replications=n,
                       master_seed=76, correction=CorrectionSpec.linear([1.0, 0.5], 1.0))
        rejection_rate(cfg)
        # once per study whatever the replication count, the plan's corrections
        # once per study shape; no per-replication p-values
        assert (len(validate), len(corrections), len(quantile), len(sf)) == (1, plans, 1, 0)
        del validate[:], corrections[:], quantile[:], sf[:]


def test_a_memoized_plan_is_read_only(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    rejection_rate(McConfig(model=model_preset("model1", 128), T=128, replications=2,
                            correction=CorrectionSpec.linear([1.0, 0.5], 1.0)))
    (plan,) = stattest._PLANS.kept.values()
    for shared in (plan.weight_spectrum, plan.corrections):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_every_study_of_a_memoized_shape_warns_of_its_bandwidth(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    model, wide = model_preset("model1", 256), KernelSpec("daniell", 0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):  # the second study reuses the first one's plan
            rejection_rate(McConfig(model=model, T=256, replications=2, kernel=wide))
    assert [w.category for w in caught] == [BandwidthWarning] * 2
    assert {w.filename for w in caught} == {__file__}


def test_studies_that_differ_in_kernel_ridge_or_correction_build_their_own_plans(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    built = counting(monkeypatch, stattest, "_smoother")  # plan builds, not _plan calls
    spec, lags = model_preset("model3", 128), (1, 2, 3)
    variants = [{}, {"kernel": KernelSpec("bartlett")}, {"ridge_factor": 0.05},
                {"correction": CorrectionSpec.user([0.5, -0.4, 1.0])}]
    for rounds in range(2):
        for variant in variants:
            stats = rejection_rate(McConfig(model=spec, T=128, lags=lags, replications=3,
                                            master_seed=79, **variant)).statistics
            # a reused plan is this study's own: replication i is the single test on stream i
            for i in range(3):
                assert stats[i] == single_path(spec, 128, 79, i, lags=lags, **variant)
        assert len(built) == len(variants)  # once each, in the first round only


def test_the_plan_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    spec = model_preset("model6")
    for T in range(64, 74):
        rejection_rate(McConfig(model=spec, T=T, replications=1))
    assert sorted(key[0] for key in stattest._PLANS.kept) == list(range(66, 74))  # oldest out
    rejection_rate(McConfig(model=spec, T=2 ** 15, replications=1))  # a plan of 137 KiB
    assert 2 ** 15 not in [key[0] for key in stattest._PLANS.kept]
    assert len(stattest._PLANS.kept) == stattest._PLANS.entries
    assert all(plan.weight_spectrum.nbytes + plan.corrections.nbytes <= 2 ** 16
               for plan in stattest._PLANS.kept.values())


@pytest.mark.parametrize("study_first", [True, False])
def test_a_single_test_shares_the_plan_of_a_study_of_its_shape(study_first, monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    built = counting(monkeypatch, stattest, "_smoother")
    spec = model_preset("model3", 200)
    shape = dict(lags=(1, 4), kernel=KernelSpec("bartlett"),
                 correction=CorrectionSpec.linear([1.0, 0.5], 0.6))
    x = generate(spec, GeneratorConfig(T=200, burn_in=BURN_IN, rng=RngStream(80, 0)))
    study = lambda: rejection_rate(McConfig(model=spec, T=200, replications=3,  # noqa: E731
                                            master_seed=80, **shape)).statistics[0]
    single = lambda: stationarity_test(x, **shape).statistic  # noqa: E731
    first, second = (call() for call in ((study, single) if study_first else (single, study)))
    assert first == second
    assert len(built) == 1


@pytest.mark.parametrize("T, rebuilt", [(5003, 0), (2 ** 15, 2)])
def test_a_second_segmented_test_builds_only_the_plans_above_the_bound(T, rebuilt, monkeypatch):
    # 5003 at depth 3 has seven block lengths, each with a small plan; at 2**15
    # the depths of 32768 and 16384 points have plans above 64 KiB
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    x = np.random.default_rng(81).standard_normal(T)
    first = segmented_test(x, depth=3)
    built = counting(monkeypatch, stattest, "_smoother")
    second = segmented_test(x, depth=3)
    assert len(built) == rebuilt
    assert [b.result for b in second.blocks] == [b.result for b in first.blocks]


def test_every_single_test_of_a_memoized_shape_warns_of_its_bandwidth(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    x, wide = np.random.default_rng(82).standard_normal(512), KernelSpec("daniell", 0.3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):  # the second round reuses the first one's plans
            stationarity_test(x, kernel=wide)
            segmented_test(x, depth=1, kernel=wide)
    assert [w.category for w in caught] == [BandwidthWarning] * 6
    assert [str(w.message).split("T=")[1] for w in caught] == ["512", "512", "256"] * 2
    assert {w.filename for w in caught} == {__file__}


def test_lags_given_as_any_iterable_share_one_plan(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    built = counting(monkeypatch, stattest, "_smoother")
    x = np.random.default_rng(83).standard_normal(300)
    # an iterator first: the one that builds the plan must not be read up by its key
    forms = [iter([1, 3, 5]), [1, 3, 5], (1, 3, 5), range(1, 6, 2), np.array([1, 3, 5])]
    results = [stationarity_test(x, lags=lags) for lags in forms]
    assert all(res == results[0] for res in results) and results[0].lags == (1, 3, 5)
    assert len(built) == len(stattest._PLANS.kept) == 1


def test_m_and_lags_are_keyed_apart(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    x = np.random.default_rng(84).standard_normal(256)
    assert stationarity_test(x, lags=(1, 2)).lags == (1, 2)
    with pytest.raises(InputError, match=re.escape("m must be an integer, got (1, 2)")):
        stationarity_test(x, m=(1, 2))
    assert stationarity_test(x, m=4).lags == (1, 2, 3, 4)
    with pytest.raises(InputError, match="^at least one lag is required$"):
        stationarity_test(x, lags=[])


# ---------------------------------------------------------------------------
# studies of the same replications share their lag-independent arrays
# ---------------------------------------------------------------------------


CORRECTION = CorrectionSpec.linear([1.0, 0.7, 0.2], 0.9)


def studies_of(config):
    """Two studies of config's replications at other lags (one above T/2),
    levels and a correction: a rejection_rate and a lag_scan."""
    return (lambda: rejection_rate(replace(config, lags=range(1, 11), level=0.1,
                                           correction=CORRECTION)),
            lambda: lag_scan(config.model, config.T, [*range(1, 40), config.T - 3], level=0.01,
                             replications=config.replications,
                             master_seed=config.master_seed, correction=CORRECTION))


# 512 and 375 (5-smooth) take the kernel's transform route, 257 the loop
@pytest.mark.parametrize("T", [512, 375, 257])
def test_a_study_of_kept_replications_equals_a_fresh_one(T, monkeypatch):
    spec = model_preset("model3", T)
    config = McConfig(model=spec, T=T, lags=(1, 2, 3), replications=chunk_rows(spec, T) + 5,
                      master_seed=85)  # two chunks
    fresh = []
    for study in studies_of(config):
        monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # nothing kept: computed afresh
        fresh.append(study())
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    first = rejection_rate(config)  # keeps both chunks
    drawn = counting(monkeypatch, experiments, "_gauss_rows")
    report, scan = (study() for study in studies_of(config))
    assert drawn == []  # neither later study drew a replication
    assert np.array_equal(report.statistics, fresh[0].statistics)
    assert (report.rejection_rate, report.threshold) == (fresh[0].rejection_rate,
                                                         fresh[0].threshold)
    assert np.array_equal(scan, fresh[1])
    assert np.array_equal(rejection_rate(config).statistics, first.statistics)
    assert len(experiments._SPECTRA.kept) == 1 and drawn == []


def test_a_change_to_any_key_field_draws_the_replications_again(monkeypatch):
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    drawn = counting(monkeypatch, experiments, "_gauss_rows")
    base = McConfig(model=model_preset("model1", 128), T=128, replications=9, master_seed=86)
    # each variant keeps the chunk rows (innovations per replication within
    # 628-630) but the last, so only its own field tells it apart
    variants = [replace(base, model=model_preset("model5", 128)), replace(base, T=130),
                replace(base, burn_in=501), replace(base, master_seed=87),
                replace(base, replications=8), replace(base, kernel=KernelSpec("bartlett")),
                replace(base, kernel=KernelSpec()),  # the kernel as given: None differs
                replace(base, ridge_factor=1e-2), "chunk rows"]
    for variant in variants:
        rejection_rate(base)
        del drawn[:]
        rejection_rate(replace(base, lags=(2, 5), level=0.2))  # lags and level are not keyed
        assert drawn == []
        if variant == "chunk rows":
            monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS", experiments._CHUNK_ELEMENTS // 2)
            variant = base
        rejection_rate(variant)
        assert len(drawn) == 1, variant


# a cosine's smoothed spectrum with no ridge is zero away from its frequency
@pytest.mark.parametrize("row, error, reason", [
    (np.cos(2 * np.pi * 5 * np.arange(1, 129) / 128), ComputationError,
     "the smoothed spectrum is zero"),
    (np.nan, InputError, "series contains non-finite values"),
], ids=["zero spectrum", "non-finite value"])
def test_a_study_that_raises_keeps_nothing(row, error, reason, monkeypatch):
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    spec = model_preset("model1", 128)
    rows = chunk_rows(spec, 128)
    original, calls = experiments._filter_rows, []

    def faulty(model, E, T, burn_in):
        X = original(model, E, T, burn_in)
        calls.append(1)
        if len(calls) % 2 == 0:  # row 2 of each study's second chunk
            X[2] = row
        return X

    monkeypatch.setattr(experiments, "_filter_rows", faulty)
    config = McConfig(model=spec, T=128, replications=rows + 5, ridge_factor=0.0,
                      master_seed=87)
    match = rf"^replication {rows + 2} \(stream {rows + 2}\): {reason}"
    for _ in range(2):  # the same study again raises the same error
        with pytest.raises(error, match=match):
            rejection_rate(config)
        assert experiments._SPECTRA.kept == {}
    assert len(calls) == 4  # both studies drew both chunks


def test_kept_arrays_are_read_only_and_within_the_bound(monkeypatch):
    # the paper's N = 1000 at T = 512 keeps 4.11 MB of 4 MiB: 16 bytes at 257
    # frequencies a replication, and 1020 replications fit where 1021 do not
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    config = McConfig(model=model_preset("model1", 512), T=512, replications=1000,
                      master_seed=88)
    for n, kept in ((1000, True), (1020, True), (1021, False)):
        monkeypatch.setattr(experiments._SPECTRA, "kept", {})
        rejection_rate(replace(config, replications=n))
        assert bool(experiments._SPECTRA.kept) == kept
        for arrays in experiments._SPECTRA.kept.values():
            assert sum(S.nbytes for S in arrays) == n * 257 * 16
            for S in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    S[0, 0] = 0.0
    assert 1020 * 257 * 16 <= experiments._SPECTRA.max_bytes < 1021 * 257 * 16


def test_concurrent_studies_share_kept_replications(monkeypatch):
    # studies of two replication sets at three lag sets, in more threads than
    # cores: studies replace the kept arrays while others read them
    spec = model_preset("model6", 64)
    configs = [McConfig(model=spec, T=64, lags=range(1, m + 1), master_seed=seed,
                        replications=chunk_rows(spec, 64) + 3)
               for seed in (89, 90) for m in (1, 5, 10)] * 3
    expected = []
    for config in configs:
        monkeypatch.setattr(experiments._SPECTRA, "kept", {})
        expected.append(rejection_rate(config).statistics)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda config: rejection_rate(config).statistics, configs,
                                timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(a, b) for a, b in zip(expected, got))
    assert len(experiments._SPECTRA.kept) == 1
    assert not any(S.flags.writeable for arrays in experiments._SPECTRA.kept.values()
                   for S in arrays)


def test_a_study_of_kept_replications_warns_of_its_bandwidth(monkeypatch):
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    wide = KernelSpec("daniell", 0.3)
    config = McConfig(model=model_preset("model1", 256), T=256, replications=3,
                      master_seed=92, kernel=wide)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rejection_rate(config)
    drawn = counting(monkeypatch, experiments, "_gauss_rows")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rejection_rate(replace(config, lags=range(1, 11)))
        lag_scan(config.model, 256, [1, 7], replications=3, master_seed=92, kernel=wide)
    assert drawn == []
    assert [w.category for w in caught] == [BandwidthWarning] * 2
    assert {w.filename for w in caught} == {__file__}


def test_model4_studies_reuse_kept_replications(monkeypatch):
    # model4's scale is one function per T, so its presets at one T are one key
    assert model_preset("model4", 256) == model_preset("model4", 256)
    assert model_preset("model4", 256) != model_preset("model4", 512)
    config = McConfig(model=model_preset("model4", 256), T=256, lags=(1,),
                      replications=chunk_rows(model_preset("model4", 256), 256) + 4,
                      master_seed=93)  # two chunks
    table = [replace(config, model=model_preset("model4", 256), lags=range(1, m + 1))
             for m in (1, 10)]
    fresh = []
    for study in table:
        monkeypatch.setattr(experiments._SPECTRA, "kept", {})
        fresh.append(rejection_rate(study).statistics)
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    drawn = counting(monkeypatch, experiments, "_gauss_rows")
    got = [rejection_rate(study).statistics for study in table]
    assert len(drawn) == 2  # the m = 1 study's two chunks, and nothing for m = 10
    assert all(np.array_equal(a, b) for a, b in zip(got, fresh))


# a field given as a list is unhashable: the memos are skipped, not consulted
def test_a_test_of_an_unhashable_correction_equals_its_tuple_twin(monkeypatch):
    monkeypatch.setattr(stattest._PLANS, "kept", {})
    x = generate(model_preset("model1", 256), GeneratorConfig(T=256, rng=RngStream(94)))
    twin = stationarity_test(x, lags=(1, 3), correction=CorrectionSpec.user([0.4, -0.2]))
    plans, spectra = stattest._PLANS.kept, experiments._SPECTRA.kept
    listed = CorrectionSpec(mode="user", kappa=[0.4, -0.2])
    with pytest.raises(TypeError):
        hash(listed)
    built = counting(monkeypatch, stattest, "_smoother")
    assert stationarity_test(x, lags=(1, 3), correction=listed) == twin
    assert len(built) == 1  # built anew, and not kept
    assert stattest._PLANS.kept is plans and experiments._SPECTRA.kept is spectra


def test_a_study_of_an_unhashable_model_equals_its_tuple_twin(monkeypatch):
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})
    config = McConfig(model=ArmaSpec(ar=(0.8,)), T=256, lags=(1, 2), replications=30,
                      master_seed=95)
    twin = rejection_rate(config)
    plans, spectra = stattest._PLANS.kept, experiments._SPECTRA.kept
    drawn = counting(monkeypatch, experiments, "_gauss_rows")
    report = rejection_rate(replace(config, model=ArmaSpec(ar=[0.8])))
    assert len(drawn) == 1  # drawn anew, not read from the twin's kept replications
    assert np.array_equal(report.statistics, twin.statistics)
    assert (report.rejection_rate, report.threshold) == (twin.rejection_rate, twin.threshold)
    assert stattest._PLANS.kept is plans and experiments._SPECTRA.kept is spectra


# ---------------------------------------------------------------------------
# the error contract: lowest failing replication, same type and message
# ---------------------------------------------------------------------------


def test_zero_scale_fails_at_replication_zero():
    spec = TvInnovationArSpec(ar=(0.5,), sigma=lambda u: np.zeros_like(np.asarray(u, float)))
    cfg = McConfig(model=spec, T=128, replications=10, master_seed=77)
    msg = r"^replication 0 \(stream 0\): degenerate series: zero variance$"
    with pytest.raises(InputError, match=msg):
        rejection_rate(cfg)
    with pytest.raises(InputError, match=msg):
        lag_scan(spec, 128, [1, 2], replications=10, master_seed=77)


def test_failing_replication_is_named_across_chunks(monkeypatch):
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # no kept study hides the poisoned draws
    spec = model_preset("model1", 128)
    original = experiments._gauss_rows

    def poisoned(seed, start, stop, n):
        out = original(seed, start, stop, n)
        for i in (9, 12):  # replication 9 fails first; both sit in the second chunk
            if start <= i < stop:
                out[i - start, -1] = np.nan
        return out

    monkeypatch.setattr(experiments, "_gauss_rows", poisoned)
    monkeypatch.setattr(experiments, "_CHUNK_ELEMENTS",
                        7 * innovation_count(spec, GeneratorConfig(T=128)))
    cfg = McConfig(model=spec, T=128, replications=20, master_seed=78)
    with pytest.raises(InputError,
                       match=r"^replication 9 \(stream 9\): series contains non-finite values$"):
        rejection_rate(cfg)


@pytest.mark.parametrize("study", ["rejection_rate", "lag_scan"])
def test_a_zero_spectrum_replication_is_named_not_counted(study, monkeypatch):
    # with no ridge, a pure cosine's smoothed spectrum is zero away from its
    # frequency: its statistic is not finite, and no rejection count may hide it
    monkeypatch.setattr(experiments._SPECTRA, "kept", {})  # no kept study hides the cosine
    spec = model_preset("model1", 128)
    original = experiments._filter_rows

    def with_a_cosine(model, E, T, burn_in):
        X = original(model, E, T, burn_in)
        X[11] = np.cos(2 * np.pi * 5 * np.arange(1, T + 1) / T)
        return X

    monkeypatch.setattr(experiments, "_filter_rows", with_a_cosine)
    match = r"^replication 11 \(stream 11\): the smoothed spectrum is zero .* ridge_factor > 0$"
    with pytest.raises(ComputationError, match=match):
        if study == "rejection_rate":
            rejection_rate(McConfig(model=spec, T=128, replications=20, ridge_factor=0.0))
        else:
            lag_scan(spec, 128, [1, 2], replications=20, ridge_factor=0.0)


def test_study_level_failure_is_reported_as_replication_zero():
    spec = ArmaSpec(ar=(1.2,))  # root 1 / 1.2 inside the unit circle
    match = (r"^replication 0 \(stream 0\): ArmaSpec: AR polynomial has a root of modulus "
             r"(\S+) on or inside the unit circle$")
    with pytest.raises(InputError, match=match) as mc_error:
        rejection_rate(McConfig(model=spec, T=128, replications=5))
    with pytest.raises(InputError, match=match) as scan_error:
        lag_scan(spec, 128, [1, 2], replications=5)
    for err in (mc_error, scan_error):
        modulus = float(re.match(match, str(err.value)).group(1))
        assert modulus == pytest.approx(0.8333, abs=1e-4)


def first_bad_row(X):
    """The (row, reason) half of ``_scan_rows``."""
    return _scan_rows(X)[0]


def test_first_bad_row_reports_lowest_row_and_first_reason():
    X = np.random.default_rng(79).standard_normal((6, 40))
    assert first_bad_row(X) is None
    X[5, 3] = np.nan
    X[3] = 2.0
    assert first_bad_row(X) == (3, "degenerate series: zero variance")
    X[2, 0] = np.inf
    assert first_bad_row(X) == (2, "series contains non-finite values")
    X[1] = np.inf  # constant and non-finite: the non-finite reason wins
    assert first_bad_row(X) == (1, "series contains non-finite values")


def test_scan_rows_gives_each_row_a_power_of_two_near_its_largest_magnitude():
    X = np.array([[0.5, -0.25, 0.1], [-3.0, 2.0, 1.0], [1e-300, 0.0, 0.0], [2.0 ** 900, 1.0, 0.0]])
    bad, exponents = _scan_rows(X)
    assert bad is None
    assert exponents.tolist() == [[0], [0], [-1008], [896]]
    top = np.abs(X).max(axis=-1, keepdims=True)
    assert np.all((0.5 <= np.ldexp(top, -exponents)) & (np.ldexp(top, -exponents) < 2.0 ** 15))
    # rows of one scale share one exponent, as an int
    assert _scan_rows(X[:2]) == (None, 0)
    assert _scan_rows(X[2:3]) == (None, -1008)


NONFINITE = "series contains non-finite values"
ALL = slice(None)


@pytest.mark.parametrize("writes, reason", [
    ([(3, np.nan)], NONFINITE),
    ([(3, np.inf)], NONFINITE),
    ([(3, -np.inf)], NONFINITE),
    ([(3, np.inf), (7, -np.inf)], NONFINITE),
    ([(ALL, 2.0), (5, np.nan)], NONFINITE),  # also constant: non-finite first
    ([(ALL, np.inf)], NONFINITE),
    ([(ALL, 2.0)], "degenerate series: zero variance"),
])
def test_first_bad_row_reasons(writes, reason):
    X = np.random.default_rng(83).standard_normal((4, 40))
    X[3] = 1.0  # a later constant row: only the lowest bad row is reported
    for index, value in writes:
        X[1, index] = value
    assert first_bad_row(X) == (1, reason)


# ---------------------------------------------------------------------------
# segmentation runs each depth as a block
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("T", [1024, 1003])
def test_segmented_blocks_equal_separate_tests(T):
    x = np.random.default_rng(80).standard_normal(T)
    report = segmented_test(x, depth=3, m=3)
    for blk in report.blocks:
        single = stationarity_test(x[blk.start:blk.stop], m=3)
        assert blk.result == single


def test_changepoint_rows_equal_single_generation():
    # switches read the previous segment's tail per row, including the burn-in
    spec = simulate.ChangepointArSpec(segments=((0.001, (0.5, 0.2)), (0.6, ()),
                                                (1.0, tuple([0.02] * 20))))
    T, burn = 200, 3
    n = innovation_count(spec, GeneratorConfig(T=T, burn_in=burn))
    block = simulate._filter_rows(spec, _gauss_rows(81, 0, 5, n), T, burn)
    for i in range(5):
        single = generate(spec, GeneratorConfig(T=T, burn_in=burn, rng=RngStream(81, i)))
        assert np.array_equal(block[i], single)
