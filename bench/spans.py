"""Span tracing of the library from outside it.

:class:`Tracer` wraps the public functions of each ``dftstat`` module and
replaces every module attribute that refers to the original, so calls the
library makes between its own modules (``dftstat.stattest.smooth_spectral``,
``dftstat.experiments.generate`` and so on) are recorded as well as calls
from the benchmark. Spans are kept in memory as

    (name, start, end, parent index, round, replication, size)

and written out when the run ends. ``size`` is the number of series points
for the DFT and smoothing spans and the number of lags for the covariance
entry points. The replication is the stream id of the last ``generate`` call
in the round, so the spans of one Monte Carlo replication share it.

Which span covers which public name:

    <module>.<function>       every public function defined in the module
                              (name without a leading underscore), under the
                              name of its module and function
    simulate.validate         the ``validate`` method of every model spec
                              class in ``dftstat.simulate``
    simulate.local_spectrum.eval
                              each call of the callable that
                              ``local_spectrum`` returns
    cli.process               one ``python -m dftstat.cli`` process, timed
                              by the benchmark
    bench.round               one round of the workload (the root span)

A name in ``REQUIRED`` that the library no longer defines is reported in
``absent`` and its metrics read zero; it never stops the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from pathlib import Path

MODULES = ("numerics", "spectral", "stattest", "simulate", "experiments", "cli")

# names the per-layer metrics are built from
REQUIRED = (
    "numerics.dft_canonical", "numerics.chisq_sf", "numerics.chisq_quantile",
    "numerics.gauss_stream", "spectral.smooth_spectral",
    "stattest.stationarity_test", "stattest.dft_covariances",
    "stattest.segmented_test", "simulate.generate", "simulate.local_spectrum",
    "experiments.rejection_rate", "experiments.lag_scan",
    "experiments.noncentrality",
)

POINT_SPANS = ("numerics.dft_canonical", "spectral.smooth_spectral")
# public entry points that evaluate covariances, with how many lags a call does
LAG_SPANS = ("stattest.stationarity_test", "stattest.dft_covariances",
             "stattest.dft_covariance", "stattest.dft_covariance_true_spectrum")


def _size(value) -> int:
    shape = getattr(value, "shape", None)
    if shape is not None:
        n = 1
        for d in shape:
            n *= int(d)
        return n
    try:
        return len(value)
    except TypeError:
        return 0


def _lag_counter(fn):
    """Number of lags a covariance entry point evaluates, from its arguments;
    0 when the signature no longer binds."""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):
        return lambda args, kwargs: 0

    def count(args, kwargs):
        try:
            bound = sig.bind(*args, **kwargs)
        except TypeError:
            return 0
        bound.apply_defaults()
        a = bound.arguments
        if "lag" in a:
            return 1
        if a.get("lags") is not None:
            return _size(a["lags"])
        m = a.get("m")
        return int(m) if isinstance(m, int) else 0

    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.round = -1
        self.rep = None
        self.absent: list[str] = []
        self.covered: dict[str, list[str]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def begin(self, name: str, size: int = 0) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.round, self.rep, size])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def new_round(self, k: int):
        self.round = k
        self.rep = None

    def _wrap(self, fn, name: str):
        size_of = None
        if name in POINT_SPANS:
            size_of = lambda args, kwargs: _size(args[0]) if args else 0  # noqa: E731
        elif name in LAG_SPANS:
            size_of = _lag_counter(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "simulate.generate" and len(args) > 1:
                tracer.rep = getattr(getattr(args[1], "rng", None), "stream_id", tracer.rep)
            idx = tracer.begin(name, size_of(args, kwargs) if size_of else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if name == "simulate.local_spectrum" and callable(out):
                return tracer._wrap(out, "simulate.local_spectrum.eval")
            return out

        return wrapper

    # -- installing the wrappers ---------------------------------------------

    def install(self, package):
        """Wrap the public functions of ``package``'s modules in place."""
        mods = [m for name, m in sorted(sys.modules.items())
                if name == package.__name__ or name.startswith(package.__name__ + ".")]
        targets: dict[int, tuple[object, str]] = {}
        for short in MODULES:
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:
                continue
            for attr, value in vars(mod).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    targets[id(value)] = (value, f"{short}.{attr}")
                elif inspect.isclass(value) and value.__module__ == mod.__name__ \
                        and short == "simulate" and inspect.isfunction(vars(value).get("validate")):
                    self._patch(value, "validate", self._wrap(vars(value)["validate"], "simulate.validate"))
                    self.covered.setdefault("simulate.validate", []).append(
                        f"{mod.__name__}.{attr}.validate")
        found = {name for _, name in targets.values()}
        self.absent = [n for n in REQUIRED if n not in found]
        if "simulate.validate" not in self.covered:
            self.absent.append("simulate.validate")
        for fn, name in targets.values():
            wrapper = self._wrap(fn, name)
            for mod in mods:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapper)
                        self.covered.setdefault(name, []).append(f"{mod.__name__}.{attr}")

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total duration, self time and total size."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, rnd, rep, size) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += end - start - child[i]
            s["size"] += size
        return out

    def write(self, path: Path, header: dict):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "round", "replication", "size"]
        payload = dict(header, absent=self.absent, covered=self.covered,
                       span_fields=fields, spans=self.spans)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


def per_layer(summary: dict, rounds: int, cli: dict, overhead_frac: float) -> dict:
    """The per-layer metrics, per traced round of the workload."""
    n = max(rounds, 1)

    def get(name, key):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("simulate.generate", "simulate.validate", "numerics.gauss_stream",
                 "stattest.dft_covariances", "numerics.chisq_sf",
                 "numerics.chisq_quantile", "numerics.dft_canonical",
                 "spectral.smooth_spectral", "experiments.noncentrality"):
        m[f"{name}.calls"] = (get(name, "calls") / n, "count")
        m[f"{name}.self_s"] = (get(name, "self_s") / n, "s")
    for name in ("stattest.stationarity_test", "experiments.rejection_rate",
                 "experiments.lag_scan", "stattest.segmented_test"):
        m[f"{name}.self_s"] = (get(name, "self_s") / n, "s")
    m["simulate.generate.us_per_call"] = (
        ratio(get("simulate.generate", "total_s"), get("simulate.generate", "calls"), 1e6), "us")
    lag_evals = sum(get(s, "size") for s in LAG_SPANS)
    m["stattest.lag_evaluations"] = (lag_evals / n, "count")
    m["stattest.covariance.us_per_lag"] = (
        ratio(sum(get(s, "self_s") for s in LAG_SPANS), lag_evals, 1e6), "us")
    for name in POINT_SPANS:
        m[f"{name}.ns_per_point"] = (ratio(get(name, "self_s"), get(name, "size"), 1e9), "ns")
    ev = "simulate.local_spectrum.eval"
    m["simulate.local_spectrum.eval_calls"] = (get(ev, "calls") / n, "count")
    m["simulate.local_spectrum.eval_s"] = (get(ev, "self_s") / n, "s")
    for key in ("import_s", "main_inproc_s", "interpreter_s"):
        m[f"cli.{key}"] = (cli.get(key, 0.0), "s")
    m["trace.overhead_frac"] = (overhead_frac, "fraction")
    return m
