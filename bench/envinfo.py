"""The environment a run was measured in, recorded with every result."""

from __future__ import annotations

import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def pin_threads():
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def pin_cpu() -> int | None:
    """Run this process, and the processes it starts, on one CPU: the
    highest it may use. The two vCPUs of the machine this benchmark was built
    on run at different speeds that change within seconds, so an operation and
    the calibration job timed before it must run on the same one."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "absent"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, int]:
    """Unified/data cache sizes of cpu0 in bytes, by level."""
    sizes: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        entries = sorted(base.glob("index*"))
        for d in entries:
            if (d / "type").read_text().strip() == "Instruction":
                continue
            text = (d / "size").read_text().strip()
            mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
            sizes[f"L{(d / 'level').read_text().strip()}"] = int(text.rstrip("KM")) * mult
    except (OSError, ValueError):
        pass
    return sizes


def environment(root: Path, working_set_bytes: int) -> dict:
    caches = _cache_sizes()
    llc = caches.get(max(caches), 0) if caches else 0
    return {
        "git_commit": _git_commit(root),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count() or 0,
        "pinned_cpus": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "cache_bytes": caches,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        # computed from array sizes, not measured traffic
        "largest_working_set_bytes": working_set_bytes,
        "last_level_cache_bytes": llc,
        "fits_in_last_level_cache": bool(llc) and working_set_bytes < llc,
    }
