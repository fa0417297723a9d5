"""The environment block recorded with every result."""

from __future__ import annotations

import ctypes
import importlib.metadata
import importlib.util
import os
import platform
from pathlib import Path

# Symbol names under which OpenBLAS builds export their thread query.
_THREAD_QUERIES = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
)
_CONFIG_QUERIES = ("openblas_get_config", "openblas_get_config64_", "scipy_openblas_get_config64_")


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS libraries loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        return sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})


def _call(library, names, restype):
    for name in names:
        function = getattr(library, name, None)
        if function is not None:
            function.restype = restype
            value = function()
            return value.decode() if isinstance(value, bytes) else value
    return None


def blas_info() -> dict:
    """Version string and effective thread count of numpy's OpenBLAS."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        paths = _mapped_openblas()
    except OSError:
        paths = []
    for path in paths:
        library = ctypes.CDLL(path)
        threads = _call(library, _THREAD_QUERIES, ctypes.c_int)
        if threads is not None:
            return {
                "library": os.path.basename(path),
                "config": _call(library, _CONFIG_QUERIES, ctypes.c_char_p),
                "threads": threads,
            }
    return {"library": None, "config": None, "threads": None}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Data and unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            level = (index / "level").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _version(package: str) -> str | None:
    if importlib.util.find_spec(package) is None:
        return None
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas_env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }
