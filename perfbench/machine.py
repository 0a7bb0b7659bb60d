"""The machine a result was measured on.

A wall-clock number means little without the core count and the BLAS
threading it ran under: an earlier benchmark recorded a 4.64x
"parallel" win on a one-core box.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path
from typing import Any, Dict, Optional


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas() -> Dict[str, Any]:
    """OpenBLAS version and thread count, read from the loaded library."""
    import numpy as np

    info: Dict[str, Any] = {"version": None, "threads": None, "config": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["version"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    numpy_dir = Path(np.__file__).resolve().parent
    candidates = [
        path
        for folder in (numpy_dir.parent / "numpy.libs", numpy_dir / ".libs")
        if folder.is_dir()
        for path in folder.iterdir()
        if "openblas" in path.name and ".so" in path.name
    ]
    for path in candidates:
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = _symbol(lib, f"{prefix}_get_num_threads{suffix}",
                                  ctypes.c_int)
                if threads is not None:
                    info["threads"] = threads
                    info["config"] = _symbol(
                        lib, f"{prefix}_get_config{suffix}", ctypes.c_char_p
                    )
                    if isinstance(info["config"], bytes):
                        info["config"] = info["config"].decode()
                    return info
    return info


def _symbol(lib: ctypes.CDLL, name: str, restype) -> Optional[Any]:
    fn = getattr(lib, name, None)
    if fn is None:
        return None
    fn.argtypes = []
    fn.restype = restype
    return fn()


def machine_info() -> Dict[str, Any]:
    """nproc, affinity, CPU model, and Python/NumPy/OpenBLAS versions."""
    import numpy as np

    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _openblas(),
        "thread_env": {
            key: os.environ[key]
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")
            if key in os.environ
        },
    }
