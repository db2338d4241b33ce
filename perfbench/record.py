"""Run manifest: where and with what a run was measured."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

_BLAS_THREAD_GETTERS = ("openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads")


def blas_runtime() -> Dict[str, object]:
    """The BLAS library numpy loaded and its thread count, read now."""
    import numpy as np

    info: Dict[str, object] = {"library": None, "threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle
                     if "blas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(p for p in paths
                       if p.startswith("/") and ".so" in Path(p).name):
        try:
            handle = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _BLAS_THREAD_GETTERS:
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                info["threads"] = int(getter())
                info["path"] = Path(path).name
                return info
    return info


def source_digest(root: Path) -> str:
    """sha256 over the program's sources, identifying the code measured in
    a checkout that is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def manifest(root: Path) -> Dict[str, object]:
    import numpy as np
    from repro.nn import functional as F

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "cores": os.cpu_count(),
        "usable_cores": usable,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_runtime(),
        "REPRO_NN_BACKEND": os.environ.get("REPRO_NN_BACKEND"),
        "nn_backend": F.get_backend(),
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
        "commit": git_commit(root),
        "source_digest": source_digest(root),
        "argv": sys.argv[1:],
    }
