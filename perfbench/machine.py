"""Provenance of a run and the machine ceilings the layers are read against."""

import ctypes
import hashlib
import os
import platform
import subprocess
import time

import numpy as np

#: Environment variables that each switch the measured code path.
REFUSED_ENV = ("REPRO_NN_BACKEND", "REPRO_TRAIN_WORKERS", "REPRO_OBS",
               "REPRO_SCALE", "REPRO_DATA_BACKEND")


def refused_env():
    """The path-switching variables set in this environment."""
    return [name for name in REFUSED_ENV if os.environ.get(name)]


def _git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest(root):
    """sha256 over every file under ``src/`` (path and bytes), so a run
    names the code it measured even where no git metadata exists."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(directory, name)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def blas_threads():
    """OpenBLAS's live thread count, read from the loaded library."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and "/" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def provenance(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(root),
        "src_sha256": source_digest(root),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "{} {}".format(blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "seed": seed,
    }


def stream_add_gbps(elements=8 * 1024 * 1024, repeats=10):
    """STREAM-style add ``c = a + b`` over arrays far beyond cache:
    best of ``repeats``, 3 arrays of 8-byte values moved per element."""
    a = np.full(elements, 1.0)
    b = np.full(elements, 2.0)
    c = np.empty(elements)
    np.add(a, b, out=c)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        np.add(a, b, out=c)
        best = min(best, time.perf_counter() - start)
    return 3 * 8 * elements / best / 1e9


def gemm_gflops(n=1024, repeats=3):
    """Square float64 matmul through BLAS: best of ``repeats``."""
    rng = np.random.default_rng(0)
    a = rng.random((n, n))
    b = rng.random((n, n))
    a @ b
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        a @ b
        best = min(best, time.perf_counter() - start)
    return 2.0 * n ** 3 / best / 1e9
