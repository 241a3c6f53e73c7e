"""Environment record written with every result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _blas() -> tuple[str, int | None]:
    import numpy as np

    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{info.get('name')} {info.get('version')}"
    except (KeyError, TypeError):
        vendor = "unknown"
    threads = None
    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return vendor, threads


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def _src_sha256(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "bergtoep").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path, seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    vendor, threads = _blas()
    return {
        "seed": seed,
        "git_sha": _git_sha(root),
        "src_sha256": _src_sha256(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "l3": _l3(),
    }


def _l3() -> str | None:
    """L3 size as the kernel reports it (e.g. "105M"), else from sysconf."""
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            if Path(index, "level").read_text().strip() == "3":
                return Path(index, "size").read_text().strip()
        except OSError:
            continue
    try:
        size = os.sysconf("SC_LEVEL3_CACHE_SIZE")
    except (ValueError, OSError):
        return None
    return f"{size}B" if size > 0 else None
