"""Process set-up shared by the benchmark scripts: BLAS thread cap, the
import of fracspec from this checkout's ``src``, and the run environment
record.  Call ``cap_blas_threads`` before anything imports numpy."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> dict:
    """Cap every BLAS thread pool at nproc, keeping a lower setting."""
    cap = nproc()
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = cap
        os.environ[var] = str(max(1, min(current, cap)))
    return {var: os.environ[var] for var in THREAD_VARS}


def import_fracspec():
    """Import fracspec from this checkout's src, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import fracspec
    import fracspec.cli  # noqa: F401  (not imported by the package itself)

    where = Path(fracspec.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"fracspec was imported from {where}, not from {SRC}")
    return fracspec


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git, which would
    search parent directories when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fracspec").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc(),
        "blas_threads": threads,
        "platform": platform.platform(),
    }
