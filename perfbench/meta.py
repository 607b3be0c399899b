"""Run metadata: what was measured, where, and how fast the machine is."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return result.stdout


def tree_identity(root: Path) -> Dict[str, Any]:
    """The commit measured, or a content hash when there is no repository.

    ``git_sha`` is the commit of the working tree being measured (``HEAD``
    at run time), and ``dirty`` says whether tracked files differ from it.
    Outside a git repository both are ``None``; ``tree_sha256`` (a hash of
    every ``.py`` file under ``src/`` and ``perfbench/``) identifies the
    tree either way.
    """
    sha = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain", "--untracked-files=no") if sha else None
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return {
        "git_sha": sha.strip() if sha else None,
        "dirty": bool(status.strip()) if status is not None else None,
        "tree_sha256": digest.hexdigest(),
    }


def kernel(steps: int) -> float:
    """A fixed pure-Python workload (dict and float work); returns a checksum."""
    total = 0.0
    record = {f"f{index}": float(index) for index in range(48)}
    for step in range(steps):
        shifted = {key: value + step for key, value in record.items() if value > 8.0}
        total += sum(shifted.values())
    return total


def calibration_kernel(repeats: int = 3) -> Dict[str, Any]:
    """Median time of :func:`kernel` at 15k steps.

    Scales with the interpreter speed the benchmark's hot paths depend on,
    so figures from different machines can be normalised by it.
    """
    timings: List[float] = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = kernel(15_000)
        timings.append(time.perf_counter() - started)
    timings.sort()
    return {"median_s": timings[len(timings) // 2], "runs_s": timings, "checksum": total}


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "executable": os.path.basename(sys.executable),
    }
