"""Resident memory and CPU time of processes, read from ``/proc``."""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional

_PAGE_TICKS = os.sysconf("SC_CLK_TCK")


def status_kb(pid: int, field: str) -> Optional[int]:
    """A ``kB`` field of ``/proc/<pid>/status`` (``VmRSS``, ``VmHWM``)."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith(field + ":"):
            return int(line.split()[1])
    return None


def reset_peak(pid: int) -> bool:
    """Reset the peak resident size (``VmHWM``) of ``pid`` to its current size."""
    try:
        Path(f"/proc/{pid}/clear_refs").write_text("5")
    except OSError:
        return False
    return True


def children(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        tasks = list(Path(f"/proc/{pid}/task").iterdir())
    except OSError:
        return pids
    for task in tasks:
        try:
            pids.extend(int(child) for child in (task / "children").read_text().split())
        except OSError:
            continue
    return pids


def descendants(pid: int) -> List[int]:
    """Every live process started, directly or not, by ``pid``."""
    found: List[int] = []
    pending = children(pid)
    while pending:
        child = pending.pop()
        found.append(child)
        pending.extend(children(child))
    return found


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of ``pid`` so far."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _PAGE_TICKS


def tree_cpu_seconds(pid: int) -> float:
    """CPU time of ``pid`` plus that of every live process it started."""
    total = cpu_seconds(pid)
    for child in descendants(pid):
        try:
            total += cpu_seconds(child)
        except OSError:  # ended since it was listed
            continue
    return total
