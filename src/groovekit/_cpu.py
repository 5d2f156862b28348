"""The CPU count that decides whether a helper thread may pay.

A module of its own, so that ``analysis`` (DFA) and ``audio`` (the envelope)
share it without the CSV path loading ``audio``.
"""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1
