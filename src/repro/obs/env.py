"""Parsing of the ``REPRO_*`` observability knobs, in one place.

Every on/off switch of :mod:`repro.obs` reads through :func:`env_flag`
and every top-K switch through :func:`env_top_k`, so the accepted
spellings are the same for all of them. This module imports nothing
from the package: any obs layer may use it without an import cycle.
"""

from __future__ import annotations

import os

__all__ = ["FALSY", "TRUTHY", "env_flag", "env_top_k"]

TRUTHY = frozenset({"1", "true", "yes", "on"})
FALSY = frozenset({"0", "false", "no", "off"})


def env_flag(name: str, default: bool = False) -> bool:
    """Read an on/off knob: truthy words -> True, falsy words -> False.

    Unset, empty or any other value gives ``default`` (``REPRO_FSYNC``
    is the one knob whose default is on).
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in TRUTHY:
        return True
    if raw in FALSY:
        return False
    return default


def env_top_k(name: str, default: int) -> int:
    """Read a top-K knob (``REPRO_PROFILE``, ``REPRO_TRACEMALLOC``).

    A truthy word gives ``default``, an integer gives that K, and
    anything else (unset, empty, falsy, unparsable) gives 0 -- off.
    """
    raw = os.environ.get(name, "").strip().lower()
    if raw in TRUTHY:
        return default
    try:
        return max(0, int(raw))
    except ValueError:
        return 0
