"""Strict-JSON documents: non-finite floats as strings."""

from __future__ import annotations

import math

__all__ = ["sanitise"]


def sanitise(obj):
    """``obj`` with every non-finite float inside it replaced by its
    ``str`` (``"inf"``, ``"nan"``), so ``json.dumps(..., allow_nan=False)``
    accepts it.  Dicts, lists and tuples are rebuilt as their own kind."""
    if isinstance(obj, dict):
        return {k: sanitise(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [sanitise(v) for v in obj]
    if isinstance(obj, tuple):
        return tuple(sanitise(v) for v in obj)
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    return obj
