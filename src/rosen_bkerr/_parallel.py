"""The order-preserving map through which the independent inner loops run
(the SCF restarts and the boundary directions)."""

from __future__ import annotations


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, in input order."""
    return [fn(item) for item in items]
