"""The order-preserving map through which ``srq2.solve`` runs its SCF
starts (``jnr.boundary_sample`` batches its directions in one ``eigh``)."""

from __future__ import annotations


def parallel_map(fn, items) -> list:
    """``[fn(item) for item in items]``, in input order."""
    return [fn(item) for item in items]
