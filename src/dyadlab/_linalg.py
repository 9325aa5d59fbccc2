"""Shared dense linear algebra helpers (power iteration and friends)."""

from __future__ import annotations

import numpy as np

__all__ = ["spectral_norm_power"]


_MAX_ITER = 5000
# Iteration stops when the relative update drops below this.
_TOL = 1e-10


def spectral_norm_power(A):
    """Largest singular value via power iteration on the Gram matrix.

    The value is a Rayleigh-quotient lower bound that converges to the
    spectral norm; iteration stops when the relative update drops below
    ``_TOL`` or after ``_MAX_ITER`` steps.
    """
    A = np.asarray(A, dtype=float)
    if A.size == 0:
        return 0.0
    gram = A.T @ A
    n = gram.shape[0]
    rng = np.random.default_rng(0)
    x = np.ones(n) + 1e-3 * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    prev = 0.0
    for _ in range(_MAX_ITER):
        y = gram @ x
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            # x is in the kernel; restart once from a random direction
            x = rng.standard_normal(n)
            nx = np.linalg.norm(x)
            if nx == 0.0:
                return 0.0
            x /= nx
            continue
        value = float(np.sqrt(norm_y))
        x = y / norm_y
        if prev > 0.0 and abs(value - prev) <= _TOL * value:
            return value
        prev = value
    return prev
