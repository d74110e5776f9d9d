"""Companion-matrix polynomial roots, the root oracle of the tests.

No stage calls it.  It stays in the package because ``perfbench/spans.py``
names ``oracles.polynomial_roots``; the other brute-force oracles live in
``tests/reference/oracles.py``.  Nothing here imports engine code.
"""
from __future__ import annotations

import numpy as np

from .errors import ModelError

MAX_POLY_DEGREE = 16


def polynomial_roots(coeffs: np.ndarray) -> np.ndarray:
    """All roots of sum_k coeffs[k] z^k via companion-matrix eigenvalues.

    One Newton polish is applied to each eigenvalue.  Degree is capped at
    MAX_POLY_DEGREE to keep conditioning tame.
    """
    c = np.trim_zeros(np.asarray(coeffs, dtype=complex), trim="b")
    if c.size < 2:
        return np.zeros(0, dtype=complex)
    deg = c.size - 1
    if deg > MAX_POLY_DEGREE:
        raise ModelError(f"polynomial degree {deg} exceeds cap {MAX_POLY_DEGREE}")
    monic = c / c[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    roots = np.linalg.eigvals(comp)
    dp = np.arange(1, deg + 1) * monic[1:]
    val = np.polyval(monic[::-1], roots)
    der = np.polyval(dp[::-1], roots)
    safe = np.abs(der) > 0
    polished = roots.copy()
    polished[safe] = roots[safe] - val[safe] / der[safe]
    # keep the step only where it improves the residual (multiple roots
    # have val/der of order one and the step would catapult them)
    better = np.abs(np.polyval(monic[::-1], polished)) < np.abs(val)
    roots[better] = polished[better]
    return roots

