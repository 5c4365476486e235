"""Analytical guarantees of the approximation algorithm (Theorem 1, Lemmas 1–2).

These functions implement the paper's formulas verbatim so that the test
suite can check the *implementation* against the *theory*: the measured
approximation error of Algorithm 1 must never exceed
:func:`theorem1_error_bound`, and the number of tensor-network contractions
it performs must equal :func:`contraction_count`.
"""

from __future__ import annotations

import math

from repro.utils.validation import ValidationError

__all__ = [
    "lemma1_bound",
    "lemma2_bound",
    "theorem1_error_bound",
    "level1_error_bound_simplified",
    "contraction_count",
    "terms_per_level",
]


def lemma1_bound(delta: float) -> float:
    """Lemma 1: ``‖A − B‖ < δ`` implies ``‖~A − ~B‖ < 2δ`` (4x4 matrices)."""
    if delta < 0:
        raise ValidationError("delta must be non-negative")
    return 2.0 * delta


def lemma2_bound(noise_rate: float) -> float:
    """Lemma 2: ``‖M_E − I‖ < δ`` implies ``‖M_E − U_0 ⊗ V_0‖ < 4δ``."""
    if noise_rate < 0:
        raise ValidationError("noise_rate must be non-negative")
    return 4.0 * noise_rate


def terms_per_level(num_noises: int, level: int) -> int:
    """Number of substituted tensor-network terms summed at exactly level ``level``.

    Level ``k`` replaces ``k`` of the ``N`` noises by one of their three
    sub-dominant Kronecker terms, so there are ``C(N, k) · 3**k`` terms.
    """
    if num_noises < 0 or level < 0:
        raise ValidationError("num_noises and level must be non-negative")
    if level > num_noises:
        return 0
    return math.comb(num_noises, level) * 3**level


def contraction_count(num_noises: int, level: int) -> int:
    """Total tensor-network contractions of Algorithm 1, as Theorem 1 counts them.

    The paper splits every term into two independent networks (upper and
    lower), hence the count is ``2 · Σ_{i=0}^{l} C(N, i) · 3**i``.  The
    library contracts one network per term (:mod:`repro.core.approximation`).
    """
    level = min(level, num_noises)
    return 2 * sum(terms_per_level(num_noises, k) for k in range(level + 1))


def theorem1_error_bound(num_noises: int, noise_rate: float, level: int) -> float:
    """Theorem 1 error bound for the level-``l`` approximation.

    ``|F − A(l)| ≤ (1 + 8p)^N − Σ_{i=0}^{l} C(N, i) (4p)^i (1 + 4p)^{N−i}``
    where ``p`` is a common upper bound on the noise rates of the ``N`` noises.
    """
    if num_noises < 0:
        raise ValidationError("num_noises must be non-negative")
    if noise_rate < 0:
        raise ValidationError("noise_rate must be non-negative")
    if level < 0:
        raise ValidationError("level must be non-negative")
    n, p = num_noises, noise_rate
    level = min(level, n)
    total = (1.0 + 8.0 * p) ** n
    partial = sum(
        math.comb(n, i) * (4.0 * p) ** i * (1.0 + 4.0 * p) ** (n - i) for i in range(level + 1)
    )
    return max(total - partial, 0.0)


def level1_error_bound_simplified(num_noises: int, noise_rate: float) -> float:
    """The paper's simplified level-1 bound ``32 √e N² p²`` (valid for ``p ≤ 1/(8N)``).

    Falls back to the exact Theorem 1 expression when the small-``p``
    assumption does not hold, so the returned value is always a valid bound.
    """
    n, p = num_noises, noise_rate
    if n <= 0:
        return 0.0
    if p <= 1.0 / (8.0 * n):
        return 32.0 * math.sqrt(math.e) * (n**2) * (p**2)
    return theorem1_error_bound(n, p, level=1)
