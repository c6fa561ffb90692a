"""Double-well energy density F with a certified Lipschitz constant for F'.

The default well is the quartic F(c) = (1/4)(c^2 - 1)^2 with minimizers +-1
on the admissible interval [-2, 2]. Outside [f1, f2] the well is extended
quadratically (F'' frozen at its boundary value) so F' stays globally
Lipschitz; that protects the time stepper against transient overshoot
without changing anything on the admissible interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class DoubleWell:
    """Energy density with two local minimizers y1 < y2 inside [f1, f2].

    ``L`` is a Lipschitz constant of F' on [f1, f2]; the quadratic extension
    keeps the same constant valid on all of R.
    """

    f1: float
    f2: float
    y1: float
    y2: float
    L: float
    F: Callable[[np.ndarray], np.ndarray]
    Fprime: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if not (self.f1 < self.y1 < self.y2 < self.f2):
            raise ValueError(
                f"need f1 < y1 < y2 < f2, got {self.f1}, {self.y1}, {self.y2}, {self.f2}"
            )
        if not (self.L > 0):
            raise ValueError(f"Lipschitz constant must be positive, got {self.L}")

    def eval_F(self, c):
        return self.F(np.asarray(c, dtype=float))

    def eval_Fprime(self, c):
        return self.Fprime(np.asarray(c, dtype=float))

    def lipschitz_constant(self) -> float:
        return self.L


def _extended(base_F, base_Fp, base_Fpp, f1: float, f2: float):
    """C^{1,1} quadratic extension of a well outside [f1, f2]."""
    F1, Fp1, Fpp1 = base_F(f1), base_Fp(f1), base_Fpp(f1)
    F2, Fp2, Fpp2 = base_F(f2), base_Fp(f2), base_Fpp(f2)

    # With every c in [f1, f2] the overshoot terms below add exact zeros, so
    # the base well alone gives the same bits.
    def in_range(c):
        return f1 <= c.min() and c.max() <= f2

    def F(c):
        c = np.asarray(c, dtype=float)
        if in_range(c):
            return base_F(c)
        mid = base_F(np.clip(c, f1, f2))
        dlo = np.minimum(c - f1, 0.0)
        dhi = np.maximum(c - f2, 0.0)
        return mid + Fp1 * dlo + 0.5 * Fpp1 * dlo**2 + Fp2 * dhi + 0.5 * Fpp2 * dhi**2

    def Fp(c):
        # one clip: d = c - m is the overshoot below f1 (< 0) or above f2
        c = np.asarray(c, dtype=float)
        if in_range(c):
            return base_Fp(c)
        m = np.clip(c, f1, f2)
        out = base_Fp(m)
        d = c - m
        out += np.where(d < 0.0, Fpp1, Fpp2) * d
        return out

    return F, Fp


def quartic_lipschitz_constant(f1: float, f2: float) -> float:
    """Exact sup of |F''| = |3c^2 - 1| for the quartic well on [f1, f2]."""
    candidates = [abs(3.0 * f1**2 - 1.0), abs(3.0 * f2**2 - 1.0)]
    if f1 <= 0.0 <= f2:
        candidates.append(1.0)
    return float(max(candidates))


def quartic_well(f1: float = -2.0, f2: float = 2.0) -> DoubleWell:
    """The canonical Allen-Cahn well F(c) = (1/4)(c^2 - 1)^2.

    F'(c) = c^3 - c, so sup |F''| = max(|3 f1^2 - 1|, |3 f2^2 - 1|, 1) on
    [f1, f2] is an exact Lipschitz constant for F' (11 on [-2, 2]).
    """
    if not (f1 < -1.0 and f2 > 1.0):
        raise ValueError(f"quartic well needs f1 < -1 < 1 < f2, got [{f1}, {f2}]")

    def base_F(c):
        return 0.25 * (np.asarray(c, dtype=float) ** 2 - 1.0) ** 2

    def base_Fp(c):
        c = np.asarray(c, dtype=float)
        return c * c * c - c  # numpy's generic pow is several times slower

    def base_Fpp(c):
        return 3.0 * np.asarray(c, dtype=float) ** 2 - 1.0

    L = quartic_lipschitz_constant(f1, f2)
    F, Fp = _extended(base_F, base_Fp, base_Fpp, f1, f2)
    return DoubleWell(f1=f1, f2=f2, y1=-1.0, y2=1.0, L=float(L), F=F, Fprime=Fp)


def make_well(kind: str = "quartic", f1: float = -2.0, f2: float = 2.0) -> DoubleWell:
    if kind == "quartic":
        return quartic_well(f1, f2)
    raise ValueError(f"unknown potential kind {kind!r}")
