"""The double well: the quartic F(c) = (1/4)(c^2 - 1)^2, minimizers -1 and 1.

It is the only well (``potential.kind`` accepts only ``quartic``). Outside
the admissible interval [f1, f2] it is extended quadratically (F'' frozen at
its boundary value), so F' = c^3 - c stays globally Lipschitz; that protects
the time stepper against transient overshoot without changing anything on
the admissible interval.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np


@dataclass(frozen=True)
class DoubleWell:
    """The quartic well on [f1, f2], f1 < -1 < 1 < f2.

    ``L`` = sup |F''| = max(|3 f1^2 - 1|, |3 f2^2 - 1|, 1) on [f1, f2] is an
    exact Lipschitz constant for F' (11 on [-2, 2]), valid on all of R. An
    interval whose L is not finite (an infinite end, or an |f| above about
    7.7e153) is rejected: the stabilised solve would then freeze c.
    """

    f1: float = -2.0
    f2: float = 2.0
    L: float = field(init=False)
    y1: ClassVar[float] = -1.0
    y2: ClassVar[float] = 1.0

    def __post_init__(self):
        f1, f2 = self.f1, self.f2
        if not (f1 < -1.0 and f2 > 1.0):
            raise ValueError(f"quartic well needs f1 < -1 < 1 < f2, got [{f1}, {f2}]")
        L = max(abs(3.0 * (f1 * f1) - 1.0), abs(3.0 * (f2 * f2) - 1.0), 1.0)
        if not np.isfinite(L):
            raise ValueError(f"quartic well on [{f1}, {f2}] has no finite Lipschitz constant")
        object.__setattr__(self, "L", float(L))

    # With every c in [f1, f2] the overshoot terms of the clip form add exact
    # zeros, so the quartic alone gives the same bits.
    def eval_F(self, c):
        c, f1, f2 = np.asarray(c, dtype=float), self.f1, self.f2
        if f1 <= c.min() and c.max() <= f2:
            return 0.25 * (c**2 - 1.0) ** 2
        mid = 0.25 * (np.clip(c, f1, f2) ** 2 - 1.0) ** 2
        dlo = np.minimum(c - f1, 0.0)
        dhi = np.maximum(c - f2, 0.0)
        Fp1, Fpp1 = f1 * f1 * f1 - f1, 3.0 * (f1 * f1) - 1.0
        Fp2, Fpp2 = f2 * f2 * f2 - f2, 3.0 * (f2 * f2) - 1.0
        return mid + Fp1 * dlo + 0.5 * Fpp1 * dlo**2 + Fp2 * dhi + 0.5 * Fpp2 * dhi**2

    def eval_Fprime(self, c):
        c, f1, f2 = np.asarray(c, dtype=float), self.f1, self.f2
        if f1 <= c.min() and c.max() <= f2:
            return c * c * c - c  # numpy's generic pow is several times slower
        # one clip: d = c - m is the overshoot below f1 (< 0) or above f2
        m = np.clip(c, f1, f2)
        out = m * m * m - m
        d = c - m
        out += np.where(d < 0.0, 3.0 * (f1 * f1) - 1.0, 3.0 * (f2 * f2) - 1.0) * d
        return out
