"""Numerical certificates: the one table of thresholds, and the gates each
study's result is judged by.

A gate is one named check of one value against its bound. Every predicate
is written so that a NaN value fails it. A command returns the gates of its
study; the CLI exits 2 if any failed and names each failed gate.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

AUDIT_TOL = 1e-6  # energy inequality: worst (E(t) + int D - E(0)) / E(0)
MAX_PRINCIPLE_TOL = 1e-6  # c beyond the hull of its initial range and the wells
REI_SLACK_TOL = 1e-3  # REI slack >= -tol (1 + |LHS|) at the finest genuine pair
REI_REFINEMENT = 2.0  # raw REI deficit falls at least this much per level
WSU_RATIO = 2.0  # max E falls at least this much from the coarsest level
SPATIAL_ORDERS = (1.7, 2.3)  # manufactured solution, second order in h
TEMPORAL_ORDERS = (0.8, 1.2)  # and first order in dt
GRONWALL_REL_TOL = 1e-6  # E may exceed the fitted bound by this, relative


class Gate(NamedTuple):
    """One certificate: ``value`` checked against ``bound``."""

    name: str
    value: object
    bound: object
    passed: bool


def _at_most(name: str, value, bound) -> Gate:
    return Gate(name, value, bound, bool(value <= bound))


def _at_least(name: str, value, bound) -> Gate:
    return Gate(name, value, bound, bool(bound <= value))


def _within(name: str, value, bounds: tuple[float, float]) -> Gate:
    lo, hi = bounds
    return Gate(name, value, bounds, bool(lo <= value <= hi))


def energy_gates(trace) -> list[Gate]:
    """The energy inequality, from the worst audit value of an ``EnergyTrace``."""
    return [_at_most("energy.audit", trace.audit, AUDIT_TOL)]


def _raw_deficit(trace) -> float:
    return float(np.max(np.maximum(0.0, -trace.slack)))


def wsu_gates(levels) -> list[Gate]:
    """Criteria 7 and 6 on the level traces of ``run_wsu``, coarsest first.

    The finest level is the twin: paired with itself, it has E bitwise 0.
    max E falls strictly from each level to the next finer one (the largest
    rise is below 0), and the ratio of max E at the coarsest level to the
    next is at least ``WSU_RATIO`` (a finer maximum of 0 gives inf, and
    0 / 0 NaN, rather than raising).

    The REI is gated on the two finest genuine pairs, the two levels before
    the twin. The finest one meets it to within ``REI_SLACK_TOL`` (1 + |LHS|)
    at every sample (the gated value is the worst excess), and the next
    coarser one's raw deficit is at least ``REI_REFINEMENT`` times the
    finest's.
    """
    maxima = [trace.max_entropy for trace in levels.values()]
    rise = float(np.max(np.diff(maxima)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = float(np.divide(maxima[0], maxima[1]))
    coarse, fine = list(levels.values())[-3:-1]
    lhs = fine.lhs_entropy_gap + fine.lhs_visc + fine.lhs_ac
    excess = np.maximum(0.0, -fine.slack - REI_SLACK_TOL * (1.0 + np.abs(lhs)))
    return [
        _within("wsu.twin_zero", maxima[-1], (0.0, 0.0)),
        Gate("wsu.monotone", rise, 0.0, bool(rise < 0.0)),
        _at_least("wsu.ratio", ratio, WSU_RATIO),
        _at_most("rei.tolerance", float(np.max(excess, initial=0.0)), 0.0),
        _at_least("rei.refinement", _raw_deficit(coarse), REI_REFINEMENT * _raw_deficit(fine)),
    ]


def gronwall_gates(trace) -> list[Gate]:
    """E stays under the fitted exponential bound of a ``PairTrace``."""
    return [_at_most("gronwall.violated", trace.violated, False)]


def mms_gates(trace) -> list[Gate]:
    """Every order of a ``ConvergenceTrace`` within its range."""
    return [
        _within(f"mms.spatial.{i}", order, SPATIAL_ORDERS)
        for i, order in enumerate(trace.spatial_orders)
    ] + [
        _within(f"mms.temporal.{i}", order, TEMPORAL_ORDERS)
        for i, order in enumerate(trace.temporal_orders)
    ]
