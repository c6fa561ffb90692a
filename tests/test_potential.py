"""Double-well potential: values, derivative consistency, Lipschitz bound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsac.potential import DoubleWell, make_well, quartic_lipschitz_constant, quartic_well


def test_quartic_values():
    well = quartic_well()
    assert well.eval_F(1.0) == pytest.approx(0.0, abs=1e-15)
    assert well.eval_F(-1.0) == pytest.approx(0.0, abs=1e-15)
    assert well.eval_F(0.0) == pytest.approx(0.25, abs=1e-15)


def test_quartic_derivative_values():
    well = quartic_well()
    assert well.eval_Fprime(0.0) == pytest.approx(0.0, abs=1e-15)
    assert well.eval_Fprime(2.0) == pytest.approx(6.0, abs=1e-12)
    assert well.eval_Fprime(well.y1) == pytest.approx(0.0, abs=1e-12)
    assert well.eval_Fprime(well.y2) == pytest.approx(0.0, abs=1e-12)


def test_derivative_matches_finite_difference():
    well = quartic_well()
    rng = np.random.default_rng(10)
    # include the extension region [f1 - 1, f2 + 1]
    c = rng.uniform(well.f1 - 1.0, well.f2 + 1.0, size=1000)
    step = 1e-6
    fd = (well.eval_F(c + step) - well.eval_F(c - step)) / (2 * step)
    fp = well.eval_Fprime(c)
    denom = np.maximum(np.abs(fp), 1.0)
    assert np.max(np.abs(fd - fp) / denom) < 1e-6


def test_lipschitz_constant_values():
    assert quartic_well().lipschitz_constant() == pytest.approx(11.0)
    assert quartic_lipschitz_constant(-2.0, 2.0) == pytest.approx(11.0)
    assert quartic_lipschitz_constant(-1.0, 1.0) == pytest.approx(2.0)


def test_lipschitz_bound_on_random_pairs():
    well = quartic_well()
    rng = np.random.default_rng(11)
    a = rng.uniform(well.f1, well.f2, size=10_000)
    b = rng.uniform(well.f1, well.f2, size=10_000)
    keep = np.abs(a - b) > 1e-12
    ratios = np.abs(well.eval_Fprime(a[keep]) - well.eval_Fprime(b[keep])) / np.abs(
        a[keep] - b[keep]
    )
    assert np.max(ratios) <= well.lipschitz_constant() * (1 + 1e-12)


def test_lipschitz_bound_holds_globally():
    # the quadratic extension keeps the same constant valid outside [f1, f2]
    well = quartic_well()
    rng = np.random.default_rng(12)
    a = rng.uniform(well.f1 - 3.0, well.f2 + 3.0, size=10_000)
    b = rng.uniform(well.f1 - 3.0, well.f2 + 3.0, size=10_000)
    keep = np.abs(a - b) > 1e-12
    ratios = np.abs(well.eval_Fprime(a[keep]) - well.eval_Fprime(b[keep])) / np.abs(
        a[keep] - b[keep]
    )
    assert np.max(ratios) <= well.lipschitz_constant() * (1 + 1e-12)


def test_F_nonnegative_and_monotone_outside_wells():
    well = quartic_well()
    c = np.linspace(well.f1 - 1.0, well.f2 + 1.0, 4001)
    assert np.all(well.eval_F(c) >= 0.0)
    below = c[(c < well.y1) & (c < well.y1 - 1e-9)]
    above = c[(c > well.y2) & (c > well.y2 + 1e-9)]
    assert np.all(well.eval_Fprime(below) < 0.0)
    assert np.all(well.eval_Fprime(above) > 0.0)


def test_extension_is_c1_at_interval_ends():
    well = quartic_well()
    for edge in (well.f1, well.f2):
        inner = well.eval_Fprime(edge - 1e-9)
        outer = well.eval_Fprime(edge + 1e-9)
        assert inner == pytest.approx(outer, abs=1e-6)


def test_well_record_validation():
    with pytest.raises(ValueError):
        DoubleWell(f1=1.0, f2=-1.0, y1=-0.5, y2=0.5, L=1.0, F=None, Fprime=None)
    with pytest.raises(ValueError):
        make_well("logarithmic")
    with pytest.raises(ValueError):
        quartic_well(-0.5, 2.0)


def test_make_well_custom_interval():
    well = make_well("quartic", f1=-1.5, f2=1.5)
    assert well.f1 == -1.5
    assert well.lipschitz_constant() == pytest.approx(3 * 1.5**2 - 1)


def _two_sided_Fprime(c, f1, f2):
    """Reference: the extended quartic F' as the clipped F' plus one linear
    term below f1 and one above f2."""
    c = np.asarray(c, dtype=float)
    mid = np.clip(c, f1, f2) ** 3 - np.clip(c, f1, f2)
    Fpp1, Fpp2 = 3.0 * f1**2 - 1.0, 3.0 * f2**2 - 1.0
    return mid + Fpp1 * np.minimum(c - f1, 0.0) + Fpp2 * np.maximum(c - f2, 0.0)


@settings(max_examples=200, deadline=None)
@given(c=st.lists(st.floats(-6.0, 4.5), min_size=1, max_size=8))
def test_extended_Fprime_matches_two_sided_form(c):
    # asymmetric well, so F''(f1) = 26 and F''(f2) = 5.75 cannot be confused
    well = quartic_well(-3.0, 1.5)
    c = np.array(c)
    ref = _two_sided_Fprime(c, well.f1, well.f2)
    got = well.eval_Fprime(c)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(np.abs(ref), 1.0))
