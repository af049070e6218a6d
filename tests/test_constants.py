import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bbm_magnetic.constants import (
    bbm_constant,
    check_s_list,
    fractional_constant,
    fractional_constant_limit,
)
from bbm_magnetic.errors import ConfigurationError
from bbm_magnetic.geometry import ball, sphere_area, sphere_rule


@pytest.mark.parametrize("dim,expected", [(1, 1.0), (2, math.pi / 2.0), (3, 2.0 * math.pi / 3.0)])
def test_bbm_constant_closed_forms(dim, expected):
    assert_allclose(bbm_constant(dim), expected, rtol=1e-15)


@pytest.mark.parametrize("dim,expected", [(1, 2.0), (2, 4.0 / math.pi), (3, 3.0 / math.pi)])
def test_limit_closed_forms(dim, expected):
    assert_allclose(fractional_constant_limit(dim), expected, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_limit_times_bbm_constant_is_two(dim):
    assert_allclose(fractional_constant_limit(dim) * bbm_constant(dim), 2.0, rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bbm_constant_is_half_the_second_moment(dim):
    # one formula, K_N = Q_N / 2 with Q_N = |S^{N-1}| / N, to the last bit in 3D too
    assert bbm_constant(dim) == sphere_area(dim) / dim / 2
    assert bbm_constant(dim) > 0.0


def test_dimensional_constants_relations():
    # the second moment Q_N = |S^{N-1}| / N is the volume of the unit ball,
    # whose closed forms (2, pi, 4 pi / 3) Domain.volume keeps apart
    for dim in (1, 2, 3):
        second_moment = sphere_area(dim) / dim
        assert_allclose(second_moment, ball([0.0] * dim, 1.0).volume(), rtol=1e-14)
        assert bbm_constant(dim) == second_moment / 2.0
        assert bbm_constant(dim) > 0.0


def test_fractional_constant_half_order():
    # 4^(1/2) Gamma(1) (1/4) / (pi^(1/2) Gamma(3/2)) = 1/pi
    assert_allclose(fractional_constant(1, 0.5), 1.0 / math.pi, rtol=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_constant_approaches_limit(dim):
    lim = fractional_constant_limit(dim)
    val = fractional_constant(dim, 0.999) / (1.0 - 0.999)
    assert abs(val - lim) / lim < 0.01


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_limit_error_is_first_order(dim):
    lim = fractional_constant_limit(dim)
    errs = [abs(fractional_constant(dim, s) / (1.0 - s) - lim) for s in (0.9, 0.99, 0.999)]
    assert errs[0] > errs[1] > errs[2]
    for fine, coarse in zip(errs[1:], errs[:-1]):
        assert 0.05 <= fine / coarse <= 0.2


@pytest.mark.parametrize("dim", [2, 3])
def test_bbm_constant_vs_angular_quadrature(dim):
    dirs, wts = sphere_rule(dim, 64 if dim == 2 else 512)
    e = np.zeros(dim)
    e[-1] = 1.0
    quin = 0.5 * float(np.dot(wts, (dirs @ e) ** 2))
    assert_allclose(quin, bbm_constant(dim), rtol=1e-10)


def test_gamma_half_integer_accuracy():
    # the platform gamma backs every constant here; pin it against exact
    # half-integer values on the range the formulas use
    cases = {
        0.5: math.sqrt(math.pi),
        1.0: 1.0,
        1.5: math.sqrt(math.pi) / 2.0,
        2.0: 1.0,
        2.5: 3.0 * math.sqrt(math.pi) / 4.0,
        3.0: 2.0,
        3.5: 15.0 * math.sqrt(math.pi) / 8.0,
        4.0: 6.0,
    }
    for z, exact in cases.items():
        assert abs(math.gamma(z) - exact) / exact <= 1e-13


def test_domain_errors():
    with pytest.raises(ConfigurationError):
        bbm_constant(4)
    with pytest.raises(ValueError):
        fractional_constant(1, 1.0)
    with pytest.raises(ValueError):
        fractional_constant(2, -0.1)
    with pytest.raises(ConfigurationError):
        fractional_constant_limit(0)


def test_s_list_rule_returns_floats_and_names_itself():
    values = check_s_list((np.float64(0.5), 0.9))
    assert values == [0.5, 0.9] and all(type(v) is float for v in values)
    rule = "s_list must be a nonempty, strictly increasing list inside (0, 1)"
    for bad, detail in (([], "got []"), ([0.9, 0.8], "got [0.9, 0.8]"),
                        ([0.8, 0.8], "got [0.8, 0.8]"), ([0.5, 1.0], "s=1.0 outside (0, 1)"),
                        ([0.5, math.nan], "s=nan outside (0, 1)")):
        with pytest.raises(ConfigurationError) as info:
            check_s_list(bad)
        assert str(info.value) == f"{rule}; {detail}"
