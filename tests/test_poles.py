"""Tests for the candidate pole-hyperplane enumeration and the exact
depth-1 analytic continuation."""

import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from cmzv import (
    CapacityError,
    DomainError,
    Hyperplane,
    depth1_value,
    integrate_semi_infinite,
    perm_min_sequence,
    pole_hyperplanes,
)

F = Fraction


# ------------------------------------------------------------- Hyperplane


def test_hyperplane_str_forms():
    assert str(Hyperplane((1,), 1)) == "s1 = 1"
    assert str(Hyperplane((2, 1), -1)) == "2*s1 + s2 = -1"
    assert str(Hyperplane((3, 2, 1), 0)) == "3*s1 + 2*s2 + s3 = 0"


def test_hyperplane_evaluate():
    h = Hyperplane((2, 1), 3)
    assert h.evaluate((1, 1)) == 0
    assert h.evaluate((2, 2)) == 3
    assert h.evaluate((2, 2, 99)) == 3  # extra coordinates ignored
    with pytest.raises(DomainError):
        h.evaluate((1,))


def test_hyperplane_json():
    assert Hyperplane((2, 1), -4).to_json() == {"coeffs": [2, 1], "constant": -4}


def test_hyperplane_validation():
    with pytest.raises(DomainError):
        Hyperplane((), 0)
    with pytest.raises(DomainError):
        Hyperplane((0,), 0)
    with pytest.raises(DomainError):
        Hyperplane((1, -2), 0)
    with pytest.raises(DomainError):
        Hyperplane((1, 2), 0)  # must be non-increasing


def test_hyperplane_validation_messages():
    with pytest.raises(DomainError, match=r"^a hyperplane needs at least one coefficient$"):
        Hyperplane([], 0)
    with pytest.raises(DomainError, match=r"^coefficients must be positive, got \(2, 0\)$"):
        Hyperplane((2, 0), 0)
    with pytest.raises(DomainError, match=r"^coefficients must be non-increasing, got \(1, 2\)$"):
        Hyperplane([1, 2], 0)
    # positivity is checked before order
    with pytest.raises(DomainError, match="positive"):
        Hyperplane((0, 1), 0)


def test_hyperplane_hash_and_equality():
    assert Hyperplane([2, 1], 1) == Hyperplane((2, 1), 1)
    assert len({Hyperplane((1,), 0), Hyperplane((1,), 0)}) == 1


# ------------------------------------------------------- perm_min_sequence


def test_perm_min_examples():
    assert perm_min_sequence((1, 2, 3)) == (1, 1, 1)
    assert perm_min_sequence((2, 1)) == (2, 1)
    assert perm_min_sequence((3, 1, 2)) == (3, 1, 1)
    assert perm_min_sequence((1,)) == (1,)


def test_perm_min_rejects_non_permutations():
    for bad in ((1, 1), (2, 3), (0, 1), ()):
        with pytest.raises(DomainError):
            perm_min_sequence(bad)


def test_perm_min_properties_exhaustive():
    for r in range(1, 7):
        for sigma in permutations(range(1, r + 1)):
            mins = perm_min_sequence(sigma)
            assert len(mins) == r
            assert mins[0] == sigma[0]
            assert mins[-1] == 1
            assert all(a >= b >= 1 for a, b in zip(mins, mins[1:]))
            assert all(m == min(sigma[: i + 1]) for i, m in enumerate(mins))


# -------------------------------------------------------- pole_hyperplanes


def test_depth1_pole_family_is_exact():
    got = pole_hyperplanes(1, 12)
    expected = frozenset(Hyperplane((1,), 2 - k) for k in range(1, 13))
    assert got == expected


def test_depth2_families():
    got = pole_hyperplanes(2, 2)
    coeff_sets = {h.coefficients for h in got}
    assert coeff_sets == {(1,), (2,), (1, 1), (2, 1)}
    assert len(got) == 8
    assert Hyperplane((2, 1), 2) in got  # i=2, k=1
    assert Hyperplane((2,), 1) in got  # i=1, k=1
    assert Hyperplane((1, 1), 1) in got  # i=2, k=2


def test_depth3_coefficient_tuples():
    got = {h.coefficients for h in pole_hyperplanes(3, 1)}
    assert got == {
        (1,), (2,), (3,),
        (1, 1), (2, 1), (2, 2), (3, 1), (3, 2),
        (1, 1, 1), (2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1),
    }
    assert len(pole_hyperplanes(3, 1)) == 13


def test_pole_hyperplanes_constants_range():
    for h in pole_hyperplanes(3, 4):
        i = len(h.coefficients)
        assert (i + 1) - 4 <= h.constant <= i  # constants (i+1)-k, k=1..4


def test_no_candidate_meets_the_convergence_region():
    # with every coordinate > 1 each plane evaluates strictly positive:
    # sum m_j x_j > sum m_j >= i >= (i+1) - k for k >= 1
    rng = random.Random(11)
    for r in range(1, 5):
        planes = pole_hyperplanes(r, 6)
        for _ in range(20):
            point = [1.0 + 4.0 * rng.random() + 1e-9 for _ in range(r)]
            assert all(h.evaluate(point) > 0 for h in planes)


def test_pole_hyperplanes_argument_validation():
    with pytest.raises(DomainError):
        pole_hyperplanes(0, 3)
    with pytest.raises(DomainError):
        pole_hyperplanes(2, 0)
    with pytest.raises(CapacityError):
        pole_hyperplanes(9, 1)


def test_pole_hyperplanes_equal_the_permutation_union():
    # reference: the union over every permutation, as the definition reads
    for r in range(1, 7):
        for k_max in range(1, 4):
            expected = {
                Hyperplane(perm_min_sequence(sigma)[:i], (i + 1) - k)
                for sigma in permutations(range(1, r + 1))
                for i in range(1, r + 1)
                for k in range(1, k_max + 1)
            }
            assert pole_hyperplanes(r, k_max) == expected, (r, k_max)


def test_pole_hyperplanes_at_depths_seven_and_eight_are_checked_planes():
    # one plane per prefix and k; the Catalan(r+1) - 1 prefixes are the
    # non-increasing sequences below the staircase.  Every plane, also those
    # built without rerunning __init__, is one the public constructor accepts
    for r in (7, 8):
        prefixes = math.comb(2 * r + 2, r + 1) // (r + 2) - 1
        for k_max in range(1, 4):
            planes = pole_hyperplanes(r, k_max)
            assert len(planes) == prefixes * k_max, (r, k_max)
            for h in planes:
                assert type(h.coefficients) is tuple
                assert all(type(m) is int for m in h.coefficients)
                assert type(h.constant) is int
                assert h == Hyperplane(h.coefficients, h.constant)
    assert prefixes == 4861


def test_pole_hyperplanes_monotone_in_kmax():
    small = pole_hyperplanes(3, 2)
    large = pole_hyperplanes(3, 5)
    assert small < large


# ------------------------------------------------------------ depth1_value


def test_depth1_value_exact_rational():
    v = depth1_value(3)
    assert isinstance(v, Fraction) and v == F(1, 2)
    assert depth1_value(F(7, 2)) == F(2, 5)
    assert depth1_value(2) == 1


def test_depth1_value_float_branch():
    assert abs(depth1_value(4.5) - 1.0 / 3.5) < 1e-15


def test_depth1_value_matches_quadrature():
    res = integrate_semi_infinite(lambda x: x**-4.5, 1.0, tol=1e-12)
    assert abs(res.value - depth1_value(4.5)) < 1e-10


def test_depth1_value_domain():
    for bad in (1, F(1), 0, -3, 1.0, 0.25, float("nan")):
        with pytest.raises(DomainError):
            depth1_value(bad)
