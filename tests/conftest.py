"""Shared fixtures: catalog instances and their endomorphism quantales.

The quantale fixtures are session-scoped because enumeration of the
endomap monoid is the expensive step shared by most suites.
"""

from functools import reduce

import numpy as np
import pytest

from omlq import FinQuantale, build_lattice, catalog, foulis_from_lin


@pytest.fixture(scope="session")
def b1():
    return catalog("boolean:1")


@pytest.fixture(scope="session")
def b2():
    return catalog("boolean:2")


@pytest.fixture(scope="session")
def b3():
    return catalog("boolean:3")


@pytest.fixture(scope="session")
def mo2():
    return catalog("mo:2")


@pytest.fixture(scope="session")
def benzene():
    return catalog("benzene")


@pytest.fixture(scope="session")
def zero_l():
    return catalog("zero")


@pytest.fixture(scope="session")
def fq_b1(b1):
    return foulis_from_lin(b1)


@pytest.fixture(scope="session")
def fq_b2(b2):
    return foulis_from_lin(b2)


@pytest.fixture(scope="session")
def fq_b3(b3):
    return foulis_from_lin(b3)


@pytest.fixture(scope="session")
def fq_mo2(mo2):
    return foulis_from_lin(mo2)


def join_all(lat, items) -> int:
    """The join of items in lat, its bottom for none, folded over join_tab."""
    return reduce(lambda x, y: int(lat.join_tab[x, y]), items, lat.bottom)


def sasaki_at(oml, a, y) -> int:
    """The Sasaki projection of y onto a, a meet (a' join y), read cell by
    cell: the reference for FiniteOML.sasaki_tab."""
    return int(oml.meet_tab[a, oml.join_tab[oml.ortho[a], y]])


def atoms(lat) -> list[int]:
    """The elements that cover the bottom, ascending."""
    return sorted(j for i, j in lat.covers() if i == lat.bottom)


def make_two_chain_quantale() -> FinQuantale:
    """The two-element quantale on the chain 0 < 1: mult = meet, star = id,
    unit = top."""
    lat = build_lattice(["0", "1"], [["0", "1"]])
    mult = np.array([[0, 0], [0, 1]], dtype=np.int32)
    star = np.array([0, 1], dtype=np.int32)
    return FinQuantale(lat, mult, star, unit=1)


def make_nilpotent_chain_quantale() -> FinQuantale:
    """A lawful involutive quantale that admits no annihilator projection
    table: 0 < m < 1 with m*m = 0, star = id, unit = 1.  The annihilator
    of m is {0, m}, which is p*Q for no self-adjoint idempotent p."""
    lat = build_lattice(["0", "m", "1"], [["0", "m"], ["m", "1"]])
    mult = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 2]], dtype=np.int32)
    star = np.array([0, 1, 2], dtype=np.int32)
    return FinQuantale(lat, mult, star, unit=2)


def make_three_chain_quantale() -> FinQuantale:
    """A Foulis quantale whose representation is not injective: 0 < a < 1
    with mult = meet, star = id, unit = 1.  The annihilators of a and of 1
    are both {0}, so sai(a) = sai(1) = 0, and a and 1 act alike on the
    projection lattice {0, 1}."""
    lat = build_lattice(["0", "a", "1"], [["0", "a"], ["a", "1"]])
    mult = np.array([[0, 0, 0], [0, 1, 1], [0, 1, 2]], dtype=np.int32)
    star = np.array([0, 1, 2], dtype=np.int32)
    return FinQuantale(lat, mult, star, unit=2)


@pytest.fixture()
def two_chain_quantale():
    return make_two_chain_quantale()


@pytest.fixture()
def nilpotent_chain_quantale():
    return make_nilpotent_chain_quantale()
