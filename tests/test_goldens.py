"""The size of Lin(X) against independent oracles: the brute-force scan,
the closed forms |Lin(2^n)| = 2^(n^2) and mo_lin_count, and the four Hom
blocks of a product."""

import pytest

from omlq import catalog, lin_count, lin_values
from omlq.goldens import bruteforce_lin_values, mo_lin_count, product_lin_count


def test_boolean_closed_form_against_the_oracle():
    for n in (1, 2):
        assert len(bruteforce_lin_values(catalog(f"boolean:{n}"))) == 2 ** (n * n)


@pytest.mark.parametrize("n, count", [(1, 2), (2, 16), (3, 512), (4, 65_536)])
def test_boolean_closed_form_against_the_enumerator(n, count):
    assert 2 ** (n * n) == count
    assert lin_count(catalog(f"boolean:{n}")) == count


@pytest.mark.parametrize("n", [1, 2, 3])
def test_boolean_closed_form_against_the_rows(n):
    assert len(lin_values(catalog(f"boolean:{n}"))) == 2 ** (n * n)


def test_mo_closed_form_against_the_oracle():
    for n in (1, 2):
        assert mo_lin_count(n) == len(bruteforce_lin_values(catalog(f"mo:{n}")))


@pytest.mark.parametrize("n, count", [(1, 16), (2, 234), (3, 13_376), (4, 1_441_810)])
def test_mo_closed_form_against_the_enumerator(n, count):
    assert mo_lin_count(n) == count
    assert len(lin_values(catalog(f"mo:{n}"), cap=count)) == count


@pytest.mark.parametrize("x1, x2, count", [
    ("boolean:1", "boolean:2", 512),
    ("boolean:1", "mo:2", 16_848),
    ("mo:1", "mo:1", 65_536),
])
def test_product_count_from_its_hom_blocks(x1, x2, count):
    assert product_lin_count(catalog(x1), catalog(x2)) == count
    assert lin_count(catalog(f"product({x1},{x2})")) == count
