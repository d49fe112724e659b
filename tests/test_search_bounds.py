"""Every search bound is one module constant, and its error names it.

No search takes a bound or limit argument: the element store and the
multiplicative_order bound live in exact, the form-search bound in fqm.
Patching a constant small must trip the matching error on every search
it guards.
"""

import inspect
from fractions import Fraction as F

import pytest

from k3lat import exact, fqm
from k3lat.fqm import Fqm
from oracles import matrix_product


@pytest.mark.parametrize("fn", [
    fqm.anti_embeddings, fqm.isomorphisms, fqm.is_isomorphic,
    fqm.orthogonal_group,
    fqm.hom_closure_images, exact.closure, exact.generators,
    exact.matrix_closure, exact.multiplicative_order,
], ids=lambda fn: fn.__name__)
def test_no_bound_parameter(fn):
    params = inspect.signature(fn).parameters
    assert not {"bound", "limit"} & set(params)


def test_search_bound_named(monkeypatch):
    monkeypatch.setattr(fqm, "_SEARCH_BOUND", 2)
    with pytest.raises(ValueError, match="search bound 2"):
        fqm.anti_embeddings(Fqm((3,), (F(2, 3),), ((),)),
                            Fqm((3,), (F(4, 3),), ((),)))


def test_search_bound_named_by_is_isomorphic(monkeypatch):
    monkeypatch.setattr(fqm, "_SEARCH_BOUND", 2)
    m = Fqm((3,), (F(2, 3),), ((),))
    with pytest.raises(ValueError, match="search bound 2"):
        fqm.is_isomorphic(m, m)


def test_element_store_named_by_matrix_closure(monkeypatch):
    monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 2)
    rot3 = [[0, -1], [1, -1]]
    with pytest.raises(ValueError, match="element-store limit of 2 "):
        exact.matrix_closure([rot3], 2)


def test_element_store_named_by_an_extended_closure(monkeypatch):
    # the 4-element group of rot4 fits; extending it by flip does not
    rot4, flip = [[0, -1], [1, 0]], [[1, 0], [0, -1]]
    assert len(exact.matrix_closure([rot4], 2)) == 4
    elements = sorted(exact.matrix_closure([rot4, flip], 2))
    ident = ((1, 0), (0, 1))
    monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 5)
    with pytest.raises(ValueError, match="element-store limit of 5 "):
        exact.matrix_closure([rot4, flip], 2)
    with pytest.raises(ValueError, match="element-store limit of 5 "):
        exact.generators(elements, ident, matrix_product)


def test_element_store_named_by_hom_closure_images(monkeypatch):
    m = Fqm((3, 3), (F(2, 3), F(2, 3)), ((F(0),), ()))
    gens, order = fqm.orthogonal_group(m)
    assert order == 8
    monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 2)
    with pytest.raises(ValueError, match="element-store limit of 2 "):
        fqm.hom_closure_images(m, gens)


def test_element_store_named_by_orthogonal_group(monkeypatch):
    m = Fqm((3, 3), (F(2, 3), F(2, 3)), ((F(0),), ()))
    monkeypatch.setattr(exact, "_ELEMENT_STORE_LIMIT", 2)
    with pytest.raises(ValueError, match="element-store limit of 2 "):
        fqm.orthogonal_group(m)


def test_order_bound_named(monkeypatch):
    rotation = [[0, 1], [-1, 0]]
    assert exact.multiplicative_order(rotation) == 4
    monkeypatch.setattr(exact, "_ORDER_BOUND", 3)
    with pytest.raises(ValueError, match="multiplicative_order bound of 3"):
        exact.multiplicative_order(rotation)
