import functools
import itertools

import pytest

from ringspace import parse_ring


@pytest.fixture(scope="session")
def z2():
    return parse_ring("Z2")


@pytest.fixture(scope="session")
def z3():
    return parse_ring("Z3")


@pytest.fixture(scope="session")
def z4():
    return parse_ring("Z4")


@pytest.fixture(scope="session")
def z6():
    return parse_ring("Z6")


@pytest.fixture(scope="session")
def z8():
    return parse_ring("Z8")


@pytest.fixture(scope="session")
def z9():
    return parse_ring("Z9")


@pytest.fixture(scope="session")
def z12():
    return parse_ring("Z12")


@pytest.fixture(scope="session")
def z2xz2():
    return parse_ring("Z2xZ2")


@functools.cache
def _row_closure(rows, n, pe):
    """The additive subgroup of Z_pe^n generated by ``rows``, by breadth-first search."""
    out = {(0,) * n}
    frontier = list(out)
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((x + y) % pe for x, y in zip(v, r))
            if w not in out:
                out.add(w)
                frontier.append(w)
    return frozenset(out)


def _module_vectors(ring, n, comp_rows):
    """Every vector of the module with the given generators per component.

    A submodule of a product ring's R^n is the product of its component
    modules, so its vectors are the product of the component closures.
    """
    return set(
        itertools.product(
            *(_row_closure(rows, n, c.order) for rows, c in zip(comp_rows, ring.components))
        )
    )


@pytest.fixture(scope="session")
def module_vectors():
    """The vector set of a module, from its generator rows per component."""
    return _module_vectors
