"""Seeded input generators.  Inputs are built before the timed call."""

from __future__ import annotations

import random

import ringspace as rs

import refmath


def rng_for(*key) -> random.Random:
    """A generator determined by the key, e.g. (workload, seed, round, slot)."""
    return random.Random(":".join(map(str, key)))


def matrix(rng: random.Random, ring, m: int, n: int):
    comps = tuple(
        tuple(tuple(rng.randrange(c.order) for _ in range(n)) for _ in range(m))
        for c in ring.components
    )
    return rs.Matrix(ring, m, n, comps)


def full_rank(rng: random.Random, ring, m: int, n: int):
    """A random m x n matrix of McCoy rank m (unimodular rows)."""
    while True:
        a = matrix(rng, ring, m, n)
        if refmath.mccoy_rank(a) == m:
            return a


def low_rank(rng: random.Random, ring, m: int, n: int, r: int):
    """B*C + p*E per component, with B m x r: McCoy rank at most r."""
    comps = []
    for c in ring.components:
        b = [[rng.randrange(c.order) for _ in range(r)] for _ in range(m)]
        cc = [[rng.randrange(c.order) for _ in range(n)] for _ in range(r)]
        bc = refmath.matmul(b, cc, c.order) if r else [[0] * n for _ in range(m)]
        comps.append(tuple(
            tuple((x + c.prime * rng.randrange(c.order)) % c.order for x in row) for row in bc
        ))
    return rs.Matrix(ring, m, n, tuple(comps))


def subspace(rng: random.Random, ring, m: int, n: int):
    return rs.Subspace.from_matrix(full_rank(rng, ring, m, n))


def typed_subspace(rng: random.Random, space, m: int):
    """A random m-subspace of the singular space that has an (m, t) type."""
    while True:
        tp = rs.type_of(subspace(rng, space.ring, m, space.ambient), space)
        if tp.typed:
            return tp
