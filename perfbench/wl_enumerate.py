"""enumerate: the brute-force subspace enumerators, checked against counting.

Why: almost all the time is ``oracle`` plus tiny ``zps.rref_unit`` and
``zps.reduce_against`` calls.  The two anchors differ in one property: Z6
has only field components, while Z12 has the non-field Z4.  Canonical
augmentation in the enumerator should move this workload and leave
``algebra`` alone.

The jobs are fixed problem instances; the seed only orders them in each
round.  Every call gets an explicit budget, so a change to the library's
default budget does not change the work measured.
"""

from __future__ import annotations

import random

import ringspace as rs

import harness
from harness import Op

RINGS = ["Z6", "Z12", "Z4"]
BUDGET = 10**7
TRACE_ROUNDS = 1
FIXED_REPEATS = 1
PEAK_RSS = harness.self_rss_mb
# (m, t) pairs of the singular space Z4^(2+2) with m <= 2: every type of a
# subspace of dimension at most 2.  Higher m costs seconds per call.
CENSUS = [(m, t) for m in range(3) for t in range(min(m, 2) + 1)]


def prepare(seed: int) -> dict:
    return {"seed": seed, "rings": {s: rs.parse_ring(s) for s in RINGS}, "details": {}}


def _distinct(subs, m: int, n: int, ring) -> bool:
    return (
        len({s.canons for s in subs}) == len(subs)
        and all(s.dim == m and s.ambient == n and s.ring == ring for s in subs)
    )


def _subspace_job(slot: str, m: int, n: int, ring) -> Op:
    want = rs.count_subspaces(m, n, ring)
    return Op(
        slot,
        lambda: rs.enumerate_subspaces(m, n, ring, BUDGET),
        check=lambda subs: len(subs) == want and _distinct(subs, m, n, ring),
        subspaces=len,
        fixed=True,
    )


def _census_job(ring) -> Op:
    want = {(m, t): rs.count_mt_subspaces(m, t, 2, 2, ring) for m, t in CENSUS}

    def call():
        return {(m, t): rs.enumerate_mt_subspaces(m, t, 2, 2, ring, BUDGET) for m, t in CENSUS}

    def check(found) -> bool:
        return all(
            len(subs) == want[mt] and _distinct(subs, mt[0], 4, ring)
            for mt, subs in found.items()
        )

    return Op("census Z4^(2+2)", call, check, subspaces=lambda f: sum(map(len, f.values())))


def _full_rank_job(ring) -> Op:
    want = rs.count_full_rank(2, 2, ring)
    return Op(
        "full-rank 2x2 Z6",
        lambda: rs.count_full_rank_enumerated(2, 2, ring, BUDGET),
        check=lambda got: got == want,
    )


def fixed_ops(state: dict) -> list[Op]:
    return []


def round_ops(state: dict, i: int) -> list[Op]:
    r = state["rings"]
    ops = [
        _subspace_job("anchor 2-subspaces Z6^4", 2, 4, r["Z6"]),
        _subspace_job("anchor 2-subspaces Z12^3", 2, 3, r["Z12"]),
        _census_job(r["Z4"]),
        _full_rank_job(r["Z6"]),
    ]
    random.Random(f"enumerate:{state['seed']}:{i}").shuffle(ops)
    return ops
