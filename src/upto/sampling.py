"""Seeded generators for systems, relations, and progression samples.

Everything is driven by a caller-supplied random.Random so suites are
reproducible bit for bit.  The progression sampler constructs (r, s) pairs
that satisfy the respectfulness hypothesis by design: naive rejection
sampling almost never finds a relation that progresses to a random superset.
"""

from __future__ import annotations

import random

import numpy as np

from .lattice import FiniteLattice, LatticeProgression, close_to_progression
from .lts import Lts, Relation

LABEL_POOL = ("a", "b", "c", "d")


def random_lts(rng: random.Random, n_states: int, n_labels: int, density: float = 0.3) -> Lts:
    """One system with each possible transition kept independently."""
    labels = LABEL_POOL[:n_labels]
    triples = [
        (p, a, q)
        for p in range(n_states)
        for a in labels
        for q in range(n_states)
        if rng.random() < density
    ]
    return Lts([str(i) for i in range(n_states)], triples)


def random_lts_pool(
    rng: random.Random, count: int, max_states: int = 5, max_labels: int = 2
) -> list[Lts]:
    pool = []
    for _ in range(count):
        n = rng.randint(1, max_states)
        k = rng.randint(1, max_labels)
        density = rng.uniform(0.15, 0.6)
        pool.append(random_lts(rng, n, k, density))
    return pool


def random_relation(rng: random.Random, n_states: int, density: float | None = None) -> Relation:
    if density is None:
        density = rng.uniform(0.1, 0.7)
    states = range(n_states)
    rows = tuple(sum(1 << q for q in states if rng.random() < density) for _ in states)
    return Relation._from_rows(n_states, rows)


def random_subrelation(rng: random.Random, r: Relation, keep: float = 0.5) -> Relation:
    return Relation.from_pairs(
        r.n_states, [pq for pq in r.pairs if rng.random() < keep]
    )


def forced_progression_target(lts: Lts, r: Relation) -> tuple[Relation, Relation]:
    """Shrink r to its pairs that can progress at all, and collect every
    derivative pair one progression step can reach from them.

    A pair survives when each side has moves under exactly the labels the
    other side has; the returned target contains the survivors plus all their
    matched-label derivative combinations, so the survivors progress to it.
    """
    n = lts.n_states
    n_labels = len(lts.labels)
    kept = []
    target = [0] * n
    for p, q in r.pairs:
        viable = all(
            bool(lts.successors(p, a)) == bool(lts.successors(q, a))
            for a in range(n_labels)
        )
        if not viable:
            continue
        kept.append((p, q))
        for a in range(n_labels):
            for p1 in lts.successors(p, a):
                for q1 in lts.successors(q, a):
                    target[p1] |= 1 << q1
    kept_rel = Relation.from_pairs(n, kept)
    return kept_rel, Relation._from_rows(n, tuple(target)) | kept_rel


def progression_sample(
    rng: random.Random, lts: Lts, extra_density: float = 0.15
) -> tuple[Relation, Relation]:
    """A pair (r, s) with r inside s and r progressing to s.

    Built from a random draw via forced_progression_target, then padded with
    random extra pairs; growing the target never breaks progression.
    """
    r0 = random_relation(rng, lts.n_states)
    r, s = forced_progression_target(lts, r0)
    return r, s | random_relation(rng, lts.n_states, extra_density)


def random_lattice_progression(
    rng: random.Random, lattice: FiniteLattice, density: float = 0.2
) -> LatticeProgression:
    """Close a random seed relation into a valid progression."""
    m = lattice.size
    seed = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(m):
            if rng.random() < density:
                seed[a, b] = True
    return close_to_progression(lattice, seed)
