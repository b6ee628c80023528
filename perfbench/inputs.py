"""Seeded input generators for the benchmark workloads.

Everything here is driven by a ``random.Random`` seeded from a string that
names the workload, the benchmark seed and an attempt number, so one seed
gives byte-identical input files on every machine and Python version that
keeps the Mersenne Twister and ``random.sample`` unchanged.  The sha256 of
each written file is reported with the results, so two runs can confirm
that they fed the program the same bytes.

The generators share no code with ``upto``: the program only ever sees the
files written here.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path

# A system is (number of states, [(source, label, target), ...]).
System = tuple[int, list[tuple[int, str, int]]]


def rng_for(workload: str, seed: int, attempt: int = 0) -> random.Random:
    return random.Random(f"{workload}:{seed}:{attempt}")


def sparse_system(rng: random.Random, n: int, labels: tuple[str, ...], per_state: float) -> System:
    """Exactly floor(per_state * n) distinct edges per label, in O(edges).

    ``random.sample`` over a range draws k distinct values in O(k), where a
    coin flip per possible edge would cost n * n draws per label.
    """
    m = int(per_state * n)
    triples = []
    for label in labels:
        for e in rng.sample(range(n * n), m):
            triples.append((e // n, label, e % n))
    return n, triples


def ladder_system(rng: random.Random, n: int) -> tuple[System, list[int]]:
    """T_n (states 0..n, i -t-> j iff i > j) with state ids shuffled.

    Returns the system and the permutation: ``perm[a]`` is the file id of
    ladder state ``a``.  The shuffle changes the bytes the program reads and
    prints but not the work it does.
    """
    perm = list(range(n + 1))
    rng.shuffle(perm)
    triples = [(perm[i], "t", perm[j]) for i in range(n + 1) for j in range(i)]
    return (n + 1, triples), perm


def copies_system(
    rng: random.Random, component: System, copies: int, copy_pairs: int
) -> tuple[System, list[tuple[int, int]]]:
    """``copies`` isomorphic copies of one component with ids shuffled, and a
    relation linking corresponding states for ``copy_pairs`` distinct
    (source copy, target copy) pairs."""
    k, triples = component
    n = k * copies
    perm = list(range(n))  # perm[c * k + s] is the file id of state s in copy c
    rng.shuffle(perm)
    union = [
        (perm[c * k + p], a, perm[c * k + q]) for c in range(copies) for (p, a, q) in triples
    ]
    ordered = [(i, j) for i in range(copies) for j in range(copies) if i != j]
    chosen = rng.sample(ordered, copy_pairs)
    relation = [(perm[i * k + s], perm[j * k + s]) for (i, j) in chosen for s in range(k)]
    return (n, union), relation


def aut_text(system: System) -> str:
    n, triples = system
    lines = [f"des (0,{len(triples)},{n})"]
    lines.extend(f'({p},"{a}",{q})' for p, a, q in triples)
    return "\n".join(lines) + "\n"


def relation_text(pairs: list[tuple[int, int]]) -> str:
    return "".join(f"{p} {q}\n" for p, q in pairs)


def write_input(path: Path, text: str) -> str:
    """Write one input file and return its sha256."""
    data = text.encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
