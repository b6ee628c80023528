"""Reference results the benchmark checks every CLI invocation against.

Nothing here imports ``upto``.  Bisimilarity and the stratum chain come from
signature refinement: for an equivalence target, a pair progresses exactly
when both states reach the same set of target blocks under every label, so
partition k of the refinement is stratum k.  The ladder and the copies have
results known by construction.
"""

from __future__ import annotations

import numpy as np

from inputs import System


def partition_chain(system: System) -> list[list[int]]:
    """Block ids per state for strata 0..epsilon; the last entry is bisimilarity."""
    n, triples = system
    labels = sorted({a for _, a, _ in triples})
    succ = [[[] for _ in labels] for _ in range(n)]
    index = {a: i for i, a in enumerate(labels)}
    for p, a, q in triples:
        succ[p][index[a]].append(q)
    blocks = [0] * n
    chain = [blocks]
    while True:
        numbering: dict = {}
        new = [
            numbering.setdefault(
                tuple(frozenset(blocks[q] for q in moves) for moves in succ[p]), len(numbering)
            )
            for p in range(n)
        ]
        # each partition refines the one before, so an equal block count means no change
        if len(numbering) == len(set(blocks)):
            return chain
        chain.append(new)
        blocks = new


def render_pairs(pairs) -> str:
    return "{" + ", ".join(f"({p},{q})" for p, q in pairs) + "}"


def expected_bisim(system: System) -> bytes:
    """`upto bisim` output: every pair of states in one final block, sorted."""
    n = system[0]
    blocks = partition_chain(system)[-1]
    members: dict[int, list[int]] = {}
    for p in range(n):
        members.setdefault(blocks[p], []).append(p)
    pairs = ((p, q) for p in range(n) for q in members[blocks[p]])
    return f"bisimilarity = {render_pairs(pairs)}\n".encode()


def ladder_line_pairs(n: int, g: int) -> int:
    """Pairs in stratum g of T_n: the diagonal plus both orders of a < b with g <= a."""
    k = n + 1 - g
    return (n + 1) + k * (k - 1)


def expected_ladder_strata(n: int, perm: list[int]) -> bytes:
    """`upto strata` output on a shuffled T_n.

    Ladder states a != b are related at stratum g iff g <= min(a, b), so
    epsilon = n; ``perm`` maps ladder states to the ids in the file.
    """
    size = n + 1
    rank = np.empty(size, dtype=np.int64)
    rank[perm] = np.arange(size)
    tokens = np.array([[f"({x},{y})" for y in range(size)] for x in range(size)], dtype=object)
    eye = np.eye(size, dtype=bool)
    lines = []
    for g in range(n + 1):
        big = rank >= g
        mask = np.outer(big, big) | eye
        lines.append(f"~{g} = {{{', '.join(tokens[mask])}}}")
    lines.append(f"epsilon = {n}")
    return ("\n".join(lines) + "\n").encode()


# The copies relation links bisimilar states (isomorphic copies), so it
# progresses to lrf(R) = bisimilarity and the lrf proof succeeds.
EXPECTED_CHECK_UPTO = (
    b"relation = R\n"
    b"function = lrf\n"
    b"progression = holds\n"
    b"conclusion = contained_in_bisimilarity\n"
    b"cross_check = true\n"
)

# `upto gallery 0`: T_0 has one state and no transitions.
EXPECTED_GALLERY_0 = b"des (0,0,1)\n"


def verify_passed(stdout: bytes) -> bool:
    """The report's last line says no check failed."""
    lines = stdout.decode(errors="replace").splitlines()
    return bool(lines) and lines[-1].startswith("result: ") and lines[-1].endswith(" 0 failed")
