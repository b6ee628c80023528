"""Stratified bisimilarity: the decreasing chain of approximants and its limit.

Stratum 0 relates everything; each following stratum is the largest relation
progressing to the previous one.  On a finite system the chain is strictly
decreasing until it stabilizes, and the stable relation is bisimilarity.

Every stratum is an equivalence, so the chain is a sequence of ever finer
partitions, built by signature refinement: state p stays with its
block-mates in round k when their sets of (label, block of target) pairs
over the round k-1 partition agree, so round k yields exactly stratum k.
Rounds are incremental.  When a block splits, its largest piece keeps the
old id and only the states of the other pieces move; per-(state, label,
block) successor counts then tell each predecessor of a moved state exactly
which (label, block) pairs its signature gained or lost.  A state whose
signature changed is regrouped by its old block and that change, which
determines its new signature exactly because block-mates shared the old one.
A state moves only into a piece at most half the size of its block, so it
moves O(log n) times: the chain costs O(m log n) dictionary operations for
m transitions, without numpy.  Nested partitions form a tree, and the chain
is stored as that tree in O(n) memory; a stratum becomes a Relation when
asked for: one row bitset per block.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Sequence

from .lts import Lts, Relation


def _canonical(row: Sequence[int]) -> tuple[int, ...]:
    """Renumber block ids in order of first occurrence, so equal partitions
    get equal rows."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(b, len(first)) for b in row)


def _block_rows(ids: Sequence[int]) -> tuple[int, ...]:
    """Row bitsets of the partition with these block ids (each below n)."""
    masks = [0] * len(ids)
    for p, b in enumerate(ids):
        masks[b] |= 1 << p
    return tuple(masks[b] for b in ids)


def _blocks_of(r: Relation, k: int) -> list[int]:
    """Block ids of an equivalence relation: each state's least related state."""
    ids = [(row & -row).bit_length() - 1 for row in r.row_bits]
    if _block_rows(ids) != r.row_bits:
        raise ValueError(f"stratum {k} is not an equivalence relation")
    return ids


def _check_tree(final: list[int], parent: list[int], born: list[int], epsilon: int) -> None:
    """Reject a tree unless each stratum strictly refines the one before.
    Stratum k refines stratum k - 1 when every block split off an earlier
    block in an earlier round, and strictly when a block born in round k
    holds a state, which then leaves the states of the block's parent."""
    held, created = [False] * len(parent), [True] + [False] * epsilon
    for c in final:
        held[c] = True
    for c in range(1, len(parent)):
        if not (0 <= parent[c] < c and born[parent[c]] < born[c] <= epsilon):
            raise ValueError(f"block {c} must split off an earlier block in an earlier round")
        created[born[c]] = True
    if final and not all(held):
        raise ValueError(f"block {held.index(False)} holds no state")
    if not all(created):
        k = created.index(False)
        raise ValueError(f"stratum {k} must be strictly below stratum {k - 1}")


class StrataSequence:
    """The chain of strata for one LTS, indices 0..epsilon inclusive.

    Stored as the refinement tree of its blocks: block 0 is the root, born in
    round 0, and block c > 0 split off block ``parent[c] < c`` in round
    ``born[c]``; ``final[p]`` is the block of state p in the stable stratum.
    epsilon is the least index where the chain stabilizes.  The constructor
    accepts equivalence relations; ``from_blocks`` takes rows of block ids.
    """

    __slots__ = ("lts", "epsilon", "_final", "_parent", "_born", "_relations")

    def __init__(self, lts: Lts, strata: Sequence[Relation], epsilon: int):
        if epsilon != len(strata) - 1:
            raise ValueError("epsilon must index the last stored stratum")
        for r in strata:
            if r.n_states != lts.n_states:
                raise ValueError("stratum dimensions do not match the LTS")
        self._set_rows(lts, [_blocks_of(r, k) for k, r in enumerate(strata)])

    @classmethod
    def from_blocks(cls, lts: Lts, blocks: Sequence[Sequence[int]]) -> "StrataSequence":
        """The chain whose row k gives the block id of each state in stratum k."""
        return cls.__new__(cls)._set_rows(lts, blocks)

    def _set_rows(self, lts: Lts, rows: Sequence[Sequence[int]]) -> "StrataSequence":
        n = lts.n_states
        rows = [_canonical(row) for row in rows]
        if not rows or any(len(row) != n for row in rows):
            raise ValueError(f"block rows do not fit {n} states")
        if any(rows[0]):
            raise ValueError("stratum 0 must be the full relation")
        final, parent, born = [0] * n, [0], [0]
        for k, row in enumerate(rows[1:], 1):
            # row block -> tree block, and tree block -> the row block of its
            # first piece, which keeps the tree block's id
            ids, first, fits = {}, {}, True
            for p, b in enumerate(row):
                old = final[p]
                if first.setdefault(old, b) != b and b not in ids:
                    ids[b] = len(parent)
                    parent.append(old)
                    born.append(k)
                c = final[p] = ids.setdefault(b, old)
                fits = fits and (c if born[c] < k else parent[c]) == old  # c in p's old block
            if not fits or born[-1] != k:
                raise ValueError(f"stratum {k} must be strictly below stratum {k - 1}")
        return self._set(lts, final, parent, born, len(rows) - 1)

    def _set(self, lts: Lts, final, parent, born, epsilon: int) -> "StrataSequence":
        _check_tree(final, parent, born, epsilon)
        values = (lts, epsilon, final, parent, born, [None] * (epsilon + 1))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("StrataSequence is immutable")

    def __eq__(self, other):
        if not isinstance(other, StrataSequence):
            return NotImplemented
        return self.lts == other.lts and self.blocks == other.blocks

    def __hash__(self):
        return hash((self.lts, self.epsilon))

    def __repr__(self):
        return f"StrataSequence({self.lts!r}, epsilon={self.epsilon})"

    @property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Every row of block ids, numbered in order of first occurrence."""
        return tuple(_canonical(self._row(k)) for k in range(self.epsilon + 1))

    def _row(self, k: int) -> list[int]:
        """The block ids of stratum k: each state's nearest ancestor born by round k."""
        at: list[int] = []
        for c, (up, when) in enumerate(zip(self._parent, self._born)):
            at.append(c if when <= k else at[up])
        return [at[c] for c in self._final]

    @property
    def strata(self) -> tuple[Relation, ...]:
        """Every stratum as a Relation, each materialized once."""
        return tuple(self.stratum(k) for k in range(self.epsilon + 1))

    def stratum(self, k: int) -> Relation:
        """The k-th stratum; indices past epsilon return the stable relation."""
        if k < 0:
            raise ValueError("stratum index must be non-negative")
        if k > self.epsilon:
            k = self.epsilon
        r = self._relations[k]
        if r is None:
            ids = self._row(k)
            rows = _block_rows(ids)
            # the pairs of a partition: the squared size of each block
            size = sum(c * c for c in Counter(ids).values())
            r = self._relations[k] = Relation._from_rows(self.lts.n_states, rows, rows, size)
        return r

    def bisimilarity(self) -> Relation:
        """The stable stratum: the largest relation progressing to itself."""
        return self.stratum(self.epsilon)

    def depth(self, r: Relation) -> int:
        """The largest k whose stratum contains r (epsilon if no pair splits).
        A pair splits in the least round that created a block on the paths
        from its two final blocks up to their common ancestor; the walk steps
        the larger id, since ancestors have smaller ids, until the two meet."""
        if r.n_states != self.lts.n_states:
            raise ValueError("relation dimensions do not match the strata sequence")
        final, parent, born, split = self._final, self._parent, self._born, self.epsilon + 1
        for p, q in r.pairs:
            a, b = final[p], final[q]
            while a != b:
                if a < b:
                    a, b = b, a
                if born[a] < split:
                    split = born[a]
                a = parent[a]
            if split == 1:  # round 1 is the earliest split
                break
        return split - 1


def compute_strata(lts: Lts) -> StrataSequence:
    """Refine the one-block partition round by round until no block splits.

    Round k regroups the states whose (label, block of target) signature
    changed in round k - 1; see the module docstring for why the key
    (old block, gained and lost signature entries) is exact.  The chain
    stops when the block count stops growing.
    """
    n = lts.n_states
    # The signature entry (a, B) is the int a * n + B (block ids stay below
    # n), and count[p] maps it to the number of a-successors of p in block B.
    offset = [a * n for a in range(len(lts.labels))]
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for p, moves in enumerate(lts.transitions):
        for a, q in moves:
            preds[q].append((p, offset[a]))
    count: list[dict[int, int]] = [{} for _ in range(n)]

    # the partition, refinable in place: block b holds elems[start[b]:end[b]],
    # state p sits at elems[loc[p]], and b split off parent[b] in round born[b]
    block = [0] * n
    elems, loc = list(range(n)), list(range(n))
    start, end = [0], [n]
    parent, born = [0], [0]
    # every state enters block 0 from no block, so round 1 sees each state's
    # whole signature as gained
    moved = [(q, -1, 0) for q in range(n)]
    for k in itertools.count(1):
        changed: dict[int, list[int]] = {}
        for q, old, new in moved:
            for p, off in preds[q]:
                counts = count[p]
                entry = off + new
                c = counts.get(entry, 0)
                counts[entry] = c + 1
                if c == 0:
                    diff = changed.get(p)
                    if diff is None:
                        changed[p] = [entry]
                    else:
                        diff.append(entry)
                if old >= 0:
                    entry = off + old
                    c = counts.pop(entry) - 1
                    if c:
                        counts[entry] = c
                    else:
                        changed[p].append(entry)

        pieces: dict[tuple[int, ...], list[int]] = {}
        for p, diff in changed.items():
            diff.sort()
            key = (block[p], *diff)
            group = pieces.get(key)
            if group is None:
                pieces[key] = [p]
            else:
                group.append(p)
        splits: dict[int, list[list[int]]] = {}
        for key, group in pieces.items():
            splits.setdefault(key[0], []).append(group)

        moved = []
        for b, groups in splits.items():
            if len(groups) == 1 and len(groups[0]) == end[b] - start[b]:
                continue
            ranges = []
            for group in groups:
                top = end[b]
                for p in group:
                    i, j = loc[p], end[b] - 1
                    q = elems[j]
                    elems[i], loc[q] = q, i
                    elems[j], loc[p] = p, j
                    end[b] = j
                ranges.append((end[b], top))
            if end[b] > start[b]:
                # the states whose signature did not change
                ranges.insert(0, (start[b], end[b]))
            # the largest piece keeps the id, so a state only moves into a
            # piece at most half the size of its block
            keep = max(range(len(ranges)), key=lambda i: ranges[i][1] - ranges[i][0])
            start[b], end[b] = ranges.pop(keep)
            for lo, hi in ranges:
                fresh = len(start)
                start.append(lo)
                end.append(hi)
                parent.append(b)
                born.append(k)
                moved.extend((p, b, fresh) for p in elems[lo:hi])
        if not moved:  # round k split no block, so epsilon is k - 1
            break
        for p, _, fresh in moved:
            block[p] = fresh
    return StrataSequence.__new__(StrataSequence)._set(lts, block, parent, born, k - 1)
