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
m transitions, and is stored as the log of moves in O(m + n log n) memory,
without numpy.  A row of block ids is rebuilt by replaying the log, and a
stratum becomes a Relation when asked for: one row bitset per block.
"""

from __future__ import annotations

from typing import Sequence

from .lts import Lts, Relation

Moves = tuple[tuple[int, int], ...]


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


def _check_log(n: int, log: Sequence[Moves]) -> None:
    """Reject a round whose moves do not make its partition strictly finer.

    Row k refines row k - 1 iff each block that states move into is empty
    once the round's movers have left it, and all states moved into one
    block come from one block; it is strictly finer iff it has more blocks.
    """
    row, size = [0] * n, [n] + [0] * (n - 1)
    for k, moves in enumerate(log, 1):
        for p, _ in moves:
            size[row[p]] -= 1
        source: dict[int, int] = {}
        mixed = any(size[b] or source.setdefault(b, row[p]) != row[p] for p, b in moves)
        emptied = {row[p] for p, _ in moves if not size[row[p]]}
        if mixed or len(source) <= len(emptied):
            raise ValueError(f"stratum {k} must be strictly below stratum {k - 1}")
        for p, b in moves:
            row[p] = b
            size[b] += 1


class StrataSequence:
    """The chain of strata for one LTS, indices 0..epsilon inclusive.

    Stored as a log: round k lists (state, new block id) for each state whose
    id changes from row k - 1 to row k, and row 0 is all zeros.  epsilon is
    the least index where the chain stabilizes.  The constructor also accepts
    equivalence relations; ``from_blocks`` takes rows of block ids.
    """

    __slots__ = ("lts", "epsilon", "_log", "_rows", "_relations")

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
        log = [
            tuple((p, b) for p, (a, b) in enumerate(zip(prev, row)) if a != b)
            for prev, row in zip(rows, rows[1:])
        ]
        return self._set(lts, log)

    def _set(self, lts: Lts, log: Sequence[Moves]) -> "StrataSequence":
        _check_log(lts.n_states, log)
        epsilon = len(log)
        object.__setattr__(self, "lts", lts)
        object.__setattr__(self, "epsilon", epsilon)
        object.__setattr__(self, "_log", tuple(log))
        object.__setattr__(self, "_rows", [(0,) * lts.n_states] + [None] * epsilon)
        object.__setattr__(self, "_relations", [None] * (epsilon + 1))
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

    def _row(self, k: int) -> tuple[int, ...]:
        """The block ids of stratum k, replayed from the nearest kept row below."""
        rows = self._rows
        if rows[k] is None:
            j = k
            while rows[j] is None:
                j -= 1
            row = list(rows[j])
            for moves in self._log[j:k]:
                for p, b in moves:
                    row[p] = b
            rows[k] = tuple(row)
        return rows[k]

    @property
    def strata(self) -> tuple[Relation, ...]:
        """Every stratum as a Relation, each materialized once."""
        return tuple(self.stratum(k) for k in range(self.epsilon + 1))

    def stratum(self, k: int) -> Relation:
        """The k-th stratum; indices past epsilon return the stable relation."""
        if k < 0:
            raise ValueError("stratum index must be non-negative")
        k = min(k, self.epsilon)
        if self._relations[k] is None:
            rows = _block_rows(self._row(k))
            self._relations[k] = Relation._from_rows(self.lts.n_states, rows, rows)
        return self._relations[k]

    def bisimilarity(self) -> Relation:
        """The stable stratum: the largest relation progressing to itself."""
        return self.stratum(self.epsilon)

    def depth(self, r: Relation) -> int:
        """The largest k whose stratum contains r, read off the block ids.

        A pair leaves the chain at its split depth, the first row giving its
        states different blocks, and stays out from then on; so this is one
        less than the least split depth over the pairs of r, or epsilon when
        r lies inside bisimilarity.  Found by binary search over the rows.
        """
        if r.n_states != self.lts.n_states:
            raise ValueError("relation dimensions do not match the strata sequence")
        pairs = r.pairs
        lo, hi = 0, self.epsilon  # r lies inside stratum lo
        while lo < hi:
            mid = (lo + hi + 1) // 2
            row = self._row(mid)
            if any(row[p] != row[q] for p, q in pairs):
                hi = mid - 1
            else:
                lo = mid
        return lo


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

    # the partition, refinable in place: block b holds elems[start[b]:end[b]]
    # and state p sits at elems[loc[p]]
    block = [0] * n
    elems, loc = list(range(n)), list(range(n))
    start, end = [0], [n]
    log: list[Moves] = []
    # every state enters block 0 from no block, so round 1 sees each state's
    # whole signature as gained
    moved = [(q, -1, 0) for q in range(n)]
    while True:
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
                moved.extend((p, b, fresh) for p in elems[lo:hi])
        if not moved:
            break
        for p, _, fresh in moved:
            block[p] = fresh
        log.append(tuple((p, fresh) for p, _, fresh in moved))
    return StrataSequence.__new__(StrataSequence)._set(lts, log)


def stratum(seq: StrataSequence, k: int) -> Relation:
    return seq.stratum(k)


def bisimilarity(seq: StrataSequence) -> Relation:
    return seq.bisimilarity()
