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
block) successor counts then tell each predecessor of a moved state, read
off the system's one successor table, which (label, block) pairs its
signature gained or lost.  A state whose signature changed is regrouped by
its old block and that change, exact because block-mates shared the old
signature.  A state moves only into a piece at most half the size of its
block, so it moves O(log n) times: the chain costs O(m log n) dictionary
operations for m transitions.  Nested partitions form a tree, and the chain
is stored as that tree in O(n) memory, which is also the one thing a
StrataSequence is built from.  A stratum becomes a Relation when asked for,
built by ``Relation.from_blocks`` from its block ids, which it keeps: a
pair progresses to a stratum iff its two states reach the same blocks.
"""

from __future__ import annotations

import itertools

from .lts import Immutable, Lts, Relation


def _validate_tree(final: list[int], parent: list[int], born: list[int], epsilon: int) -> None:
    """Reject a tree unless each stratum strictly refines the one before.
    Stratum k refines stratum k - 1 when every block split off an earlier
    block in an earlier round, and strictly when a block born in round k
    holds a state, which then leaves the states of the block's parent."""
    if epsilon < 0 or not parent or len(born) != len(parent) or parent[0] or born[0]:
        raise ValueError("block 0 must be the root, born in round 0 of a chain")
    held, created = [False] * len(parent), [True] + [False] * epsilon
    for c in final:
        if not 0 <= c < len(held):
            raise ValueError(f"block {c} is not in the tree")
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


class StrataSequence(Immutable):
    """The chain of strata for one LTS, indices 0..epsilon inclusive.

    Stored as the refinement tree of its blocks: block 0 is the root, born in
    round 0, and block c > 0 split off block ``parent[c] < c`` in round
    ``born[c]``; ``final[p]`` is the block of state p in the stable stratum.
    epsilon is the least index where the chain stabilizes.  The constructor
    takes this tree and checks that each stratum strictly refines the one
    before, in O(n); ``compute_strata`` builds it.  Two chains are equal when
    their systems and strata are, whichever piece of a split kept its
    block's id: ``==`` compares a canonical form of the tree, in O(n log n).
    """

    __slots__ = ("lts", "epsilon", "_final", "_parent", "_born", "_relations")

    def __init__(self, lts: Lts, final: list[int], parent: list[int], born: list[int], epsilon: int):
        if len(final) != lts.n_states:
            raise ValueError(f"final blocks do not fit {lts.n_states} states")
        _validate_tree(final, parent, born, epsilon)
        values = (lts, epsilon, final, parent, born, [None] * (epsilon + 1))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if not isinstance(other, StrataSequence):
            return NotImplemented
        return self.lts == other.lts and self._key() == other._key()

    def _key(self) -> tuple:
        """The chain, free of block ids: epsilon, each state's least final
        block-mate, and each split as its round and the least states of its
        pieces, the least of which is also the least state of the split block.
        At round k, block c holds its own final states and the subtrees of
        its children born after round k, so a pass from the leaves up and one
        over each block's children from the last round down find them all."""
        final, parent, born = self._final, self._parent, self._born
        own = [len(final)] * len(parent)
        for p in reversed(range(len(final))):
            own[final[p]] = p
        least, children = own[:], [[] for _ in parent]
        for c in range(len(parent) - 1, 0, -1):
            up = parent[c]
            least[up] = min(least[up], least[c])
            children[up].append(c)
        splits = []
        for c, kids in enumerate(children):
            kids.sort(key=born.__getitem__, reverse=True)
            low = own[c]
            for k, group in itertools.groupby(kids, born.__getitem__):
                pieces = sorted([low, *(least[d] for d in group)])
                splits.append((k, *pieces))
                low = pieces[0]
        splits.sort()
        return self.epsilon, [own[c] for c in final], splits

    def __hash__(self):
        return hash((self.lts, self.epsilon))

    def __repr__(self):
        return f"StrataSequence({self.lts!r}, epsilon={self.epsilon})"

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
            r = self._relations[k] = Relation.from_blocks(self._row(k))
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
    # Predecessors: sources[q][i] has an a-move to q, and offsets[q][i] = a * n.
    offset = [a * n for a in range(len(lts.labels))]
    sources: list[list[int]] = [[] for _ in range(n)]
    offsets: list[list[int]] = [[] for _ in range(n)]
    for p, row in enumerate(lts._succ):
        for off, qs in zip(offset, row):
            for q in qs:
                sources[q].append(p)
                offsets[q].append(off)
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
            for p, off in zip(sources[q], offsets[q]):
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
            pieces.setdefault((block[p], *diff), []).append(p)
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
    return StrataSequence(lts, block, parent, born, k - 1)
