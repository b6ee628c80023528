"""Finite labelled transition systems, relations on their states, and progress.

A relation R progresses to S when every transition out of either side of a
pair in R can be matched by the other side, with the derivative pair landing
in S.  The two operations here are the per-pair progress test and the
largest relation progressing to a fixed target, the operator that the
stratum chain of ``strata`` is tested against.  One row walk is the only
code for the two progress clauses: it walks the pairs (p, q) of one left
state p, for a run of q's, and returns the q's it rejects.  Given a list, it
appends every unmatched move, the proof checker's diagnosis; without one,
each q stops at its first unmatched move, the early-exit test.  Walked over
every q, row p of the largest relation progressing to a target is the q's it
does not reject, since such relations are closed under union.  No matrix
product is involved, and no generator is started per pair.

An ``Lts`` keeps its transitions once, in a successor table: ``_succ[p][a]``
holds p's a-successors, sorted.  A relation is one int per state: bit q of
``Relation.row_bits[p]`` is set iff (p, q) is in it.  The walk tests each
move with one AND of a row (or column) of the target and a successor bitset
(bit q of ``Lts._successor_bits()[p][a]`` is set when p has an a-move to q).
A relation's q's come from its cached ``pairs``, not from walking the bits
of wide rows.  Columns are built when a right move first needs them; an
equivalence's columns are its rows.  An n-state relation's rows take at most
n^2/8 bytes, the successor bitsets n/8 bytes per state and label.
"""

from __future__ import annotations

from itertools import chain, groupby
from operator import and_, index, itemgetter, or_
from typing import Iterable, Iterator, NamedTuple

# slots of an Lts's successor table (states x labels), and of its cached bitsets
MAX_TABLE_SLOTS = 2 * 10**7
# states of a parsed .aut system: one name string and one table row each
MAX_STATES = 10**6
# elements of a parsed lattice: its order and join and meet tables take
# O(m^2) bits and slots, built before any axiom is checked
MAX_LATTICE_ELEMENTS = 1000


class Lts:
    """An immutable finite LTS: named states, label texts, one successor table.

    ``_succ[p][a]`` is the sorted tuple of p's targets under label index a, one
    slot per state and label, at most ``MAX_TABLE_SLOTS``; ``triples``, equality
    and hashing read it.  ``labels`` is the tuple of label texts in sorted
    order, so label index order and text order coincide and every iteration
    is deterministic.
    """

    __slots__ = ("n_states", "state_names", "labels", "_succ", "_succ_bits")

    def __init__(self, state_names: Iterable[str], triples: Iterable[tuple[int, str, int]]):
        names = tuple(str(s) for s in state_names)
        if len(set(names)) != len(names):
            raise ValueError("state names must be pairwise distinct")
        n = len(names)

        # per label text, the int p * n + q of each transition p -> q
        codes: dict[str, list[int]] = {}
        for p, a, q in triples:
            p, a, q = index(p), str(a), index(q)
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition ({p}, {a!r}, {q}) out of range for {n} states")
            codes.setdefault(a, []).append(p * n + q)
        labels = tuple(sorted(codes))
        for text in labels:
            if not text:
                raise ValueError("label text must be non-empty")
            # a line break would split the label's line in an .aut file
            if text.splitlines() != [text]:
                raise ValueError(f"label text {text!r} contains a line break")
        if n * len(labels) > MAX_TABLE_SLOTS:
            need = f"{n} states and {len(labels)} labels need {n * len(labels)} successor table"
            raise ValueError(f"{need} slots; at most {MAX_TABLE_SLOTS} are built")
        rows = [[()] * len(labels) for _ in range(n)]
        for a, label in enumerate(labels):
            # sorted codes group by source state, with targets sorted within
            for p, moves in groupby(sorted(set(codes.pop(label))), n.__rfloordiv__):
                rows[p][a] = tuple([c % n for c in moves])
        for name, value in zip(self.__slots__, (n, names, labels, tuple(map(tuple, rows)), None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("Lts is immutable")

    def successors(self, state: int, label_index: int) -> tuple[int, ...]:
        return self._succ[state][label_index]

    def _successor_bits(self) -> tuple[tuple[int, ...], ...]:
        """Per state and label, the successors as an int bitset, cached."""
        if self._succ_bits is None:
            bits = tuple(tuple(sum(1 << q for q in qs) for qs in row) for row in self._succ)
            object.__setattr__(self, "_succ_bits", bits)
        return self._succ_bits

    def triples(self) -> Iterator[tuple[int, str, int]]:
        """All transitions as (source, label text, target), canonically ordered."""
        for p, row in enumerate(self._succ):
            for text, qs in zip(self.labels, row):
                for q in qs:
                    yield (p, text, q)

    @property
    def n_transitions(self) -> int:
        return sum(map(len, chain.from_iterable(self._succ)))

    def __eq__(self, other):
        if not isinstance(other, Lts):
            return NotImplemented
        return (
            self.state_names == other.state_names
            and self.labels == other.labels
            and self._succ == other._succ
        )

    def __hash__(self):
        return hash((self.state_names, self.labels, self._succ))

    def __repr__(self):
        return f"Lts(states={self.n_states}, labels={len(self.labels)}, transitions={self.n_transitions})"


class Relation:
    """A binary relation on n points (the states of an LTS, or the elements
    of a lattice), stored as row bitsets.

    Bit q of ``row_bits[p]`` is set iff (p, q) is in the relation; every
    operation works on these ints, and the matrix, pairs and column bitsets
    are derived on request.  Build one with ``from_pairs``, ``empty``,
    ``full`` or ``identity``.  Operations are exact and only combine
    relations with matching state counts.  Instances are immutable and
    hashable.
    """

    __slots__ = ("n_states", "row_bits", "_cols", "_pairs", "_size")

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    # construction

    @staticmethod
    def _from_rows(n_states: int, rows: tuple[int, ...], cols=None, size=None) -> "Relation":
        """Unchecked: these row bitsets, and the column bitsets and the pair
        count when known."""
        r = _new(Relation)
        _set_n(r, n_states)
        _set_row_bits(r, rows)
        _set_cols(r, cols)
        _set_pairs(r, None)
        _set_size(r, size)
        return r

    @classmethod
    def from_pairs(cls, n_states: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        rows = [0] * n_states
        for p, q in pairs:
            p, q = index(p), index(q)
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise ValueError(f"pair ({p}, {q}) out of range for {n_states} states")
            rows[p] |= 1 << q
        return cls._from_rows(n_states, tuple(rows))

    @classmethod
    def empty(cls, n_states: int) -> "Relation":
        rows = (0,) * n_states
        return cls._from_rows(n_states, rows, rows)

    @classmethod
    def full(cls, n_states: int) -> "Relation":
        rows = ((1 << n_states) - 1,) * n_states
        return cls._from_rows(n_states, rows, rows)

    @classmethod
    def identity(cls, n_states: int) -> "Relation":
        rows = tuple(1 << p for p in range(n_states))
        return cls._from_rows(n_states, rows, rows)

    # views

    @property
    def matrix(self):
        """The relation as a read-only n x n numpy boolean array, built on each request.

        It needs numpy, which the package does not require, and stays only
        for the benchmark's tracer, until that stops reading it (ROADMAP
        item 1)."""
        import numpy as np

        n = self.n_states
        width = (n + 7) // 8
        data = b"".join(row.to_bytes(width, "little") for row in self.row_bits)
        packed = np.frombuffer(data, dtype=np.uint8).reshape(n, width)
        mat = np.unpackbits(packed, axis=1, count=n, bitorder="little").view(bool)
        mat.flags.writeable = False
        return mat

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The member pairs in sorted order, cached."""
        if self._pairs is None:
            pairs = []
            for p, row in enumerate(self.row_bits):
                while row:
                    low = row & -row
                    pairs.append((p, low.bit_length() - 1))
                    row ^= low
            _set_pairs(self, tuple(pairs))
        return self._pairs

    @property
    def column_bits(self) -> tuple[int, ...]:
        """Column q as an int: bit p is set iff (p, q) is in the relation. Cached."""
        if self._cols is None:
            cols = [0] * self.n_states
            for p, row in enumerate(self.row_bits):
                bit = 1 << p
                while row:
                    low = row & -row
                    cols[low.bit_length() - 1] |= bit
                    row ^= low
            _set_cols(self, tuple(cols))
        return self._cols

    def __contains__(self, pair) -> bool:
        p, q = map(index, pair)
        n = self.n_states
        return 0 <= p < n and 0 <= q < n and bool(self.row_bits[p] >> q & 1)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        """The pair count, cached."""
        if self._size is None:
            _set_size(self, sum(row.bit_count() for row in self.row_bits))
        return self._size

    # algebra

    def _mismatch(self, other: "Relation") -> ValueError:
        return ValueError(
            f"relations over different state counts: {self.n_states} vs {other.n_states}"
        )

    def union(self, other: "Relation") -> "Relation":
        if self.n_states != other.n_states:
            raise self._mismatch(other)
        return Relation._from_rows(self.n_states, tuple(map(or_, self.row_bits, other.row_bits)))

    def intersect(self, other: "Relation") -> "Relation":
        if self.n_states != other.n_states:
            raise self._mismatch(other)
        return Relation._from_rows(self.n_states, tuple(map(and_, self.row_bits, other.row_bits)))

    def difference(self, other: "Relation") -> "Relation":
        if self.n_states != other.n_states:
            raise self._mismatch(other)
        rows = tuple(a & ~b for a, b in zip(self.row_bits, other.row_bits))
        return Relation._from_rows(self.n_states, rows)

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: (p, q) related iff p -self-> x -other-> q."""
        if self.n_states != other.n_states:
            raise self._mismatch(other)
        rows = other.row_bits
        return Relation._from_rows(self.n_states, tuple(_image(rows, row) for row in self.row_bits))

    def converse(self) -> "Relation":
        return Relation._from_rows(self.n_states, self.column_bits, self.row_bits)

    def is_subset(self, other: "Relation") -> bool:
        if self.n_states != other.n_states:
            raise self._mismatch(other)
        rows = self.row_bits
        return rows == tuple(map(and_, rows, other.row_bits))

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset

    def __lt__(self, other: "Relation") -> bool:
        return self.is_subset(other) and self != other

    # predicates

    def is_reflexive(self) -> bool:
        return all(row >> p & 1 for p, row in enumerate(self.row_bits))

    def is_symmetric(self) -> bool:
        return self.row_bits == self.column_bits

    def is_transitive(self) -> bool:
        rows = self.row_bits
        return not any(_image(rows, row) & ~row for row in rows)

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n_states == other.n_states and self.row_bits == other.row_bits

    def __hash__(self):
        return hash((self.n_states, self.row_bits))

    def __repr__(self):
        inner = ", ".join(f"({p},{q})" for p, q in self.pairs)
        return f"Relation({self.n_states}, {{{inner}}})"


# The slots' own setters, which bypass Relation.__setattr__.
_new = object.__new__
_SLOT_SETTERS = tuple(getattr(Relation, name).__set__ for name in Relation.__slots__)
_set_n, _set_row_bits, _set_cols, _set_pairs, _set_size = _SLOT_SETTERS


def _image(rows: tuple[int, ...], members: int) -> int:
    """The union of rows[q] over the set bits q of members."""
    out = 0
    while members:
        low = members & -members
        out |= rows[low.bit_length() - 1]
        members ^= low
    return out


class ProgressViolation(NamedTuple):
    """One unmatched transition found while checking progress.

    direction "left" means the transition leaves the left state of the pair
    (clause 1), "right" that it leaves the right state (clause 2); that
    state is ``source``.  A named tuple, since a diagnosis can hold hundreds
    of thousands of them.
    """

    pair: tuple[int, int]
    direction: str
    label: str
    target: int

    @property
    def source(self) -> int:
        return self.pair[self.direction == "right"]


class ProgressDiagnosis(NamedTuple):
    """Every unmatched move of a progress check; it holds when there is none."""

    violations: tuple[ProgressViolation, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


_left, _right = itemgetter(0), itemgetter(1)


def _row_walk(lts: Lts, s: Relation, p: int, qs: Iterable[int], moves=None) -> int:
    """Walk the moves of each pair (p, q), for q in qs, against the target s.

    Per pair: labels in order, then p's moves (clause 1) before q's (clause
    2).  A left move p -a-> p1 is matched when row p1 of s meets the
    a-successors of q; a right move q -a-> q1 when column q1 of s meets the
    a-successors of p; the columns are fetched at the first right move.
    Given a list ``moves``, every unmatched move is appended to it as a
    ProgressViolation; without one, each q stops at its first unmatched
    move.  Returns the rejected q's as a bitset.
    """
    succ, bits = lts._succ, lts._successor_bits()
    rows, cols = s.row_bits, None
    labels, p_succ, p_bits, stop = lts.labels, succ[p], bits[p], moves is None
    # a q's unmatched moves come one after another, so each rejected q sets
    # its bit once: at 20000 states each bit set is O(n)
    rejected, last = 0, -1
    for q in qs:
        for label, ps, qs1, pb, qb in zip(labels, p_succ, succ[q], p_bits, bits[q]):
            for p1 in ps:
                if not rows[p1] & qb:
                    if q != last:
                        rejected |= 1 << q
                        last = q
                    if stop:
                        break
                    moves.append(ProgressViolation((p, q), "left", label, p1))
            else:
                if cols is None and qs1:
                    cols = s.column_bits
                for q1 in qs1:
                    if not cols[q1] & pb:
                        if q != last:
                            rejected |= 1 << q
                            last = q
                        if stop:
                            break
                        moves.append(ProgressViolation((p, q), "right", label, q1))
                else:
                    continue
            break  # only a stopping walk gets here, at q's first unmatched move
    return rejected


def _violations(
    lts: Lts, pairs: Iterable[tuple[int, int]], s: Relation
) -> Iterator[ProgressViolation]:
    """Each unmatched move of each pair against the target s: pairs as
    given, one row walk per run of pairs with the same left state."""
    moves: list[ProgressViolation] = []
    for p, run in groupby(pairs, _left):
        _row_walk(lts, s, p, map(_right, run), moves)
    return iter(moves)


def progresses_to(lts: Lts, r: Relation, s: Relation) -> ProgressDiagnosis:
    """Check whether r progresses to s, reporting every unmatched transition.

    For each pair (p, q) in r, every move of p must be matched by a move of q
    under the same label with the derivative pair in s, and symmetrically for
    moves of q.
    """
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    return ProgressDiagnosis(tuple(_violations(lts, r.pairs, s)))


def progress_holds(lts: Lts, r: Relation, s: Relation) -> bool:
    """Like progresses_to(...).holds, stopping at the first rejected pair."""
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    for p, run in groupby(r.pairs, _left):
        if _row_walk(lts, s, p, map(_right, run)):
            return False
    return True


def largest_progressing_to(lts: Lts, s: Relation) -> Relation:
    """The largest relation progressing to s.

    Relations progressing to a fixed target are closed under union, so the
    largest one is exactly the set of pairs that progress to s on their own:
    row p holds the q's that the walk of row p does not reject.
    """
    if s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    n = lts.n_states
    full, everyone = (1 << n) - 1, range(n)
    rows = tuple(full ^ _row_walk(lts, s, p, everyone) for p in everyone)
    return Relation._from_rows(n, rows)
