"""Finite labelled transition systems, relations on their states, and progress.

A relation R progresses to S when every transition out of either side of a
pair in R can be matched by the other side, with the derivative pair landing
in S.  The two operations here are the per-pair progress test and the
largest relation progressing to a fixed target, the general operator that
the stratum chain (built by partition refinement in ``strata``) is tested
against.  One lazy generator of unmatched moves is the only code for the
two progress clauses.  Drained, it is the diagnosis the proof checker
reports; stopped at its first item, it is the early-exit test; run on each
single pair, it gives the largest relation progressing to a target, since
such relations are closed under union.  No matrix product is involved.

A relation is one int per state: bit q of ``Relation.row_bits[p]`` is set
iff (p, q) is in it.  Its n x n numpy boolean matrix is only a view on
request, and ``Relation(n, matrix)`` reads one; only these two load numpy.
The generator tests each move with one AND of a row (or column) of the
target and a successor bitset (bit q of ``Lts._successor_bits()[p][a]`` is
set when p has an a-move to q).  Columns are built when a right move first
needs them; an equivalence's columns are its rows.  An n-state relation's
rows take at most n^2/8 bytes, and the successor bitsets at most n/8 bytes
per state and label.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import and_, index, or_
from typing import Iterable, Iterator


@dataclass(frozen=True)
class Label:
    """A transition label; equal iff the texts are equal."""

    text: str

    def __post_init__(self):
        if not self.text:
            raise ValueError("label text must be non-empty")
        # a line break would split the label's line in an .aut file
        if self.text.splitlines() != [self.text]:
            raise ValueError(f"label text {self.text!r} contains a line break")


class Lts:
    """An immutable finite LTS: named states, interned labels, sorted transitions.

    Transitions are stored per source state as (label index, target) pairs,
    deduplicated and sorted canonically.  Labels are interned in sorted text
    order, so label index order and label text order coincide and every
    iteration over the structure is deterministic.
    """

    __slots__ = ("n_states", "state_names", "labels", "transitions", "_succ", "_succ_bits")

    def __init__(self, state_names: Iterable[str], triples: Iterable[tuple[int, str, int]]):
        names = tuple(str(s) for s in state_names)
        if len(set(names)) != len(names):
            raise ValueError("state names must be pairwise distinct")
        n = len(names)

        triples = [(index(p), str(a), index(q)) for (p, a, q) in triples]
        for p, a, q in triples:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition ({p}, {a!r}, {q}) out of range for {n} states")
        texts = sorted({a for _, a, _ in triples})
        labels = tuple(Label(a) for a in texts)
        label_index = {a: i for i, a in enumerate(texts)}

        per_state: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        for p, a, q in triples:
            per_state[p].add((label_index[a], q))

        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "state_names", names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transitions", tuple(tuple(sorted(ts)) for ts in per_state))
        succ = tuple(
            tuple(tuple(q for (b, q) in self.transitions[p] if b == a) for a in range(len(labels)))
            for p in range(n)
        )
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_succ_bits", None)

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
        for p in range(self.n_states):
            for a, q in self.transitions[p]:
                yield (p, self.labels[a].text, q)

    @property
    def n_transitions(self) -> int:
        return sum(len(ts) for ts in self.transitions)

    def __eq__(self, other):
        if not isinstance(other, Lts):
            return NotImplemented
        return (
            self.state_names == other.state_names
            and self.labels == other.labels
            and self.transitions == other.transitions
        )

    def __hash__(self):
        return hash((self.state_names, self.labels, self.transitions))

    def __repr__(self):
        return f"Lts(states={self.n_states}, labels={len(self.labels)}, transitions={self.n_transitions})"


class Relation:
    """A binary relation on n points (the states of an LTS, or the elements
    of a lattice), stored as row bitsets.

    Bit q of ``row_bits[p]`` is set iff (p, q) is in the relation; every
    operation works on these ints, and the matrix, pairs and column bitsets
    are derived on request.  Operations are exact and only combine relations
    with matching state counts.  Instances are immutable and hashable.
    """

    __slots__ = ("n_states", "row_bits", "_cols", "_pairs")

    def __init__(self, n_states: int, matrix):
        import numpy as np

        mat = np.asarray(matrix, dtype=bool)
        if mat.shape != (n_states, n_states):
            raise ValueError(f"matrix shape {mat.shape} does not match {n_states} states")
        # row p as an int, column k at bit k
        packed = np.packbits(mat, axis=1, bitorder="little")
        rows = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
        self._set(n_states, rows, None)

    def _set(self, n_states: int, rows: tuple[int, ...], cols) -> "Relation":
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "row_bits", rows)
        object.__setattr__(self, "_cols", cols)
        object.__setattr__(self, "_pairs", None)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    # construction

    @classmethod
    def _from_rows(cls, n_states: int, rows: tuple[int, ...], cols=None) -> "Relation":
        """Unchecked: these row bitsets, and the column bitsets when known."""
        return cls.__new__(cls)._set(n_states, rows, cols)

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
        """The relation as a read-only n x n numpy boolean array, built on each request."""
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
            object.__setattr__(self, "_pairs", tuple(pairs))
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
            object.__setattr__(self, "_cols", tuple(cols))
        return self._cols

    def __contains__(self, pair) -> bool:
        p, q = map(index, pair)
        n = self.n_states
        return 0 <= p < n and 0 <= q < n and bool(self.row_bits[p] >> q & 1)

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return sum(row.bit_count() for row in self.row_bits)

    # algebra

    def _check(self, other: "Relation") -> None:
        if self.n_states != other.n_states:
            raise ValueError(
                f"relations over different state counts: {self.n_states} vs {other.n_states}"
            )

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation._from_rows(self.n_states, tuple(map(or_, self.row_bits, other.row_bits)))

    def intersect(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation._from_rows(self.n_states, tuple(map(and_, self.row_bits, other.row_bits)))

    def difference(self, other: "Relation") -> "Relation":
        self._check(other)
        rows = tuple(a & ~b for a, b in zip(self.row_bits, other.row_bits))
        return Relation._from_rows(self.n_states, rows)

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: (p, q) related iff p -self-> x -other-> q."""
        self._check(other)
        rows = other.row_bits
        return Relation._from_rows(self.n_states, tuple(_image(rows, row) for row in self.row_bits))

    def converse(self) -> "Relation":
        return Relation._from_rows(self.n_states, self.column_bits, self.row_bits)

    def is_subset(self, other: "Relation") -> bool:
        self._check(other)
        return not any(a & ~b for a, b in zip(self.row_bits, other.row_bits))

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


def _image(rows: tuple[int, ...], members: int) -> int:
    """The union of rows[q] over the set bits q of members."""
    out = 0
    while members:
        low = members & -members
        out |= rows[low.bit_length() - 1]
        members ^= low
    return out


@dataclass(frozen=True)
class ProgressViolation:
    """One unmatched transition found while checking progress.

    direction "left" means the transition leaves the left state of the pair
    (clause 1), "right" that it leaves the right state (clause 2).
    """

    pair: tuple[int, int]
    direction: str
    label: str
    source: int
    target: int


@dataclass(frozen=True)
class ProgressDiagnosis:
    holds: bool
    violations: tuple[ProgressViolation, ...]

    def __post_init__(self):
        if self.holds != (len(self.violations) == 0):
            raise ValueError("holds must be true iff there are no violations")


def _violations(
    lts: Lts, pairs: Iterable[tuple[int, int]], s: Relation
) -> Iterator[ProgressViolation]:
    """Each unmatched move of each pair against the target s, lazily.

    Order: pairs as given, then labels, then the left state's moves
    (clause 1) before the right state's (clause 2).  A left move p -a-> p1
    is matched when row p1 of s meets the a-successors of q; a right move
    q -a-> q1 when column q1 of s meets the a-successors of p; the columns
    are fetched at the first right move.
    """
    succ, bits = lts._succ, lts._successor_bits()
    rows, cols = s.row_bits, None
    for p, q in pairs:
        for label, ps, qs, p_bits, q_bits in zip(lts.labels, succ[p], succ[q], bits[p], bits[q]):
            for p1 in ps:
                if not rows[p1] & q_bits:
                    yield ProgressViolation((p, q), "left", label.text, p, p1)
            if qs and cols is None:
                cols = s.column_bits
            for q1 in qs:
                if not cols[q1] & p_bits:
                    yield ProgressViolation((p, q), "right", label.text, q, q1)


def progresses_to(lts: Lts, r: Relation, s: Relation) -> ProgressDiagnosis:
    """Check whether r progresses to s, reporting every unmatched transition.

    For each pair (p, q) in r, every move of p must be matched by a move of q
    under the same label with the derivative pair in s, and symmetrically for
    moves of q.
    """
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    violations = tuple(_violations(lts, r.pairs, s))
    return ProgressDiagnosis(holds=not violations, violations=violations)


def progress_holds(lts: Lts, r: Relation, s: Relation) -> bool:
    """Like progresses_to(...).holds, stopping at the first violation."""
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    return next(_violations(lts, r.pairs, s), None) is None


def largest_progressing_to(lts: Lts, s: Relation) -> Relation:
    """The largest relation progressing to s.

    Relations progressing to a fixed target are closed under union, so the
    largest one is exactly the set of pairs that progress to s on their own:
    the pairs (p, q) whose walk of both progress clauses finds no unmatched
    move.
    """
    if s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    n = lts.n_states
    rows = tuple(
        sum(1 << q for q in range(n) if next(_violations(lts, ((p, q),), s), None) is None)
        for p in range(n)
    )
    return Relation._from_rows(n, rows)
