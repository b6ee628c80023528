"""Finite labelled transition systems, relations on their states, and progress.

A relation R progresses to S when every transition out of either side of a
pair in R can be matched by the other side, with the derivative pair landing
in S.  The two operations here are the per-pair progress test and the
largest relation progressing to a fixed target, the general operator that
the stratum chain (built by partition refinement in ``strata``) is tested
against.  One lazy generator of unmatched moves serves the per-pair test
twice: drained, it is the diagnosis the proof checker reports; stopped at
its first item, it is the early-exit test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


def bool_mm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product.

    numpy's native bool matmul short-circuits well on dense operands but
    falls back to full cubic scalar loops on sparse ones, which is exactly
    the shape of transition matrices at scale; routing through float32 BLAS
    is exact here (row counts stay far below float32's integer range) and
    orders of magnitude faster.  Small matrices skip the casts.
    """
    if a.shape[0] <= 64:
        return a @ b
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0.5


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

    __slots__ = ("n_states", "state_names", "labels", "transitions", "_succ", "_label_mats")

    def __init__(self, state_names: Iterable[str], triples: Iterable[tuple[int, str, int]]):
        names = tuple(str(s) for s in state_names)
        if len(set(names)) != len(names):
            raise ValueError("state names must be pairwise distinct")
        n = len(names)

        triples = [(int(p), str(a), int(q)) for (p, a, q) in triples]
        for p, a, q in triples:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError(f"transition ({p}, {a!r}, {q}) out of range for {n} states")
        texts = sorted({a for _, a, _ in triples})
        labels = tuple(Label(a) for a in texts)
        index = {a: i for i, a in enumerate(texts)}

        per_state: list[set[tuple[int, int]]] = [set() for _ in range(n)]
        for p, a, q in triples:
            per_state[p].add((index[a], q))

        object.__setattr__(self, "n_states", n)
        object.__setattr__(self, "state_names", names)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "transitions", tuple(tuple(sorted(ts)) for ts in per_state))
        succ = tuple(
            tuple(tuple(q for (b, q) in self.transitions[p] if b == a) for a in range(len(labels)))
            for p in range(n)
        )
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "_label_mats", None)

    def __setattr__(self, name, value):
        raise AttributeError("Lts is immutable")

    def successors(self, state: int, label_index: int) -> tuple[int, ...]:
        return self._succ[state][label_index]

    def triples(self) -> Iterator[tuple[int, str, int]]:
        """All transitions as (source, label text, target), canonically ordered."""
        for p in range(self.n_states):
            for a, q in self.transitions[p]:
                yield (p, self.labels[a].text, q)

    @property
    def n_transitions(self) -> int:
        return sum(len(ts) for ts in self.transitions)

    @property
    def label_matrices(self) -> tuple[np.ndarray, ...]:
        """One boolean adjacency matrix per label, cached."""
        mats = self._label_mats
        if mats is None:
            n = self.n_states
            mats = []
            for a in range(len(self.labels)):
                m = np.zeros((n, n), dtype=bool)
                for p in range(n):
                    for q in self._succ[p][a]:
                        m[p, q] = True
                m.flags.writeable = False
                mats.append(m)
            mats = tuple(mats)
            object.__setattr__(self, "_label_mats", mats)
        return mats

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
    """A binary relation over the states of one LTS, as a dense boolean matrix.

    All operations are exact and only combine relations with matching state
    counts.  Instances are immutable and hashable.
    """

    __slots__ = ("n_states", "_mat", "_pairs", "_pairset", "_hash")

    def __init__(self, n_states: int, matrix: np.ndarray):
        mat = np.array(matrix, dtype=bool, copy=True)
        if mat.shape != (n_states, n_states):
            raise ValueError(f"matrix shape {mat.shape} does not match {n_states} states")
        mat.flags.writeable = False
        object.__setattr__(self, "n_states", n_states)
        object.__setattr__(self, "_mat", mat)
        object.__setattr__(self, "_pairs", None)
        object.__setattr__(self, "_pairset", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Relation is immutable")

    # construction

    @classmethod
    def from_pairs(cls, n_states: int, pairs: Iterable[tuple[int, int]]) -> "Relation":
        mat = np.zeros((n_states, n_states), dtype=bool)
        for p, q in pairs:
            if not (0 <= p < n_states and 0 <= q < n_states):
                raise ValueError(f"pair ({p}, {q}) out of range for {n_states} states")
            mat[p, q] = True
        return cls(n_states, mat)

    @classmethod
    def empty(cls, n_states: int) -> "Relation":
        return cls(n_states, np.zeros((n_states, n_states), dtype=bool))

    @classmethod
    def full(cls, n_states: int) -> "Relation":
        return cls(n_states, np.ones((n_states, n_states), dtype=bool))

    @classmethod
    def identity(cls, n_states: int) -> "Relation":
        return cls(n_states, np.eye(n_states, dtype=bool))

    # views

    @property
    def matrix(self) -> np.ndarray:
        return self._mat

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The member pairs in sorted order."""
        if self._pairs is None:
            ps = tuple((int(p), int(q)) for p, q in zip(*np.nonzero(self._mat)))
            object.__setattr__(self, "_pairs", ps)
        return self._pairs

    @property
    def pair_set(self) -> frozenset:
        if self._pairset is None:
            object.__setattr__(self, "_pairset", frozenset(self.pairs))
        return self._pairset

    def __contains__(self, pair) -> bool:
        p, q = pair
        return bool(self._mat[p, q])

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self) -> int:
        return int(self._mat.sum())

    # algebra

    def _check(self, other: "Relation") -> None:
        if self.n_states != other.n_states:
            raise ValueError(
                f"relations over different state counts: {self.n_states} vs {other.n_states}"
            )

    def union(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n_states, self._mat | other._mat)

    def intersect(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n_states, self._mat & other._mat)

    def difference(self, other: "Relation") -> "Relation":
        self._check(other)
        return Relation(self.n_states, self._mat & ~other._mat)

    def compose(self, other: "Relation") -> "Relation":
        """Relational composition: (p, q) related iff p -self-> x -other-> q."""
        self._check(other)
        return Relation(self.n_states, bool_mm(self._mat, other._mat))

    def converse(self) -> "Relation":
        return Relation(self.n_states, self._mat.T)

    def is_subset(self, other: "Relation") -> bool:
        self._check(other)
        return not bool((self._mat & ~other._mat).any())

    __or__ = union
    __and__ = intersect
    __sub__ = difference
    __le__ = is_subset

    def __lt__(self, other: "Relation") -> bool:
        return self.is_subset(other) and self != other

    # predicates

    def is_reflexive(self) -> bool:
        return bool(self._mat.diagonal().all())

    def is_symmetric(self) -> bool:
        return bool((self._mat == self._mat.T).all())

    def is_transitive(self) -> bool:
        return not bool((bool_mm(self._mat, self._mat) & ~self._mat).any())

    def is_equivalence(self) -> bool:
        return self.is_reflexive() and self.is_symmetric() and self.is_transitive()

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return self.n_states == other.n_states and np.array_equal(self._mat, other._mat)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.n_states, self._mat.tobytes())))
        return self._hash

    def __repr__(self):
        inner = ", ".join(f"({p},{q})" for p, q in self.pairs)
        return f"Relation({self.n_states}, {{{inner}}})"


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
    lts: Lts, pairs: Iterable[tuple[int, int]], smat: np.ndarray
) -> Iterator[ProgressViolation]:
    """Each unmatched move of each pair against the target matrix, lazily.

    Order: pairs as given, then labels, then the left state's moves
    (clause 1) before the right state's (clause 2).
    """
    succ = lts._succ
    for p, q in pairs:
        for a, label in enumerate(lts.labels):
            ps, qs = succ[p][a], succ[q][a]
            for p1 in ps:
                if not any(smat[p1, q1] for q1 in qs):
                    yield ProgressViolation((p, q), "left", label.text, p, p1)
            for q1 in qs:
                if not any(smat[p1, q1] for p1 in ps):
                    yield ProgressViolation((p, q), "right", label.text, q, q1)


def progresses_to(lts: Lts, r: Relation, s: Relation) -> ProgressDiagnosis:
    """Check whether r progresses to s, reporting every unmatched transition.

    For each pair (p, q) in r, every move of p must be matched by a move of q
    under the same label with the derivative pair in s, and symmetrically for
    moves of q.
    """
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    violations = tuple(_violations(lts, r.pairs, s.matrix))
    return ProgressDiagnosis(holds=not violations, violations=violations)


def progress_holds(lts: Lts, r: Relation, s: Relation) -> bool:
    """Like progresses_to(...).holds, stopping at the first violation."""
    if r.n_states != lts.n_states or s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    return next(_violations(lts, r.pairs, s.matrix), None) is None


def largest_progressing_to(lts: Lts, s: Relation) -> Relation:
    """The largest relation progressing to s.

    Relations progressing to a fixed target are closed under union, so the
    largest one is exactly the set of pairs that individually satisfy both
    progress clauses.  Computed here with boolean matrix products, one pass
    per label.
    """
    if s.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    n = lts.n_states
    smat = s.matrix
    good = np.ones((n, n), dtype=bool)
    for t in lts.label_matrices:
        # can_left[p', q]: q has a move under this label whose target is
        # s-related to p'.  A pair fails clause 1 when some move of p lacks one.
        can_left = bool_mm(smat, t.T)
        good &= ~bool_mm(t, ~can_left)
        # can_right[p, q']: p has a move under this label whose target is
        # s-related to q'.  Clause 2 is the mirror image.
        can_right = bool_mm(t, smat)
        good &= ~bool_mm(~can_right, t.T)
    return Relation(n, good)
