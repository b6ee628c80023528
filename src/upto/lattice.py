"""Progressions on finite complete lattices and their companion function.

A progression is a relation on a lattice that is closed under the order on
both sides and contains the join of each pre-image.  Iterating "join of the
pre-image" from the top yields a decreasing chain; the companion maps each
element to the deepest chain member above it.  Brute-force enumeration over
all endofunctions provides the oracle that the companion is the largest
function in both the order-and-relation-monotone sense and the compatible
sense, and a powerset construction bridges back to the relation world.  The
enumeration is one batched numpy pass: every function is a row of one int
array, and each predicate tests all rows at once (index arrays of at most
3125 x 5 x 5 at the enumeration cap); a single function is the one-row case.
Composing with the order (transitivity, order closure) goes through the
row-bitset ``Relation`` of ``lts``, and the bridge builds its progression
from ``largest_progressing_to``: no boolean matrix product is computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Iterable, Optional, Sequence

import numpy as np

from .lts import Lts, Relation, largest_progressing_to


class LatticeValidationError(ValueError):
    """Raised when a candidate order fails the lattice axioms."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"not a complete lattice: {preview}{extra}")


class FiniteLattice:
    """A validated finite complete lattice with cached join/meet tables."""

    __slots__ = ("elements", "leq", "join_table", "meet_table", "top", "bottom", "_index")

    def __init__(self, elements, leq, join_table, meet_table, top, bottom):
        object.__setattr__(self, "elements", tuple(elements))
        for m in (leq, join_table, meet_table):
            m.flags.writeable = False
        object.__setattr__(self, "leq", leq)
        object.__setattr__(self, "join_table", join_table)
        object.__setattr__(self, "meet_table", meet_table)
        object.__setattr__(self, "top", int(top))
        object.__setattr__(self, "bottom", int(bottom))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(self.elements)})

    def __setattr__(self, name, value):
        raise AttributeError("FiniteLattice is immutable")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown lattice element {name!r}") from None

    def le(self, a: int, b: int) -> bool:
        return bool(self.leq[a, b])

    def join(self, a: int, b: int) -> int:
        return int(self.join_table[a, b])

    def meet(self, a: int, b: int) -> int:
        return int(self.meet_table[a, b])

    def join_all(self, items: Iterable[int]) -> int:
        out = self.bottom
        for i in items:
            out = int(self.join_table[out, i])
        return out

    def meet_all(self, items: Iterable[int]) -> int:
        out = self.top
        for i in items:
            out = int(self.meet_table[out, i])
        return out

    def __repr__(self):
        return f"FiniteLattice({self.size} elements, top={self.elements[self.top]!r})"


def _as_order_matrix(m: int, order) -> np.ndarray:
    if isinstance(order, np.ndarray):
        mat = np.array(order, dtype=bool, copy=True)
        if mat.shape != (m, m):
            raise ValueError(f"order matrix shape {mat.shape} does not match {m} elements")
        return mat
    mat = np.zeros((m, m), dtype=bool)
    for a, b in order:
        a, b = index(a), index(b)
        if not (0 <= a < m and 0 <= b < m):
            raise ValueError(f"pair ({a}, {b}) out of range for {m} elements")
        mat[a, b] = True
    return mat


def _bound_table(masks: tuple[int, ...], names: Sequence[str], kind: str):
    """Least-bound table from per-element bound bitsets (up-sets or down-sets).

    The bound of a pair exists iff the intersection of their sets is itself
    some element's set; antisymmetry makes the sets unique, so a dict keyed
    on them resolves each pair in one lookup.
    """
    m = len(masks)
    owner = {mask: i for i, mask in enumerate(masks)}
    table = np.zeros((m, m), dtype=np.int64)
    violations = []
    for i in range(m):
        mi = masks[i]
        for j in range(i, m):
            got = owner.get(mi & masks[j])
            if got is None:
                violations.append(f"missing {kind} of {names[i]} and {names[j]}")
                got = 0
            table[i, j] = table[j, i] = got
    return table, violations


def validate_lattice(elements: Sequence[str], order) -> FiniteLattice:
    """Check the lattice axioms on (elements, order) and build the structure.

    order is a boolean matrix over element indices or an iterable of index
    pairs, and must already be the full order (parsers close cover relations
    first).  Raises LatticeValidationError carrying every violation found:
    poset axioms first, then missing binary joins/meets.  For a finite poset
    all binary bounds plus non-emptiness give completeness.
    """
    names = [str(e) for e in elements]
    violations: list[str] = []
    if not names:
        raise LatticeValidationError(["lattice has no elements"])
    if len(set(names)) != len(names):
        raise LatticeValidationError(["element names are not pairwise distinct"])
    m = len(names)
    leq = _as_order_matrix(m, order)

    if not leq.diagonal().all():
        for i in np.nonzero(~leq.diagonal())[0]:
            violations.append(f"not reflexive: {names[i]}")
    anti = leq & leq.T & ~np.eye(m, dtype=bool)
    for i, j in zip(*np.nonzero(anti)):
        if i < j:
            violations.append(f"not antisymmetric: {names[i]} and {names[j]}")
    order = Relation(m, leq)
    gap = order.compose(order) - order
    for count, (i, j) in enumerate(gap.pairs):
        if count >= 20:
            violations.append(f"... and {len(gap) - 20} more transitivity gaps")
            break
        violations.append(f"not transitive: {names[i]} .. {names[j]} reachable but unrelated")
    if violations:
        raise LatticeValidationError(violations)

    # row i of the order is the up-set of i, column i its down-set
    join_table, jv = _bound_table(order.row_bits, names, "join")
    meet_table, mv = _bound_table(order.column_bits, names, "meet")
    violations.extend(jv)
    violations.extend(mv)
    if violations:
        raise LatticeValidationError(violations)

    tops = np.nonzero(leq.all(axis=0))[0]
    bottoms = np.nonzero(leq.all(axis=1))[0]
    if len(tops) != 1 or len(bottoms) != 1:
        # unreachable once binary bounds exist, kept as a guard
        raise LatticeValidationError(["no unique top/bottom element"])
    return FiniteLattice(names, leq, join_table, meet_table, tops[0], bottoms[0])


@dataclass(frozen=True)
class ProgressionViolation:
    condition: int  # 1 = order closure, 2 = join of pre-image
    pair: tuple[int, int]
    description: str


@dataclass(frozen=True)
class ProgressionVerdict:
    holds: bool
    violations: tuple[ProgressionViolation, ...]
    violation_count: int  # total found; violations may be truncated

    _CAP = 100


def is_progression(lattice: FiniteLattice, rel) -> ProgressionVerdict:
    """Exhaustively check both progression conditions on a candidate relation.

    Condition 1: composing with the order on either side stays inside the
    relation.  Condition 2: every pre-image contains its own join.  The
    verdict reports at most 100 witnesses but counts them all.
    """
    m = lattice.size
    mat = _as_order_matrix(m, rel)
    order, r = Relation(m, lattice.leq), Relation(m, mat)
    names = lattice.elements
    violations: list[ProgressionViolation] = []
    total = 0

    missing = order.compose(r).compose(order) - r
    for a, b in missing.pairs:
        total += 1
        if len(violations) < ProgressionVerdict._CAP:
            violations.append(
                ProgressionViolation(
                    1,
                    (a, b),
                    f"order closure requires ({names[a]}, {names[b]})",
                )
            )

    for b in range(m):
        pre = np.nonzero(mat[:, b])[0]
        j = lattice.join_all(int(i) for i in pre)
        if not mat[j, b]:
            total += 1
            if len(violations) < ProgressionVerdict._CAP:
                violations.append(
                    ProgressionViolation(
                        2,
                        (j, b),
                        f"join {names[j]} of the pre-image of {names[b]} is not in it",
                    )
                )

    return ProgressionVerdict(total == 0, tuple(violations), total)


class LatticeProgression:
    """A relation validated to satisfy both progression conditions."""

    __slots__ = ("lattice", "rel", "_s_vec")

    def __init__(self, lattice: FiniteLattice, rel):
        mat = _as_order_matrix(lattice.size, rel)
        verdict = is_progression(lattice, mat)
        if not verdict.holds:
            first = verdict.violations[0].description if verdict.violations else ""
            raise ValueError(
                f"not a progression ({verdict.violation_count} violations): {first}"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "rel", mat)
        object.__setattr__(self, "_s_vec", None)

    def __setattr__(self, name, value):
        raise AttributeError("LatticeProgression is immutable")

    def pre_image(self, b: int) -> tuple[int, ...]:
        return tuple(int(i) for i in np.nonzero(self.rel[:, b])[0])

    @property
    def s_vector(self) -> tuple[int, ...]:
        """Join of the pre-image, for every element; cached."""
        if self._s_vec is None:
            l = self.lattice
            vec = tuple(l.join_all(self.pre_image(b)) for b in range(l.size))
            object.__setattr__(self, "_s_vec", vec)
        return self._s_vec


def close_to_progression(lattice: FiniteLattice, seed) -> LatticeProgression:
    """Grow a seed relation into the least progression containing it.

    Alternates closing under the order on both sides with adding the pair
    (join of pre-image, target) for every target; the relation only grows in
    a finite space, so the loop reaches a fixpoint.
    """
    m = lattice.size
    rel = _as_order_matrix(m, seed)
    order = Relation(m, lattice.leq)
    while True:
        new = rel | order.compose(Relation(m, rel)).compose(order).matrix
        for b in range(m):
            j = lattice.join_all(int(i) for i in np.nonzero(new[:, b])[0])
            new[j, b] = True
        if np.array_equal(new, rel):
            break
        rel = new
    return LatticeProgression(lattice, rel)


@dataclass(frozen=True)
class LatticeChain:
    """The decreasing chain from the top, stored up to its stable point."""

    zs: tuple[int, ...]
    stable_index: int

    def __post_init__(self):
        if self.stable_index != len(self.zs) - 1:
            raise ValueError("stable_index must index the last stored chain element")


def z_chain(lattice: FiniteLattice, progression: LatticeProgression) -> LatticeChain:
    """Iterate join-of-pre-image from the top until it stabilizes."""
    z = lattice.top
    zs = [z]
    while True:
        nz = s_of(lattice, progression, z)
        if nz == z:
            break
        if not lattice.le(nz, z):
            raise RuntimeError("chain failed to decrease; progression conditions are inconsistent")
        zs.append(nz)
        z = nz
    return LatticeChain(zs=tuple(zs), stable_index=len(zs) - 1)


def s_of(lattice: FiniteLattice, progression: LatticeProgression, x: int) -> int:
    """Join of the pre-image of x under the progression."""
    return progression.s_vector[x]


def companion_at(
    lattice: FiniteLattice,
    progression: LatticeProgression,
    chain: LatticeChain,
    x: int,
) -> int:
    """Meet of all chain elements above x: the deepest stratum containing x."""
    return lattice.meet_all(z for z in chain.zs if lattice.le(x, z))


def _function_row(lattice: FiniteLattice, f: Sequence[int]) -> np.ndarray:
    m = lattice.size
    if len(f) != m or not all(v in range(m) for v in f):
        raise ValueError(
            f"function must list {m} elements, each in range({m}); got {tuple(f)!r}"
        )
    return np.asarray(f, dtype=np.intp).reshape(1, m)


def _preserves(order: np.ndarray, funcs: np.ndarray) -> np.ndarray:
    """Per row f: order[x, y] implies order[f[x], f[y]] for every x, y."""
    image = order[funcs[:, :, None], funcs[:, None, :]]
    return ~(order & ~image).any(axis=(1, 2))


def _compatible_rows(
    lattice: FiniteLattice, progression: LatticeProgression, funcs: np.ndarray
) -> np.ndarray:
    s = np.asarray(progression.s_vector, dtype=np.intp)
    return lattice.leq[funcs[:, s], s[funcs]].all(axis=1)


def is_monotone(lattice: FiniteLattice, f: Sequence[int]) -> bool:
    return bool(_preserves(lattice.leq, _function_row(lattice, f))[0])


def is_r_monotone(
    lattice: FiniteLattice, progression: LatticeProgression, f: Sequence[int]
) -> bool:
    """Monotone with respect to the intersection of the order and the progression."""
    return bool(_preserves(lattice.leq & progression.rel, _function_row(lattice, f))[0])


def is_compatible(
    lattice: FiniteLattice, progression: LatticeProgression, f: Sequence[int]
) -> bool:
    """f(s(x)) below s(f(x)) for every x, with s the join-of-pre-image map.

    The notion is meant for monotone f; this checks just the pointwise
    inequality and leaves monotonicity to the caller.
    """
    return bool(_compatible_rows(lattice, progression, _function_row(lattice, f))[0])


ENUMERATION_CAP = 5


def _all_functions(lattice: FiniteLattice) -> np.ndarray:
    """Every endofunction of the lattice as a row of an (m**m, m) array.

    Rows come in itertools.product order, so the first matching row is the
    first matching tuple of a product walk.
    """
    m = lattice.size
    if m > ENUMERATION_CAP:
        raise ValueError(
            f"lattice has {m} elements; enumeration is capped at {ENUMERATION_CAP}"
        )
    return np.indices((m,) * m).reshape(m, -1).T


def brute_force_largest(
    lattice: FiniteLattice, progression: LatticeProgression, mode: str
) -> tuple[int, ...]:
    """Pointwise join of every surviving endofunction, by full enumeration.

    mode "r_monotone" keeps functions monotone with respect to the order
    intersected with the progression; mode "compatible" keeps monotone
    functions satisfying the compatibility inequality.  All m**m functions
    are filtered in one batched pass (index arrays of at most 3125 x 5 x 5),
    and the join at each point is the join of the distinct surviving values
    there.  The join itself must survive the same filter, which is
    re-checked before returning.
    """
    if mode not in ("r_monotone", "compatible"):
        raise ValueError(f"unknown mode {mode!r}")
    funcs = _all_functions(lattice)

    def survivors(fs: np.ndarray) -> np.ndarray:
        if mode == "r_monotone":
            return _preserves(lattice.leq & progression.rel, fs)
        return _preserves(lattice.leq, fs) & _compatible_rows(lattice, progression, fs)

    kept = funcs[survivors(funcs)]
    best = tuple(lattice.join_all(int(v) for v in np.unique(col)) for col in kept.T)
    if not survivors(_function_row(lattice, best))[0]:
        raise RuntimeError(
            f"pointwise join of {mode} survivors is not itself {mode}; closure failed"
        )
    return best


@dataclass(frozen=True)
class MonotoneClassification:
    """How the two function classes relate on one progression; report only."""

    n_monotone: int
    n_r_monotone_among_monotone: int
    n_compatible: int
    n_r_monotone_not_compatible: int
    n_compatible_not_r_monotone: int
    example_r_monotone_not_compatible: Optional[tuple[int, ...]]
    example_compatible_not_r_monotone: Optional[tuple[int, ...]]


def classify_monotone_functions(
    lattice: FiniteLattice, progression: LatticeProgression
) -> MonotoneClassification:
    """Count, among monotone functions, how r-monotonicity and compatibility overlap.

    Each example is the first such function in itertools.product order.
    """
    funcs = _all_functions(lattice)
    funcs = funcs[_preserves(lattice.leq, funcs)]
    rm = _preserves(lattice.leq & progression.rel, funcs)
    comp = _compatible_rows(lattice, progression, funcs)
    rm_only = rm & ~comp
    comp_only = comp & ~rm

    def first(mask: np.ndarray) -> Optional[tuple[int, ...]]:
        hits = np.flatnonzero(mask)
        return tuple(int(v) for v in funcs[hits[0]]) if hits.size else None

    return MonotoneClassification(
        len(funcs),
        int(rm.sum()),
        int(comp.sum()),
        int(rm_only.sum()),
        int(comp_only.sum()),
        first(rm_only),
        first(comp_only),
    )


# Standard small lattices, used by the verification suites.


def chain_lattice(length: int) -> FiniteLattice:
    """A totally ordered lattice c0 < c1 < ... with the given element count."""
    if length < 1:
        raise ValueError("chain needs at least one element")
    names = [f"c{i}" for i in range(length)]
    leq = np.tril(np.ones((length, length), dtype=bool)).T
    return validate_lattice(names, leq)


def diamond_lattice() -> FiniteLattice:
    """Bottom, two incomparable middles, top."""
    names = ["bot", "x", "y", "top"]
    pairs = [(a, a) for a in range(4)]
    pairs += [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    return validate_lattice(names, pairs)


def powerset_lattice(n_atoms: int) -> FiniteLattice:
    """Subsets of n_atoms atoms under inclusion."""
    m = 1 << n_atoms
    names = []
    for mask in range(m):
        inner = ",".join(chr(ord("a") + k) for k in range(n_atoms) if mask >> k & 1)
        names.append("{" + inner + "}")
    idx = np.arange(m, dtype=np.int64)
    leq = (idx[:, None] & ~idx[None, :]) == 0
    return validate_lattice(names, leq)


def pentagon_lattice() -> FiniteLattice:
    """The five-element non-modular lattice: bot < a < c < top, bot < b < top."""
    names = ["bot", "a", "b", "c", "top"]
    pairs = [(i, i) for i in range(5)]
    pairs += [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]
    return validate_lattice(names, pairs)


def m3_lattice() -> FiniteLattice:
    """Bottom, three pairwise incomparable middles, top."""
    names = ["bot", "x", "y", "z", "top"]
    pairs = [(i, i) for i in range(5)]
    pairs += [(0, k) for k in (1, 2, 3, 4)]
    pairs += [(k, 4) for k in (1, 2, 3)]
    return validate_lattice(names, pairs)


# Bridge: the relation world as a powerset lattice.

BRIDGE_STATE_CAP = 3


def relation_element_name(n: int, mask: int) -> str:
    return "{" + ",".join(f"({p},{q})" for p, q in element_relation(n, mask).pairs) + "}"


def relation_element_index(r: Relation) -> int:
    """Bitmask position of a relation in the powerset lattice (row-major
    pairs): its row bitsets, concatenated."""
    n = r.n_states
    return sum(row << (p * n) for p, row in enumerate(r.row_bits))


def element_relation(n_states: int, index: int) -> Relation:
    """Inverse of relation_element_index."""
    full = (1 << n_states) - 1
    rows = tuple(index >> (p * n_states) & full for p in range(n_states))
    return Relation._from_rows(n_states, rows)


def lts_to_lattice(
    lts: Lts, max_states: int = BRIDGE_STATE_CAP
) -> tuple[FiniteLattice, LatticeProgression]:
    """All relations over the LTS as a lattice, with progress as the progression.

    Element i is the relation whose member pairs are the set bits of i under
    row-major pair order.  The relation of the progression holds between X
    and S exactly when X progresses to S, that is when X lies below the
    largest relation progressing to S.  Both progression conditions are
    re-validated on the result.
    """
    if max_states > BRIDGE_STATE_CAP:
        raise ValueError(f"bridge construction is capped at {BRIDGE_STATE_CAP} states")
    n = lts.n_states
    if n > max_states:
        raise ValueError(f"LTS has {n} states; bound is {max_states}")
    m = 1 << (n * n)

    names = [relation_element_name(n, mask) for mask in range(m)]
    idx = np.arange(m, dtype=np.int64)
    leq = (idx[:, None] & ~idx[None, :]) == 0
    lattice = validate_lattice(names, leq)

    rel = np.zeros((m, m), dtype=bool)
    for s_mask in range(m):
        ok = relation_element_index(largest_progressing_to(lts, element_relation(n, s_mask)))
        rel[:, s_mask] = (idx & ~ok) == 0
    progression = LatticeProgression(lattice, rel)
    return lattice, progression
