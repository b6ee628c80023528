"""Progressions on finite complete lattices and their companion function.

A progression is a relation on a lattice that is closed under the order on
both sides and contains the join of each pre-image.  Iterating "join of the
pre-image" from the top yields a decreasing chain; the companion maps each
element to the deepest chain member above it.  Both are written once, over
any top, step, order and meet (``descending_chain``, ``chain_companion``): a
``FiniteLattice`` is one instance, and the relations of an ``Lts``, stepping
by ``largest_progressing_to`` from the full relation, are another, whose
chain is the strata and whose companion is ``lrf``.  Brute-force enumeration
over all endofunctions provides the oracle that the companion is the largest
function in both the order-and-relation-monotone sense and the compatible
sense.

Every relation on lattice elements is a row-bitset ``Relation`` of ``lts``:
the order of a ``FiniteLattice`` (row i is the up-set of i, column i its
down-set) and the relation of a ``LatticeProgression``; joins and meets are
int tables.  A relation over another point count than the lattice's elements
is refused with ``ValueError``.  Checking a progression and closing a seed
into one share one step, the pairs both conditions require.  The enumeration
builds only the functions preserving a relation: it picks each value in turn
among those that the relation's rows and columns at the earlier points allow.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable, NamedTuple, Optional, Sequence, TypeVar

from .lts import Relation

_T = TypeVar("_T")  # a lattice element


class LatticeValidationError(ValueError):
    """Raised when a candidate order fails the lattice axioms."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        preview = "; ".join(self.violations[:5])
        extra = "" if len(self.violations) <= 5 else f" (+{len(self.violations) - 5} more)"
        super().__init__(f"not a complete lattice: {preview}{extra}")


class FiniteLattice:
    """A validated finite complete lattice: its order and join/meet tables.

    Two lattices are equal when they have the same element names and order.
    """

    __slots__ = ("elements", "order", "join_table", "meet_table", "top", "bottom", "_index")

    def __init__(self, elements, order: Relation, join_table, meet_table, top, bottom):
        elements = tuple(elements)
        index = {name: i for i, name in enumerate(elements)}
        values = (elements, order, join_table, meet_table, top, bottom, index)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

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
        return bool(self.order.row_bits[a] >> b & 1)

    def join(self, a: int, b: int) -> int:
        return self.join_table[a][b]

    def meet(self, a: int, b: int) -> int:
        return self.meet_table[a][b]

    def join_all(self, items: Iterable[int]) -> int:
        out = self.bottom
        for i in items:
            out = self.join_table[out][i]
        return out

    def meet_all(self, items: Iterable[int]) -> int:
        out = self.top
        for i in items:
            out = self.meet_table[out][i]
        return out

    def __eq__(self, other):
        if not isinstance(other, FiniteLattice):
            return NotImplemented
        return self.elements == other.elements and self.order == other.order

    def __hash__(self):
        return hash((self.elements, self.order))

    def __repr__(self):
        return f"FiniteLattice({self.size} elements, top={self.elements[self.top]!r})"


def _fits(m: int, rel: Relation) -> Relation:
    """rel, when it is a relation on the m elements of a lattice."""
    if rel.n_states != m:
        raise ValueError(
            f"relation on {rel.n_states} points does not fit a lattice of {m} elements"
        )
    return rel


def _bound_table(masks: tuple[int, ...], names: Sequence[str], kind: str):
    """Least-bound table from per-element bound bitsets (up-sets or down-sets).

    The bound of a pair exists iff the intersection of their sets is itself
    some element's set; antisymmetry makes the sets unique, so a dict keyed
    on them resolves each pair in one lookup.
    """
    m = len(masks)
    owner = {mask: i for i, mask in enumerate(masks)}
    table = [[0] * m for _ in range(m)]
    violations = []
    for i in range(m):
        mi = masks[i]
        for j in range(i, m):
            got = owner.get(mi & masks[j])
            if got is None:
                violations.append(f"missing {kind} of {names[i]} and {names[j]}")
                got = 0
            table[i][j] = table[j][i] = got
    return tuple(map(tuple, table)), violations


def validate_lattice(elements: Sequence[str], order: Relation) -> FiniteLattice:
    """Check the lattice axioms on (elements, order) and build the structure.

    order is a Relation on the element indices, and must already be the
    full order (parsers close cover relations first).  Raises
    LatticeValidationError carrying every violation found: poset axioms
    first, then missing binary joins/meets.  For a finite poset all binary
    bounds plus non-emptiness give completeness.
    """
    names = [str(e) for e in elements]
    violations: list[str] = []
    if not names:
        raise LatticeValidationError(["lattice has no elements"])
    if len(set(names)) != len(names):
        raise LatticeValidationError(["element names are not pairwise distinct"])
    m = len(names)
    _fits(m, order)

    for i, row in enumerate(order.row_bits):
        if not row >> i & 1:
            violations.append(f"not reflexive: {names[i]}")
    for i, j in (order & order.converse()).pairs:
        if i < j:
            violations.append(f"not antisymmetric: {names[i]} and {names[j]}")
    gap = order.compose(order) - order
    for count, (i, j) in enumerate(gap.pairs):
        if count >= 20:
            violations.append(f"... and {len(gap) - 20} more transitivity gaps")
            break
        violations.append(f"not transitive: {names[i]} .. {names[j]} reachable but unrelated")
    if violations:
        raise LatticeValidationError(violations)

    join_table, jv = _bound_table(order.row_bits, names, "join")
    meet_table, mv = _bound_table(order.column_bits, names, "meet")
    violations.extend(jv)
    violations.extend(mv)
    if violations:
        raise LatticeValidationError(violations)

    # binary bounds give a top and a bottom, antisymmetry makes them unique
    full = (1 << m) - 1
    top, bottom = order.column_bits.index(full), order.row_bits.index(full)
    return FiniteLattice(names, order, join_table, meet_table, top, bottom)


class ProgressionViolation(NamedTuple):
    condition: int  # 1 = order closure, 2 = join of pre-image
    pair: tuple[int, int]
    description: str


class ProgressionVerdict(NamedTuple):
    violations: tuple[ProgressionViolation, ...]
    violation_count: int  # total found; violations may be truncated

    _CAP = 100

    @property
    def holds(self) -> bool:
        return self.violation_count == 0


def _pre_image_joins(lattice: FiniteLattice, rel: Relation) -> tuple[int, ...]:
    """For every element b, the join of its pre-image under rel."""
    joins = [lattice.bottom] * lattice.size
    for a, b in rel.pairs:
        joins[b] = lattice.join_table[joins[b]][a]
    return tuple(joins)


def _required(lattice: FiniteLattice, rel: Relation) -> tuple[Relation, tuple[int, ...]]:
    """What the progression conditions require of rel: order . rel . order
    (condition 1), and (joins[b], b) for every b (condition 2)."""
    order = lattice.order
    return order.compose(rel).compose(order), _pre_image_joins(lattice, rel)


def is_progression(lattice: FiniteLattice, rel: Relation) -> ProgressionVerdict:
    """Exhaustively check both progression conditions on a candidate relation.

    Condition 1: composing with the order on either side stays inside the
    relation.  Condition 2: every pre-image contains its own join.  The
    verdict reports at most 100 witnesses but counts them all.
    """
    closure, joins = _required(lattice, _fits(lattice.size, rel))
    unclosed = (closure - rel).pairs
    unjoined = [(j, b) for b, j in enumerate(joins) if (j, b) not in rel]
    names, cap = lattice.elements, ProgressionVerdict._CAP
    violations = [
        ProgressionViolation(1, (a, b), f"order closure requires ({names[a]}, {names[b]})")
        for a, b in unclosed[:cap]
    ]
    violations += [
        ProgressionViolation(
            2, (j, b), f"join {names[j]} of the pre-image of {names[b]} is not in it"
        )
        for j, b in unjoined[: cap - len(violations)]
    ]
    return ProgressionVerdict(tuple(violations), len(unclosed) + len(unjoined))


class LatticeProgression:
    """A relation validated to satisfy both progression conditions.

    s_vector[b] is the join of the pre-image of b.
    """

    __slots__ = ("lattice", "rel", "s_vector")

    def __init__(self, lattice: FiniteLattice, rel: Relation):
        verdict = is_progression(lattice, rel)
        if not verdict.holds:
            first = verdict.violations[0].description if verdict.violations else ""
            raise ValueError(
                f"not a progression ({verdict.violation_count} violations): {first}"
            )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "rel", rel)
        object.__setattr__(self, "s_vector", _pre_image_joins(lattice, rel))

    def __setattr__(self, name, value):
        raise AttributeError("LatticeProgression is immutable")


def close_to_progression(lattice: FiniteLattice, seed: Relation) -> LatticeProgression:
    """Grow a seed relation into the least progression containing it.

    Adds everything the two conditions require until nothing is missing.
    The relation only grows in a finite space, so the loop stops; and
    progressions are closed under intersection, so the least one containing
    the seed is unique and the order of the additions cannot change it.
    """
    m = lattice.size
    rel = _fits(m, seed)
    while True:
        closure, joins = _required(lattice, rel)
        # (joins[b], b) for every b
        new = rel | closure | Relation.from_pairs(m, zip(joins, range(m)))
        if new == rel:
            return LatticeProgression(lattice, rel)
        rel = new


class LatticeChain(NamedTuple):
    """The decreasing chain from the top, stored up to its stable point."""

    zs: tuple[int, ...]

    @property
    def stable_index(self) -> int:
        return len(self.zs) - 1


def _same_lattice(lattice: FiniteLattice, progression: LatticeProgression) -> None:
    if progression.lattice is not lattice and progression.lattice != lattice:
        raise ValueError("progression was built on a different lattice")


def descending_chain(
    top: _T, step: Callable[[_T], _T], le: Callable[[_T, _T], bool]
) -> tuple[_T, ...]:
    """Iterate step from top until it stabilizes: the chain top, step(top),
    ... up to its first fixed point, each member strictly below the one
    before.  Raises RuntimeError when a step does not go down."""
    zs = [top]
    while True:
        z = step(zs[-1])
        if z == zs[-1]:
            return tuple(zs)
        if not le(z, zs[-1]):
            raise RuntimeError("chain failed to decrease; progression conditions are inconsistent")
        zs.append(z)


def chain_companion(
    zs: Sequence[_T], x: _T, le: Callable[[_T, _T], bool], meet: Callable[[_T, _T], _T]
) -> _T:
    """The companion at x: the meet of the members of the chain zs above x.
    A chain from the top has the top above every x."""
    return reduce(meet, [z for z in zs if le(x, z)])


def z_chain(lattice: FiniteLattice, progression: LatticeProgression) -> LatticeChain:
    """Iterate join-of-pre-image from the top until it stabilizes."""
    _same_lattice(lattice, progression)
    zs = descending_chain(lattice.top, progression.s_vector.__getitem__, lattice.le)
    return LatticeChain(zs)


def companion_at(
    lattice: FiniteLattice,
    progression: LatticeProgression,
    chain: LatticeChain,
    x: int,
) -> int:
    """Meet of all chain elements above x: the deepest stratum containing x."""
    _same_lattice(lattice, progression)
    return chain_companion(chain.zs, x, lattice.le, lattice.meet)


def _function_row(lattice: FiniteLattice, f: Sequence[int]) -> tuple[int, ...]:
    m = lattice.size
    if len(f) != m or not all(v in range(m) for v in f):
        raise ValueError(
            f"function must list {m} elements, each in range({m}); got {tuple(f)!r}"
        )
    return tuple(int(v) for v in f)


def _preserves(rel: Relation, f: Sequence[int]) -> bool:
    """(x, y) in rel implies (f[x], f[y]) in rel, tested pair by pair."""
    rows = rel.row_bits
    for x, y in rel.pairs:
        if not rows[f[x]] >> f[y] & 1:
            return False
    return True


def _compatible(lattice: FiniteLattice, s: Sequence[int], f: Sequence[int]) -> bool:
    """f[s[x]] below s[f[x]] for every x."""
    up = lattice.order.row_bits
    for x, sx in enumerate(s):
        if not up[f[sx]] >> s[f[x]] & 1:
            return False
    return True


def is_monotone(lattice: FiniteLattice, f: Sequence[int]) -> bool:
    return _preserves(lattice.order, _function_row(lattice, f))


def is_r_monotone(
    lattice: FiniteLattice, progression: LatticeProgression, f: Sequence[int]
) -> bool:
    """Monotone with respect to the intersection of the order and the progression."""
    _same_lattice(lattice, progression)
    return _preserves(lattice.order & progression.rel, _function_row(lattice, f))


def is_compatible(
    lattice: FiniteLattice, progression: LatticeProgression, f: Sequence[int]
) -> bool:
    """f(s(x)) below s(f(x)) for every x, with s the join-of-pre-image map.

    The notion is meant for monotone f; this checks just the pointwise
    inequality and leaves monotonicity to the caller.
    """
    _same_lattice(lattice, progression)
    return _compatible(lattice, progression.s_vector, _function_row(lattice, f))


ENUMERATION_CAP = 5


def _preserving(lattice: FiniteLattice, rel: Relation) -> list[tuple[int, ...]]:
    """Every endofunction f preserving rel, in itertools.product order.

    f[i] is picked after f[0..i-1] among the values v keeping (i, i) and each
    pair of i and an earlier j inside rel: (j, i) in rel asks for v in row
    f[j], (i, j) for v in column f[j].
    """
    m = lattice.size
    if m > ENUMERATION_CAP:
        raise ValueError(f"lattice has {m} elements; enumeration is capped at {ENUMERATION_CAP}")
    rows, cols = rel.row_bits, rel.column_bits
    loops = sum(1 << v for v in range(m) if rows[v] >> v & 1)
    # the values in each set of values, as one-element tuples
    values = [tuple((v,) for v in range(m) if allowed >> v & 1) for allowed in range(1 << m)]
    funcs: list[tuple[int, ...]] = [()]
    for i in range(m):
        needs = [(rows, j) for j in range(i) if rows[j] >> i & 1]
        needs += [(cols, j) for j in range(i) if rows[i] >> j & 1]
        start = loops if rows[i] >> i & 1 else (1 << m) - 1
        grown = []
        for f in funcs:
            allowed = start
            for bits, j in needs:
                allowed &= bits[f[j]]
            grown += [f + v for v in values[allowed]]
        funcs = grown
    return funcs


def brute_force_largest(
    lattice: FiniteLattice, progression: LatticeProgression, mode: str
) -> tuple[int, ...]:
    """Pointwise join of every surviving endofunction, by enumeration.

    mode "r_monotone" keeps functions monotone with respect to the order
    intersected with the progression; mode "compatible" keeps monotone
    functions satisfying the compatibility inequality.  The join itself
    must survive the same filter, which is re-checked before returning.
    """
    if mode not in ("r_monotone", "compatible"):
        raise ValueError(f"unknown mode {mode!r}")
    _same_lattice(lattice, progression)
    r_monotone, s = mode == "r_monotone", progression.s_vector
    rel = lattice.order & progression.rel if r_monotone else lattice.order
    kept = [f for f in _preserving(lattice, rel) if r_monotone or _compatible(lattice, s, f)]
    best = tuple(lattice.join_all(set(col)) for col in zip(*kept))
    if not _preserves(rel, best) or not (r_monotone or _compatible(lattice, s, best)):
        raise RuntimeError(
            f"pointwise join of {mode} survivors is not itself {mode}; closure failed"
        )
    return best


class MonotoneClassification(NamedTuple):
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
    _same_lattice(lattice, progression)
    funcs = _preserving(lattice, lattice.order)
    rel, s = lattice.order & progression.rel, progression.s_vector
    rm = [f for f in funcs if _preserves(rel, f)]
    comp = [f for f in funcs if _compatible(lattice, s, f)]
    rm_set, comp_set = set(rm), set(comp)
    rm_only = [f for f in rm if f not in comp_set]
    comp_only = [f for f in comp if f not in rm_set]
    return MonotoneClassification(
        len(funcs),
        len(rm),
        len(comp),
        len(rm_only),
        len(comp_only),
        rm_only[0] if rm_only else None,
        comp_only[0] if comp_only else None,
    )


# Standard small lattices, used by the verification suites.


def chain_lattice(length: int) -> FiniteLattice:
    """A totally ordered lattice c0 < c1 < ... with the given element count."""
    if length < 1:
        raise ValueError("chain needs at least one element")
    names = [f"c{i}" for i in range(length)]
    pairs = [(a, b) for a in range(length) for b in range(a, length)]
    return validate_lattice(names, Relation.from_pairs(length, pairs))


def diamond_lattice() -> FiniteLattice:
    """Bottom, two incomparable middles, top."""
    names = ["bot", "x", "y", "top"]
    pairs = [(a, a) for a in range(4)]
    pairs += [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]
    return validate_lattice(names, Relation.from_pairs(4, pairs))


def _inclusion(n_bits: int) -> Relation:
    """Inclusion on the subsets of n_bits bits, each subset given by its bitmask."""
    m, rows = 1 << n_bits, []
    for i in range(m):
        row, j = 0, i
        while j < m:  # j runs over the supersets of i in increasing order
            row, j = row | 1 << j, (j + 1) | i
        rows.append(row)
    return Relation._from_rows(m, tuple(rows))


def powerset_lattice(n_atoms: int) -> FiniteLattice:
    """Subsets of n_atoms atoms under inclusion."""
    names = []
    for mask in range(1 << n_atoms):
        inner = ",".join(chr(ord("a") + k) for k in range(n_atoms) if mask >> k & 1)
        names.append("{" + inner + "}")
    return validate_lattice(names, _inclusion(n_atoms))


def pentagon_lattice() -> FiniteLattice:
    """The five-element non-modular lattice: bot < a < c < top, bot < b < top."""
    names = ["bot", "a", "b", "c", "top"]
    pairs = [(i, i) for i in range(5)]
    pairs += [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]
    return validate_lattice(names, Relation.from_pairs(5, pairs))


def m3_lattice() -> FiniteLattice:
    """Bottom, three pairwise incomparable middles, top."""
    names = ["bot", "x", "y", "z", "top"]
    pairs = [(i, i) for i in range(5)]
    pairs += [(0, k) for k in (1, 2, 3, 4)]
    pairs += [(k, 4) for k in (1, 2, 3)]
    return validate_lattice(names, Relation.from_pairs(5, pairs))


def element_relation(n_states: int, index: int) -> Relation:
    """The relation on n_states states whose pairs are the set bits of index,
    pairs in row-major order: its row bitsets, concatenated."""
    full = (1 << n_states) - 1
    rows = tuple(index >> (p * n_states) & full for p in range(n_states))
    return Relation._from_rows(n_states, rows)
