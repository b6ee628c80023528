"""Shared oracles and hypothesis strategies for the test suite.

The oracles deliberately avoid the library's own computation routes:
refinement_strata rebuilds the stratum chain by partition refinement over
transition signatures, matrix_largest_progressing_to computes the largest
relation progressing to a target with integer matrix products and
matrix_strata iterates it, scan_lrf reads lrf off the materialized strata,
scalar_violations walks the progress clauses one boolean matrix entry at a
time, and the enumeration
helpers sweep every relation on a small state space or every endofunction of
a small lattice, one function at a time.  The reference_* samplers are the
samplers as first written, pair by pair through generators and
Relation.from_pairs; the library's samplers must draw the same numbers in the
same order and return the same relations.  lts_to_lattice tabulates the
relations of a system as a powerset lattice with progress as its
progression, the oracle of the library's companion on relations.
chain_from_rows and chain_from_relations build a chain's refinement tree
from rows of block ids or from equivalence relations, numbered apart from
compute_strata's, and blocks reads a chain back as canonical rows of block
ids.  fixpoint_lrf computes the largest respectful function as the greatest
fixpoint of its definition, on every relation.  squared_closure closes a
lattice cover by squaring a set of pairs until it is stable.
matrix_relation is the one way a test turns a numpy boolean matrix into a
Relation.
"""

import itertools

import hypothesis.strategies as st
import numpy as np

from upto import LatticeProgression, Lts, Relation, element_relation, validate_lattice
from upto.lattice import MonotoneClassification, _inclusion
from upto.lts import ProgressViolation, largest_progressing_to
from upto.strata import StrataSequence


def matrix_relation(mat):
    """The Relation whose pairs are the true entries of a square boolean matrix."""
    mat = np.asarray(mat, dtype=bool)
    n = len(mat)
    if mat.shape != (n, n):
        raise ValueError(f"matrix shape {mat.shape} is not square")
    return Relation.from_pairs(n, np.argwhere(mat).tolist())


def squared_closure(m, pairs):
    """The reflexive-transitive closure of pairs on m points, as a set: the
    diagonal added, then composed with itself until nothing is added."""
    closed = set(pairs) | {(x, x) for x in range(m)}
    while True:
        step = closed | {(a, c) for a, b in closed for b2, c in closed if b == b2}
        if step == closed:
            return closed
        closed = step


def canonical(row):
    """Renumber block ids in order of first occurrence, so equal partitions
    get equal rows."""
    first = {}
    return tuple(first.setdefault(b, len(first)) for b in row)


def blocks(seq):
    """Every row of block ids of a chain, strata 0..epsilon, each canonical."""
    return tuple(canonical(seq._row(k)) for k in range(seq.epsilon + 1))


def refinement_strata(lts):
    """Stratum chain via signature refinement, as a list of Relations.

    Start with one block; repeatedly split states by the set of
    (label, block-of-target) signatures until stable.  For equivalence
    targets, both progress clauses amount to equality of these signature
    sets, so partition k equals stratum k.
    """
    n = lts.n_states
    moves = [
        [(a, q) for a in range(len(lts.labels)) for q in lts.successors(p, a)] for p in range(n)
    ]
    blocks = [0] * n
    chain = [blocks]
    while True:
        numbering = {}
        new = [0] * n
        for p in range(n):
            sig = tuple(sorted({(a, blocks[q]) for (a, q) in moves[p]}))
            new[p] = numbering.setdefault(sig, len(numbering))
        if new == blocks:
            break
        chain.append(new)
        blocks = new
    # row p of a partition's relation: the states of p's block, as a bitset
    relations = []
    for b in chain:
        members = {}
        for p, block in enumerate(b):
            members[block] = members.get(block, 0) | 1 << p
        relations.append(Relation._from_rows(n, tuple(members[block] for block in b)))
    return relations


def chain_from_rows(lts, rows):
    """The chain whose row k gives the block id of each state in stratum k,
    built as its refinement tree: the first piece of a split, in state
    order, keeps the block's id, where compute_strata keeps the largest."""
    n = lts.n_states
    rows = [canonical(row) for row in rows]
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
    return StrataSequence(lts, final, parent, born, len(rows) - 1)


def chain_from_relations(lts, strata, epsilon):
    """The chain of these equivalence relations, strata[epsilon] the last."""
    if epsilon != len(strata) - 1:
        raise ValueError("epsilon must index the last stored stratum")
    rows = []
    for k, r in enumerate(strata):
        if r.n_states != lts.n_states:
            raise ValueError("stratum dimensions do not match the LTS")
        # each state's least related state, an equivalence's block id; a
        # state related to none gets its own, which then fails the test
        ids = [((row & -row) or 1 << p).bit_length() - 1 for p, row in enumerate(r.row_bits)]
        if Relation.from_blocks(ids) != r:
            raise ValueError(f"stratum {k} is not an equivalence relation")
        rows.append(ids)
    return chain_from_rows(lts, rows)


def matrix_largest_progressing_to(lts, s):
    """largest_progressing_to by four integer matrix products per label."""
    n = lts.n_states
    smat = s.matrix.astype(int)
    good = np.ones((n, n), dtype=bool)
    for a in range(len(lts.labels)):
        t = np.zeros((n, n), dtype=int)
        for p in range(n):
            t[p, list(lts.successors(p, a))] = 1
        # can_left[p1, q]: q has an a-move to a state s-related from p1.
        # A pair fails clause 1 when some a-move of p lacks one.
        can_left = (smat @ t.T) > 0
        good &= (t @ ~can_left) == 0
        # can_right[p, q1]: p has an a-move to a state s-related to q1.
        # Clause 2 is the mirror image.
        can_right = (t @ smat) > 0
        good &= (~can_right @ t.T) == 0
    return matrix_relation(good)


def matrix_strata(lts):
    """Stratum chain by iterating matrix_largest_progressing_to from the
    full relation until it stops changing, as a list of Relations."""
    chain = [Relation.full(lts.n_states)]
    while True:
        nxt = matrix_largest_progressing_to(lts, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def scan_lrf(seq, r):
    """lrf(r) by scanning the strata for the first one that loses a pair of r."""
    for k in range(1, seq.epsilon + 1):
        if not r.is_subset(seq.strata[k]):
            return seq.strata[k - 1]
    return seq.strata[seq.epsilon]


def scalar_violations(lts, pairs, smat):
    """The unmatched moves of each pair, looking up the target matrix smat
    entry by entry, in the kernel's order: pairs as given, then labels, then
    left moves before right moves."""
    for p, q in pairs:
        for a, label in enumerate(lts.labels):
            ps, qs = lts.successors(p, a), lts.successors(q, a)
            for p1 in ps:
                if not any(smat[p1, q1] for q1 in qs):
                    yield ProgressViolation((p, q), "left", label, p1)
            for q1 in qs:
                if not any(smat[p1, q1] for p1 in ps):
                    yield ProgressViolation((p, q), "right", label, q1)


def reference_random_relation(rng, n_states, density=None):
    """random_relation with one generator per row."""
    if density is None:
        density = rng.uniform(0.1, 0.7)
    states = range(n_states)
    rows = [sum(1 << q for q in states if rng.random() < density) for _ in states]
    return Relation.from_pairs(
        n_states, [(p, q) for p in states for q in states if rows[p] >> q & 1]
    )


def reference_random_subrelation(rng, r, keep=0.5):
    """random_subrelation with one draw per member pair, in pair order."""
    return Relation.from_pairs(r.n_states, [pq for pq in r.pairs if rng.random() < keep])


def reference_forced_progression_target(lts, r):
    """forced_progression_target pair by pair over successor tuples."""
    n, n_labels = lts.n_states, len(lts.labels)
    kept, target = [], []
    for p, q in r.pairs:
        if all(
            bool(lts.successors(p, a)) == bool(lts.successors(q, a)) for a in range(n_labels)
        ):
            kept.append((p, q))
            for a in range(n_labels):
                target += [(p1, q1) for p1 in lts.successors(p, a) for q1 in lts.successors(q, a)]
    return Relation.from_pairs(n, kept), Relation.from_pairs(n, kept + target)


def all_relations(n):
    """Every relation on n states, in bitmask order over row-major pairs."""
    pairs = [(p, q) for p in range(n) for q in range(n)]
    out = []
    for mask in range(1 << (n * n)):
        out.append(
            Relation.from_pairs(n, [pairs[k] for k in range(n * n) if mask >> k & 1])
        )
    return out


def relation_element_name(n, mask):
    return "{" + ",".join(f"({p},{q})" for p, q in element_relation(n, mask).pairs) + "}"


def relation_element_index(r):
    """Bitmask position of a relation in the powerset lattice (row-major
    pairs): its row bitsets, concatenated; element_relation inverts it."""
    n = r.n_states
    return sum(row << (p * n) for p, row in enumerate(r.row_bits))


def fixpoint_lrf(lts):
    """The largest respectful function from its definition, without strata.

    f is respectful when R ⊆ S ∩ lpt(S) implies f(R) ⊆ f(S) ∩ lpt(f(S)),
    lpt being largest_progressing_to.  Starting from the constant full
    function, F ↦ (R ↦ F(R) ∩ ⋂ {F(S) ∩ lpt(F(S)) : R ⊆ S ∩ lpt(S)}) is
    applied until it is stable.  Relations are the bitmasks of
    relation_element_index, and the result lists f(R) for every mask R.
    """
    n = lts.n_states
    full = (1 << (n * n)) - 1
    memo = {}

    def lpt(mask):
        if mask not in memo:
            s = element_relation(n, mask)
            memo[mask] = relation_element_index(largest_progressing_to(lts, s))
        return memo[mask]

    below = [s & lpt(s) for s in range(full + 1)]
    f = [full] * (full + 1)
    while True:
        # the bound F(S) ∩ lpt(F(S)), met over the S of each S ∩ lpt(S)
        bound = {}
        for s, t in enumerate(below):
            bound[t] = bound.get(t, full) & f[s] & lpt(f[s])
        g = list(f)
        for r in range(full + 1):
            for t, b in bound.items():
                if r & ~t == 0:
                    g[r] &= b
        if g == f:
            return f
        f = g


def lts_to_lattice(lts):
    """All relations over the LTS as a lattice, with progress as the progression.

    Element i is the relation whose member pairs are the set bits of i under
    row-major pair order, so the lattice has 2^(n²) elements: 512 at n = 3.
    The relation of the progression holds between X and S exactly when X
    progresses to S, that is when X lies below the largest relation
    progressing to S: column S of the progression is the down-set of that
    relation.  Both progression conditions are re-validated on the result.
    """
    n = lts.n_states
    m = 1 << (n * n)
    names = [relation_element_name(n, mask) for mask in range(m)]
    lattice = validate_lattice(names, _inclusion(n * n))
    down = lattice.order.column_bits
    columns = tuple(
        down[relation_element_index(largest_progressing_to(lts, element_relation(n, s)))]
        for s in range(m)
    )
    progression = LatticeProgression(lattice, Relation._from_rows(m, columns).converse())
    return lattice, progression


def _function_tests(lat, prog):
    """Pure-Python monotone, r-monotone and compatible tests for one function."""
    m = lat.size
    le, rel = lat.le, set(prog.rel)
    s = [lat.join_all(a for a in range(m) if (a, b) in rel) for b in range(m)]
    pairs = [(x, y) for x in range(m) for y in range(m)]

    def monotone(f):
        return all(le(f[x], f[y]) for x, y in pairs if le(x, y))

    def r_monotone(f):
        return all(
            le(f[x], f[y]) and (f[x], f[y]) in rel
            for x, y in pairs
            if le(x, y) and (x, y) in rel
        )

    def compatible(f):
        return all(le(f[s[x]], s[f[x]]) for x in range(m))

    return monotone, r_monotone, compatible


def enumerated_largest(lat, prog, mode):
    """brute_force_largest by walking itertools.product one function at a time."""
    monotone, r_monotone, compatible = _function_tests(lat, prog)
    if mode == "r_monotone":
        survives = r_monotone
    else:
        def survives(f):
            return monotone(f) and compatible(f)
    m = lat.size
    best = [lat.bottom] * m
    for f in itertools.product(range(m), repeat=m):
        if survives(f):
            best = [lat.join(b, v) for b, v in zip(best, f)]
    return tuple(best)


def enumerated_classification(lat, prog):
    """classify_monotone_functions by walking itertools.product one function at a time."""
    monotone, r_monotone, compatible = _function_tests(lat, prog)
    n_mono = n_rm = n_comp = n_rm_only = n_comp_only = 0
    ex_rm = ex_comp = None
    for f in itertools.product(range(lat.size), repeat=lat.size):
        if not monotone(f):
            continue
        n_mono += 1
        rm = r_monotone(f)
        comp = compatible(f)
        n_rm += rm
        n_comp += comp
        if rm and not comp:
            n_rm_only += 1
            if ex_rm is None:
                ex_rm = f
        if comp and not rm:
            n_comp_only += 1
            if ex_comp is None:
                ex_comp = f
    return MonotoneClassification(
        n_mono, n_rm, n_comp, n_rm_only, n_comp_only, ex_rm, ex_comp
    )


@st.composite
def small_lts(draw, min_states=1, max_states=4, max_labels=2):
    n = draw(st.integers(min_states, max_states))
    k = draw(st.integers(1, max_labels))
    labels = "ab"[:k]
    triples = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.sampled_from(labels), st.integers(0, n - 1)
            ),
            max_size=n * n * k,
        )
    )
    return Lts([str(i) for i in range(n)], triples)


def relation_over(n):
    return st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n
    ).map(lambda pairs: Relation.from_pairs(n, pairs))


@st.composite
def lts_with_relations(draw, count=1, max_states=4, max_labels=2):
    lts = draw(small_lts(max_states=max_states, max_labels=max_labels))
    rels = tuple(draw(relation_over(lts.n_states)) for _ in range(count))
    return (lts, *rels)
