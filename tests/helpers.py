"""Shared oracles and hypothesis strategies for the test suite.

The oracles deliberately avoid the library's own computation routes:
refinement_strata rebuilds the stratum chain by partition refinement over
transition signatures, matrix_strata iterates the dense matrix operator,
scan_lrf reads lrf off the materialized strata, and the enumeration helpers
sweep every relation on a small state space.
"""

import hypothesis.strategies as st

from upto import Lts, Relation, largest_progressing_to


def refinement_strata(lts):
    """Stratum chain via signature refinement, as a list of Relations.

    Start with one block; repeatedly split states by the set of
    (label, block-of-target) signatures until stable.  For equivalence
    targets, both progress clauses amount to equality of these signature
    sets, so partition k equals stratum k.
    """
    n = lts.n_states
    blocks = [0] * n
    chain = [blocks]
    while True:
        numbering = {}
        new = [0] * n
        for p in range(n):
            sig = tuple(sorted({(a, blocks[q]) for (a, q) in lts.transitions[p]}))
            new[p] = numbering.setdefault(sig, len(numbering))
        if new == blocks:
            break
        chain.append(new)
        blocks = new
    return [
        Relation.from_pairs(n, [(p, q) for p in range(n) for q in range(n) if b[p] == b[q]])
        for b in chain
    ]


def matrix_strata(lts):
    """Stratum chain by iterating largest_progressing_to from the full
    relation until it stops changing, as a list of Relations."""
    chain = [Relation.full(lts.n_states)]
    while True:
        nxt = largest_progressing_to(lts, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def scan_lrf(seq, r):
    """lrf(r) by scanning the strata for the first one that loses a pair of r."""
    for k in range(1, seq.epsilon + 1):
        if not r.is_subset(seq.strata[k]):
            return seq.strata[k - 1]
    return seq.strata[seq.epsilon]


def all_relations(n):
    """Every relation on n states, in bitmask order over row-major pairs."""
    pairs = [(p, q) for p in range(n) for q in range(n)]
    out = []
    for mask in range(1 << (n * n)):
        out.append(
            Relation.from_pairs(n, [pairs[k] for k in range(n * n) if mask >> k & 1])
        )
    return out


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
