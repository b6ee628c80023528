import itertools
import random
import time
import tracemalloc

import pytest
from hypothesis import given, settings

from upto import Lts, Relation, compute_strata, largest_progressing_to, lrf, progresses_to
from upto.formats import render_relation
from upto.gallery import build_T
from upto.sampling import random_lts
from upto.strata import StrataSequence, _validate_tree

from helpers import (
    all_relations,
    blocks,
    canonical,
    chain_from_relations,
    chain_from_rows,
    matrix_strata,
    refinement_strata,
    small_lts,
)


class TestExamples:
    def test_single_state_no_transitions(self):
        seq = compute_strata(Lts(["s"], []))
        assert seq.epsilon == 0
        assert seq.strata == (Relation.from_pairs(1, [(0, 0)]),)

    def test_t2_chain(self, t2):
        seq = compute_strata(t2)
        assert seq.epsilon == 2
        assert seq.stratum(0) == Relation.full(3)
        assert seq.stratum(1) == Relation.identity(3) | Relation.from_pairs(
            3, [(1, 2), (2, 1)]
        )
        assert seq.stratum(2) == Relation.identity(3)

    def test_two_selfloops_converge_immediately(self, two_selfloops):
        seq = compute_strata(two_selfloops)
        assert seq.epsilon == 0
        assert seq.bisimilarity() == Relation.full(2)

    def test_loop_vs_cycle_all_bisimilar(self, loop_vs_cycle):
        assert compute_strata(loop_vs_cycle).bisimilarity() == Relation.full(3)

    def test_deadlock_vs_loop_identity_only(self, deadlock_vs_loop):
        assert compute_strata(deadlock_vs_loop).bisimilarity() == Relation.identity(2)

    def test_stratum_clamps_past_epsilon(self, t2):
        seq = compute_strata(t2)
        assert seq.stratum(seq.epsilon + 7) == seq.stratum(seq.epsilon)
        assert seq.stratum(0) == Relation.full(3)

    def test_negative_index_rejected(self, t2):
        with pytest.raises(ValueError):
            compute_strata(t2).stratum(-1)

    def test_zero_state_system_is_vacuous(self):
        seq = compute_strata(Lts([], []))
        assert seq.epsilon == 0
        assert seq.bisimilarity() == Relation.empty(0)
        assert progresses_to(seq.lts, Relation.empty(0), Relation.empty(0)).holds


class TestSequenceValidation:
    def test_rejects_non_full_start(self, t2):
        with pytest.raises(ValueError):
            chain_from_relations(t2, (Relation.identity(3),), 0)

    def test_rejects_non_decreasing_chain(self, t2):
        with pytest.raises(ValueError):
            chain_from_relations(t2, (Relation.full(3), Relation.full(3)), 1)

    def test_rejects_non_equivalence(self, t2):
        not_symmetric = Relation.identity(3) | Relation.from_pairs(3, [(1, 2)])
        with pytest.raises(ValueError, match="not an equivalence"):
            chain_from_relations(t2, (Relation.full(3), not_symmetric), 1)

    def test_rejects_rows_that_do_not_refine(self, t2):
        with pytest.raises(ValueError, match="strictly below"):
            chain_from_rows(t2, [[0, 0, 0], [0, 1, 1], [0, 0, 1]])

    def test_relations_and_rows_agree(self, t2):
        seq = compute_strata(t2)
        assert chain_from_relations(t2, seq.strata, seq.epsilon) == seq
        assert chain_from_rows(t2, blocks(seq)) == seq

    @pytest.mark.parametrize(
        "rows",
        [
            # state 1 moves into block 1, which still holds state 2
            [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 1, 2]],
            # states 2 and 3 move into the empty block 2 from blocks 0 and 1
            [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 2, 2]],
            # round 2 adds no block
            [[0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]],
        ],
        ids=["occupied-target", "merged-sources", "no-new-block"],
    )
    def test_log_check_rejects_rows_that_do_not_split(self, rows):
        lts = Lts([str(i) for i in range(4)], [])
        with pytest.raises(ValueError, match="strictly below stratum 1"):
            chain_from_rows(lts, rows)
        assert chain_from_rows(lts, rows[:2]).epsilon == 1

    @pytest.mark.parametrize(
        "tree, message",
        [
            # block 1 names itself as the block it split off
            (([0, 1], [0, 1], [0, 1], 1), "block 1 must split off an earlier block"),
            # block 1 keeps no state in the stable stratum
            (([0, 0], [0, 0], [0, 1], 1), "block 1 holds no state"),
            # no block is born in round 1
            (([0, 1], [0, 0], [0, 2], 2), "stratum 1 must be strictly below stratum 0"),
            # the root is born after round 0
            (([0, 1], [0, 0], [1, 2], 2), "block 0 must be the root"),
            # state 1 sits in a block the tree does not have
            (([0, 2], [0, 0], [0, 1], 1), "block 2 is not in the tree"),
        ],
        ids=["parent-not-earlier", "empty-block", "idle-round", "late-root", "unknown-block"],
    )
    def test_tree_check_rejects_bad_trees(self, tree, message):
        with pytest.raises(ValueError, match=message):
            _validate_tree(*tree)
        _validate_tree([0, 1], [0, 0], [0, 1], 1)

    def test_constructor_checks_the_state_count(self, t2):
        # T_2 has three states
        with pytest.raises(ValueError, match="final blocks do not fit 3 states"):
            StrataSequence(t2, [0, 1], [0, 0], [0, 1], 1)
        seq = StrataSequence(t2, [0, 1, 1], [0, 0], [0, 1], 1)
        assert blocks(seq) == ((0, 0, 0), (0, 1, 1))


def path(n):
    """States 0 -a-> 1 -a-> ... -a-> n-1: epsilon is n - 1, one state moving per round."""
    return Lts([str(i) for i in range(n)], [(i, "a", i + 1) for i in range(n - 1)])


# a long chain must stay small; the class name predates the refinement tree
class TestMoveLog:
    def test_long_path_stays_small(self):
        # one row of block ids per stratum would be 3000 x 3000 ids
        lts = path(3000)
        tracemalloc.start()
        try:
            seq = compute_strata(lts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak
        assert seq.epsilon == 2999
        assert seq.bisimilarity() == Relation.identity(3000)
        assert seq.depth(Relation.from_pairs(3000, [(0, 1)])) == 2998

    def test_rows_round_trip(self):
        # canonical rows of a path renumber O(n^2) ids, so the path is short
        lts = path(300)
        seq = compute_strata(lts)
        assert chain_from_rows(lts, blocks(seq)) == seq
        assert all(type(row) is tuple for row in blocks(seq))


def planted_rows(rng, n):
    """A random chain of partitions of n states, each row strictly finer
    than the one before: every block splits at random into at most two."""
    rows = [(0,) * n]
    while rng.random() < 0.8:
        row = canonical([(b, rng.randrange(2)) for b in rows[-1]])
        if row != rows[-1]:
            rows.append(row)
    return rows


class TestEquality:
    def test_both_constructions_compare_equal(self):
        # compute_strata lets the largest piece of a split keep the block's
        # id, chain_from_rows the first, so most trees are numbered apart
        rng = random.Random(2024)
        systems = [build_T(n) for n in range(31)]
        for _ in range(30):
            n = rng.randint(1, 60)
            systems.append(random_lts(rng, n, rng.randint(1, 3), rng.uniform(0.5, 3.0) / n))
        numbered_apart = 0
        for lts in systems:
            seq = compute_strata(lts)
            built = chain_from_rows(lts, blocks(seq))
            assert built == seq and hash(built) == hash(seq)
            assert blocks(built) == blocks(seq)
            numbered_apart += built._parent != seq._parent
        assert numbered_apart > 3 * len(systems) // 4, numbered_apart

    def test_differing_blocks_compare_unequal(self):
        rng, lts = random.Random(18), Lts([str(i) for i in range(5)], [])
        chains = [chain_from_rows(lts, planted_rows(rng, 5)) for _ in range(150)]
        equal = same_limit_apart = 0
        for a, b in itertools.combinations(chains, 2):
            assert (a == b) == (blocks(a) == blocks(b))
            equal += a == b
            # the same epsilon and stable partition, told apart by a split
            same_limit_apart += a != b and (a.epsilon, blocks(a)[-1]) == (b.epsilon, blocks(b)[-1])
        assert equal > 0 and same_limit_apart > 0, (equal, same_limit_apart)
        seq = compute_strata(build_T(4))
        assert seq != chain_from_rows(seq.lts, blocks(seq)[:-1])
        assert seq != chain_from_rows(seq.lts, blocks(seq)[:1] + blocks(seq)[2:])

    def test_long_paths_compare_equal_quickly(self):
        # the rows of two 2000-state paths hold 8 * 10^6 block ids
        a, b = compute_strata(path(2000)), compute_strata(path(2000))
        start = time.monotonic()
        assert a == b
        assert time.monotonic() - start < 0.5


class TestDepth:
    def test_path_depth_has_a_closed_form(self):
        # on a path, p and q stay together exactly while both can still make
        # as many steps as the stratum index
        n = 300
        seq = compute_strata(path(n))
        for p in range(n):
            for q in range(n):
                if p != q:
                    r = Relation.from_pairs(n, [(p, q)])
                    assert seq.depth(r) == n - 1 - max(p, q), (p, q)

    def test_single_pairs_match_the_strata(self):
        rng = random.Random(2024)
        systems = [build_T(n) for n in range(31)]
        for _ in range(30):
            n = rng.randint(1, 60)
            systems.append(random_lts(rng, n, rng.randint(1, 3), rng.uniform(0.5, 3.0) / n))
        for lts in systems:
            seq = compute_strata(lts)
            n = lts.n_states
            for p in range(n):
                for q in range(n):
                    last = max(k for k in range(seq.epsilon + 1) if (p, q) in seq.stratum(k))
                    assert seq.depth(Relation.from_pairs(n, [(p, q)])) == last, (lts, p, q)


class TestStratumSize:
    def test_sizes_are_block_sums_equal_to_a_popcount(self):
        rng = random.Random(2024)
        systems = [build_T(n) for n in range(31)]
        for _ in range(30):
            n = rng.randint(1, 60)
            systems.append(random_lts(rng, n, rng.randint(1, 3), rng.uniform(0.5, 3.0) / n))
        for lts in systems:
            seq = compute_strata(lts)
            for k in range(seq.epsilon + 1):
                r = seq.stratum(k)
                # supplied by the stratum, not counted by len
                assert r._size == sum(row.bit_count() for row in r.row_bits) == len(r)

    def test_len_counts_once(self):
        r = Relation.from_pairs(70, [(69, 0), (3, 64), (3, 3)])
        assert r._size is None
        assert len(r) == 3 and r._size == 3


class TestInvariants:
    @settings(max_examples=60, deadline=None)
    @given(small_lts(max_states=4))
    def test_chain_shape(self, lts):
        seq = compute_strata(lts)
        for k in range(seq.epsilon):
            assert seq.strata[k + 1] < seq.strata[k]
            assert progresses_to(lts, seq.strata[k + 1], seq.strata[k]).holds
        assert seq.epsilon <= lts.n_states**2

    @settings(max_examples=60, deadline=None)
    @given(small_lts(max_states=4))
    def test_fixpoint_and_stability(self, lts):
        seq = compute_strata(lts)
        stable = seq.bisimilarity()
        assert largest_progressing_to(lts, stable) == stable
        assert largest_progressing_to(lts, largest_progressing_to(lts, stable)) == stable
        assert progresses_to(lts, stable, stable).holds

    @settings(max_examples=60, deadline=None)
    @given(small_lts(max_states=4))
    def test_every_stratum_is_an_equivalence(self, lts):
        for s in compute_strata(lts).strata:
            assert s.is_equivalence()

    @settings(max_examples=60, deadline=None)
    @given(small_lts(max_states=4))
    def test_index_monotone(self, lts):
        seq = compute_strata(lts)
        for j in range(seq.epsilon + 2):
            for k in range(j, seq.epsilon + 2):
                assert seq.stratum(k).is_subset(seq.stratum(j))


class TestOracles:
    @settings(max_examples=60, deadline=None)
    @given(small_lts(max_states=5))
    def test_matches_signature_refinement(self, lts):
        seq = compute_strata(lts)
        oracle = refinement_strata(lts)
        assert len(oracle) == len(seq.strata)
        for ours, theirs in zip(seq.strata, oracle):
            assert ours == theirs

    def test_matches_signature_refinement_larger_systems(self):
        rng = random.Random(7)
        for _ in range(25):
            lts = random_lts(rng, rng.randint(1, 8), rng.randint(1, 3), rng.uniform(0.1, 0.5))
            assert compute_strata(lts).strata == tuple(refinement_strata(lts))

    def test_desk_scale_system(self):
        # sparse 300-state system: chain must match the refinement oracle
        # and stay fast enough for interactive use
        lts = random_lts(random.Random(12), 300, 2, 0.008)
        start = time.monotonic()
        seq = compute_strata(lts)
        assert time.monotonic() - start < 5.0
        assert seq.strata == tuple(refinement_strata(lts))

    def test_many_labels(self):
        # 5000 states and 200 labels: the successor table has 10^6 slots for
        # 12,000 transitions, so a build that walks the transitions once per
        # label takes seconds
        n, rng = 5000, random.Random(16)
        names = [str(i) for i in range(n)]
        triples = [
            (rng.randrange(n), f"a{rng.randrange(200)}", rng.randrange(n)) for _ in range(12000)
        ]
        start = time.monotonic()
        lts = Lts(names, triples)
        seq = compute_strata(lts)
        assert time.monotonic() - start < 1.5
        assert len(lts.labels) == 200 and lts.n_transitions == len(set(triples))
        assert seq.strata == tuple(refinement_strata(lts))

    @settings(max_examples=25, deadline=None)
    @given(small_lts(max_states=3))
    def test_bisimilarity_is_union_of_self_progressing(self, lts):
        union = Relation.empty(lts.n_states)
        for x in all_relations(lts.n_states):
            if progresses_to(lts, x, x).holds:
                union = union | x
        assert compute_strata(lts).bisimilarity() == union

    def test_matches_matrix_operator_on_random_systems(self):
        rng = random.Random(2024)
        for _ in range(30):
            n = rng.randint(1, 60)
            lts = random_lts(rng, n, rng.randint(1, 3), rng.uniform(0.5, 3.0) / n)
            assert compute_strata(lts).strata == tuple(matrix_strata(lts))

    def test_matches_matrix_operator_on_ladders(self):
        for n in range(31):
            lts = build_T(n)
            assert compute_strata(lts).strata == tuple(matrix_strata(lts))

    def test_memory_stays_below_one_dense_matrix(self):
        # one 20000 x 20000 boolean matrix alone is 400 MB
        n, rng = 20000, random.Random(5)
        lts = Lts(
            [str(i) for i in range(n)],
            [(rng.randrange(n), a, rng.randrange(n)) for a in "ab" for _ in range(12 * n // 5)],
        )
        peaks = []

        def measured(step):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = step()
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
            return out

        tracemalloc.start()
        try:
            seq = measured(lambda: compute_strata(lts))
            text = measured(lambda: render_relation(seq.bisimilarity()))
            image = measured(lambda: lrf(seq, Relation.identity(n)))
        finally:
            tracemalloc.stop()
        assert seq.epsilon >= 3
        assert text.count("(") == len(seq.bisimilarity()) > n
        assert image == seq.bisimilarity()
        assert max(peaks) < 64 * 2**20, peaks

    def test_gallery_ladder_epsilon(self):
        for n in range(6):
            assert compute_strata(build_T(n)).epsilon == n
