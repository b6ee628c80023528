import random

import numpy as np
import pytest
from hypothesis import given, settings, assume
import hypothesis.strategies as st

from upto import (
    Lts,
    Relation,
    check_upto,
    compute_strata,
    largest_progressing_to,
    lrf_function,
    progress_holds,
    progresses_to,
)
import upto.lts
from upto.lts import _row_walk, _violations
from upto.sampling import random_lts

from helpers import (
    all_relations,
    blocks,
    lts_with_relations,
    matrix_largest_progressing_to,
    matrix_relation,
    scalar_violations,
    small_lts,
)


class TestLtsConstruction:
    def test_basic(self):
        lts = Lts(["s", "t"], [(0, "a", 1), (0, "b", 0), (1, "a", 0)])
        assert lts.n_states == 2
        assert lts.labels == ("a", "b")
        assert lts.n_transitions == 3
        assert list(lts.triples()) == [(0, "a", 1), (0, "b", 0), (1, "a", 0)]

    def test_duplicate_transitions_collapse(self):
        lts = Lts(["s"], [(0, "a", 0), (0, "a", 0)])
        assert lts.n_transitions == 1

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            Lts(["s", "s"], [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Lts(["s"], [(0, "a", 1)])

    @pytest.mark.parametrize("triple", [(0.9, "x", 1), (0, "x", 1.7), (0, "x", "1"), ("0", "x", 1)])
    def test_state_indices_must_be_integers(self, triple):
        with pytest.raises(TypeError):
            Lts(["a", "b"], [triple])

    def test_numpy_integer_state_indices_accepted(self):
        lts = Lts(["a", "b"], [(np.int64(0), "x", np.uint8(1))])
        assert list(lts.triples()) == [(0, "x", 1)]
        assert all(type(v) is int for p, _, q in lts.triples() for v in (p, q))

    def test_empty_label_rejected(self):
        with pytest.raises(ValueError):
            Lts(["s"], [(0, "", 0)])

    @pytest.mark.parametrize(
        "brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_line_break_in_label_rejected(self, brk):
        with pytest.raises(ValueError, match="line break"):
            Lts(["s"], [(0, f"a{brk}b", 0)])
        with pytest.raises(ValueError, match="line break"):
            Lts(["s"], [(0, f"a{brk}", 0)])

    def test_transitions_sorted(self):
        lts = Lts(["s", "t"], [(0, "b", 1), (0, "a", 1), (0, "a", 0)])
        assert list(lts.triples()) == [(0, "a", 0), (0, "a", 1), (0, "b", 1)]

    def test_successors(self):
        lts = Lts(["s", "t"], [(0, "a", 0), (0, "a", 1)])
        assert lts.successors(0, 0) == (0, 1)
        assert lts.successors(1, 0) == ()

    def test_table_past_the_slot_limit_rejected(self, monkeypatch):
        # one slot per state and label: 3 states and 2 labels fill a limit of 6
        monkeypatch.setattr(upto.lts, "MAX_TABLE_SLOTS", 6)
        assert Lts("xyz", [(0, "a", 1), (2, "b", 0)]).n_transitions == 2
        message = "3 states and 3 labels need 9 successor table slots; at most 6 are built"
        with pytest.raises(ValueError, match=f"^{message}$"):
            Lts("xyz", [(0, "a", 1), (2, "b", 0), (1, "c", 1)])


class TestLtsEquality:
    NAMES = ["s", "t", "u"]
    TRIPLES = [(0, "a", 1), (0, "a", 2), (0, "b", 0), (1, "b", 2), (2, "a", 0)]

    def test_same_transitions_in_any_form_are_equal(self):
        lts = Lts(self.NAMES, self.TRIPLES)
        shuffled = self.TRIPLES[::-1]
        random.Random(3).shuffle(shuffled)
        forms = [shuffled, self.TRIPLES + self.TRIPLES[:2], (t for t in self.TRIPLES)]
        for triples in forms:
            other = Lts(self.NAMES, triples)
            assert other == lts and hash(other) == hash(lts)
            assert list(other.triples()) == self.TRIPLES

    @pytest.mark.parametrize(
        "names, triples",
        [
            (NAMES, [(0, "a", 1), (0, "a", 2), (0, "b", 0), (1, "b", 2), (2, "a", 1)]),
            (NAMES, [(0, "a", 1), (0, "a", 2), (0, "b", 0), (1, "b", 2)]),
            (NAMES, [(0, "a", 1), (0, "a", 2), (0, "c", 0), (1, "c", 2), (2, "a", 0)]),
            (["s", "t", "v"], TRIPLES),
        ],
        ids=["target", "missing", "label", "state-name"],
    )
    def test_one_change_makes_systems_unequal(self, names, triples):
        assert Lts(names, triples) != Lts(self.NAMES, self.TRIPLES)


class TestRelationAlgebra:
    def test_compose_identity_is_noop(self):
        r = Relation.from_pairs(3, [(0, 1), (2, 2)])
        assert Relation.identity(3).compose(r) == r
        assert r.compose(Relation.identity(3)) == r

    def test_converse_involution(self):
        r = Relation.from_pairs(3, [(0, 1), (1, 2)])
        assert r.converse().converse() == r

    def test_compose_example(self):
        r = Relation.from_pairs(3, [(0, 1)])
        s = Relation.from_pairs(3, [(1, 2)])
        assert r.compose(s) == Relation.from_pairs(3, [(0, 2)])

    def test_set_operations(self):
        a = Relation.from_pairs(2, [(0, 0), (0, 1)])
        b = Relation.from_pairs(2, [(0, 1), (1, 1)])
        assert (a | b).pairs == ((0, 0), (0, 1), (1, 1))
        assert (a & b).pairs == ((0, 1),)
        assert (a - b).pairs == ((0, 0),)

    def test_subset(self):
        a = Relation.from_pairs(2, [(0, 1)])
        b = Relation.full(2)
        assert a.is_subset(b) and not b.is_subset(a)
        assert a < b

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Relation.full(2).union(Relation.full(3))
        with pytest.raises(ValueError):
            Relation.full(2).compose(Relation.empty(3))

    def test_membership_and_iteration(self):
        r = Relation.from_pairs(3, [(2, 0), (0, 1)])
        assert (2, 0) in r and (0, 0) not in r
        assert list(r) == [(0, 1), (2, 0)]
        assert len(r) == 2

    def test_no_matrix_constructor(self):
        # two rows of a matrix would otherwise read as the pairs (1, 0) and (0, 1)
        with pytest.raises(TypeError):
            Relation(2, [[1, 0], [0, 1]])

    def test_every_constructor_builds_an_immutable_relation(self):
        blocks = Relation.from_blocks([0, 0, 2])
        built = [
            Relation.from_pairs(3, [(0, 1)]),
            blocks,
            Relation.empty(3),
            Relation.full(3),
            Relation.identity(3),
            blocks | Relation.identity(3),
            blocks.converse(),
        ]
        for r in built:
            assert type(r) is Relation
            for name in Relation.__slots__:
                with pytest.raises(AttributeError, match="Relation is immutable"):
                    setattr(r, name, None)

    def test_direct_construction_refused_naming_the_constructors(self):
        with pytest.raises(TypeError) as refused:
            Relation()
        for name in ("from_pairs", "from_blocks", "empty", "full", "identity"):
            assert name in str(refused.value)

    def test_matrix_read_only(self):
        r = Relation.full(2)
        with pytest.raises(ValueError):
            r.matrix[0, 0] = False

    @given(lts_with_relations(count=3, max_states=3))
    def test_compose_associative(self, drawn):
        _lts, a, b, c = drawn
        assert a.compose(b).compose(c) == a.compose(b.compose(c))

    @given(lts_with_relations(count=2, max_states=3))
    def test_converse_antidistributes_over_compose(self, drawn):
        _lts, a, b = drawn
        assert a.compose(b).converse() == b.converse().compose(a.converse())


class TestProgressesTo:
    def test_empty_to_empty_holds(self, t2):
        d = progresses_to(t2, Relation.empty(3), Relation.empty(3))
        assert d.holds and d.violations == ()

    def test_identity_to_identity_holds(self, t2):
        assert progresses_to(t2, Relation.identity(3), Relation.identity(3)).holds

    def test_t2_hand_checked(self, t2):
        r = Relation.from_pairs(3, [(1, 2)])
        good = Relation.from_pairs(3, [(0, 0), (0, 1)])
        assert progresses_to(t2, r, good).holds

        bad = Relation.from_pairs(3, [(0, 0)])
        d = progresses_to(t2, r, bad)
        assert not d.holds
        assert len(d.violations) == 1
        v = d.violations[0]
        assert v.pair == (1, 2)
        assert v.direction == "right"
        assert (v.source, v.label, v.target) == (2, "t", 1)

    def test_every_violation_reported(self, deadlock_vs_loop):
        # both orientations of (deadlock, loop) fail on the loop's move
        r = Relation.from_pairs(2, [(0, 1), (1, 0)])
        d = progresses_to(deadlock_vs_loop, r, Relation.full(2))
        assert not d.holds
        assert {(v.pair, v.direction) for v in d.violations} == {
            ((0, 1), "right"),
            ((1, 0), "left"),
        }

    def test_dimension_mismatch(self, t2):
        with pytest.raises(ValueError):
            progresses_to(t2, Relation.full(2), Relation.full(3))

    @given(lts_with_relations(count=2, max_states=3))
    def test_fast_path_agrees_with_diagnosis(self, drawn):
        lts, r, s = drawn
        assert progress_holds(lts, r, s) == progresses_to(lts, r, s).holds


class TestLargestProgressingTo:
    def test_full_on_uniform_system(self):
        lts = Lts(["x", "y", "z"], [(i, "a", i) for i in range(3)])
        assert largest_progressing_to(lts, Relation.full(3)) == Relation.full(3)

    def test_deadlock_pair_always_excluded(self, deadlock_vs_loop):
        for s in all_relations(2):
            result = largest_progressing_to(deadlock_vs_loop, s)
            assert (0, 1) not in result
            assert (1, 0) not in result

    def test_dimension_mismatch(self, t2):
        with pytest.raises(ValueError):
            largest_progressing_to(t2, Relation.full(2))

    @settings(max_examples=60, deadline=None)
    @given(lts_with_relations(count=1, max_states=3))
    def test_equals_enumerated_union(self, drawn):
        lts, s = drawn
        union = Relation.empty(lts.n_states)
        for x in all_relations(lts.n_states):
            if progresses_to(lts, x, s).holds:
                union = union | x
        assert largest_progressing_to(lts, s) == union

    @given(lts_with_relations(count=1, max_states=4, max_labels=3))
    def test_equals_matrix_oracle(self, drawn):
        lts, s = drawn
        assert largest_progressing_to(lts, s) == matrix_largest_progressing_to(lts, s)


class TestProgressProperties:
    @given(lts_with_relations(count=4, max_states=3))
    def test_monotone(self, drawn):
        lts, r, s, noise_r, noise_s = drawn
        assume(progresses_to(lts, r, s).holds)
        smaller = r - noise_r
        bigger = s | noise_s
        assert progresses_to(lts, smaller, bigger).holds

    @given(lts_with_relations(count=3, max_states=3))
    def test_union_closure(self, drawn):
        lts, r1, r2, s = drawn
        assume(progresses_to(lts, r1, s).holds)
        assume(progresses_to(lts, r2, s).holds)
        assert progresses_to(lts, r1 | r2, s).holds

    @given(lts_with_relations(count=2, max_states=4))
    def test_holds_iff_subset_of_largest(self, drawn):
        lts, r, s = drawn
        assert progresses_to(lts, r, s).holds == r.is_subset(
            largest_progressing_to(lts, s)
        )


# sizes around the packbits byte padding (7, 8, 9) and the 64-bit word
# boundaries of the Python-int bitsets (63, 64, 65, 130)
KERNEL_SIZES = [1, 7, 8, 9, 63, 64, 65, 130]


def _kernel_system(seed, n):
    """A seeded system with 1-3 labels, each used by the last state; when
    n > 1, state 0 has no moves under label "a"."""
    rng = random.Random(seed)
    labels = "abc"[: rng.randint(1, 3)]
    triples = [(n - 1, a, rng.randrange(n)) for a in labels]
    triples += [
        (p, a, rng.randrange(n))
        for p in range(n)
        for a in labels
        if (p, a) != (0, "a")
        for _ in range(rng.randint(0, 3))
    ]
    return Lts([str(i) for i in range(n)], triples)


def _kernel_targets(seed, n):
    """Targets paired with the raw numpy matrix each was built from or stands for."""
    gen = np.random.default_rng(seed)
    dense, sparse = gen.random((n, n)) < 0.5, gen.random((n, n)) < 0.02
    return [
        (Relation.empty(n), np.zeros((n, n), dtype=bool)),
        (Relation.identity(n), np.eye(n, dtype=bool)),
        (Relation.full(n), np.ones((n, n), dtype=bool)),
        (matrix_relation(dense), dense),
        (matrix_relation(sparse), sparse),
    ]


def _bisimilarity_with_matrix(lts):
    seq = compute_strata(lts)
    ids = np.asarray(blocks(seq)[seq.epsilon])
    return seq.bisimilarity(), ids[:, None] == ids[None, :]


def _raw_matrix(n):
    """A boolean n x n numpy array from a drawn seed and density."""
    return st.tuples(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.03, 0.5, 0.97, 1.0])).map(
        lambda sd: np.random.default_rng(sd[0]).random((n, n)) < sd[1]
    )


def _unpacked(bitsets, n):
    return [[bool(b >> k & 1) for k in range(n)] for b in bitsets]


class TestBitsetKernel:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_violations_match_scalar_walk(self, n):
        lts = _kernel_system(n, n)
        assert n == 1 or lts.successors(0, 0) == ()
        gen = np.random.default_rng(100 + n)
        bisim, bisim_matrix = _bisimilarity_with_matrix(lts)
        candidates = [bisim, matrix_relation(gen.random((n, n)) < min(0.5, 200 / (n * n)))]
        for r in candidates:
            for s, smat in _kernel_targets(200 + n, n) + [(bisim, bisim_matrix)]:
                expected = tuple(scalar_violations(lts, r.pairs, smat))
                assert progresses_to(lts, r, s).violations == expected
                assert progress_holds(lts, r, s) == (not expected)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_largest_progressing_to_matches_matrix_oracle(self, n):
        lts = _kernel_system(400 + n, n)
        bisim, bisim_matrix = _bisimilarity_with_matrix(lts)
        for s, _ in _kernel_targets(500 + n, n) + [(bisim, bisim_matrix)]:
            assert largest_progressing_to(lts, s) == matrix_largest_progressing_to(lts, s)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_row_walk_rejects_exactly_the_qs_with_unmatched_moves(self, n):
        lts = _kernel_system(600 + n, n)
        bisim, bisim_matrix = _bisimilarity_with_matrix(lts)
        for s, smat in _kernel_targets(700 + n, n) + [(bisim, bisim_matrix)]:
            for p in range(n):
                moves = []
                listed = _row_walk(lts, s, p, range(n), moves)
                stopped = _row_walk(lts, s, p, range(n))
                assert listed == stopped
                assert {v.pair for v in moves} == {(p, q) for q in range(n) if stopped >> q & 1}
                if n <= 9:
                    pairs = [(p, q) for q in range(n)]
                    assert moves == list(scalar_violations(lts, pairs, smat))

    def test_row_walk_appends_to_the_given_list(self):
        lts = _kernel_system(3, 9)
        s = Relation.empty(9)
        moves = list(_violations(lts, [(8, 0)], s))
        before = list(moves)
        rejected = _row_walk(lts, s, 0, [8, 3], moves)
        assert moves[: len(before)] == before
        assert {v.pair for v in moves[len(before):]} == {(0, q) for q in (8, 3) if rejected >> q & 1}

    def test_largest_and_holds_start_no_violation_generator(self, monkeypatch):
        lts = _kernel_system(11, 9)
        expected = [
            (largest_progressing_to(lts, s), progress_holds(lts, s, s))
            for s, _ in _kernel_targets(12, 9)
        ]

        def refuse(*args):
            raise AssertionError("per-pair generator started")

        monkeypatch.setattr(upto.lts, "_violations", refuse)
        for (s, _), (largest, holds) in zip(_kernel_targets(12, 9), expected):
            assert largest_progressing_to(lts, s) == largest == matrix_largest_progressing_to(lts, s)
            assert progress_holds(lts, s, s) == holds

    def test_walks_pairs_in_the_given_order(self):
        lts = _kernel_system(3, 9)
        pairs = [(8, 0), (0, 8), (3, 3), (0, 8)]
        for s, smat in _kernel_targets(0, 9)[:2]:
            assert list(_violations(lts, pairs, s)) == list(scalar_violations(lts, pairs, smat))
        assert next(_violations(lts, pairs, Relation.empty(9))).pair == (8, 0)

    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_row_and_column_bits_match_the_matrix(self, n):
        for r, mat in _kernel_targets(300 + n, n):
            assert _unpacked(r.row_bits, n) == mat.tolist()
            assert _unpacked(r.column_bits, n) == mat.T.tolist()
            assert all(b >> n == 0 for b in r.row_bits + r.column_bits)

    @given(st.integers(1, 70).flatmap(_raw_matrix))
    def test_bit_k_of_row_and_column_p(self, mat):
        n = len(mat)
        r = matrix_relation(mat)
        for p in range(n):
            for k in range(n):
                assert bool(r.row_bits[p] >> k & 1) == bool(mat[p, k])
                assert bool(r.column_bits[p] >> k & 1) == bool(mat[k, p])

    @given(st.integers(1, 70).flatmap(lambda n: st.tuples(*[_raw_matrix(n)] * 3)))
    def test_operations_match_numpy_on_the_same_arrays(self, mats):
        a, b, blocks = mats
        n = len(a)
        # an equivalence, so the predicates also meet relations where they hold
        ids = blocks.argmax(axis=1)
        e = ids[:, None] == ids[None, :]
        ra, rb, re_ = matrix_relation(a), matrix_relation(b), matrix_relation(e)
        for r, m in ((ra, a), (rb, b), (re_, e)):
            assert np.array_equal(r.matrix, m)
            assert len(r) == int(m.sum())
            assert r.pairs == tuple(map(tuple, np.argwhere(m).tolist()))
            assert all(((p, q) in r) == bool(m[p, q]) for p in range(n) for q in range(n))
            assert r.is_reflexive() == bool(m.diagonal().all())
            assert r.is_symmetric() == bool((m == m.T).all())
            assert r.is_transitive() == (not ((m.astype(int) @ m > 0) & ~m).any())
            assert np.array_equal(r.converse().matrix, m.T)
        assert np.array_equal((ra | rb).matrix, a | b)
        assert np.array_equal((ra & rb).matrix, a & b)
        assert np.array_equal((ra - rb).matrix, a & ~b)
        assert np.array_equal(ra.compose(rb).matrix, (a.astype(int) @ b) > 0)
        assert np.array_equal(re_.compose(ra).matrix, (e.astype(int) @ a) > 0)
        assert ra.is_subset(rb) == (not (a & ~b).any())
        assert matrix_relation(a & b).is_subset(ra) and matrix_relation(a & e) <= re_
        assert (ra == rb) == np.array_equal(a, b)
        assert ra == matrix_relation(a.copy()) and hash(ra) == hash(matrix_relation(a.copy()))

    def test_failing_left_move_leaves_the_columns_unbuilt(self):
        lts = Lts(["0", "1"], [(0, "a", 1), (1, "a", 0)])
        r = Relation.from_pairs(2, [(0, 1)])
        # 0 -a-> 1 needs (1, 0) in s: a left move that fails at once
        s = Relation.from_pairs(2, [(1, 1)])
        assert not progress_holds(lts, r, s)
        assert s._cols is None
        assert [v.direction for v in progresses_to(lts, r, s).violations] == ["left", "right"]
        assert s._cols == (0, 2)

    def test_successor_bits_built_on_first_progress_check(self):
        lts = _kernel_system(5, 65)
        compute_strata(lts)
        assert lts._succ_bits is None
        progress_holds(lts, Relation.identity(65), Relation.identity(65))
        bits = lts._succ_bits
        assert bits is not None
        for p in range(65):
            for a in range(len(lts.labels)):
                assert [q for q in range(65) if bits[p][a] >> q & 1] == sorted(lts.successors(p, a))

    def test_pairs_are_python_ints(self):
        pairs = Relation.from_pairs(70, [(69, 0), (3, 64)]).pairs
        assert pairs == ((3, 64), (69, 0))
        assert all(type(x) is int for pair in pairs for x in pair)


def _partition_targets(lts):
    """Each stratum of lts twice: as built from its block ids, and the equal
    relation built from its pairs."""
    seq = compute_strata(lts)
    for k in range(seq.epsilon + 1):
        s = seq.stratum(k)
        yield s, Relation.from_pairs(lts.n_states, s.pairs)


def _assert_both_forms_agree(lts, candidates):
    """Against every stratum in both forms, the walk matches the oracles:
    the violations in order, the early-exit test and the largest relation."""
    for by_blocks, by_pairs in _partition_targets(lts):
        assert by_blocks._blocks is not None and by_pairs._blocks is None
        assert by_blocks == by_pairs
        smat = by_pairs.matrix
        largest = matrix_largest_progressing_to(lts, by_pairs)
        for r in candidates(by_blocks):
            expected = tuple(scalar_violations(lts, r.pairs, smat))
            for s in (by_blocks, by_pairs):
                assert progresses_to(lts, r, s).violations == expected
                assert progress_holds(lts, r, s) == (not expected)
        for s in (by_blocks, by_pairs):
            assert largest_progressing_to(lts, s) == largest


class TestBlockSignatures:
    @pytest.mark.parametrize("n", KERNEL_SIZES)
    def test_partition_targets_match_the_oracles(self, n):
        lts = _kernel_system(800 + n, n)
        rng = random.Random(900 + n)
        previous = [Relation.full(n)]

        def candidates(s):
            # pairs of the stratum, most of which progress to it, and of the
            # one before, some of which do not, and scattered pairs
            wider, previous[0] = previous[0], s
            sample = [rng.sample(x.pairs, min(150, len(x))) for x in (s, wider)]
            scattered = [(rng.randrange(n), rng.randrange(n)) for _ in range(40)]
            return [Relation.from_pairs(n, pairs) for pairs in (*sample, scattered)]

        _assert_both_forms_agree(lts, candidates)

    @settings(max_examples=60)
    @given(lts_with_relations(count=2, max_states=5))
    def test_partition_targets_match_the_oracles_on_drawn_systems(self, drawn):
        lts, r1, r2 = drawn
        _assert_both_forms_agree(lts, lambda s: [r1, r2, s])

    def test_signatures_follow_the_system(self):
        s = Relation.from_blocks([0, 0])
        both_loop = Lts(["0", "1"], [(0, "a", 0), (1, "a", 1)])
        one_loops = Lts(["0", "1"], [(0, "a", 0)])
        assert progress_holds(both_loop, s, s)
        assert not progress_holds(one_loops, s, s)
        assert progress_holds(both_loop, s, s)

    def test_a_proof_whose_pairs_all_match_builds_no_successor_bits(self):
        lts = _kernel_system(5, 65)
        seq = compute_strata(lts)
        bisim = seq.bisimilarity()
        matching = Relation.from_pairs(65, bisim.pairs[::3])
        assert check_upto(lts, matching, lrf_function(seq), seq=seq).progression_holds
        assert lts._succ_bits is None
        # a pair outside bisimilarity does not progress to its lrf image
        p, q = next((p, q) for p in range(65) for q in range(65) if (p, q) not in bisim)
        failing = matching | Relation.from_pairs(65, [(p, q)])
        report = check_upto(lts, failing, lrf_function(seq), seq=seq)
        assert {v.pair for v in report.diagnosis.violations} == {(p, q)}
        assert lts._succ_bits is not None


SEEDED_SYSTEMS = {
    **{f"kernel{n}": (lambda n=n: _kernel_system(1000 + n, n)) for n in KERNEL_SIZES},
    "random300": lambda: random_lts(random.Random(5), 300, 2, 1.2 / 300),
}


class TestPartitionRule:
    """Against a stratum, the block signature numbers decide progress: the
    row walk runs only to list the moves of the pairs that fail."""

    @staticmethod
    def _assert_each_step_is_the_next_stratum(lts):
        seq = compute_strata(lts)
        for k in range(seq.epsilon + 2):
            step = largest_progressing_to(lts, seq.stratum(k))
            assert step == seq.stratum(k + 1)
            assert step._blocks is not None

    @pytest.mark.parametrize("system", SEEDED_SYSTEMS)
    def test_largest_on_a_stratum_is_the_next_stratum(self, system):
        self._assert_each_step_is_the_next_stratum(SEEDED_SYSTEMS[system]())

    @settings(max_examples=80)
    @given(small_lts(max_states=6))
    def test_largest_on_a_stratum_is_the_next_stratum_on_drawn_systems(self, lts):
        self._assert_each_step_is_the_next_stratum(lts)

    @pytest.mark.parametrize("n", [9, 65])
    def test_holds_and_largest_walk_no_row(self, monkeypatch, n):
        lts = _kernel_system(1100 + n, n)
        seq = compute_strata(lts)
        targets = [seq.stratum(k) for k in range(seq.epsilon + 1)]
        loose = Relation.from_pairs(n, [(p, (p * 7 + 3) % n) for p in range(n)])
        expected = [
            (matrix_largest_progressing_to(lts, s), not any(scalar_violations(lts, r.pairs, smat)))
            for s, smat in ((s, s.matrix) for s in targets)
            for r in (s, loose)
        ]

        def refuse(*args):
            raise AssertionError("row walk started")

        monkeypatch.setattr(upto.lts, "_row_walk", refuse)
        answers = [
            (largest_progressing_to(lts, s), progress_holds(lts, r, s))
            for s in targets
            for r in (s, loose)
        ]
        assert answers == expected

    @pytest.mark.parametrize("n", [9, 65, 130])
    def test_diagnosis_walks_only_the_failing_pairs(self, monkeypatch, n):
        lts = _kernel_system(1200 + n, n)
        seq = compute_strata(lts)
        rng = random.Random(n)
        row_walk, walked = upto.lts._row_walk, []

        def recorded(lts, s, p, qs, *rest):
            qs = list(qs)
            walked.append((p, qs))
            return row_walk(lts, s, p, qs, *rest)

        monkeypatch.setattr(upto.lts, "_row_walk", recorded)
        for k in range(seq.epsilon + 1):
            s = seq.stratum(k)
            r = Relation.from_pairs(n, rng.sample(Relation.full(n).pairs, 3 * n))
            walked.clear()
            diagnosis = progresses_to(lts, r, s)
            assert diagnosis.violations == tuple(scalar_violations(lts, r.pairs, s.matrix))
            failing = [pair for pair in r.pairs if any(scalar_violations(lts, [pair], s.matrix))]
            assert [(p, q) for p, qs in walked for q in qs] == failing
            assert len({p for p, _ in walked}) == len(walked)
