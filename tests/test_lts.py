import numpy as np
import pytest
from hypothesis import given, settings, assume
import hypothesis.strategies as st

from upto import Lts, Relation, largest_progressing_to, progress_holds, progresses_to

from helpers import all_relations, lts_with_relations, relation_over, small_lts


class TestLtsConstruction:
    def test_basic(self):
        lts = Lts(["s", "t"], [(0, "a", 1), (0, "b", 0), (1, "a", 0)])
        assert lts.n_states == 2
        assert [l.text for l in lts.labels] == ["a", "b"]
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
        assert lts.transitions[0] == ((0, 0), (0, 1), (1, 1))

    def test_successors(self):
        lts = Lts(["s", "t"], [(0, "a", 0), (0, "a", 1)])
        assert lts.successors(0, 0) == (0, 1)
        assert lts.successors(1, 0) == ()


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
