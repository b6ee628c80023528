import itertools
import random
from functools import partial

import numpy as np
import pytest

from upto import (
    LatticeProgression,
    LatticeValidationError,
    Lts,
    Relation,
    brute_force_largest,
    chain_companion,
    close_to_progression,
    companion_at,
    compute_strata,
    descending_chain,
    element_relation,
    is_compatible,
    is_monotone,
    is_progression,
    is_r_monotone,
    largest_progressing_to,
    lrf,
    progresses_to,
    validate_lattice,
    z_chain,
)
from upto.lattice import (
    _preserving,
    chain_lattice,
    classify_monotone_functions,
    diamond_lattice,
    m3_lattice,
    pentagon_lattice,
    powerset_lattice,
)
from upto.sampling import random_lattice_progression, random_subrelation

from helpers import (
    _function_tests,
    enumerated_classification,
    enumerated_largest,
    lts_to_lattice,
    matrix_largest_progressing_to,
    relation_element_index,
)

STANDARD_LATTICES = (
    ("chain2", chain_lattice(2)),
    ("chain3", chain_lattice(3)),
    ("chain4", chain_lattice(4)),
    ("chain5", chain_lattice(5)),
    ("diamond", diamond_lattice()),
    ("powerset2", powerset_lattice(2)),
    ("pentagon", pentagon_lattice()),
    ("m3", m3_lattice()),
)


def leq_progression(lat):
    return LatticeProgression(lat, lat.order)


class TestValidateLattice:
    def test_two_chain_valid(self):
        lat = validate_lattice(["bot", "top"], Relation.from_pairs(2, [(0, 0), (0, 1), (1, 1)]))
        assert lat.top == 1 and lat.bottom == 0
        assert lat.join(0, 1) == 1 and lat.meet(0, 1) == 0

    def test_diamond_valid(self):
        lat = diamond_lattice()
        x, y = lat.index("x"), lat.index("y")
        assert lat.join(x, y) == lat.top
        assert lat.meet(x, y) == lat.bottom
        assert not lat.le(x, y) and not lat.le(y, x)

    def test_incomparable_maximals_invalid(self):
        # bot below x and y, but x join y does not exist
        with pytest.raises(LatticeValidationError) as err:
            validate_lattice(
                ["bot", "x", "y"], Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2)])
            )
        assert any("join" in v for v in err.value.violations)

    def test_poset_axiom_violations(self):
        with pytest.raises(LatticeValidationError) as err:
            # a not reflexive
            validate_lattice(["a", "b"], Relation.from_pairs(2, [(0, 1), (1, 1)]))
        assert any("reflexive" in v for v in err.value.violations)

        with pytest.raises(LatticeValidationError) as err:
            validate_lattice(["a", "b"], Relation.from_pairs(2, [(0, 0), (1, 1), (0, 1), (1, 0)]))
        assert any("antisymmetric" in v for v in err.value.violations)

        with pytest.raises(LatticeValidationError) as err:
            # missing (0, 2)
            validate_lattice(
                ["a", "b", "c"], Relation.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
            )
        assert any("transitive" in v for v in err.value.violations)

    def test_transitivity_gaps_listed_in_order_then_counted(self):
        # a 30-element chain given by its covers: (i, i + 2) is missing for each i < 28
        pairs = [(i, i) for i in range(30)] + [(i, i + 1) for i in range(29)]
        with pytest.raises(LatticeValidationError) as err:
            validate_lattice([f"c{i}" for i in range(30)], Relation.from_pairs(30, pairs))
        assert err.value.violations[:2] == [
            "not transitive: c0 .. c2 reachable but unrelated",
            "not transitive: c1 .. c3 reachable but unrelated",
        ]
        assert err.value.violations[19] == "not transitive: c19 .. c21 reachable but unrelated"
        assert err.value.violations[20:] == ["... and 8 more transitivity gaps"]

    @pytest.mark.parametrize(
        "bad", [(-1, -1), (0, -1), (-1, 0), (0, 2), (2, 0), (2, 2)]
    )
    def test_order_pairs_out_of_range_rejected(self, bad):
        # refused when the relation is built, before any lattice function sees it
        with pytest.raises(ValueError, match="out of range for 2 states"):
            validate_lattice(["a", "b"], Relation.from_pairs(2, [(0, 0), (1, 1), bad]))
        with pytest.raises(ValueError, match="out of range for 2 states"):
            is_progression(chain_lattice(2), Relation.from_pairs(2, [(0, 0), bad]))

    def test_order_pairs_in_range_accepted(self):
        order = Relation.from_pairs(2, [(0, 0), (np.int64(0), 1), (1, np.intp(1))])
        lat = validate_lattice(["a", "b"], order)
        assert lat.le(0, 1) and not lat.le(1, 0)
        assert is_progression(lat, Relation.from_pairs(2, [(0, 0), (0, 1), (1, 1)])).holds

    def test_empty_invalid(self):
        with pytest.raises(LatticeValidationError):
            validate_lattice([], Relation.empty(0))

    def test_fold_bounds(self):
        lat = powerset_lattice(2)
        assert lat.join_all([]) == lat.bottom
        assert lat.meet_all([]) == lat.top
        assert lat.join_all(range(lat.size)) == lat.top
        assert lat.meet_all(range(lat.size)) == lat.bottom


class TestStorage:
    def test_order_is_a_relation(self):
        for _name, lat in STANDARD_LATTICES:
            assert isinstance(lat.order, Relation)
            for a in range(lat.size):
                for b in range(lat.size):
                    assert lat.le(a, b) == ((a, b) in lat.order)

    def test_powerset_order_is_inclusion(self):
        for n_atoms in range(5):
            lat = powerset_lattice(n_atoms)
            m = lat.size
            expected = {(i, j) for i in range(m) for j in range(m) if i & ~j == 0}
            assert set(lat.order) == expected

    def test_progression_relation_is_a_relation(self):
        lat = diamond_lattice()
        prog = LatticeProgression(lat, lat.order)
        assert isinstance(prog.rel, Relation)
        assert prog.rel == lat.order

    def test_equal_lattices_built_twice(self):
        assert chain_lattice(3) == chain_lattice(3)
        assert hash(chain_lattice(3)) == hash(chain_lattice(3))
        assert chain_lattice(3) != chain_lattice(4)
        renamed = validate_lattice(["a", "b", "c"], chain_lattice(3).order)
        assert renamed != chain_lattice(3)


class TestProgressionOnAnotherLattice:
    def test_equal_lattice_built_again_accepted(self):
        prog = leq_progression(chain_lattice(4))
        chain = z_chain(prog)
        assert chain.zs == (3,)
        assert [companion_at(chain_lattice(4), chain, x) for x in range(4)] == [3, 3, 3, 3]


class TestRelationOfAnotherSize:
    @pytest.mark.parametrize("m", [2, 5])
    def test_rejected_naming_both_counts(self, m):
        chain4, rel = chain_lattice(4), Relation.full(m)
        message = f"^relation on {m} points does not fit a lattice of 4 elements$"
        for call in (
            lambda: validate_lattice(chain4.elements, rel),
            lambda: is_progression(chain4, rel),
            lambda: LatticeProgression(chain4, rel),
            lambda: close_to_progression(chain4, rel),
        ):
            with pytest.raises(ValueError, match=message):
                call()

    def test_order_of_a_smaller_lattice_rejected(self):
        with pytest.raises(ValueError, match="^relation on 2 points does not fit a lattice of 3"):
            validate_lattice(["a", "b", "c"], chain_lattice(2).order)

    def test_pairs_that_are_no_relation_rejected_naming_relation(self):
        chain2 = chain_lattice(2)
        for call in (
            lambda: validate_lattice(["a", "b"], [(0, 0), (0, 1), (1, 1)]),
            lambda: is_progression(chain2, [(0, 0)]),
            lambda: LatticeProgression(chain2, [(0, 0)]),
            lambda: close_to_progression(chain2, [(0, 0)]),
        ):
            with pytest.raises(TypeError, match="^expected a Relation, got list$"):
                call()


class TestIsProgression:
    def test_full_relation_is_progression(self):
        lat = diamond_lattice()
        assert is_progression(lat, Relation.full(4)).holds

    def test_order_is_progression(self):
        for lat in (chain_lattice(3), diamond_lattice(), pentagon_lattice()):
            assert is_progression(lat, lat.order).holds

    def test_top_pair_fails_order_closure(self):
        lat = chain_lattice(2)
        rel = Relation.from_pairs(2, [(1, 1)])
        verdict = is_progression(lat, rel)
        assert not verdict.holds
        # bot <= top R top <= top forces (bot, top)
        assert any(v.condition == 1 and v.pair == (0, 1) for v in verdict.violations)

    def test_missing_join_in_preimage_detected(self):
        lat = diamond_lattice()
        # bottom's pre-image loses its join
        rel = lat.order - Relation.from_pairs(4, [(lat.bottom, lat.bottom)])
        verdict = is_progression(lat, rel)
        assert not verdict.holds
        assert any(v.condition == 2 for v in verdict.violations)


class TestCloseToProgression:
    def test_empty_seed_on_two_chain(self):
        lat = chain_lattice(2)
        prog = close_to_progression(lat, Relation.empty(2))
        assert set(prog.rel) == {(0, 0), (0, 1)}

    def test_order_seed_unchanged(self):
        for lat in (chain_lattice(4), diamond_lattice(), m3_lattice()):
            prog = close_to_progression(lat, lat.order)
            assert prog.rel == lat.order

    def test_full_seed_unchanged(self):
        lat = diamond_lattice()
        prog = close_to_progression(lat, Relation.full(4))
        assert prog.rel == Relation.full(4)

    def test_seed_always_contained(self):
        rng = random.Random(41)
        lat = pentagon_lattice()
        for _ in range(30):
            pairs = [(a, b) for a in range(5) for b in range(5) if rng.random() < 0.25]
            seed = Relation.from_pairs(5, pairs)
            prog = close_to_progression(lat, seed)
            assert is_progression(lat, prog.rel).holds
            assert seed <= prog.rel

    @pytest.mark.parametrize("lat", [chain_lattice(2), chain_lattice(3)], ids=["chain2", "chain3"])
    def test_least_progression_over_all_relations(self, lat):
        # the closure against the intersection of every progression containing the seed
        m = lat.size
        everything = [element_relation(m, mask) for mask in range(1 << (m * m))]
        progressions = [x for x in everything if is_progression(lat, x).holds]
        for seed in everything:
            least = Relation.full(m)
            for p in progressions:
                if seed <= p:
                    least = least & p
            assert close_to_progression(lat, seed).rel == least


class TestChainAndCompanion:
    def test_full_progression_chain_is_top_only(self):
        lat = diamond_lattice()
        chain = z_chain(LatticeProgression(lat, Relation.full(4)))
        assert chain.zs == (lat.top,)
        assert chain.stable_index == 0

    def test_order_progression_chain_is_top_only(self):
        lat = chain_lattice(4)
        chain = z_chain(leq_progression(lat))
        assert chain.zs == (lat.top,)

    def test_companion_at_top_and_bottom(self):
        rng = random.Random(43)
        for lat in (chain_lattice(3), diamond_lattice(), pentagon_lattice()):
            for _ in range(10):
                prog = random_lattice_progression(rng, lat)
                chain = z_chain(prog)
                assert companion_at(lat, chain, lat.bottom) == chain.zs[-1]
                assert companion_at(lat, chain, lat.top) == lat.top

    def test_chain_decreasing_and_steps_related(self):
        rng = random.Random(44)
        for lat in (chain_lattice(4), diamond_lattice(), m3_lattice()):
            for _ in range(10):
                prog = random_lattice_progression(rng, lat)
                chain = z_chain(prog)
                for k in range(chain.stable_index):
                    assert lat.le(chain.zs[k + 1], chain.zs[k])
                    assert chain.zs[k + 1] != chain.zs[k]
                    assert (chain.zs[k + 1], chain.zs[k]) in prog.rel
                assert (chain.zs[-1], chain.zs[-1]) in prog.rel

    def test_companion_equals_deepest_containing_stratum(self):
        rng = random.Random(45)
        lat = powerset_lattice(2)
        for _ in range(15):
            prog = random_lattice_progression(rng, lat)
            chain = z_chain(prog)
            for x in range(lat.size):
                containing = [z for z in chain.zs if lat.le(x, z)]
                assert companion_at(lat, chain, x) == containing[-1]


def seeded_lts(n):
    """n states, labels a and b, floor(2.4 n) distinct random edges each."""
    rng = random.Random(f"chain:{n}")
    triples = [(e // n, a, e % n) for a in "ab" for e in rng.sample(range(n * n), int(2.4 * n))]
    return Lts([str(p) for p in range(n)], triples)


class TestGenericChain:
    """The chain and the companion on the relations of a system, past the
    5 states of verify's suite: the strata and lrf."""

    @pytest.mark.parametrize("n", [30, 60])
    def test_relation_chain_is_the_strata_and_its_companion_lrf(self, n):
        lts = seeded_lts(n)
        seq = compute_strata(lts)
        zs = descending_chain(
            Relation.full(n), partial(largest_progressing_to, lts), Relation.is_subset
        )
        assert zs == seq.strata
        # sparse subrelations of strata 1..5, whose lrf is every stratum from 1
        # to the stable one (3 on both systems)
        rng = random.Random(n)
        rs = [random_subrelation(rng, seq.stratum(k), 0.1) for k in range(1, 6)]
        assert seq.epsilon == 3
        assert {seq.depth(r) for r in rs} == {1, 2, 3}
        for r in rs:
            assert chain_companion(zs, r, Relation.is_subset, Relation.intersect) == lrf(seq, r)

    def test_a_step_that_does_not_go_down_raises(self):
        full, identity = Relation.full(3), Relation.identity(3)
        step = {full: identity, identity: Relation.from_pairs(3, [(0, 1)])}.__getitem__
        with pytest.raises(RuntimeError, match="^chain failed to decrease"):
            descending_chain(full, step, Relation.is_subset)


class TestFunctionClasses:
    def test_s_of_order_is_identity(self):
        lat = diamond_lattice()
        prog = leq_progression(lat)
        for x in range(4):
            assert prog.s_vector[x] == x

    def test_s_of_full_is_top(self):
        lat = diamond_lattice()
        prog = LatticeProgression(lat, Relation.full(4))
        for x in range(4):
            assert prog.s_vector[x] == lat.top

    def test_identity_in_both_classes(self):
        rng = random.Random(51)
        for lat in (chain_lattice(3), diamond_lattice()):
            ident = tuple(range(lat.size))
            for _ in range(10):
                prog = random_lattice_progression(rng, lat)
                assert is_r_monotone(prog, ident)
                assert is_monotone(lat, ident)
                assert is_compatible(prog, ident)

    def test_constant_bottom_in_both_classes(self):
        rng = random.Random(52)
        lat = pentagon_lattice()
        const_bot = tuple([lat.bottom] * lat.size)
        for _ in range(10):
            prog = random_lattice_progression(rng, lat)
            assert is_r_monotone(prog, const_bot)
            assert is_compatible(prog, const_bot)

    def test_constant_top_compatible_iff_s_fixes_top(self):
        rng = random.Random(53)
        lat = diamond_lattice()
        const_top = tuple([lat.top] * lat.size)
        for _ in range(20):
            prog = random_lattice_progression(rng, lat)
            expected = prog.s_vector[lat.top] == lat.top
            assert is_compatible(prog, const_top) == expected

    def test_classification_is_report_only_but_consistent(self):
        rng = random.Random(54)
        lat = chain_lattice(3)
        prog = random_lattice_progression(rng, lat)
        c = classify_monotone_functions(prog)
        assert c.n_r_monotone_among_monotone <= c.n_monotone
        assert c.n_compatible <= c.n_monotone
        if c.n_r_monotone_not_compatible:
            f = c.example_r_monotone_not_compatible
            assert is_r_monotone(prog, f) and not is_compatible(prog, f)


class TestFunctionArgument:
    # indexing a tuple with a negative entry would count from its end rather than fail
    @pytest.mark.parametrize("f", [(-1, -1), (0, 2), (2, 0), (), (0,), (0, 1, 1)])
    def test_function_outside_the_lattice_rejected(self, f):
        lat = chain_lattice(2)
        prog = leq_progression(lat)
        for check in (
            lambda: is_monotone(lat, f),
            lambda: is_r_monotone(prog, f),
            lambda: is_compatible(prog, f),
        ):
            with pytest.raises(ValueError):
                check()

    def test_array_argument_accepted(self):
        lat = diamond_lattice()
        prog = leq_progression(lat)
        ident = np.arange(lat.size)
        assert is_monotone(lat, ident)
        assert is_r_monotone(prog, ident)
        assert is_compatible(prog, ident)


class TestBatchedEnumerationMatchesWalk:
    """The enumeration and predicates against a per-function itertools.product walk."""

    @pytest.mark.parametrize("name, lat", STANDARD_LATTICES, ids=[n for n, _ in STANDARD_LATTICES])
    def test_preserving_is_the_product_filter(self, name, lat):
        rng = random.Random(f"preserving-{name}")
        everything = list(itertools.product(range(lat.size), repeat=lat.size))
        for _ in range(3):
            prog = random_lattice_progression(rng, lat, rng.uniform(0.05, 0.4))
            monotone, r_monotone, _ = _function_tests(lat, prog)
            assert _preserving(lat, lat.order) == [f for f in everything if monotone(f)]
            assert _preserving(lat, lat.order & prog.rel) == [f for f in everything if r_monotone(f)]

    @pytest.mark.parametrize("name, lat", STANDARD_LATTICES, ids=[n for n, _ in STANDARD_LATTICES])
    def test_largest_and_classification(self, name, lat):
        rng = random.Random(f"batched-{name}")
        budget = 6 if lat.size <= 4 else 3
        for _ in range(budget):
            prog = random_lattice_progression(rng, lat, rng.uniform(0.05, 0.4))
            for mode in ("r_monotone", "compatible"):
                assert brute_force_largest(prog, mode) == enumerated_largest(lat, prog, mode)
            got = classify_monotone_functions(prog)
            assert got == enumerated_classification(lat, prog)
            for example in (
                got.example_r_monotone_not_compatible,
                got.example_compatible_not_r_monotone,
            ):
                assert example is None or all(type(v) is int for v in example)

    def test_examples_are_first_in_product_order(self):
        # the sampled progressions do yield r-monotone functions that are not
        # compatible, so the example comparison is not vacuous; no sampled
        # compatible monotone function has failed to be r-monotone
        examples = 0
        rng = random.Random(71)
        for _name, lat in STANDARD_LATTICES[:6]:
            for _ in range(6):
                prog = random_lattice_progression(rng, lat, rng.uniform(0.05, 0.4))
                got = classify_monotone_functions(prog)
                assert got == enumerated_classification(lat, prog)
                examples += got.example_r_monotone_not_compatible is not None
        assert examples > 0


class TestBruteForce:
    def test_two_chain_order_progression(self):
        lat = chain_lattice(2)
        prog = leq_progression(lat)
        assert brute_force_largest(prog, "r_monotone") == (1, 1)
        assert brute_force_largest(prog, "compatible") == (1, 1)

    def test_full_progression_gives_constant_top(self):
        for lat in (chain_lattice(3), diamond_lattice()):
            m = lat.size
            prog = LatticeProgression(lat, Relation.full(m))
            const_top = tuple([lat.top] * m)
            assert brute_force_largest(prog, "r_monotone") == const_top
            assert brute_force_largest(prog, "compatible") == const_top

    def test_unknown_mode_rejected(self):
        lat = chain_lattice(2)
        with pytest.raises(ValueError):
            brute_force_largest(leq_progression(lat), "bogus")

    def test_size_cap(self):
        lat = chain_lattice(6)
        with pytest.raises(ValueError):
            brute_force_largest(leq_progression(lat), "r_monotone")

    def test_coincides_with_companion_on_sampled_progressions(self):
        rng = random.Random(61)
        suite = [
            chain_lattice(2),
            chain_lattice(3),
            chain_lattice(4),
            diamond_lattice(),
            powerset_lattice(2),
            pentagon_lattice(),
            m3_lattice(),
        ]
        for lat in suite:
            budget = 8 if lat.size <= 4 else 4
            for _ in range(budget):
                prog = random_lattice_progression(rng, lat)
                chain = z_chain(prog)
                comp = tuple(companion_at(lat, chain, x) for x in range(lat.size))
                assert brute_force_largest(prog, "r_monotone") == comp
                assert brute_force_largest(prog, "compatible") == comp
                assert is_r_monotone(prog, comp)
                assert is_monotone(lat, comp) and is_compatible(prog, comp)


class TestBridge:
    def test_single_state_no_transitions(self):
        lts = Lts(["s"], [])
        lat, prog = lts_to_lattice(lts)
        assert lat.size == 2
        assert prog.rel == Relation.full(2)  # everything progresses to everything here

    def test_element_indexing_round_trip(self):
        for n in (1, 2):
            for mask in range(1 << (n * n)):
                assert relation_element_index(element_relation(n, mask)) == mask

    def test_two_state_chain_mirrors_strata(self, deadlock_vs_loop):
        lat, prog = lts_to_lattice(deadlock_vs_loop)
        chain = z_chain(prog)
        seq = compute_strata(deadlock_vs_loop)
        assert chain.stable_index == seq.epsilon
        for k, z in enumerate(chain.zs):
            assert z == relation_element_index(seq.stratum(k))

    def test_rel_entries_match_direct_progress_checks(self, t2):
        lat, prog = lts_to_lattice(t2)
        rng = random.Random(71)
        for _ in range(300):
            x_mask = rng.randrange(512)
            s_mask = rng.randrange(512)
            expected = progresses_to(
                t2, element_relation(3, x_mask), element_relation(3, s_mask)
            ).holds
            assert ((x_mask, s_mask) in prog.rel) == expected

    def test_t2_companion_and_s_agree_with_relation_route(self, t2):
        lat, prog = lts_to_lattice(t2)
        chain = z_chain(prog)
        seq = compute_strata(t2)
        for k in range(seq.epsilon + 2):
            z = chain.zs[min(k, chain.stable_index)]
            assert z == relation_element_index(seq.stratum(k))
        for mask in range(512):
            r = element_relation(3, mask)
            assert companion_at(lat, chain, mask) == relation_element_index(
                lrf(seq, r)
            )
            assert prog.s_vector[mask] == relation_element_index(
                largest_progressing_to(t2, r)
            )
            assert prog.s_vector[mask] == relation_element_index(
                matrix_largest_progressing_to(t2, r)
            )
