import random

import pytest
from hypothesis import given, settings

from upto import (
    Relation,
    UpToFunction,
    catalog,
    check_lrf_largest,
    compute_strata,
    is_respectful_on_samples,
    lrf,
    lrf_function,
    progresses_to,
)
from upto.companion import CATALOG_MEMO
from upto.sampling import progression_sample, random_lts_pool, random_relation, random_subrelation

from helpers import lts_with_relations, scan_lrf, small_lts


@pytest.fixture
def t2_seq(t2):
    return compute_strata(t2)


class TestLrf:
    def test_empty_maps_to_bisimilarity(self, t2_seq):
        assert lrf(t2_seq, Relation.empty(3)) == t2_seq.bisimilarity()

    def test_full_maps_to_stratum_zero(self, t2_seq):
        # stratum 1 is already below full here, so only stratum 0 contains full
        assert t2_seq.stratum(1) != Relation.full(3)
        assert lrf(t2_seq, Relation.full(3)) == Relation.full(3)

    def test_t2_single_pair(self, t2_seq):
        got = lrf(t2_seq, Relation.from_pairs(3, [(1, 2)]))
        assert got == t2_seq.stratum(1)
        assert got.pairs == ((0, 0), (1, 1), (1, 2), (2, 1), (2, 2))

    def test_dimension_mismatch(self, t2_seq):
        with pytest.raises(ValueError):
            lrf(t2_seq, Relation.full(2))

    def test_result_is_always_a_stratum_containing_r(self, t2_seq):
        rng = random.Random(3)
        for _ in range(200):
            r = random_relation(rng, 3)
            image = lrf(t2_seq, r)
            assert image in t2_seq.strata
            assert r.is_subset(image)
            # smallest: the next stratum, if any, loses part of r
            k = t2_seq.strata.index(image)
            if k < t2_seq.epsilon:
                assert not r.is_subset(t2_seq.stratum(k + 1))

    @settings(max_examples=80, deadline=None)
    @given(lts_with_relations(max_states=5, max_labels=3))
    def test_split_depth_agrees_with_scan(self, case):
        lts, r = case
        seq = compute_strata(lts)
        assert lrf(seq, r) == scan_lrf(seq, r)
        assert seq.strata.index(lrf(seq, r)) == seq.depth(r)


class TestRespectfulnessChecks:
    def test_identity_holds(self, t2, t2_seq):
        f = UpToFunction("identity", t2, lambda r: r, trusted=True)
        samples = [(Relation.empty(3), Relation.empty(3)), (Relation.identity(3), Relation.full(3))]
        verdict = is_respectful_on_samples(f, samples)
        assert verdict.holds_on_samples
        assert verdict.samples_checked == 2 and verdict.samples_skipped == 0

    def test_constant_bisimilarity_holds(self, t2, t2_seq):
        f = UpToFunction("const", t2, lambda r: t2_seq.bisimilarity(), trusted=True)
        samples = [(Relation.empty(3), Relation.identity(3))]
        assert is_respectful_on_samples(f, samples).holds_on_samples

    def test_pair_injection_fails_with_progression_counterexample(self, t2):
        # forcing a non-bisimilar pair into every image breaks progression
        extra = Relation.from_pairs(3, [(1, 2)])
        f = UpToFunction("inject", t2, lambda r: r | extra)
        sample = (Relation.identity(3), Relation.identity(3))
        verdict = is_respectful_on_samples(f, [sample])
        assert not verdict.holds_on_samples
        ce = verdict.counterexample
        assert ce.clause == "progression"
        assert not ce.diagnosis.holds

    def test_hypothesis_violations_are_skipped(self, t2):
        f = UpToFunction("identity", t2, lambda r: r)
        bad = (Relation.from_pairs(3, [(0, 1)]), Relation.empty(3))  # not a subset
        verdict = is_respectful_on_samples(f, [bad])
        assert verdict.holds_on_samples
        assert verdict.samples_skipped == 1 and verdict.samples_checked == 0

    @settings(max_examples=40, deadline=None)
    @given(small_lts(max_states=4))
    def test_lrf_is_respectful_on_constructed_samples(self, lts):
        seq = compute_strata(lts)
        rng = random.Random(11)
        f = lrf_function(seq)
        samples = [progression_sample(rng, lts) for _ in range(30)]
        verdict = is_respectful_on_samples(f, samples)
        assert verdict.holds_on_samples
        assert verdict.samples_skipped == 0


class TestCatalog:
    def test_shape_and_names(self, t2, t2_seq):
        fns = catalog(t2, t2_seq)
        names = [f.name for f in fns]
        assert len(names) == len(set(names)) == 26
        assert names[:4] == ["identity", "const_bisim", "upto_bisim", "union_bisim"]
        assert all(f.trusted for f in fns)

    def test_upto_bisim_on_empty(self, t2, t2_seq):
        upto_bisim = catalog(t2, t2_seq)[2]
        assert upto_bisim(Relation.empty(3)) == Relation.empty(3)

    def test_upto_bisim_on_identity_gives_bisimilarity(self, loop_vs_cycle, t2, t2_seq):
        seq = compute_strata(loop_vs_cycle)
        upto_bisim = catalog(loop_vs_cycle, seq)[2]
        assert upto_bisim(Relation.identity(3)) == seq.bisimilarity()
        # also on T_2, where bisimilarity is just the identity
        assert catalog(t2, t2_seq)[2](Relation.identity(3)) == t2_seq.bisimilarity()

    def test_union_bisim_extends_input(self, t2, t2_seq):
        union_bisim = catalog(t2, t2_seq)[3]
        rng = random.Random(5)
        for _ in range(50):
            r = random_relation(rng, 3)
            assert r.is_subset(union_bisim(r))

    def test_wrong_lts_rejected(self, t2, deadlock_vs_loop):
        with pytest.raises(ValueError):
            catalog(deadlock_vs_loop, compute_strata(t2))

    def test_remembered_images_equal_fresh_ones(self):
        # one catalog serves every relation; each answer must equal a fresh
        # catalog's, also for an equal relation built as a distinct object
        rng = random.Random(21)
        for lts in random_lts_pool(rng, 12):
            seq = compute_strata(lts)
            bisim, kept = seq.bisimilarity(), catalog(lts, seq)
            for _ in range(15):
                r = random_relation(rng, lts.n_states)
                twin = Relation.from_pairs(lts.n_states, list(r.pairs))
                assert twin == r and twin is not r
                for f, fresh in zip(kept, catalog(lts, seq)):
                    assert f(r) == fresh(r) == f(twin), f.name
                assert kept[2](r) == bisim.compose(r).compose(bisim)
                assert kept[3](r) == r | bisim

    def test_images_stay_right_past_the_memo_bound(self):
        lts = random_lts_pool(random.Random(22), 1, max_states=5)[0]
        seq = compute_strata(lts)
        bisim, upto_bisim = seq.bisimilarity(), catalog(lts, seq)[2]
        rng = random.Random(23)
        rs = [random_relation(rng, lts.n_states) for _ in range(3 * CATALOG_MEMO)]
        for r in rs + rs[::-1]:
            assert upto_bisim(r) == bisim.compose(r).compose(bisim)

    def test_memo_keeps_the_state_count_check(self, t2, t2_seq):
        fns = {f.name: f for f in catalog(t2, t2_seq)}
        for name in ("upto_bisim", "union_bisim", "compose(upto_bisim,union_bisim)"):
            with pytest.raises(ValueError, match="different state counts"):
                fns[name](Relation.identity(4))


class TestLrfLargest:
    def test_identity_and_const(self, t2, t2_seq):
        rng = random.Random(9)
        rs = [random_relation(rng, 3) for _ in range(100)]
        fns = {f.name: f for f in catalog(t2, t2_seq)}
        assert check_lrf_largest(t2_seq, fns["identity"], rs).holds
        assert check_lrf_largest(t2_seq, fns["const_bisim"], rs).holds

    def test_upto_bisim_single_pair_example(self, t2, t2_seq):
        r = Relation.from_pairs(3, [(1, 2)])
        upto_bisim = catalog(t2, t2_seq)[2]
        assert upto_bisim(r) == r  # bisimilarity is the identity here
        assert upto_bisim(r).is_subset(lrf(t2_seq, r))

    def test_violation_reported(self, t2, t2_seq):
        # a function escaping every stratum except the full one
        f = UpToFunction("blowup", t2, lambda r: Relation.full(3))
        r = Relation.from_pairs(3, [(1, 2)])  # lrf(r) = stratum 1, full escapes it
        verdict = check_lrf_largest(t2_seq, f, [r])
        assert not verdict.holds
        assert verdict.counterexample.function_name == "blowup"

    @settings(max_examples=25, deadline=None)
    @given(small_lts(max_states=4))
    def test_whole_catalog_dominated(self, lts):
        seq = compute_strata(lts)
        rng = random.Random(13)
        rs = [random_relation(rng, lts.n_states) for _ in range(20)]
        for f in catalog(lts, seq):
            assert check_lrf_largest(seq, f, rs).holds


class TestLrfProperties:
    def test_monotone_and_idempotent(self):
        rng = random.Random(21)
        for lts in random_lts_pool(rng, 12):
            seq = compute_strata(lts)
            for _ in range(25):
                s = random_relation(rng, lts.n_states)
                r = random_subrelation(rng, s)
                assert lrf(seq, r).is_subset(lrf(seq, s))
                assert lrf(seq, lrf(seq, r)) == lrf(seq, r)

    def test_fixpoint_on_sound_relations(self):
        rng = random.Random(22)
        for lts in random_lts_pool(rng, 12):
            seq = compute_strata(lts)
            bisim = seq.bisimilarity()
            for _ in range(25):
                r = random_subrelation(rng, bisim)
                assert lrf(seq, r) == bisim

    def test_respectful_conclusion_verified_by_progress(self):
        rng = random.Random(23)
        for lts in random_lts_pool(rng, 10):
            seq = compute_strata(lts)
            for _ in range(20):
                r, s = progression_sample(rng, lts)
                assert lrf(seq, r).is_subset(lrf(seq, s))
                assert progresses_to(lts, lrf(seq, r), lrf(seq, s)).holds
