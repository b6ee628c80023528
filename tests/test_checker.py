import random

import pytest

from upto import (
    CONTAINED,
    INCONCLUSIVE,
    Lts,
    Relation,
    UpToFunction,
    catalog,
    check_upto,
    compute_strata,
    lrf_function,
)
from upto.sampling import random_lts_pool, random_relation


class TestCheckUpto:
    def test_accepts_loop_vs_cycle(self, loop_vs_cycle):
        seq = compute_strata(loop_vs_cycle)
        r = Relation.from_pairs(3, [(0, 1)])
        report = check_upto(loop_vs_cycle, r, lrf_function(seq), "loop~cycle", seq=seq)
        assert report.progression_holds
        assert report.conclusion == CONTAINED
        assert report.cross_check
        assert report.relation_name == "loop~cycle"
        assert report.function_name == "lrf"

    def test_rejects_deadlock_vs_loop(self, deadlock_vs_loop):
        seq = compute_strata(deadlock_vs_loop)
        r = Relation.from_pairs(2, [(0, 1)])
        report = check_upto(deadlock_vs_loop, r, lrf_function(seq), seq=seq)
        assert not report.progression_holds
        assert report.conclusion == INCONCLUSIVE
        assert not report.cross_check
        # the unmatched move is the loop's own step
        v = report.diagnosis.violations[0]
        assert v.direction == "right" and (v.source, v.target) == (1, 1)

    def test_empty_relation_accepted_by_any_trusted_function(self, t2):
        seq = compute_strata(t2)
        for f in catalog(t2, seq) + [lrf_function(seq)]:
            report = check_upto(t2, Relation.empty(3), f, seq=seq)
            assert report.progression_holds
            assert report.conclusion == CONTAINED
            assert report.cross_check

    def test_untrusted_function_never_concludes(self, loop_vs_cycle):
        seq = compute_strata(loop_vs_cycle)
        f = UpToFunction("homemade", loop_vs_cycle, lambda r: Relation.full(3))
        r = Relation.from_pairs(3, [(0, 1)])
        report = check_upto(loop_vs_cycle, r, f, seq=seq)
        assert report.progression_holds  # progression itself is fine
        assert report.conclusion == INCONCLUSIVE
        assert report.cross_check  # the relation really is sound here

    def test_strata_chain_is_required(self, t2):
        # the caller's chain is the only one: none is computed on the side
        seq = compute_strata(t2)
        r = Relation.from_pairs(3, [(1, 2)])
        with pytest.raises(TypeError, match="seq"):
            check_upto(t2, r, lrf_function(seq))
        with pytest.raises(TypeError):
            check_upto(t2, r, lrf_function(seq), "R", seq)

    def test_strata_of_another_system_rejected(self, two_selfloops):
        # (0,1) is bisimilar in two_selfloops, not in one_loop
        one_loop = Lts(["0", "1"], [(0, "a", 0)])
        r = Relation.from_pairs(2, [(0, 1)])
        f = lrf_function(compute_strata(one_loop))
        with pytest.raises(ValueError, match="strata sequence"):
            check_upto(one_loop, r, f, seq=compute_strata(two_selfloops))

    def test_function_of_another_system_rejected(self, two_selfloops):
        one_loop = Lts(["0", "1"], [(0, "a", 0)])
        r = Relation.from_pairs(2, [(0, 1)])
        other = lrf_function(compute_strata(two_selfloops))
        with pytest.raises(ValueError, match="different LTS"):
            check_upto(one_loop, r, other, seq=compute_strata(one_loop))
        seq = compute_strata(two_selfloops)
        with pytest.raises(ValueError, match="different LTS"):
            check_upto(one_loop, r, lrf_function(seq), seq=seq)

    def test_equal_system_accepted(self, two_selfloops):
        copy = Lts(["u", "v"], [(0, "a", 0), (1, "a", 1)])
        seq = compute_strata(two_selfloops)
        report = check_upto(copy, Relation.from_pairs(2, [(0, 1)]), lrf_function(seq), seq=seq)
        assert report.conclusion == CONTAINED and report.cross_check


class TestCheckerProperties:
    def test_soundness_cross_check_never_violated(self):
        rng = random.Random(31)
        for lts in random_lts_pool(rng, 15):
            seq = compute_strata(lts)
            functions = catalog(lts, seq) + [lrf_function(seq)]
            for _ in range(10):
                r = random_relation(rng, lts.n_states)
                f = functions[rng.randrange(len(functions))]
                report = check_upto(lts, r, f, seq=seq)
                if report.conclusion == CONTAINED:
                    assert report.cross_check
                    assert r.is_subset(seq.bisimilarity())

    def test_companion_succeeds_whenever_any_catalog_function_does(self):
        rng = random.Random(32)
        for lts in random_lts_pool(rng, 10):
            seq = compute_strata(lts)
            for _ in range(8):
                r = random_relation(rng, lts.n_states)
                catalog_success = any(
                    check_upto(lts, r, f, seq=seq).conclusion == CONTAINED
                    for f in catalog(lts, seq)
                )
                if catalog_success:
                    report = check_upto(lts, r, lrf_function(seq), seq=seq)
                    assert report.conclusion == CONTAINED
