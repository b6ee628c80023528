import tracemalloc

import pytest

from upto import compute_strata
from upto.gallery import MAX_GALLERY_TRANSITIONS, GalleryVerdict, build_T, verify_gallery

from helpers import blocks, chain_from_rows


class TestBuildT:
    def test_zero(self):
        lts = build_T(0)
        assert lts.n_states == 1
        assert lts.n_transitions == 0

    def test_one(self):
        lts = build_T(1)
        assert lts.n_states == 2
        assert list(lts.triples()) == [(1, "t", 0)]

    def test_two(self, t2):
        assert list(t2.triples()) == [(1, "t", 0), (2, "t", 0), (2, "t", 1)]

    def test_state_i_has_i_transitions_and_acyclic(self):
        lts = build_T(6)
        for i in range(7):
            assert lts.successors(i, 0) == tuple(range(i))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            build_T(-1)

    def test_memory_per_transition(self):
        # T_400's 80,200 transitions: one successor table and no list of triples
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            lts = build_T(400)
            kept, peak = (b - base for b in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert lts.n_transitions == 80200
        assert kept <= 40 * 80200, kept
        assert peak <= 200 * 80200, peak


class TestVerifyGallery:
    def test_small_instances(self):
        # hand instances of the membership law
        seq1 = compute_strata(build_T(1))
        assert (0, 1) in seq1.stratum(0)
        assert (0, 1) not in seq1.stratum(1)

        seq2 = compute_strata(build_T(2))
        assert (1, 2) in seq2.stratum(1)
        assert (1, 2) not in seq2.stratum(2)

    @pytest.mark.parametrize("n", range(9))
    def test_law_holds_up_to_eight(self, n):
        verdict = verify_gallery(n)
        assert verdict.passed, verdict.discrepancy
        assert verdict.checked > 0

    @pytest.mark.parametrize("n", range(9))
    def test_convergence_index_is_n(self, n):
        assert compute_strata(build_T(n)).epsilon == n

    @pytest.mark.parametrize("n", range(9))
    def test_consecutive_strata_differ_one_level_up(self, n):
        seq = compute_strata(build_T(n + 1))
        assert seq.stratum(n) != seq.stratum(n + 1)

    # T_6 has 21 pairs a < b, each tested at strata 0..6 (the planted chain
    # stabilizes at 5) in the order a, b, stratum
    @pytest.mark.parametrize(
        "pad, checked, discrepancy",
        [
            # the padded state joins state 5: the chain is T_6's own up to
            # stratum 5, and the last pair fails at the last stratum
            (-1, 21 * 7, "T_6: pair (5,6) at stratum 6: expected out, got in"),
            # the padded state joins state 0, which T_6 splits off in round 1
            (0, 5 * 7 + 2, "T_6: pair (0,6) at stratum 1: expected out, got in"),
        ],
        ids=["joins-state-5", "joins-state-0"],
    )
    def test_planted_wrong_chain_names_the_first_discrepancy(
        self, monkeypatch, pad, checked, discrepancy
    ):
        # T_6's chain replaced by T_5's, padded with state 6 in the block of
        # state pad; T_7's chain is left alone
        real = compute_strata

        def planted(lts):
            if lts.n_states != 7:
                return real(lts)
            rows = blocks(real(build_T(5)))
            return chain_from_rows(lts, [row + (row[pad],) for row in rows])

        monkeypatch.setattr("upto.gallery.compute_strata", planted)
        verdict = verify_gallery(6)
        assert verdict == GalleryVerdict(checked, discrepancy)
        assert not verdict.passed


class TestTransitionBudget:
    # T_n has n(n+1)/2 transitions: 1413 is the largest n within 10^6
    LIMIT = 1413

    def test_limit_is_the_largest_n_within_the_budget(self):
        assert MAX_GALLERY_TRANSITIONS == 10**6
        n = self.LIMIT
        assert n * (n + 1) // 2 <= MAX_GALLERY_TRANSITIONS < (n + 1) * (n + 2) // 2

    @pytest.fixture
    def no_building(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("built a system past the budget")

        monkeypatch.setattr("upto.gallery.Lts", refuse)
        monkeypatch.setattr("upto.gallery.compute_strata", refuse)

    @pytest.mark.parametrize("n", [LIMIT + 1, 10**6, 10**30])
    def test_past_the_limit_fails_before_building(self, n, no_building):
        message = f"T_{n} has {n * (n + 1) // 2} transitions; at most 1000000 are built"
        with pytest.raises(ValueError) as error:
            build_T(n)
        assert str(error.value) == message
        with pytest.raises(ValueError) as error:
            verify_gallery(n)
        assert str(error.value) == message

    def test_verify_checks_the_larger_system_first(self, no_building):
        # verify_gallery(n) also builds T_{n+1}
        with pytest.raises(ValueError, match=f"^T_{self.LIMIT + 1} has 1000405 transitions"):
            verify_gallery(self.LIMIT)
