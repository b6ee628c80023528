import random

from upto import Relation
from upto.sampling import (
    forced_progression_target,
    progression_sample,
    random_lts,
    random_relation,
    random_subrelation,
)

from helpers import (
    reference_forced_progression_target,
    reference_random_relation,
    reference_random_subrelation,
)


def _twin_streams(seed):
    return random.Random(seed), random.Random(seed)


class TestSamplersKeepTheirDraws:
    """The samplers build rows directly; they must still draw the numbers of
    the pair-by-pair reference in the same order, or every seeded report
    would change."""

    DRAWS = 2000

    def test_random_relation(self):
        ours, ref = _twin_streams(1)
        for i in range(self.DRAWS):
            n = i % 8
            density = None if i % 3 else ours.uniform(0.0, 1.0)
            assert density is None or density == ref.uniform(0.0, 1.0)
            assert random_relation(ours, n, density) == reference_random_relation(ref, n, density)
            assert ours.getstate() == ref.getstate()

    def test_random_subrelation(self):
        ours, ref = _twin_streams(2)
        for i in range(self.DRAWS):
            n = i % 8
            r = random_relation(ours, n)
            assert r == reference_random_relation(ref, n)
            keep = 0.5 if i % 2 else 0.2
            assert random_subrelation(ours, r, keep) == reference_random_subrelation(ref, r, keep)
            assert ours.getstate() == ref.getstate()

    def test_forced_progression_target(self):
        rng = random.Random(3)
        for i in range(self.DRAWS):
            n = i % 8
            lts = random_lts(rng, n, rng.randint(1, 3), rng.uniform(0.1, 0.6))
            r = random_relation(rng, n)
            assert forced_progression_target(lts, r) == reference_forced_progression_target(lts, r)

    def test_progression_sample(self):
        ours, ref = _twin_streams(4)
        for i in range(self.DRAWS):
            n = i % 8
            lts = random_lts(ours, n, 2, 0.3)
            assert lts == random_lts(ref, n, 2, 0.3)
            r, s = progression_sample(ours, lts)
            kept, target = reference_forced_progression_target(
                lts, reference_random_relation(ref, n)
            )
            assert (r, s) == (kept, target | reference_random_relation(ref, n, 0.15))
            assert ours.getstate() == ref.getstate()

    def test_rows_are_python_ints_below_the_state_count(self):
        rng = random.Random(5)
        for n in range(8):
            r = random_relation(rng, n)
            sub = random_subrelation(rng, r)
            for rel in (r, sub) + forced_progression_target(random_lts(rng, n, 2, 0.3), r):
                assert isinstance(rel, Relation) and rel.n_states == n
                assert all(type(row) is int and row >> n == 0 for row in rel.row_bits)
