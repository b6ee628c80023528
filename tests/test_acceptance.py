"""Acceptance suite: every criterion exact, one printed pass/fail line each.

All checks are discrete with zero tolerance; the only numeric limits are the
stated runtime budgets and minimum sample counts.
"""

import itertools
import random
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from upto import (
    CONTAINED,
    INCONCLUSIVE,
    Lts,
    Relation,
    catalog,
    check_companion,
    companion_at,
    compute_strata,
    element_relation,
    largest_progressing_to,
    lrf,
    progress_holds,
    progresses_to,
    z_chain,
)
from upto.companion import check_lrf_largest
from upto.gallery import build_T
from upto.lattice import (
    brute_force_largest,
    chain_lattice,
    diamond_lattice,
    powerset_lattice,
)
from upto.sampling import (
    progression_sample,
    random_lattice_progression,
    random_lts,
    random_relation,
    random_subrelation,
)

from helpers import (
    all_relations,
    lts_to_lattice,
    matrix_largest_progressing_to,
    relation_element_index,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} ({description}): FAIL")
        raise
    print(f"criterion {number:2d} ({description}): PASS")


def enumerated_largest(lts, s):
    """Oracle: union of every relation that progresses to s, by enumeration."""
    union = Relation.empty(lts.n_states)
    for x in all_relations(lts.n_states):
        if progress_holds(lts, x, s):
            union = union | x
    return union


def test_criterion_1_gallery_law_exact():
    with criterion(1, "gallery stratum law, n <= 8"):
        start = time.monotonic()
        for n in range(9):
            seq = compute_strata(build_T(n))
            for a in range(n + 1):
                for b in range(a + 1, n + 1):
                    for g in range(seq.epsilon + 2):
                        assert ((a, b) in seq.stratum(g)) == (g <= a)
            above = compute_strata(build_T(n + 1))
            assert (n, n + 1) in above.stratum(n)
            assert (n, n + 1) not in above.stratum(n + 1)
        assert time.monotonic() - start < 5.0


def test_criterion_2_strata_oracle_equivalence():
    with criterion(2, "largest-progressing equals enumerated union"):
        # all 16 one-label two-state systems
        slots = [(p, "a", q) for p in range(2) for q in range(2)]
        for chosen in itertools.chain.from_iterable(
            itertools.combinations(slots, k) for k in range(5)
        ):
            lts = Lts(["0", "1"], chosen)
            for s in compute_strata(lts).strata:
                assert largest_progressing_to(lts, s) == enumerated_largest(lts, s)

        rng = random.Random(2024)
        for _ in range(100):
            lts = random_lts(rng, 3, 2, rng.uniform(0.1, 0.6))
            for s in compute_strata(lts).strata:
                assert largest_progressing_to(lts, s) == enumerated_largest(lts, s)


def test_criterion_3_lrf_respectful_on_constructed_samples():
    with criterion(3, "lrf respectful on 10000 constructed samples"):
        start = time.monotonic()
        rng = random.Random(3)
        checked = 0
        for _ in range(50):
            lts = random_lts(rng, rng.randint(1, 5), rng.randint(1, 2), rng.uniform(0.15, 0.6))
            seq = compute_strata(lts)
            for _ in range(200):
                r, s = progression_sample(rng, lts)
                assert r.is_subset(s)
                assert progresses_to(lts, r, s).holds
                fr, fs = lrf(seq, r), lrf(seq, s)
                assert fr.is_subset(fs)
                assert progresses_to(lts, fr, fs).holds
                checked += 1
        assert checked >= 10_000
        assert time.monotonic() - start < 60.0


def test_criterion_4_lrf_dominates_catalog():
    with criterion(4, "every catalog function below lrf"):
        rng = random.Random(4)
        systems = 0
        for _ in range(50):
            lts = random_lts(rng, rng.randint(1, 5), rng.randint(1, 2), rng.uniform(0.15, 0.6))
            seq = compute_strata(lts)
            rs = [random_relation(rng, lts.n_states) for _ in range(1000)]
            functions = catalog(lts, seq)
            verdict = check_lrf_largest(seq, functions, rs)
            assert verdict.holds, verdict.counterexample
            assert verdict.samples_checked == 1000 * len(functions)
            systems += 1
        assert systems >= 50


def test_criterion_5_sound_relation_fixpoint():
    with criterion(5, "lrf fixes subrelations of bisimilarity"):
        rng = random.Random(5)
        checked = 0
        for _ in range(25):
            lts = random_lts(rng, rng.randint(1, 5), rng.randint(1, 2), rng.uniform(0.15, 0.6))
            seq = compute_strata(lts)
            bisim = seq.bisimilarity()
            for _ in range(40):
                r = random_subrelation(rng, bisim)
                assert lrf(seq, r) == bisim
                checked += 1
        assert checked >= 1000


def test_criterion_6_fixpoint_self_progression():
    with criterion(6, "bisimilarity progresses to itself"):
        rng = random.Random(6)
        pool = [
            random_lts(rng, rng.randint(1, 5), rng.randint(1, 2), rng.uniform(0.1, 0.6))
            for _ in range(60)
        ]
        small_seen = 0
        for lts in pool:
            seq = compute_strata(lts)
            bisim = seq.bisimilarity()
            assert progresses_to(lts, bisim, bisim).holds
            if lts.n_states <= 3:
                union = Relation.empty(lts.n_states)
                for x in all_relations(lts.n_states):
                    if progress_holds(lts, x, x):
                        union = union | x
                assert union == bisim
                small_seen += 1
        assert small_seen > 0


def test_criterion_7_lattice_companion_coincidence():
    with criterion(7, "brute-force largest equals companion, both modes"):
        start = time.monotonic()
        rng = random.Random(7)
        suite = [
            chain_lattice(2),
            chain_lattice(3),
            chain_lattice(4),
            diamond_lattice(),
            powerset_lattice(2),
        ]
        for lat in suite:
            for _ in range(20):
                prog = random_lattice_progression(rng, lat, rng.uniform(0.05, 0.4))
                chain = z_chain(lat, prog)
                comp = tuple(companion_at(lat, prog, chain, x) for x in range(lat.size))
                assert brute_force_largest(lat, prog, "r_monotone") == comp
                assert brute_force_largest(lat, prog, "compatible") == comp
        assert time.monotonic() - start < 60.0


def test_criterion_8_bridge_recovers_relation_results():
    with criterion(8, "powerset-lattice companion equals lrf"):
        suite = [
            build_T(1),
            build_T(2),
            Lts(["d"], []),
            Lts(["p"], [(0, "a", 0)]),
            Lts(["d", "l"], [(1, "a", 1)]),
            Lts(["p", "q1", "q2"], [(0, "a", 0), (1, "a", 2), (2, "a", 1)]),
            Lts(["0", "1", "2"], [(0, "a", 1), (1, "b", 2), (2, "a", 0), (2, "b", 2)]),
        ]
        for lts in suite:
            n = lts.n_states
            lat, prog = lts_to_lattice(lts)
            chain = z_chain(lat, prog)
            seq = compute_strata(lts)
            for mask in range(lat.size):
                r = element_relation(n, mask)
                assert companion_at(lat, prog, chain, mask) == relation_element_index(
                    lrf(seq, r)
                )
                assert prog.s_vector[mask] == relation_element_index(
                    largest_progressing_to(lts, r)
                )
                assert prog.s_vector[mask] == relation_element_index(
                    matrix_largest_progressing_to(lts, r)
                )


def test_criterion_9_end_to_end_proof_demo():
    with criterion(9, "checker accepts loop~cycle, rejects deadlock~loop"):
        loop_cycle = Lts(["p", "q1", "q2"], [(0, "a", 0), (1, "a", 2), (2, "a", 1)])
        good = check_companion(loop_cycle, Relation.from_pairs(3, [(0, 1)]))
        assert good.conclusion == CONTAINED
        assert good.progression_holds and good.cross_check

        dead_loop = Lts(["d", "l"], [(1, "a", 1)])
        bad = check_companion(dead_loop, Relation.from_pairs(2, [(0, 1)]))
        assert bad.conclusion == INCONCLUSIVE
        assert not bad.progression_holds and not bad.cross_check


def test_criterion_10_verify_is_deterministic():
    with criterion(10, "verify --seed 42 --samples 1000 byte-identical"):
        cmd = [sys.executable, "-m", "upto", "verify", "--seed", "42", "--samples", "1000"]
        first = subprocess.run(cmd, capture_output=True, timeout=300)
        second = subprocess.run(cmd, capture_output=True, timeout=300)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty report
