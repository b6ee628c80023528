"""The library's records are named tuples: immutable, and each verdict flag
is a property derived from the evidence the record stores."""

import ast
import random
from pathlib import Path

import pytest

import upto
from upto.checker import CONTAINED, INCONCLUSIVE, ProofReport, check_upto
from upto.companion import (
    DominanceCounterexample,
    DominanceVerdict,
    RespectfulnessCounterexample,
    RespectfulnessVerdict,
    UpToFunction,
    check_lrf_largest,
    is_respectful_on_samples,
    lrf_function,
)
from upto.formats import AutDocument, LatticeDocument, RelationDocument
from upto.gallery import GalleryVerdict
from upto.lattice import (
    LatticeChain,
    LatticeProgression,
    MonotoneClassification,
    ProgressionVerdict,
    ProgressionViolation,
    chain_lattice,
    close_to_progression,
    diamond_lattice,
    is_progression,
    z_chain,
)
from upto.lts import Lts, ProgressDiagnosis, ProgressViolation, Relation, progresses_to
from upto.sampling import random_lts_pool, random_relation
from upto.strata import compute_strata
from upto.verify import CheckResult, VerificationReport, run_verification

LTS = Lts(["0", "1"], [(1, "a", 0)])
R = Relation.identity(2)
VIOLATION = ProgressViolation((0, 1), "right", "a", 0)
HOLDS = ProgressDiagnosis(())

RECORDS = [
    HOLDS,
    VIOLATION,
    ProofReport("R", "lrf", True, HOLDS, True),
    UpToFunction("identity", LTS, lambda r: r),
    RespectfulnessCounterexample(R, R, None),
    RespectfulnessVerdict(None, 1, 0),
    DominanceCounterexample(R, "identity", R, R),
    DominanceVerdict(None, 1),
    AutDocument((0, 1, 2), ((1, "a", 0),)),
    RelationDocument((("0", "1"),)),
    LatticeDocument(("a",), (), "leq"),
    GalleryVerdict(1, None),
    ProgressionViolation(1, (0, 0), "order closure requires (a, a)"),
    ProgressionVerdict((), 0),
    LatticeChain((0,)),
    MonotoneClassification(1, 1, 1, 0, 0, None, None),
    CheckResult("gallery-law", True, 1),
    VerificationReport(0, 1, [], []),
]


class TestNamedTuples:
    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_fields_cannot_be_set(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.not_a_field = 1

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_round_trips_through_its_fields(self, record):
        assert type(record)(**record._asdict()) == record
        assert type(record)._make(record) == record
        assert repr(record).startswith(f"{type(record).__name__}(")

    def test_records_are_tuples(self):
        assert tuple(HOLDS) == ((),)
        (violations,) = HOLDS
        assert violations == () and HOLDS.holds
        assert GalleryVerdict(3, None)._replace(checked=4) == (4, None)
        assert VerificationReport._fields == ("seed", "samples", "checks", "info")

    def test_reports_do_not_share_their_lists(self):
        first, second = run_verification(3, 1), run_verification(3, 1)
        assert first.checks is not second.checks and first.info is not second.info
        assert first == second
        first.checks.clear()
        assert len(second.checks) == 27

    def test_report_lists_are_explicit(self):
        with pytest.raises(TypeError):
            VerificationReport(0, 1)

    def test_no_module_imports_dataclasses(self):
        for path in Path(upto.__file__).parent.glob("*.py"):
            assert "dataclass" not in path.read_text(), path.name


class TestDerivedFields:
    """Each verdict flag, read off records that real calls return, agrees
    with the evidence the record stores."""

    def test_progress_diagnosis(self, loop_vs_cycle, deadlock_vs_loop):
        holding = progresses_to(loop_vs_cycle, Relation.full(3), Relation.full(3))
        assert holding.holds and holding.violations == ()
        r = Relation.from_pairs(2, [(0, 1)])
        failing = progresses_to(deadlock_vs_loop, r, r)
        assert not failing.holds and failing.violations

    def test_violation_source_is_the_moving_state(self):
        rng = random.Random(19)
        seen = set()
        for lts in random_lts_pool(rng, 30, max_states=5):
            moves = set(lts.triples())
            n = lts.n_states
            diagnosis = progresses_to(lts, random_relation(rng, n), random_relation(rng, n))
            for v in diagnosis.violations:
                side = {"left": 0, "right": 1}[v.direction]
                assert v.source == v.pair[side]
                assert (v.source, v.label, v.target) in moves
                seen.add(v.direction)
        assert seen == {"left", "right"}

    def test_proof_report(self, loop_vs_cycle, deadlock_vs_loop):
        seq = compute_strata(loop_vs_cycle)
        r = Relation.from_pairs(3, [(0, 1)])
        trusted = check_upto(loop_vs_cycle, r, lrf_function(seq), seq=seq)
        assert trusted.trusted and trusted.progression_holds and trusted.diagnosis.holds
        assert trusted.conclusion == CONTAINED
        homemade = UpToFunction("homemade", loop_vs_cycle, lambda r: Relation.full(3))
        untrusted = check_upto(loop_vs_cycle, r, homemade, seq=seq)
        assert not untrusted.trusted and untrusted.progression_holds
        assert untrusted.conclusion == INCONCLUSIVE
        seq = compute_strata(deadlock_vs_loop)
        r = Relation.from_pairs(2, [(0, 1)])
        failing = check_upto(deadlock_vs_loop, r, lrf_function(seq), seq=seq)
        assert failing.trusted and not failing.progression_holds
        assert failing.diagnosis.violations and failing.conclusion == INCONCLUSIVE

    def test_respectfulness_counterexample_of_each_clause(self, t2):
        # the empty relation lies inside the identity and progresses to it
        sample = (Relation.empty(3), Relation.identity(3))
        complement = UpToFunction("complement", t2, lambda r: Relation.full(3) - r)
        inclusion = is_respectful_on_samples(complement, [sample])
        assert not inclusion.holds_on_samples
        assert inclusion.counterexample.clause == "inclusion"
        assert inclusion.counterexample.diagnosis is None
        extra = Relation.from_pairs(3, [(1, 2)])
        inject = UpToFunction("inject", t2, lambda r: r | extra)
        progression = is_respectful_on_samples(inject, [sample])
        assert not progression.holds_on_samples
        assert progression.counterexample.clause == "progression"
        assert not progression.counterexample.diagnosis.holds
        identity = UpToFunction("identity", t2, lambda r: r)
        holding = is_respectful_on_samples(identity, [sample])
        assert holding.holds_on_samples and holding.counterexample is None

    def test_dominance(self, t2):
        seq = compute_strata(t2)
        full = UpToFunction("full", t2, lambda r: Relation.full(3))
        failing = check_lrf_largest(seq, [full], [Relation.empty(3)])
        assert not failing.holds and failing.counterexample.function_name == "full"
        holding = check_lrf_largest(seq, [lrf_function(seq)], [Relation.empty(3)])
        assert holding.holds and holding.counterexample is None

    def test_progression_verdict(self):
        lat = chain_lattice(2)
        assert is_progression(lat, lat.order).holds
        verdict = is_progression(lat, Relation.from_pairs(2, [(1, 1)]))
        assert not verdict.holds and verdict.violation_count == len(verdict.violations) > 0

    def test_lattice_chain(self):
        lat = diamond_lattice()
        assert z_chain(lat, LatticeProgression(lat, lat.order)) == ((lat.top,),)
        assert z_chain(lat, LatticeProgression(lat, lat.order)).stable_index == 0
        # every pre-image of the least progression on a chain joins to the bottom
        lat = chain_lattice(3)
        chain = z_chain(lat, close_to_progression(lat, Relation.empty(3)))
        assert chain.zs == (lat.top, lat.bottom) and chain.stable_index == 1

    def test_no_module_keeps_a_flag_check(self):
        # definitions, imports, names and attributes alike
        for path in Path(upto.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                name = next((getattr(node, k) for k in ("name", "id", "attr") if hasattr(node, k)), None)
                assert name not in ("Validated", "_check"), f"{path.name}: {name}"
