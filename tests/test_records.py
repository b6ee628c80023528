"""The library's records are named tuples: immutable, checked on construction."""

from pathlib import Path

import pytest

import upto
from upto.checker import CONTAINED, ProofReport
from upto.companion import (
    DominanceCounterexample,
    DominanceVerdict,
    RespectfulnessCounterexample,
    RespectfulnessVerdict,
    UpToFunction,
)
from upto.formats import AutDocument, LatticeDocument, RelationDocument
from upto.gallery import GalleryVerdict, OrdinalLts
from upto.lattice import (
    LatticeChain,
    MonotoneClassification,
    ProgressionVerdict,
    ProgressionViolation,
)
from upto.lts import Label, Lts, ProgressDiagnosis, ProgressViolation, Relation
from upto.verify import CheckResult, VerificationReport, run_verification

LTS = Lts(["0", "1"], [(1, "a", 0)])
R = Relation.identity(2)
VIOLATION = ProgressViolation((0, 1), "right", "a", 1, 0)
HOLDS = ProgressDiagnosis(True, ())

RECORDS = [
    Label("a"),
    HOLDS,
    VIOLATION,
    ProofReport("R", "lrf", True, CONTAINED, HOLDS, True),
    UpToFunction("identity", LTS, lambda r: r),
    RespectfulnessCounterexample(R, R, "inclusion", None),
    RespectfulnessVerdict(True, None, 1, 0),
    DominanceCounterexample(R, "identity", R, R),
    DominanceVerdict(True, None, 1),
    AutDocument((0, 1, 2), ((1, "a", 0),)),
    RelationDocument((("0", "1"),)),
    LatticeDocument(("a",), (), "leq"),
    OrdinalLts(0, LTS),
    GalleryVerdict(True, 1, None),
    ProgressionViolation(1, (0, 0), "order closure requires (a, a)"),
    ProgressionVerdict(True, (), 0),
    LatticeChain((0,), 0),
    MonotoneClassification(1, 1, 1, 0, 0, None, None),
    CheckResult("gallery-law", True, 1),
    VerificationReport(0, 1, [], []),
]

NO_VIOLATIONS = "holds must be true iff there are no violations"

# each record's former __post_init__ check: a violating field set and its message
INVALID = [
    (Label, {"text": ""}, "label text must be non-empty"),
    (Label, {"text": "a\nb"}, "label text 'a\\nb' contains a line break"),
    (ProgressDiagnosis, {"holds": True, "violations": (VIOLATION,)}, NO_VIOLATIONS),
    (ProgressDiagnosis, {"holds": False, "violations": ()}, NO_VIOLATIONS),
    (
        AutDocument,
        {"header": (0, 2, 2), "body": ((1, "a", 0),)},
        "transition count in header does not match body",
    ),
    (AutDocument, {"header": (2, 0, 2), "body": ()}, "initial state out of range"),
    (AutDocument, {"header": (0, 1, 2), "body": ((1, "a", 2),)}, "transition endpoint out of range"),
    (
        GalleryVerdict,
        {"passed": True, "checked": 1, "discrepancy": "boom"},
        "discrepancy must be present iff the verdict fails",
    ),
    (
        GalleryVerdict,
        {"passed": False, "checked": 1, "discrepancy": None},
        "discrepancy must be present iff the verdict fails",
    ),
    (
        ProofReport,
        {
            "relation_name": "R",
            "function_name": "lrf",
            "progression_holds": True,
            "conclusion": "maybe",
            "diagnosis": HOLDS,
            "cross_check": True,
        },
        "unknown conclusion 'maybe'",
    ),
    (
        RespectfulnessVerdict,
        {"holds_on_samples": False, "counterexample": None, "samples_checked": 1, "samples_skipped": 0},
        "counterexample must be present iff the verdict fails",
    ),
    (
        RespectfulnessVerdict,
        {
            "holds_on_samples": True,
            "counterexample": RespectfulnessCounterexample(R, R, "inclusion", None),
            "samples_checked": 1,
            "samples_skipped": 0,
        },
        "counterexample must be present iff the verdict fails",
    ),
    (
        LatticeChain,
        {"zs": (3, 1), "stable_index": 0},
        "stable_index must index the last stored chain element",
    ),
]
INVALID_IDS = [f"{cls.__name__}-{i}" for i, (cls, _, _) in enumerate(INVALID)]


class TestChecks:
    @pytest.mark.parametrize("cls, fields, message", INVALID, ids=INVALID_IDS)
    def test_positional_and_keyword_construction_check(self, cls, fields, message):
        for build in (lambda: cls(*fields.values()), lambda: cls(**fields)):
            with pytest.raises(ValueError) as error:
                build()
            assert str(error.value) == message

    @pytest.mark.parametrize("cls, fields, message", INVALID, ids=INVALID_IDS)
    def test_make_and_replace_check(self, cls, fields, message):
        with pytest.raises(ValueError) as error:
            cls._make(fields.values())
        assert str(error.value) == message
        valid = next(r for r in RECORDS if type(r) is cls)
        with pytest.raises(ValueError) as error:
            valid._replace(**fields)
        assert str(error.value) == message


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
        assert Label("a") == ("a",)
        assert tuple(HOLDS) == (True, ())
        holds, violations = HOLDS
        assert (holds, violations) == (True, ())
        assert GalleryVerdict(True, 3, None)._replace(checked=4) == (True, 4, None)
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
