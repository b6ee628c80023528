"""Certify a candidate relation as a bisimulation up-to a trusted function.

The workflow: evaluate the chosen function on the candidate, test that the
candidate progresses to the image, and conclude containment in bisimilarity
only when the function is trusted.  An independent containment check against
the computed bisimilarity is always recorded alongside, so every successful
run doubles as a soundness test.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .lts import Lts, ProgressDiagnosis, Relation, progresses_to
from .strata import StrataSequence

if TYPE_CHECKING:  # an annotation only, so importing this loads no upto.companion
    from .companion import UpToFunction

CONTAINED = "contained_in_bisimilarity"
INCONCLUSIVE = "inconclusive"


class ProofReport(NamedTuple):
    """An up-to proof attempt: the progression's diagnosis decides whether
    it holds, and the conclusion is positive only for a trusted function."""

    relation_name: str
    function_name: str
    trusted: bool
    diagnosis: ProgressDiagnosis
    cross_check: bool

    @property
    def progression_holds(self) -> bool:
        return self.diagnosis.holds

    @property
    def conclusion(self) -> str:
        return CONTAINED if self.diagnosis.holds and self.trusted else INCONCLUSIVE


def check_upto(
    lts: Lts,
    r: Relation,
    f: UpToFunction,
    relation_name: str = "R",
    *,
    seq: StrataSequence,
) -> ProofReport:
    """Run the up-to proof obligation for r under f and report.

    The conclusion is positive only when the progression holds and f is
    trusted; an untrusted function still gets its progression reported.  The
    cross check (r inside the bisimilarity of seq, the chain of lts) is
    evaluated regardless of the outcome.
    """
    if r.n_states != lts.n_states:
        raise ValueError("relation dimensions do not match the LTS")
    if f.lts is not lts and f.lts != lts:
        raise ValueError(f"up-to function {f.name!r} was built for a different LTS")
    if seq.lts is not lts and seq.lts != lts:
        raise ValueError("strata sequence was computed for a different LTS")
    diagnosis = progresses_to(lts, r, f(r))
    cross_check = seq.depth(r) == seq.epsilon
    return ProofReport(relation_name, f.name, f.trusted, diagnosis, cross_check)

