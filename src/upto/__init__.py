"""Bisimulation up-to toolkit for finite labelled transition systems.

Computes the stratified approximants of bisimilarity and their convergence
index, evaluates the largest respectful function, certifies bisimulation
up-to proofs, and generalizes the construction to progressions on finite
complete lattices, with brute-force oracles throughout.
"""

from .checker import CONTAINED, INCONCLUSIVE, ProofReport, check_companion, check_upto
from .companion import (
    DominanceVerdict,
    RespectfulnessVerdict,
    UpToFunction,
    catalog,
    check_lrf_largest,
    is_respectful_on_samples,
    lrf,
    lrf_function,
)
from .formats import (
    AutDocument,
    AutParseError,
    LatticeDocument,
    RelationDocument,
    export_dot,
    parse_aut,
    parse_lattice,
    parse_progression,
    parse_relation,
    render_aut,
    render_relation,
)
from .gallery import GalleryVerdict, OrdinalLts, build_T, verify_gallery
from .lattice import (
    FiniteLattice,
    LatticeChain,
    LatticeProgression,
    LatticeValidationError,
    ProgressionVerdict,
    brute_force_largest,
    close_to_progression,
    companion_at,
    element_relation,
    is_compatible,
    is_monotone,
    is_progression,
    is_r_monotone,
    lts_to_lattice,
    relation_element_index,
    validate_lattice,
    z_chain,
)
from .lts import (
    Label,
    Lts,
    ProgressDiagnosis,
    ProgressViolation,
    Relation,
    largest_progressing_to,
    progress_holds,
    progresses_to,
)
from .strata import StrataSequence, compute_strata
from .verify import VerificationReport, run_verification

__version__ = "0.1.0"
