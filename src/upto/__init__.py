"""Bisimulation up-to toolkit for finite labelled transition systems.

Computes the stratified approximants of bisimilarity and their convergence
index, evaluates the largest respectful function, certifies bisimulation
up-to proofs, and generalizes the construction to progressions on finite
complete lattices, with brute-force oracles throughout.

The public names load lazily (PEP 562): ``from upto import lrf`` imports
``upto.companion`` and what it needs, not the whole package, so a command
line run starts without the lattice, sampling and verification modules.
``upto.<module>`` imports that submodule.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "checker": "CONTAINED INCONCLUSIVE ProofReport check_companion check_upto",
        "companion": "DominanceVerdict RespectfulnessVerdict UpToFunction catalog "
        "check_lrf_largest is_respectful_on_samples lrf lrf_function",
        "formats": "AutDocument AutParseError LatticeDocument RelationDocument export_dot "
        "parse_aut parse_lattice parse_progression parse_relation render_aut render_relation",
        "gallery": "GalleryVerdict build_T verify_gallery",
        "lattice": "FiniteLattice LatticeChain LatticeProgression LatticeValidationError "
        "ProgressionVerdict brute_force_largest chain_companion close_to_progression "
        "companion_at descending_chain element_relation is_compatible is_monotone "
        "is_progression is_r_monotone validate_lattice z_chain",
        "lts": "Lts ProgressDiagnosis ProgressViolation Relation "
        "largest_progressing_to progress_holds progresses_to",
        "strata": "StrataSequence compute_strata",
        "verify": "VerificationReport run_verification",
    }.items()
    for name in names.split()
}
_SUBMODULES = frozenset(
    "checker cli companion formats gallery lattice lts sampling strata verify".split()
)

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
