"""The largest respectful function and a catalog of classic up-to functions.

The largest respectful function maps a relation to the smallest stratum
containing it.  This module computes it from a precomputed strata chain,
hosts the named up-to functions used by the proof checker, and provides
sample-based checks for respectfulness and for dominance of the catalog.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .lts import Lts, ProgressDiagnosis, Relation, progress_holds, progresses_to
from .strata import StrataSequence

# images remembered by each of the catalog's upto_bisim and union_bisim
CATALOG_MEMO = 128


class UpToFunction(NamedTuple):
    """A named function from relations to relations over one fixed LTS.

    trusted marks functions whose soundness the checker may rely on: the
    catalog members and the largest respectful function itself.
    """

    name: str
    lts: Lts
    fn: Callable[[Relation], Relation]
    trusted: bool = False

    def __call__(self, r: Relation) -> Relation:
        out = self.fn(r)
        if out.n_states != self.lts.n_states:
            raise ValueError(f"up-to function {self.name!r} changed the state set")
        return out


class RespectfulnessCounterexample(NamedTuple):
    """A sample (r, s) whose images break respectfulness: f(r) not inside
    f(s) (no diagnosis), or f(r) not progressing to f(s) (its diagnosis)."""

    r: Relation
    s: Relation
    diagnosis: Optional[ProgressDiagnosis]

    @property
    def clause(self) -> str:
        return "inclusion" if self.diagnosis is None else "progression"


class RespectfulnessVerdict(NamedTuple):
    counterexample: Optional[RespectfulnessCounterexample]
    samples_checked: int
    samples_skipped: int

    @property
    def holds_on_samples(self) -> bool:
        return self.counterexample is None


class DominanceCounterexample(NamedTuple):
    r: Relation
    function_name: str
    image: Relation
    bound: Relation


class DominanceVerdict(NamedTuple):
    counterexample: Optional[DominanceCounterexample]
    samples_checked: int

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def lrf(seq: StrataSequence, r: Relation) -> Relation:
    """The smallest stratum containing r.

    Strata shrink as the index grows, so the result is the stratum just
    before the first one that loses a pair of r, or the stable stratum when
    nothing is ever lost; its index is ``seq.depth(r)``.
    """
    return seq.stratum(seq.depth(r))


def lrf_function(seq: StrataSequence) -> UpToFunction:
    """The largest respectful function, packaged for the checker."""
    return UpToFunction("lrf", seq.lts, lambda r: lrf(seq, r), trusted=True)


def _remembered(image: Callable[[Relation], Relation]) -> Callable[[Relation], Relation]:
    """image, with its last CATALOG_MEMO results kept by the argument's rows:
    a row tuple hashes in C, and keeps no cached pairs or columns alive."""
    by_rows = lru_cache(maxsize=CATALOG_MEMO)(
        lambda rows: image(Relation._from_rows(len(rows), rows))
    )
    return lambda r: by_rows(r.row_bits)


def catalog(lts: Lts, seq: StrataSequence) -> list[UpToFunction]:
    """Named up-to functions known sound: four primitives and their pairwise
    compositions and pointwise unions.

    The primitives are the identity, the constant-to-bisimilarity function,
    the classic up-to-bisimilarity function (compose with bisimilarity on
    both sides), and union with bisimilarity.  Respectful functions are
    closed under composition and pointwise union, so every entry is
    respectful.  The two primitives that build a relation remember their
    last ``CATALOG_MEMO`` images, which the composites share: they call the
    primitives' plain functions, and only the outer call checks the state
    count.  Bisimilarity is read from the chain, which builds it on the
    first call, so a catalog that is never applied builds no stratum.
    """
    if seq.lts is not lts and seq.lts != lts:
        raise ValueError("strata sequence was computed for a different LTS")
    bisim = seq.bisimilarity

    base = [
        UpToFunction("identity", lts, lambda r: r, trusted=True),
        UpToFunction("const_bisim", lts, lambda r: bisim(), trusted=True),
        UpToFunction(
            "upto_bisim", lts, _remembered(lambda r: bisim().compose(r).compose(bisim())), trusted=True
        ),
        UpToFunction("union_bisim", lts, _remembered(lambda r: r | bisim()), trusted=True),
    ]

    def composed(f: UpToFunction, g: UpToFunction) -> UpToFunction:
        outer, inner = f.fn, g.fn
        return UpToFunction(
            f"compose({f.name},{g.name})", lts, lambda r: outer(inner(r)), trusted=True
        )

    def joined(f: UpToFunction, g: UpToFunction) -> UpToFunction:
        left, right = f.fn, g.fn
        return UpToFunction(
            f"union({f.name},{g.name})", lts, lambda r: left(r) | right(r), trusted=True
        )

    out = list(base)
    out.extend(composed(f, g) for f, g in itertools.product(base, base))
    out.extend(joined(f, g) for f, g in itertools.combinations(base, 2))
    return out


def is_respectful_on_samples(
    f: UpToFunction, samples: list[tuple[Relation, Relation]]
) -> RespectfulnessVerdict:
    """Test the respectfulness implication on concrete samples.

    Samples failing the hypothesis (r inside s and r progressing to s) are
    skipped and counted; the first sample where the conclusion fails is
    returned as the counterexample, with the diagnosis of its progression.
    """
    lts = f.lts
    checked = skipped = 0
    for r, s in samples:
        if not (r.is_subset(s) and progress_holds(lts, r, s)):
            skipped += 1
            continue
        checked += 1
        fr, fs = f(r), f(s)
        inside = fr.is_subset(fs)
        if not (inside and progress_holds(lts, fr, fs)):
            diag = progresses_to(lts, fr, fs) if inside else None
            return RespectfulnessVerdict(RespectfulnessCounterexample(r, s, diag), checked, skipped)
    return RespectfulnessVerdict(None, checked, skipped)


def check_lrf_largest(
    seq: StrataSequence, functions: list[UpToFunction], rs: list[Relation]
) -> DominanceVerdict:
    """Assert f(r) lands inside lrf(r) for every function f and sampled r.

    Each bound lrf(r) is computed once for all the functions.  The check
    walks the functions in order, each over all of rs, and stops at the
    first violation; ``samples_checked`` counts the (function, relation)
    pairs checked.  Any violation is a bug: every respectful function is
    dominated by the largest one.
    """
    bounds = [lrf(seq, r) for r in rs]
    checked = 0
    for f in functions:
        for r, bound in zip(rs, bounds):
            checked += 1
            image = f(r)
            if not image.is_subset(bound):
                return DominanceVerdict(DominanceCounterexample(r, f.name, image, bound), checked)
    return DominanceVerdict(None, checked)
