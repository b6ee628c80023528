"""The ordinal-membership ladder: systems where consecutive strata differ.

T_n has states 0..n with a single label and a transition i -> j exactly when
i > j.  Two states a < b stay related at stratum g precisely while g <= a,
so every stratum up to n is distinct; the family witnesses that no fixed
index works for all systems.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .lts import Lts, Validated
from .strata import StrataSequence, compute_strata

GALLERY_LABEL = "t"
# transitions of the largest T_n built: T_1413 has 998,991, T_1414 1,000,405
MAX_GALLERY_TRANSITIONS = 10**6


class OrdinalLts(NamedTuple):
    """T_n: states 0..n, one label, i -> j iff i > j."""

    n: int
    lts: Lts


class GalleryVerdict(
    Validated,
    NamedTuple(
        "GalleryVerdict",
        [("passed", bool), ("checked", int), ("discrepancy", Optional[str])],
    )
):
    __slots__ = ()

    def _check(self):
        if self.passed != (self.discrepancy is None):
            raise ValueError("discrepancy must be present iff the verdict fails")


def _within_budget(n: int) -> None:
    """Refuse T_n before building it when its n(n+1)/2 transitions exceed
    MAX_GALLERY_TRANSITIONS; the count is arithmetic, so any n is checked."""
    if n < 0:
        raise ValueError("n must be non-negative")
    count = n * (n + 1) // 2
    if count > MAX_GALLERY_TRANSITIONS:
        raise ValueError(
            f"T_{n} has {count} transitions; at most {MAX_GALLERY_TRANSITIONS} are built"
        )


def build_T(n: int) -> OrdinalLts:
    _within_budget(n)
    names = [str(i) for i in range(n + 1)]
    triples = ((i, GALLERY_LABEL, j) for i in range(n + 1) for j in range(i))
    return OrdinalLts(n=n, lts=Lts(names, triples))


def _law_holds(ids: tuple[int, ...], g: int) -> bool:
    """Whether the partition with block ids ids relates a < b exactly when
    g <= a: the states from g on share one block, and the states below g
    have blocks of their own."""
    head, tail = ids[:g], set(ids[g:])
    return len(tail) <= 1 and len(set(head)) == len(head) and tail.isdisjoint(head)


def _first_discrepancy(n: int, seq: StrataSequence) -> GalleryVerdict:
    """The law tested on a chain of T_n pair by pair, up to the first failure."""
    checked = 0
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            for g in range(seq.epsilon + 2):
                checked += 1
                expected = g <= a
                actual = (a, b) in seq.stratum(g)
                if actual != expected:
                    return GalleryVerdict(
                        False,
                        checked,
                        f"T_{n}: pair ({a},{b}) at stratum {g}: "
                        f"expected {'in' if expected else 'out'}, got {'in' if actual else 'out'}",
                    )
    raise RuntimeError(f"T_{n}: the block ids break the law, but no pair does")


def verify_gallery(n: int) -> GalleryVerdict:
    """Check the stratum membership law on T_n and the split pair on T_{n+1}.

    On T_n: (a, b) with a < b lies in stratum g iff g <= a, for every g up to
    one past the convergence index (stability covers the rest).  On T_{n+1}:
    the pair (n, n+1) survives stratum n but not stratum n+1.  The law is
    tested on each stratum's block ids, in O(n); the pairs are walked only
    to name the first failure, and ``checked`` counts the walk's tests.
    """
    # the sign of n first, then the budget of the larger system, T_{n+1}
    _within_budget(n)
    _within_budget(n + 1)
    seq = compute_strata(build_T(n).lts)
    rows, last = seq.blocks, seq.epsilon
    if not all(_law_holds(rows[min(g, last)], g) for g in range(last + 2)):
        return _first_discrepancy(n, seq)

    above = compute_strata(build_T(n + 1).lts)
    checked = n * (n + 1) // 2 * (last + 2) + 2
    if (n, n + 1) not in above.stratum(n):
        return GalleryVerdict(
            False, checked, f"T_{n + 1}: pair ({n},{n + 1}) missing from stratum {n}"
        )
    if (n, n + 1) in above.stratum(n + 1):
        return GalleryVerdict(
            False, checked, f"T_{n + 1}: pair ({n},{n + 1}) still present at stratum {n + 1}"
        )
    return GalleryVerdict(True, checked, None)
