"""The ordinal-membership ladder: systems where consecutive strata differ.

T_n has states 0..n with a single label and a transition i -> j exactly when
i > j.  Two states a < b stay related at stratum g precisely while g <= a,
so every stratum up to n is distinct; the family witnesses that no fixed
index works for all systems.

T_n is T_{n+1} cut to states 0..n, which no move leaves, so stratum g of T_n
is that of T_{n+1} cut to 0..n: by induction on g, the moves of a pair inside
0..n only reach pairs inside 0..n, where the two chains agree.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .lts import Lts
from .strata import StrataSequence, compute_strata

GALLERY_LABEL = "t"
# transitions of the largest T_n built: T_1413 has 998,991, T_1414 1,000,405
MAX_GALLERY_TRANSITIONS = 10**6


class GalleryVerdict(NamedTuple):
    checked: int
    discrepancy: Optional[str]

    @property
    def passed(self) -> bool:
        return self.discrepancy is None


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


def build_T(n: int) -> Lts:
    """T_n: states 0..n, one label, i -> j iff i > j."""
    _within_budget(n)
    names = [str(i) for i in range(n + 1)]
    triples = ((i, GALLERY_LABEL, j) for i in range(n + 1) for j in range(i))
    return Lts(names, triples)


def _law_holds(ids: list[int], g: int) -> bool:
    """Whether the partition with block ids ids relates a < b exactly when
    g <= a: the states from g on share one block, and the states below g
    have blocks of their own."""
    head, tail = ids[:g], set(ids[g:])
    return len(tail) <= 1 and len(set(head)) == len(head) and tail.isdisjoint(head)


def _first_discrepancy(n: int, seq: StrataSequence) -> GalleryVerdict:
    """The law tested pair by pair on T_n's strata 0..n+1, up to the first failure."""
    rows = [seq._row(g) for g in range(n + 2)]
    checked = 0
    for a in range(n + 1):
        for b in range(a + 1, n + 1):
            for g, ids in enumerate(rows):
                checked += 1
                expected, actual = g <= a, ids[a] == ids[b]
                if actual != expected:
                    return GalleryVerdict(
                        checked,
                        f"T_{n}: pair ({a},{b}) at stratum {g}: "
                        f"expected {'in' if expected else 'out'}, got {'in' if actual else 'out'}",
                    )
    raise RuntimeError(f"T_{n}: the block ids break the law, but no pair does")


def verify_gallery(n: int) -> GalleryVerdict:
    """Check the stratum law on T_n and the split pair on T_{n+1}, on T_{n+1}'s chain.

    On T_n: (a, b) with a < b lies in stratum g iff g <= a, for g = 0..n+1
    (stability covers the rest), tested on the first n + 1 block ids of each
    stratum, in O(n) each (the law needs the partition, not canonical ids).
    On T_{n+1}: the pair (n, n+1) survives stratum n but not stratum n+1.
    The pairs are walked only to name the first failure; ``checked`` counts its tests.
    """
    # the sign of n first; build_T then checks the budget of T_{n+1}
    _within_budget(n)
    seq = compute_strata(build_T(n + 1))
    if not all(_law_holds(seq._row(g)[: n + 1], g) for g in range(n + 2)):
        return _first_discrepancy(n, seq)

    checked = n * (n + 1) // 2 * (n + 2) + 2
    pair = f"T_{n + 1}: pair ({n},{n + 1})"
    below, at = seq._row(n), seq._row(n + 1)
    if below[n] != below[n + 1]:
        return GalleryVerdict(checked, f"{pair} missing from stratum {n}")
    if at[n] == at[n + 1]:
        return GalleryVerdict(checked, f"{pair} still present at stratum {n + 1}")
    return GalleryVerdict(checked, None)
