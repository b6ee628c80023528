"""The seeded property suite: every library invariant, one pass/fail line each.

Runs against pools of randomly generated systems plus fixed small lattices,
with brute-force enumeration oracles wherever the state space allows.  The
report is deterministic for a fixed seed and sample count.

Each check is a generator over its cases that yields ``(cases, failure)``:
the number of cases the step just ran (0 when it only tests a precondition
or a further condition of a case already counted) and ``None`` or the
detail to report.  ``run_verification`` stops a check at its first failure.
To add a check, write one such generator and add one ``(name, generator)``
line to ``CHECKS``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .companion import catalog, check_lrf_largest, lrf, lrf_function
from .formats import parse_aut, render_aut
from .gallery import build_T, verify_gallery
from .lattice import (
    FiniteLattice,
    brute_force_largest,
    chain_lattice,
    classify_monotone_functions,
    companion_at,
    diamond_lattice,
    element_relation,
    is_compatible,
    is_monotone,
    is_r_monotone,
    lts_to_lattice,
    m3_lattice,
    pentagon_lattice,
    powerset_lattice,
    relation_element_index,
    z_chain,
)
from .checker import CONTAINED, check_companion, check_upto
from .lts import Lts, Relation, largest_progressing_to, progress_holds
from .sampling import (
    progression_sample,
    random_lattice_progression,
    random_lts,
    random_lts_pool,
    random_relation,
    random_subrelation,
)
from .strata import StrataSequence, compute_strata

GALLERY_MAX = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str = ""


@dataclass
class VerificationReport:
    seed: int
    samples: int
    checks: list[CheckResult] = field(default_factory=list)
    info: list[str] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [
            "upto verification report",
            f"seed = {self.seed}",
            f"samples = {self.samples}",
            "",
        ]
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            line = f"{status} {c.name} cases={c.cases}"
            if c.detail:
                line += f" detail={c.detail}"
            lines.append(line)
        lines.extend(f"info {note}" for note in self.info)
        n_fail = sum(not c.passed for c in self.checks)
        lines.append("")
        lines.append(
            f"result: {len(self.checks)} checks, "
            f"{len(self.checks) - n_fail} passed, {n_fail} failed"
        )
        return "\n".join(lines) + "\n"


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def _all_relations(n: int) -> list[Relation]:
    return [element_relation(n, mask) for mask in range(1 << (n * n))]


def _pick(rng: random.Random, items):
    return items[rng.randrange(len(items))]


class _Suite:
    """What every check shares: one random stream, systems, progressions."""

    def __init__(self, seed: int, samples: int):
        self.samples = samples
        self.rng = random.Random(seed)

        pool_n = _clamp(samples // 40, 6, 30)
        pool = random_lts_pool(self.rng, pool_n)
        # guarantee enumeration-sized systems for the brute-force checks
        while sum(1 for l in pool if l.n_states <= 3) < 4:
            pool.append(random_lts(self.rng, self.rng.randint(2, 3), 1, 0.4))
        self.systems: list[tuple[Lts, StrataSequence]] = [
            (lts, compute_strata(lts)) for lts in pool
        ]
        self.small = [(l, s) for (l, s) in self.systems if l.n_states <= 3]
        # each system's catalog with lrf appended, keyed by the identity of
        # its chain, so the catalog's remembered images serve every check
        self.functions = {
            id(seq): catalog(lts, seq) + [lrf_function(seq)] for lts, seq in self.systems
        }

        lattices: list[tuple[str, FiniteLattice]] = [
            ("chain2", chain_lattice(2)),
            ("chain3", chain_lattice(3)),
            ("chain4", chain_lattice(4)),
            ("diamond", diamond_lattice()),
            ("powerset2", powerset_lattice(2)),
            ("chain5", chain_lattice(5)),
            ("pentagon", pentagon_lattice()),
            ("m3", m3_lattice()),
        ]
        prog_budget = _clamp(samples // 60, 3, 16)
        prog_budget_5 = _clamp(samples // 150, 2, 6)
        self.progressions = []
        for name, lat in lattices:
            budget = prog_budget if lat.size <= 4 else prog_budget_5
            for _ in range(budget):
                self.progressions.append(
                    (name, lat, random_lattice_progression(self.rng, lat, self.rng.uniform(0.05, 0.4)))
                )


def _progress_monotone(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        r, s = progression_sample(rng, lts)
        if not progress_holds(lts, r, s):
            yield 0, "sampler produced a bad pair"
        sub = random_subrelation(rng, r)
        sup = s | random_relation(rng, lts.n_states, 0.3)
        ok = progress_holds(lts, sub, sup)
        yield 1, None if ok else f"shrunk source / grown target lost progress on {lts!r}"


def _progress_union_closure(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        s = random_relation(rng, lts.n_states)
        bound = largest_progressing_to(lts, s)
        r1 = random_subrelation(rng, bound)
        r2 = random_subrelation(rng, bound)
        if progress_holds(lts, r1, s) and progress_holds(lts, r2, s):
            ok = progress_holds(lts, r1 | r2, s)
            yield 1, None if ok else f"union broke progress on {lts!r}"


def _largest_characterization(suite: _Suite):
    for i in range(_clamp(suite.samples // 150, 1, 8)):
        lts, _seq = suite.small[i % len(suite.small)]
        everything, empty = _all_relations(lts.n_states), Relation.empty(lts.n_states)
        for _ in range(2):
            s = random_relation(suite.rng, lts.n_states)
            computed = largest_progressing_to(lts, s)
            union = reduce(or_, (x for x in everything if progress_holds(lts, x, s)), empty)
            ok = union == computed
            yield 1, None if ok else f"enumerated union differs from computed largest on {lts!r}"


def _progress_iff_subset(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        r = random_relation(rng, lts.n_states)
        s = random_relation(rng, lts.n_states)
        direct = progress_holds(lts, r, s)
        via_largest = r.is_subset(largest_progressing_to(lts, s))
        yield 1, None if direct == via_largest else f"disagreement on {lts!r}"


def _strata_decreasing(suite: _Suite):
    for _lts, seq in suite.systems:
        for k in range(seq.epsilon):
            ok = seq.strata[k + 1] < seq.strata[k]
            yield 1, None if ok else f"stratum {k + 1} not strictly below"


def _strata_index_monotone(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples // 2):
        _lts, seq = _pick(rng, suite.systems)
        j = rng.randint(0, seq.epsilon + 3)
        k = rng.randint(j, seq.epsilon + 6)
        ok = seq.stratum(k).is_subset(seq.stratum(j))
        yield 1, None if ok else f"stratum {k} not inside stratum {j}"


def _strata_progress_step(suite: _Suite):
    for lts, seq in suite.systems:
        for k in range(seq.epsilon):
            ok = progress_holds(lts, seq.strata[k + 1], seq.strata[k])
            yield 1, None if ok else f"step {k + 1} on {lts!r}"


def _bisimilarity_self_progress(suite: _Suite):
    for lts, seq in suite.systems:
        ok = progress_holds(lts, seq.bisimilarity(), seq.bisimilarity())
        yield 1, None if ok else f"{lts!r}"


def _strata_fixpoint(suite: _Suite):
    for lts, seq in suite.systems:
        stable = seq.strata[seq.epsilon]
        once = largest_progressing_to(lts, stable)
        twice = largest_progressing_to(lts, once)
        yield 1, None if once == stable and twice == stable else f"{lts!r}"


def _strata_equivalence(suite: _Suite):
    for _lts, seq in suite.systems:
        for stratum in seq.strata:
            yield 1, None if stratum.is_equivalence() else "non-equivalence stratum"


def _bisimilarity_enumerated(suite: _Suite):
    for i in range(_clamp(suite.samples // 100, 2, 10)):
        lts, seq = suite.small[i % len(suite.small)]
        selfprog = (x for x in _all_relations(lts.n_states) if progress_holds(lts, x, x))
        ok = reduce(or_, selfprog, Relation.empty(lts.n_states)) == seq.bisimilarity()
        yield 1, None if ok else f"union of self-progressing relations differs on {lts!r}"


def _lrf_monotone(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        s = random_relation(rng, seq.lts.n_states)
        r = random_subrelation(rng, s)
        yield 1, None if lrf(seq, r).is_subset(lrf(seq, s)) else f"on {seq.lts!r}"


def _lrf_respectful(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        lts, seq = _pick(rng, suite.systems)
        r, s = progression_sample(rng, lts)
        if r.is_subset(s) and progress_holds(lts, r, s):
            fr, fs = lrf(seq, r), lrf(seq, s)
            ok = fr.is_subset(fs) and progress_holds(lts, fr, fs)
            yield 1, None if ok else f"on {lts!r}"


def _lrf_sound_fixpoint(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        r = random_subrelation(rng, seq.bisimilarity())
        yield 1, None if lrf(seq, r) == seq.bisimilarity() else f"on {seq.lts!r}"


def _lrf_largest(suite: _Suite):
    per_system = _clamp(suite.samples // len(suite.systems), 5, 100)
    for lts, seq in suite.systems:
        rs = [random_relation(suite.rng, lts.n_states) for _ in range(per_system)]
        for f in suite.functions[id(seq)][:-1]:
            verdict = check_lrf_largest(seq, f, rs)
            yield verdict.samples_checked, None if verdict.holds else (
                f"{verdict.counterexample.function_name} escapes lrf on {lts!r}"
            )


def _lrf_idempotent(suite: _Suite):
    rng = suite.rng
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        image = lrf(seq, random_relation(rng, seq.lts.n_states))
        yield 1, None if lrf(seq, image) == image else f"on {seq.lts!r}"


def _checker_soundness(suite: _Suite):
    rng = suite.rng
    for _ in range(_clamp(suite.samples // 5, 20, 400)):
        lts, seq = _pick(rng, suite.systems)
        f = _pick(rng, suite.functions[id(seq)])
        r = random_relation(rng, lts.n_states)
        report = check_upto(lts, r, f, seq=seq)
        ok = report.conclusion != CONTAINED or (
            report.cross_check and r.is_subset(seq.bisimilarity())
        )
        yield 1, None if ok else f"{f.name} on {lts!r}"


def _checker_maximality(suite: _Suite):
    rng = suite.rng
    for _ in range(_clamp(suite.samples // 10, 10, 100)):
        lts, seq = _pick(rng, suite.systems)
        r = random_relation(rng, lts.n_states)
        any_success = any(
            check_upto(lts, r, f, seq=seq).conclusion == CONTAINED
            for f in suite.functions[id(seq)][:-1]
        )
        ok = not any_success or check_companion(lts, r).conclusion == CONTAINED
        yield 1, None if ok else f"a catalog function succeeded but lrf failed on {lts!r}"


def _gallery_law(suite: _Suite):
    for n in range(GALLERY_MAX + 1):
        verdict = verify_gallery(n)
        yield verdict.checked, verdict.discrepancy


def _gallery_consecutive_distinct(suite: _Suite):
    for n in range(GALLERY_MAX + 1):
        seq = compute_strata(build_T(n + 1).lts)
        ok = seq.stratum(n) != seq.stratum(n + 1)
        yield 1, None if ok else f"strata {n} and {n + 1} agree on T_{n + 1}"


def _chain_decreasing(suite: _Suite):
    for name, lat, prog in suite.progressions:
        zs = z_chain(lat, prog).zs
        for k in range(len(zs) - 1):
            ok = lat.le(zs[k + 1], zs[k]) and zs[k + 1] != zs[k]
            yield 1, None if ok else f"on {name}"


def _chain_step_related(suite: _Suite):
    for name, lat, prog in suite.progressions:
        zs = z_chain(lat, prog).zs
        for nxt, cur in [*zip(zs[1:], zs[:-1]), (zs[-1], zs[-1])]:
            yield 1, None if (nxt, cur) in prog.rel else f"on {name}"


def _companion_monotone(suite: _Suite):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = [companion_at(lat, prog, chain, x) for x in range(lat.size)]
        for x in range(lat.size):
            for y in range(lat.size):
                if lat.le(x, y):
                    yield 1, None if lat.le(comp[x], comp[y]) else f"on {name}"


def _companion_in_classes(suite: _Suite):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = tuple(companion_at(lat, prog, chain, x) for x in range(lat.size))
        ok = (
            is_r_monotone(lat, prog, comp)
            and is_monotone(lat, comp)
            and is_compatible(lat, prog, comp)
        )
        yield 1, None if ok else f"on {name}"


def _largest_coincidence(suite: _Suite):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = tuple(companion_at(lat, prog, chain, x) for x in range(lat.size))
        for cases, mode in ((1, "r_monotone"), (0, "compatible")):
            ok = brute_force_largest(lat, prog, mode) == comp
            yield cases, None if ok else f"{mode} mode on {name}"


def _bridge_agreement(suite: _Suite):
    bridge_systems = [build_T(1).lts]
    bridge_systems += [l for (l, _s) in suite.systems if l.n_states <= 2][:3]
    for lts in bridge_systems:
        lat, prog = lts_to_lattice(lts, max_states=2)
        chain = z_chain(lat, prog)
        seq = compute_strata(lts)
        for k in range(max(chain.stable_index, seq.epsilon) + 2):
            z = chain.zs[min(k, chain.stable_index)]
            ok = z == relation_element_index(seq.stratum(k))
            yield 1, None if ok else f"chain mismatch at {k} on {lts!r}"
        for mask in range(lat.size):
            r = element_relation(lts.n_states, mask)
            ok = companion_at(lat, prog, chain, mask) == relation_element_index(lrf(seq, r))
            yield 2, None if ok else f"companion mismatch on {lts!r}"
            ok = prog.s_vector[mask] == relation_element_index(largest_progressing_to(lts, r))
            yield 0, None if ok else f"s mismatch on {lts!r}"


def _aut_round_trip(suite: _Suite):
    for lts, _seq in suite.systems:
        yield 1, None if parse_aut(render_aut(lts)) == lts else f"{lts!r}"


# The checks in report order.  They draw from one random stream in this
# order, so moving a line changes the cases of every later check.
CHECKS = (
    # lts core
    ("progress-monotone", _progress_monotone),
    ("progress-union-closure", _progress_union_closure),
    ("largest-characterization", _largest_characterization),
    ("progress-iff-subset", _progress_iff_subset),
    # stratification
    ("strata-decreasing", _strata_decreasing),
    ("strata-index-monotone", _strata_index_monotone),
    ("strata-progress-step", _strata_progress_step),
    ("bisimilarity-self-progress", _bisimilarity_self_progress),
    ("strata-fixpoint", _strata_fixpoint),
    ("strata-equivalence", _strata_equivalence),
    ("bisimilarity-enumerated", _bisimilarity_enumerated),
    # companion
    ("lrf-monotone", _lrf_monotone),
    ("lrf-respectful", _lrf_respectful),
    ("lrf-sound-fixpoint", _lrf_sound_fixpoint),
    ("lrf-largest", _lrf_largest),
    ("lrf-idempotent", _lrf_idempotent),
    # checker
    ("checker-soundness", _checker_soundness),
    ("checker-maximality", _checker_maximality),
    # gallery
    ("gallery-law", _gallery_law),
    ("gallery-consecutive-distinct", _gallery_consecutive_distinct),
    # lattice
    ("lattice-chain-decreasing", _chain_decreasing),
    ("lattice-chain-step-related", _chain_step_related),
    ("lattice-companion-monotone", _companion_monotone),
    ("lattice-companion-in-classes", _companion_in_classes),
    ("lattice-largest-coincidence", _largest_coincidence),
    ("lattice-bridge-agreement", _bridge_agreement),
    # io
    ("aut-round-trip", _aut_round_trip),
)


def _monotone_classes(suite: _Suite) -> str:
    # report-only: how r-monotonicity and compatibility overlap for
    # monotone functions; no expectation is asserted either way
    classes = [
        classify_monotone_functions(lat, prog)
        for _name, lat, prog in suite.progressions
        if lat.size <= 4
    ]
    return (
        "monotone-function-classes "
        f"r_monotone_not_compatible={sum(c.n_r_monotone_not_compatible for c in classes)} "
        f"compatible_not_r_monotone={sum(c.n_compatible_not_r_monotone for c in classes)}"
    )


def run_verification(seed: int = 0, samples: int = 200) -> VerificationReport:
    if samples < 1:
        raise ValueError("samples must be positive")
    suite = _Suite(seed, samples)
    report = VerificationReport(seed=seed, samples=samples)
    for name, check in CHECKS:
        cases, failure = 0, None
        for step_cases, failure in check(suite):
            cases += step_cases
            if failure is not None:
                break
        report.checks.append(CheckResult(name, failure is None, cases, failure or ""))
    report.info.append(_monotone_classes(suite))
    return report
