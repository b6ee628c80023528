"""The seeded property suite: every library invariant, one pass/fail line each.

Runs against pools of randomly generated systems plus fixed small lattices,
with brute-force enumeration oracles wherever the state space allows.  The
report is deterministic for a fixed seed and sample count.

Each check is a generator over its cases, called with the suite and the
check's own random stream, that yields ``(cases, failure)``: the number of
cases the step just ran (0 when it only tests a precondition or a further
condition of a case already counted) and ``None`` or the detail to report.
``run_verification`` stops a check at its first failure, and runs the
checks on every CPU this process may use.  To add a check, write one such
generator and add one ``(name, generator)`` line to ``CHECKS``.
"""

from __future__ import annotations

import marshal
import os
import random
import sys
from functools import partial, reduce
from operator import or_
from typing import NamedTuple, NoReturn

from .companion import catalog, check_lrf_largest, is_respectful_on_samples, lrf, lrf_function
from .formats import parse_aut, render_aut
from .gallery import build_T, verify_gallery
from .lattice import (
    FiniteLattice,
    brute_force_largest,
    chain_companion,
    chain_lattice,
    classify_monotone_functions,
    companion_at,
    descending_chain,
    diamond_lattice,
    element_relation,
    is_compatible,
    is_monotone,
    is_r_monotone,
    m3_lattice,
    pentagon_lattice,
    powerset_lattice,
    z_chain,
)
from .checker import CONTAINED, check_upto
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


class CheckResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    detail: str = ""


class VerificationReport(NamedTuple):
    """The report of one run; checks and info are given as fresh lists (a
    list default would be one list shared by every report)."""

    seed: int
    samples: int
    checks: list[CheckResult]
    info: list[str]

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
    """What every check shares: systems and progressions, drawn from the
    seed's own stream."""

    def __init__(self, seed: int, samples: int):
        self.samples = samples
        rng = random.Random(seed)

        pool_n = _clamp(samples // 40, 6, 30)
        pool = random_lts_pool(rng, pool_n)
        # guarantee enumeration-sized systems for the brute-force checks
        while sum(1 for l in pool if l.n_states <= 3) < 4:
            pool.append(random_lts(rng, rng.randint(2, 3), 1, 0.4))
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
                    (name, lat, random_lattice_progression(rng, lat, rng.uniform(0.05, 0.4)))
                )


def _progress_monotone(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        r, s = progression_sample(rng, lts)
        if not progress_holds(lts, r, s):
            yield 0, "sampler produced a bad pair"
        sub = random_subrelation(rng, r)
        sup = s | random_relation(rng, lts.n_states, 0.3)
        ok = progress_holds(lts, sub, sup)
        yield 1, None if ok else f"shrunk source / grown target lost progress on {lts!r}"


def _progress_union_closure(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        s = random_relation(rng, lts.n_states)
        bound = largest_progressing_to(lts, s)
        r1 = random_subrelation(rng, bound)
        r2 = random_subrelation(rng, bound)
        if progress_holds(lts, r1, s) and progress_holds(lts, r2, s):
            ok = progress_holds(lts, r1 | r2, s)
            yield 1, None if ok else f"union broke progress on {lts!r}"


def _largest_characterization(suite: _Suite, rng: random.Random):
    for i in range(_clamp(suite.samples // 150, 1, 8)):
        lts, _seq = suite.small[i % len(suite.small)]
        everything, empty = _all_relations(lts.n_states), Relation.empty(lts.n_states)
        for _ in range(2):
            s = random_relation(rng, lts.n_states)
            computed = largest_progressing_to(lts, s)
            union = reduce(or_, (x for x in everything if progress_holds(lts, x, s)), empty)
            ok = union == computed
            yield 1, None if ok else f"enumerated union differs from computed largest on {lts!r}"


def _progress_iff_subset(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        lts, _seq = _pick(rng, suite.systems)
        r = random_relation(rng, lts.n_states)
        s = random_relation(rng, lts.n_states)
        direct = progress_holds(lts, r, s)
        via_largest = r.is_subset(largest_progressing_to(lts, s))
        yield 1, None if direct == via_largest else f"disagreement on {lts!r}"


def _strata_decreasing(suite: _Suite, rng: random.Random):
    for _lts, seq in suite.systems:
        for k in range(seq.epsilon):
            ok = seq.strata[k + 1] < seq.strata[k]
            yield 1, None if ok else f"stratum {k + 1} not strictly below"


def _strata_index_monotone(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples // 2):
        _lts, seq = _pick(rng, suite.systems)
        j = rng.randint(0, seq.epsilon + 3)
        k = rng.randint(j, seq.epsilon + 6)
        ok = seq.stratum(k).is_subset(seq.stratum(j))
        yield 1, None if ok else f"stratum {k} not inside stratum {j}"


def _without_ids(s: Relation) -> Relation:
    """s without its block ids: the row walk, not the signatures, decides progress to it."""
    return Relation.from_pairs(s.n_states, s.pairs)


def _strata_progress_step(suite: _Suite, rng: random.Random):
    for lts, seq in suite.systems:
        for k in range(seq.epsilon):
            ok = progress_holds(lts, seq.strata[k + 1], _without_ids(seq.strata[k]))
            yield 1, None if ok else f"step {k + 1} on {lts!r}"


def _bisimilarity_self_progress(suite: _Suite, rng: random.Random):
    for lts, seq in suite.systems:
        ok = progress_holds(lts, seq.bisimilarity(), _without_ids(seq.bisimilarity()))
        yield 1, None if ok else f"{lts!r}"


def _strata_fixpoint(suite: _Suite, rng: random.Random):
    for lts, seq in suite.systems:
        stable = seq.strata[seq.epsilon]
        once = largest_progressing_to(lts, _without_ids(stable))
        twice = largest_progressing_to(lts, once)  # the walk's result keeps no ids
        yield 1, None if once == stable and twice == stable else f"{lts!r}"


def _strata_equivalence(suite: _Suite, rng: random.Random):
    for _lts, seq in suite.systems:
        for stratum in seq.strata:
            yield 1, None if stratum.is_equivalence() else "non-equivalence stratum"


def _bisimilarity_enumerated(suite: _Suite, rng: random.Random):
    for i in range(_clamp(suite.samples // 100, 2, 10)):
        lts, seq = suite.small[i % len(suite.small)]
        selfprog = (x for x in _all_relations(lts.n_states) if progress_holds(lts, x, x))
        ok = reduce(or_, selfprog, Relation.empty(lts.n_states)) == seq.bisimilarity()
        yield 1, None if ok else f"union of self-progressing relations differs on {lts!r}"


def _lrf_monotone(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        s = random_relation(rng, seq.lts.n_states)
        r = random_subrelation(rng, s)
        yield 1, None if lrf(seq, r).is_subset(lrf(seq, s)) else f"on {seq.lts!r}"


def _lrf_respectful(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        lts, seq = _pick(rng, suite.systems)
        sample = progression_sample(rng, lts)
        verdict = is_respectful_on_samples(suite.functions[id(seq)][-1], [sample])
        yield verdict.samples_checked, verdict.counterexample and f"on {lts!r}"


def _lrf_sound_fixpoint(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        r = random_subrelation(rng, seq.bisimilarity())
        yield 1, None if lrf(seq, r) == seq.bisimilarity() else f"on {seq.lts!r}"


def _lrf_largest(suite: _Suite, rng: random.Random):
    per_system = _clamp(suite.samples // len(suite.systems), 5, 100)
    for lts, seq in suite.systems:
        rs = [random_relation(rng, lts.n_states) for _ in range(per_system)]
        verdict = check_lrf_largest(seq, suite.functions[id(seq)][:-1], rs)
        yield verdict.samples_checked, None if verdict.holds else (
            f"{verdict.counterexample.function_name} escapes lrf on {lts!r}"
        )


def _lrf_idempotent(suite: _Suite, rng: random.Random):
    for _ in range(suite.samples):
        _lts, seq = _pick(rng, suite.systems)
        image = lrf(seq, random_relation(rng, seq.lts.n_states))
        yield 1, None if lrf(seq, image) == image else f"on {seq.lts!r}"


def _proof_soundness(suite: _Suite, rng: random.Random):
    for _ in range(_clamp(suite.samples // 5, 20, 400)):
        lts, seq = _pick(rng, suite.systems)
        f = _pick(rng, suite.functions[id(seq)])
        r = random_relation(rng, lts.n_states)
        report = check_upto(lts, r, f, seq=seq)
        ok = report.conclusion != CONTAINED or (
            report.cross_check and r.is_subset(seq.bisimilarity())
        )
        yield 1, None if ok else f"{f.name} on {lts!r}"


def _proof_maximality(suite: _Suite, rng: random.Random):
    for _ in range(_clamp(suite.samples // 10, 10, 100)):
        lts, seq = _pick(rng, suite.systems)
        r = random_relation(rng, lts.n_states)
        *functions, lrf_fn = suite.functions[id(seq)]
        proves = lambda f: check_upto(lts, r, f, seq=seq).conclusion == CONTAINED
        ok = not any(map(proves, functions)) or proves(lrf_fn)
        yield 1, None if ok else f"a catalog function succeeded but lrf failed on {lts!r}"


def _gallery_law(suite: _Suite, rng: random.Random):
    for n in range(GALLERY_MAX + 1):
        verdict = verify_gallery(n)
        yield verdict.checked, verdict.discrepancy


def _gallery_consecutive_distinct(suite: _Suite, rng: random.Random):
    for n in range(GALLERY_MAX + 1):
        seq = compute_strata(build_T(n + 1))
        ok = seq.stratum(n) != seq.stratum(n + 1)
        yield 1, None if ok else f"strata {n} and {n + 1} agree on T_{n + 1}"


def _chain_decreasing(suite: _Suite, rng: random.Random):
    for name, lat, prog in suite.progressions:
        zs = z_chain(lat, prog).zs
        for k in range(len(zs) - 1):
            ok = lat.le(zs[k + 1], zs[k]) and zs[k + 1] != zs[k]
            yield 1, None if ok else f"on {name}"


def _chain_step_related(suite: _Suite, rng: random.Random):
    for name, lat, prog in suite.progressions:
        zs = z_chain(lat, prog).zs
        for nxt, cur in [*zip(zs[1:], zs[:-1]), (zs[-1], zs[-1])]:
            yield 1, None if (nxt, cur) in prog.rel else f"on {name}"


def _companion_monotone(suite: _Suite, rng: random.Random):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = [companion_at(lat, prog, chain, x) for x in range(lat.size)]
        for x in range(lat.size):
            for y in range(lat.size):
                if lat.le(x, y):
                    yield 1, None if lat.le(comp[x], comp[y]) else f"on {name}"


def _companion_in_classes(suite: _Suite, rng: random.Random):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = tuple(companion_at(lat, prog, chain, x) for x in range(lat.size))
        ok = (
            is_r_monotone(lat, prog, comp)
            and is_monotone(lat, comp)
            and is_compatible(lat, prog, comp)
        )
        yield 1, None if ok else f"on {name}"


def _largest_coincidence(suite: _Suite, rng: random.Random):
    for name, lat, prog in suite.progressions:
        chain = z_chain(lat, prog)
        comp = tuple(companion_at(lat, prog, chain, x) for x in range(lat.size))
        for cases, mode in ((1, "r_monotone"), (0, "compatible")):
            ok = brute_force_largest(lat, prog, mode) == comp
            yield cases, None if ok else f"{mode} mode on {name}"


def _bridge_agreement(suite: _Suite, rng: random.Random):
    # the companion on the powerset of pairs: the chain of largest_progressing_to
    # from the full relation is the strata, and its companion is lrf
    t1 = build_T(1)
    systems = [(t1, compute_strata(t1)), *suite.systems]
    per_system = _clamp(suite.samples // len(systems), 5, 100)
    for lts, seq in systems:
        n = lts.n_states
        zs = descending_chain(
            Relation.full(n), partial(largest_progressing_to, lts), Relation.is_subset
        )
        for k in range(max(len(zs) - 1, seq.epsilon) + 2):
            ok = zs[min(k, len(zs) - 1)] == seq.stratum(k)
            yield 1, None if ok else f"chain mismatch at {k} on {lts!r}"
        rs = [random_relation(rng, n) for _ in range(per_system)] if n > 2 else _all_relations(n)
        for r in rs:
            ok = chain_companion(zs, r, Relation.is_subset, Relation.intersect) == lrf(seq, r)
            yield 1, None if ok else f"companion mismatch on {lts!r}"


def _aut_round_trip(suite: _Suite, rng: random.Random):
    for lts, _seq in suite.systems:
        yield 1, None if parse_aut(render_aut(lts)) == lts else f"{lts!r}"


# The checks in report order.  Each draws from its own stream, seeded by the
# suite's seed and the check's name, so its cases do not depend on its place.
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
    ("checker-soundness", _proof_soundness),
    ("checker-maximality", _proof_maximality),
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


def _cpu_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_check(suite: _Suite, seed: int, checks, index: int) -> tuple:
    """Check ``index``'s result ``(index, name, passed, cases, detail)``; a
    check that raises gives ``passed`` None and the exception as detail."""
    name, check = checks[index]
    cases, failure = 0, None
    try:
        for step_cases, failure in check(suite, random.Random(f"{seed}:{name}")):
            cases += step_cases
            if failure is not None:
                break
    except Exception as error:
        return index, name, None, cases, error
    return index, name, failure is None, cases, failure or ""


def _drain(suite: _Suite, seed: int, checks, queue: int):
    """The results of the checks whose indices this process takes from the
    queue, one byte each, until the queue is empty or a check has raised."""
    while taken := os.read(queue, 1):
        result = _run_check(suite, seed, checks, taken[0])
        yield result
        if result[2] is None:
            return


def _fork_worker(suite: _Suite, seed: int, checks, queue: int):
    """A forked worker's pid and the pipe its results arrive on, one
    marshalled result per check; None when the fork fails."""
    incoming, outgoing = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(incoming)
        os.close(outgoing)
        return None
    if pid:
        os.close(outgoing)
        return pid, incoming
    status = 1
    try:
        os.close(incoming)
        with open(outgoing, "wb") as out:
            for result in _drain(suite, seed, checks, queue):
                if result[2] is None:
                    result = (*result[:4], _portable(result[4]))
                marshal.dump(result, out)
                out.flush()
        status = 0
    finally:
        os._exit(status)


def _portable(error: Exception) -> tuple:
    """An exception as marshal can carry it: its type's module and name, its
    arguments (else its message) and its attributes (else none)."""
    args, attributes = error.args, vars(error)
    try:
        marshal.dumps(args)
    except ValueError:
        args = (str(error),)
    try:
        marshal.dumps(attributes)
    except ValueError:
        attributes = {}
    return type(error).__module__, type(error).__qualname__, args, attributes


def _reraise(error) -> NoReturn:
    """Raise a check's exception, or its copy from a worker: made by the
    type's ``__new__`` alone, since ``__init__`` would rebuild its arguments,
    with the attributes its ``__init__`` set restored."""
    if isinstance(error, BaseException):
        raise error
    module, name, args, attributes = error
    kind = getattr(sys.modules.get(module), name, None)
    if isinstance(kind, type) and issubclass(kind, Exception):
        copy = kind.__new__(kind, *args)
        vars(copy).update(attributes)
        raise copy
    raise RuntimeError(f"a verify worker raised {module}.{name}{args!r}")


def run_verification(seed: int = 0, samples: int = 200) -> VerificationReport:
    """Run every check of ``CHECKS`` on the suite of ``seed`` and ``samples``.

    The suite is built once.  Then one worker is forked per further CPU
    this process may run on, at most one per check, and the workers and
    this process take check indices from one pipe until it is empty.  The
    report is the same for any number of workers.  An exception in a check
    is raised here, that of the first such check in registry order.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    suite = _Suite(seed, samples)
    checks = CHECKS
    queue, feed = os.pipe()
    os.write(feed, bytes(range(len(checks))))
    os.close(feed)
    n_workers = min(_cpu_count(), len(checks)) - 1 if hasattr(os, "fork") else 0
    results = {}
    workers = []
    try:
        for _ in range(n_workers):
            worker = _fork_worker(suite, seed, checks, queue)
            if worker is None:
                break
            workers.append(worker)
        for result in _drain(suite, seed, checks, queue):
            results[result[0]] = result
        info = [_monotone_classes(suite)]
        for _pid, incoming in workers:
            with open(incoming, "rb", closefd=False) as stream:
                while True:
                    try:
                        result = marshal.load(stream)
                    except EOFError:
                        break
                    results[result[0]] = result
    except BaseException:
        for pid, _incoming in workers:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        os.close(queue)
        for pid, incoming in workers:
            os.close(incoming)
            os.waitpid(pid, 0)

    report = VerificationReport(seed, samples, [], info)
    for index in range(len(checks)):
        if index not in results:
            unfinished = [checks[i][0] for i in range(len(checks)) if i not in results]
            raise RuntimeError(f"verify workers ended without a result for {', '.join(unfinished)}")
        _index, name, passed, cases, detail = results[index]
        if passed is None:
            _reraise(detail)
        report.checks.append(CheckResult(name, passed, cases, detail))
    return report
