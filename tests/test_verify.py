"""The verify suite's run on several CPUs: forked workers draining one queue."""

import os
import signal
import time
from pathlib import Path

import pytest

import upto.verify
from upto.cli import main
from upto.formats import AutParseError
from upto.gallery import GalleryVerdict, verify_gallery
from upto.lattice import LatticeValidationError
from upto.verify import run_verification

DATA = Path(__file__).parent / "data"
PINNED = [(42, 1000), (1001, 1000), (7, 30)]


def pinned(seed, samples):
    return (DATA / f"verify_seed{seed}_samples{samples}.txt").read_text()


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def cpus(monkeypatch, n):
    monkeypatch.setattr("upto.verify._cpu_count", lambda: n)


def forks_counted(monkeypatch):
    """The number of workers this process forks, appended to the list."""
    forked = []
    fork_worker = upto.verify._fork_worker

    def counted(*args):
        worker = fork_worker(*args)
        forked.append(worker)
        return worker

    monkeypatch.setattr("upto.verify._fork_worker", counted)
    return forked


def planted(monkeypatch, check):
    """CHECKS replaced by two checks, "first" and "second", both ``check``."""
    monkeypatch.setattr("upto.verify.CHECKS", (("first", check), ("second", check)))


@pytest.fixture
def in_a_worker():
    """Makes a check that calls ``act`` in a worker and passes in the parent.

    The parent's check waits on a pipe until the worker's has started, so
    with two CPUs and two such checks the worker runs exactly one of them.
    """
    read_end, write_end = os.pipe()
    parent = os.getpid()

    def make(act):
        def check(suite, rng):
            if os.getpid() == parent:
                os.read(read_end, 1)
                yield 1, None
            else:
                os.write(write_end, b"x")
                act()

        return check

    yield make
    os.close(read_end)
    os.close(write_end)


@pytest.mark.parametrize("n_cpus", [1, 2, 4])
@pytest.mark.parametrize("seed, samples", PINNED)
def test_report_is_the_same_for_any_cpu_count(monkeypatch, n_cpus, seed, samples):
    cpus(monkeypatch, n_cpus)
    forked = forks_counted(monkeypatch)
    assert run_verification(seed, samples).render() == pinned(seed, samples)
    assert len(forked) == n_cpus - 1


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_check_lines_do_not_depend_on_registry_order(monkeypatch, n_cpus):
    cpus(monkeypatch, n_cpus)
    monkeypatch.setattr("upto.verify.CHECKS", upto.verify.CHECKS[::-1])
    lines = run_verification(7, 30).render().splitlines()
    expected = pinned(7, 30).splitlines()
    # header, 27 check lines, info, blank line, result
    assert lines[4:31] == expected[4:31][::-1]
    assert lines[:4] + lines[31:] == expected[:4] + expected[31:]


def test_workers_inherit_a_patched_dependency(capsys, monkeypatch):
    cpus(monkeypatch, 3)

    def flawed(n):
        verdict = verify_gallery(n)
        return GalleryVerdict(verdict.checked, "planted") if n == 3 else verdict

    monkeypatch.setattr("upto.verify.verify_gallery", flawed)
    assert main(["verify", "--seed", "7", "--samples", "30"]) == 1
    cases = sum(verify_gallery(n).checked for n in range(4))
    expected = (
        pinned(7, 30)
        .replace("ok gallery-law cases=1008", f"FAIL gallery-law cases={cases} detail=planted")
        .replace("27 passed, 0 failed", "26 passed, 1 failed")
    )
    assert capsys.readouterr().out == expected


def test_a_failed_fork_leaves_fewer_workers(monkeypatch):
    cpus(monkeypatch, 3)

    def refuse():
        raise OSError("no more processes")

    monkeypatch.setattr(os, "fork", refuse)
    assert run_verification(7, 30).render() == pinned(7, 30)


@pytest.mark.parametrize("kind", [ValueError, AutParseError])
def test_an_exception_in_the_parent_reaches_the_caller(capsys, monkeypatch, kind):
    cpus(monkeypatch, 1)

    def raising(suite, rng):
        raise kind("planted failure")
        yield

    planted(monkeypatch, raising)
    with pytest.raises(kind, match="^planted failure$"):
        run_verification(7, 30)
    assert main(["verify", "--seed", "7", "--samples", "30"]) == 2
    assert capsys.readouterr().err == "error: planted failure\n"


@pytest.mark.parametrize("kind", [ValueError, AutParseError])
def test_an_exception_in_a_worker_reaches_the_caller(capsys, monkeypatch, in_a_worker, kind):
    cpus(monkeypatch, 2)

    def fail():
        raise kind("planted failure")

    planted(monkeypatch, in_a_worker(fail))
    with pytest.raises(kind, match="^planted failure$") as raised:
        run_verification(7, 30)
    assert type(raised.value) is kind
    assert main(["verify", "--seed", "7", "--samples", "30"]) == 2
    assert capsys.readouterr().err == "error: planted failure\n"


def test_an_exception_without_marshallable_arguments_keeps_its_message(monkeypatch, in_a_worker):
    cpus(monkeypatch, 2)

    def fail():
        raise KeyError(object)

    planted(monkeypatch, in_a_worker(fail))
    with pytest.raises(KeyError, match="<class 'object'>"):
        run_verification(7, 30)


def test_an_exception_from_a_worker_keeps_its_arguments_and_message(monkeypatch, in_a_worker):
    # its __init__ builds the message from a list of violations, so calling
    # the class with the message would split the message into characters
    cpus(monkeypatch, 2)
    planted_error = LatticeValidationError(["not reflexive: a", "missing join of a and b"])

    def fail():
        raise planted_error

    planted(monkeypatch, in_a_worker(fail))
    with pytest.raises(LatticeValidationError) as raised:
        run_verification(7, 30)
    assert type(raised.value) is LatticeValidationError
    assert raised.value.args == planted_error.args
    assert raised.value.violations == planted_error.violations
    message = "not a complete lattice: not reflexive: a; missing join of a and b"
    assert str(raised.value) == str(planted_error) == message


def test_a_killed_worker_names_its_unfinished_check(monkeypatch, in_a_worker):
    cpus(monkeypatch, 2)
    planted(monkeypatch, in_a_worker(lambda: os.kill(os.getpid(), signal.SIGKILL)))
    with pytest.raises(RuntimeError, match="without a result for (first|second)$"):
        run_verification(7, 30)


def test_the_parent_unwinding_kills_its_workers(monkeypatch):
    cpus(monkeypatch, 2)
    parent = os.getpid()

    def interrupted_in_the_parent(suite, rng):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)
        yield 1, None

    planted(monkeypatch, interrupted_in_the_parent)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_verification(7, 30)
    # the sleeping worker was killed, not waited for
    assert time.monotonic() - start < 30
