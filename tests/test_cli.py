import atexit
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from upto.cli import main
from upto.formats import MAX_RENDERED_PAIRS
from upto.gallery import GalleryVerdict, verify_gallery
from upto.lts import MAX_LATTICE_ELEMENTS, MAX_STATES, MAX_TABLE_SLOTS
from upto.verify import run_verification

T2_AUT = 'des (0,3,3)\n(1,"t",0)\n(2,"t",0)\n(2,"t",1)\n'
LOOP_CYCLE_AUT = 'des (0,3,3)\n(0,"a",0)\n(1,"a",2)\n(2,"a",1)\n'
DEAD_LOOP_AUT = 'des (0,1,2)\n(1,"a",1)\n'
DIAMOND_JSON = (
    '{"elements": ["bot", "x", "y", "top"],'
    ' "cover": [["bot","x"],["bot","y"],["x","top"],["y","top"]]}'
)
VERIFY_SEED7_SAMPLES30 = Path(__file__).parent / "data" / "verify_seed7_samples30.txt"
VERIFY_SEED42_SAMPLES1000 = Path(__file__).parent / "data" / "verify_seed42_samples1000.txt"
VERIFY_SEED1001_SAMPLES1000 = Path(__file__).parent / "data" / "verify_seed1001_samples1000.txt"


@pytest.fixture
def t2_file(tmp_path):
    p = tmp_path / "t2.aut"
    p.write_text(T2_AUT)
    return str(p)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestStrataCommands:
    def test_strata(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "strata", t2_file)
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("~0 = {(0,0), (0,1)")
        assert lines[1] == "~1 = {(0,0), (1,1), (1,2), (2,1), (2,2)}"
        assert lines[2] == "~2 = {(0,0), (1,1), (2,2)}"
        assert lines[3] == "epsilon = 2"

    def test_bisim(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "bisim", t2_file)
        assert code == 0
        assert out == "bisimilarity = {(0,0), (1,1), (2,2)}\n"

    def test_companion(self, capsys, t2_file, tmp_path):
        rel = tmp_path / "r.txt"
        rel.write_text("1 2\n")
        code, out, _ = run_cli(capsys, "companion", t2_file, str(rel))
        assert code == 0
        assert "lrf(R) = {(0,0), (1,1), (1,2), (2,1), (2,2)}" in out
        assert "stratum = 1" in out


class TestCheckUptoCommand:
    def test_accepting_run(self, capsys, tmp_path):
        lts = tmp_path / "l.aut"
        lts.write_text(LOOP_CYCLE_AUT)
        rel = tmp_path / "r.txt"
        rel.write_text("0 1\n")
        code, out, _ = run_cli(capsys, "check-upto", str(lts), str(rel))
        assert code == 0
        assert "conclusion = contained_in_bisimilarity" in out
        assert "cross_check = true" in out

    def test_rejecting_run(self, capsys, tmp_path):
        lts = tmp_path / "l.aut"
        lts.write_text(DEAD_LOOP_AUT)
        rel = tmp_path / "r.txt"
        rel.write_text("0 1\n")
        code, out, _ = run_cli(capsys, "check-upto", str(lts), str(rel))
        assert code == 1
        assert "progression = fails" in out
        assert "unmatched" in out
        assert "cross_check = false" in out

    def test_empty_relation_accepted(self, capsys, t2_file, tmp_path):
        rel = tmp_path / "r.txt"
        rel.write_text("")
        code, out, _ = run_cli(capsys, "check-upto", t2_file, str(rel))
        assert code == 0

    def test_catalog_function_choice(self, capsys, t2_file, tmp_path):
        rel = tmp_path / "r.txt"
        rel.write_text("")
        code, out, _ = run_cli(capsys, "check-upto", t2_file, str(rel), "--fn", "upto_bisim")
        assert code == 0
        assert "function = upto_bisim" in out

    def test_unknown_function_is_input_error(self, capsys, t2_file, tmp_path):
        rel = tmp_path / "r.txt"
        rel.write_text("")
        code, _, err = run_cli(capsys, "check-upto", t2_file, str(rel), "--fn", "mystery")
        assert code == 2
        assert "unknown up-to function" in err

    def test_relation_name_from_document(self, capsys, tmp_path):
        lts = tmp_path / "l.aut"
        lts.write_text(LOOP_CYCLE_AUT)
        rel = tmp_path / "r.json"
        rel.write_text('{"name": "demo", "pairs": [[0, 1]]}')
        code, out, _ = run_cli(capsys, "check-upto", str(lts), str(rel))
        assert code == 0
        assert "relation = demo" in out

    @pytest.mark.parametrize(
        "name", ['"R\\nconclusion = contained_in_bisimilarity"', '"R\\r"', "7", '["R"]']
    )
    def test_relation_name_must_be_one_line_of_text(self, capsys, tmp_path, name):
        lts = tmp_path / "l.aut"
        lts.write_text(DEAD_LOOP_AUT)
        rel = tmp_path / "r.json"
        rel.write_text('{"name": ' + name + ', "pairs": [["0", "1"]]}')
        code, out, err = run_cli(capsys, "check-upto", str(lts), str(rel))
        assert code == 2
        assert out == ""
        assert err.startswith("error: relation name")

    @pytest.mark.parametrize("token", ["\u0661", "\u00b2", "\uff11"])
    def test_non_ascii_digits_are_not_state_indices(self, capsys, tmp_path, token):
        lts = tmp_path / "l.aut"
        lts.write_text(LOOP_CYCLE_AUT)
        rel = tmp_path / "r.txt"
        rel.write_text(f"{token} 0\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "check-upto", str(lts), str(rel))
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot resolve state")


class TestGalleryCommand:
    def test_emit(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "2")
        assert code == 0
        assert out == T2_AUT

    def test_verify(self, capsys):
        code, out, _ = run_cli(capsys, "gallery", "3", "--verify")
        assert code == 0
        assert "pass" in out


PENTAGON_LEQ_JSON = (
    '{"elements": ["bot", "a", "b", "c", "top"], "leq": ['
    '["bot","bot"],["bot","a"],["bot","b"],["bot","c"],["bot","top"],'
    '["a","a"],["a","c"],["a","top"],["b","b"],["b","top"],'
    '["c","c"],["c","top"],["top","top"]]}'
)
CHAIN4_JSON = '{"elements": ["c0", "c1", "c2", "c3"], "cover": [["c0","c1"],["c1","c2"],["c2","c3"]]}'

# (lattice, progression, full stdout); each progression file is the whole
# progression, so parsing it leaves nothing for a closure to add
LATTICE_COMPANION_RUNS = {
    "diamond-cover-order": (
        DIAMOND_JSON,
        '{"pairs": [["bot", "bot"], ["bot", "x"], ["bot", "y"], ["bot", "top"], '
        '["x", "x"], ["x", "top"], ["y", "y"], ["y", "top"], ["top", "top"]]}',
        "z[0] = top\n"
        "stable at index 0\n"
        "companion(bot) = top\n"
        "companion(x) = top\n"
        "companion(y) = top\n"
        "companion(top) = top\n",
    ),
    # s(top) = c, s(c) = a, s(a) = bot: a chain of length four that skips b
    "pentagon-leq": (
        PENTAGON_LEQ_JSON,
        "bot bot\nbot a\nbot b\nbot c\nbot top\na c\na top\nc top\n",
        "z[0] = top\n"
        "z[1] = c\n"
        "z[2] = a\n"
        "z[3] = bot\n"
        "stable at index 3\n"
        "companion(bot) = bot\n"
        "companion(a) = a\n"
        "companion(b) = top\n"
        "companion(c) = c\n"
        "companion(top) = top\n",
    ),
    # s(c3) = c2 and s(c2) = c0, so c1 is sent up to c2
    "chain4-cover": (
        CHAIN4_JSON,
        "c0 c0\nc0 c1\nc0 c2\nc0 c3\nc1 c3\nc2 c3\n",
        "z[0] = c3\n"
        "z[1] = c2\n"
        "z[2] = c0\n"
        "stable at index 2\n"
        "companion(c0) = c0\n"
        "companion(c1) = c2\n"
        "companion(c2) = c2\n"
        "companion(c3) = c3\n",
    ),
}


class TestLatticeCompanionCommand:
    @pytest.mark.parametrize("name", sorted(LATTICE_COMPANION_RUNS))
    def test_full_output_is_pinned(self, capsys, tmp_path, name):
        lattice, progression, expected = LATTICE_COMPANION_RUNS[name]
        lat = tmp_path / "lat.json"
        lat.write_text(lattice)
        prog = tmp_path / "prog.rel"
        prog.write_text(progression)
        assert run_cli(capsys, "lattice-companion", str(lat), str(prog)) == (0, expected, "")

    def test_order_progression(self, capsys, tmp_path):
        lat = tmp_path / "lat.json"
        lat.write_text(DIAMOND_JSON)
        prog = tmp_path / "prog.json"
        pairs = [
            ["bot", "bot"], ["bot", "x"], ["bot", "y"], ["bot", "top"],
            ["x", "x"], ["x", "top"], ["y", "y"], ["y", "top"], ["top", "top"],
        ]
        prog.write_text('{"pairs": ' + str(pairs).replace("'", '"') + "}")
        code, out, _ = run_cli(capsys, "lattice-companion", str(lat), str(prog))
        assert code == 0
        assert "z[0] = top" in out
        assert "stable at index 0" in out
        assert "companion(bot) = top" in out

    def test_invalid_progression_is_input_error(self, capsys, tmp_path):
        lat = tmp_path / "lat.json"
        lat.write_text(DIAMOND_JSON)
        prog = tmp_path / "prog.json"
        prog.write_text('{"pairs": [["top", "top"]]}')
        code, _, err = run_cli(capsys, "lattice-companion", str(lat), str(prog))
        assert code == 2
        assert "not a progression" in err

    @pytest.mark.parametrize(
        "document", ['{"elements": 5, "leq": []}', '{"elements": ["a"], "leq": 5}']
    )
    def test_malformed_lattice_is_input_error(self, capsys, tmp_path, document):
        lat = tmp_path / "lat.json"
        lat.write_text(document)
        prog = tmp_path / "prog.json"
        prog.write_text('{"pairs": []}')
        code, out, err = run_cli(capsys, "lattice-companion", str(lat), str(prog))
        assert code == 2
        assert out == ""
        assert err.startswith("error: lattice document")
        assert "Traceback" not in err

    def test_element_name_cannot_forge_output_lines(self, tmp_path):
        lat = tmp_path / "lat.json"
        lat.write_text('{"elements": ["a\\nstable at index 9"], "cover": []}')
        prog = tmp_path / "prog.json"
        prog.write_text('{"pairs": [["a\\nstable at index 9", "a\\nstable at index 9"]]}')
        run = subprocess.run(
            [sys.executable, "-m", "upto", "lattice-companion", str(lat), str(prog)],
            capture_output=True, text=True,
        )
        assert run.returncode == 2
        assert run.stdout == ""
        assert run.stderr.startswith("error: lattice element name")
        assert "Traceback" not in run.stderr

    @pytest.mark.parametrize("name", ['"a\\r"', '"a\\u2028b"', "7", "null", '["a"]'])
    def test_element_name_must_be_one_line_of_text(self, capsys, tmp_path, name):
        lat = tmp_path / "lat.json"
        lat.write_text('{"elements": [' + name + '], "leq": []}')
        prog = tmp_path / "prog.json"
        prog.write_text('{"pairs": []}')
        code, out, err = run_cli(capsys, "lattice-companion", str(lat), str(prog))
        assert code == 2
        assert out == ""
        assert err.startswith("error: lattice element name")


class TestErrorsAndPlumbing:
    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.aut"
        bad.write_text("des oops\n")
        code, _, err = run_cli(capsys, "strata", str(bad))
        assert code == 2
        assert "malformed header" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("des (0,1,\u0662)\n(0,\"a\",1)\n", "malformed header"),
            ("des (\u0660,1,2)\n(0,\"a\",1)\n", "malformed header"),
            ("des (0,1,2)\n(\u0660,\"a\",1)\n", "malformed transition"),
        ],
    )
    def test_non_ascii_digits_in_aut_rejected(self, capsys, tmp_path, text, message):
        bad = tmp_path / "bad.aut"
        bad.write_text(text, encoding="utf-8")
        code, out, err = run_cli(capsys, "strata", str(bad))
        assert code == 2
        assert out == ""
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["gallery", "\u0662"], ["verify", "--seed", "\u0661"], ["verify", "--samples", "\u0663"]]
    )
    def test_integer_arguments_take_ascii_digits_only(self, capsys, argv):
        # int() would read these Arabic-Indic digits as 2, 1 and 3
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        out, err = capsys.readouterr()
        assert exit_info.value.code == 2
        assert out == ""
        assert "use ASCII digits" in err and "Traceback" not in err

    def test_negative_gallery_index_keeps_its_message(self, capsys):
        code, out, err = run_cli(capsys, "gallery", "-1")
        assert (code, out, err) == (2, "", "error: n must be non-negative\n")

    # --verify on T_n also builds T_{n+1}
    @pytest.mark.parametrize(
        "argv, n", [(["1414"], 1414), (["1413", "--verify"], 1414), (["1414", "--verify"], 1414)]
    )
    def test_gallery_past_the_transition_budget(self, capsys, argv, n):
        code, out, err = run_cli(capsys, "gallery", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: T_{n} has {n * (n + 1) // 2} transitions; at most 1000000 are built\n"

    def test_gallery_of_a_huge_n_exits_at_once(self, capsys):
        n = 10**40
        code, out, err = run_cli(capsys, "gallery", str(n))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: T_{n} has ") and err.endswith(" at most 1000000 are built\n")

    def test_gallery_at_the_transition_budget(self, capsys, monkeypatch):
        # T_3 has 6 transitions and T_4 10: under a budget of 6, T_3 is the
        # largest system gallery emits and gallery 2 --verify the largest check
        monkeypatch.setattr("upto.gallery.MAX_GALLERY_TRANSITIONS", 6)
        code, out, _ = run_cli(capsys, "gallery", "3")
        assert (code, out.splitlines()[0]) == (0, "des (0,6,4)")
        assert run_cli(capsys, "gallery", "2", "--verify")[0] == 0
        assert run_cli(capsys, "gallery", "4") == (
            2, "", "error: T_4 has 10 transitions; at most 6 are built\n"
        )
        assert run_cli(capsys, "gallery", "3", "--verify") == (
            2, "", "error: T_4 has 10 transitions; at most 6 are built\n"
        )

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "strata", "/nonexistent/x.aut")
        assert code == 2

    def test_export_dot(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "export-dot", t2_file)
        assert code == 0
        assert out.startswith("digraph lts {")

    def test_memory_error_is_input_error(self, capsys, t2_file, monkeypatch):
        # numpy names the allocation; a bare MemoryError from the interpreter has no text
        for error, reason in (
            (MemoryError("Unable to allocate 400 GiB"), "Unable to allocate 400 GiB"),
            (MemoryError(), "out of memory"),
        ):
            def too_large(lts):
                raise error

            monkeypatch.setattr("upto.cli.compute_strata", too_large)
            code, out, err = run_cli(capsys, "bisim", t2_file)
            assert code == 2
            assert out == ""
            assert err == f"error: input too large: {reason}\n"
            assert "Traceback" not in err

    def test_verify_small(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "30")
        assert code == 0
        assert "result:" in out
        assert "0 failed" in out
        # pinned bytes: a refactor of the suite must not change its report
        assert out == VERIFY_SEED7_SAMPLES30.read_text()

    def test_verify_full_budget_report_is_pinned(self):
        # at 1000 samples every lattice gets its full budget of progressions
        report = run_verification(42, 1000)
        assert report.all_passed
        assert report.render() == VERIFY_SEED42_SAMPLES1000.read_text()

    def test_verify_benchmark_seed_report_is_pinned(self):
        # the first seed every verify benchmark run shares
        assert run_verification(1001, 1000).render() == VERIFY_SEED1001_SAMPLES1000.read_text()

    def test_verify_reports_a_failing_check(self, capsys, monkeypatch):
        def flawed(n):
            verdict = verify_gallery(n)
            return GalleryVerdict(verdict.checked, "planted") if n == 3 else verdict

        monkeypatch.setattr("upto.verify.verify_gallery", flawed)
        code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "30")
        assert code == 1
        cases = sum(verify_gallery(n).checked for n in range(4))
        # only the failing line and the totals differ: the later checks still run
        expected = (
            VERIFY_SEED7_SAMPLES30.read_text()
            .replace("ok gallery-law cases=1008", f"FAIL gallery-law cases={cases} detail=planted")
            .replace("27 passed, 0 failed", "26 passed, 1 failed")
        )
        assert out == expected

    def test_verify_reports_a_precondition_failure_without_a_case(self, capsys, monkeypatch):
        monkeypatch.setattr("upto.verify.progress_holds", lambda lts, r, s: False)
        code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "30")
        assert code == 1
        lines = out.splitlines()
        assert lines[4] == "FAIL progress-monotone cases=0 detail=sampler produced a bad pair"
        n_failed = sum(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == f"result: 27 checks, {27 - n_failed} passed, {n_failed} failed"


# runs upto.cli.main(argv) in an interpreter where importing numpy fails
WITHOUT_NUMPY = (
    "import sys\n"
    "sys.modules['numpy'] = None\n"
    "import upto.cli\n"
    "sys.exit(upto.cli.main(sys.argv[1:]))\n"
)


class TestWithoutNumpy:
    @pytest.mark.parametrize(
        "argv",
        [
            ["strata", "{t2}"],
            ["bisim", "{t2}"],
            ["companion", "{t2}", "{rel}"],
            ["check-upto", "{t2}", "{rel}", "--fn", "lrf"],
            ["check-upto", "{t2}", "{rel}", "--fn", "upto_bisim"],
            ["gallery", "3"],
            ["gallery", "3", "--verify"],
            ["lattice-companion", "{lattice}", "{progression}"],
            ["verify", "--samples", "50"],
            ["export-dot", "{t2}"],
        ],
        ids=lambda argv: " ".join(a for a in argv if not a.startswith("{")),
    )
    def test_command_needs_no_numpy(self, capsys, tmp_path, argv):
        lattice, progression, _ = LATTICE_COMPANION_RUNS["pentagon-leq"]
        files = {"t2": T2_AUT, "rel": "1 2\n", "lattice": lattice, "progression": progression}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]
        code, out, _ = run_cli(capsys, *argv)
        blocked = subprocess.run(
            [sys.executable, "-c", WITHOUT_NUMPY, *argv], capture_output=True, text=True
        )
        assert "Traceback" not in blocked.stderr, blocked.stderr
        assert (blocked.returncode, blocked.stdout) == (code, out)


class TestInProcessStdout:
    """A caller that runs ``main`` in its own process with ``sys.stdout``
    swapped, as the benchmark's tracer does, gets every byte a separate
    process would print, and its own stdout gets none: no write around the
    swapped stream, no buffer flushed later, no exit hook, thread or
    unreaped child left behind."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["strata", "{t2}"],
            ["bisim", "{t2}"],
            ["bisim", "{bad}"],
            ["companion", "{t2}", "{rel}"],
            ["check-upto", "{t2}", "{rel}", "--fn", "lrf"],
            ["check-upto", "{loop}", "{pair}", "--fn", "upto_bisim"],
            ["gallery", "3"],
            ["gallery", "3", "--verify"],
            ["lattice-companion", "{lattice}", "{progression}"],
            ["verify", "--seed", "7", "--samples", "30"],
            ["export-dot", "{t2}"],
        ],
        ids=lambda argv: " ".join(a.strip("{}") for a in argv),
    )
    def test_output_reaches_the_swapped_stream_only(self, capfd, monkeypatch, tmp_path, argv):
        lattice, progression, _ = LATTICE_COMPANION_RUNS["pentagon-leq"]
        files = {
            "t2": T2_AUT, "bad": "des (0,1,2)\n(0,a,1)\n", "loop": LOOP_CYCLE_AUT,
            "rel": "1 2\n", "pair": "0 1\n", "lattice": lattice, "progression": progression,
        }
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        argv = [a.format(**{name: str(tmp_path / name) for name in files}) for a in argv]

        # every process a command makes is forked by os.fork
        forked = []
        fork = os.fork

        def recorded_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded_fork)
        stdout, threads = sys.stdout, set(threading.enumerate())
        hooks = atexit._ncallbacks()  # CPython's count of registered exit hooks
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        assert sys.stdout is stdout
        assert capfd.readouterr().out == ""
        assert (atexit._ncallbacks(), set(threading.enumerate())) == (hooks, threads)
        for pid in forked:
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

        alone = subprocess.run([sys.executable, "-m", "upto", *argv], capture_output=True)
        assert (alone.returncode, alone.stdout) == (code, buffer.getvalue().encode())


# runs upto.cli.main(argv) with its address space capped at 768 MB
CAPPED = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (768 << 20, 768 << 20))\n"
    "import upto.cli\n"
    "sys.exit(upto.cli.main(sys.argv[1:]))\n"
)


class TestRenderLimit:
    # with no transitions every state is bisimilar to every other: n^2 pairs
    @pytest.mark.parametrize("n", [100000, 1001])
    def test_bisim_refuses_a_relation_past_the_limit(self, tmp_path, n):
        aut = tmp_path / "idle.aut"
        aut.write_text(f"des (0,0,{n})\n")
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, "bisim", str(aut)],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert f"relation has {n * n} pairs; at most {MAX_RENDERED_PAIRS} " in done.stderr

    def test_strata_fails_before_building_the_later_strata(self, tmp_path):
        # stratum 0 of a 3000-state path has 9 * 10^6 pairs; its 3000 strata
        # as relations would not fit under the cap
        n, aut = 3000, tmp_path / "path.aut"
        aut.write_text(
            f"des (0,{n - 1},{n})\n" + "".join(f'({p},"a",{p + 1})\n' for p in range(n - 1))
        )
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, "strata", str(aut)],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert f"relation has {n * n} pairs; at most {MAX_RENDERED_PAIRS} " in done.stderr


class TestTableLimit:
    def test_one_label_per_transition_exits_2_at_once(self, tmp_path):
        # 5000 states and 5000 labels: a table of 25 * 10^6 slots, past the limit
        n, aut = 5000, tmp_path / "labels.aut"
        aut.write_text(f"des (0,{n},{n})\n" + "".join(f'({p},"a{p}",{p})\n' for p in range(n)))
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, "bisim", str(aut)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - start < 1.0
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: 5000 states and 5000 labels need 25000000 successor table slots; "
            f"at most {MAX_TABLE_SLOTS} are built\n"
        )

    def test_state_count_past_the_limit_exits_2_at_once(self, tmp_path):
        # a 20-byte header: 10^8 state names alone would not fit under the cap
        aut = tmp_path / "idle.aut"
        aut.write_text("des (0,0,100000000)\n")
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, "bisim", str(aut)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - start < 1.0
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: line 1: 100000000 states; at most {MAX_STATES} are built\n"
        )


class TestLatticeLimit:
    def test_element_count_past_the_limit_exits_2_at_once(self, tmp_path):
        # a 600 KB chain of 20000 elements: closing its cover builds
        # 20000 x 20000-bit orders, and its bound tables 4 * 10^8 slots
        m = 20000
        names = [f"c{i}" for i in range(m)]
        lattice, progression = tmp_path / "chain.json", tmp_path / "empty.json"
        cover = [[a, b] for a, b in zip(names, names[1:])]
        lattice.write_text(json.dumps({"elements": names, "cover": cover}))
        progression.write_text('{"pairs": []}')
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", CAPPED, "lattice-companion", str(lattice), str(progression)],
            capture_output=True, text=True, timeout=60,
        )
        assert time.monotonic() - start < 1.0
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: lattice has {m} elements; at most {MAX_LATTICE_ELEMENTS} are built\n"
        )


class TestDeepJson:
    # 200,000 opening brackets: json.loads gives up on the nesting
    DEEP = "[" * 200000

    @pytest.mark.parametrize(
        "command, files",
        [
            ("companion", ("t2.aut", "deep")),
            ("check-upto", ("t2.aut", "deep")),
            ("lattice-companion", ("deep", "prog.json")),
            ("lattice-companion", ("diamond.json", "deep")),
        ],
    )
    def test_exits_2_without_a_traceback(self, tmp_path, command, files):
        contents = {
            "t2.aut": T2_AUT,
            "diamond.json": DIAMOND_JSON,
            "prog.json": '{"pairs": [["bot", "bot"]]}',
            "deep": self.DEEP,
        }
        paths = []
        for name in files:
            path = tmp_path / name
            path.write_text(contents[name])
            paths.append(str(path))
        done = subprocess.run(
            [sys.executable, "-m", "upto", command, *paths],
            capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: ") and "nested too deeply" in done.stderr
        assert "Traceback" not in done.stderr


class TestExitCodeContract:
    """Seeded mutations of valid documents through ``main``: every run ends
    with exit 0, 1 or 2, and no exception escapes."""

    RUNS = 1000
    BUDGET_S = 5.0
    # inserted or overwritten: syntax of both formats, digits, a non-ASCII
    # digit, line breaks str.splitlines splits on, bytes that are no UTF-8
    TOKENS = [
        *(bytes([c]) for c in b'0129-"(),[]{}: \n'),
        b"\r", b"\x00", b"\xff", b"\xc3", "\u0662".encode(), "\u2028".encode(),
        b"null", b"true", b"1e9", b"des (0,1,2)", b'"a\\nb"', b"[[", b"]]", b'"top"', b'"bot"',
    ]
    SYSTEMS = [T2_AUT, LOOP_CYCLE_AUT, DEAD_LOOP_AUT]
    RELATIONS = ["0 1\n", "1 2\n2 1\n", '{"name": "R", "pairs": [["0", "1"], ["1", "2"]]}']
    COMMANDS = ["bisim", "strata", "export-dot", "companion", "check-upto", "lattice-companion"]

    # put in place of one node of a JSON document
    VALUES = [None, True, 0, 7, -1, 1.5, "", "x", "top", "a\nb", [], {}, ["0"], [["0", "1"]]]

    def mutate(self, rng, text: str) -> bytes:
        if text.startswith("{") and rng.random() < 0.5:
            return self.mutate_json(rng, json.loads(text))
        data = bytearray(text.encode())
        for _ in range(rng.randint(1, 3)):
            i = rng.randint(0, len(data))
            op = rng.randrange(5)
            if op == 0:
                del data[i : i + rng.randint(1, 3)]
            elif op == 1:
                data[i:i] = rng.choice(self.TOKENS)
            elif op == 2:
                data[i : i + 1] = rng.choice(self.TOKENS)
            elif op == 3:
                j = rng.randint(0, len(data))
                data[i:i] = data[min(i, j) : max(i, j)]
            else:
                del data[i:]
        return bytes(data)

    def mutate_json(self, rng, data) -> bytes:
        """data with one node, the root included, replaced or dropped."""
        slots, stack = [], [data]
        while stack:
            node = stack.pop()
            if isinstance(node, (dict, list)):
                keys = node.keys() if isinstance(node, dict) else range(len(node))
                slots += [(node, key) for key in keys]
                stack += [node[key] for key in keys]
        slot = rng.randrange(len(slots) + 1)
        if slot == len(slots):
            return json.dumps(rng.choice(self.VALUES)).encode()
        node, key = slots[slot]
        if rng.random() < 0.2:
            del node[key]
        else:
            node[key] = rng.choice(self.VALUES)
        return json.dumps(data).encode()

    def test_mutated_documents_exit_0_1_or_2(self, tmp_path):
        rng = random.Random(19)
        lattices = list(LATTICE_COMPANION_RUNS.values())
        codes = {command: set() for command in self.COMMANDS}
        start = time.monotonic()
        for run in range(self.RUNS):
            command = self.COMMANDS[run % len(self.COMMANDS)]
            if command == "lattice-companion":
                documents = list(rng.choice(lattices)[:2])
            else:
                documents = [rng.choice(self.SYSTEMS), rng.choice(self.RELATIONS)]
                documents = documents[: 1 if command in ("bisim", "strata", "export-dot") else 2]
            which = rng.randrange(len(documents) + 1)
            paths = []
            for k, text in enumerate(documents):
                path = tmp_path / f"doc{k}"
                both = which == len(documents)
                path.write_bytes(self.mutate(rng, text) if both or which == k else text.encode())
                paths.append(str(path))
            argv = [command, *paths]
            if command == "check-upto":
                argv += ["--fn", rng.choice(["lrf", "upto_bisim", "identity"])]
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(argv)
            except (Exception, SystemExit) as e:
                contents = [Path(p).read_bytes() for p in paths]
                raise AssertionError(f"{argv[0]} on {contents!r} raised {e!r}") from e
            assert code in (0, 1, 2), (argv[0], [Path(p).read_bytes() for p in paths])
            assert (code == 2) == err.getvalue().startswith("error: ")
            codes[command].add(code)
        assert time.monotonic() - start < self.BUDGET_S
        # the mutations reach past the parsers as well as into them
        assert all({0, 2} <= seen for seen in codes.values()), codes
        assert 1 in codes["check-upto"], codes


class TestPipelines:
    def test_gallery_into_strata_via_stdin(self):
        gallery = subprocess.run(
            [sys.executable, "-m", "upto", "gallery", "2"],
            capture_output=True, text=True, check=True,
        )
        strata = subprocess.run(
            [sys.executable, "-m", "upto", "strata", "-"],
            input=gallery.stdout, capture_output=True, text=True, check=True,
        )
        assert "epsilon = 2" in strata.stdout
