import subprocess
import sys
from pathlib import Path

import pytest

from upto.cli import main
from upto.gallery import GalleryVerdict, verify_gallery
from upto.lts import ProgressDiagnosis, ProgressViolation
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


class TestLatticeCompanionCommand:
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

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "strata", "/nonexistent/x.aut")
        assert code == 2

    def test_export_dot(self, capsys, t2_file):
        code, out, _ = run_cli(capsys, "export-dot", t2_file)
        assert code == 0
        assert out.startswith("digraph lts {")

    def test_memory_error_is_input_error(self, capsys, t2_file, monkeypatch):
        def too_large(lts):
            raise MemoryError("Unable to allocate 400 GiB")

        monkeypatch.setattr("upto.cli.compute_strata", too_large)
        code, out, err = run_cli(capsys, "bisim", t2_file)
        assert code == 2
        assert out == ""
        assert err == "error: input too large: Unable to allocate 400 GiB\n"
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

    def test_verify_reports_a_failing_check(self, capsys, monkeypatch):
        def flawed(n):
            verdict = verify_gallery(n)
            return GalleryVerdict(False, verdict.checked, "planted") if n == 3 else verdict

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
        def never_holds(lts, r, s):
            return ProgressDiagnosis(False, (ProgressViolation((0, 0), "left", "a", 0, 0),))

        monkeypatch.setattr("upto.verify.progresses_to", never_holds)
        code, out, _ = run_cli(capsys, "verify", "--seed", "7", "--samples", "30")
        assert code == 1
        lines = out.splitlines()
        assert lines[4] == "FAIL progress-monotone cases=0 detail=sampler produced a bad pair"
        n_failed = sum(line.startswith("FAIL ") for line in lines)
        assert lines[-1] == f"result: 27 checks, {27 - n_failed} passed, {n_failed} failed"


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
