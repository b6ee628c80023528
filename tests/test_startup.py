"""What a command loads at start-up, and the lazy exports of the package."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import upto

# modules no command on a transition system needs: dataclasses alone pulls in
# inspect, ast, dis and tokenize
HEAVY = ("dataclasses", "upto.lattice", "upto.verify", "upto.sampling", "numpy")

# loaded by check-upto and by the JSON document parsers, and by no other
# command on a transition system
LAZY = ("upto.companion", "json")

# runs upto.cli.main(argv), then writes which of the watched modules it
# loaded to stderr; the modules are listed before the probe imports json
PROBE = (
    "import sys\n"
    "import upto.cli\n"
    "code = upto.cli.main(sys.argv[2:])\n"
    "loaded = set(sys.modules)\n"
    "import json\n"
    "print(json.dumps([m for m in json.loads(sys.argv[1]) if m in loaded]), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

DIAMOND_JSON = (
    '{"elements": ["bot", "x", "y", "top"],'
    ' "cover": [["bot","x"],["bot","y"],["x","top"],["y","top"]]}'
)


def probe(*argv, watched=HEAVY):
    done = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps(watched), *argv],
        capture_output=True, text=True, timeout=120,
    )
    *messages, loaded = done.stderr.splitlines()
    return done.returncode, done.stdout, messages, json.loads(loaded)


class TestStartupImports:
    def test_import_upto_loads_no_submodule(self):
        loaded = "import sys, upto; print(sorted(m for m in sys.modules if m.startswith('upto')))"
        done = subprocess.run(
            [sys.executable, "-c", loaded], capture_output=True, text=True, check=True
        )
        assert done.stdout == "['upto']\n"

    def test_gallery_loads_none_of_the_heavy_modules(self):
        assert probe("gallery", "0", watched=HEAVY + LAZY) == (0, "des (0,0,1)\n", [], [])

    def test_bisim_loads_none_of_the_heavy_modules(self, tmp_path):
        aut = tmp_path / "t2.aut"
        aut.write_text('des (0,3,3)\n(1,"t",0)\n(2,"t",0)\n(2,"t",1)\n')
        out = "bisimilarity = {(0,0), (1,1), (2,2)}\n"
        assert probe("bisim", str(aut), watched=HEAVY + LAZY) == (0, out, [], [])

    def test_check_upto_loads_the_catalog(self, tmp_path):
        aut = tmp_path / "t2.aut"
        aut.write_text('des (0,3,3)\n(1,"t",0)\n(2,"t",0)\n(2,"t",1)\n')
        rel = tmp_path / "r.rel"
        rel.write_text("1 2\n")
        code, out, messages, loaded = probe("check-upto", str(aut), str(rel), watched=HEAVY + LAZY)
        assert (code, messages, loaded) == (1, [], ["upto.companion"])
        assert out.startswith("relation = R\nfunction = lrf\nprogression = fails\n")

    def test_verify_loads_the_suite_and_still_runs(self):
        code, out, messages, loaded = probe("verify", "--samples", "20")
        assert (code, messages) == (0, [])
        assert out.endswith("result: 27 checks, 27 passed, 0 failed\n")
        assert {"upto.verify", "upto.lattice", "upto.sampling"} <= set(loaded)
        assert "dataclasses" not in loaded and "numpy" not in loaded

    def test_lattice_companion_loads_the_lattices_and_still_runs(self, tmp_path):
        lat = tmp_path / "diamond.json"
        lat.write_text(DIAMOND_JSON)
        prog = tmp_path / "prog.json"
        # the order itself: every element's companion is the top
        prog.write_text(
            '{"pairs": [["bot", "bot"], ["bot", "x"], ["bot", "y"], ["bot", "top"], '
            '["x", "x"], ["x", "top"], ["y", "y"], ["y", "top"], ["top", "top"]]}'
        )
        code, out, messages, loaded = probe("lattice-companion", str(lat), str(prog))
        assert (code, messages) == (0, [])
        assert out.startswith("z[0] = top\nstable at index 0\n")
        assert out.endswith(
            "companion(bot) = top\ncompanion(x) = top\ncompanion(y) = top\ncompanion(top) = top\n"
        )
        assert loaded == ["upto.lattice"]


# every name upto/__init__.py exports, by the submodule that defines it
EXPORTED = {
    "checker": "CONTAINED INCONCLUSIVE ProofReport check_upto",
    "companion": "DominanceVerdict RespectfulnessVerdict UpToFunction catalog "
    "check_lrf_largest is_respectful_on_samples lrf lrf_function",
    "formats": "AutDocument AutParseError LatticeDocument RelationDocument export_dot "
    "parse_aut parse_lattice parse_progression render_aut render_relation",
    "gallery": "GalleryVerdict build_T verify_gallery",
    "lattice": "FiniteLattice LatticeChain LatticeProgression LatticeValidationError "
    "ProgressionVerdict brute_force_largest chain_companion close_to_progression "
    "companion_at descending_chain element_relation is_compatible is_monotone "
    "is_progression is_r_monotone validate_lattice z_chain",
    "lts": "Lts ProgressDiagnosis ProgressViolation Relation "
    "largest_progressing_to progress_holds progresses_to",
    "strata": "StrataSequence compute_strata",
    "verify": "VerificationReport run_verification",
}
EXPORTED_NAMES = [(module, name) for module, names in EXPORTED.items() for name in names.split()]


class TestLazyExports:
    @pytest.mark.parametrize("module, name", EXPORTED_NAMES, ids=[n for _, n in EXPORTED_NAMES])
    def test_name_is_the_object_of_its_module(self, module, name):
        namespace = {}
        exec(f"from upto import {name}", namespace)
        defined = getattr(importlib.import_module(f"upto.{module}"), name)
        assert namespace[name] is defined
        assert getattr(upto, name) is defined

    def test_all_lists_exactly_the_exported_names(self):
        assert sorted(upto.__all__) == sorted(name for _, name in EXPORTED_NAMES)
        assert len(set(upto.__all__)) == len(upto.__all__)
        namespace = {}
        exec("from upto import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(upto.__all__)

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            upto.no_such_name
        assert not hasattr(upto, "bool_mm")
        with pytest.raises(ImportError):
            exec("from upto import no_such_name", {})

    def test_removed_shorthands_are_gone(self):
        # check_upto(seq, r, lrf_function(seq)) and
        # resolve_relation(parse_relation_document(text), lts) replace them
        for name in ("check_companion", "parse_relation"):
            with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
                getattr(upto, name)
        assert not hasattr(upto.checker, "check_companion")
        assert not hasattr(upto.formats, "parse_relation")

    def test_submodules_load_on_access(self):
        assert upto.sampling is importlib.import_module("upto.sampling")
        assert upto.cli.main is importlib.import_module("upto.cli").main

    def test_version_and_dir(self):
        assert upto.__version__ == "0.1.0"
        assert set(upto.__all__) <= set(dir(upto))


def numpy_imports(tree):
    """The enclosing class and function names of each import of numpy in a module."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            found.extend(where for name in names if name.split(".")[0] == "numpy")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, where + (child.name,) if named else where)

    visit(tree, ())
    return found


class TestNoNumpyDependency:
    def test_only_the_matrix_view_imports_numpy(self):
        found = {}
        for path in sorted(Path(upto.__file__).parent.glob("*.py")):
            for where in numpy_imports(ast.parse(path.read_text())):
                found.setdefault(path.name, []).append(where)
        assert found == {"lts.py": [("Relation", "matrix")]}

    def test_numpy_is_a_test_requirement_only(self):
        text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        assert "\ndependencies = []\n" in text
        assert '\ntest = ["pytest", "hypothesis", "numpy"]\n' in text
