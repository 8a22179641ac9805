"""Dead-code guard over the package source: no unused import, no unreferenced private name,
no class member that only tests read; and each fact in one place: the public names, the
whole-file write, the code-file pattern ids, and the CLI's stdout writer and exit-code rule."""

import ast
import pathlib
import re
import types

import pytest

import foatools

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "foatools"
TREES = {path.name: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in TREES if name != "__init__.py")
README = PACKAGE.parents[1] / "README.md"


def names_read(tree):
    """Every name a module reads: bare names, and attributes taken of any object."""
    return [node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)] + [
        node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
    ]


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = TREES[module]
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    assert sorted(imported - set(names_read(tree))) == []


@pytest.mark.parametrize("module", MODULES)
def test_every_private_module_name_is_referenced(module):
    defined = set()
    for node in TREES[module].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)}
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = {name for tree in TREES.values() for name in names_read(tree)}
    assert sorted(private - read) == []


def test_every_class_member_is_read_in_src_or_named_in_the_readme():
    # Python calls the dunder methods itself; every other method or property is
    # library code only if the package reads it or the README documents it.
    used = {name for tree in TREES.values() for name in names_read(tree)} | set(re.findall(r"\w+", README.read_text()))
    members = [
        f"{cls.name}.{node.name}"
        for tree in TREES.values()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("__") and node.name not in used
    ]
    assert members == []


# The public API, in its order; a name added to or dropped from the package's imports shows here.
PUBLIC_NAMES = [
    "ClipWindow", "CodeMatrix", "Direction", "ENERGY_MODE_LINEAR", "ENERGY_MODE_POWER", "EnergyMap", "FoaClip",
    "FoaToolsError", "GaussianStats", "Group", "GuidanceConfig", "Pattern", "ReorgMatrix", "Rotation",
    "SpatialReport", "SphereGrid", "TablePredictor", "amplitude_gate", "auc", "combine", "correlation",
    "decode_to_mono", "directional_energy", "encode_mono", "energy_from_scores", "energy_map", "evaluate_windows",
    "fad_avg", "fov_center", "frechet_distance", "gaussian_stats", "generate", "group_of", "kld", "pack",
    "patch_scores", "pattern_steps", "relevance_filter", "rotate", "sample_step", "segment_mask", "select_windows",
    "unpack",
]


def test_all_is_the_public_api():
    assert foatools.__all__ == PUBLIC_NAMES


def test_star_import_binds_no_module():
    namespace = {}
    exec("from foatools import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []


def test_every_public_name_is_in_the_readme():
    words = set(re.findall(r"\w+", README.read_text()))
    assert [name for name in foatools.__all__ if name not in words] == []


def test_only_the_two_writers_open_atomic_write():
    callers = {
        function.name
        for tree in TREES.values()
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "atomic_write"
    }
    assert callers == {"_write_bytes", "write_wav_slabs"}


@pytest.mark.parametrize(
    "module, second_copy",
    [("tensor_io.py", "_PATTERN_IDS"), ("tensor_io.py", "_PATTERNS_BY_ID"), ("cli.py", "_write_text"),
     ("guidance.py", "self.matrix"), ("cli.py", "_print_json"), ("cli.py", "messages"), ("cli.py", "dict(record)"),
     ("guidance.py", "temperature must be positive"), ("patch_saliency.py", "temperature must be positive"),
     ("guidance.py", "_VARIANTS_BY_MODE"), ("guidance.py", 'mode == "')],
)
def test_second_copies_stay_gone(module, second_copy):
    # One pattern-id table, one whole-file writer, no TablePredictor member that nothing reads,
    # one stdout writer in the CLI, one author of manifest rows, one home of the temperature rule,
    # and one table of the guidance modes' terms, which no branch on a mode name repeats.
    assert second_copy not in (PACKAGE / module).read_text()


def test_only_cli_main_prints_to_stdout_and_picks_the_exit_code():
    functions = [node for node in ast.walk(TREES["cli.py"]) if isinstance(node, ast.FunctionDef)]
    stdout_printers = {
        function.name
        for function in functions
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "print"
        and not any(keyword.arg == "file" for keyword in call.keywords)
    }
    assert stdout_printers == {"main"}
    handlers = [function for function in functions if function.name.startswith("cmd_")]
    assert handlers
    int_returns = [
        function.name
        for function in handlers
        for node in ast.walk(function)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, int)
    ]
    assert int_returns == []
