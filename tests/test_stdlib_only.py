"""The package runs on the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

import lmroofline


def package_nodes():
    """(path, node) of every syntax tree node of every module in the package."""
    modules = sorted(pathlib.Path(lmroofline.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def imports():
    """(file name, top-level module) of every absolute import in the package."""
    for path, node in package_nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            yield path.name, name.partition(".")[0]


def test_package_imports_only_the_standard_library():
    outside = [f"{file}: {name}" for file, name in imports()
               if name not in sys.stdlib_module_names]
    assert outside == []


def after_cli_import(expression: str) -> str:
    """What a fresh process prints of `expression` after `import lmroofline.cli`.

    -S keeps site and .pth files out, so only the package's own imports count.
    """
    src = str(pathlib.Path(lmroofline.__file__).parent.parent)
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys, lmroofline.cli; print({expression})"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout


def loaded_by_cli_import(names):
    """Which of the top-level modules `names` a fresh `import lmroofline.cli` loads."""
    return after_cli_import(f"sorted({{m.partition('.')[0] for m in sys.modules}} & {set(names)!r})")


def test_cli_import_pulls_in_no_xml_or_network_modules():
    assert loaded_by_cli_import({"xml", "urllib", "http", "email"}) == "[]\n"


def test_cli_import_does_not_load_typing():
    """typing costs a fresh CLI call about 7 ms of import, and the package
    needs none of it: no module imports it, and neither does any standard
    module the CLI pulls in."""
    assert loaded_by_cli_import({"typing"}) == "[]\n"


def test_cli_import_builds_no_parser():
    """Importing the CLI builds no argument parser: a call builds the one it
    runs. The whole CLI's parser takes about 0.6 ms to build, which every
    import would add to a fresh process and to the benchmark's setup_s."""
    assert after_cli_import("lmroofline.cli._build_parser.cache_info().currsize") == "0\n"


def test_no_module_imports_typing():
    assert [file for file, name in imports() if name == "typing"] == []


def test_sweep_row_is_the_only_dataclass():
    """Every other record is a namedtuple subclass, much cheaper to define at
    import. SweepRow stays a dataclass while the benchmark reads its rows
    with dataclasses.asdict (bench/workloads.py; ROADMAP item 1)."""
    found = []
    for path, node in package_nodes():
        if isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                target = decorator.func if isinstance(decorator, ast.Call) else decorator
                if "dataclass" in ast.unparse(target):
                    found.append(f"{path.stem}.{node.name}")
    assert found == ["sweep.SweepRow"]


def test_no_module_rebinds_a_global():
    """No function assigns a module-level name, so no call leaves state for
    the next: what an evaluation returns depends on its arguments alone."""
    found = [f"{path.name}:{node.lineno}" for path, node in package_nodes()
             if isinstance(node, ast.Global)]
    assert found == []
