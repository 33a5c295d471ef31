"""The package runs on the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

import lmroofline


def imports():
    """(file name, top-level module) of every absolute import in the package."""
    modules = sorted(pathlib.Path(lmroofline.__file__).parent.rglob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
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


def loaded_by_cli_import(names):
    """Which of the top-level modules `names` a fresh `import lmroofline.cli` loads.

    -S keeps site and .pth files out, so only the package's own imports count.
    """
    src = str(pathlib.Path(lmroofline.__file__).parent.parent)
    code = (
        "import sys, lmroofline.cli; "
        f"print(sorted({{m.partition('.')[0] for m in sys.modules}} & {set(names)!r}))"
    )
    return subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout


def test_cli_import_pulls_in_no_xml_or_network_modules():
    assert loaded_by_cli_import({"xml", "urllib", "http", "email"}) == "[]\n"


def test_cli_import_does_not_load_typing():
    """typing costs a fresh CLI call about 7 ms of import, and the package
    needs none of it: no module imports it, and neither does any standard
    module the CLI pulls in."""
    assert loaded_by_cli_import({"typing"}) == "[]\n"


def test_no_module_imports_typing():
    assert [file for file, name in imports() if name == "typing"] == []


def test_sweep_row_is_the_only_dataclass():
    """Every other record is a namedtuple subclass, much cheaper to define at
    import. SweepRow stays a dataclass while the benchmark reads its rows
    with dataclasses.asdict (bench/workloads.py; ROADMAP item 1)."""
    found = []
    for path in sorted(pathlib.Path(lmroofline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for decorator in node.decorator_list:
                    target = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if "dataclass" in ast.unparse(target):
                        found.append(f"{path.stem}.{node.name}")
    assert found == ["sweep.SweepRow"]
