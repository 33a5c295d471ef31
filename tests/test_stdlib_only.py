"""The package runs on the standard library alone."""

import ast
import os
import pathlib
import subprocess
import sys

import lmroofline


def test_package_imports_only_the_standard_library():
    modules = sorted(pathlib.Path(lmroofline.__file__).parent.rglob("*.py"))
    assert modules
    outside = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_cli_import_pulls_in_no_xml_or_network_modules():
    # -S keeps site and .pth files out, so only the package's own imports count.
    src = str(pathlib.Path(lmroofline.__file__).parent.parent)
    code = (
        "import sys, lmroofline.cli; "
        "print(sorted({m.partition('.')[0] for m in sys.modules} "
        "& {'xml', 'urllib', 'http', 'email'}))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"


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
