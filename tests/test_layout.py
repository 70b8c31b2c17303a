"""Package layout rules checked on the source text."""

import ast
import importlib
import importlib.util
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mqtransfer"


def _private_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            internal = node.level > 0 or (node.module or "").split(".")[0] == "mqtransfer"
            names = [alias.name for alias in node.names]
            if node.module:
                names += node.module.split(".")
        elif isinstance(node, ast.Import):
            internal = True
            names = [part for alias in node.names if alias.name.split(".")[0] == "mqtransfer"
                     for part in alias.name.split(".")]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if internal and name.startswith("_") and not name.endswith("__")]
    return found


def test_no_private_cross_module_imports():
    # a module uses only the public names of the other package modules
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    offenders = [hit for path in modules for hit in _private_imports(path)]
    assert not offenders, offenders


def test_traced_names_resolve():
    # the benchmark's tracer binds these (module, function) pairs by name
    path = PACKAGE.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for module_name, func_name in tracing.TRACED:
        module = importlib.import_module(f"mqtransfer.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
