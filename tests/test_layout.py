"""Package layout rules checked on the source text."""

import ast
import importlib
import importlib.util
import re
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


def _defined_public_names(path: Path) -> list[str]:
    """Top-level functions and classes of a module whose names are not private."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")]


def test_public_surface_is_exported():
    # every module lists in __all__ exactly the functions and classes it makes
    # public, every listed name exists, and the package imports only listed
    # names, so a deleted name cannot linger as a stale export
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"mqtransfer.{path.stem}")
        exported = getattr(module, "__all__", None)
        if exported is None:
            problems.append(f"{path.name}: no __all__")
            continue
        problems += [f"{path.name}: {name} in __all__ is not defined"
                     for name in exported if not hasattr(module, name)]
        problems += [f"{path.name}: {name} is not in __all__"
                     for name in _defined_public_names(path) if name not in exported]
    init = PACKAGE / "__init__.py"
    for node in ast.parse(init.read_text(), filename=str(init)).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            exported = importlib.import_module(f"mqtransfer.{node.module}").__all__
            problems += [f"__init__.py: {alias.name} is not in {node.module}.__all__"
                         for alias in node.names if alias.name not in exported]
    assert not problems, problems


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


def test_optimize_runs_bracket_searches_only_in_refine():
    # one refinement for all four cases: case 4 has no search stack of its own, so no
    # function of optimize but _refine calls bracket_max
    path = PACKAGE / "optimize.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "bracket_max":
            owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.add("/".join(owner) or "<module>")
    assert found == {"_refine"}, found


def _lapack_solves(path: Path) -> list[str]:
    """Calls of numpy.linalg.eig or numpy.linalg.solve, and imports of them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in ("eig", "solve")
                and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
            found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg"):
            found += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                      if alias.name in ("eig", "solve")]
    return found


def test_no_dense_eig_or_solve_on_the_optimizer_path():
    # the scale factors come in closed form from the block structure; only the
    # oracle diagonalizes numerically (eigvalsh in positivity checks is fine)
    modules = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "oracle.py"]
    offenders = [hit for path in modules for hit in _lapack_solves(path)]
    assert not offenders, offenders


def test_no_module_but_two_qubit_references_alpha_entries():
    # the region kernel and the solvers read the blocks of the transfer matrix
    # (two_qubit.transfer_blocks); the table assembled from them is for the
    # public table API, and no second path reads the map back out of it
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "two_qubit.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [alias.name for alias in node.names]
                     if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
            found += [f"{path.name}:{node.lineno}" for name in names if name == "alpha_entries"]
    assert not found, found


def _imaginary_powers(path: Path) -> list[str]:
    """Powers of an imaginary constant, such as the phase (-1j) ** (N - 2)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            base = node.left.operand if isinstance(node.left, ast.UnaryOp) else node.left
            if isinstance(base, ast.Constant) and isinstance(base.value, complex):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_module_forms_the_phase():
    # W = [[p, q], [r, p]] is read in its mirror-symmetric form: its eigenvalues
    # p +- sqrt(q) sqrt(r) and where they are real come from the parity of the
    # amplitudes (two_qubit.transfer_spectrum), so no module forms a phase such
    # as (-i)^(N-2) to make tr W and det W real
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _imaginary_powers(path)]
    assert not found, found


def test_cli_opens_out_once_and_commands_return_nothing():
    # main opens --out before the command runs and hands the stream to it; only the
    # --dump landscape, written after a feasible optimum, opens a file of its own.
    # A command returns nothing: main gives the exit code
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    opens = sorted(f"{func.name}: {ast.unparse(node)}" for func in functions for node in ast.walk(func)
                   if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "_opened")
    assert opens == ["_cmd_optimize: _opened(args.dump)", "main: _opened(args.out)"]
    returns = [f"cli.py:{node.lineno} {func.name}" for func in functions if func.name.startswith("_cmd_")
               for node in ast.walk(func) if isinstance(node, ast.Return) and node.value is not None]
    assert not returns, returns


def _ray_rules(path: Path) -> list[str]:
    """Where a module writes the positivity rule, a comparison with -PSD_TOL or any other use of
    PSD_TOL, or the closed-form eigenvalue of a 2x2 Hermitian block, sqrt(0.25 * (a - b) ** 2
    + ...), from which both the positivity rule and sigma_max are formed."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for node in ast.walk(tree):
        names = ([node.id] if isinstance(node, ast.Name) else
                 [node.attr] if isinstance(node, ast.Attribute) else
                 [alias.name for alias in node.names]
                 if isinstance(node, (ast.Import, ast.ImportFrom)) else [])
        hit = "PSD_TOL" in names and not isinstance(getattr(node, "ctx", None), ast.Store)
        hit |= isinstance(node, ast.Call) and bool(
            re.match(r"(np\.)?sqrt\(0\.25 \* \(.+ - .+\) \*\* 2 \+ ", ast.unparse(node)))
        if hit:
            owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append(f"{path.name}:{'/'.join(owner) or '<module>'}")
    return sorted(set(found))


def test_rays_are_formed_only_in_states():
    # the grid scan prunes with bounds on the rays but forms no ray of its own: the
    # positivity rule and the closed form of sigma_max live in one function each of
    # states (c2_rays and c1_rays), so the scan cannot fork them
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _ray_rules(path)]
    assert found == ["states.py:c1_rays", "states.py:c2_rays"], found


def _positive_parts(path: Path) -> list[str]:
    """Where a module forms the positive part of a factor: np.maximum(x, 0.0) or
    np.where(..., x, 0.0) of an x that names lambda1 or lambda2 (or lam1, lam2)."""
    found = []
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    arity = {"maximum": 2, "where": 3}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and len(node.args) == arity.get(node.func.attr)):
            continue
        value, last = node.args[-2], node.args[-1]
        if (isinstance(last, ast.Constant) and last.value == 0
                and re.search(r"\blam(bda)?[12]\b", ast.unparse(value))):
            owner = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
            found.append(f"{path.name}:{'/'.join(owner) or '<module>'}")
    return sorted(set(found))


def test_positive_parts_are_formed_only_in_states():
    # the semi-axes s1 = c1_max lambda1+ and s2 = c2_max lambda2+ and the scan's bounds
    # read the positive parts of the factors from one function of states, so no caller
    # writes its own rule for them
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _positive_parts(path)]
    assert found == ["states.py:positive_factors"], found


def test_oracle_is_independent_of_the_analytic_map():
    # the certifier diagonalizes the hopping matrix itself: it reads no module of the
    # analytic map, and from chain only the spec, the domain rules and the thermal weights
    analytic = {"two_qubit", "solvers", "states", "optimize", "one_qubit", "search"}
    from_chain = {"ChainSpec", "check_time", "check_inverse_temperature", "thermal_weights"}
    found = []
    for node in ast.walk(ast.parse((PACKAGE / "oracle.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("mqtransfer")):
            module = (node.module or "").removeprefix("mqtransfer").lstrip(".")
            names = {alias.name for alias in node.names}
            if not module:
                found += sorted(names & (analytic | {"chain"}))
            elif module in analytic or (module == "chain" and not names <= from_chain):
                found.append(f"{module}: {sorted(names)}")
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.startswith("mqtransfer") and alias.name.split(".")[-1] in analytic | {"chain"}]
    assert not found, found
