"""Each module of the package uses every name it imports, defines every name it exports
and imports only the modules of the layers below it; the package's public names are a
pinned list.

Read with the standard library's ast only, so the check needs nothing the
suite does not already have. The imports of the package's __init__ are its
public names, so they are not checked for use or layering.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "extrisk"
MODULES = sorted(SRC.glob("*.py"), key=lambda p: p.name)
# the package modules each module may import: the model, the series on it, the
# analysis and the Monte Carlo on the series, the command line on all four
LAYERS = {
    "model": set(),
    "series": {"model"},
    "analysis": {"model", "series"},
    "simulate": {"model", "series"},
    "cli": {"model", "series", "analysis", "simulate"},
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _imports(nodes):
    """(bound name, line) of every import among the nodes; __future__ excluded."""
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree: ast.Module):
    """The names listed in the module's __all__, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return None


def _defined(tree: ast.Module):
    """Names bound at module level: functions, classes, assignments and imports."""
    names = {name for name, _ in _imports(tree.body)}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return names


def test_the_package_has_modules():
    assert {p.name for p in MODULES} >= {"__init__.py", "model.py", "series.py", "analysis.py",
                                         "simulate.py", "cli.py"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _parse(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used.update(_exported(tree) or ())
    unused = [f"{name} (line {line})" for name, line in _imports(ast.walk(tree)) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_exported_name_is_defined(path):
    tree = _parse(path)
    missing = [name for name in _exported(tree) or () if name not in _defined(tree)]
    assert not missing, f"{path.name} exports names it does not define: {', '.join(missing)}"


def _package_imports(tree: ast.Module):
    """(package module, line) of every import of a module of this package, relative or not."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["extrisk" if node.level else "", node.module]))
            names = ([f"{module}.{alias.name}" for alias in node.names]
                     if module == "extrisk" else [module])
        else:
            continue
        for name in names:
            top, _, rest = name.partition(".")
            if top == "extrisk" and rest:
                yield rest.split(".")[0], node.lineno


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_module_imports_only_the_layers_below_it(path):
    assert path.stem in LAYERS, f"{path.name} has no layer in LAYERS"
    wrong = [f"{name} (line {line})" for name, line in _package_imports(_parse(path))
             if name not in LAYERS[path.stem]]
    assert not wrong, f"{path.name} imports modules outside its layers: {', '.join(wrong)}"


# the package's public names: the __all__ of every module its __init__ star-imports, sorted;
# adding or removing a public name is an edit of this list
PUBLIC_NAMES = [
    "ConsumptionPath", "DEFAULT_TOLERANCE", "DYNASTY", "DYNASTY_THETA", "DegenerateHazardError",
    "DiscountProfile", "DiscountReport", "DivergenceError", "FinitenessResult", "HazardParams",
    "INDIVIDUAL", "LINEAGE", "NoExtinctionError", "RegimeSensitivity", "SOCIAL_WELFARE",
    "Scenario", "SensitivityReport", "SeriesResult", "SimEstimate", "SimulationConfig",
    "SmoothingGapRow", "SweepRow", "UtilitySpec", "VERIFY_GRID", "VERIFY_PATH",
    "VERIFY_UTILITY", "abm_smoothing_study", "belief_update_response", "default_horizon_cap",
    "discount_factor", "discount_profile", "eg_lineage", "eu_individual", "ev_dynasty",
    "ev_dynasty_theta", "evaluate", "ew_social", "ew_social_n0_form", "factor_exponents",
    "finiteness_check", "known_extinction", "mc_compare", "mc_eg_lineage", "mc_eu_individual",
    "mc_ev_dynasty", "mc_ew_social", "one_minus_q_power", "reproducibility_selfcheck",
    "sample_date_counts", "sample_extinction_times", "sample_lifetimes", "scenario_sweep",
    "verify_oracle_grid", "welfare_window_terms",
]


def test_the_public_names_are_the_pinned_list():
    init = _parse(SRC / "__init__.py")
    starred = [node.module for node in init.body if isinstance(node, ast.ImportFrom)
               and [alias.name for alias in node.names] == ["*"]]
    names = [name for module in starred for name in _exported(_parse(SRC / f"{module}.py"))]
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(names) == PUBLIC_NAMES
