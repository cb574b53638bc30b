import ast
from pathlib import Path

import pytest

import stfe2d

SRC = Path(stfe2d.__file__).parent


def test_no_np_roll_outside_the_oracle():
    # the stencils shift by slices (fem.shift); np.roll is kept for the
    # dense reference path alone
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "roll"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in ("np", "numpy")):
                calls.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 1
    assert calls == []


def test_the_noise_interpretation_is_known_to_config_alone():
    # config turns noise.interpretation into the material's potential shift;
    # the noise model, the workspace and the stepping loop are Ito-only
    named = {ast.Attribute: "attr", ast.keyword: "arg", ast.arg: "arg", ast.Name: "id",
             ast.Constant: "value"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, named.get(type(node), ""), None)
            if name in ("interpretation", "stratonovich"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_module_reads_the_process_environment():
    # every setting reaches the library through an argument or the config
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                names = {node.attr}
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                continue
            if names & readers:
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_the_package_imports_only_the_standard_library_and_numpy():
    # numpy is the one run-time dependency in pyproject.toml; scipy, pytest
    # and hypothesis are for the tests alone
    import sys
    allowed = set(sys.stdlib_module_names) | {"numpy", "stfe2d"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.partition(".")[0] not in allowed]
    assert len(list(SRC.glob("*.py"))) > 1
    assert found == []


def test_noise_workspace_build_has_no_python_loop():
    # the workspace is built from whole arrays; a loop or comprehension over
    # the modes or the seeds would cost milliseconds per run at n = 128
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    checked = {"build": "noise.py", "mode_indices": "noise.py",
               "mode_keys": "noise.py", "basis_table": "noise.py"}
    found = {}
    for name, file in checked.items():
        tree = ast.parse((SRC / file).read_text())
        [func] = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
        found[name] = [n.lineno for n in ast.walk(func) if isinstance(n, loops)]
    assert found == {name: [] for name in checked}


def test_config_sections_reach_every_constructor_argument():
    # each config table holds one key per argument of the object it builds,
    # so a field added to one of these objects is reachable from a file
    from dataclasses import fields

    from stfe2d import config
    from stfe2d.grid import Grid
    from stfe2d.integrator import RunConfig
    from stfe2d.material import PowerPairPotential
    from stfe2d.noise import NoiseModel

    def init_fields(cls):
        return {f.name for f in fields(cls) if f.init}

    assert config._SECTIONS["run"] == init_fields(RunConfig)
    assert config._SECTIONS["grid"] == init_fields(Grid)
    assert config._POTENTIAL.keys() == init_fields(PowerPairPotential) | {"kind"}
    assert config._SECTIONS["noise"] >= init_fields(NoiseModel) - {"schedule"}


def test_perfbench_traced_names_exist():
    # the benchmark's tracer rebinds these attributes by name; a name that
    # is gone from the package fails here instead of in a traced run
    import importlib

    path = SRC.parents[1] / "perfbench" / "workloads.py"
    tree = ast.parse(path.read_text())
    modules = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            for alias in node.names:
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    [func] = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "_targets"]
    [ret] = [n for n in ast.walk(func) if isinstance(n, ast.Return)]

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return importlib.import_module(modules[expr.id])
        return getattr(resolve(expr.value), expr.attr)

    missing = []
    for target in ret.value.elts:
        owner, attr = target.elts[0], target.elts[1].value
        if attr not in vars(resolve(owner)):
            missing.append(f"{ast.unparse(owner)}.{attr}")
    assert len(ret.value.elts) >= 10
    assert missing == []


def test_the_dense_oracle_stays_independent_of_the_stencils():
    # the reference assemblies may borrow the quadrature rule and the mesh
    # weight; only the comparators call the fast stencils they check
    comparators = {"dense_weak_residual", "dense_drift_residual", "chain_rule_residual",
                   "run_checks"}
    allowed = {"fem.gauss_rule", "scheme.mesh_weight"}
    tree = ast.parse((SRC / "oracle.py").read_text())
    funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    found = []
    for func in funcs:
        if func.name in comparators:
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in ("fem", "scheme")):
                name = f"{node.value.id}.{node.attr}"
                if name not in allowed:
                    found.append(f"{func.name}: {name}")
    imports = [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
               and n.module in ("fem", "scheme")]
    assert len(funcs) > 10 and comparators <= {f.name for f in funcs}
    assert found == [] and imports == []


def test_grid_spacing_rejects_an_axis_that_is_not_x_or_y():
    from stfe2d.grid import Grid

    grid = Grid(4, 5, 1.0, 0.5)
    assert (grid.spacing(-1), grid.spacing(-2)) == (grid.hx, grid.hy)
    for axis in (0, 1, -3):
        with pytest.raises(ValueError):
            grid.spacing(axis)
