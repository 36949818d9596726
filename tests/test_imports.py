"""What a czo process imports: ``import czo`` loads no submodule, each CLI
kind loads only the layers it runs, the package's public names are the
same objects as before they loaded lazily, and every name an annotation
uses is bound in its module."""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys

import pytest

import czo
from czo.cli import KINDS


def run_fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """code run by a new interpreter that finds this czo."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(czo.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    return run


_LOADED = ("import json, sys\n"
           "print(json.dumps(sorted(m for m in sys.modules\n"
           "                        if m.startswith('czo.'))))\n")


def test_bare_import_loads_no_submodule():
    run = run_fresh("import czo\n" + _LOADED)
    assert json.loads(run.stdout) == []


# What the benchmark's cli child holds before a kind runs: czo, the cli
# module, and the default curve and kernel.
_BASE = {"czo.cli", "czo.errors", "czo.util", "czo.geometry", "czo.curves",
         "czo.kernels"}
_KIND_LOADS = {
    "metric-equivalence": {"czo.metric"},
    "partition": {"czo.partition"},
    "kernel-audit": {"czo.metric"},
    "hormander": {"czo.metric"},
    "apply": {"czo.metric", "czo.operator"},
    "t0-convergence": {"czo.metric", "czo.operator"},
    "recover": {"czo.operator", "czo.partition"},
    "decompose": {"czo.operator", "czo.decomposition"},
    "weaktype": {"czo.metric", "czo.operator", "czo.decomposition"},
    "qtheta": {"czo.metric"},
}


def test_every_kind_has_a_pinned_import_set():
    assert set(_KIND_LOADS) == set(KINDS)


@pytest.mark.parametrize("kind", sorted(_KIND_LOADS))
def test_each_kind_loads_only_its_layers(kind, tmp_path):
    code = ("import sys\n"
            "import czo\n"
            "from czo.cli import DEFAULTS\n"
            "czo.get_curve(DEFAULTS['curve'])\n"
            "czo.get_kernel(DEFAULTS['kernel'])\n"
            "assert czo.cli.main(sys.argv[1:]) == 0\n" + _LOADED)
    run = run_fresh(code, kind, "--out", str(tmp_path))
    assert set(json.loads(run.stdout)) == _BASE | _KIND_LOADS[kind]


# Every name ``import czo`` bound before names loaded on first use.
_PUBLIC = {
    "curves": ["CURVE_NAMES", "get_curve"],
    "errors": ["ConsistencyError", "CurveValidityError", "CzoError",
               "RegistryError", "RejectedInputError"],
    "geometry": ["Box", "CurveBranch", "DyadicCube", "HyperCurve", "Region",
                 "box", "region", "whole_space"],
    "kernels": ["KERNEL_NAMES", "KernelSpec", "get_kernel"],
    "metric": ["check_equivalence", "check_qtheta", "enlarged_cube",
               "rho_values"],
    "operator": ["GridFunction", "MultiplierField", "apply_multiplier",
                 "apply_truncated", "estimate_T0", "grid_function",
                 "multiplier_bound_check", "recover_multipliers"],
    "partition": ["BranchDisjointPartition", "build_partition",
                  "disjoint_preimage_test"],
    "decomposition": ["DecompositionResult", "cz_decompose", "lp_norm",
                      "weak_l1_quasinorm", "weak_type_experiment"],
    "util": [],
}
_PUBLIC_NAMES = sorted([*_PUBLIC, *(n for ns in _PUBLIC.values()
                                     for n in ns)])


def test_public_names_are_the_submodules_objects():
    for module, names in _PUBLIC.items():
        mod = importlib.import_module(f"czo.{module}")
        assert getattr(czo, module) is mod
        for name in names:
            assert getattr(czo, name) is getattr(mod, name), name
    assert set(_PUBLIC_NAMES) <= set(dir(czo))
    with pytest.raises(AttributeError, match="no_such_name"):
        czo.no_such_name


def test_star_import_binds_exactly_the_public_names():
    run = run_fresh("import json\n"
                    "ns = {}\n"
                    "exec('from czo import *', ns)\n"
                    "print(json.dumps(sorted(set(ns) - {'__builtins__'})))\n")
    assert json.loads(run.stdout) == _PUBLIC_NAMES


def _module_bindings(body):
    """The names a module body binds: imports, defs, classes and
    assignments, in if blocks (``if TYPE_CHECKING:``) too."""
    for st in body:
        if isinstance(st, (ast.Import, ast.ImportFrom)):
            yield from ((a.asname or a.name).split(".")[0] for a in st.names)
        elif isinstance(st, (ast.FunctionDef, ast.ClassDef)):
            yield st.name
        elif isinstance(st, (ast.Assign, ast.AnnAssign)):
            targets = st.targets if isinstance(st, ast.Assign) else [st.target]
            yield from (n.id for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name))
        elif isinstance(st, ast.If):
            yield from _module_bindings(st.body + st.orelse)


def _names_read(ann):
    """The names an annotation reads, those of string annotations too."""
    for sub in ast.walk(ann):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _names_read(ast.parse(sub.value, mode="eval"))


def _annotation_names(tree):
    """(owner, name) for every name an annotation in tree reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            a = node.args
            args = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            anns = [x.annotation for x in args if x is not None]
            anns.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            anns = [node.annotation]
        else:
            continue
        for ann in filter(None, anns):
            for name in _names_read(ann):
                yield getattr(node, "name", "<field>"), name


def test_every_annotation_names_a_bound_class():
    # typing.get_type_hints once raised NameError on KernelSpec in
    # weak_type_experiment, BranchDisjointPartition in recover_multipliers
    # and GridFunction in builtin_function.
    root = os.path.dirname(czo.__file__)
    unbound = []
    for fname in sorted(os.listdir(root)):
        if fname.endswith(".py"):
            with open(os.path.join(root, fname)) as fh:
                tree = ast.parse(fh.read())
            bound = set(dir(builtins)) | set(_module_bindings(tree.body))
            unbound += [(fname, owner, name)
                        for owner, name in _annotation_names(tree)
                        if name not in bound]
    assert unbound == []
