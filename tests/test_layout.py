"""Module layout: the package keeps only the frame code the CLI reads, in
`inellipse.affine`, and the paper's other formulas live in the tests' `paper`
module, the general-conic helpers in the tests' `conics`; no solver module
reads the frame code, no package module imports a test module, every public
definition is exported or read by the package, and `import inellipse` loads
neither the frame code nor `dataclasses`; no module of the package or the
tests imports a name it never reads."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conics
import inellipse
import paper
from inellipse import affine
from inellipse.diameters import check_T2
from inellipse.family import inscribe
from inellipse.minecc import min_ecc, min_ecc_numeric, verify_T3
from inellipse.quad import CLASSIFY_TOL, classify

from sampling import (random_convex_quad, random_kite, random_mdq_quad,
                      random_parallelogram, random_tangential_quad)

PACKAGE = Path(inellipse.__file__).parent

#: the frame and closed-form names, by the module that defined them before
#: they moved to `inellipse.affine`
MOVED = {
    "quad": ("in_region_g", "f_values", "check_qstvw_region", "mdq_type_qstvw"),
    "family": ("_check_qst", "qst_conic", "qst_newton_line", "qst_center_param",
               "qst_tangency", "square_inellipse_conic", "qstvw_coeff_polys",
               "qstvw_conic", "_horner", "qstvw_tangency", "marden_foci"),
    "minecc": ("_mul", "EccFunctional", "G_value", "N_factorization", "p_quartic",
               "alpha_coeffs", "alpha_root", "closed_form_diameter_len_sq"),
}

#: what `inellipse.affine` keeps of them, for the CLI's `paper_r_star`; the
#: rest live in the tests' `paper` module
KEPT = ("f_values", "check_qstvw_region", "alpha_coeffs", "alpha_root")

SOLVER_MODULES = ("quad", "conic", "family", "diameters", "minecc")

#: the general-conic and pencil-parameter helpers that only the tests read,
#: by the module that defined them before they moved to the tests' `conics`
#: (the conic and diameter helpers) and `paper` (the family's two)
TEST_ONLY = {
    "conic": ("TANGENT_TOL", "sign_normalized", "discriminants", "is_ellipse",
              "center", "evaluate", "gradient", "line_intersect", "proportional"),
    "diameters": ("diameter_endpoints", "equal_conjugate_diameters", "check_T1",
                  "t1_margin"),
    "family": ("check_unit_interval", "_weights"),
}

#: every top-level name `inellipse` exports, `inellipse.__all__`: those it
#: exported before the frame formulas moved, less the 14 frame names that
#: left the package and the 10 of `TEST_ONLY` it exported
EXPORTED = (
    "ConicCoeffs", "EllipseGeometry", "geometry",
    "ClassificationReport", "DiagonalData", "Quadrilateral", "canonicalize",
    "classify", "diagonals", "quadrilateral", "normalize_to_qstvw",
    "InscribedEllipse", "inscribe", "DiameterPair", "TangencyChords",
    "check_T2", "conjugate_direction", "tangency_chords", "MinEccResult",
    "T3Report", "alpha_root", "min_ecc", "min_ecc_numeric", "verify_T3",
    "__version__",
)


#: the package and each of its modules
PACKAGE_MODULES = [inellipse] + [importlib.import_module(f"inellipse.{path.stem}")
                                 for path in sorted(PACKAGE.glob("*.py"))
                                 if path.stem != "__init__"]


@pytest.mark.parametrize("old, name", [(m, n) for m, names in MOVED.items() for n in names])
def test_moved_name_is_defined_in_affine_only(old, name):
    # a kept name is defined in `inellipse.affine` alone; a name that left the
    # package is defined in `paper` and in no `inellipse` module
    home = affine if name in KEPT else paper
    assert getattr(home, name).__module__ == home.__name__
    assert not hasattr(sys.modules[f"inellipse.{old}"], name)
    if home is paper:
        assert [m.__name__ for m in PACKAGE_MODULES if hasattr(m, name)] == []


@pytest.mark.parametrize("module", SOLVER_MODULES)
def test_solver_module_does_not_import_affine(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            target = "." * node.level + (node.module or "")
            assert target not in (".affine", "inellipse.affine"), (module, node.lineno)
            assert not (target in (".", "inellipse")
                        and any(a.name == "affine" for a in node.names)), module
        elif isinstance(node, ast.Import):
            assert all(a.name != "inellipse.affine" for a in node.names), module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_package_module_imports_no_test_module(path):
    # pytest puts `tests/` on sys.path, so only a scan catches such an import
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names]
            if isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
            parts = {part for name in names for part in name.split(".")}
            test_modules = {"conics", "exact", "paper", "sampling"}
            assert not parts & test_modules, (path.name, node.lineno)


def _top_level_names(path):
    """The names a module's top level defines or assigns, imports aside."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("old, name", [(m, n) for m, names in TEST_ONLY.items()
                                       for n in names])
def test_test_only_name_is_defined_in_the_tests_only(old, name):
    home = paper if old == "family" else conics
    assert name in _top_level_names(Path(home.__file__))
    assert [m.__name__ for m in PACKAGE_MODULES if hasattr(m, name)] == []


def test_package_keeps_every_top_level_name():
    missing = [name for name in EXPORTED if not hasattr(inellipse, name)]
    assert missing == []
    assert sorted(EXPORTED) == sorted(inellipse.__all__)


def _package_reads():
    """(module, name) of each package definition that package code outside
    it reads: a loaded name defined at a module's top level or imported from
    a package module, or an attribute of an imported package module."""
    reads = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        own = _top_level_names(path)
        names, modules = {}, {}  # local name -> (module, name), -> module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    if node.module:
                        names[a.asname or a.name] = (node.module, a.name)
                    else:
                        modules[a.asname or a.name] = a.name
        for stmt in tree.body:
            itself = (path.stem, getattr(stmt, "name", None))
            for node in ast.walk(stmt):
                hit = None
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    hit = names.get(node.id) or ((path.stem, node.id)
                                                 if node.id in own else None)
                elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in modules):
                    hit = (modules[node.value.id], node.attr)
                if hit is not None and hit != itself:
                    reads.add(hit)
    return reads


def test_every_public_definition_is_exported_or_read_by_the_package():
    # a helper that only the tests read belongs in the tests; a reader in its
    # own module counts, its own body does not, so the first of any chain of
    # helpers that no package code reads is caught
    reads = _package_reads()
    unread = [f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
              for node in ast.parse(path.read_text(encoding="utf-8")).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in inellipse.__all__
              and (path.stem, node.name) not in reads]
    assert unread == []


def _unread_imports(path):
    """The names a module imports and never reads: no `Name` node loads
    them and `__all__` does not list them."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(PACKAGE.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    unread = {f"{path.parent.name}/{path.name}": names for path in modules
              if (names := _unread_imports(path))}
    assert unread == {}


#: the names `inellipse` resolves from `inellipse.affine` on first use
FRAME_NAMES = ("alpha_root", "normalize_to_qstvw")

_COLD_IMPORT = """
import json, sys
import inellipse
after_package = sorted({"dataclasses", "inellipse.affine"} & set(sys.modules))
import inellipse.cli
after_cli = sorted({"dataclasses", "inellipse.affine", "inellipse.svgfig"}
                   & set(sys.modules))
names = json.loads(sys.argv[1])
same = [getattr(inellipse, name) is getattr(sys.modules["inellipse.affine"], name)
        for name in names]
listed = set(names) <= set(dir(inellipse))
frame = sorted(n for n, obj in vars(sys.modules["inellipse.affine"]).items()
               if getattr(obj, "__module__", None) == "inellipse.affine"
               and hasattr(inellipse, n))
print(json.dumps([after_package, after_cli, same, listed, frame,
                  hasattr(inellipse, "nope")]))
"""


def test_cold_import_loads_no_dataclasses_and_no_frame_code():
    # a fresh interpreter: pytest itself has imported dataclasses here
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-c", _COLD_IMPORT, json.dumps(FRAME_NAMES)],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    after_package, after_cli, same, listed, frame, has_other = json.loads(done.stdout)
    assert after_package == []
    # the CLI's `paper_r_star` reads the frame code, so it loads `affine`
    # eagerly; only `plot` draws, so only `plot` loads `svgfig`
    assert after_cli == ["inellipse.affine"]
    assert same == [True] * len(FRAME_NAMES)
    assert listed and not has_other
    assert frame == sorted(FRAME_NAMES)


def _quads():
    rng = np.random.default_rng(20)
    quads = []
    for _ in range(5):
        quads += [random_convex_quad(rng), random_mdq_quad(rng, type1=True),
                  random_mdq_quad(rng, type1=False), random_kite(rng),
                  random_parallelogram(rng), random_tangential_quad(rng)]
    return quads


def test_solvers_answer_with_every_affine_function_raising(monkeypatch):
    quads = _quads()

    def refuse(*args, **kwargs):
        raise AssertionError("a solver reached inellipse.affine")
    public = {name: obj for name, obj in vars(affine).items()
              if not name.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == "inellipse.affine"}
    assert sorted(public) == sorted(KEPT + ("QstvwFrame", "normalize_to_qstvw"))
    patched = {id(obj) for obj in public.values()}
    # rebind them in every module namespace that holds them, the package's too
    for mod_name, module in list(sys.modules.items()):
        if module is not None and (mod_name == "inellipse"
                                   or mod_name.startswith("inellipse.")):
            for attr, obj in list(vars(module).items()):
                if id(obj) in patched:
                    monkeypatch.setattr(module, attr, refuse)
    with pytest.raises(AssertionError):
        inellipse.alpha_root(8.0, 6.0, 2.0)
    for quad in quads:
        rep = classify(quad)
        member = inscribe(quad, 0.5)
        res = min_ecc(quad)
        assert res == min_ecc(quad, CLASSIFY_TOL)
        assert 0.0 <= min_ecc_numeric(quad).axis_ratio_sq <= 1.0
        t3 = verify_T3(res)
        if rep.mdq:
            assert t3.near_circle or (t3.parallel and t3.equal_len)
            assert verify_T3(quad) == t3
        check_T2(quad, member)
