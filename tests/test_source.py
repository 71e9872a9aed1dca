"""Properties of the package source itself."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "monres"


def imported_modules(path):
    """Top-level names of every module a source file imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_random_only_where_the_caller_asks_for_random_ideals():
    # every decision path is deterministic: `random_minimal_ideal` takes the
    # caller's generator, and `monres random` seeds one from --seed
    users = {path.name for path in SRC.glob("*.py") if "random" in imported_modules(path)}
    assert users == {"monomials.py", "cli.py"}


def test_fractions_only_in_linalg():
    # QQ values have one normal form, an int or a non-integral Fraction, made in linalg alone
    users = {path.name for path in SRC.glob("*.py") if "fractions" in imported_modules(path)}
    assert users == {"linalg.py"}


def test_only_the_standard_library_and_monres_are_imported():
    # the package is dependency-free: numpy is installed for development but stays out
    outside = {path.name: sorted(imported_modules(path) - set(sys.stdlib_module_names) - {"monres"})
               for path in SRC.glob("*.py")}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def names_used(path):
    """Every name a source file imports, reads or takes as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.alias):
            names.add(node.asname or node.name)
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_constructions_are_checked_without_the_generic_verification():
    # a construction output is homogeneous and minimal, and resolves S/M in degree 0, by
    # construction: d^2 and `first_inexact_element` on its own elements decide it
    users = {path.name for path in SRC.glob("*.py") if "verify_resolution" in names_used(path)}
    assert not users & {"posetres.py", "classify.py"}, users


def unread_parameters(path):
    """(function, parameter) for each parameter, other than self and cls, that its body never reads."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            params = [a.arg for a in [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                      if a is not None and a.arg not in ("self", "cls")]
            read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            out += [(node.name, p) for p in params if p not in read]
    return out


def test_every_parameter_is_read():
    # a parameter that no body reads is an input that changes nothing
    assert [(path.name, *where) for path in sorted(SRC.glob("*.py")) for where in unread_parameters(path)] == []


CONTAINERS = (ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp)


def module_level_containers(path):
    """Names a module binds, at its top level, to a dict, set or list, by literal or by call."""
    out = []
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        value = node.value
        if isinstance(value, CONTAINERS) or isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in ("dict", "set", "list", "defaultdict", "OrderedDict", "Counter"):
            out += [ast.unparse(t) for t in targets]
    return out


def test_no_module_level_cache():
    # caches live on an LcmLattice or a HomologyBasis and die with it; a module-level
    # memo would outlive every lattice and grow with each ideal a process sees
    bound = {path.name: module_level_containers(path) for path in SRC.glob("*.py")}
    assert {name: names for name, names in bound.items() if names} == {
        "__init__.py": ["__all__"], "classify.py": ["CLASS_NAMES", "IMPLICATIONS"]}
