"""The package runs on the standard library alone: `dependencies = []` stays.

Every module under src/specseq imports only standard-library modules,
itself, or its own modules by relative import. The package also holds
nothing that nothing reads: every private function has a caller in the
package, and every exported name and every public function is read by
the package, the benchmark, the scripts or the acceptance criteria. A
tracer TARGETS entry wraps a function but is not a reader: the public
functions that only it and the tests read are allowlisted, as is one
that only the tests read, each for the reason given with it, and the
tracer-only ones must still be TARGETS. No module but __init__.py, nor
any module under tests/, imports a name it does not use. The
multiplicative layer (algebra.py) sits on errors and linalg alone, and
the algebra, Lefschetz and model layers name none of linalg's Fraction
entry points: they solve and read bases through its integer forms. An
algebra element has one representation, the coefficient map: no module
defines or names the Element wrapper or its constructors. A filtered
complex has one constructor, FilteredComplex(cx, levels): no module or
script defines or names a second filtration class, its sparse
constructor, or a filtration attribute beside the complex's own table.
A filtration subspace has one name, its Subspace: no module or script
names a level by its rung. A command loads the half of the package it
runs: the engine commands never load the model half (algebra,
lefschetz, models, fuzz), and the model commands never load spectral.
No module imports dataclasses, and no command loads it or inspect, which
it imports: with cached bytecode the two cost about as much to import as
the whole package.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "specseq"


def imported_top_levels(tree: ast.AST) -> set[str]:
    """The top-level names of the absolute imports in a module."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_src_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    outside = {
        path.name: sorted(
            name
            for name in imported_top_levels(ast.parse(path.read_text(), str(path)))
            if name not in sys.stdlib_module_names and name != "specseq"
        )
        for path in files
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_src_imports_no_dataclasses():
    importers = [
        path.name
        for path in sorted(SRC.glob("*.py"))
        if "dataclasses" in imported_top_levels(ast.parse(path.read_text(), str(path)))
    ]
    assert importers == []


def package_imports(tree: ast.AST) -> set[str]:
    """The sibling modules a module imports by relative import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


def test_algebra_imports_only_errors_and_linalg():
    path = SRC / "algebra.py"
    assert package_imports(ast.parse(path.read_text(), str(path))) - {"errors", "linalg"} == set()


# linalg's Fraction-vector solves and views, and the cell-coordinate
# constructor that read them
FRACTION_ROUTE = {
    "solve_many",
    "column_vectors",
    "entries",
    "basis_rows",
    "nullspace",
    "element_from_cell",
}


def test_algebra_layers_name_no_fraction_route():
    named = {}
    for name in ("algebra.py", "lefschetz.py", "models.py"):
        path = SRC / name
        tree = ast.parse(path.read_text(), str(path))
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        defs = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        if hits := sorted((attrs | defs) & FRACTION_ROUTE):
            named[name] = hits
    assert named == {}


# a second representation of an algebra element beside the coefficient map:
# a wrapper class, its constructors from a basis index or a map, and its integral
ELEMENT_ROUTE = {"Element", "from_coeffs", "basis_element", "integral_of"}


def defined_or_named(tree: ast.AST) -> set[str]:
    """Every name a module defines, imports or reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_module_defines_or_names_a_second_element_representation():
    named = {}
    for path in sorted(SRC.glob("*.py")):
        if hits := sorted(defined_or_named(ast.parse(path.read_text(), str(path))) & ELEMENT_ROUTE):
            named[path.name] = hits
    assert named == {}


# a second route to a filtered complex beside FilteredComplex(cx, levels): a
# filtration class, its sparse constructor, and the attribute that held it
FILTRATION_ROUTE = {"Filtration", "from_sparse", "filtration"}


def names_in_src_and_scripts(route: set[str]) -> dict[str, list[str]]:
    """The names of route that each module or script defines or names, where any."""
    named = {}
    for path in sorted([*SRC.glob("*.py"), *(ROOT / "scripts").glob("*.py")]):
        tree = ast.parse(path.read_text(), str(path))
        if hits := sorted(defined_or_named(tree) & route):
            named[path.name] = hits
    return named


def test_no_module_or_script_names_a_second_filtration_route():
    assert names_in_src_and_scripts(FILTRATION_ROUTE) == {}


# a second name for a filtration subspace beside the Subspace itself: the
# lowest level of its run of equal levels, and the table that recorded it
RUNG_ROUTE = {"rung", "_rungs"}


def test_no_module_or_script_names_a_filtration_level_by_its_rung():
    assert names_in_src_and_scripts(RUNG_ROUTE) == {}


def referenced_names(tree: ast.AST) -> set[str]:
    """Every name a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_private_function_has_a_caller_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SRC.glob("*.py")}
    used = set().union(*map(referenced_names, trees.values()))
    private = {
        (name, node.name)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
    }
    assert private
    assert sorted(f for f in private if f[1] not in used) == []


def test_no_module_imports_a_name_it_does_not_use():
    unused = {}
    for path in [*sorted(SRC.glob("*.py")), *sorted((ROOT / "tests").glob("*.py"))]:
        if path == SRC / "__init__.py":
            continue  # it imports to re-export
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        missing = sorted(bound - referenced_names(tree))
        if missing:
            unused[str(path.relative_to(ROOT))] = missing
    assert unused == {}


def names_read_outside_their_definitions(tree: ast.AST) -> set[str]:
    """referenced_names, less the reads of a name inside a def or class of that name."""
    names = set()

    def visit(node: ast.AST, defining: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        if isinstance(node, ast.Name) and node.id not in defining:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in defining:
            names.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return names


def tracer_target_names() -> set[str]:
    """Every part of every attribute path in the TARGETS list of bench/tracer.py."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    targets = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    )
    return {part for _, _, path in ast.literal_eval(targets) for part in path.split(".")}


def names_read_besides_the_tests() -> set[str]:
    """Every name read by the package modules, bench/, scripts/ or
    tests/test_acceptance.py. A tracer TARGETS entry wraps a function but
    does not read it, so it does not count."""
    files = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]
    files += [*(ROOT / "bench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    return set().union(
        *(names_read_outside_their_definitions(ast.parse(f.read_text(), str(f))) for f in files)
    )


# public functions that only the tests and a tracer TARGETS entry read:
# ROADMAP item 4 deletes them with their TARGETS entries, a benchmark change
TRACER_ONLY_FUNCTIONS = {"d_preimage", "intersect", "lift", "split_differential"}


def test_every_tracer_only_function_is_still_a_tracer_target():
    assert sorted(TRACER_ONLY_FUNCTIONS - tracer_target_names()) == []


def test_every_exported_name_has_a_reader_besides_the_tests():
    import specseq

    unread = set(specseq.__all__) - names_read_besides_the_tests() - TRACER_ONLY_FUNCTIONS
    assert sorted(unread) == []


# public functions that only the tests read, each kept for a reason
TEST_ONLY_FUNCTIONS = {
    # ROADMAP item 1's `ss barcode` will read it
    "is_degenerate_at",
}


def test_every_public_function_has_a_reader_besides_the_tests():
    public = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
        public.update(
            node.name
            for body in bodies
            for node in body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
        )
    assert public
    unread = public - names_read_besides_the_tests() - TEST_ONLY_FUNCTIONS - TRACER_ONLY_FUNCTIONS
    assert sorted(unread) == []


MODEL_HALF = {"specseq.algebra", "specseq.lefschetz", "specseq.models", "specseq.fuzz"}

# stdlib modules no command needs (see the module docstring)
SLOW_STDLIB = {"dataclasses", "inspect"}

# print the specseq and SLOW_STDLIB modules loaded by one ss command, after its own output
LOADED = (
    "import sys\n"
    "from specseq.cli import main\n"
    "code = main(sys.argv[1:])\n"
    f"slow = {sorted(SLOW_STDLIB)!r}\n"
    "print(code, *sorted(m for m in sys.modules if m.startswith('specseq') or m in slow))\n"
)


def loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    """The exit code of `ss argv` in a fresh interpreter, and the specseq and
    SLOW_STDLIB modules it loaded."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SS_THREADS", None)
    run = subprocess.run(
        [sys.executable, "-c", LOADED, *argv], capture_output=True, env=env, timeout=120, check=True
    )
    code, *modules = run.stdout.decode().splitlines()[-1].split()
    return int(code), set(modules)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, torus2):
    """Input files by the placeholder that stands for them in an argv."""
    from conftest import acyclic_two_term
    from specseq import Derivation

    root = tmp_path_factory.mktemp("inputs")
    docs = {
        "COMPLEX": acyclic_two_term().to_json(),
        "MODEL": torus2.to_json(),
        "ZERO": Derivation(torus2.pa.A, (2, -1), [{}] * torus2.pa.A.dim()).to_json(),
    }
    for name, doc in docs.items():
        (root / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(root / f"{name}.json") for name in docs}


@pytest.mark.parametrize("command", ["compute", "oracle", "decalage"])
def test_an_engine_command_loads_no_model_half(inputs, command):
    code, modules = loaded_by([command, "--input", inputs["COMPLEX"]])
    assert code == 0
    assert "specseq.spectral" in modules
    assert modules & MODEL_HALF == set()
    assert modules & SLOW_STDLIB == set()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--algebra", "MODEL", "--derivation", "ZERO"],
        ["d2", "--model", "MODEL"],
        ["model", "product", "--a", "MODEL", "--b", "MODEL"],
        ["ext-dims", "--model", "MODEL"],
        ["fuzz", "--kind", "derivations", "--cases", "2"],
    ],
    ids=["certify", "d2", "model-product", "ext-dims", "fuzz-derivations"],
)
def test_a_model_command_loads_no_engine(inputs, argv):
    code, modules = loaded_by([inputs.get(a, a) for a in argv])
    assert code == 0
    assert "specseq.models" in modules
    assert "specseq.spectral" not in modules
    assert modules & SLOW_STDLIB == set()
