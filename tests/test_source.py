"""Source-level rules that hold for every module of the package."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "freeflood").glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # an internal check raises InvariantViolation (exit 9); a bare assert
    # would leak AssertionError, or vanish under python -O
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


def test_oracle_is_independent_of_the_solver():
    # the oracle is the ground truth the solver is checked against, so it
    # reaches neither the solver module nor the solver's radius search
    path = next(p for p in MODULES if p.name == "oracle.py")
    imported, named = set(), set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.alias):
            named.update((node.name, node.asname))
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
    assert [m for m in sorted(imported) if "solver" in m.split(".")] == []
    assert "_radius_search" not in named


def test_zone_graphs_are_built_only_from_an_instance():
    # after `reduce` (or the grid labeling that stands in for it) the zone
    # graph lives in one flooded zone state: no zone graph is rebuilt after
    # a flood, so only these two functions construct a ReducedGraph
    builders = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                callee = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.func)}
                if "ReducedGraph" in callee:  # ReducedGraph(...), graphs.ReducedGraph._make(...)
                    builders.add(f"{path.stem}.{func.name}")
    assert builders == {"graphs.reduce", "instances._grid_zones"}


def _functions(tree, prefix=""):
    """(name, node) of each top-level function and method, a method named Class.method."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from _functions(node, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + node.name, node


def test_grid_specs_skip_their_check_only_where_the_board_is_proved():
    # `GridSpec(...)` checks every cell; only the two grid readers, which have
    # just proved the board, and `simulate`, whose frames hold zone colors,
    # build one with a bare `__new__` and skip that check
    bare = set()
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name, func in _functions(tree):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "__new__":
                    bare.add(f"{path.stem}.{name}")
    assert bare == {
        "instances.GridSpec.__new__",  # its own super().__new__, after the check
        "instances.parse_grid_spec",
        "instances._grid_by_lines",
        "cli._cmd_simulate",
    }


def _opens_for_writing(node):
    """Is `node` an os.open(...) call, or an open(...) call with a write mode?"""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "open":
        return getattr(func.value, "id", None) == "os"
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    mode = node.args[1] if len(node.args) > 1 else next(
        (kw.value for kw in node.keywords if kw.arg == "mode"), ast.Constant("r"))
    # a mode that is not a literal could be a write mode
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_cli_writes_files_only_through_its_writer():
    # `_write_output` overwrites a file in place; an open(path, "w") would
    # truncate it to zero first and stall on the last write's writeback
    path = next(p for p in MODULES if p.name == "cli.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    writer = dict(_functions(tree))["_write_output"]
    everywhere = sorted(node.lineno for node in ast.walk(tree) if _opens_for_writing(node))
    in_writer = sorted(node.lineno for node in ast.walk(writer) if _opens_for_writing(node))
    assert everywhere == in_writer != []


def test_no_module_truncates_on_open():
    # the package overwrites files in place and cuts them after the write
    names = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name == "O_TRUNC":
                names.append(f"{path.name}:{node.lineno}")
    assert names == []


# iterators with no length hint, so tuple() over one starts at 10 items as over a generator
UNSIZED_ITERATORS = {"map", "zip", "chain", "compress", "starmap"}


def _unsized(arg):
    """Is `arg` a generator expression or a call of an iterator with no length hint?"""
    if isinstance(arg, ast.GeneratorExp):
        return True
    if not isinstance(arg, ast.Call):
        return False
    callee = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(arg.func)}
    return bool(callee & UNSIZED_ITERATORS)  # map(...), chain.from_iterable(...)


def test_no_tuple_built_from_a_generator_expression():
    # CPython sizes such a tuple at 10 items and shrinks it to fit, so every
    # one moves a tuple from the size-10 free list to that of its final size;
    # those lists then fill to 2 000 entries each and hold the memory until a
    # full collection.  tuple([...]) and tuple(list(map(...))) allocate the
    # final size at once.
    sites = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "tuple"
                and any(_unsized(arg) for arg in node.args)
            ):
                sites.append(f"{path.name}:{node.lineno}")
    assert sites == []


# The public surface, pinned.  perfbench's tracer wraps every public function
# of these modules and charges it by its qualified name, so a new public
# function either maps to a metric by name or lands in none; adding one, or a
# name to `__all__`, must be a deliberate change made here as well.
PUBLIC_ALL = [
    "ColorOutOfRange", "ColoredGraph", "Counterexample", "DisconnectedGraph", "DuplicateEdge",
    "EdgeCountMismatch", "Empty", "EmptyGraph", "FloodError", "FloodMove", "GridSpec",
    "ImproperColoring", "InstanceTooLarge", "InvalidCharacter", "InvalidVertex",
    "InvariantViolation", "LemmaReport", "MalformedMove", "Metrics", "NoOpMove", "ParseError",
    "RaggedRows", "ReducedGraph", "SelfLoop", "Solution", "StateSpaceReport", "TooManyColors",
    "TooManyEdges", "Verdict", "ZoneMap", "brute_force_min_moves", "build",
    "check_distance_bounds", "check_far_witness", "check_radius_bounds", "emit_graph",
    "emit_grid", "emit_moves", "gen_random", "gen_random_bipartite", "gen_reduced_corpus",
    "grid_graph", "instance_digest", "min_moves", "parse_graph", "parse_grid", "parse_grid_spec",
    "parse_moves", "radius_and_center", "reduce", "solve", "verify_solution",
]
PUBLIC_FUNCTIONS = {
    "graphs": ["build", "reduce"],
    "instances": [
        "emit_graph", "emit_grid", "emit_moves", "gen_random", "gen_random_bipartite",
        "gen_reduced_corpus", "grid_graph", "instance_digest", "parse_graph", "parse_grid",
        "parse_grid_spec", "parse_moves",
    ],
    "metrics": ["radius_and_center"],
    "solver": ["min_moves", "solve", "verify_solution"],
    "oracle": ["brute_force_min_moves", "check_distance_bounds", "check_far_witness", "check_radius_bounds"],
}


def test_all_is_pinned():
    import freeflood

    assert len(PUBLIC_ALL) == 52
    assert sorted(freeflood.__all__) == PUBLIC_ALL


@pytest.mark.parametrize("layer", sorted(PUBLIC_FUNCTIONS))
def test_public_functions_are_pinned(layer):
    # chosen as the tracer chooses: public names bound to functions defined in the module
    module = importlib.import_module(f"freeflood.{layer}")
    defined = [
        name for name, value in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(value) and value.__module__ == module.__name__
    ]
    assert sorted(defined) == PUBLIC_FUNCTIONS[layer]


def test_the_certificate_searches_only_the_input():
    # one search from the center zone predicts the whole replay, so no loop
    # or comprehension in the solver runs a breadth-first or radius search:
    # the searches a validated solve runs do not grow with its moves
    path = next(p for p in MODULES if p.name == "solver.py")
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    searched = []
    for loop in ast.walk(tree):
        if isinstance(loop, loops):
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    callee = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.func)}
                    if callee & {"_radius_search", "_distances"}:
                        searched.append(node.lineno)
    assert searched == []
