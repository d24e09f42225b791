"""Package metadata: the version string and the module graph."""
import ast
import os
import pathlib
import re
import runpy
import subprocess
import sys

import caywalk

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_version_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert caywalk.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.M)[1]


def _fresh(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that finds caywalk where this one does."""
    source = str(pathlib.Path(caywalk.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        source, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=env, timeout=120)


# Prints the caywalk modules that importing caywalk.<argv[1]> loads.
LOADED_MODULES_CHECK = """
import importlib, sys
importlib.import_module("caywalk." + sys.argv[1])
print(sorted(name for name in sys.modules if name.split(".")[0] == "caywalk"))
"""


def test_criterion_and_oracle_routes_load_apart():
    """At run time, not only by their import statements: the package root
    imports nothing, so the oracle loads no character theory and the
    criterion and the graph layer load no oracle."""
    def loaded(module):
        fresh = _fresh(LOADED_MODULES_CHECK, module)
        assert fresh.returncode == 0, fresh.stderr
        return set(ast.literal_eval(fresh.stdout))

    assert loaded("oracle") == {"caywalk", "caywalk.oracle", "caywalk.groups",
                                "caywalk.config", "caywalk.errors"}
    for module in ("engine", "characters", "cayley"):
        assert loaded(module) & {"caywalk.oracle", "caywalk.families"} == set(), module


# Run in a fresh interpreter: in the test process other test modules have
# already imported every caywalk module, whatever caywalk.cli imports.
TRACED_NAMES_CHECK = """
import runpy, sys
import caywalk.cli
tracer = runpy.run_path(sys.argv[1])
names = [(module, name) for module, name, _ in tracer["SPANS"]]
names += [tracer["ENUMERATE"][:2], ("characters", "character_table_numerical"),
          ("engine", "verdict_document")]
print([(module, name) for module, name in names
       if not callable(getattr(sys.modules.get(f"caywalk.{module}"), name, None))])
"""


def test_bench_tracer_finds_every_traced_name(capsys):
    """bench/tracer.py wraps caywalk's functions by name once caywalk.cli is
    imported; a renamed or lazily imported one would end every traced run."""
    import caywalk.cli

    fresh = _fresh(TRACED_NAMES_CHECK, str(ROOT / "bench" / "tracer.py"))
    assert (fresh.returncode, fresh.stdout) == (0, "[]\n"), fresh.stderr

    tracer = runpy.run_path(str(ROOT / "bench" / "tracer.py"))

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "caywalk" or name.startswith("caywalk.")}
    saved = {name: dict(vars(mod)) for name, mod in modules.items()}
    try:
        spans = tracer["Tracer"]()
        tracer["install"](spans)
        assert caywalk.cli.main(["sweep", "--group", "z:8"]) == 0
        assert caywalk.cli.main(["pst", "mst", "--group", "z:6", "--classes", "1",
                                 "--witnesses"]) == 0
    finally:
        for name, mod in modules.items():
            for attr, value in saved[name].items():
                setattr(mod, attr, value)
    capsys.readouterr()
    # The sweep's criterion pass and its enumeration run inside their spans.
    assert {"engine.mst", "cayley.enumerate", "characters.table"} <= {s[0] for s in spans.spans}
    assert spans.counts["cayley.conn_sets"] > 0
    # The witness search over every target of the mst command is one span.
    assert [s[0] for s in spans.spans].count("engine.witness") == 1


def package_imports(module: str) -> set[str]:
    """The caywalk modules that caywalk.<module> imports by name."""
    tree = ast.parse((ROOT / "src" / "caywalk" / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("caywalk"):
            found.update([node.module.split(".")[1]] if "." in node.module
                         else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("caywalk."))
    return found


def reachable_modules(module: str) -> set[str]:
    """Every caywalk module that importing caywalk.<module> loads by its imports."""
    seen: set[str] = set()
    todo = [module]
    while todo:
        for dep in package_imports(todo.pop()) - seen:
            seen.add(dep)
            todo.append(dep)
    return seen


def test_criterion_and_oracle_routes_stay_independent():
    """The oracle loads no character theory, and the criterion and the graph
    layer load no oracle."""
    assert reachable_modules("engine") >= {"cayley", "characters", "groups"}
    assert reachable_modules("oracle") & {"characters", "engine", "families",
                                          "interchange"} == set()
    for module in ("engine", "characters", "cayley", "interchange"):
        assert "oracle" not in reachable_modules(module), module
    assert "characters" not in reachable_modules("cayley")


def test_no_oracle_path_builds_a_dense_walk_matrix():
    """The oracle takes its operator from the group table: oracle.py imports
    nothing from cayley, and adjacency_matrix is named only where it is
    defined and in the graph command's CSV export."""
    assert "cayley" not in package_imports("oracle")
    found = set()
    for path in sorted((ROOT / "src" / "caywalk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name if isinstance(node, (ast.alias, ast.FunctionDef)) else None)
            if name == "adjacency_matrix":
                top = next(s for s in tree.body if s.lineno <= node.lineno <= s.end_lineno)
                found.add((path.name, getattr(top, "name", type(top).__name__)))
    assert found == {("cayley.py", "adjacency_matrix"), ("cli.py", "ImportFrom"),
                     ("cli.py", "cmd_graph")}


def test_only_the_export_and_the_table_backend_read_mul():
    """Every product goes through GroupTable.multiply: no module outside
    groups.py reads .mul, and inside it only the JSON writer, the table
    validation and GroupTable's own gather (tables, and laws of small
    order) do."""
    found = set()
    for path in sorted((ROOT / "src" / "caywalk").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "mul":
                top = next(s for s in tree.body if s.lineno <= node.lineno <= s.end_lineno)
                found.add((path.name, top.name))
    assert found == {("groups.py", "GroupTable"), ("groups.py", "_validate_table"),
                     ("groups.py", "_write_group")}


def test_criterion_reads_no_dense_table():
    """engine reads character tables only through columns and products, so
    the criterion cannot quietly rebuild a k x k complex table."""
    tree = ast.parse((ROOT / "src" / "caywalk" / "engine.py").read_text(encoding="utf-8"))
    reads = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("values", "dense")]
    assert reads == []


def test_no_module_names_numpy_random():
    """Numerical tables draw from characters._splitmix64: numpy.random
    costs 11-15 ms and 6 MB to import, and numpy keeps no stream stable
    across its versions."""
    found = []
    for path in sorted((ROOT / "src" / "caywalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [ast.unparse(node)]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(f"{node.module}.{a.name}" for a in node.names)]
            else:
                continue
            if any(n.split(".")[:2] in (["np", "random"], ["numpy", "random"]) for n in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _is_group(name: str, annotation) -> bool:
    return name == "group" or "GroupTable" in (ast.unparse(annotation) if annotation else "")


def _is_conj(name: str, annotation) -> bool:
    return name == "conj" or "ConjugacyData" in (ast.unparse(annotation) if annotation else "")


def test_no_signature_or_dataclass_takes_a_group_and_its_conjugacy_data():
    """A group owns its conjugacy data (GroupTable.conj), so nothing takes
    or stores both, and nothing can pair a group with another group's classes."""
    both = []
    for path in sorted((ROOT / "src" / "caywalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                pairs = [(x.arg, x.annotation) for x in a.posonlyargs + a.args + a.kwonlyargs]
            elif isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                pairs = [(x.target.id, x.annotation) for x in node.body
                         if isinstance(x, ast.AnnAssign) and isinstance(x.target, ast.Name)]
            else:
                continue
            if any(_is_group(*p) for p in pairs) and any(_is_conj(*p) for p in pairs):
                both.append(f"{path.name}:{node.name}")
    assert both == []


def test_a_group_computes_its_conjugacy_data_once(monkeypatch, capsys):
    """g.conj is cached, and it calls groups.conjugacy by its module-level
    name, so a rebinding (as bench/tracer.py installs) sees each call."""
    from caywalk import groups
    from caywalk.cayley import cayley_graph
    from caywalk.characters import character_table_for
    from caywalk.cli import main
    from caywalk.engine import compute_S_e

    calls = []
    original = groups.conjugacy
    monkeypatch.setattr(groups, "conjugacy", lambda g: calls.append(g) or original(g))
    g = groups.build_group(groups.parse_group_spec("m2:5"))
    assert g.conj is g.conj and calls == [g]
    graph = cayley_graph(g, [4, 12])
    assert graph.conj is g.conj
    compute_S_e(graph, character_table_for(g))
    assert calls == [g]
    calls.clear()
    assert main(["sweep", "--group", "m2:4", "--limit", "16"]) == 0
    capsys.readouterr()
    assert len(calls) == 1
