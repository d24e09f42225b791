"""Package metadata: the version string and the exported names."""
import pathlib
import re
import runpy
import sys
import types

import caywalk

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_version_matches_pyproject_and_all_exports_no_submodules():
    pyproject = (ROOT / "pyproject.toml").read_text()
    assert caywalk.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.M)[1]
    exported = {name: getattr(caywalk, name) for name in caywalk.__all__}
    assert [n for n, v in exported.items() if isinstance(v, types.ModuleType)] == []
    assert {"GroupSpec", "build_group", "parse_group_spec", "compute_S_e"} <= set(exported)


def test_bench_tracer_finds_every_traced_name(capsys):
    """bench/tracer.py wraps caywalk's functions by name once caywalk.cli is
    imported; a renamed or lazily imported one would end every traced run."""
    import caywalk.cli

    tracer = runpy.run_path(str(ROOT / "bench" / "tracer.py"))
    names = [(module, name) for module, name, _ in tracer["SPANS"]]
    names += [tracer["ENUMERATE"][:2], ("characters", "character_table_numerical"),
              ("engine", "verdict_document")]
    for module, name in names:
        assert callable(getattr(sys.modules.get(f"caywalk.{module}"), name, None)), (module, name)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "caywalk" or name.startswith("caywalk.")}
    saved = {name: dict(vars(mod)) for name, mod in modules.items()}
    try:
        spans = tracer["Tracer"]()
        tracer["install"](spans)
        assert caywalk.cli.main(["sweep", "--group", "z:8"]) == 0
    finally:
        for name, mod in modules.items():
            for attr, value in saved[name].items():
                setattr(mod, attr, value)
    capsys.readouterr()
    # The sweep's criterion pass and its enumeration run inside their spans.
    assert {"engine.mst", "cayley.enumerate", "characters.table"} <= {s[0] for s in spans.spans}
    assert spans.counts["cayley.conn_sets"] > 0
