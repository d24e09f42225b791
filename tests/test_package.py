"""Package metadata: the version string and the exported names."""
import pathlib
import re
import types

import caywalk


def test_version_matches_pyproject_and_all_exports_no_submodules():
    pyproject = (pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert caywalk.__version__ == re.search(r'^version = "([^"]+)"', pyproject, re.M)[1]
    exported = {name: getattr(caywalk, name) for name in caywalk.__all__}
    assert [n for n, v in exported.items() if isinstance(v, types.ModuleType)] == []
    assert {"GroupSpec", "build_group", "parse_group_spec", "compute_S_e"} <= set(exported)
