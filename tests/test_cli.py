"""End-to-end CLI behavior through main(argv): output shapes and exit codes."""
import json
import math
import os
import pathlib
import runpy
import shlex
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from caywalk import characters, cli
from caywalk.cli import (
    EXIT_OK,
    EXIT_SIZE,
    EXIT_VALIDATION,
    EXIT_VERIFICATION,
    main,
)
from caywalk.config import FIDELITY_GAP, SCAN_THRESHOLD
from caywalk.errors import InvalidParameterError
from caywalk.families import family_extraspecial3, family_m2, shipped_certificates
from caywalk.groups import (
    GroupSpec,
    build_group,
    index_of_digits,
    parse_group_spec,
    save_group,
)
from caywalk.oracle import SCAN_MAX_STEPS

from conftest import (
    FIXTURE_DOCUMENTS,
    group_to_json,
    intercalate_z2_9,
    set_unit_closure,
    write_fixture_documents,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def run_json(capsys, argv):
    """Run a command with --format json and parse its output strictly."""
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant)


def readme_commands() -> list[list[str]]:
    """argv of every `caywalk ...` line in the README's "Command line" block."""
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("caywalk ")]


def group_specs_in_use() -> set[str]:
    """Every group spec the benchmark, the README and the certificate suite spell out."""
    workloads = runpy.run_path(str(ROOT / "bench" / "workloads.py"))["WORKLOADS"]
    argvs = [list(cmd.args) for cmds in workloads.values() for cmd in cmds]
    specs = {str(cert.group.spec) for cert in shipped_certificates()}
    for argv in argvs + readme_commands():
        if "--group" in argv:
            specs.add(argv[argv.index("--group") + 1])
        elif argv[0] == "group":
            specs.add(argv[-1])
    return specs


# ---------------------------------------------------------------------------
# group spec mini-language


def test_parse_group_spec_compact_forms():
    assert parse_group_spec("z:8") == GroupSpec("cyclic", r=8)
    assert parse_group_spec("z4^2") == GroupSpec("abelian", r=4, n=2)
    assert parse_group_spec("extraspecial3:1") == GroupSpec("extraspecial3", n=1)
    assert parse_group_spec("extraspecial3:1:9") == GroupSpec(
        "extraspecial3", n=1, exponent=9)
    assert parse_group_spec("es3:1:9") == parse_group_spec("extraspecial3:1:9")
    assert parse_group_spec("m2:5") == GroupSpec("m2", n=5)
    assert parse_group_spec("wreath:z:3:2") == GroupSpec(
        "wreath", n=2, base=GroupSpec("cyclic", r=3))
    assert parse_group_spec("file:/tmp/g.json") == GroupSpec("file", path="/tmp/g.json")


def test_parse_group_spec_rejects_garbage():
    for bad in ("", "q:5", "wreath:2", "extraspecial3", "m2 5", "m2 5 6",
                "wreath --base z:3 --n 2", "wreath:q:2", "z:x"):
        with pytest.raises(InvalidParameterError):
            parse_group_spec(bad)


def test_group_spec_names_round_trip(tmp_path):
    """A printed group name rebuilds the same table."""
    saved = tmp_path / "z6.json"
    save_group(build_group(parse_group_spec("z:6")), str(saved))
    specs = group_specs_in_use() | {"wreath:extraspecial3:1:2", f"file:{saved}"}
    assert {"z3^7", "wreath:z:3:4", "es3:2", "wreath:z3^1:2", "z:8"} <= specs
    for text in sorted(specs):
        group = build_group(parse_group_spec(text))
        again = build_group(parse_group_spec(group.family_tag))
        assert again.spec == group.spec, text
        # Right multiplication by the generators fixes the whole table.
        assert again.generators == group.generators, text
        rows = np.arange(group.order)[:, None]
        assert np.array_equal(again.multiply(rows, group.generators),
                              group.multiply(rows, group.generators)), text
    assert build_group(parse_group_spec("wreath:extraspecial3:1:2")).family_tag == \
        "wreath:es3:1:2"
    assert build_group(parse_group_spec(f"file:{saved}")).family_tag == f"file:{saved}"


# ---------------------------------------------------------------------------
# group commands


def test_group_build_cyclic(capsys):
    code, doc = run_json(capsys, ["group", "build", "z:8"])
    assert code == EXIT_OK
    assert doc["order"] == 8 and doc["classes"] == 8
    assert doc["center"] == 8 and doc["exponent"] == 8


def test_group_build_saves_table(capsys, tmp_path):
    out = tmp_path / "z6.json"
    code, doc = run_json(capsys, ["group", "build", "--out", str(out), "z:6"])
    assert code == EXIT_OK and doc["saved"] == str(out)
    saved = json.loads(out.read_text())
    assert saved["order"] == 6


def test_group_build_out_after_spec(capsys, tmp_path):
    out = tmp_path / "m2.json"
    code, doc = run_json(capsys, ["group", "build", "m2:5", "--out", str(out)])
    assert code == EXIT_OK and doc["saved"] == str(out)
    assert doc["family"] == "m2:5" and json.loads(out.read_text())["order"] == 32


def test_group_info_rejects_a_saved_nonassociative_loop(capsys, tmp_path):
    path = tmp_path / "loop.json"
    save_group(build_group(parse_group_spec("z2^9")), str(path))
    doc = json.loads(path.read_text())
    doc["mul"] = intercalate_z2_9().tolist()
    path.write_text(json.dumps(doc))
    assert main(["group", "info", f"file:{path}"]) == EXIT_VALIDATION
    assert "associativity fails" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["sweep", "--group", "z4^2"],
                                  ["pst", "mst", "--group", "z3^6",
                                   "--classes", "1,3,9,27,81,243"],
                                  ["sweep", "--group", "m2:5", "--limit", "32"],
                                  ["pst", "mst", "--group", "extraspecial3:2",
                                   "--classes", "1,3,5,11,29", "--witnesses"],
                                  ["verify"]])
def test_commands_import_neither_masked_arrays_nor_random(argv):
    # numpy.ma costs about 16 ms at first use (np.unique loads it), and
    # numpy.random 11-15 ms and 6 MB (it loads secrets, hashlib and hmac).
    # Closed-form verdicts need neither, and numerical tables draw their
    # coefficients from characters._splitmix64.
    probe = ("import sys, caywalk.cli; code = caywalk.cli.main(sys.argv[1:]); "
             "print(code, [m for m in ('numpy.ma', 'numpy.random') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe, *argv], env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "0 []", proc.stderr


def test_group_info_fields(capsys):
    code, doc = run_json(capsys, ["group", "info", "z:6"])
    assert code == EXIT_OK
    assert doc["solvable"] is True
    assert doc["derived_series"] == [6, 1]
    assert doc["excluded_transfer_sizes"] == [6]
    assert doc["class_sizes"] == [1] * 6


def test_character_export_holds_one_block_of_rows(capsys, tmp_path):
    """z:64's export (0.7 MB, 64 x 64 x 64 cyclotomic coefficients) traced
    3.4 MB built whole before json.dump; written a block of rows at a time,
    0.8 MB."""
    path = tmp_path / "z64.json"
    tracemalloc.start()
    try:
        assert main(["group", "export", "--characters", "--out", str(path), "z:64"]) == EXIT_OK
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert len(json.loads(path.read_text())["characters"]) == 64
    assert peak <= 2 * 10**6


def test_group_export_characters_round_trip(capsys, tmp_path):
    out = tmp_path / "table.json"
    code, _ = run_json(capsys, ["group", "export", "--characters",
                                "--out", str(out), "extraspecial3:1"])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["group_order"] == 27 and len(doc["characters"]) == 11


def test_group_export_to_stdout(capsys, tmp_path):
    """stdout takes the compact document and a newline, --out the document
    alone: the group as json.dumps would write it, and its character table."""
    code = main(["group", "export", "z:4"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert json.loads(out)["order"] == 4
    assert out == json.dumps(group_to_json(build_group(parse_group_spec("z:4"))),
                             sort_keys=True, separators=(",", ":")) + "\n"
    assert main(["group", "export", "--out", str(tmp_path / "g.json"), "z:4"]) == EXIT_OK
    assert main(["group", "export", "--characters", "z:4"]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()[-1]
    assert main(["group", "export", "--characters", "--out", str(tmp_path / "t.json"),
                 "z:4"]) == EXIT_OK
    assert (tmp_path / "g.json").read_text(encoding="utf-8") + "\n" == out
    assert (tmp_path / "t.json").read_text(encoding="utf-8") == table == \
        json.dumps(json.loads(table), sort_keys=True, separators=(",", ":"))


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands()
    assert len(commands) == 13
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
    assert (tmp_path / "z8_chars.json").exists()


# ---------------------------------------------------------------------------
# pst commands


def test_pst_check_accepts(capsys):
    code, doc = run_json(capsys, ["pst", "check", "--group", "z:8",
                                  "--classes", "1,2,5", "--target", "2",
                                  "--time", "pi/4"])
    assert code == EXIT_OK
    assert doc["accepted"] is True and doc["residual"] < 1e-10


def test_pst_check_residual_threshold_is_value_tol(capsys):
    """A time 3e-8 off pi/2 leaves a residual of 2.93e-07: over the
    threshold VALUE_TOL = 1e-8."""
    code = main(["--format", "json", "pst", "check", "--group", "z:8",
                 "--classes", "1,2,5", "--target", "4", "--time", "1.5707964"])
    doc = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK and doc["accepted"] is False
    assert doc["residual"] == pytest.approx(2.928e-07, rel=1e-3)


def test_pst_check_reports_a_static_separating_character(capsys):
    """Character 4 of Z_8 has theta 0 on {1, 2, 5} and value -1 at 1, so no
    time reaches 1: the residual is infinite (null in JSON), with the reason
    that solve gives."""
    argv = ["--group", "z:8", "--classes", "1,2,5", "--target", "1"]
    code, doc = run_json(capsys, ["pst", "check", *argv, "--time", "1.0"])
    assert code == EXIT_OK and doc["accepted"] is False
    assert doc["residual"] is None
    assert doc["reason"] == "a character separating z from e is static"
    code, solved = run_json(capsys, ["pst", "solve", *argv])
    assert code == EXIT_OK and solved["found"] is False
    assert solved["near_miss_residual"] is None and solved["reason"] == doc["reason"]


def test_pst_check_from_shifted_source(capsys):
    code, doc = run_json(capsys, ["pst", "check", "--group", "z:8",
                                  "--classes", "1,2,5", "--source", "3",
                                  "--target", "5", "--time", "pi/4"])
    assert code == EXIT_OK and doc["accepted"] is True


def test_pst_check_noncentral_target(capsys):
    code, doc = run_json(capsys, ["pst", "check", "--group", "extraspecial3:1",
                                  "--classes", "x1,y1,z", "--target", "x1",
                                  "--time", "2pi/3sqrt3"])
    assert code == EXIT_OK
    assert doc["accepted"] is False and doc["reason"] == "target is not central"


def test_pst_solve_finds_quarter_pi(capsys):
    code, doc = run_json(capsys, ["pst", "solve", "--group", "z:8",
                                  "--classes", "1,2,5", "--target", "2"])
    assert code == EXIT_OK and doc["found"] is True
    assert doc["tau"] == pytest.approx(math.pi / 4, abs=1e-10)


def test_pst_solve_degenerate_reports_near_miss(capsys):
    c1 = index_of_digits([1, 1], 4)
    c2 = index_of_digits([1, 3], 4)
    z = index_of_digits([2, 0], 4)
    code, doc = run_json(capsys, ["pst", "solve", "--group", "z4^2",
                                  "--classes", f"{c1},{c2}", "--target", str(z)])
    assert code == EXIT_OK and doc["found"] is False
    assert "near_miss_residual" in doc


def test_pst_solve_states_aperiodic_reason(capsys):
    code, doc = run_json(capsys, ["pst", "solve", "--group", "z:5",
                                  "--classes", "1,2", "--target", "1"])
    assert code == EXIT_OK and doc["found"] is False
    assert doc["near_miss_residual"] is None  # infinite: JSON has no such number
    assert "aperiodic" in doc["reason"] and "k" not in doc


def test_pst_mst_m2_5_transfer_at_irrational_multiple(capsys):
    """A size-2 transfer at pi/(2 sqrt 2): the rationality check reports it, not enforces it."""
    code, doc = run_json(capsys, ["pst", "mst", "--group", "m2:5", "--classes", "4,12"])
    assert code == EXIT_OK
    assert doc["S_e"] == [0, 16] and doc["size"] == 2 and doc["connected"] is False
    assert doc["tau"] == pytest.approx(math.pi / (2 * math.sqrt(2.0)), abs=1e-12)
    assert doc["oracle_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["tau_rational"]["ok"] is False and doc["tau_rational"]["multiplier"] == "pi"


def test_pst_solve_period_mode(capsys):
    code, doc = run_json(capsys, ["pst", "solve", "--group", "z:3",
                                  "--classes", "1", "--target", "0", "--period"])
    assert code == EXIT_OK and doc["found"] is True
    assert doc["tau"] == pytest.approx(2 * math.pi / math.sqrt(3.0), abs=1e-9)


def test_pst_mst_full_verdict(capsys):
    code, doc = run_json(capsys, ["pst", "mst", "--group", "z:8",
                                  "--classes", "1,2,5"])
    assert code == EXIT_OK
    assert doc["S_e"] == [0, 2, 4, 6] and doc["size"] == 4
    assert doc["tau"] == pytest.approx(math.pi / 4)
    assert doc["tau_rational"] == {"ok": True, "multiplier": "pi", "p": 1, "q": 4}
    assert doc["oracle_fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["S_e_labels"] == ["0", "2", "4", "6"]
    assert "oracle_skipped" not in doc


@pytest.mark.parametrize("argv, reason", [
    (["--oracle-max-order", "4", "pst", "mst", "--group", "z:8", "--classes", "1,2,5"],
     "order 8 above --oracle-max-order 4"),
    (["pst", "mst", "--group", "z:5", "--classes", "1,2"], "size 1: no transfer time to check"),
])
def test_pst_mst_names_why_the_oracle_was_skipped(capsys, argv, reason):
    code, doc = run_json(capsys, argv)
    assert code == EXIT_OK
    assert doc["oracle_fidelity"] is None and doc["oracle_skipped"] == reason


def test_pst_mst_by_labels_on_nonabelian(capsys):
    code, doc = run_json(capsys, ["pst", "mst", "--group", "extraspecial3:1",
                                  "--classes", "x1,y1,z"])
    assert code == EXIT_OK and doc["size"] == 3
    assert doc["tau_rational"]["multiplier"] == "pi/sqrt3"


@pytest.mark.parametrize("spec, size, tau", [
    ("es3:3", 3, 2 * math.pi / (3 * math.sqrt(3.0))),
    ("m2:8", 4, math.pi / 4),
])
def test_pst_mst_certifies_family_members_past_128_classes(capsys, spec, size, tau):
    """es3:3 has 731 classes and m2:8 has 160; both get closed forms, es3:3
    the structured one."""
    cert = family_extraspecial3(3) if spec == "es3:3" else family_m2(8)
    classes = ",".join(map(str, cert.connection_classes))
    code, doc = run_json(capsys, ["pst", "mst", "--group", spec, "--classes", classes])
    assert code == EXIT_OK
    assert doc["size"] == cert.claimed_size == size and cert.z in doc["S_e"]
    assert doc["tau"] == pytest.approx(tau, abs=1e-12)


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.mark.parametrize("argv, size", [
    (["--max-order", "65536", "pst", "mst", "--group", "m2:12", "--classes", "2"], 1),
    (["--max-order", "20000", "pst", "mst", "--group", "es3:4", "--classes", "1"], 3),
])
def test_the_largest_es3_and_m2_members_get_a_verdict(argv, size):
    """m2:12 (2,560 classes) and es3:4 (6,563, over the numerical cap) take
    their closed forms: a verdict in under 1 s and 150 MB, interpreter start
    and import included."""
    # VmHWM, the peak RSS of this process image: ru_maxrss would also count
    # the pytest process it was forked from.
    probe = ("import sys, caywalk.cli; code = caywalk.cli.main(sys.argv[1:]); "
             "print(code, next(line.split()[1] for line in open('/proc/self/status') "
             "if line.startswith('VmHWM')))")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", probe, "--format", "json", *argv],
                          env=child_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    text, last = proc.stdout.rstrip().rsplit("\n", 1)
    code, rss_kb = map(int, last.split())
    assert code == EXIT_OK and json.loads(text)["size"] == size, proc.stderr
    assert elapsed < 1.0 and rss_kb < 150 * 1024, (elapsed, rss_kb)


def test_pst_mst_refuses_classes_past_the_cap_before_forming_the_matrix(capsys, monkeypatch):
    formed = []
    monkeypatch.setattr(characters, "MAX_TABLE_CLASSES", 21)
    monkeypatch.setattr(characters, "_class_combination", lambda *args: formed.append(args))
    code = main(["pst", "mst", "--group", "wreath:z:3:3", "--classes", "3,6"])
    assert code == EXIT_SIZE and formed == []
    assert "22 classes exceeds numerical cap 21" in capsys.readouterr().err


def test_pst_mst_witnesses(capsys):
    code, doc = run_json(capsys, ["pst", "mst", "--group", "z4^2",
                                  "--classes", "1", "--witnesses"])
    assert code == EXIT_OK
    # transfer lands on {0, sigma, 2 sigma, ...}: size 2 here, and every
    # central element outside S_e that admits a witness is listed
    assert doc["size"] == 2
    assert len(doc["witnesses"]) > 0


def test_pst_nonexist_witness(capsys):
    code, doc = run_json(capsys, ["pst", "nonexist", "--group", "z:6",
                                  "--target", "3"])
    assert code == EXIT_OK
    assert doc["witness_found"] is True and doc["characters"] == [1, 3]


def test_pst_nonexist_no_witness(capsys):
    code, doc = run_json(capsys, ["pst", "nonexist", "--group", "z:8",
                                  "--target", "2"])
    assert code == EXIT_OK and doc["witness_found"] is False


def test_pst_nonexist_refuses_a_non_central_target(capsys):
    code = main(["pst", "nonexist", "--group", "wreath:z:4:2", "--target", "1"])
    assert code == EXIT_VALIDATION
    assert "target must be central" in capsys.readouterr().err


def test_pst_mst_witnesses_on_z1024(capsys):
    """Each odd z is ruled out; z lies outside every chosen kernel (row v's
    value at z is zeta^(v z), 1 only when 1024 divides v z), and on eight of
    them the chosen stabilizers generate the units mod 1024."""
    code, doc = run_json(capsys, ["pst", "mst", "--group", "z:1024", "--classes", "1",
                                  "--witnesses"])
    assert code == EXIT_OK
    witnesses = doc["witnesses"]
    assert len(witnesses) == 512 and {w["z"] for w in witnesses} == set(range(1, 1024, 2))
    for w in witnesses:
        assert all(v * w["z"] % 1024 for v in w["characters"]), w
    units = set(range(1, 1024, 2))
    for w in witnesses[::64]:
        # Unit k fixes row v when (k - 1) v = 0 mod 1024.
        seed = {k for v in w["characters"] for k in units if (k - 1) * v % 1024 == 0}
        assert set_unit_closure(1024, seed) == units, w


def test_pst_oracle_at_time(capsys):
    code, doc = run_json(capsys, ["pst", "oracle", "--group", "z:8",
                                  "--classes", "1,2,5", "--time", "pi/4"])
    assert code == EXIT_OK
    assert doc["target"] == 2 and doc["fidelity"] == pytest.approx(1.0, abs=1e-9)
    assert doc["entry"][0] == pytest.approx(1.0, abs=1e-9)


def test_pst_oracle_scan_csv(capsys):
    code = main(["--format", "csv", "pst", "oracle", "--group", "z:3",
                 "--classes", "1", "--scan", "--t-max", "1.5"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("t,fidelity,target\n")


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("t_max", ["-3", "0", "inf", "nan"])
def test_pst_oracle_refuses_a_scan_window_that_is_not_positive_and_finite(capsys, fmt, t_max):
    """A negative window once gave unrefined hits at negative times, and an
    infinite or nan one nan rows, all with exit 0."""
    code = main(["--format", fmt, "pst", "oracle", "--group", "z:3", "--classes", "1",
                 "--scan", "--t-max", t_max])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION and captured.out == ""
    assert "--t-max must be positive and finite" in captured.err


@pytest.mark.parametrize("route, value", [
    ("check", "inf"), ("check", "nan"), ("check", "solved:nan"),
    ("claim", math.inf), ("claim", "solved:nan")])
def test_a_time_that_is_not_finite_is_refused(capsys, tmp_path, route, value):
    """pst check once answered "accepted": false, "residual": null with
    exit 0 (and, at inf, two numpy RuntimeWarnings); an imported claim with
    "time": Infinity, which json.loads reads, failed verification."""
    if route == "check":
        argv = ["pst", "check", "--group", "z:8", "--classes", "1,2,5", "--target", "4",
                "--time", value]
    else:
        path = exported_table_with_claim(tmp_path, capsys, time_value=value)
        argv = ["verify", "--only", "z3_1", "--import-table", str(path)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "is not finite" in captured.err
    if route == "check":
        assert captured.out == ""


def test_pst_oracle_refuses_a_scan_grid_over_the_step_limit(capsys):
    """Time and memory grow linearly with a JSON scan's grid (1.3 s and
    64 MB at t_max 10^4 on z:8), so t_max 10^7 would ask for tens of GB.
    One step over the limit is refused before anything is allocated."""
    slack = math.sqrt(1 - SCAN_THRESHOLD) - math.sqrt(FIDELITY_GAP)
    t_max = (SCAN_MAX_STEPS + 0.5) * slack / math.sqrt(6 / 8)  # degree 6
    start = time.perf_counter()
    code = main(["pst", "oracle", "--group", "z:8", "--classes", "1,2,5", "--scan",
                 "--t-max", repr(t_max)])
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert code == EXIT_SIZE and captured.out == ""
    assert f"needs {SCAN_MAX_STEPS + 1} grid steps" in captured.err


def test_pst_oracle_requires_time_or_scan(capsys):
    code = main(["pst", "oracle", "--group", "z:8", "--classes", "1,2,5"])
    assert code == EXIT_VALIDATION


def test_pst_oracle_size_cap(capsys):
    code = main(["--oracle-max-order", "4", "pst", "oracle", "--group", "z:8",
                 "--classes", "1,2,5", "--time", "pi/4"])
    assert code == EXIT_SIZE
    assert "oracle cap" in capsys.readouterr().err


def test_pst_rejects_inverse_pair_classes(capsys):
    code = main(["pst", "mst", "--group", "z:8", "--classes", "1,7"])
    assert code == EXIT_VALIDATION
    assert "inverse-pair" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_cyclic8(capsys):
    code, doc = run_json(capsys, ["sweep", "--group", "z:8"])
    assert code == EXIT_OK
    assert doc["sets_tested"] == 13
    winners = {tuple(c["connection_classes"]): c["size"] for c in doc["certificates"]}
    assert winners.get((1, 2, 5)) == 4
    total = sum(doc["histogram"].values())
    assert total == 13


def test_sweep_cyclic3(capsys):
    code, doc = run_json(capsys, ["sweep", "--group", "z:3"])
    assert code == EXIT_OK
    assert doc["sets_tested"] == 1
    assert doc["histogram"] == {"3": 1}
    assert doc["certificates"][0]["tau"] == pytest.approx(
        2 * math.pi / (3 * math.sqrt(3.0)))


def test_sweep_connected_only(capsys):
    code, doc = run_json(capsys, ["sweep", "--group", "z:8", "--connected-only"])
    assert code == EXIT_OK
    assert doc["sets_tested"] < 13  # {2}, {1,7}-style generators drop out
    winners = {tuple(c["connection_classes"]) for c in doc["certificates"]}
    assert (1, 2, 5) in winners


@pytest.mark.parametrize("count", ["0", "-1"])
def test_sweep_refuses_a_class_count_that_is_not_positive(capsys, count):
    code = main(["sweep", "--group", "z:8", "--max-classes", count])
    assert code == EXIT_VALIDATION
    assert "--max-classes must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("limit", ["0", "-5"])
def test_sweep_refuses_a_limit_that_is_not_positive(capsys, limit):
    code = main(["sweep", "--group", "z:8", "--limit", limit])
    assert code == EXIT_VALIDATION
    assert "--limit must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("seed", [str(-1), str(2**64)])
@pytest.mark.parametrize("argv", [["pst", "mst", "--group", "z:8", "--classes", "1,3"],
                                  ["sweep", "--group", "z:8"],
                                  ["group", "info", "z:3"],
                                  ["verify", "--only", "z8_125"]])
def test_a_seed_outside_64_bits_is_refused_on_every_command(capsys, seed, argv):
    """--seed keys a 64-bit stream; out of range it exits 2 before any work,
    also where no numerical table is built."""
    assert main(["--seed", seed, *argv]) == EXIT_VALIDATION
    assert "--seed must be an integer in 0..18446744073709551615" in capsys.readouterr().err


def test_the_largest_seed_builds_a_numerical_table(capsys):
    code, doc = run_json(capsys, ["--seed", str(2**64 - 1), "pst", "mst",
                                  "--group", "wreath:z:3:3", "--classes", "3,6"])
    assert code == EXIT_OK and doc["size"] == 3


def test_sweep_refuses_too_many_sets_before_the_table(capsys, monkeypatch):
    """z:64 has 31 inverse pairs: (3^31 - 1) / 2 oriented sets, about
    3.1 x 10^14, are refused at once; two classes per set give 961."""
    monkeypatch.setattr(cli, "character_table_for", lambda *args, **kwargs: pytest.fail("built"))
    start = time.perf_counter()
    assert main(["sweep", "--group", "z:64", "--limit", "64"]) == EXIT_SIZE
    assert time.perf_counter() - start < 0.5
    assert f"{(3**31 - 1) // 2} connection sets exceed the sweep bound 1048576" \
        in capsys.readouterr().err
    monkeypatch.undo()
    code, doc = run_json(capsys, ["sweep", "--group", "z:64", "--limit", "64",
                                  "--max-classes", "2"])
    assert code == EXIT_OK and doc["sets_tested"] == 961


def test_graph_csv_refuses_a_matrix_over_the_vertex_limit(capsys, monkeypatch):
    start = time.perf_counter()
    assert main(["--max-order", "65536", "--format", "csv", "graph", "--group", "z:65536",
                 "--classes", "1"]) == EXIT_SIZE
    assert time.perf_counter() - start < 0.5
    assert "65536 vertices exceeds the limit 4096" in capsys.readouterr().err
    monkeypatch.setattr(cli, "MAX_CSV_VERTICES", 8)
    assert main(["--format", "csv", "graph", "--group", "z:8", "--classes", "1"]) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 8
    assert main(["--format", "csv", "graph", "--group", "z:9", "--classes", "1"]) == EXIT_SIZE


def test_a_closed_stdout_exits_141_in_silence():
    """The reader is gone before the first byte: no error message, exit
    128 + SIGPIPE, and nothing raised again at interpreter exit."""
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "caywalk.cli", "--format", "json",
                               "sweep", "--group", "z4^2"], stdout=write,
                              stderr=subprocess.PIPE, env=child_env(), timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 141 and proc.stderr == b""


def test_sweep_refuses_large_group(capsys):
    code = main(["sweep", "--group", "z:17"])
    assert code == EXIT_SIZE
    assert "--limit" in capsys.readouterr().err
    assert main(["sweep", "--group", "z:17", "--limit", "17"]) == EXIT_OK


# ---------------------------------------------------------------------------
# verify


def test_verify_all_fixtures(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "all ok" in out
    assert out.count("ok ") >= 14


def test_verify_only_subset(capsys):
    code = main(["verify", "--only", "z8_125", "--only", "z3_1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "z8_125" in out and "z3_1" in out and "m2_32" not in out
    assert "tau=1/4*pi" in out


def test_verify_unknown_fixture_name(capsys):
    code = main(["verify", "--only", "no_such_cert"])
    assert code == EXIT_VALIDATION


def test_verify_matches_bench_reference(capsys):
    """The default suite replays to the benchmark's stored `verify` output:
    names and order, classes, S_e, size and tau."""
    check = runpy.run_path(str(ROOT / "bench" / "check.py"))
    refs = json.loads((ROOT / "bench" / "reference" / "certify.json").read_text(encoding="utf-8"))
    argv = ["--seed", "42", "--format", "json", "verify"]
    ref = next(cmd for cmd in refs["commands"] if cmd["argv"] == argv)
    assert main(argv) == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert check["check_verify"](doc, ref["stdout"]) == []


def test_verify_fixture_documents_of_each_claim_kind(capsys, tmp_path):
    write_fixture_documents(tmp_path)
    code, doc = run_json(capsys, ["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_OK and doc["ok"] and doc["failures"] == []
    got = [(c["name"], c["ok"], c["verdict"]["size"]) for c in doc["certificates"]]
    assert got == [("m2_16_probe", True, 4), ("z3_2_return", True, 1), ("z8_125", True, 4)]


@pytest.mark.parametrize("name,key,value", [("z8_125", "report_only", True),
                                            ("z8_125", "claims_pst", False),
                                            ("m2_16_probe", "report_only", False),
                                            ("z3_2_return", "claims_pst", True)])
def test_verify_rejects_claim_flag_contradicting_size(capsys, tmp_path, name, key, value):
    docs = [{**doc, key: value} if doc["name"] == name else doc for doc in FIXTURE_DOCUMENTS]
    write_fixture_documents(tmp_path, docs)
    code = main(["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert f"{key}={value!r} contradicts claimed_size" in capsys.readouterr().err


def test_verify_doctored_fixture_fails(capsys, tmp_path):
    # The true transfer target of z8_125 at pi/4 is 2.
    docs = [{**doc, "z": 4} if doc["name"] == "z8_125" else doc for doc in FIXTURE_DOCUMENTS]
    write_fixture_documents(tmp_path, docs)
    code = main(["verify", "--fixtures", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == EXIT_VERIFICATION
    assert "FAIL z8_125" in out
    assert "ok  m2_16_probe" in out and "ok  z3_2_return" in out


def test_verify_rejects_fixture_group_dict(capsys, tmp_path):
    doc = {**FIXTURE_DOCUMENTS[0], "group": {"family": "cyclic", "r": 8}}
    write_fixture_documents(tmp_path, [doc])
    code = main(["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "group must be a spec string" in capsys.readouterr().err


def test_verify_rejects_fixture_missing_key(capsys, tmp_path):
    doc = {key: value for key, value in FIXTURE_DOCUMENTS[0].items() if key != "z"}
    write_fixture_documents(tmp_path, [doc])
    code = main(["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "missing keys ['z']" in capsys.readouterr().err


@pytest.mark.parametrize("size", ["4", 0, 2.5, True])
def test_verify_rejects_fixture_claimed_size_that_is_not_a_size(capsys, tmp_path, size):
    write_fixture_documents(tmp_path, [{**FIXTURE_DOCUMENTS[0], "claimed_size": size}])
    code = main(["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert "is neither null nor a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("oriented", "false", "oriented must be a boolean"),
    ("oriented", 0, "oriented must be a boolean"),
    ("connection_classes", 5, "connection_classes must be a non-empty list of integers"),
    ("connection_classes", [], "connection_classes must be a non-empty list of integers"),
    ("connection_classes", ["1", 2], "connection_classes must be a non-empty list of integers"),
    ("connection_classes", [1.0, 2], "connection_classes must be a non-empty list of integers"),
    ("z", "2", "z must be an integer"),
    ("z", 2.0, "z must be an integer"),
    ("tau", None, "tau must be a string or a number"),
    ("tau", [0.5], "tau must be a string or a number"),
    ("tau", True, "tau must be a string or a number"),
])
def test_verify_rejects_fixture_field_of_wrong_type(capsys, tmp_path, key, value, message):
    write_fixture_documents(tmp_path, [{**FIXTURE_DOCUMENTS[0], key: value}])
    code = main(["verify", "--fixtures", str(tmp_path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


def exported_table_with_claim(tmp_path, capsys, time_value="2pi/3sqrt3"):
    path = tmp_path / "es27.json"
    code, _ = run_json(capsys, ["group", "export", "--characters",
                                "--out", str(path), "extraspecial3:1"])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    # identify the centre class (size 1, rep of order 3) and two non-real classes
    from caywalk.interchange import import_character_table

    imported = import_character_table(doc)
    inv_map = imported.power_maps[2]
    z_class = next(i for i, (s, o) in enumerate(
        zip(doc["class_sizes"], doc["class_rep_orders"])) if s == 1 and o == 3)
    conn = []
    for c in range(len(doc["class_sizes"])):
        if c == 0 or inv_map[c] == c or inv_map[c] in conn:
            continue
        conn.append(c)
    doc["pst_claims"] = [{"z_class": z_class, "time": time_value,
                          "connection_classes": conn}]
    path.write_text(json.dumps(doc))
    return path


def test_verify_import_table_claim(capsys, tmp_path):
    path = exported_table_with_claim(tmp_path, capsys)
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert f"import {path}" in out and "all ok" in out


def test_verify_import_rejects_false_claim(capsys, tmp_path):
    path = exported_table_with_claim(tmp_path, capsys, time_value=0.123)
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VERIFICATION


@pytest.mark.parametrize("key, value, message", [
    ("z_class", "2", "z_class must be an integer"),
    ("z_class", 2.0, "z_class must be an integer"),
    ("z_class", True, "z_class must be an integer"),
    ("connection_classes", 5, "connection_classes must be a non-empty list of integers"),
    ("connection_classes", [], "connection_classes must be a non-empty list of integers"),
    ("connection_classes", ["1"], "connection_classes must be a non-empty list of integers"),
    ("time", ["pi/4"], "time must be a string or a number"),
    ("time", None, "time must be a string or a number"),
])
def test_verify_import_rejects_claim_field_of_wrong_type(capsys, tmp_path, key, value, message):
    path = exported_table_with_claim(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["pst_claims"][0][key] = value
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spoil, message", [
    pytest.param(lambda d: d.update(group_order=3.0), "group_order must be an integer",
                 id="group_order"),
    pytest.param(lambda d: d.update(exponent=3.7), "exponent must be a positive integer",
                 id="exponent"),
    pytest.param(lambda d: d["characters"][1].update(degree=1.9),
                 "every character needs an integer degree", id="degree"),
    pytest.param(lambda d: d["class_sizes"].__setitem__(1, 1.0),
                 "class_sizes must be a list of integers", id="class_sizes"),
    pytest.param(lambda d: d["class_rep_orders"].__setitem__(2, True),
                 "class_rep_orders must be a list of integers", id="class_rep_orders"),
    pytest.param(lambda d: d["class_power_maps"].update({"2": [0, 2.9, 1.2]}),
                 "class_power_maps must map each unit to a list of integers",
                 id="class_power_maps"),
    pytest.param(lambda d: d["class_power_maps"].update({"2": [0, 2, True]}),
                 "class_power_maps must map each unit to a list of integers",
                 id="class_power_maps_bool"),
    pytest.param(lambda d: d["characters"][1]["cyclotomic"][1].__setitem__(1, 1.7),
                 "cyclotomic coefficients must be lists of integers", id="cyclotomic"),
    pytest.param(lambda d: d.update(group_order=0, class_sizes=[], class_rep_orders=[],
                                    characters=[]),
                 "class 0 must be the identity class", id="no_classes"),
])
def test_verify_import_rejects_table_field_of_wrong_type(capsys, tmp_path, spoil, message):
    path = tmp_path / "z3.json"
    code, _ = run_json(capsys, ["group", "export", "--characters", "--out", str(path), "z:3"])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    spoil(doc)
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("pair", [["1", "0"], [True, 0.0], [1.0], 1.0])
def test_verify_import_rejects_values_that_are_not_number_pairs(capsys, tmp_path, pair):
    """es3:1 exports its closed form as [re, im] pairs only, so the pairs
    are what the import reads."""
    path = tmp_path / "es27.json"
    code, _ = run_json(capsys, ["group", "export", "--characters", "--out", str(path), "es3:1"])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    assert all("cyclotomic" not in ch for ch in doc["characters"])
    doc["characters"][1]["values"][2] = pair
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION
    assert "values must be lists of [re, im] number pairs" in capsys.readouterr().err


def test_verify_import_refuses_a_power_map_off_the_generators_composition(capsys, tmp_path):
    """The map for 15 (inversion, which orients imported claims) of an m2:5
    export with two classes swapped is still a permutation fixing class 0;
    it is not the composition of the maps of 3 and 5, the generators of the
    units mod 16."""
    path = tmp_path / "m2_5.json"
    code, _ = run_json(capsys, ["group", "export", "--characters", "--out", str(path), "m2:5"])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    bad = doc["class_power_maps"]["15"]
    i, j = 1, next(j for j in range(2, len(bad)) if bad[j] != bad[1])
    bad[i], bad[j] = bad[j], bad[i]
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION
    assert "power map for k=15 is not the composition" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["4", "x", "01", "0", "3"])
def test_verify_import_refuses_a_power_map_key_that_is_no_unit(capsys, tmp_path, key):
    """A z:3 export's power maps are keyed by the units 1 and 2 mod 3; an
    extra key "4" (1 mod 3) was accepted, and "x" fell to Python's int()."""
    path = tmp_path / "z3.json"
    code, _ = run_json(capsys, ["group", "export", "--characters", "--out", str(path), "z:3"])
    assert code == EXIT_OK
    doc = json.loads(path.read_text())
    doc["class_power_maps"][key] = [0, 2, 1]
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION
    assert "class_power_maps keys must be the units 1..exponent-1 in decimal" \
        in capsys.readouterr().err


def test_verify_import_rejects_corrupt_table(capsys, tmp_path):
    path = exported_table_with_claim(tmp_path, capsys)
    doc = json.loads(path.read_text())
    doc["characters"][1]["values"][2][0] += 1e-3
    for ch in doc["characters"]:
        ch.pop("cyclotomic", None)
    path.write_text(json.dumps(doc))
    code = main(["verify", "--only", "z3_1", "--import-table", str(path)])
    assert code == EXIT_VALIDATION


# ---------------------------------------------------------------------------
# graph exports


def test_graph_dot(capsys):
    code = main(["--format", "dot", "graph", "--group", "z:3", "--classes", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.startswith("digraph") and "n0 -> n1" in out


def test_graph_csv(capsys):
    code = main(["--format", "csv", "graph", "--group", "z:3", "--classes", "1"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == "0,-1,1\n1,0,-1\n-1,1,0\n"


def test_graph_summary_with_spectrum(capsys):
    code, doc = run_json(capsys, ["graph", "--group", "z:8", "--classes", "1,2,5"])
    assert code == EXIT_OK
    assert doc["connected"] is True and doc["arcs"] == 24
    assert sum(r["multiplicity"] for r in doc["spectrum"]) == 8


def test_graph_spectrum_reads_exact_zeros_on_a_closed_form(capsys):
    """m2:5's class 2 gives characters whose eigenvalue is 0: read from the
    shared root table, the conjugate values cancel exactly and print 0.0."""
    code, doc = run_json(capsys, ["graph", "--group", "m2:5", "--classes", "2"])
    assert code == EXIT_OK
    thetas = [r["theta_imag"] for r in doc["spectrum"]]
    assert 0.0 in thetas and all(t == 0.0 or abs(t) > 1 for t in thetas), thetas


def test_graph_undirected_summary(capsys):
    code, doc = run_json(capsys, ["graph", "--group", "z:4", "--classes", "1,3",
                                  "--undirected"])
    assert code == EXIT_OK
    assert "spectrum" not in doc


# ---------------------------------------------------------------------------
# global flags and determinism


def test_tolerance_flag_is_refused(capsys):
    """The tolerance is the constant VALUE_TOL: --tolerance is an unknown
    flag, and argparse exits 2."""
    with pytest.raises(SystemExit) as exc:
        main(["--tolerance", "1e-5", "pst", "check", "--group", "z:3",
              "--classes", "1", "--target", "1", "--time", "0.5"])
    assert exc.value.code == EXIT_VALIDATION


def test_json_output_is_deterministic(capsys):
    argv = ["--format", "json", "pst", "mst", "--group", "z:8", "--classes", "1,2,5"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
