"""Output checks: each command's stdout against the stored reference.

Discrete fields must match exactly. Floats are compared within the package's
tolerances, never bytewise, so a change that only moves the last bits of a
time still passes. The paper's invariants are checked on every verdict.
References were recorded with the default seed; the discrete fields and the
floats checked here do not depend on the seed (a seed only changes the RNG of
numerical character tables and the scan's source vertex).
"""
from __future__ import annotations

import json

# Tolerances of caywalk.config at the time the references were recorded.
RESIDUAL_TOL = 1e-8
FIDELITY_GAP = 1e-7
TAU_TOL = 1e-9
ALLOWED_SIZES = (1, 2, 3, 4, 6)
# Scan maxima are refined by golden-section search on a curve that is flat
# to first order, so a hit time is known to about 1e-8 (observed spread
# across source vertices: 3e-9).
SCAN_TIME_TOL = 1e-7
SCAN_FIDELITY_TOL = 1e-9
SCAN_THRESHOLD = 0.999


def check_output(stdout: str, reference, fmt: str, source: int | None) -> list[str]:
    """Problems found in one command's stdout; empty when it is correct."""
    if fmt == "csv":
        return check_csv_scan(stdout, reference["stdout"], source, reference["source"])
    try:
        doc = json.loads(stdout)
    except ValueError as exc:
        return [f"stdout is not JSON: {exc}"]
    ref = reference["stdout"]
    if "histogram" in ref:
        return check_sweep(doc, ref)
    if "certificates" in ref:
        return check_verify(doc, ref)
    if "hits" in ref:
        return check_scan(doc, ref, source)
    return check_verdict(doc, ref)


def _close(got, want, tol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= tol


def _exact(doc: dict, ref: dict, keys, where: str) -> list[str]:
    return [f"{where}{k}: {doc.get(k)!r} != {ref.get(k)!r}"
            for k in keys if doc.get(k) != ref.get(k)]


def verdict_invariants(doc: dict, where: str = "") -> list[str]:
    """The paper's invariants, which hold for any seed."""
    errors = []
    size = doc.get("size")
    if size not in ALLOWED_SIZES:
        errors.append(f"{where}size {size!r} not in {ALLOWED_SIZES}")
    if len(doc.get("S_e") or ()) != size:
        errors.append(f"{where}|S_e| != size {size!r}")
    if size is not None and size > 1:
        rational = doc.get("tau_rational") or {}
        if rational.get("ok") is not True:
            errors.append(f"{where}tau is not a small rational multiple")
        if not (doc.get("tau") or 0) > 0:
            errors.append(f"{where}tau {doc.get('tau')!r} is not positive")
    return errors


def check_verdict(doc: dict, ref: dict, where: str = "") -> list[str]:
    errors = _exact(doc, ref, ("group", "connection_classes", "S_e", "size",
                               "connected", "S_e_labels", "name"), where)
    if not _close(doc.get("tau"), ref.get("tau"), TAU_TOL):
        errors.append(f"{where}tau {doc.get('tau')!r} != {ref.get('tau')!r}")
    if not (doc.get("residual") or 0.0) <= RESIDUAL_TOL:
        errors.append(f"{where}residual {doc.get('residual')!r} above {RESIDUAL_TOL}")
    fid, ref_fid = doc.get("oracle_fidelity"), ref.get("oracle_fidelity")
    if (fid is None) != (ref_fid is None):
        errors.append(f"{where}oracle_fidelity {fid!r}, reference {ref_fid!r}")
    elif fid is not None and not fid >= 1.0 - FIDELITY_GAP:
        errors.append(f"{where}oracle_fidelity {fid!r} below 1 - {FIDELITY_GAP}")
    # Which targets have witnesses is exact; the character indices depend on
    # the table's row order, so only their presence is required.
    got_w = [w.get("z") for w in doc.get("witnesses", [])]
    ref_w = [w["z"] for w in ref.get("witnesses", [])]
    if got_w != ref_w or not all(w.get("characters") for w in doc.get("witnesses", [])):
        errors.append(f"{where}witnesses {doc.get('witnesses')!r}, targets {ref_w!r}")
    return errors + verdict_invariants(doc, where)


def check_sweep(doc: dict, ref: dict) -> list[str]:
    errors = _exact(doc, ref, ("group", "sets_tested", "histogram"), "")
    hist = doc.get("histogram") or {}
    if any(int(k) not in ALLOWED_SIZES for k in hist):
        errors.append(f"histogram sizes {sorted(hist)} outside {ALLOWED_SIZES}")
    certs, ref_certs = doc.get("certificates") or [], ref["certificates"]
    if len(certs) != len(ref_certs):
        return errors + [f"{len(certs)} certificates, reference {len(ref_certs)}"]
    for i, (c, r) in enumerate(zip(certs, ref_certs)):
        where = f"certificate {i}: "
        errors += _exact(c, r, ("connection_classes", "size", "generator"), where)
        if not _close(c.get("tau"), r["tau"], TAU_TOL):
            errors.append(f"{where}tau {c.get('tau')!r} != {r['tau']!r}")
    return errors


def check_verify(doc: dict, ref: dict) -> list[str]:
    errors = []
    if doc.get("ok") is not True or doc.get("failures") != []:
        errors.append(f"verify failed: {doc.get('failures')!r}")
    certs, ref_certs = doc.get("certificates") or [], ref["certificates"]
    if [c.get("name") for c in certs] != [c["name"] for c in ref_certs]:
        return errors + ["fixture names differ from the reference"]
    for c, r in zip(certs, ref_certs):
        where = f"{r['name']}: "
        errors += _exact(c, r, ("ok", "messages", "connected"), where)
        res, ref_res = c.get("criterion_residual"), r["criterion_residual"]
        if (res is None) != (ref_res is None) or (res is not None and not res <= RESIDUAL_TOL):
            errors.append(f"{where}criterion_residual {res!r}")
        fid, ref_fid = c.get("oracle_fidelity"), r["oracle_fidelity"]
        if (fid is None) != (ref_fid is None) or (fid is not None and not fid >= 1.0 - FIDELITY_GAP):
            errors.append(f"{where}oracle_fidelity {fid!r}")
        if (c.get("verdict") is None) != (r["verdict"] is None):
            errors.append(f"{where}verdict presence differs")
        elif r["verdict"] is not None:
            errors += check_verdict(c["verdict"], r["verdict"], where)
    return errors


def _same_pattern(got: list, want: list) -> bool:
    """True when got[i] == got[j] exactly where want[i] == want[j]."""
    return all((a == b) == (x == y)
               for a, x in zip(got, want) for b, y in zip(got, want))


def check_scan(doc: dict, ref: dict, source: int) -> list[str]:
    errors = _exact(doc, ref, ("group",), "")
    if doc.get("source") != source:
        errors.append(f"source {doc.get('source')!r} != {source}")
    hits, ref_hits = doc.get("hits") or [], ref["hits"]
    if len(hits) != len(ref_hits):
        return errors + [f"{len(hits)} scan hits, reference {len(ref_hits)}"]
    for i, (h, r) in enumerate(zip(hits, ref_hits)):
        if not _close(h.get("time"), r["time"], SCAN_TIME_TOL):
            errors.append(f"hit {i}: time {h.get('time')!r} != {r['time']!r}")
        if not _close(h.get("fidelity"), r["fidelity"], SCAN_FIDELITY_TOL) \
                or not h["fidelity"] >= SCAN_THRESHOLD:
            errors.append(f"hit {i}: fidelity {h.get('fidelity')!r} != {r['fidelity']!r}")
        if h.get("target") == source:
            errors.append(f"hit {i}: target is the source vertex")
    targets = [h.get("target") for h in hits]
    if source == ref["source"]:
        errors += [f"hit {i}: target {h.get('target_label')!r} != {r['target_label']!r}"
                   for i, (h, r) in enumerate(zip(hits, ref_hits))
                   if (h.get("target"), h.get("target_label")) != (r["target"], r["target_label"])]
    elif not _same_pattern(targets, [r["target"] for r in ref_hits]):
        errors.append("hit targets repeat in another pattern than the reference")
    return errors


def check_csv_scan(text: str, ref_text: str, source: int, ref_source: int) -> list[str]:
    lines, ref_lines = text.splitlines(), ref_text.splitlines()
    if not lines or lines[0] != ref_lines[0] or len(lines) != len(ref_lines):
        return [f"csv has {len(lines)} lines, reference {len(ref_lines)}"]
    errors = []
    for i, (line, ref_line) in enumerate(zip(lines[1:], ref_lines[1:]), start=1):
        row, ref_row = line.split(","), ref_line.split(",")
        try:
            fid_ok = abs(float(row[1]) - float(ref_row[1])) <= SCAN_FIDELITY_TOL
        except (IndexError, ValueError):
            fid_ok = False
        # Targets tie where the walk has not spread yet, so they are compared
        # only from the reference's own source vertex.
        if row[0] != ref_row[0] or not fid_ok or \
                (source == ref_source and row[2:] != ref_row[2:]):
            errors.append(f"csv line {i}: {line!r} != {ref_line!r}")
        if len(errors) >= 5:
            break
    return errors
