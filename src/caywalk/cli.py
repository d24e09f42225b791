"""Command-line front end.

Commands bind the library into reproducible one-liners: build and inspect
groups, check or solve transfer instances, sweep every oriented connection
set of a small group, and replay the shipped certificate suite. All output is
deterministic for a fixed seed; --format json emits sorted keys.

Exit codes: 0 success, 2 validation error, 3 verification failure,
4 size-limit refusal.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys

import numpy as np

from .cayley import (
    ConnectionStack,
    adjacency_matrix,
    adjacency_to_csv,
    cayley_graph,
    class_union_connectivity,
    enumerate_oriented_class_unions,
    graph_to_dot,
    is_connected,
)
from .characters import (
    character_table_for,
    character_table_to_json_str,
    export_character_table,
    galois_stabilizers,
    load_character_table,
)
from .config import DEFAULT_CONFIG, RunConfig
from .engine import (
    TIME_TAGS,
    check_imported_claim,
    check_pst_pair,
    compute_S_e,
    nonexistence_witness,
    parse_time,
    solvable_exclusion_report,
    solve_pst_time,
    spectrum,
    spectrum_report,
    verdict_document,
)
from .errors import (
    CorruptTableError,
    GroupValidationError,
    InconsistencyError,
    InvalidParameterError,
    InvariantBreachError,
    NumericalFailureError,
    SizeLimitError,
    VerificationFailure,
)
from .families import dual_verify, load_fixture_certificates
from .groups import (
    build_group,
    group_to_json_str,
    parse_group_spec,
    save_group,
)
from .oracle import (
    build_hermitian_operator,
    build_operator,
    evolve_column,
    fidelity,
    fidelity_series_csv,
    scan_pst,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3
EXIT_SIZE = 4

DEFAULT_SWEEP_LIMIT = 16


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    updates = {}
    for name in ("max_order", "oracle_max_order", "seed"):
        val = getattr(args, name, None)
        if val is not None:
            if name != "seed" and val <= 0:
                raise InvalidParameterError(f"--{name.replace('_', '-')} must be positive")
            updates[name] = val
    return DEFAULT_CONFIG.with_updates(**updates)


def _load_group(config: RunConfig, spec_text: str):
    return build_group(parse_group_spec(spec_text), config.max_order)


def _resolve_classes(group, text: str) -> tuple[int, ...]:
    """Comma list of class indices (bare integers) or element labels."""
    conj = group.conj
    out = set()
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if re.fullmatch(r"\d+", tok):
            c = int(tok)
            if not 0 <= c < len(conj.classes):
                raise InvalidParameterError(
                    f"class index {c} out of range 0..{len(conj.classes) - 1}")
            out.add(c)
        else:
            out.add(int(conj.class_of[group.index_of(tok)]))
    if not out:
        raise InvalidParameterError("no connection classes given")
    return tuple(sorted(out))


def _resolve_element(group, text: str) -> int:
    tok = text.strip()
    if re.fullmatch(r"\d+", tok):
        g = int(tok)
        if not 0 <= g < group.order:
            raise InvalidParameterError(f"element index {g} out of range")
        return g
    return group.index_of(tok)


def _emit(doc, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_json_ready(doc), sort_keys=True, indent=2, allow_nan=False))
    else:
        _print_text(doc)


def _json_ready(obj):
    """numpy scalars as Python numbers; non-finite floats, which JSON cannot
    represent, as null."""
    if isinstance(obj, dict):
        return {key: _json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(val) for val in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    return obj


def _print_text(doc, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(doc, dict):
        for key in doc:
            val = doc[key]
            if isinstance(val, (dict, list)) and val:
                print(f"{pad}{key}:")
                _print_text(val, indent + 1)
            else:
                print(f"{pad}{key}: {_scalar(val)}")
    elif isinstance(doc, list):
        for val in doc:
            if isinstance(val, (dict, list)):
                _print_text(val, indent)
                print()
            else:
                print(f"{pad}- {_scalar(val)}")
    else:
        print(f"{pad}{_scalar(doc)}")


def _scalar(val) -> str:
    if isinstance(val, float):
        return f"{val:.12g}"
    if isinstance(val, (list, dict)) and not val:
        return "[]" if isinstance(val, list) else "{}"
    return str(val)


# ---------------------------------------------------------------------------
# group commands

def _group_summary(group) -> dict:
    return {
        "family": group.family_tag,
        "order": group.order,
        "classes": len(group.conj.classes),
        "center": len(group.conj.center),
        "exponent": group.conj.exponent,
    }


def cmd_group(args: argparse.Namespace, config: RunConfig) -> int:
    group = _load_group(config, args.spec)
    if args.group_cmd == "build":
        doc = _group_summary(group)
        if args.out:
            save_group(group, args.out)
            doc["saved"] = args.out
        _emit(doc, args.format)
        return EXIT_OK
    if args.group_cmd == "info":
        doc = _group_summary(group)
        report = solvable_exclusion_report(group)
        doc["solvable"] = report.solvable
        doc["derived_series"] = list(report.series)
        doc["excluded_transfer_sizes"] = list(report.excluded_sizes)
        doc["class_sizes"] = group.conj.sizes.tolist()
        _emit(doc, args.format)
        return EXIT_OK
    # export
    if args.characters:
        table = character_table_for(group, seed=config.seed)
        payload = character_table_to_json_str(export_character_table(table, group.conj))
    else:
        payload = group_to_json_str(group)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        _emit({"saved": args.out}, args.format)
    else:
        print(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# pst commands

def cmd_pst(args: argparse.Namespace, config: RunConfig) -> int:
    group = _load_group(config, args.group)
    conj = group.conj

    if args.pst_cmd == "nonexist":
        table = character_table_for(group, seed=config.seed)
        z = _resolve_element(group, args.target)
        witness = nonexistence_witness(conj, table, galois_stabilizers(table, conj), z)
        doc = {"group": group.family_tag, "z": z, "z_label": group.label_of(z),
               "witness_found": witness is not None}
        if witness is not None:
            doc.update(characters=list(witness.char_indices), exponent=witness.exponent)
        _emit(doc, args.format)
        return EXIT_OK

    classes = _resolve_classes(group, args.classes)
    oriented = not getattr(args, "undirected", False)
    graph = cayley_graph(group, classes, oriented=oriented)

    if args.pst_cmd == "oracle":
        return _cmd_pst_oracle(args, config, graph)

    table = character_table_for(group, seed=config.seed)

    if args.pst_cmd == "check":
        a = _resolve_element(group, args.source) if args.source else group.identity
        b = _resolve_element(group, args.target)
        t = parse_time(args.time)
        res = check_pst_pair(graph, table, a, b, t)
        _emit({"group": group.family_tag, "connection_classes": list(classes),
               "source": a, "target": b, "time": t, "accepted": res.accepted,
               "residual": res.residual, "reason": res.reason}, args.format)
        return EXIT_OK

    if args.pst_cmd == "solve":
        z = _resolve_element(group, args.target)
        outcome = solve_pst_time(graph, table, z, period_mode=args.period)
        doc = {"group": group.family_tag, "connection_classes": list(classes),
               "target": z, "found": outcome.certificate is not None}
        if outcome.certificate is not None:
            cert = outcome.certificate
            doc.update(tau=cert.tau, residual=cert.residual)
        else:
            doc.update(near_miss_residual=outcome.near_miss_residual,
                       near_miss_time=outcome.near_miss_time, reason=outcome.reason)
        _emit(doc, args.format)
        return EXIT_OK

    # mst
    report = compute_S_e(graph, table)
    oracle_fid = None
    if group.order <= config.oracle_max_order and report.generator is not None:
        op = build_operator(adjacency_matrix(graph))
        oracle_fid, _ = fidelity(op, report.minimal_time, group.identity,
                                 report.generator)
    witnesses = []
    if args.witnesses:
        excluded = [z for z in conj.center if z not in report.S_e]  # S_e holds the identity
        found = nonexistence_witness(conj, table, galois_stabilizers(table, conj), excluded)
        witnesses = [w for w in found if w is not None]
    doc = verdict_document(graph, report, oracle_fid, is_connected(graph),
                           witnesses)
    doc["S_e_labels"] = [group.label_of(z) for z in report.S_e]
    if oracle_fid is None:
        doc["oracle_skipped"] = (
            f"order {group.order} above --oracle-max-order {config.oracle_max_order}"
            if group.order > config.oracle_max_order else "size 1: no transfer time to check")
    _emit(doc, args.format)
    return EXIT_OK


def _cmd_pst_oracle(args: argparse.Namespace, config: RunConfig, graph) -> int:
    group = graph.group
    if group.order > config.oracle_max_order:
        raise SizeLimitError(
            f"group order {group.order} exceeds the oracle cap "
            f"{config.oracle_max_order}; raise --oracle-max-order to override")
    a_mat = adjacency_matrix(graph)
    build = build_operator if graph.oriented else build_hermitian_operator
    op = build(a_mat)
    source = _resolve_element(group, args.source) if args.source else group.identity

    if args.scan:
        t_max = args.t_max
        if args.format == "csv":
            print(fidelity_series_csv(op, source, t_max or 4.0 * np.pi), end="")
            return EXIT_OK
        hits = scan_pst(op, source, t_max=t_max)
        doc = {"group": group.family_tag, "source": source,
               "hits": [{"time": h.time, "target": h.target,
                         "target_label": group.label_of(h.target),
                         "fidelity": h.fidelity} for h in hits]}
        _emit(doc, args.format)
        return EXIT_OK

    if args.time is None:
        raise InvalidParameterError("oracle needs --time or --scan")
    t = parse_time(args.time)
    col = evolve_column(op, t, source)
    mags = np.abs(col)
    if args.target is not None:
        b = _resolve_element(group, args.target)
    else:
        off = mags.copy()
        off[source] = -1.0
        b = int(np.argmax(off))
    doc = {"group": group.family_tag, "source": source, "time": t,
           "target": b, "target_label": group.label_of(b),
           "fidelity": float(mags[b]),
           "entry": [float(col[b].real), float(col[b].imag)],
           "return_fidelity": float(mags[source])}
    _emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

def cmd_sweep(args: argparse.Namespace, config: RunConfig) -> int:
    group = _load_group(config, args.group)
    limit = args.limit if args.limit is not None else DEFAULT_SWEEP_LIMIT
    if group.order > limit:
        raise SizeLimitError(
            f"group order {group.order} exceeds the sweep limit {limit}; "
            f"raise --limit to allow it")
    conj = group.conj
    table = character_table_for(group, seed=config.seed)
    histogram: dict[int, int] = {}
    certificates = []
    tested = 0
    connected = class_union_connectivity(conj) if args.connected_only else None
    for stack in enumerate_oriented_class_unions(conj, max_classes=args.max_classes):
        if connected is not None:
            keep = [connected(row) for row in stack.classes.tolist()]
            stack = ConnectionStack(conj=conj, classes=stack.classes[keep])
        tested += len(stack)
        for classes, report in zip(stack.classes, compute_S_e(stack, table)):
            histogram[report.size] = histogram.get(report.size, 0) + 1
            if report.size > 1:
                certificates.append({
                    "connection_classes": classes.tolist(),
                    "size": report.size,
                    "tau": report.minimal_time,
                    "generator": report.generator,
                })
    doc = {"group": group.family_tag, "sets_tested": tested,
           "histogram": {str(k): histogram[k] for k in sorted(histogram)},
           "certificates": certificates}
    _emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify

def _verify_line(rep) -> str:
    parts = [f"{'ok ' if rep.ok else 'FAIL'} {rep.name:24s}"]
    if rep.criterion_residual is not None:
        parts.append(f"residual={rep.criterion_residual:.3e}")
    if rep.oracle_fidelity is not None:
        parts.append(f"fidelity={rep.oracle_fidelity:.12f}")
    if rep.mst is not None and rep.mst.minimal_time is not None:
        rational = rep.verdict["tau_rational"]
        if rational["ok"]:
            parts.append(f"tau={rational['p']}/{rational['q']}*{rational['multiplier']}")
        else:
            parts.append(f"tau={rep.mst.minimal_time:.12g}")
        parts.append(f"size={rep.mst.size}")
    return " ".join(parts)


def cmd_verify(args: argparse.Namespace, config: RunConfig) -> int:
    certs = load_fixture_certificates(args.fixtures)
    if args.only:
        wanted = set(args.only)
        unknown = wanted - {c.name for c in certs}
        if unknown:
            raise InvalidParameterError(f"unknown fixture names: {sorted(unknown)}")
        certs = [c for c in certs if c.name in wanted]
    if not certs:
        raise InvalidParameterError("no fixtures selected")

    reports = [dual_verify(c, config) for c in certs]

    failures = []
    json_docs = []
    for rep in reports:
        if args.format != "json":
            print(_verify_line(rep))
            for msg in rep.messages:
                print(f"     - {msg}")
        json_docs.append({
            "name": rep.name, "ok": rep.ok, "messages": rep.messages,
            "criterion_residual": rep.criterion_residual,
            "oracle_fidelity": rep.oracle_fidelity,
            "connected": rep.connected,
            "verdict": rep.verdict,
        })
        if not rep.ok:
            failures.append(rep.name)

    import_docs = []
    for path in args.import_table or []:
        imported = load_character_table(path)
        if not imported.claims:
            import_docs.append({"path": path, "claims": [],
                                "note": "table valid, no claims shipped"})
            if args.format != "json":
                print(f"ok   import {path}: table valid, no claims")
            continue
        claim_results = []
        for claim in imported.claims:
            result = check_imported_claim(imported, claim)
            claim_results.append(result)
            if not result["accepted"]:
                failures.append(f"import:{path}")
            if args.format != "json":
                status = "ok  " if result["accepted"] else "FAIL"
                print(f"{status} import {path}: z_class={result['z_class']} "
                      f"t={result['time']:.12g} residual={result['residual']:.3e}")
        import_docs.append({"path": path, "claims": claim_results})

    if args.format == "json":
        _emit({"certificates": json_docs, "imports": import_docs,
               "failures": failures, "ok": not failures}, "json")
    else:
        print(f"verified {len(reports)} certificates, "
              f"{len(args.import_table or [])} imports: "
              f"{'all ok' if not failures else f'{len(failures)} FAILED'}")
    if failures:
        raise VerificationFailure(f"failed: {', '.join(failures)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph exports (dot / csv / spectrum)

def cmd_graph(args: argparse.Namespace, config: RunConfig) -> int:
    group = _load_group(config, args.group)
    classes = _resolve_classes(group, args.classes)
    graph = cayley_graph(group, classes, oriented=not args.undirected)
    if args.format == "dot":
        print(graph_to_dot(graph), end="")
        return EXIT_OK
    if args.format == "csv":
        print(adjacency_to_csv(adjacency_matrix(graph)), end="")
        return EXIT_OK
    doc = {"group": group.family_tag, "connection_classes": list(classes),
           "order": group.order, "connected": is_connected(graph),
           "arcs": len(graph.elements) * group.order}
    if graph.oriented:
        table = character_table_for(group, seed=config.seed)
        doc["spectrum"] = spectrum_report(table, spectrum(graph, table))
    _emit(doc, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caywalk",
        description="State transfer on oriented normal Cayley graphs.")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed for numerical character tables (default 42)")
    parser.add_argument("--max-order", dest="max_order", type=int, default=None,
                        help="largest group order any constructor may build "
                             "(never more than 65,536)")
    parser.add_argument("--oracle-max-order", dest="oracle_max_order", type=int,
                        default=None,
                        help="largest order the matrix oracle will exponentiate")
    parser.add_argument("--format", choices=("text", "json", "csv", "dot"),
                        default="text", help="output format")

    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="build, inspect, or export groups")
    gsub = p_group.add_subparsers(dest="group_cmd", required=True)
    for name, extra in (("build", "construct a group and print its summary"),
                        ("info", "order, classes, center, exponent, solvability"),
                        ("export", "write the group table (or --characters) as JSON")):
        pg = gsub.add_parser(name, help=extra)
        if name in ("build", "export"):
            pg.add_argument("--out", default=None, help="write JSON to this path")
        if name == "export":
            pg.add_argument("--characters", action="store_true",
                            help="export the character table instead of the group")
        pg.add_argument("spec", help="group spec, e.g. z:8, z4^2, extraspecial3:1, "
                                     "m2:5, wreath:z:3:2, file:<path>")

    p_pst = sub.add_parser("pst", help="check, solve, and survey state transfer")
    psub = p_pst.add_subparsers(dest="pst_cmd", required=True)

    def add_common(p, classes_required=True):
        p.add_argument("--group", required=True, help="group spec")
        if classes_required:
            p.add_argument("--classes", required=True,
                           help="comma list: class indices or element labels")

    p_check = psub.add_parser("check", help="test transfer at a given time")
    add_common(p_check)
    p_check.add_argument("--target", required=True)
    p_check.add_argument("--time", required=True,
                         help=f"float or one of {sorted(TIME_TAGS)} or solved:<x>")
    p_check.add_argument("--source", default=None,
                         help="start vertex (default: identity)")

    p_solve = psub.add_parser("solve", help="minimal transfer time to a target")
    add_common(p_solve)
    p_solve.add_argument("--target", required=True)
    p_solve.add_argument("--period", action="store_true",
                         help="solve for a return time (target = identity)")

    p_mst = psub.add_parser("mst", help="full transfer-set verdict")
    add_common(p_mst)
    p_mst.add_argument("--witnesses", action="store_true",
                       help="include nonexistence witnesses for excluded targets")

    p_oracle = psub.add_parser("oracle", help="matrix-exponential verification")
    add_common(p_oracle)
    p_oracle.add_argument("--time", default=None)
    p_oracle.add_argument("--scan", action="store_true",
                          help="scan [0, t-max] for high-fidelity events")
    p_oracle.add_argument("--t-max", dest="t_max", type=float, default=None)
    p_oracle.add_argument("--source", default=None)
    p_oracle.add_argument("--target", default=None)
    p_oracle.add_argument("--undirected", action="store_true",
                          help="symmetric connection set, hermitian walk")

    p_nx = psub.add_parser("nonexist",
                           help="character witness ruling out transfer to a target")
    p_nx.add_argument("--group", required=True)
    p_nx.add_argument("--target", required=True)

    p_sweep = sub.add_parser("sweep",
                             help="try every oriented connection set of a small group")
    p_sweep.add_argument("--group", required=True)
    p_sweep.add_argument("--limit", type=int, default=None,
                         help=f"group order cap (default {DEFAULT_SWEEP_LIMIT})")
    p_sweep.add_argument("--max-classes", dest="max_classes", type=int, default=None,
                         help="cap on connection classes per set")
    p_sweep.add_argument("--connected-only", action="store_true",
                         help="skip disconnected graphs")

    p_verify = sub.add_parser("verify",
                              help="replay the shipped certificate suite")
    p_verify.add_argument("--fixtures", default=None,
                          help="directory of certificate documents to replay instead of the suite")
    p_verify.add_argument("--import-table", dest="import_table", action="append",
                          help="also check claims in an imported character table")
    p_verify.add_argument("--only", action="append",
                          help="restrict to named fixtures (repeatable)")

    p_graph = sub.add_parser("graph", help="adjacency, DOT, and spectrum exports")
    p_graph.add_argument("--group", required=True)
    p_graph.add_argument("--classes", required=True)
    p_graph.add_argument("--undirected", action="store_true")

    return parser


_HANDLERS = {
    "group": cmd_group,
    "pst": cmd_pst,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "graph": cmd_graph,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        return _HANDLERS[args.command](args, config)
    except (InvalidParameterError, GroupValidationError, CorruptTableError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (VerificationFailure, InvariantBreachError, InconsistencyError,
            NumericalFailureError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE


if __name__ == "__main__":
    sys.exit(main())
