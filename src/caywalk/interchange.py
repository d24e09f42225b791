"""JSON interchange of character tables.

export_character_table and write_character_table turn a CharacterTable into
a JSON document, with class sizes, representative orders, the class power
map of every unit and each character's values (and, for exactly known
tables, its integer coefficients over the powers of a primitive root);
import_character_table validates such a document, made inside the package
or outside it, into an ImportedTable. Of the commands, `group export
--characters` and `verify --import-table` use it. It is kept apart from
caywalk.characters because every command compiles that module when no
bytecode cache is present, and a shorter module compiles in less memory.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .characters import (
    PROVENANCE_IMPORTED,
    CharacterTable,
    _check_power_maps,
    _table_defects,
    units_mod,
)
from .errors import CorruptTableError, SchemaError, check_fields, require_keys
from .groups import ConjugacyData


@dataclass(eq=False)
class ImportedTable:
    """A character table plus the class bookkeeping shipped alongside it."""

    table: CharacterTable
    rep_orders: tuple[int, ...]
    power_maps: dict[int, tuple[int, ...]]
    claims: tuple[dict, ...] = ()


# Entries per block of rows a character-table export converts to Python
# numbers and writes at once, a row's values and cyclotomic coefficients
# counted as (exponent + 1) per class.
_EXPORT_ENTRIES = 2**14


def _character_entries(table: CharacterTable, lo: int, hi: int) -> list[dict]:
    """The export's entries of characters lo..hi-1."""
    entries = []
    for i, row in enumerate(table.value_rows(lo, hi).tolist(), start=lo):
        entry: dict = {"degree": int(table.degrees[i]), "values": [[v.real, v.imag] for v in row]}
        coefficients = table.cyclotomic_row(i)
        if coefficients is not None:
            entry["cyclotomic"] = coefficients.tolist()
        entries.append(entry)
    return entries


def _export_header(table: CharacterTable, conj: ConjugacyData) -> dict:
    """The export document but its characters."""
    return {
        "group_order": table.group_order,
        "exponent": table.exponent,
        "class_sizes": [int(s) for s in table.class_sizes],
        "class_rep_orders": conj.orders[[cls[0] for cls in conj.classes]].tolist(),
        "class_power_maps": {str(k): list(conj.class_power(k))
                             for k in units_mod(table.exponent)},
    }


def export_character_table(table: CharacterTable, conj: ConjugacyData) -> dict:
    return {**_export_header(table, conj),
            "characters": _character_entries(table, 0, table.n_chars)}


def write_character_table(table: CharacterTable, conj: ConjugacyData, fh) -> None:
    """Write the text of json.dumps(export_character_table(table, conj),
    sort_keys=True, separators=(",", ":")) to the text file fh, its
    characters (the first key) a block of rows at a time."""
    dump = functools.partial(json.dumps, sort_keys=True, separators=(",", ":"))
    fh.write('{"characters":[')
    height = max(1, _EXPORT_ENTRIES // (table.n_classes * (table.exponent + 1)))
    for lo in range(0, table.n_chars, height):
        fh.write(("," if lo else "") + ",".join(map(dump, _character_entries(table, lo, lo + height))))
    fh.write("]," + dump(_export_header(table, conj))[1:])


def _int_list(x) -> bool:
    """True for a JSON list of integers; floats and booleans are not integers."""
    return isinstance(x, list) and all(type(v) is int for v in x)


def _number_pairs(x) -> bool:
    """True for a JSON list of [re, im] pairs of numbers; strings and
    booleans are not numbers."""
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and all(type(v) in (int, float) for v in p)
        for p in x)


def import_character_table(doc: dict) -> ImportedTable:
    """Validate and load an externally produced character table.

    Values may come as [re, im] pairs or as integer coefficient vectors over
    the power basis of a primitive exponent-th root of unity; the exact form
    wins when both are present.
    """
    require_keys(doc, ("characters", "class_power_maps", "class_rep_orders", "class_sizes",
                       "exponent", "group_order"), "character table document")

    order, m, chars = doc["group_order"], doc["exponent"], doc["characters"]
    maps = doc["class_power_maps"]
    check_fields("character table document", (
        (type(order) is int, "group_order must be an integer"),
        (type(m) is int and m >= 1, "exponent must be a positive integer"),
        *((_int_list(doc[key]), f"{key} must be a list of integers")
          for key in ("class_sizes", "class_rep_orders")),
        (isinstance(chars, list) and all(isinstance(ch, dict) and type(ch.get("degree")) is int
                                         for ch in chars),
         "every character needs an integer degree"),
        (isinstance(maps, dict) and all(map(_int_list, maps.values())),
         "class_power_maps must map each unit to a list of integers")))
    sizes = np.array(doc["class_sizes"], dtype=np.int64)
    rep_orders, n_classes = tuple(doc["class_rep_orders"]), len(sizes)
    check_fields("character table document", (
        (int(sizes.sum()) == order, "class sizes do not sum to the group order"),
        (len(rep_orders) == n_classes, "class_rep_orders length mismatch"),
        (sizes[:1].tolist() == [1] and rep_orders[:1] == (1,),
         "class 0 must be the identity class"),
        (len(chars) == n_classes, f"{len(chars)} characters vs {n_classes} classes"),
        (set(maps) <= set(map(str, units_mod(m))),
         "class_power_maps keys must be the units 1..exponent-1 in decimal"),
        (all(isinstance(rows := ch.get("cyclotomic", []), list) and all(map(_int_list, rows))
             for ch in chars), "cyclotomic coefficients must be lists of integers"),
        (all(_number_pairs(ch["values"]) for ch in chars
             if "values" in ch and "cyclotomic" not in ch),
         "values must be lists of [re, im] number pairs")))

    zeta = np.exp(2j * np.pi * np.arange(m) / m)
    values = np.zeros((n_classes, n_classes), dtype=np.complex128)
    degrees = np.zeros(n_classes, dtype=np.int64)
    cyclo = None
    if all("cyclotomic" in ch for ch in chars):
        cyclo = np.zeros((n_classes, n_classes, m), dtype=np.int64)
    for i, ch in enumerate(chars):
        degrees[i] = ch["degree"]
        if "cyclotomic" in ch:
            coeffs = np.array(ch["cyclotomic"], dtype=np.int64)
            if coeffs.shape != (n_classes, m):
                raise SchemaError(f"character {i} cyclotomic shape mismatch")
            values[i] = coeffs @ zeta
            if cyclo is not None:
                cyclo[i] = coeffs
        elif "values" in ch:
            pairs = np.array(ch["values"], dtype=np.float64)
            if pairs.shape != (n_classes, 2):
                raise SchemaError(f"character {i} values shape mismatch")
            values[i] = pairs[:, 0] + 1j * pairs[:, 1]
        else:
            raise SchemaError(f"character {i} has neither values nor cyclotomic")

    power_maps: dict[int, tuple[int, ...]] = {}
    for key, perm in maps.items():
        perm_t = tuple(perm)
        if sorted(perm_t) != list(range(n_classes)) or perm_t[0] != 0:
            raise SchemaError(f"power map for k={key} is not a class permutation fixing 0")
        power_maps[int(key)] = perm_t
    _check_power_maps(power_maps, m, n_classes)

    defects = _table_defects(values, degrees, sizes)
    if defects:
        raise CorruptTableError("imported table fails validation: " + "; ".join(defects))

    claims = tuple(doc.get("pst_claims", ()))
    table = CharacterTable(dense=values, degrees=degrees, class_sizes=sizes,
                           exponent=m, provenance=PROVENANCE_IMPORTED, cyclotomic=cyclo)
    return ImportedTable(table=table, rep_orders=rep_orders,
                         power_maps=power_maps, claims=claims)


def load_character_table(path: str) -> ImportedTable:
    with open(path, "r", encoding="utf-8") as fh:
        return import_character_table(json.load(fh))
