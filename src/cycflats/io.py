"""Canonical document formats.

Matroid:    {"ground": ["a", ...], "cyclic_flats": [{"set": [...], "rank": n}, ...]}
Lattice:    {"elements": [...], "covers": [["lower", "upper"], ...]}, read
            only: no command prints a lattice
Polynomial: {"terms": [{"x": p, "y": q, "c": n}, ...]}

All arrays are canonically sorted, so emit(parse(text)) reproduces a
canonical file byte for byte.

matroid and lattices are read as module attributes when a document is
built, so one that fails to parse runs neither module.
"""

from __future__ import annotations

import json
from pathlib import Path

from . import lattices, matroid
from .errors import ParseError
from .groundsets import GroundSet


def _dump(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# -- matroids ------------------------------------------------------------

def _doc(ground: GroundSet, pairs) -> dict:  # pairs in canonical order
    return {
        "ground": list(ground.labels),
        "cyclic_flats": [{"set": list(ground.names(m)), "rank": r}
                         for m, r in pairs],
    }


def ranked_family_to_doc(rf: matroid.RankedFamily) -> dict:
    return _doc(rf.ground, rf.entries.items())


def matroid_to_doc(m: matroid.Matroid) -> dict:
    return _doc(m.ground, zip(m.flats, m.flat_ranks))


def doc_to_ranked_family(doc) -> matroid.RankedFamily:
    if not isinstance(doc, dict) or set(doc) != {"ground", "cyclic_flats"}:
        raise ParseError("matroid document needs exactly the fields "
                         "'ground' and 'cyclic_flats'")
    ground_field = doc["ground"]
    if (not isinstance(ground_field, list)
            or any(not isinstance(x, str) for x in ground_field)):
        raise ParseError("'ground' must be an array of strings")
    ground = GroundSet(ground_field)
    if not isinstance(doc["cyclic_flats"], list):
        raise ParseError("'cyclic_flats' must be an array")
    entries = []
    for i, item in enumerate(doc["cyclic_flats"]):
        if not isinstance(item, dict) or set(item) != {"set", "rank"}:
            raise ParseError(f"cyclic_flats[{i}] needs fields 'set' and 'rank'")
        names = item["set"]
        if (not isinstance(names, list)
                or any(not isinstance(x, str) for x in names)):
            raise ParseError(f"cyclic_flats[{i}].set must be an array of strings")
        if len(set(names)) != len(names):
            raise ParseError(f"cyclic_flats[{i}].set repeats a label")
        if not isinstance(item["rank"], int) or isinstance(item["rank"], bool):
            raise ParseError(f"cyclic_flats[{i}].rank must be an integer")
        entries.append((ground.mask(names), item["rank"]))
    seen = set()
    for m, _ in entries:
        if m in seen:
            raise ParseError(f"duplicate set {sorted(ground.names(m))}")
        seen.add(m)
    return matroid.RankedFamily(ground, entries)


def parse_matroid(path) -> matroid.RankedFamily:
    return doc_to_ranked_family(_load(path))


def emit_matroid(m) -> str:
    """Canonical text for a Matroid or RankedFamily."""
    doc = (matroid_to_doc(m) if isinstance(m, matroid.Matroid)
           else ranked_family_to_doc(m))
    return _dump(doc)


# -- lattices ------------------------------------------------------------

def doc_to_lattice(doc) -> lattices.FiniteLattice:
    if not isinstance(doc, dict) or set(doc) != {"elements", "covers"}:
        raise ParseError("lattice document needs exactly the fields "
                         "'elements' and 'covers'")
    elements = doc["elements"]
    if (not isinstance(elements, list)
            or any(not isinstance(x, str) for x in elements)):
        raise ParseError("'elements' must be an array of strings")
    if not isinstance(doc["covers"], list):
        raise ParseError("'covers' must be an array")
    covers = []
    for i, pair in enumerate(doc["covers"]):
        if not (isinstance(pair, list) and len(pair) == 2
                and all(isinstance(x, str) for x in pair)):
            raise ParseError(
                f"covers[{i}] must be a [lower, upper] pair of strings")
        covers.append((pair[0], pair[1]))
    return lattices.lattice_from_covers(elements, covers)


def parse_lattice(path) -> lattices.FiniteLattice:
    return doc_to_lattice(_load(path))


# -- polynomials ---------------------------------------------------------

def poly_to_doc(terms: dict) -> dict:
    return {"terms": [{"x": p, "y": q, "c": c}
                      for (p, q), c in sorted(terms.items()) if c]}


def emit_poly(terms: dict) -> str:
    return _dump(poly_to_doc(terms))


def _load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 "
                         f"({exc.reason})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer past int's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    except RecursionError:
        raise ParseError(
            f"{path}: arrays or objects nested too deeply") from None
