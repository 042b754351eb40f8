"""Command-line surface.

Exit codes: 0 = success / true, 1 = false or axiom/precondition
violation (with a diagnostic on stdout), 2 = input error (message on
stderr).  All output is canonically sorted and deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import build, io, ops, tutte, widths
from .errors import (ChainTooShort, CycflatsError, InvalidParameters,
                     NotAMatroid, NotNested, NotRelaxable, RankZero)
from .freeprod import free_product
from .matroid import Matroid, basic_stats, cyclic_flats_recompute, validate


def _load_matroid(path) -> Matroid:
    try:
        return validate(io.parse_matroid(path))
    except NotAMatroid as exc:
        raise CycflatsError(f"{path}: not a matroid: {exc}") from None


def _parse_set(ground, text: str) -> int:
    names = [t for t in text.split(",") if t] if text else []
    if len(set(names)) != len(names):
        raise InvalidParameters(f"repeated label in set {text!r}")
    return ground.mask(names)


def _print_doc(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def cmd_validate(args) -> int:
    try:
        m = validate(io.parse_matroid(args.file))
    except NotAMatroid as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid, rank {m.matroid_rank}")
    return 0


def cmd_rank(args) -> int:
    m = _load_matroid(args.file)
    print(m.rank(_parse_set(m.ground, args.set)))
    return 0


def cmd_independent(args) -> int:
    m = _load_matroid(args.file)
    ok = m.is_independent(_parse_set(m.ground, args.set))
    print("true" if ok else "false")
    return 0 if ok else 1


def cmd_circuits(args) -> int:
    m = _load_matroid(args.file)
    _print_doc({"circuits": [list(m.ground.names(c)) for c in m.circuits()]})
    return 0


def cmd_cyclic_flats(args) -> int:
    m = _load_matroid(args.file)
    recomputed = cyclic_flats_recompute(m)
    sys.stdout.write(io.emit_matroid(recomputed))
    if recomputed == m.ranked_family():
        print("fixpoint: ok")
        return 0
    print("fixpoint: MISMATCH")
    return 1


def cmd_stats(args) -> int:
    s = basic_stats(_load_matroid(args.file))
    _print_doc({"rank": s.rank, "nullity": s.nullity,
                "loops": list(s.loops), "isthmuses": list(s.isthmuses),
                "n_cyclic_flats": s.n_cyclic_flats})
    return 0


def _emit(m: Matroid) -> int:
    sys.stdout.write(io.emit_matroid(m))
    return 0


def cmd_dual(args) -> int:
    return _emit(ops.dual(_load_matroid(args.file)))


def cmd_minor(args) -> int:
    m = _load_matroid(args.file)
    spec = ops.MinorSpec(_parse_set(m.ground, args.contract),
                         _parse_set(m.ground, args.delete))
    return _emit(ops.minor(m, spec))


def cmd_relax(args) -> int:
    m = _load_matroid(args.file)
    return _emit(ops.relax(m, _parse_set(m.ground, args.flat)))


def cmd_directsum(args) -> int:
    return _emit(ops.direct_sum(_load_matroid(args.left),
                                _load_matroid(args.right)))


def cmd_freeprod(args) -> int:
    return _emit(free_product(_load_matroid(args.left),
                              _load_matroid(args.right)))


def cmd_truncate(args) -> int:
    return _emit(ops.truncate(_load_matroid(args.file)))


def cmd_lift(args) -> int:
    return _emit(ops.higgs_lift(_load_matroid(args.file)))


def cmd_tutte(args) -> int:
    if len(args.files) == 1:
        poly = tutte.tutte_polynomial(_load_matroid(args.files[0]))
    elif len(args.files) == 2:
        m, n = map(_load_matroid, args.files)
        conv = tutte.rank_gen_convolution(tutte.rank_gen(m), tutte.rank_gen(n))
        poly = tutte.tutte_from_rank_gen(conv)
    else:
        raise CycflatsError(
            f"tutte takes one matroid file, or the two factor files of a "
            f"free product; got {len(args.files)}")
    sys.stdout.write(io.emit_poly(poly))
    return 0


def cmd_width(args) -> int:
    print(widths.cyclic_width(_load_matroid(args.file)))
    return 0


def cmd_nested(args) -> int:
    m = _load_matroid(args.file)
    try:
        seq = build.nested_sequence_of(m)
    except NotNested:
        print("nested: false")
        return 1
    print("nested: true")
    print(f"sequence: {seq}")
    return 0


def cmd_minor_test(args) -> int:
    m = _load_matroid(args.host)
    n = _load_matroid(args.pattern)
    found, spec = ops.has_minor(m, n)
    if not found:
        print("minor: false")
        return 1
    print("minor: true")
    _print_doc({"contract": list(m.ground.names(spec.contract)),
                "delete": list(m.ground.names(spec.delete))})
    return 0


def cmd_iso(args) -> int:
    ok, witness = ops.is_isomorphic(_load_matroid(args.left),
                                    _load_matroid(args.right))
    if not ok:
        print("isomorphic: false")
        return 1
    print("isomorphic: true")
    _print_doc({"witness": dict(sorted(witness.items()))})
    return 0


def cmd_realize(args) -> int:
    lat = io.parse_lattice(args.file)
    variant = "sublattice" if args.sublattice else "plain"
    return _emit(build.realize_lattice(lat, variant).matroid)


def cmd_ingleton(args) -> int:
    m = _load_matroid(args.file)
    ok, witness = widths.ingleton_transversal(m)
    if ok:
        print("transversal-condition: true")
        return 0
    print("transversal-condition: false")
    _print_doc({"antichain": [list(m.ground.names(f)) for f in witness]})
    return 1


def cmd_bitransversal(args) -> int:
    ok = widths.bitransversal_cert(_load_matroid(args.file))
    print("bitransversal: true" if ok else "bitransversal: false")
    return 0 if ok else 1


def cmd_chain_minor(args) -> int:
    m = _load_matroid(args.file)
    cm = build.uniform_minor_from_chain(m, args.k)
    _print_doc({
        "raw": {"contract": list(m.ground.names(cm.raw.contract)),
                "delete": list(m.ground.names(cm.raw.delete))},
        "trimmed": {"contract": list(m.ground.names(cm.trimmed.contract)),
                    "delete": list(m.ground.names(cm.trimmed.delete))},
    })
    return 0


GEN_PARAMS = {"uniform": "R N", "pn": "N", "gimenez": "N [SIGMA]",
              "nested": "[SEQ]", "catalog": "NAME"}


def cmd_gen(args) -> int:
    usage = GEN_PARAMS[args.kind].split()
    if not (sum(not u.startswith("[") for u in usage)
            <= len(args.params) <= len(usage)):
        raise InvalidParameters(
            f"gen {args.kind} takes {GEN_PARAMS[args.kind]}, "
            f"got {len(args.params)} parameter(s)")
    if args.kind == "uniform":
        m = build.uniform(int(args.params[0]), int(args.params[1]))
    elif args.kind == "pn":
        m = build.excluded_minor_pn(int(args.params[0]))
    elif args.kind == "gimenez":
        n = int(args.params[0])
        sigma = ([int(t) for t in args.params[1].split(",")]
                 if len(args.params) > 1 else list(range(1, n + 1)))
        m = build.gimenez_family(n, sigma)
    elif args.kind == "nested":
        m = build.nested_from_sequence(args.params[0] if args.params else "")
    elif args.kind == "catalog":
        m = build.catalog(args.params[0])
    else:
        raise CycflatsError(f"unknown generator {args.kind!r}")
    return _emit(m)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycflats",
        description="Matroids represented by cyclic flats and ranks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check the Z0-Z3 conditions")
    p.add_argument("file")
    p = add("rank", cmd_rank, help="rank of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True, help="comma-separated labels")
    p = add("independent", cmd_independent, help="independence of a subset")
    p.add_argument("file")
    p.add_argument("--set", required=True)
    p = add("circuits", cmd_circuits, help="all circuits")
    p.add_argument("file")
    p = add("cyclic-flats", cmd_cyclic_flats,
            help="recompute cyclic flats and report the fixpoint check")
    p.add_argument("file")
    p = add("stats", cmd_stats, help="rank, nullity, loops, isthmuses")
    p.add_argument("file")
    p = add("dual", cmd_dual, help="dual matroid")
    p.add_argument("file")
    p = add("minor", cmd_minor, help="contract/delete minor")
    p.add_argument("file")
    p.add_argument("--contract", default="")
    p.add_argument("--delete", default="")
    p = add("relax", cmd_relax, help="drop a relaxable cyclic flat")
    p.add_argument("file")
    p.add_argument("--flat", required=True)
    p = add("directsum", cmd_directsum, help="direct sum of two matroids")
    p.add_argument("left")
    p.add_argument("right")
    p = add("freeprod", cmd_freeprod, help="free product of two matroids")
    p.add_argument("left")
    p.add_argument("right")
    p = add("truncate", cmd_truncate, help="truncation")
    p.add_argument("file")
    p = add("lift", cmd_lift, help="Higgs lift")
    p.add_argument("file")
    p = add("tutte", cmd_tutte, help="Tutte polynomial")
    p.add_argument("files", nargs="+",
                   help="one matroid file: T(M) from its cyclic flats; two "
                        "factor files: T(M box N) from the factors' rank "
                        "generating matrices")
    p = add("width", cmd_width, help="cyclic width")
    p.add_argument("file")
    p = add("nested", cmd_nested, help="nested test and i/f sequence")
    p.add_argument("file")
    p = add("minor-test", cmd_minor_test, help="search for a minor")
    p.add_argument("host")
    p.add_argument("pattern")
    p = add("iso", cmd_iso, help="isomorphism with witness")
    p.add_argument("left")
    p.add_argument("right")
    p = add("realize", cmd_realize,
            help="matroid whose cyclic-flat lattice matches a given lattice")
    p.add_argument("file")
    p.add_argument("--sublattice", action="store_true")
    p = add("ingleton", cmd_ingleton, help="transversality condition")
    p.add_argument("file")
    p = add("bitransversal", cmd_bitransversal,
            help="transversality of the matroid and its dual")
    p.add_argument("file")
    p = add("chain-minor", cmd_chain_minor,
            help="uniform minor extracted from a chain of cyclic flats")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p = add("gen", cmd_gen, help="generators: " + " | ".join(
        f"{kind} {params}" for kind, params in GEN_PARAMS.items()))
    p.add_argument("kind", choices=list(GEN_PARAMS))
    p.add_argument("params", nargs="*")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (NotRelaxable, NotNested, ChainTooShort, RankZero) as exc:
        print(f"violation: {exc}")
        return 1
    except CycflatsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
