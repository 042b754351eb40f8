"""Command-line surface.

Exit codes: 0 = success / true, 1 = false or axiom/precondition
violation (with a diagnostic on stdout), 2 = input error (message on
stderr), 141 = stdout closed by its reader (128 + SIGPIPE, what a shell
reports for a filter stopped by a closed pipe; nothing on stderr).  All
output is canonically sorted and deterministic.

Each subcommand is declared once, by command() beside its handler;
make_parser lists them in the order they are declared.  The package
loads its modules lazily (see cycflats), and main builds only the
parser of the command it is given, so a command runs only the modules
it uses.  For that, the handlers bind modules, not names, and read
their functions when they run (matroid.validate, ops.dual), and a file
is parsed before matroid.validate is read: a malformed document runs
only cli, errors, groundsets and io.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import build, freeprod, io, matroid, ops, tutte, widths
from .errors import (ChainTooShort, CycflatsError, InvalidParameters,
                     NotAMatroid, NotNested, NotRelaxable, RankZero)

# subcommand name -> (help, add_argument calls, handler), in parser order
COMMANDS: dict[str, tuple] = {}


def command(name, help, *arguments):
    """Declare the decorated handler as subcommand name, with its help
    line and its arguments, each made by arg()."""
    def declare(fn):
        COMMANDS[name] = (help, arguments, fn)
        return fn
    return declare


def arg(*flags, **options):
    """The flags and options of one add_argument call, for command()."""
    return flags, options


FILE, LEFT, RIGHT = arg("file"), arg("left"), arg("right")


def _load_matroid(path) -> matroid.Matroid:
    family = io.parse_matroid(path)
    try:
        return matroid.validate(family)
    except NotAMatroid as exc:
        raise CycflatsError(f"{path}: not a matroid: {exc}") from None


def _parse_set(ground, text: str) -> int:
    names = [t for t in text.split(",") if t] if text else []
    if len(set(names)) != len(names):
        raise InvalidParameters(f"repeated label in set {text!r}")
    return ground.mask(names)


def _print_doc(doc) -> None:
    sys.stdout.write(io._dump(doc))


def _emit(m: matroid.Matroid) -> int:
    sys.stdout.write(io.emit_matroid(m))
    return 0


def _verdict(label: str, ok: bool, doc=None) -> int:
    """Print "label: true" or "label: false", then doc if one is given;
    exit 0 iff ok."""
    print(f"{label}: {'true' if ok else 'false'}")
    if doc is not None:
        _print_doc(doc)
    return 0 if ok else 1


def _spec_doc(ground, spec: ops.MinorSpec) -> dict:
    return {"contract": list(ground.names(spec.contract)),
            "delete": list(ground.names(spec.delete))}


@command("validate", "check the Z0-Z3 conditions", FILE)
def cmd_validate(args) -> int:
    family = io.parse_matroid(args.file)
    try:
        m = matroid.validate(family)
    except NotAMatroid as exc:
        print(f"invalid: {exc}")
        return 1
    print(f"valid, rank {m.matroid_rank}")
    return 0


@command("rank", "rank of a subset", FILE,
         arg("--set", required=True, help="comma-separated labels"))
def cmd_rank(args) -> int:
    m = _load_matroid(args.file)
    print(m.rank(_parse_set(m.ground, args.set)))
    return 0


@command("independent", "independence of a subset", FILE,
         arg("--set", required=True))
def cmd_independent(args) -> int:
    m = _load_matroid(args.file)
    ok = m.is_independent(_parse_set(m.ground, args.set))
    print("true" if ok else "false")
    return 0 if ok else 1


@command("circuits", "all circuits", FILE)
def cmd_circuits(args) -> int:
    m = _load_matroid(args.file)
    _print_doc({"circuits": [list(m.ground.names(c)) for c in m.circuits()]})
    return 0


@command("cyclic-flats",
         "recompute cyclic flats and report the fixpoint check", FILE)
def cmd_cyclic_flats(args) -> int:
    m = _load_matroid(args.file)
    recomputed = matroid.cyclic_flats_recompute(m)
    sys.stdout.write(io.emit_matroid(recomputed))
    if recomputed == m.ranked_family():
        print("fixpoint: ok")
        return 0
    print("fixpoint: MISMATCH")
    return 1


@command("stats", "rank, nullity, loops, isthmuses", FILE)
def cmd_stats(args) -> int:
    m = _load_matroid(args.file)
    _print_doc({"rank": m.matroid_rank, "nullity": m.nullity,
                "loops": list(m.ground.names(m.loops())),
                "isthmuses": list(m.ground.names(m.isthmuses())),
                "n_cyclic_flats": len(m.flats)})
    return 0


def cmd_one_matroid(args) -> int:
    """dual, truncate and lift: the operation on the file's matroid.  It
    is looked up when the command runs, so perfbench's tracer, which
    rebinds the library's functions, sees the call."""
    op = {"dual": ops.dual, "truncate": ops.truncate,
          "lift": ops.higgs_lift}[args.command]
    return _emit(op(_load_matroid(args.file)))


command("dual", "dual matroid", FILE)(cmd_one_matroid)


@command("minor", "contract/delete minor", FILE,
         arg("--contract", default=""), arg("--delete", default=""))
def cmd_minor(args) -> int:
    m = _load_matroid(args.file)
    spec = ops.MinorSpec(_parse_set(m.ground, args.contract),
                         _parse_set(m.ground, args.delete))
    return _emit(ops.minor(m, spec))


@command("relax", "drop a relaxable cyclic flat", FILE,
         arg("--flat", required=True))
def cmd_relax(args) -> int:
    m = _load_matroid(args.file)
    return _emit(ops.relax(m, _parse_set(m.ground, args.flat)))


def cmd_two_matroids(args) -> int:
    """directsum and freeprod: the operation on the two files' matroids,
    looked up when the command runs (as in cmd_one_matroid), and only
    that one, so freeprod does not run ops."""
    op = (ops.direct_sum if args.command == "directsum"
          else freeprod.free_product)
    return _emit(op(_load_matroid(args.left), _load_matroid(args.right)))


command("directsum", "direct sum of two matroids", LEFT, RIGHT)(
    cmd_two_matroids)
command("freeprod", "free product of two matroids", LEFT, RIGHT)(
    cmd_two_matroids)
command("truncate", "truncation", FILE)(cmd_one_matroid)
command("lift", "Higgs lift", FILE)(cmd_one_matroid)


@command("tutte", "Tutte polynomial",
         arg("files", nargs="+",
             help="one matroid file: T(M) from its cyclic flats; two "
                  "factor files: T(M box N) from the factors' rank "
                  "generating matrices"))
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


@command("width", "cyclic width", FILE)
def cmd_width(args) -> int:
    print(widths.cyclic_width(_load_matroid(args.file)))
    return 0


@command("nested", "nested test and i/f sequence", FILE)
def cmd_nested(args) -> int:
    m = _load_matroid(args.file)
    try:
        seq = build.nested_sequence_of(m)
    except NotNested:
        return _verdict("nested", False)
    _verdict("nested", True)
    print(f"sequence: {seq}")
    return 0


@command("minor-test", "search for a minor", arg("host"), arg("pattern"))
def cmd_minor_test(args) -> int:
    m = _load_matroid(args.host)
    found, spec = ops.has_minor(m, _load_matroid(args.pattern))
    return _verdict("minor", found,
                    _spec_doc(m.ground, spec) if found else None)


@command("iso", "isomorphism with witness", LEFT, RIGHT)
def cmd_iso(args) -> int:
    ok, witness = ops.is_isomorphic(_load_matroid(args.left),
                                    _load_matroid(args.right))
    return _verdict("isomorphic", ok,
                    {"witness": dict(sorted(witness.items()))} if ok else None)


@command("realize", "matroid whose cyclic-flat lattice matches a given "
         "lattice", FILE, arg("--sublattice", action="store_true"))
def cmd_realize(args) -> int:
    lat = io.parse_lattice(args.file)
    variant = "sublattice" if args.sublattice else "plain"
    return _emit(build.realize_lattice(lat, variant).matroid)


@command("ingleton", "transversality condition", FILE)
def cmd_ingleton(args) -> int:
    m = _load_matroid(args.file)
    ok, witness = widths.ingleton_transversal(m)
    return _verdict("transversal-condition", ok, None if ok else
                    {"antichain": [list(m.ground.names(f)) for f in witness]})


@command("bitransversal", "transversality of the matroid and its dual",
         FILE)
def cmd_bitransversal(args) -> int:
    return _verdict("bitransversal",
                    widths.bitransversal_cert(_load_matroid(args.file)))


@command("chain-minor", "uniform minor extracted from a chain of cyclic "
         "flats", FILE, arg("--k", type=int, required=True))
def cmd_chain_minor(args) -> int:
    m = _load_matroid(args.file)
    cm = build.uniform_minor_from_chain(m, args.k)
    _print_doc({"raw": _spec_doc(m.ground, cm.raw),
                "trimmed": _spec_doc(m.ground, cm.trimmed)})
    return 0


GEN_PARAMS = {"uniform": "R N", "pn": "N", "gimenez": "N [SIGMA]",
              "nested": "[SEQ]", "catalog": "NAME"}


@command("gen", "generators: " + " | ".join(
             f"{kind} {params}" for kind, params in GEN_PARAMS.items()),
         arg("kind", choices=list(GEN_PARAMS)), arg("params", nargs="*"))
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
    else:  # catalog; argparse's choices reject any other kind
        m = build.catalog(args.params[0])
    return _emit(m)


def make_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, if command names one, of that
    one only.  On a command line that starts with that command, the
    two parse, print and exit alike: the usage line of the one-command
    parser still lists every command."""
    parser = argparse.ArgumentParser(
        prog="cycflats",
        description="Matroids represented by cyclic flats and ranks")
    one = command in COMMANDS
    sub = parser.add_subparsers(
        dest="command", required=True,
        # argparse's own metavar lists only the commands built; a metavar
        # on the full parser would rename the command argument in its
        # "invalid choice" message
        metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        help, arguments, fn = COMMANDS[name]
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = make_parser(argv[0] if argv else None).parse_args(argv)
    try:
        try:
            code = args.fn(args)
        except (NotRelaxable, NotNested, ChainTooShort, RankZero) as exc:
            print(f"violation: {exc}")
            code = 1
        except (CycflatsError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:
        # the reader of stdout is gone: point stdout at devnull so the
        # interpreter's final flush cannot raise again (the recipe of
        # the signal module's "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    sys.exit(main())
