"""End-to-end tests: every subcommand against committed fixture files,
and a property test of the 0/1/2 exit-code contract."""

import ast
import contextlib
import importlib
import io as textio
import json
import os
import random
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cycflats as cf
from cycflats import cli, io, lattices
from cycflats.cli import GEN_PARAMS, main, make_parser
from cycflats.widths import ANTICHAIN_CAP

FX = Path(__file__).parent / "fixtures"
README = Path(__file__).parent.parent / "README.md"


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return _run


class TestValidate:
    def test_valid(self, run):
        code, out, _ = run("validate", FX / "u24.json")
        assert code == 0
        assert out == "valid, rank 2\n"

    def test_invalid(self, run):
        code, out, _ = run("validate", FX / "invalid_z2.json")
        assert code == 1
        assert out.startswith("invalid: Z2")

    def test_bad_schema(self, run):
        code, out, err = run("validate", FX / "bad_schema.json")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_missing_file(self, run):
        code, _, err = run("validate", FX / "nonesuch.json")
        assert code == 2
        assert "error:" in err

    def test_not_utf8(self, run, tmp_path):
        # a UTF-16 byte-order mark: the message names the file
        doc = tmp_path / "bom.json"
        doc.write_bytes(b"\xff\xfe{}")
        code, out, err = run("validate", doc)
        assert (code, out) == (2, "")
        assert err == f"error: {doc}: byte 0 is not UTF-8 " \
            f"(invalid start byte)\n"


class TestQueries:
    def test_rank(self, run):
        code, out, _ = run("rank", FX / "u24.json", "--set", "e1,e2,e3")
        assert (code, out) == (0, "2\n")

    def test_rank_empty_set(self, run):
        code, out, _ = run("rank", FX / "u24.json", "--set", "")
        assert (code, out) == (0, "0\n")

    def test_rank_unknown_label(self, run):
        code, _, err = run("rank", FX / "u24.json", "--set", "zz")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv", [
        ("rank", FX / "u24.json", "--set", "e1,e1"),
        ("independent", FX / "u24.json", "--set", "e2,e1,e2"),
        ("minor", FX / "u24.json", "--contract", "e1,e1"),
        ("minor", FX / "u24.json", "--delete", "e3,e3"),
        ("relax", FX / "u24.json", "--flat", "e1,e2,e1")])
    def test_repeated_label_in_set(self, run, argv):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_independent(self, run):
        code, out, _ = run("independent", FX / "u24.json", "--set", "e1,e2")
        assert (code, out) == (0, "true\n")
        code, out, _ = run("independent", FX / "u24.json", "--set", "e1,e2,e3")
        assert (code, out) == (1, "false\n")

    def test_circuits(self, run):
        code, out, _ = run("circuits", FX / "mk4.json")
        assert code == 0
        assert len(json.loads(out)["circuits"]) == 7

    def test_circuits_of_three_copies_of_mk4(self, run, tmp_path):
        mk4 = cf.catalog("mk4")
        m = cf.direct_sum(cf.direct_sum(cf.relabel(mk4, "a:"),
                                        cf.relabel(mk4, "b:")),
                          cf.relabel(mk4, "c:"))
        path = tmp_path / "mk4x3.json"
        path.write_text(io.emit_matroid(m))
        code, out, _ = run("circuits", path)
        assert code == 0
        assert len(json.loads(out)["circuits"]) == 21

    def test_circuits_over_cap(self, run, tmp_path):
        path = tmp_path / "u10_40.json"
        path.write_text(io.emit_matroid(cf.uniform(10, 40)))
        code, out, err = run("circuits", path)
        assert (code, out) == (2, "")
        assert err.startswith("error: circuits would enumerate ")
        assert err.count("\n") == 1

    def test_cyclic_flats_fixpoint(self, run):
        code, out, _ = run("cyclic-flats", FX / "mk4.json")
        assert code == 0
        assert out.endswith("fixpoint: ok\n")

    def test_cyclic_flats_mismatch(self, run, monkeypatch):
        # a recomputed family with one rank changed: exit 1, and the
        # last line reports the mismatch
        def one_rank_off(m):
            entries = dict(m.ranked_family().entries)
            entries[m.ground.full] += 1
            return cf.RankedFamily(m.ground, entries)
        monkeypatch.setattr("cycflats.matroid.cyclic_flats_recompute",
                            one_rank_off)
        code, out, _ = run("cyclic-flats", FX / "mk4.json")
        assert code == 1
        assert out.endswith("fixpoint: MISMATCH\n")

    def test_stats(self, run):
        code, out, _ = run("stats", FX / "nested_ifif.json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {"rank": 2, "nullity": 2, "loops": [],
                       "isthmuses": [], "n_cyclic_flats": 3}


class TestStats:
    def stats(self, run, tmp_path, m):
        path = tmp_path / "m.json"
        path.write_text(io.emit_matroid(m))
        code, out, _ = run("stats", path)
        assert code == 0
        return json.loads(out)

    def test_u24(self, run, tmp_path, catalog):
        assert self.stats(run, tmp_path, catalog["u24"]) == {
            "rank": 2, "nullity": 2, "loops": [], "isthmuses": [],
            "n_cyclic_flats": 2}

    def test_loops_and_isthmuses(self, run, tmp_path, catalog):
        assert self.stats(run, tmp_path, catalog["u01+u11"]) == {
            "rank": 1, "nullity": 1, "loops": ["a1"], "isthmuses": ["b1"],
            "n_cyclic_flats": 1}

    def test_free_matroid(self, run, tmp_path, catalog):
        assert self.stats(run, tmp_path, catalog["u33"]) == {
            "rank": 3, "nullity": 0, "loops": [],
            "isthmuses": ["e1", "e2", "e3"], "n_cyclic_flats": 1}


class TestOperations:
    def test_dual_round_trip(self, run, tmp_path):
        code, out, _ = run("dual", FX / "u24.json")
        assert code == 0
        dualfile = tmp_path / "dual.json"
        dualfile.write_text(out)
        code, out2, _ = run("dual", dualfile)
        assert code == 0
        assert out2 == (FX / "u24.json").read_text()

    def test_minor(self, run):
        code, out, _ = run("minor", FX / "u24.json",
                           "--contract", "e1", "--delete", "e2")
        assert code == 0
        got = cf.validate(io.doc_to_ranked_family(json.loads(out)))
        assert cf.is_isomorphic(got, cf.uniform(1, 2))[0]

    def test_relax(self, run):
        code, out, _ = run("relax", FX / "mk4.json", "--flat", "12,13,23")
        assert code == 0
        assert len(json.loads(out)["cyclic_flats"]) == 5

    def test_relax_violation(self, run):
        code, out, _ = run("relax", FX / "mk4.json", "--flat", "")
        assert code == 1
        assert out.startswith("violation:")

    def test_directsum(self, run):
        code, out, _ = run("directsum", FX / "u11.json", FX / "u01.json")
        assert code == 0
        doc = json.loads(out)
        assert doc["ground"] == ["a", "b"]

    def test_freeprod(self, run):
        code, out, _ = run("freeprod", FX / "u11.json", FX / "u01.json")
        assert code == 0
        got = cf.validate(io.doc_to_ranked_family(json.loads(out)))
        assert cf.is_isomorphic(got, cf.uniform(1, 2))[0]

    def test_truncate_and_lift(self, run):
        code, out, _ = run("truncate", FX / "u24.json")
        got = cf.validate(io.doc_to_ranked_family(json.loads(out)))
        assert code == 0 and cf.is_isomorphic(got, cf.uniform(1, 4))[0]
        code, out, _ = run("lift", FX / "u24.json")
        got = cf.validate(io.doc_to_ranked_family(json.loads(out)))
        assert code == 0 and cf.is_isomorphic(got, cf.uniform(3, 4))[0]

    def test_lift_full_rank_is_a_violation(self, run, tmp_path):
        path = tmp_path / "u22.json"
        path.write_text(io.emit_matroid(cf.uniform(2, 2)))
        code, out, _ = run("lift", path)
        assert code == 1
        assert out == ("violation: cannot lift a matroid of full rank "
                       "r(M) = |E|\n")

    def test_truncate_past_enumeration_cap(self, run, tmp_path):
        path = tmp_path / "u330.json"
        path.write_text(io.emit_matroid(cf.uniform(3, 30)))
        code, out, _ = run("truncate", path)
        assert code == 0
        assert out == io.emit_matroid(cf.uniform(2, 30))


class TestTutte:
    def test_brute(self, run):
        code, out, _ = run("tutte", FX / "u24.json")
        assert code == 0
        assert json.loads(out)["terms"] == [
            {"x": 0, "y": 1, "c": 2}, {"x": 0, "y": 2, "c": 1},
            {"x": 1, "y": 0, "c": 2}, {"x": 2, "y": 0, "c": 1}]

    def test_convolution_matches_brute(self, run, tmp_path):
        prod = cf.free_product(cf.uniform(1, 1, ["a"]), cf.uniform(0, 1, ["b"]))
        prodfile = tmp_path / "prod.json"
        prodfile.write_text(io.emit_matroid(prod))
        code, conv_out, _ = run("tutte", FX / "u11.json", FX / "u01.json")
        assert code == 0
        code, brute_out, _ = run("tutte", prodfile)
        assert code == 0
        assert conv_out == brute_out

    def test_past_the_rank_table_cap(self, run, tmp_path):
        m = cf.gimenez_family(6, [2, 4, 6, 1, 3, 5])
        assert len(m.ground) == 29
        path = tmp_path / "gimenez6.json"
        path.write_text(io.emit_matroid(m))
        code, out, err = run("tutte", path)
        assert (code, err) == (0, "")
        assert out == io.emit_poly(cf.tutte_polynomial(m))

    def test_wrong_file_count(self, run):
        code, _, err = run("tutte", *[FX / "u24.json"] * 3)
        assert code == 2
        assert "error:" in err


def readme_command_lines():
    """The argv of each `cycflats ...` line in README's "Command line"
    block, with its comment and any `>` redirect stripped."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if ">" in words:
            words = words[:words.index(">")]
        if words[:1] == ["cycflats"]:
            yield words[1:]


def test_readme_command_lines_parse():
    argvs = list(readme_command_lines())
    assert len(argvs) >= 9
    parser = make_parser()
    for argv in argvs:
        assert parser.parse_args(argv).command == argv[0], argv


def test_readme_python_blocks():
    # README's ```python blocks run in one namespace, and each bare
    # expression gives the value its comment states
    seen = []

    class Record(ast.NodeTransformer):
        def visit_Expr(self, node):
            call = ast.parse("seen.append(None)").body[0]
            call.value.args[0] = node.value
            return ast.copy_location(call, node)

    ns = {"seen": seen}
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 2
    for block in blocks:
        tree = ast.fix_missing_locations(Record().visit(ast.parse(block)))
        exec(compile(tree, "README.md", "exec"), ns)
    rank, circuits, cyclic_width, width, which = seen
    m, d = ns["m"], ns["d"]
    assert rank == 2
    assert len(circuits) == 4 and {c.bit_count() for c in circuits} == {3}
    assert (d.flats, d.flat_ranks) == (m.flats, m.flat_ranks)
    assert ns["t"] == {(0, 1): 2, (0, 2): 1, (1, 0): 2, (2, 0): 1}
    assert cyclic_width == width == 4
    assert which == "Z2"


def test_readme_names_every_subcommand():
    # README's "Subcommands:" sentence lists the parser's commands in order
    sentence = README.read_text().split("Subcommands:", 1)[1]
    names = re.findall(r"`([^`]+)`", sentence.split(".", 1)[0])
    assert names == list(cli.COMMANDS)


def test_readme_cap_table():
    # each row of README's size-cap table opens its Value cell with the
    # value of the module constant it names
    section = README.read_text().split("### Size caps", 1)[1]
    rows = [line.split("|")[1:3] for line in section.split("\n## ", 1)[0]
            .splitlines() if line.startswith("| `")]
    assert len(rows) == 5
    for name, value in rows:
        module, constant = name.strip(" `").split(".")
        want = getattr(importlib.import_module(f"cycflats.{module}"),
                       constant)
        got = re.match(r"[\d,]+", value.strip()).group().replace(",", "")
        assert int(got) == want, name


SRC = str(Path(__file__).resolve().parents[1] / "src")


def test_table_free_commands_do_not_import_numpy():
    # nor dataclasses and inspect: importing them costs each CLI child
    # about as much as executing the whole package.  Tutte, from one
    # matroid or from the two factors of a free product, takes no table.
    # `import cycflats` runs only the errors module (the others stay
    # lazy modules, whose class LazyLoader swaps when they run), and
    # validate runs none of the operations' modules.  Nor does running
    # every registered module, which vars() on each does, as a profiler
    # that wraps functions module by module calls it: dense imports
    # numpy inside its functions
    mk4, u24 = str(FX / "mk4.json"), str(FX / "u24.json")
    commands = [["validate", mk4], ["tutte", mk4], ["tutte", mk4, u24]]
    script = (
        "import sys, types\n"
        "heavy = ('numpy', 'dataclasses', 'inspect')\n"
        "def ran():\n"
        "    return {n for n, m in sys.modules.items()\n"
        "            if n.startswith('cycflats.')\n"
        "            and type(m) is types.ModuleType}\n"
        "import cycflats\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'import cycflats: {loaded}'\n"
        "assert ran() == {'cycflats.errors'}, ran()\n"
        "assert {n for n in sys.modules if n.startswith('cycflats.')} \\\n"
        "    == {'cycflats.' + m for m in [*cycflats._EXPORTS, 'errors']}\n"
        "from cycflats import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "    loaded = [m for m in heavy if m in sys.modules]\n"
        "    assert not loaded, f'{argv}: {loaded}'\n"
        "    if argv[0] == 'validate':\n"
        "        operations = {'cycflats.' + m for m in\n"
        "                      ('build', 'ops', 'tutte', 'widths', 'freeprod')}\n"
        "        assert not ran() & operations, ran() & operations\n"
        "for name in [n for n in sys.modules if n.startswith('cycflats.')]:\n"
        "    vars(sys.modules[name])\n"
        "assert 'cycflats.dense' in ran(), ran()\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "assert not loaded, f'vars() of every module: {loaded}'\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def _numpy_imports(nodes):
    return [node.lineno for stmt in nodes for node in ast.walk(stmt)
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "numpy" for a in node.names)
            or isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] == "numpy"]


def test_only_dense_imports_numpy():
    # the 2^n kernels are the only numpy code in the library; dense
    # imports it inside its functions (or for type checkers only), so
    # running the module imports none
    for path in sorted(Path(SRC, "cycflats").glob("*.py")):
        body = ast.parse(path.read_text()).body
        if path.stem == "dense":
            body = [stmt for stmt in body
                    if not isinstance(stmt, ast.FunctionDef)
                    and not (isinstance(stmt, ast.If)
                             and ast.unparse(stmt.test) == "TYPE_CHECKING")]
        assert not _numpy_imports(body), (path.name, _numpy_imports(body))


# Malformed documents as text: (command, text), one of each shape a
# CLI child must reject with exit 2 and one stderr line
MALFORMED_TEXTS = [
    ("validate", '{"ground": ["a"], "cyclic_flats": 5}'),
    ("realize", '{"elements": ["a", "b"], "covers": [["a", ["b"]]]}'),
    ("validate", '{"ground": ["a", "b"], "cyclic_flats": '
                 '[{"set": [], "rank": 0}, {"set": "ab", "rank": 1}]}'),
    ("validate", '{"ground": ["a", "b"], "cyclic_flats": '
                 '[{"set": [], "rank": 0}, {"set": ["a", "a", "b"], '
                 '"rank": 1}]}'),
    ("validate", '{"ground": ["a"]}'),
    ("validate", '{"ground": ['),
]
BASE = {"cli", "errors", "groundsets", "io"}


# (argv, exit code, the modules beyond BASE that the command runs)
COMMAND_MODULES = [
    (["validate", "mk4.json"], 0, {"matroid"}),
    (["cyclic-flats", "mk4.json"], 0, {"dense", "matroid"}),
    (["tutte", "mk4.json"], 0, {"matroid", "tutte"}),
    (["dual", "mk4.json"], 0, {"matroid", "ops"}),
    (["minor", "mk4.json", "--delete", "12"], 0, {"matroid", "ops"}),
    (["freeprod", "mk4.json", "u24.json"], 0, {"matroid", "freeprod"}),
    (["width", "mk4.json"], 0, {"matroid", "lattices", "widths"}),
    (["iso", "mk4.json", "mk4.json"], 0, {"matroid", "lattices", "ops"}),
    (["realize", "lattice_b2.json"], 0, {"build", "lattices", "matroid"}),
    (["gen", "catalog", "mk4"], 0, {"build", "matroid"}),
    (["nested", "nested_ifif.json"], 0, {"build", "matroid"}),
    (["chain-minor", "nested_ififif.json", "--k", "1"], 0,
     {"build", "matroid", "ops"}),
    *[([command, f"malformed-{i}.json"], 2, set())
      for i, (command, _) in enumerate(MALFORMED_TEXTS)],
]


@pytest.mark.parametrize("argv, code, modules", [
    pytest.param(*case, id="-".join(case[0])) for case in COMMAND_MODULES])
def test_modules_each_command_runs(argv, code, modules, tmp_path):
    # each module a command runs costs its child the module's compile
    # when no bytecode is cached: a malformed document stops in io,
    # before matroid runs, and only the commands that call into lattices
    # run it.  One fresh interpreter per command
    for i, (_, text) in enumerate(MALFORMED_TEXTS):
        (tmp_path / f"malformed-{i}.json").write_text(text)
    paths = {p.name: p for d in (FX, tmp_path) for p in d.glob("*.json")}
    argv = [str(paths.get(a, a)) for a in argv]
    script = (
        "import sys, types\n"
        "from cycflats import cli\n"
        "code = cli.main(sys.argv[1:])\n"
        "print(code, sorted(n[len('cycflats.'):]\n"
        "                   for n, m in sys.modules.items()\n"
        "                   if n.startswith('cycflats.')\n"
        "                   and type(m) is types.ModuleType))\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.stdout.splitlines()[-1:] \
        == [f"{code} {sorted(BASE | modules)}"], done.stderr


@pytest.mark.parametrize("argv, code, err", [
    pytest.param(["validate", "mk4.json"], 0, "", id="argv0"),
    pytest.param(["tutte", "mk4.json"], 0, "", id="argv1"),
    # the lazily registered dense module runs under __main__ too
    pytest.param(["cyclic-flats", "mk4.json"], 0, "", id="argv2"),
    # a document missing cyclic_flats ends in io, before matroid runs
    pytest.param(["validate", "bad_schema.json"], 2,
                 "error: matroid document needs exactly the fields 'ground' "
                 "and 'cyclic_flats'\n", id="malformed"),
])
def test_run_as_main_warns_nothing(argv, code, err):
    # cli is the one submodule the package does not register lazily:
    # runpy warns about a module found in sys.modules before it runs
    # as __main__, and the benchmark requires an empty stderr
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cycflats.cli", argv[0],
         str(FX / argv[1])],
        env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (code, err)


@pytest.mark.parametrize("argv", [["gen", "uniform", "1", "20000"],
                                  ["gen", "catalog", "mk4"]],
                         ids=["large", "small"])
def test_closed_stdout_exits_141(argv):
    # the reader closes stdout before the child writes: exit 141 (128 +
    # SIGPIPE, as a shell reports a filter stopped by a closed pipe) with
    # an empty stderr, whether the write or the final flush fails
    env = dict(os.environ, PYTHONPATH=SRC)
    child = subprocess.Popen([sys.executable, "-m", "cycflats.cli", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env=env)
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(timeout=60), err) == (141, b"")


def test_package_names():
    # every name of the table is its home module's object, listed by
    # dir() and bound by a star import; any other name is missing
    assert cf._HOME and set(cf._HOME) <= set(cf.__all__)
    for module, names in cf._EXPORTS.items():
        home = importlib.import_module(f"cycflats.{module}")
        assert getattr(cf, module) is home
        for name in names:
            assert getattr(cf, name) is getattr(home, name), name
    assert set(cf.__all__) <= set(dir(cf))
    assert cf.TooLarge is cf.errors.TooLarge and "TooLarge" in cf.__all__
    ns = {}
    exec("from cycflats import *", ns)
    assert all(ns[name] is getattr(cf, name) for name in cf.__all__)
    with pytest.raises(AttributeError, match="nonesuch"):
        cf.nonesuch  # noqa: B018


def _main_output(argv):
    """stdout, stderr and exit code of main(argv), whether it returns or
    argparse exits."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _parser_argvs():
    """Command lines for every way the parser can answer: help, no or an
    unknown command, and, for each command, missing arguments, an extra
    positional, an unknown option and a bad typed value."""
    argvs = [["--help"], ["-h"], [], ["nonesuch"], ["nonesuch", "x"]]
    for name, (_, arguments, _) in cli.COMMANDS.items():
        full, bad = [], []
        for flags, options in arguments:
            if flags[0].startswith("-"):
                if options.get("required"):
                    full += [flags[0], "1"]
                if "type" in options:
                    bad = [flags[0], "x"]
            elif options.get("nargs") != "*":
                full.append(options["choices"][0] if "choices" in options
                            else str(FX / "mk4.json"))
        argvs += [["-h", name], [name, "--help"], [name], [name, *full],
                  [name, *full, "extra"], [name, *full, "--nonesuch"]]
        if bad:
            argvs.append([name, *full, *bad])
    return argvs


def test_one_command_parser_answers_as_the_full_parser(monkeypatch):
    # main builds only the named command's subparser; on every command
    # line it prints and exits byte for byte as the parser of all
    argvs = _parser_argvs()
    assert len(argvs) > 6 * len(cli.COMMANDS)
    got = [_main_output(argv) for argv in argvs]
    full = make_parser
    monkeypatch.setattr(cli, "make_parser", lambda command=None: full())
    want = [_main_output(argv) for argv in argvs]
    for argv, g, w in zip(argvs, got, want):
        assert g == w, argv
    assert {code for _, _, code in got} == {0, 1, 2}
    with pytest.raises(SystemExit):
        with contextlib.redirect_stderr(textio.StringIO()):
            make_parser("validate").parse_args(["rank", "f", "--set", "a"])


def test_witness_text_does_not_depend_on_the_hash_seed():
    # set reprs of names would follow PYTHONHASHSEED; witnesses list
    # names in ground order
    commands = [["validate", FX / "invalid_z2.json"],
                ["relax", FX / "nested_ififif.json", "--flat", "e1,e2"],
                ["directsum", FX / "mk4.json", FX / "mk4.json"]]
    script = ("import sys\n"
              "from cycflats import cli\n"
              f"for argv in {[[str(a) for a in c] for c in commands]!r}:\n"
              "    print(cli.main(argv), flush=True)\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        outs.append((done.stdout, done.stderr))
    assert outs[0] == outs[1]
    out, err = outs[0]
    assert "Y={'a', 'b'}" in out
    assert "comparable to {'e1', 'e2', 'e3', 'e4'}" in out
    assert "shared labels: {'12', '13', '14', '23', '24', '34'}" in err


class TestAnalysis:
    def test_width_mk4(self, run):
        code, out, _ = run("width", FX / "mk4.json")
        assert (code, out) == (0, "4\n")

    def test_nested(self, run):
        code, out, _ = run("nested", FX / "nested_ifif.json")
        assert code == 0
        assert out == "nested: true\nsequence: ifif\n"
        code, out, _ = run("nested", FX / "mk4.json")
        assert (code, out) == (1, "nested: false\n")

    def test_minor_test(self, run):
        code, out, _ = run("minor-test", FX / "p2.json", FX / "u11.json")
        assert code == 0
        assert out.startswith("minor: true\n")
        code, out, _ = run("minor-test", FX / "mk4.json", FX / "u24.json")
        assert (code, out) == (1, "minor: false\n")

    def test_minor_test_past_twelve_elements(self, run, tmp_path):
        # a 16-element nested host has four element classes, so the
        # search is small and answers rather than exiting 2 (TooLarge)
        seq = "iiffifffiiffiiff"
        host = cf.nested_from_sequence(seq)
        host_doc = tmp_path / "host.json"
        host_doc.write_text(io.emit_matroid(host))
        for pat in ("iffifffiiffi", "ffffffiii", "fiffifffiffi"):
            found = cf.nested_subsequence_minor(pat, seq)[0]
            pattern = cf.nested_from_sequence(pat)
            pattern_doc = tmp_path / f"{pat}.json"
            pattern_doc.write_text(io.emit_matroid(pattern))
            code, out, err = run("minor-test", host_doc, pattern_doc)
            assert (code, err) == (0 if found else 1, "")
            first, _, rest = out.partition("\n")
            assert first == f"minor: {str(found).lower()}"
            if found:
                spec = json.loads(rest)
                got = cf.minor(host, cf.MinorSpec(
                    host.ground.mask(spec["contract"]),
                    host.ground.mask(spec["delete"])))
                assert cf.is_isomorphic(got, pattern)[0]

    def test_iso(self, run, tmp_path):
        other = tmp_path / "relabeled.json"
        other.write_text(io.emit_matroid(cf.relabel(cf.uniform(2, 4), "q")))
        code, out, _ = run("iso", FX / "u24.json", other)
        assert code == 0
        assert out.startswith("isomorphic: true\n")
        code, out, _ = run("iso", FX / "u24.json", FX / "mk4.json")
        assert (code, out) == (1, "isomorphic: false\n")

    def test_iso_17_elements(self, run, tmp_path):
        m = cf.gimenez_family(3, [2, 3, 1])
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(io.emit_matroid(m))
        right.write_text(io.emit_matroid(cf.relabel(m, "q")))
        code, out, _ = run("iso", left, right)
        assert code == 0
        assert out.startswith("isomorphic: true\n")

    def test_iso_four_mk4(self, run, tmp_path):
        # 1,296 cyclic flats: deeper than the interpreter's recursion limit
        mk4 = cf.catalog("mk4")
        m = mk4
        for j in range(1, 4):
            m = cf.direct_sum(m, cf.relabel(mk4, f"{j}:"))
        left, right = tmp_path / "left.json", tmp_path / "right.json"
        left.write_text(io.emit_matroid(m))
        right.write_text(io.emit_matroid(cf.relabel(m, "q")))
        code, out, _ = run("iso", left, right)
        assert code == 0
        assert out.startswith("isomorphic: true\n")

    def test_realize(self, run):
        code, out, _ = run("realize", FX / "lattice_b2.json")
        assert code == 0
        m = cf.validate(io.doc_to_ranked_family(json.loads(out)))
        lat = io.parse_lattice(FX / "lattice_b2.json")
        assert cf.poset_isomorphic(m.flats, lat)[0]
        code, out2, _ = run("realize", "--sublattice", FX / "lattice_b2.json")
        assert code == 0
        assert out2 != out

    def test_realize_checks_the_lattice_once(self, run, monkeypatch):
        # parsing builds the FiniteLattice, which checks it; realizing
        # it checks nothing again.  Every cycflats module that holds
        # _check_lattice gets the counting spy: groundsets, which owns
        # it, and lattices and matroid, which read it
        calls, spied = [], set()
        check = lattices._check_lattice

        def counted(*args):
            calls.append(args[0])
            return check(*args)
        for name, module in list(sys.modules.items()):
            if name.startswith("cycflats.") and hasattr(module,
                                                        "_check_lattice"):
                monkeypatch.setattr(module, "_check_lattice", counted)
                spied.add(name)
        assert spied == {"cycflats.groundsets", "cycflats.lattices",
                         "cycflats.matroid"}
        code, _, _ = run("realize", FX / "lattice_b2.json")
        assert code == 0
        assert len(calls) == 1

    def test_realize_empty_lattice(self, run, tmp_path):
        doc = tmp_path / "empty.json"
        doc.write_text('{"elements": [], "covers": []}')
        code, out, err = run("realize", doc)
        assert (code, out) == (2, "")
        assert err == "error: a lattice needs at least one element\n"

    def test_realize_self_cover(self, run, tmp_path):
        doc = tmp_path / "self.json"
        doc.write_text('{"elements": ["a"], "covers": [["a", "a"]]}')
        code, out, err = run("realize", doc)
        assert (code, out) == (2, "")
        assert err == "error: 'a' covers itself\n"

    def test_ingleton(self, run):
        code, out, _ = run("ingleton", FX / "u24.json")
        assert (code, out) == (0, "transversal-condition: true\n")
        code, out, _ = run("ingleton", FX / "mk4.json")
        assert code == 1
        assert out.startswith("transversal-condition: false\n")
        assert len(json.loads(out.split("\n", 1)[1])["antichain"]) == 4

    def test_ingleton_over_cap(self, run, tmp_path):
        # the M_22 realization (24 cyclic flats, width 22) and four M(K4)
        # (1,296 flats) exit 2 on the cap, after only the width
        atoms = [f"a{i}" for i in range(22)]
        m22 = cf.lattice_from_covers(
            ["0", *atoms, "1"],
            [("0", a) for a in atoms] + [(a, "1") for a in atoms])
        mk4 = cf.catalog("mk4")
        four = mk4
        for j in range(1, 4):
            four = cf.direct_sum(four, cf.relabel(mk4, f"{j}:"))
        for m in (cf.realize_lattice(m22, "sublattice").matroid, four):
            path = tmp_path / "m.json"
            path.write_text(io.emit_matroid(m))
            start = time.perf_counter()
            code, out, err = run("ingleton", path)
            assert time.perf_counter() - start < 5
            assert (code, out) == (2, "")
            assert err.startswith("error: ingleton_transversal would make")
            assert err.endswith(f"cap {ANTICHAIN_CAP} (ANTICHAIN_CAP)\n")

    def test_bitransversal(self, run):
        code, out, _ = run("bitransversal", FX / "u24.json")
        assert (code, out) == (0, "bitransversal: true\n")
        code, out, _ = run("bitransversal", FX / "mk4.json")
        assert (code, out) == (1, "bitransversal: false\n")

    def test_chain_minor(self, run):
        code, out, _ = run("chain-minor", FX / "nested_ififif.json", "--k", "2")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"raw", "trimmed"}
        code, out, _ = run("chain-minor", FX / "u24.json", "--k", "2")
        assert code == 1
        assert out.startswith("violation:")


class TestGen:
    def test_uniform(self, run):
        code, out, _ = run("gen", "uniform", "2", "4")
        assert code == 0
        assert out == (FX / "u24.json").read_text()

    def test_pn(self, run):
        code, out, _ = run("gen", "pn", "2")
        assert code == 0
        assert out == (FX / "p2.json").read_text()

    def test_gimenez(self, run):
        code, out, _ = run("gen", "gimenez", "2", "2,1")
        assert code == 0
        assert len(json.loads(out)["ground"]) == 13

    def test_nested(self, run):
        code, out, _ = run("gen", "nested", "ifif")
        assert code == 0
        assert out == (FX / "nested_ifif.json").read_text()

    def test_catalog(self, run):
        code, out, _ = run("gen", "catalog", "mk4")
        assert code == 0
        assert out == (FX / "mk4.json").read_text()

    def test_unknown_catalog(self, run):
        code, _, err = run("gen", "catalog", "nonesuch")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("params", [
        ["uniform"], ["uniform", "2"], ["pn"], ["catalog"], ["gimenez"],
        ["nested", "if", "fi"]])
    def test_wrong_parameter_count(self, run, params):
        code, out, err = run("gen", *params)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: gen {params[0]} takes ")
        assert err.count("\n") == 1


def _emit_lattice(lat) -> str:
    """Canonical text of a lattice document: elements in order, covers
    sorted by element index."""
    idx = {e: i for i, e in enumerate(lat.elements)}
    covers = sorted(lat.covers(), key=lambda p: (idx[p[0]], idx[p[1]]))
    doc = {"elements": list(lat.elements), "covers": [list(p) for p in covers]}
    return json.dumps(doc, indent=2) + "\n"


class TestDeterminism:
    def test_byte_identical_round_trip(self, run):
        for name in ["u24.json", "mk4.json", "p2.json", "nested_ifif.json"]:
            text = (FX / name).read_text()
            assert io.emit_matroid(io.parse_matroid(FX / name)) == text

    def test_lattice_round_trip(self):
        text = (FX / "lattice_b2.json").read_text()
        assert _emit_lattice(io.parse_lattice(FX / "lattice_b2.json")) == text

    def test_repeated_runs_identical(self, run):
        outs = {run("tutte", FX / "mk4.json")[1] for _ in range(3)}
        assert len(outs) == 1


MALFORMED = [
    ("validate", {"ground": ["a"], "cyclic_flats": 5}),
    ("validate", {"ground": ["a", "b"],
                  "cyclic_flats": [{"set": "ab", "rank": 0}]}),
    ("validate", {"ground": ["a", "b"],
                  "cyclic_flats": [{"set": ["a", "a", "b"], "rank": 0}]}),
    ("validate", {"ground": ["a", "b"],
                  "cyclic_flats": [{"set": ["a", 1], "rank": 0}]}),
    ("realize", {"elements": ["a", "b"], "covers": {"a": "b"}}),
    ("realize", {"elements": ["a", "b"], "covers": [["a", ["b"]]]}),
    # raw text: deeper than the JSON decoder's recursion limit
    pytest.param("validate", "[" * 100_000 + "]" * 100_000,
                 id="validate-deep-nesting"),
]


class TestMalformedDocuments:
    @pytest.mark.parametrize("command,doc", MALFORMED)
    def test_exit_2_with_one_line(self, run, tmp_path, command, doc):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(command, path)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


PARSE_ERRORS = [
    ("validate", {"ground": "ab", "cyclic_flats": []},
     "'ground' must be an array of strings"),
    ("validate", {"ground": ["a"], "cyclic_flats": [{"set": ["a"]}]},
     "cyclic_flats[0] needs fields 'set' and 'rank'"),
    ("validate", {"ground": ["a"], "cyclic_flats": [
        {"set": [], "rank": 0}, {"set": ["a"], "rank": "1"}]},
     "cyclic_flats[1].rank must be an integer"),
    ("realize", {"elements": ["a", 1], "covers": []},
     "'elements' must be an array of strings"),
    ("validate", '{"ground": ["a"],\n "cyclic_flats": [}',
     "{path}: line 2: Expecting value"),
]


class TestParseErrorMessages:
    @pytest.mark.parametrize("command,doc,message", PARSE_ERRORS)
    def test_message(self, run, tmp_path, command, doc, message):
        path = tmp_path / "bad.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(command, path)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"


LONG_INTEGER = "9" * 5000  # past int's default limit of 4,300 digits


class TestLongInteger:
    """An integer too long for int() is a parse error that names the
    file, not a bare ValueError."""

    MATROID = '{"ground": [], "cyclic_flats": [{"set": [], "rank": %s}]}'
    LATTICE = '{"elements": [%s], "covers": []}'

    @pytest.mark.parametrize("parse,doc", [("parse_matroid", MATROID),
                                           ("parse_lattice", LATTICE)],
                             ids=["matroid", "lattice"])
    def test_library(self, tmp_path, parse, doc):
        path = tmp_path / "long.json"
        path.write_text(doc % LONG_INTEGER)
        with pytest.raises(cf.ParseError, match=f"^{re.escape(str(path))}: "):
            getattr(io, parse)(path)

    @pytest.mark.parametrize("command,doc", [("validate", MATROID),
                                             ("realize", LATTICE)],
                             ids=["validate", "realize"])
    def test_cli(self, run, tmp_path, command, doc):
        path = tmp_path / "long.json"
        path.write_text(doc % LONG_INTEGER)
        code, out, err = run(command, path)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


# -- property: main() keeps the 0/1/2 exit-code contract --------------------

LABELS = ["a", "b", "c", "d", "e"]
FIELDS = ["ground", "cyclic_flats", "set", "rank", "elements", "covers"]

any_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 5),
              st.sampled_from(LABELS)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.sampled_from(FIELDS), inner,
                                            max_size=4)),
    max_leaves=12)


def _matroid_docs(ground):
    return st.fixed_dictionaries({
        "ground": st.just(ground),
        "cyclic_flats": st.lists(
            st.fixed_dictionaries({
                "set": st.lists(st.sampled_from(ground), unique=True),
                "rank": st.integers(-1, 4)}),
            min_size=1, max_size=5)})


def _lattice_docs(elements):
    return st.fixed_dictionaries({
        "elements": st.just(elements),
        "covers": st.lists(st.lists(st.sampled_from(elements),
                                    min_size=2, max_size=2), max_size=6)})


some_labels = st.lists(st.sampled_from(LABELS), unique=True, min_size=1,
                       max_size=5)
valid_matroid_docs = st.one_of(
    st.builds(lambda seq: io.matroid_to_doc(cf.nested_from_sequence(seq)),
              st.text("if", max_size=6)),
    st.builds(lambda seed: io.matroid_to_doc(
        cf.random_matroid(random.Random(seed), 6)), st.integers(0, 10**6)))
documents = st.one_of(some_labels.flatmap(_matroid_docs), valid_matroid_docs,
                      some_labels.flatmap(_lattice_docs), any_json)

FILES = [str(FX / name) for name in (
    "u24.json", "mk4.json", "p2.json", "nested_ifif.json", "invalid_z2.json",
    "bad_schema.json", "lattice_b2.json", "missing.json")]
OPTIONS = [
    *GEN_PARAMS, "mk4", "--set", "--contract", "--delete", "--flat", "--k",
    "--method", "brute", "convolution", "--sublattice", "12", "12,13", "e1",
    "a1,b1", "0", "1", "2", "3", "-1", "x", "2,1", "if"]
argvs = st.builds(lambda command, files, rest: [command] + files + rest,
                  st.sampled_from(list(cli.COMMANDS)),
                  st.lists(st.sampled_from(FILES), min_size=1, max_size=2),
                  st.lists(st.sampled_from(OPTIONS), max_size=2))


def exit_code(argv):
    """main(argv) with its output captured; argparse's SystemExit counts
    as its exit code.  Checks the message that goes with exit 2."""
    out, err = textio.StringIO(), textio.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), argv
    return code


@pytest.fixture(scope="class")
def docs_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("docs")


def write_doc(directory, name, doc):
    path = directory / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestMainNeverRaises:
    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(command=st.sampled_from(["validate", "stats", "dual", "width",
                                    "realize"]),
           doc=documents)
    def test_one_document(self, docs_dir, command, doc):
        exit_code([command, write_doc(docs_dir, "doc.json", doc)])

    @settings(max_examples=60, deadline=None, derandomize=True,
              database=None)
    @given(left=st.one_of(valid_matroid_docs, documents),
           right=st.one_of(valid_matroid_docs, documents))
    def test_iso(self, docs_dir, left, right):
        exit_code(["iso", write_doc(docs_dir, "left.json", left),
                   write_doc(docs_dir, "right.json", right)])

    @settings(max_examples=150, deadline=None, derandomize=True,
              database=None)
    @given(argv=argvs)
    def test_argv(self, argv):
        exit_code(argv)
