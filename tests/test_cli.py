"""End-to-end tests: every subcommand against committed fixture files,
and a property test of the 0/1/2 exit-code contract."""

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
from cycflats import io
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

    def test_stats(self, run):
        code, out, _ = run("stats", FX / "nested_ifif.json")
        doc = json.loads(out)
        assert code == 0
        assert doc == {"rank": 2, "nullity": 2, "loops": [],
                       "isthmuses": [], "n_cyclic_flats": 3}


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


def test_table_free_commands_do_not_import_numpy():
    script = (
        "import sys\n"
        "import cycflats\n"
        "assert 'numpy' not in sys.modules, 'import cycflats'\n"
        "from cycflats import cli\n"
        f"assert cli.main(['validate', {str(FX / 'mk4.json')!r}]) == 0\n"
        "assert 'numpy' not in sys.modules, 'validate'\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


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

COMMANDS = [
    "validate", "rank", "independent", "circuits", "cyclic-flats", "stats",
    "dual", "minor", "relax", "directsum", "freeprod", "truncate", "lift",
    "tutte", "width", "nested", "minor-test", "iso", "realize", "ingleton",
    "bitransversal", "chain-minor", "gen"]
FILES = [str(FX / name) for name in (
    "u24.json", "mk4.json", "p2.json", "nested_ifif.json", "invalid_z2.json",
    "bad_schema.json", "lattice_b2.json", "missing.json")]
OPTIONS = [
    *GEN_PARAMS, "mk4", "--set", "--contract", "--delete", "--flat", "--k",
    "--method", "brute", "convolution", "--sublattice", "12", "12,13", "e1",
    "a1,b1", "0", "1", "2", "3", "-1", "x", "2,1", "if"]
argvs = st.builds(lambda command, files, rest: [command] + files + rest,
                  st.sampled_from(COMMANDS),
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
