"""The traced benchmark run (perfbench/run.py --trace 1) wraps library
functions by (module, name); a rename in cycflats must not orphan one."""

import importlib
import sys
from pathlib import Path

import cycflats as cf
import cycflats.cli  # noqa: F401  (the one submodule not bound lazily)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
FX = Path(__file__).resolve().parent / "fixtures"


def tracer_namespace():
    """The tracer's source, executed without importing it as a module
    (so no bytecode is written next to it)."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace


def tracer_lists():
    namespace = tracer_namespace()
    return namespace["SPANNED"], namespace["COUNTED"]


def test_every_traced_name_resolves():
    spanned, counted = tracer_lists()
    assert spanned and counted
    for mod, name in spanned + counted:
        obj = importlib.import_module(f"cycflats.{mod}")
        for attr in name.split("."):
            assert hasattr(obj, attr), f"cycflats.{mod}.{name} is gone"
            obj = getattr(obj, attr)
        assert callable(obj), f"cycflats.{mod}.{name}"


def test_lattice_reads_of_the_workloads_resolve():
    """perfbench/checks.py and perfbench/w_cli.py read lat.elements,
    lat.down, lat.covers() and len(lat) from all_lattices(5)."""
    for lat in cf.all_lattices(5):
        k = len(lat)
        assert len(lat.elements) == len(lat.down) == k
        assert all(isinstance(d, int) and (d >> i) & 1
                   for i, d in enumerate(lat.down))
        assert all(lo in lat.elements and hi in lat.elements
                   for lo, hi in lat.covers())


def test_installed_hooks_count_and_uninstall_restores():
    """The hooks read matroid.AxiomViolation and Matroid._table; a traced
    run of catalog("mk4") and its rank table counts one validate call
    and 2^6 table entries, and uninstall puts every binding back."""
    tracer = tracer_namespace()["Tracer"]()
    modules = {name: dict(vars(mod)) for name, mod in sys.modules.items()
               if name == "cycflats" or name.startswith("cycflats.")}
    methods = dict(vars(cf.Matroid))
    tracer.install()
    try:
        cf.catalog("mk4").rank_table()
    finally:
        tracer.uninstall()
    assert tracer.calls["matroid.validate"] == 1
    assert tracer.calls["matroid.Matroid.rank_table"] == 1
    assert tracer.extra["matroid.Matroid.rank_table.entries"] == 64
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[attr] is value for attr, value in before.items()), \
            name
    assert all(vars(cf.Matroid)[attr] is value
               for attr, value in methods.items())


def test_traced_cli_validate_counts(capsys):
    """cli reads matroid.validate when the command runs, and io calls
    doc_to_ranked_family through its own module: a traced `validate` of
    mk4 counts one call of each."""
    tracer = tracer_namespace()["Tracer"]()
    tracer.install()
    try:
        code = cycflats.cli.main(["validate", str(FX / "mk4.json")])
    finally:
        tracer.uninstall()
    assert (code, capsys.readouterr().out) == (0, "valid, rank 3\n")
    assert tracer.calls["cli.main"] == 1
    assert tracer.calls["matroid.validate"] == 1
    assert tracer.calls["io.doc_to_ranked_family"] == 1
