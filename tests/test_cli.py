import argparse
import functools
import json
import os
import signal
import subprocess
import sys
import time

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from stablekneser import charclasses, cli, complexes, geometry, graphs

SCHEMA_DIR = os.path.join(os.path.dirname(cli.__file__), "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as fh:
        return json.load(fh)


def run_cli(argv):
    text, status = cli.run(cli.config_from_args(cli.build_parser().parse_args(argv)))
    return text, status


def test_cmd_graph_report():
    text, status = run_cli(["graph", "--n", "2", "--k", "2",
                            "--chromatic", "--critical", "--aut"])
    doc = json.loads(text)
    assert status == 0
    assert doc["chi"] == 4 and doc["critical"] is True and doc["aut_order"] == 12
    jsonschema.validate(doc, load_schema("graph_report.schema.json"))


def test_cmd_graph_k3_chromatic_only():
    text, status = run_cli(["graph", "--n", "1", "--k", "3", "--chromatic"])
    doc = json.loads(text)
    assert doc["chi"] == 5
    assert "critical" not in doc and "aut_order" not in doc
    jsonschema.validate(doc, load_schema("graph_report.schema.json"))



def test_cmd_graph_critical_without_chromatic():
    text, status = run_cli(["graph", "--n", "4", "--k", "2", "--critical"])
    doc = json.loads(text)
    assert status == 0 and doc["critical"] is True
    assert "chi" not in doc and "chi_witness" not in doc


def test_cmd_graph_chromatic_critical_output_pinned():
    text, status = run_cli(["graph", "--n", "3", "--k", "2", "--chromatic", "--critical"])
    assert status == 0
    assert text == (
        '{"chi": 4, "chi_witness": [0, 0, 0, 1, 0, 0, 1, 1, 1, 2, 2, 1, 0, 2, 3, 1], '
        '"command": "graph", "critical": true, "edge_count": 36, "k": 2, "m": 8, '
        '"n": 3, "vertex_count": 16}\n')

def test_cmd_graph_critical_runs_no_colouring_search_past_the_refutation(monkeypatch):
    # on SG_{5,2} the refutation of 3 colours certifies every dihedral orbit,
    # so --critical, with or without --chromatic, makes the same calls as
    # --chromatic alone
    search, calls = graphs._k_colouring, []

    def counted(adj, mask, kcol, *leaf_and_above):
        calls.append((mask, kcol))
        return search(adj, mask, kcol, *leaf_and_above)

    monkeypatch.setattr(graphs, "_k_colouring", counted)
    argv = ["graph", "--n", "5", "--k", "2"]
    runs = []
    for flags in (["--chromatic"], ["--chromatic", "--critical"], ["--critical"]):
        calls.clear()
        text, status = run_cli(argv + flags)
        assert status == 0 and json.loads(text).get("critical", True) is True
        runs.append(list(calls))
    assert runs[0][0] == ((1 << 36) - 1, 3) and len(runs[0]) > 1   # refuting chi - 1
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_cmd_graph_21():
    text, _ = run_cli(["graph", "--n", "2", "--k", "1", "--chromatic", "--aut"])
    doc = json.loads(text)
    assert doc["chi"] == 3 and doc["aut_order"] == 10


def test_cmd_homology():
    for n, k, betti in [(2, 1, [1, 1]), (1, 1, [1, 1]), (2, 2, [1, 0, 1]),
                        (2, 3, [1, 0, 0, 1])]:
        text, status = run_cli(["homology", "--n", str(n), "--k", str(k)])
        doc = json.loads(text)
        assert status == 0
        assert doc["hom_betti"] == betti
        assert doc["matches_sphere"] is True
        jsonschema.validate(doc, load_schema("homology_report.schema.json"))


def test_cmd_matroid():
    text, status = run_cli(["matroid", "--m", "3", "--k", "1",
                            "--samples", "2000"])
    doc = json.loads(text)
    assert status == 0
    assert doc["covectors"] == 12 and doc["cocircuits"] == 6
    assert doc["realization"]["status"] == "pass"
    jsonschema.validate(doc, load_schema("matroid_report.schema.json"))


def test_cmd_matroid_interpolation_case():
    text, _ = run_cli(["matroid", "--m", "4", "--k", "3", "--samples", "2000"])
    doc = json.loads(text)
    assert doc["covectors"] == 3 ** 4 - 1


def test_cmd_classify_sweep():
    text, status = run_cli(["classify", "--k", "1", "--n-range", "1..5"])
    doc = json.loads(text)
    assert status == 0
    assert [r["n"] for r in doc["reports"]] == [1, 2, 3, 4, 5]
    assert all(r["verdict"] == "TEST_GRAPH_CERTIFIED" for r in doc["reports"])
    jsonschema.validate(doc, load_schema("classification_report.schema.json"))
    text5, _ = run_cli(["classify", "--k", "5", "--n-range", "2..4"])
    doc5 = json.loads(text5)
    assert all(r["verdict"] == "NON_TEST_FOR_LARGE_N" for r in doc5["reports"])
    jsonschema.validate(doc5, load_schema("classification_report.schema.json"))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 24), st.integers(1, 12), st.integers(1, 12),
       st.sampled_from([2, 3, 64]))
def test_classify_sweep_equals_the_per_n_analysis(k, a, b, top):
    lo, hi = min(a, b), max(a, b)
    argv = ["classify", "--k", str(k), "--n-range", "%d..%d" % (lo, hi),
            "--max-degree", str(top)]
    want = [charclasses.classify(n, k, top).to_json_dict() for n in range(lo, hi + 1)]
    text, status = run_cli(argv)
    assert status == 0 and json.loads(text)["reports"] == want
    pretty, _ = run_cli(argv + ["--pretty"])
    assert pretty == cli._pretty_lines({"command": "classify", "k": k,
                                        "max_degree": top, "reports": want})


def test_cmd_classify_k4_parity_split():
    text, _ = run_cli(["classify", "--k", "4", "--n-range", "2..5"])
    verdicts = {r["n"]: r["verdict"] for r in json.loads(text)["reports"]}
    assert verdicts[2] == verdicts[4] == "TEST_GRAPH_CERTIFIED"
    assert verdicts[3] == verdicts[5] == "TEST_GRAPH_UP_TO_DEGREE"


def test_cmd_geometry_sweep_csv():
    text, status = run_cli(["geometry", "--k", "2", "--sweep",
                            "--n-range", "2..4"])
    assert status == 0
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(cli.GEOMETRY_COLUMNS)
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "2" and first[1] == "2"
    assert float(first[2]) > 1.9


def test_cmd_geometry_single_row():
    text, status = run_cli(["geometry", "--n", "2", "--k", "1"])
    assert status == 0
    assert len(text.strip().split("\n")) == 2


def test_geometry_csv_reproducible():
    argv = ["geometry", "--k", "2", "--sweep", "--n-range", "2..6"]
    assert run_cli(argv) == run_cli(argv)


def test_out_flag(tmp_path):
    out = tmp_path / "report.json"
    status = cli.main(["graph", "--n", "1", "--k", "1", "--chromatic",
                       "--out", str(out)])
    assert status == 0
    assert json.loads(out.read_text())["chi"] == 3


def test_out_to_a_missing_directory_is_refused_before_the_work(tmp_path, capsys,
                                                              monkeypatch):
    monkeypatch.setattr(cli, "run", lambda cfg: pytest.fail("ran before opening --out"))
    out = tmp_path / "missing" / "x.json"
    assert cli.main(["graph", "--n", "2", "--k", "1", "--out", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("stablekneser: error: ") and err.count("\n") == 1
    assert str(out) in err and not out.exists()


@pytest.mark.parametrize("argv", [["classify", "--k", "1"],
                                  ["geometry", "--n", "2", "--k", "2", "--pretty"]])
def test_refused_input_leaves_the_out_file_as_it_was(tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    out.write_bytes(b"keep me\n")
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("stablekneser: error: ")
    assert out.read_bytes() == b"keep me\n"


@pytest.mark.parametrize("argv", [["classify", "--k", "1"],
                                  ["geometry", "--n", "2", "--k", "2", "--pretty"]])
def test_refused_input_removes_the_out_file_it_created(tmp_path, capsys, argv):
    out = tmp_path / "new.csv"
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("stablekneser: error: ")
    assert not out.exists()


@pytest.mark.parametrize("existed", [False, True])
def test_interrupted_run_removes_only_the_out_file_it_created(tmp_path, monkeypatch,
                                                               existed):
    def interrupt(cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run", interrupt)
    out = tmp_path / "x.json"
    if existed:
        out.write_bytes(b"keep me\n")
    with pytest.raises(KeyboardInterrupt):
        cli.main(["graph", "--n", "2", "--k", "1", "--out", str(out)])
    if existed:
        assert out.read_bytes() == b"keep me\n"
    else:
        assert not out.exists()


def _child_env():
    """The environment a child needs to import the package this process imported."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def _stop_runs_and_check_out_files(tmp_path, sig):
    # SG_{3,5} refutes chi - 1 colours for far longer than this test waits
    argv = [sys.executable, "-m", "stablekneser", "graph", "--n", "3", "--k", "5",
            "--chromatic", "--out"]
    new = tmp_path / "new.json"
    launched = time.monotonic()
    proc = subprocess.Popen(argv + [str(new)], env=_child_env())
    try:
        while not new.exists() and proc.poll() is None and time.monotonic() < launched + 60:
            time.sleep(0.02)
        assert new.exists(), "the run never opened its --out file"
        ready = time.monotonic() - launched
        proc.send_signal(sig)
        assert proc.wait(timeout=60) == 128 + sig
    finally:
        proc.kill()
    assert not new.exists()

    # an existing file gives no sign that the run is under way: wait twice
    # as long as the first run took to open its file
    old = tmp_path / "old.json"
    old.write_bytes(b"keep me\n")
    proc = subprocess.Popen(argv + [str(old)], env=_child_env())
    try:
        time.sleep(2 * ready)
        proc.send_signal(sig)
        proc.wait(timeout=60)
    finally:
        proc.kill()
    assert old.read_bytes() == b"keep me\n"


def test_terminated_run_removes_only_the_out_file_it_created(tmp_path):
    _stop_runs_and_check_out_files(tmp_path, signal.SIGTERM)


@pytest.mark.skipif(not hasattr(signal, "SIGHUP"), reason="the platform has no SIGHUP")
def test_hung_up_run_removes_only_the_out_file_it_created(tmp_path):
    _stop_runs_and_check_out_files(tmp_path, signal.SIGHUP)


def test_out_file_is_replaced_by_the_full_report(tmp_path, capsys):
    out = tmp_path / "x.csv"
    out.write_bytes(b"an older and longer report than the new one\n" * 100)
    argv = ["geometry", "--n", "2", "--k", "2"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert cli.main(argv) == 0
    assert out.read_text() == capsys.readouterr().out


def test_pretty_classify():
    text, _ = run_cli(["classify", "--k", "1", "--n", "3", "--pretty"])
    assert "TEST_GRAPH_CERTIFIED" in text


def test_console_entrypoint():
    # the child finds the package where this process found it, installed or not
    proc = subprocess.run(
        [sys.executable, "-m", "stablekneser", "matroid", "--m", "3", "--k", "1",
         "--samples", "500"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["covectors"] == 12


def test_classify_requires_range():
    with pytest.raises(ValueError, match="classify"):
        run_cli(["classify", "--k", "1"])


@pytest.mark.parametrize("argv, names", [
    (["classify", "--k", "3", "--n", "0"], "(n, k) = (0, 3)"),
    (["classify", "--k", "3", "--n", "2", "--max-degree", "-1"], "(n, k) = (2, 3)"),
    (["graph", "--n", "3", "--k", "3", "--aut"], "30 vertices"),
    (["homology", "--n", "0", "--k", "1"], "(n, k) = (0, 1)"),
    (["classify", "--k", "1"], "classify needs"),
    (["geometry", "--k", "2"], "geometry needs"),
    (["geometry", "--k", "2", "--sweep"], "geometry needs"),
    (["matroid", "--m", "5", "--k", "2", "--samples", "-1"], "(m, k) = (5, 2)"),
    (["matroid", "--m", "3", "--k", "5"], "(m, k) = (3, 5)"),
    (["homology", "--n", "1", "--k", "-1"], "(n, k) = (1, -1)"),
    (["graph", "--n", "2", "--k", "-1", "--chromatic"], "(n, k) = (2, -1)"),
    (["geometry", "--n", "0", "--k", "2"], "(n, k) = (0, 2)"),
    (["geometry", "--n", "2", "--k", "-1"], "(n, k) = (2, -1)"),
    (["geometry", "--k", "2", "--sweep", "--n-range", "0..2"], "(n, k) = (0, 2)"),
    (["geometry", "--n", "2", "--k", "2", "--n-range", "0..3"], "--n or --n-range"),
    (["classify", "--k", "2", "--n", "5", "--n-range", "1..2"], "--n or --n-range"),
    (["classify", "--n", "1", "--k", "2", "--max-degree", "1"],
     "(n, k) = (1, 2): the total class in ring ZERO_MOD_4 needs max_degree >= 2, got 1"),
    (["matroid", "--m", "5", "--k", "2", "--seed", "-1"],
     "(m, k) = (5, 2) needs seed >= 0, got -1"),
    (["geometry", "--n", "2", "--k", "2", "--pretty"], "geometry prints CSV"),
])
def test_main_refuses_bad_input_with_one_line(capsys, argv, names):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("stablekneser: error: ") and err.count("\n") == 1
    assert names in err


def test_homology_refusal_names_the_instance(capsys, monkeypatch):
    monkeypatch.setattr(complexes, "hom_cells",
                        functools.partial(complexes.hom_cells, max_cells=50))
    assert cli.main(["homology", "--n", "2", "--k", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("stablekneser: error: homology of (n, k) = (2, 2): "
                   "refusing: more than 50 cells\n")


def test_homology_past_a_million_cells_is_refused_with_one_line(capsys):
    # Hom(K_2, SG_{4,4}) has more than the default 10^6 cells
    assert cli.main(["homology", "--n", "4", "--k", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("stablekneser: error: homology of (n, k) = (4, 4): "
                   "refusing: more than 1000000 cells\n")


@pytest.mark.parametrize("argv, extra", [
    # the sweep is deterministic; only matroid samples
    (["geometry", "--n", "2", "--k", "2", "--seed", "5"], "--seed 5"),
    # the zero tolerance is the constant geometry.ZERO_TOL
    (["geometry", "--n", "2", "--k", "2", "--zero-tol", "0"], "--zero-tol 0"),
    (["matroid", "--m", "5", "--k", "2", "--zero-tol", "1e-9"], "--zero-tol 1e-9"),
])
def test_cli_has_no_such_option(capsys, argv, extra):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % extra in capsys.readouterr().err


@pytest.mark.parametrize("text", ["1..x", "..5", "1..", "x", "1..2..3"])
def test_bad_n_range_names_the_accepted_forms(capsys, text):
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--k", "3", "--n-range", text])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --n-range: expected LO..HI or a single N, got %r" % text in err
    assert "_parse_range" not in err


def _help_texts(parser):
    commands = next(action for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    return [parser.format_help()] + [sub.format_help() for sub in commands.choices.values()]


def test_parser_is_built_once_and_parsing_leaves_it_as_it_was(capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    helps = _help_texts(parser)

    def config(argv):
        return cli.config_from_args(parser.parse_args(argv))

    config(["matroid", "--m", "8", "--k", "4", "--samples", "5", "--pretty"])
    # nothing from the earlier parse carries over
    assert config(["matroid", "--m", "8", "--k", "4"]) == cli.RunConfig("matroid", m=8, k=4)

    good = ["graph", "--n", "2", "--k", "2", "--chromatic"]
    before = config(good)
    with pytest.raises(SystemExit) as exc:
        config(["graph", "--n", "x", "--k", "2"])
    assert exc.value.code == 2
    assert "argument --n: invalid int value: 'x'" in capsys.readouterr().err
    assert config(good) == before
    assert _help_texts(cli.build_parser()) == helps


def test_import_builds_no_parser():
    # a parser built at import would move its cost into every importer's start-up
    proc = subprocess.run(
        [sys.executable, "-c",
         "from stablekneser import cli; print(cli.build_parser.cache_info().currsize)"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_import_loads_neither_dataclasses_nor_numpy_random():
    # every CLI call pays its imports: dataclasses would exec generated
    # methods, numpy.random brings secrets, hashlib and OpenSSL (9-15 ms)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; before = set(sys.modules); "
         "import stablekneser, stablekneser.cli; "
         "print(sorted({'dataclasses', 'numpy.random'} & set(sys.modules) - before))"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_zero_tol_is_one_constant(capsys, monkeypatch):
    # the sweep's pass bound and the sign test both read geometry.ZERO_TOL
    monkeypatch.setattr(geometry, "ZERO_TOL", 1e-300)
    assert cli.main(["geometry", "--n", "2", "--k", "2"]) == 1
    assert capsys.readouterr().out.startswith("n,k,")
    config = geometry.moment_vectors(1, 0)   # m = 2 copies of the vector (1,)
    assert geometry.sign_vector_of_point([1e-200], config) == (1, 1)
