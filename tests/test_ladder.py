"""The ladder runner of tests/ladder.py, on tiny rungs: no timing is asserted."""

import json
import os

import pytest

from stablekneser import cli
import ladder

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
TINY_HOMOLOGY = ("tiny-homology", 60, ["homology", "--n", "1", "--k", "1"])
TINY_EQUIVARIANCE = ("tiny-equivariance", 60, [ladder.EQUIVARIANCE, "1", "1"])
FIELDS = {"rung", "argv", "exit", "wall_s", "import_s", "import_rss_mb", "peak_rss_mb"}


@pytest.fixture
def run(monkeypatch, capfd):
    """Run a rung list through ladder.run_ladder; its status, records, summary, stderr."""
    monkeypatch.setenv("PYTHONPATH", SRC)

    def go(rungs):
        status = ladder.run_ladder(rungs)
        out, err = capfd.readouterr()
        lines = [json.loads(line) for line in out.splitlines()]
        return status, lines[:-1], lines[-1], err
    return go


def test_every_rung_argv_parses():
    for *_, argv in ladder.RUNGS:
        if argv[0] != ladder.EQUIVARIANCE:
            for call in ladder.calls(argv):
                cli.build_parser().parse_args(call + ["--out", os.devnull])


def test_a_tiny_ladder_yields_one_full_record_per_rung(run):
    status, records, summary, _ = run([TINY_HOMOLOGY, TINY_EQUIVARIANCE])
    assert status == 0
    assert summary == {"python": summary["python"], "numpy": summary["numpy"],
                       "cpus": os.cpu_count(), "repeats": 1, "rungs": records}
    homology, equivariance = records
    assert homology.keys() == FIELDS and equivariance.keys() == FIELDS | {"violations"}
    for record, (name, _, argv) in zip(records, [TINY_HOMOLOGY, TINY_EQUIVARIANCE]):
        assert (record["rung"], record["argv"], record["exit"]) == (name, argv, 0)
        assert 0 < record["import_rss_mb"] <= record["peak_rss_mb"]
        assert isinstance(record["import_s"], float) and record["import_s"] > 0
    assert equivariance["violations"] == 0


@pytest.mark.parametrize("rung, failure", [
    (("refused", 60, ["graph", "--n", "3", "--k", "3", "--aut"]), "exit 2"),
    (("too-short", 0.01, TINY_HOMOLOGY[2]), "timed out after 0.01 s"),
], ids=["exit-2", "timeout"])
def test_the_ladder_stops_at_the_failing_rung_and_names_it(run, rung, failure):
    status, records, summary, err = run([TINY_HOMOLOGY, rung, TINY_EQUIVARIANCE])
    assert status == 1
    assert [record["rung"] for record in records] == [TINY_HOMOLOGY[0], rung[0]]
    assert summary["rungs"] == records
    assert "ladder: rung %s failed: %s" % (rung[0], failure) in err
