import os
import subprocess
import sys

from stablekneser.complexes import hom_cells, neighbourhood_complex
from stablekneser.graphs import k2, stable_kneser_graph

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runs in a fresh interpreter: installing the tracer replaces package
# functions for the rest of the process.
INSTALL = ("import sys; sys.path[:0] = ['src', 'perfbench']; import stablekneser; "
           "from tracing import HOOKS, Tracer; Tracer().install(stablekneser); "
           "print(len(HOOKS))")


def test_benchmark_tracer_finds_every_hooked_name():
    """Renaming or deleting a function the traced benchmark wraps fails here."""
    done = subprocess.run([sys.executable, "-c", INSTALL], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


# Runs homology --n 2 --k 2 under the tracer; the last line is the
# boundary_rank hook's column count.
TRACED_HOMOLOGY = ("import sys; sys.path[:0] = ['src', 'perfbench']; import stablekneser; "
                   "from stablekneser import cli; from tracing import Tracer; "
                   "t = Tracer(); t.install(stablekneser); "
                   "cli.main(['homology', '--n', '2', '--k', '2']); "
                   "print(t.counters['complexes.boundary_cols_max'])")


def test_boundary_cols_max_is_the_largest_count_of_faces_one_dimension_down():
    """The boundary_rank hook reads its second argument as the list of (d-1)-cells."""
    g = stable_kneser_graph(2, 2)
    expected = max(len(cells[d - 1])
                   for cells in (hom_cells(k2(), g), neighbourhood_complex(g).all_faces())
                   for d in cells if d)
    done = subprocess.run([sys.executable, "-c", TRACED_HOMOLOGY], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert float(done.stdout.splitlines()[-1]) == expected


# Runs graph --n 5 --k 2 --chromatic --critical under the tracer; the last
# line lists the span names recorded.
TRACED_GRAPH = ("import sys; sys.path[:0] = ['src', 'perfbench']; import stablekneser; "
                "from stablekneser import cli; from tracing import Tracer; "
                "t = Tracer(); t.install(stablekneser); "
                "cli.main(['graph', '--n', '5', '--k', '2', '--chromatic', '--critical']); "
                "print(*sorted(t.reduce()['spans']))")


def test_graph_chromatic_critical_goes_through_the_hooked_graph_names():
    """The CLI reaches the chromatic number and the criticality check by their hooked names."""
    done = subprocess.run([sys.executable, "-c", TRACED_GRAPH], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {"graphs.chromatic", "graphs.criticality"} <= set(done.stdout.splitlines()[-1].split())
