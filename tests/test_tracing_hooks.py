import os
import subprocess
import sys

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
