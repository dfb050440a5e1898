"""The names the benchmark's probe traces all exist in the library.

perfbench/probe.py skips a listed function the library no longer has, and
the benchmark then reports that function's per-layer metrics absent.  This
reads the probe's LAYERS table from its source, without running or changing
it, and checks every name against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

PROBE = Path(__file__).resolve().parents[1] / "perfbench" / "probe.py"


def _layers():
    """The literal assigned to LAYERS in the probe's source, read without running it."""
    for node in ast.parse(PROBE.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {PROBE}")


LAYERS = _layers()


@pytest.mark.parametrize(
    "layer,name", [(layer, name) for layer, names in LAYERS.items() for name in names]
)
def test_traced_name_is_a_library_function(layer, name):
    module = importlib.import_module(f"colorica.{layer}")
    assert callable(getattr(module, name, None)), f"colorica.{layer}.{name} is gone"


def test_every_layer_is_listed():
    # the benchmark names a metric for each of these functions
    assert {"coloring", "dica", "ga", "graphs", "oracle", "bench", "cli"} <= set(LAYERS)
