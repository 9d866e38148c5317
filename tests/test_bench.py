"""The layer benchmark script: every layer's input builders and timed call
still run, so a renamed helper does not break it unnoticed."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for d in ("scripts", "perfbench"):
    if str(ROOT / d) not in sys.path:
        sys.path.insert(0, str(ROOT / d))
import bench  # noqa: E402

from ocbord.dsl import parse  # noqa: E402


def test_every_layer_runs_on_every_series_at_size_4():
    for layer, (_, setup, series) in bench.LAYERS.items():
        for _, build, _ in series.values():
            text = build(4)
            setup(text if layer == "parse" else parse(text))()
