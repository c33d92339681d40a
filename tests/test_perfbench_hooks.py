"""Every span the benchmark traces still fires, on each workload.

`perfbench/layers.py` wraps hyql functions by name; a refactor that stops
calling one (or renames it) would otherwise surface only in a hand-run
`perfbench/run.py --trace 1`. Each workload runs here shortened to one
trial of 150 steps, then verifies, under the benchmark's own tracer, and
the benchmark's own self-check must find nothing wrong.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
from layers import VERIFY, Tracer, check_layers, layer_metrics  # noqa: E402

from hyql.cli import main  # noqa: E402


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_every_traced_span_fires(tmp_path, name):
    workload = dict(measure.load_workload(name), trials=1, steps=150)
    spec = measure.write_spec(ROOT, workload, measure.DEFAULT_SEED, tmp_path)
    out = tmp_path / "out"
    tracer = Tracer()
    tracer.install()
    try:
        assert main(["run", str(spec), "--out", str(out)]) == 0
        tracer.current_phase = VERIFY
        assert main(["verify", str(out)]) == 0
    finally:
        tracer.restore()
    metrics, calls = layer_metrics(tracer)
    assert check_layers(metrics, calls, workload) == []
