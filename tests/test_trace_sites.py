"""The benchmark's traced run must find every call site and every busy layer.

`benchmarks/workloads.py` records per-layer spans by rebinding each
(owner, attribute) pair in TRACE_SITES; a renamed or removed import breaks
`benchmarks/run.py --trace 1`, and so does a layer in a workload's
`busy_layers` that records no call.  These tests read the benchmark's
tables and run its workloads; they change nothing under `benchmarks/`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from harness import Recorder, Tracer  # noqa: E402
from workloads import TRACE_SITES, WORKLOADS, traced_calls  # noqa: E402


@pytest.mark.parametrize("owner, attribute, layer", TRACE_SITES, ids=[f"{o.__name__}.{a}" for o, a, _ in TRACE_SITES])
def test_trace_site_is_callable(owner, attribute, layer):
    assert callable(getattr(owner, attribute, None)), f"{layer}: {owner.__name__}.{attribute} is gone"


# cli-replay is left out: its `prepare` runs the full `induction --n-max 50`
# through the CLI before any pass, several seconds on its own.  The CI step
# "Traced cli-replay benchmark run" (.github/workflows/tier1.yml) runs it
# traced on the Python 3.11 leg instead.
@pytest.mark.parametrize("name", ["threshold-probe", "induction-cert", "small-grid"])
def test_every_busy_layer_records_calls(tmp_path, name):
    workload = WORKLOADS[name](seed=3, workdir=tmp_path)
    rec = Recorder(Tracer())
    with traced_calls(rec.tracer):
        workload.run_pass(rec)
    assert rec.attempted and rec.failed == 0
    idle = [layer for layer in workload.busy_layers if rec.tracer.calls(layer) == 0]
    assert idle == []
