"""Every call site the benchmark's traced run patches must exist and be callable.

`benchmarks/workloads.py` records per-layer spans by rebinding each
(owner, attribute) pair in TRACE_SITES; a renamed or removed import breaks
`benchmarks/run.py --trace 1`.  This test reads that table and changes
nothing under `benchmarks/`.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "benchmarks"))
from workloads import TRACE_SITES  # noqa: E402


@pytest.mark.parametrize("owner, attribute, layer", TRACE_SITES, ids=[f"{o.__name__}.{a}" for o, a, _ in TRACE_SITES])
def test_trace_site_is_callable(owner, attribute, layer):
    assert callable(getattr(owner, attribute, None)), f"{layer}: {owner.__name__}.{attribute} is gone"
