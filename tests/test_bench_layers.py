"""The layer bench (bench/layers.py): its file's schema, and its counts
on one fixed input. No wall-clock figure is asserted; the bench records
none."""

import importlib.util
import json
from pathlib import Path

import pytest

from usdisc import serialize
from usdisc.bb84 import bit_problem

from test_cli import ROUND_TRIP_CALLS

BENCH = Path(__file__).resolve().parent.parent / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("layers", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_counts_of_one_projective_round_trip(layers, tmp_path):
    text = serialize.dumps(serialize.problem_to_obj(bit_problem(0.3)))
    result = layers.measure([("solve-certify", [text, text])], str(tmp_path))
    summary = result["solve-certify"]
    assert summary["requests"] == 2 and summary["failed"] == 0
    assert set(summary["branches"]) == {"GuProjective"}
    # the symmetric solve decomposes the states and the kernel-compressed
    # involution, takes one SVD for the regime and two Cholesky calls in
    # its gate; certify takes one stacked eigvalsh more than the solve
    assert {k: summary[k] for k in layers.EIG_FUNCTIONS + ("newton_steps",)} == {
        "eigh": 3, "eigvalsh": 2, "svd": 1, "cholesky": 2, "newton_steps": 0}
    # the same round trip as test_cli's call-budget test, past its warm-up
    assert summary["calls"] <= 1.1 * ROUND_TRIP_CALLS["projective"]
    assert summary["branches"]["GuProjective"] == {k: v for k, v in summary.items()
                                                   if k not in ("failed", "branches")}


def test_the_file_holds_every_workload_with_every_count(layers, tmp_path):
    out = tmp_path / "bench.json"
    assert layers.main(["--count", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "usdisc-layers/1"
    assert set(doc) == {"schema", "python", "numpy", "inputs", "sides"}
    assert set(doc["sides"]) == {"change"}
    workloads = doc["sides"]["change"]["workloads"]
    assert set(workloads) == set(layers.WORKLOADS)
    for name, summary in workloads.items():
        assert set(summary) == {"requests", "failed", "branches", *layers.COUNTS}, name
        assert summary["requests"] == 1 and summary["failed"] == 0, name
    assert workloads["oracle-fallback"]["newton_steps"] > 0
    assert set(workloads["bb84-sweep"]["branches"]) == {"sweep"}
