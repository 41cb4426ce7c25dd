"""BENCHMARK.json states what the benchmark code measures."""

import json
import os

from common import ROOT
from metrics import EXACT_UNITS, GATED, LAYERS, LISTED
from workloads import WORKLOADS


def load():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_metrics_and_workloads_match_the_code():
    doc = load()
    assert doc["command"] == ["python3", "perfbench/run.py"]
    assert doc["paths"] == ["perfbench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in GATED
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in LISTED
    ]


def test_gated_metrics_are_defined_on_every_workload():
    assert all(m.where == "all" for m in GATED)
    assert "setup_s" in [m.name for m in GATED]
    assert all(0 < m.bound <= 0.25 for m in GATED)


def test_units_mark_which_per_layer_metrics_are_exact_counts():
    for layer in LAYERS:
        assert (layer.unit in EXACT_UNITS) == layer.exact, layer.name


def test_only_timings_are_left_unlisted():
    assert all(not m.exact and m.unit not in EXACT_UNITS for m in LAYERS if not m.listed)
