import json
import pathlib

from perfbench.layers import END_TO_END, PER_LAYER

ROOT = pathlib.Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _moves) in PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == [
        "tpcds-olap", "banking-shift", "serve-ingest",
    ]
