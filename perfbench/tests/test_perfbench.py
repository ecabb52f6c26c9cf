"""The benchmark's own tests: determinism, output checks, trace layout.

Short runs (``seconds=0``: one deck round, over a 1,000-object
population) of each workload.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import deck as decks
from perfbench import hostspeed
from perfbench.run import END_TO_END, ROOT, run_benchmark
from perfbench.tracing import PER_LAYER
from perfbench.workloads import WORKLOADS, Measurements
from repro.xsql.session import Session


def short_run(name, seed, trace=False):
    return run_benchmark(name, seed, 0, trace=trace, n_objects=1000)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def pair(request):
    name = request.param
    return name, short_run(name, 3), short_run(name, 3)


def test_same_seed_same_deck_rows_and_bytes(pair):
    name, first, second = pair
    a, b = first["details"], second["details"]
    assert a["deck"] == b["deck"]
    assert a["rows"] == b["rows"]
    assert a["ops"] == b["ops"] > 0
    assert (
        first["result"]["metrics"]["bytes_per_object"]["value"]
        == second["result"]["metrics"]["bytes_per_object"]["value"]
    )


def test_outputs_pass_the_mirror(pair):
    name, first, _ = pair
    result = first["result"]
    assert first["details"]["errors"] == []
    assert first["details"]["checks"] == []
    assert result["correct"] and result["failed"] == 0
    assert [*result["metrics"]] == [n for n, _ in END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_second_seed_passes_every_check(name):
    outcome = short_run(name, 4)
    assert outcome["details"]["errors"] == []
    assert outcome["result"]["correct"]
    assert outcome["details"]["deck"] != short_run(name, 3)["details"]["deck"]


def test_a_raising_op_is_counted_and_reported(monkeypatch):
    real_open = Session.open.__func__

    def failing_open(cls, path, *args, **kwargs):
        if Path(path).name == "reopen":  # the measured store, not the copy
            raise OSError("injected open failure")
        return real_open(cls, path, *args, **kwargs)

    monkeypatch.setattr(Session, "open", classmethod(failing_open))
    outcome = short_run("reopen", 3)
    result = json.loads(json.dumps(outcome["result"]))
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= 1
    assert [*result["metrics"]] == [n for n, _ in END_TO_END]
    assert "injected open failure" in outcome["details"]["errors"][0]


def test_times_are_scaled_to_the_reference_speed(monkeypatch):
    # A host at half the reference speed: every piece takes twice as long.
    slow = 2 * hostspeed.REFERENCE_PIECE_S
    monkeypatch.setattr(hostspeed, "piece", lambda: slow)
    factor = hostspeed.factor()
    assert factor == 0.5
    meas = Measurements()
    meas.sample("write", 0.004)
    meas.spend(0.010)
    assert meas.latency["write"] == [] and meas.busy == 0
    meas.commit(factor)
    assert meas.latency["write"] == [0.002] and meas.busy == 0.005


def test_decks_depend_only_on_the_seed():
    counts = WORKLOADS["cold-adhoc"](7, ROOT, 1000).counts
    one = decks.oltp_deck(7, counts, 3)
    assert one == decks.oltp_deck(7, counts, 3)
    assert one != decks.oltp_deck(8, counts, 3)
    for round_ in one[1]:
        kinds = [op.kind for op in round_]
        assert kinds.count("read") == 70
        assert kinds.count("write") == decks.WRITES_PER_ROUND
        assert kinds.count("pinned") == decks.PINNED_PER_ROUND
        assert kinds[-1] == "checkpoint"


@pytest.fixture(scope="module")
def traces():
    return {name: short_run(name, 3, trace=True) for name in WORKLOADS}


def test_trace_emits_every_layer_metric(traces):
    for outcome in traces.values():
        assert outcome["result"]["correct"]
        metrics = outcome["result"]["metrics"]
        assert [*metrics] == [n for n, _ in PER_LAYER]


def test_layer_split(traces):
    def value(name, metric):
        return traces[name]["result"]["metrics"][metric]["value"]

    assert value("cold-adhoc", "pipeline.cache_hit_ratio") < 0.1
    assert value("mixed-oltp", "pipeline.cache_hit_ratio") > 0.9
    for name in ("cold-adhoc", "mixed-oltp"):
        assert value(name, "codec.decode_store_ms") == 0
        assert value(name, "wal.recovery_ms") == 0
    assert value("reopen", "codec.decode_store_ms") > 0
    assert value("reopen", "wal.replayed_records") == decks.TAIL_WRITES
    for metric, _ in PER_LAYER:
        if metric.startswith("views.") or metric == "wal.apply_ms":
            assert value("cold-adhoc", metric) == 0
    assert value("mixed-oltp", "views.delta.targeted") > 0
    assert value("mixed-oltp", "versions.pins_max") == 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reopen",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
