"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_reference_covers_the_spec():
    assert WORKLOADS == list(run.REFERENCE["workloads"])
    assert list(run.REFERENCE["predictions"]) == [
        m["name"] for m in SPEC["per_layer"]
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace, capsys):
    code = run.main(["--workload", workload, "--seed", "5", "--seconds",
                     "0.2", "--trace", str(trace), "--scale", "tiny"])
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    if workload != "exact_search":
        assert result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def bump_first_shared_color(work):
    path = work / "out" / "max_coloring.json"
    data = json.loads(path.read_text())
    entry = next(e for e in data["assignments"] if e["vertex"][0] == "shared")
    entry["color"] = entry["color"] % data["palette"] + 1
    path.write_text(json.dumps(data))


def add_byte(work):
    path = work / "out" / "roundtrip.json"
    path.write_bytes(path.read_bytes() + b" ")


def claim_colorable(work):
    path = work / "result.json"
    result = json.loads(path.read_text())
    for rec in result["pass"]["ops"]:
        if rec["op"] == "k_palette":
            rec["status"] = "colorable"
    path.write_text(json.dumps(result))


def truncate_coloring(work):
    path = work / "out" / "half_coloring.json"
    path.write_bytes(path.read_bytes()[:100])


def drop_instance(work):
    path = work / "out" / "sweep.json"
    data = json.loads(path.read_text())
    data["instances"] -= 1
    data["colorable"] -= 1
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("workload, corrupt", [
    ("closed_form", bump_first_shared_color),
    ("closed_form", truncate_coloring),
    ("translate", add_byte),
    ("exact_search", claim_colorable),
    ("sweep", drop_instance),
])
def test_corrupted_output_trips_the_check(workload, corrupt, tmp_path):
    size = run.REFERENCE["sizes"]["tiny"][workload]
    run.spawn(workload, "measure", tmp_path, 5, "tiny", time.monotonic() + 120)

    def passes():
        return [json.loads((tmp_path / "result.json").read_text())["pass"]]

    assert checks.evaluate(workload, tmp_path, passes(), size)[0] >= 1
    corrupt(tmp_path)
    with pytest.raises(checks.WrongAnswer):
        checks.evaluate(workload, tmp_path, passes(), size)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_wrong_answer_exits_1(monkeypatch, capsys):
    def wrong(*args):
        raise checks.WrongAnswer("planted")

    monkeypatch.setattr(checks, "evaluate", wrong)
    assert run.main(["--workload", "all", "--seconds", "0.2",
                     "--scale", "tiny"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["correct"] is False
    assert sum(line.startswith("{") for line in lines) == 1
