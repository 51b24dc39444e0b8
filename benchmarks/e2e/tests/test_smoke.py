"""The benchmark command end to end, with 1 s phases."""

import json
import math
import re
import shutil
import subprocess
import sys

import pytest

from benchmarks.e2e import paths, workloads
from benchmarks.e2e.cli import load_spec

RUN = [sys.executable, str(paths.PKG_DIR / "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(tmp_path, *args, cwd=None):
    proc = subprocess.run(
        RUN + ["--out", str(tmp_path)] + list(args), capture_output=True,
        text=True, timeout=170, cwd=cwd or paths.ROOT)
    return proc


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_follows_its_schema():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_run_is_correct_and_complete(tmp_path, name):
    proc = _run(tmp_path, "--workload", name, "--seed", "3", "--smoke")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    spec = load_spec()
    assert list(line["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    for m in spec["end_to_end"]:
        v = line["metrics"][m["name"]]
        assert v["unit"] == m["unit"] and v["value"] > 0
    (result,) = tmp_path.glob(f"{name}.seed3.run.*.json")
    doc = json.loads(result.read_text())
    for key in ("cpu_count", "affinity", "loadavg_start", "loadavg_end",
                "python", "numpy", "git_rev"):
        assert key in doc["host"]
    if name.startswith("serve"):
        assert all(h["clean"] for h in doc["raw"]["hygiene"])


@pytest.mark.parametrize("name", ["lib_warm", "serve_hot"])
def test_traced_smoke_run(tmp_path, name):
    proc = _run(tmp_path, "--workload", name, "--seed", "1", "--smoke",
                "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    line = _last_json(proc.stdout)
    spec = load_spec()
    assert list(line["metrics"]) == [m["name"] for m in spec["per_layer"]]
    values = {k: v["value"] for k, v in line["metrics"].items()}
    shares = [v for k, v in values.items() if k.endswith(".share")]
    assert abs(math.fsum(shares) - 1.0) <= 1e-9
    assert values["trace.overhead_pct"] > 0
    trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
    events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert events and all(e["dur"] >= 0 for e in events)
    if name == "lib_warm":
        assert values["core.plan_cache.hit_ratio"] == 1.0
    else:
        assert values["serve.protocol.decode_us_p50"] > 0
        assert not list(tmp_path.glob("*.spans.json"))


def test_fails_without_the_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(paths.PKG_DIR, bare / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(paths.BENCHMARK_JSON, bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "lib_cold",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "src" in proc.stderr
