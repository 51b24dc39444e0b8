"""``compare`` bands each metric against its own bound."""

import json

from benchmarks.e2e.cli import compare

SPEC = {"end_to_end": [
    {"name": "ops_per_s", "unit": "ops/s", "better": "higher", "bound": 0.1},
    {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
]}


def _write(d, i, ops, p50, valid=True):
    d.mkdir(exist_ok=True)
    doc = {"workload": "w", "started": i, "trace": False, "smoke": False,
           "valid": valid,
           "metrics": {"ops_per_s": {"value": ops, "unit": "ops/s"},
                       "p50_ms": {"value": p50, "unit": "ms"}}}
    (d / f"r{i}.json").write_text(json.dumps(doc))


def test_within_and_beyond_bounds(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for i in range(5):
        _write(a, i, 100.0 + i, 10.0 + 0.1 * i)
        # Throughput 5% worse (inside 0.1), latency 20% worse (outside).
        _write(b, i, 95.0 + i, 12.0 + 0.1 * i)
    rows, ok = compare(SPEC, str(a), str(b))
    by = {r["metric"]: r for r in rows}
    assert not ok
    assert by["ops_per_s"]["ok"] and by["ops_per_s"]["worse"] > 0
    assert not by["p50_ms"]["ok"]
    assert by["p50_ms"]["worse"] == (12.2 - 10.2) / 10.2
    # B loses every pair on both metrics.
    assert by["ops_per_s"]["wins"] == 0 and by["ops_per_s"]["pairs"] == 5


def test_improvement_wins_pairs_and_invalid_runs_are_skipped(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for i in range(4):
        _write(a, i, 100.0, 10.0)
        _write(b, i, 120.0, 8.0)
    _write(b, 9, 1.0, 1000.0, valid=False)
    rows, ok = compare(SPEC, str(a), str(b))
    assert ok
    for r in rows:
        assert r["wins"] == r["pairs"] == 4
        assert r["worse"] < 0
        assert r["invalid"] == (0, 1)
