"""The top-level ``python -m repro`` command line."""

import csv
import json

import pytest

from repro.__main__ import main


class TestInfo:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "repro" in out
        assert "cm5" in out
        assert "pipeline" in out


class TestPackCommand:
    """``repro run pack``."""

    def test_default_pack(self, capsys):
        assert main(["run", "pack", "--n", "256", "--procs", "4",
                     "--block", "4"]) == 0
        out = capsys.readouterr().out
        assert "Size =" in out and "total" in out

    def test_2d_shape_and_phases(self, capsys):
        assert main([
            "run", "pack", "--shape", "16x16", "--grid", "2x2", "--block", "2",
            "--scheme", "sss", "--phases",
        ]) == 0
        out = capsys.readouterr().out
        assert "pack.ranking.initial" in out

    def test_structured_mask(self, capsys):
        assert main(["run", "pack", "--shape", "16x16", "--grid", "2x2",
                     "--block", "2", "--mask", "lt"]) == 0
        assert "Size = 120" in capsys.readouterr().out

    def test_redistribute_variant(self, capsys):
        assert main(["run", "pack", "--n", "256", "--procs", "4", "--block",
                     "cyclic", "--redistribute", "selected"]) == 0

    def test_machine_profiles(self, capsys):
        for m in ("cm5", "cluster", "ideal"):
            assert main(["run", "pack", "--n", "256", "--procs", "4",
                         "--block", "4", "--machine", m]) == 0

    def test_report_states_its_time_domain(self, capsys):
        assert main(["run", "pack", "--n", "256", "--procs", "4",
                     "--block", "4"]) == 0
        out = capsys.readouterr().out
        assert "backend=sim" in out and "simulated" in out
        assert "conservation OK" in out


class TestUnpackCommand:
    """``repro run unpack``."""

    def test_default_unpack(self, capsys):
        assert main(["run", "unpack", "--n", "256", "--procs", "4",
                     "--block", "4"]) == 0
        out = capsys.readouterr().out
        assert "UNPACK" in out and "Size =" in out

    def test_redistribute_is_pack_only(self, capsys):
        assert main(["run", "unpack", "--redistribute", "whole"]) == 2
        assert "--redistribute applies to pack only" in capsys.readouterr().err


class TestTraceCommand:
    """``repro run OP --trace-out``: the per-rank RunProfile trace."""

    def test_trace_emits_valid_chrome_json(self, capsys, tmp_path):
        out = tmp_path / "t.trace.json"
        assert main(["run", "pack", "--nprocs", "4", "--n", "256",
                     "--block", "4", "--trace-out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "ranks=4" in text and "perfetto" in text
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        from repro.obs.chrome_trace import validate_chrome_trace

        assert validate_chrome_trace(events) == len(events)
        threads = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert len(threads) == 4

    def test_trace_other_ops(self, capsys, tmp_path):
        for op in ("unpack", "ranking"):
            out = tmp_path / f"{op}.trace.json"
            assert main(["run", op, "--n", "128", "--procs", "4",
                         "--block", "4", "--trace-out", str(out)]) == 0
            assert json.loads(out.read_text())["traceEvents"]

    @pytest.mark.parametrize("op", ["pack", "unpack", "ranking"])
    def test_sim_trace_has_one_lane_per_rank(self, capsys, tmp_path, op):
        # A sim run records no gang spans, so no gang lane: P lanes only.
        out = tmp_path / "sim.trace.json"
        assert main(["run", op, "--n", "64", "--procs", "2", "--block", "4",
                     "--trace-out", str(out)]) == 0
        doc = json.loads(out.read_text())
        threads = [e for e in doc["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name"]
        assert sorted(e["tid"] for e in threads) == [0, 1]
        assert doc["otherData"]["time_domain"] == "simulated"

    def test_mp_trace_and_report(self, capsys, tmp_path):
        trace = tmp_path / "mp.trace.json"
        report = tmp_path / "mp.report.json"
        p = 2
        assert main(["run", "pack", "--backend", "mp", "-p", str(p),
                     "--n", "512", "--trace-out", str(trace),
                     "--report-out", str(report)]) == 0
        doc = json.loads(trace.read_text())
        assert doc["otherData"]["time_domain"] == "wall"
        lanes = {e["tid"] for e in doc["traceEvents"]
                 if e.get("cat") == "runtime" and e["ph"] == "X"}
        assert lanes == set(range(p))
        m = json.loads(report.read_text())["comm_matrix"]
        for r in range(p):
            assert sum(m["msgs"][r]) == m["sends_per_rank"][r]
            assert sum(m["msgs"][q][r] for q in range(p)) == m["recvs_per_rank"][r]


class TestMetricsCommand:
    """``repro run OP --metrics-out``."""

    def test_metrics_exports_json_and_report(self, capsys, tmp_path):
        mpath = tmp_path / "m.json"
        rpath = tmp_path / "r.json"
        assert main(["run", "unpack", "--n", "256", "--procs", "4",
                     "--block", "4", "--metrics-out", str(mpath),
                     "--report-out", str(rpath)]) == 0
        assert json.loads(mpath.read_text())["metrics"]["machine.sends"]["value"] > 0
        assert json.loads(rpath.read_text())["op"] == "unpack"


class TestObservabilityFlags:
    def test_pack_with_all_artifacts(self, capsys, tmp_path):
        trace = tmp_path / "p.trace.json"
        metrics = tmp_path / "p.csv"
        report = tmp_path / "p.report.json"
        assert main(["run", "pack", "--n", "256", "--procs", "4",
                     "--block", "4", "--trace-out", str(trace),
                     "--metrics-out", str(metrics),
                     "--report-out", str(report)]) == 0
        assert json.loads(trace.read_text())["traceEvents"]
        rows = list(csv.reader(metrics.read_text().splitlines()))
        assert rows[0] == ["metric", "field", "value"] and len(rows) > 5
        assert json.loads(report.read_text())["op"] == "pack"

    def test_unpack_with_metrics_out(self, capsys, tmp_path):
        out = tmp_path / "u.json"
        assert main(["run", "unpack", "--n", "256", "--procs", "4",
                     "--block", "4", "--metrics-out", str(out)]) == 0
        assert "unpack.calls" in json.loads(out.read_text())["metrics"]

    def test_plain_run_has_no_profiler_output(self, capsys):
        assert main(["run", "pack", "--n", "256", "--procs", "4",
                     "--block", "4"]) == 0
        out = capsys.readouterr().out
        assert "[trace" not in out and "[metrics" not in out


class TestRunChecks:
    """The checks every run makes: exit 1 with a ``FAIL:`` line."""

    def test_conservation_violation_exits_one(self, capsys, monkeypatch):
        from repro.obs.runtime import RunProfile

        def broken(self):
            raise ValueError("comm matrix row 0 sums to 1 messages")

        monkeypatch.setattr(RunProfile, "validate_conservation", broken)
        assert main(["run", "pack", "--n", "256", "--procs", "4",
                     "--block", "4"]) == 1
        assert "FAIL: comm matrix conservation violated" in capsys.readouterr().out

    def test_supervisor_fallback_exits_one(self, capsys, monkeypatch):
        import repro.runtime
        from repro.runtime import SimBackend
        from repro.runtime.supervisor import SupervisorStats

        class FallenBackSupervisor(SimBackend):
            """A gang that degraded to the simulator once."""

            def __init__(self, **_kwargs):
                self.stats = SupervisorStats(ops=1, fallbacks=1)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

        monkeypatch.setattr(repro.runtime, "GangSupervisor",
                            FallenBackSupervisor)
        assert main(["run", "pack", "--backend", "supervised", "--n", "256",
                     "--procs", "4", "--block", "4"]) == 1
        out = capsys.readouterr().out
        assert "fallbacks 1" in out
        assert "FAIL: supervisor degraded to the simulator" in out


class TestExperimentsDelegate:
    def test_delegates(self, capsys):
        assert main(["experiments", "sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "Sensitivity studies" in out

    def test_metrics_out_snapshots_global_registry(self, capsys, tmp_path):
        out = tmp_path / "exp.json"
        assert main(["experiments", "--metrics-out", str(out),
                     "sensitivity"]) == 0
        doc = json.loads(out.read_text())
        assert doc["metrics"]["machine.sends"]["value"] > 0
        # The global registry was torn down afterwards.
        from repro.obs import current_global_metrics

        assert current_global_metrics() is None


class TestErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_no_command(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "verb", ["pack", "unpack", "trace", "metrics", "profile", "runtime"])
    def test_one_op_verbs_are_gone(self, capsys, verb):
        # `repro run OP` replaced them; there are no aliases.
        with pytest.raises(SystemExit) as exc:
            main([verb])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestGeometryErrors:
    """Malformed --shape/--grid/--block exit 2 with one line on stderr,
    never a traceback."""

    def _expect_error(self, capsys, argv, needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert needle in captured.err
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1  # exactly one line
        assert "Traceback" not in captured.err

    def test_non_integer_block(self, capsys):
        self._expect_error(
            capsys, ["run", "pack", "--n", "64", "--procs", "4", "--block", "foo"],
            "--block expects an integer",
        )

    def test_negative_block(self, capsys):
        self._expect_error(
            capsys, ["run", "pack", "--n", "64", "--procs", "4", "--block", "0"],
            "--block must be >= 1",
        )

    def test_malformed_grid(self, capsys):
        self._expect_error(
            capsys, ["run", "pack", "--shape", "8x8", "--grid", "3xx2"],
            "--grid expects INTxINT",
        )

    def test_grid_rank_mismatch(self, capsys):
        self._expect_error(
            capsys, ["run", "pack", "--shape", "8x8", "--grid", "2x2x2"],
            "--grid rank 3 does not match --shape rank 2",
        )

    def test_malformed_shape(self, capsys):
        self._expect_error(
            capsys, ["run", "unpack", "--shape", "8xlarge", "--grid", "2"],
            "--shape expects INTxINT",
        )

    def test_nondividing_block_is_one_line(self, capsys):
        # Library-level geometry validation surfaces the same way.
        self._expect_error(
            capsys, ["run", "pack", "--n", "60", "--procs", "16", "--block", "8"],
            "P*W must divide N",
        )


class TestConformCommand:
    def test_clean_fuzz_run_exits_zero(self, capsys):
        assert main(["conform", "--cases", "10", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "10 cases, seed 2: 0 failure(s)" in out

    def test_corpus_replay(self, capsys):
        from pathlib import Path

        corpus = Path(__file__).parents[1] / "conformance" / "corpus"
        assert main(["conform", "--cases", "2", "--seed", "3",
                     "--corpus", str(corpus)]) == 0
        out = capsys.readouterr().out
        assert "0 failure(s)" in out and "corpus:" in out

    def test_failure_exits_one_with_minimized_repro(self, capsys, monkeypatch):
        import repro.core.api as api

        real_pack = api.pack

        def corrupted_pack(*args, **kwargs):
            result = real_pack(*args, **kwargs)
            if result.vector.size:
                result.vector[0] += 1
            return result

        monkeypatch.setattr(api, "pack", corrupted_pack)
        assert main(["conform", "--cases", "25", "--seed", "4",
                     "--max-shrink", "60"]) == 1
        out = capsys.readouterr().out
        assert "failure(s)" in out
        assert "repro snippet" in out and "ConformanceCase.from_dict" in out
