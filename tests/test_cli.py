"""CLI tests."""

import threading

import pytest

from repro.cli import EXPERIMENTS, SUBCOMMANDS, main

TIMEOUT_RANGE = (
    "default_timeout_s must be a positive number of seconds, at most "
    f"{threading.TIMEOUT_MAX:g}"
)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        # One line per subcommand, named first.
        listed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert set(SUBCOMMANDS) <= listed

    def test_unknown_experiment(self, capsys):
        assert main(["fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_fig18_subset(self, capsys):
        assert main(["fig18", "--subset", "ski"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 18" in out
        assert "completed in" in out

    def test_run_fig04_subset_with_seed(self, capsys):
        assert main(["fig04", "--subset", "pap", "--seed", "3"]) == 0
        assert "Fig. 4" in capsys.readouterr().out

    def test_fig05_single_matrix(self, capsys):
        assert main(["fig05", "--subset", "pap"]) == 0
        assert "Fig. 5" in capsys.readouterr().out

    def test_all_experiments_registered(self):
        assert {"fig04", "fig10", "fig16", "table09", "fig17", "fig18"} <= set(EXPERIMENTS)

    def test_csv_export(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["fig18", "--subset", "ski", "--csv", str(out)]) == 0
        assert out.exists()
        assert len(out.read_text().splitlines()) == 2


class TestExecutorFlags:
    def test_cache_dir_reused_across_runs(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = ["fig04", "--subset", "pap", "--cache-dir", cache_dir]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "executor:" in cold
        assert "0 hit" in cold
        # Second invocation serves every cell from the on-disk cache.
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "100% hit rate" in warm
        assert "0 miss" in warm

    def test_no_cache_disables_reuse(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "fig04", "--subset", "pap", "--cache-dir", cache_dir, "--no-cache"
        ]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0 hit" in out
        assert not (tmp_path / "cache").exists()

    def test_sweep_accepts_executor_flags(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        args = [
            "sweep", "gea", "--kind", "k", "--points", "8",
            "--cache-dir", cache_dir,
        ]
        assert main(args) == 0
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "100% hit rate" in out


class TestPartitionCommand:
    @staticmethod
    def _write_matrix(tmp_path):
        from repro.sparse import generators
        from repro.sparse.mmio import write_matrix_market

        path = tmp_path / "m.mtx"
        write_matrix_market(
            generators.community_blocks(512, 8_000, 8, seed=2), path
        )
        return str(path)

    def test_partition_basic(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path)
        assert main(["partition", path]) == 0
        out = capsys.readouterr().out
        assert "partitioned" in out
        assert "heuristic" in out

    def test_partition_verify(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path)
        assert main(["partition", path, "--verify"]) == 0
        assert "verification" in capsys.readouterr().out

    def test_partition_save_formats(self, capsys, tmp_path):
        import numpy as np

        path = self._write_matrix(tmp_path)
        out_dir = tmp_path / "formats"
        assert main(["partition", path, "--save-dir", str(out_dir)]) == 0
        files = list(out_dir.glob("*.npz"))
        assert files
        loaded = np.load(files[0])
        assert len(loaded.files) > 0

    def test_save_dir_writes_the_plan_store_layout(self, capsys, tmp_path):
        from repro.arch.configs import spade_sextans
        from repro.pipeline.preprocess import HotTilesPreprocessor
        from repro.service.store import PlanStore
        from repro.sparse.mmio import read_matrix_market

        path = self._write_matrix(tmp_path)
        out_dir = tmp_path / "formats"
        assert main(["partition", path, "--save-dir", str(out_dir)]) == 0
        pre = HotTilesPreprocessor(spade_sextans(4)).run(read_matrix_market(path))
        store = PlanStore(tmp_path / "plans")
        digest = "ab" * 32
        store.save_artifacts(digest, pre)
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == sorted(p.name for p in (store.artifacts_dir / digest).iterdir())
        assert "assignment.npz" in names and len(names) == 3  # hot, cold, assignment

    def test_partition_piuma(self, capsys, tmp_path):
        path = self._write_matrix(tmp_path)
        assert main(["partition", path, "--arch", "piuma"]) == 0
        assert "piuma" in capsys.readouterr().out


class TestSweepCommand:
    def test_sweep_benchmark_matrix(self, capsys):
        assert main(["sweep", "gea", "--kind", "k", "--points", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "Sweep over K" in out
        assert "best strategy per point" in out

    def test_sweep_mtx_file(self, capsys, tmp_path):
        path = TestPartitionCommand._write_matrix(tmp_path)
        assert main(["sweep", path, "--kind", "bandwidth", "--points", "1", "2"]) == 0
        assert "bandwidth factor" in capsys.readouterr().out

    def test_sweep_cold_count(self, capsys):
        assert main(["sweep", "gea", "--kind", "cold-count", "--points", "4", "8"]) == 0
        assert "cold workers" in capsys.readouterr().out

    def test_sweep_listed(self, capsys):
        assert main(["list"]) == 0
        assert "sweep" in capsys.readouterr().out


class TestBadInputIsAUsageError:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["partition", "{missing}"], "cannot read matrix '{missing}': [Errno 2]"),
            (["partition", "{bad}"], "cannot read matrix '{bad}': row index 4 out of range"),
            (["partition", "pap", "--scale", "0"], "--scale 0: scales must be non-negative"),
            (["trace", "{missing}"], "cannot read matrix '{missing}': [Errno 2]"),
            (["trace", "{bad}", "-o", "{trace}"], "row index 4 out of range"),
            (["trace", "pap", "--scale", "-1"], "--scale -1: scales must be non-negative"),
            (["sweep", "{missing}"], "cannot read matrix '{missing}': [Errno 2]"),
            (["sweep", "{bad}"], "row index 4 out of range"),
            (["sweep", "pap", "--scale", "0"], "--scale 0: scales must be non-negative"),
            (["sweep", "pap", "--points", "0"],
             "--points must be finite and positive for --kind bandwidth"),
            (["sweep", "pap", "--points", "1", "nan"],
             "--points must be finite and positive for --kind bandwidth"),
            (["sweep", "pap", "--kind", "k", "--points", "8", "0.5"],
             "--points must be finite and at least 1 for --kind k"),
            (["sweep", "pap", "--kind", "cold-count", "--points", "inf"],
             "--points must be finite and at least 1 for --kind cold-count"),
            (["fig18", "--jobs", "0", "--subset", "ski"], "--jobs must be >= 1, got 0"),
            (["fig10", "--jobs", "0", "--subset", "ski"], "--jobs must be >= 1, got 0"),
            (["sweep", "ski", "--jobs", "0"], "--jobs must be >= 1, got 0"),
            (["fig18", "--subset", "ski", "--cache-dir", "{bad}"],
             "--cache-dir: cache dir {bad} exists and is not a directory"),
            (["cache", "stats", "--cache-dir", "{bad}"],
             "--cache-dir: cache dir {bad} exists and is not a directory"),
            (["fig18", "--subset", "bogus"],
             "--subset bogus: fig18 takes Table V matrices (ski, pap,"),
            (["fig05", "--subset", "bogus"],
             "--subset bogus: fig05 takes a benchmark matrix (ski, pap,"),
            (["fig15", "--subset", "ski"],
             "--subset ski: fig15 takes Table VIII matrices (gea, mou,"),
            (["all", "--subset", "ski"],
             "--subset ski: fig15 takes Table VIII matrices (gea, mou,"),
        ],
        ids=["partition-missing", "partition-malformed", "partition-scale-0",
             "trace-missing", "trace-malformed", "trace-scale-negative",
             "sweep-missing", "sweep-malformed", "sweep-scale-0", "sweep-points-0",
             "sweep-points-nan", "sweep-k-fraction", "sweep-cold-count-inf",
             "fig18-jobs-0", "fig10-jobs-0", "sweep-jobs-0", "fig18-cache-dir-file",
             "cache-stats-cache-dir-file", "fig18-subset-unknown",
             "fig05-subset-unknown", "fig15-subset-table-v", "all-subset-table-v"],
    )
    def test_exits_2_with_one_error_line(self, capsys, tmp_path, argv, message):
        bad = tmp_path / "bad.mtx"
        bad.write_text("%%MatrixMarket matrix coordinate real general\n3 3 1\n4 1 1.0\n")
        paths = {
            "missing": str(tmp_path / "missing.mtx"),
            "bad": str(bad),
            "trace": str(tmp_path / "trace.json"),
        }
        argv = [arg.format(**paths) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""  # nothing ran
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [err.strip().splitlines()[-1]]
        experiment = argv[0] in EXPERIMENTS or argv[0] == "all"
        prog = "hottiles" if experiment else f"hottiles {argv[0]}"
        assert errors[0].startswith(f"{prog}: error: ")
        assert message.format(**paths) in errors[0]
        assert not (tmp_path / "trace.json").exists()

    @pytest.mark.parametrize("experiment", [*EXPERIMENTS, "all"])
    def test_jobs_below_1_stops_every_experiment_before_it_runs(
        self, capsys, experiment
    ):
        with pytest.raises(SystemExit) as exc:
            main([experiment, "--subset", "ski", "--jobs", "0"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "Traceback" not in err and err.count("error:") == 1
        assert err.strip().splitlines()[-1] == (
            "hottiles: error: --jobs must be >= 1, got 0"
        )


class TestVersionAndUnknown:
    def test_version_flag(self, capsys):
        import repro

        assert main(["--version"]) == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_version_short_flag(self, capsys):
        assert main(["-V"]) == 0
        assert "hottiles" in capsys.readouterr().out

    def test_unknown_subcommand_one_line_hint(self, capsys):
        assert main(["deploy"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "serve" in err and "cache" in err

    def test_unknown_name_with_arguments_gets_the_same_hint(self, capsys):
        # The name is reported, not the argument after it.
        for argv in (["bogus", "pap"], ["simulate", "pap", "--seed", "3"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert len(err.strip().splitlines()) == 1
            assert err.startswith(f"unknown experiment or subcommand: {argv[0]} --")
            assert "unrecognized arguments" not in err

    def test_known_experiment_with_stray_argument_keeps_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fig18", "pap"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: pap" in err
        assert "unknown experiment" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--cluster", "2"],
            ["serve", "--autoscale"],
            ["serve", "--no-degraded-fallback"],
            ["delta-replay", "pap"],
        ],
    )
    def test_removed_flag_is_a_usage_error(self, capsys, argv):
        # A removed flag gets argparse's error, a removed subcommand the
        # unknown-subcommand hint; both exit 2.
        if argv[0] not in SUBCOMMANDS:
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"unknown experiment or subcommand: {argv[0]} --")
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err

    def test_new_subcommands_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("serve", "cache"):
            assert name in out
        # Exactly these six; any other name gets the unknown-subcommand hint.
        assert set(SUBCOMMANDS) == {
            "partition", "sweep", "serve", "cache", "trace", "fidelity",
        }


class TestCacheCommand:
    def test_stats_empty(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "entries:     0" in out
        assert "unbounded" in out

    def test_stats_after_experiment_run(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert main(["fig04", "--subset", "pap", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries:     0" not in out  # at least one cached cell
        assert "misses" in out

    def test_clear(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "c")
        assert main(["fig04", "--subset", "pap", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "cleared" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries:     0" in capsys.readouterr().out


class TestServeCommand:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--timeout", "0"], f"{TIMEOUT_RANGE}, got 0.0"),
            (["--timeout", "-1"], f"{TIMEOUT_RANGE}, got -1.0"),
            (["--timeout", "nan"], f"{TIMEOUT_RANGE}, got nan"),
            (["--timeout", "inf"], f"{TIMEOUT_RANGE}, got inf"),
            (["--timeout", "1e300"], f"{TIMEOUT_RANGE}, got 1e+300"),
            (["--workers", "0"], "workers must be >= 1, got 0"),
            (["--queue-depth", "0"], "queue_depth must be >= 1, got 0"),
            (["--store-max-bytes", "-5"], "--store-max-bytes must be >= 0"),
        ],
        ids=["timeout-0", "timeout-negative", "timeout-nan", "timeout-inf",
             "timeout-1e300", "workers-0", "queue-depth-0",
             "store-max-bytes-negative"],
    )
    def test_out_of_range_flag_exits_2_before_binding(
        self, capsys, monkeypatch, tmp_path, flags, message
    ):
        import repro.service.httpd

        def no_bind(*args, **kwargs):
            raise AssertionError("the server was bound")

        monkeypatch.setattr(repro.service.httpd, "make_server", no_bind)
        store = tmp_path / "plans"
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--store-dir", str(store), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1] == f"hottiles serve: error: {message}"
        assert not store.exists()

    def test_serve_starts_serves_and_drains_on_sigint(self, tmp_path):
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import time
        import urllib.request

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "1",
                "--store-dir", str(tmp_path / "plans"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", line)
            assert match, f"no server address in startup line: {line!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            with urllib.request.urlopen(base + "/healthz", timeout=10) as resp:
                assert resp.status == 200
            payload = json.dumps(
                {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
            ).encode()
            req = urllib.request.Request(
                base + "/plan", data=payload,
                headers={"Content-Type": "application/json"}, method="POST",
            )
            with urllib.request.urlopen(req, timeout=60) as resp:
                assert json.loads(resp.read())["served"] == "computed"
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0
            assert "draining" in out
            assert "completed=1" in out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


    def test_serve_drains_on_sigterm_and_exits_0(self, tmp_path):
        """A background server in a non-interactive shell ignores SIGINT,
        so SIGTERM is its stop signal: drain, print ``served:``, exit 0.

        Before the signal, 32 requests over 4 plans from 8 threads, one
        connection each, must all get ``200`` and leave ``/stats``
        counters that reconcile."""
        import json
        import os
        import re
        import signal
        import subprocess
        import sys
        import urllib.request

        import repro
        from tests.service.test_tracing import get_stats, plan_payloads, post_plans

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--workers", "2",
                "--store-dir", str(tmp_path / "plans"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            line = proc.stdout.readline()
            match = re.search(r"\bport=(\d+)\b", line)
            assert match, f"no port= token in startup line: {line!r}"
            base = f"http://127.0.0.1:{match.group(1)}"
            payload = json.dumps(
                {"generator": {"kind": "rmat", "scale": 8, "nnz": 2000, "seed": 0}}
            ).encode()
            for served in ("computed", "store"):
                req = urllib.request.Request(
                    base + "/plan", data=payload,
                    headers={"Content-Type": "application/json"}, method="POST",
                )
                with urllib.request.urlopen(req, timeout=60) as resp:
                    assert json.loads(resp.read())["served"] == served
            replies = post_plans(base, plan_payloads(4), requests=32, concurrency=8)
            assert len(replies) == 32  # post_plans raises on any other status
            counters = get_stats(base)["counters"]
            assert counters["requests_accepted"] == 34
            assert counters["requests_accepted"] == (
                counters["requests_completed"]
                + counters["requests_failed"]
                + counters["requests_timeout"]
            )
            assert counters["requests_failed"] == counters["requests_timeout"] == 0
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
            served_lines = [x for x in out.splitlines() if x.startswith("served: ")]
            assert len(served_lines) == 1, out
            assert "accepted=34" in served_lines[0]
            assert "completed=34" in served_lines[0]
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()


class TestTraceCommand:
    def test_trace_writes_chrome_json_and_summary(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.json"
        assert main(["trace", "pap", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "trace written to" in out
        assert "bandwidth |" in out
        assert "sim.simulate" in out  # flamegraph summary mentions the root span
        trace = json.loads(out_path.read_text())
        events = trace["traceEvents"]
        assert {"M", "X", "i", "C"} <= {e["ph"] for e in events}
        names = {e.get("name") for e in events}
        assert {"sim.simulate", "pipeline.preprocess", "rebalance"} <= names

    def test_trace_no_summary(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        assert main(["trace", "pap", "--no-summary", "-o", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "[sim] spans" not in out
        assert out_path.exists()

    def test_trace_listed_as_subcommand(self, capsys):
        assert main(["list"]) == 0
        assert "trace" in capsys.readouterr().out

    def test_experiment_trace_flag_writes_file(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "fig.json"
        assert main(["fig04", "--subset", "pap", "--trace", str(out_path)]) == 0
        assert "trace written to" in capsys.readouterr().out
        trace = json.loads(out_path.read_text())
        names = {e.get("name") for e in trace["traceEvents"]}
        assert "executor.run_cells" in names
