"""Smoke tests for the repro-cps command-line interface."""

import pytest

from repro.cli import main


def test_searchspace(capsys):
    assert main(["searchspace", "--units", "64"]) == 0
    out = capsys.readouterr().out
    assert "375,368,690,761,743" in out
    assert "S3" in out


def test_figure1(capsys):
    assert main(["figure1"]) == 0
    out = capsys.readouterr().out
    assert "partition-sharing" in out
    assert "30 misses" in out


def test_optimize_small(capsys):
    rc = main([
        "optimize",
        "--programs", "lbm,mcf,namd,povray",
        "--cache-blocks", "512",
        "--unit-blocks", "16",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    for scheme in ("equal", "natural", "optimal", "sttw"):
        assert scheme in out


def test_export_writes_csvs(tmp_path, capsys, monkeypatch):
    # shrink the study drastically for the smoke test
    from repro.experiments.methodology import ExperimentConfig

    small = ExperimentConfig(
        cache_blocks=512,
        unit_blocks=16,
        names=("lbm", "mcf", "namd", "povray", "tonto"),
        length_scale=0.1,
    )
    monkeypatch.setattr(ExperimentConfig, "from_env", classmethod(lambda cls: small))
    rc = main(["export", "--out", str(tmp_path / "results")])
    assert rc == 0
    assert (tmp_path / "results" / "table1.csv").exists()
    assert (tmp_path / "results" / "figure6.csv").exists()


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        main([])


def test_serve_with_observability_flags(tmp_path, capsys):
    import json
    import urllib.request

    metrics_path = tmp_path / "metrics.json"
    trace_path = tmp_path / "trace.jsonl"
    rc = main([
        "serve", "--workload", "steady", "--epoch", "480",
        "--metrics-port", "0",
        "--metrics-out", str(metrics_path),
        "--trace-out", str(trace_path),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "metrics on http://127.0.0.1:" in out
    assert "group miss ratio" in out

    # --metrics-out: final snapshot + the epoch time-series
    dump = json.loads(metrics_path.read_text())
    assert dump["metrics"]["epochs"] == len(dump["timeseries"]["rows"]) > 0
    assert dump["timeseries"]["tenants"] == ["steady-a", "steady-b"]

    # --trace-out: JSONL spans covering controller epochs and solves
    names = {json.loads(ln)["name"] for ln in trace_path.read_text().splitlines()}
    assert {"controller.epoch", "controller.resolve", "foldcache.solve"} <= names

    # the ephemeral endpoint is down once serve returns
    port = int(out.split("metrics on http://127.0.0.1:", 1)[1].split("/", 1)[0])
    with pytest.raises(OSError):
        urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=1)


def test_serve_without_observability_flags_unchanged(capsys):
    assert main(["serve", "--workload", "steady", "--epoch", "480"]) == 0
    out = capsys.readouterr().out
    assert "metrics on" not in out
    assert "Per-epoch decisions" in out


def test_top_plain_renders_each_epoch(capsys):
    rc = main(["top", "--workload", "steady", "--epoch", "480", "--plain"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("repro-cps top") == 3  # one frame per epoch
    assert "steady-a" in out and "steady-b" in out
    assert "finished: 3 epochs" in out


def test_study_trace_out_and_cache_stats(tmp_path, capsys, monkeypatch):
    import json

    from repro.experiments.methodology import ExperimentConfig

    small = ExperimentConfig(
        cache_blocks=512,
        unit_blocks=16,
        names=("lbm", "mcf", "namd", "povray", "tonto"),
        length_scale=0.1,
    )
    monkeypatch.setattr(ExperimentConfig, "from_env", classmethod(lambda cls: small))
    trace_path = tmp_path / "study.jsonl"
    assert main(["study", "--trace-out", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "fold cache:" in out
    assert "hit ratio" in out
    names = {json.loads(ln)["name"] for ln in trace_path.read_text().splitlines()}
    assert {"sweep.chunk", "solver.evaluate"} <= names


@pytest.mark.parametrize("unbuffered", [True, False])
def test_serve_into_closed_pipe_exits_quietly(unbuffered):
    """``repro-cps serve | head`` ends quietly once the reader leaves.

    Unbuffered, the header line arrives before the replay runs, so closing
    after it makes the per-epoch ``print`` hit the closed pipe; buffered,
    closing before anything arrives makes the final flush hit it.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--workload", "steady"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    if unbuffered:
        assert proc.stdout.readline().startswith(b"Serving the steady workload")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 0
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
