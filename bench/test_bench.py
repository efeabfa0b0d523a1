"""Self-tests of the benchmark harness (``pytest bench -q``, smoke shapes)."""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import signal
import subprocess
import sys

import pytest

import _paths
import child
import compare
import inputs
import metrics
import run
import speed
import workloads
from spans import SpanRecorder

SEED = 2008
WORKLOADS = list(workloads.WORKLOADS)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")


@pytest.fixture(scope="module")
def measured():
    """Two untraced smoke runs of every workload."""
    return {
        name: [child.measure(name, SEED, smoke=True, reps=2) for _ in range(2)]
        for name in WORKLOADS
    }


@pytest.fixture(scope="module")
def benchmark_file():
    return metrics.load_benchmark()


def test_benchmark_file_names_the_workloads_and_metrics(benchmark_file):
    assert [entry["name"] for entry in benchmark_file["workloads"]] == WORKLOADS
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in benchmark_file[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert "setup_s" in {entry["name"] for entry in benchmark_file["end_to_end"]}
    assert all(0 < entry["bound"] <= 0.25 for entry in benchmark_file["end_to_end"])


def test_every_end_to_end_metric_appears_on_every_workload(measured, benchmark_file):
    for name, (document, _again) in measured.items():
        reported = run.end_to_end(document, [document])
        for entry in benchmark_file["end_to_end"]:
            assert reported[entry["name"]]["value"] > 0, (name, entry["name"])
            assert reported[entry["name"]]["unit"] == entry["unit"]
        assert reported["ops_failed_share"]["value"] == 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_per_layer_metric_appears_on_every_workload(name, benchmark_file):
    document = child.trace(name, SEED, smoke=True, reps=1)
    declared = {entry["name"] for entry in benchmark_file["per_layer"]}
    assert declared <= set(document["per_layer"])
    assert all(NAME.fullmatch(metric) for metric in document["per_layer"])
    assert document["failed"] == 0
    assert document["spans"] and document["layer_self_s"]


def test_two_runs_give_identical_digests_and_counts(measured):
    for name, (first, second) in measured.items():
        for key in ("digest", "slots", "payload_bytes", "attempted", "failed"):
            assert first[key] == second[key], (name, key)
        assert first["failed"] == 0


def test_parallel_workloads_digest_equal_their_serial_twins(measured):
    assert measured["campaign_jobs2"][0]["digest"] == measured["campaign_serial"][0]["digest"]
    assert measured["mesh2k_shards2"][0]["digest"] == measured["mesh2k_serial"][0]["digest"]


def test_seed_changes_the_seeded_workloads(measured):
    other = child.measure("codec_stream", 7, smoke=True, reps=2)
    assert other["failed"] == 0
    assert other["digest"] != measured["codec_stream"][0]["digest"]


def in_process_spawn(mode, workload, args):
    """Stand-in for ``run.spawn`` that skips the subprocess."""
    if mode == "setup":
        return child.set_up(workload, args.seed, args.smoke, None)[1]
    return child.measure(workload, args.seed, smoke=args.smoke, reps=args.reps)


def test_injected_verify_failure_raises_failed_share_and_exit_code(monkeypatch, capsys):
    monkeypatch.setattr(run, "spawn", in_process_spawn)
    arguments = ["--workload", "mesh2k_shards2", "--smoke", "--reps", "2"]
    assert run.main(arguments) == 0
    monkeypatch.setattr(
        workloads.Workload, "reference_digest", lambda self: "not-the-digest"
    )
    assert run.main(arguments) == 1
    output = capsys.readouterr().out
    line = json.loads(output.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == 1
    assert "VERIFY FAILED: digest differs from the serial reference" in output


def test_span_self_time_is_duration_minus_children():
    rec = SpanRecorder("w")
    with rec.span("emulator.outer"):
        with rec.span("coding.inner"):
            pass
        rec.add("coding.inner", 10.0, 10.5)
    totals = rec.self_times()
    assert totals["coding.inner"] == pytest.approx(rec.total("coding.inner"))
    assert totals["emulator.outer"] == pytest.approx(
        rec.total("emulator.outer") - rec.total("coding.inner")
    )
    assert set(rec.layer_self_times()) == {"emulator", "coding"}
    assert rec.as_dicts()[1]["parent"] == 0 and rec.as_dicts()[0]["workload"] == "w"


def test_tail_percentile_needs_ten_samples_beyond_it():
    assert metrics.tail_percentile(list(range(19)))[0] == 50
    assert metrics.tail_percentile(list(range(40)))[0] == 75
    assert metrics.tail_percentile(list(range(100)))[0] == 90
    assert metrics.tail_percentile(list(range(200))) == (95, 190)
    assert metrics.tail_percentile(list(range(1000)))[0] == 99


def test_sampler_stops_its_timer_before_handing_the_handler_back(monkeypatch):
    # a tick after SIG_DFL is back would kill the process ("Alarm clock")
    timer_at_restore = []
    real_signal = signal.signal

    def spy(signum, handler):
        if handler is signal.SIG_DFL:
            timer_at_restore.append(signal.getitimer(signal.ITIMER_REAL))
        return real_signal(signum, handler)

    monkeypatch.setattr(signal, "signal", spy)
    outer = speed.SpeedSampler()
    with outer:
        speed.timed(lambda: None)
        # the nested sampler re-armed the outer one's timer on its way out
        assert signal.getitimer(signal.ITIMER_REAL)[1] > 0.0
        assert signal.getsignal(signal.SIGALRM) == outer._tick
    assert timer_at_restore == [(0.0, 0.0)]
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_codec_stream_survives_a_fully_erased_batch():
    # at 90% erasure whole batches vanish and the relay is asked while empty
    shapes = dataclasses.replace(inputs.SMOKE, codec_erasure=0.9)
    rep = workloads.CodecStreamWorkload(2, shapes).rep()
    assert rep.failed == 0 and rep.attempted == shapes.codec_generations


# -- compare.py on synthetic files ---------------------------------------------------


def record(value, low=None, high=None, unit="s"):
    low = value if low is None else low
    high = value if high is None else high
    return {"value": value, "min": low, "max": high, "n": 5, "unit": unit}


def result_file():
    return {
        "header": {
            "seed": 2008, "reps": 5, "seconds": None, "nproc": 2,
            "backend": "native", "smoke": False, "trace": 0,
        },
        "workloads": {
            "codec_stream": {
                "digest": "d0",
                "metrics": {
                    "wall_s": record(1.0, 0.98, 1.02),
                    "slots_per_s": record(1000.0, 990.0, 1010.0, "slots/s"),
                    "peak_rss_mb": record(100.0, unit="MB"),
                    "ops_failed_share": record(0.0, unit="ratio"),
                },
            }
        },
    }


def write_pair(tmp_path, second):
    first_path, second_path = tmp_path / "a.json", tmp_path / "b.json"
    first_path.write_text(json.dumps(result_file()))
    second_path.write_text(json.dumps(second))
    return [str(first_path), str(second_path)]


def verdicts(second):
    rows, digests = compare.compare(result_file(), second)
    return {row[1]: row[6] for row in rows}, digests


def test_compare_ok_when_within_bound(tmp_path, capsys):
    second = result_file()
    second["workloads"]["codec_stream"]["metrics"]["wall_s"] = record(1.05, 1.03, 1.07)
    assert set(verdicts(second)[0].values()) == {"ok"}
    assert compare.main(write_pair(tmp_path, second)) == 0
    assert "0 worse" in capsys.readouterr().out


def test_compare_worse_in_the_metrics_own_direction(tmp_path):
    second = result_file()
    second["workloads"]["codec_stream"]["metrics"]["wall_s"] = record(1.6, 1.58, 1.62)
    second["workloads"]["codec_stream"]["metrics"]["slots_per_s"] = record(
        1400.0, 1390.0, 1410.0, "slots/s"
    )
    outcome, _digests = verdicts(second)
    assert outcome["wall_s"] == "worse"  # lower is better, it rose
    assert outcome["slots_per_s"] == "ok"  # higher is better, it rose
    assert compare.main(write_pair(tmp_path, second)) == 1


def test_compare_unresolved_when_wide_runs_interleave(tmp_path):
    second = result_file()
    second["workloads"]["codec_stream"]["metrics"]["wall_s"] = record(1.5, 0.9, 1.9)
    assert verdicts(second)[0]["wall_s"] == "unresolved"
    assert compare.main(write_pair(tmp_path, second)) == 0


def test_compare_fails_when_failed_share_rises(tmp_path):
    second = result_file()
    second["workloads"]["codec_stream"]["metrics"]["ops_failed_share"] = record(
        0.01, unit="ratio"
    )
    assert verdicts(second)[0]["ops_failed_share"] == "worse"
    assert compare.main(write_pair(tmp_path, second)) == 1


def test_compare_flags_a_changed_digest(tmp_path, capsys):
    second = result_file()
    second["workloads"]["codec_stream"]["digest"] = "d1"
    assert verdicts(second)[1] == ["codec_stream"]
    assert compare.main(write_pair(tmp_path, second)) == 0
    assert "result_digest CHANGED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key,value", [("seed", 7), ("reps", 3), ("nproc", 8), ("backend", "numpy")]
)
def test_compare_refuses_mismatched_headers(tmp_path, capsys, key, value):
    second = copy.deepcopy(result_file())
    second["header"][key] = value
    assert compare.main(write_pair(tmp_path, second)) == 2
    assert key in capsys.readouterr().err


# -- the command line, end to end ---------------------------------------------------------


@pytest.mark.parametrize("trace,declared", [("0", "end_to_end"), ("1", "per_layer")])
def test_command_line_prints_the_contract_line(trace, declared, benchmark_file, tmp_path):
    out = tmp_path / "result.json"
    command = [
        sys.executable, str(_paths.BENCH_DIR / "run.py"), "--smoke",
        "--workload", "codec_stream", "--seed", "7", "--seconds", "0.2",
        "--trace", trace, "--out", str(out),
    ]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=False)
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {entry["name"] for entry in benchmark_file[declared]}
    units = {entry["name"]: entry["unit"] for entry in benchmark_file[declared]}
    assert all(line["metrics"][name]["unit"] == unit for name, unit in units.items())
    header = json.loads(out.read_text())["header"]
    for key in ("git_commit", "nproc", "python", "numpy", "scipy", "backend", "simd",
                "loadavg_1m", "env.noisy", "seed"):
        assert key in header
