"""The benchmark's own test: a tiny-size smoke pass and the correctness gate.

Run from the root of a checkout:

    python3 -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from voxanon import Waveform, read_wav, write_wav  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_benchmark(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
            "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_declared_metrics(workload, trace, section):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"] and math.isfinite(value["value"])
    if trace and workload == "score":
        assert all(v["value"] == 0 for k, v in result["metrics"].items() if k.startswith("nnet."))
    if trace and workload == "synth":
        assert result["metrics"]["nnet.nsf_calls"]["value"] == 2


def test_stripped_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = run_benchmark("extract", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def run_chain(workload, work: Path):
    inputs = workload.prepare(work, SEED, "tiny")
    for cmd in workload.commands(inputs, SEED, 1):
        _, rc, _ = run.run_process([sys.executable, "-c", run.CLI, *cmd.args], work, work / "log")
        assert rc == 0, (work / "log").read_text()[-3000:]
    assert workload.check(work, inputs) == []
    return inputs


def test_truncated_wav_fails_gate(tmp_path):
    synth = WORKLOADS["synth"]
    inputs = run_chain(synth, tmp_path)
    path = tmp_path / "out" / "wav" / f"{next(iter(inputs.utterances))}.wav"

    wav = read_wav(path)
    write_wav(path, Waveform(wav.samples[:-80], wav.sample_rate))  # well-formed, one frame short
    assert any("expected" in p for p in synth.check(tmp_path, inputs))

    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])  # cut inside the data chunk
    assert any("unreadable" in p for p in synth.check(tmp_path, inputs))


def test_eer_drift_fails_gate(tmp_path):
    score = WORKLOADS["score"]
    inputs = run_chain(score, tmp_path)
    report = tmp_path / "out" / "eval_all" / "evaluation_report.jsonl"
    records = [json.loads(line) for line in report.read_text().splitlines()]
    for record in records:
        if record.get("kind") == "eer":
            record["eer"] = min(1.0, record["eer"] + 1e-6)
    report.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert any("differs from reference" in p for p in score.check(tmp_path, inputs))
