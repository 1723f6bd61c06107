"""voxanon benchmark: real CLI commands on seeded inputs, timed and traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload synth --seed 1 --seconds 28 --trace 0

With ``--trace 0`` every command of the workload's chain runs as its own
subprocess, pass after pass for ``--seconds`` (at least two passes, so
each run also reruns the same seed), and the end-to-end metrics are
printed. With ``--trace 1`` the chain runs in this process through
``voxanon.cli.main``, alternating untraced and traced passes, and the
per-layer metrics of the traced passes are printed with the tracing
overhead. Either way the outputs are checked, and the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK_ROOT = HERE / ".work"
RESULTS = HERE / ".results"

SETUP_REPEATS = 5
MIN_PASSES = 2

CLI = "import sys; from voxanon.cli import console_main; sys.argv[0] = 'voxanon'; console_main()"
# Fixed cost a command pays before its first item: a fresh interpreter
# importing the CLI and loading the weight or pool files the workload's
# commands load.
SETUP = (
    "import sys\nfrom voxanon import cli, load_pool, nnet\n"
    "for p in sys.argv[1:]: (nnet.load_weights if p.endswith('.weights') else load_pool)(p)"
)


def median(values):
    return statistics.median(values) if values else 0.0


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def blas_threads() -> int | None:
    """OpenBLAS thread count from the library numpy loaded, if it is OpenBLAS."""
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        if ref_file.is_file():
            return ref_file.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return None
    return ref


def environment(args, inputs) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "run_seconds": args.seconds,
        "inputs": inputs.sizes(),
    }


# ---------------------------------------------------------------------------
# timed run: one subprocess per command


def run_process(argv, cwd: Path, log: Path) -> tuple[float, int, float]:
    """Wall seconds, exit code and peak RSS (MB) of one child process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with log.open("ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


class Tally:
    """Operations attempted and failed, and what failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, name: str, items: int, rc: int) -> None:
        self.attempted += items
        if rc != 0:
            self.failed += items
            self.problems.append(f"{name} exited with code {rc}")

    def check(self, problems: list[str], digest: str, first_digest: str | None) -> None:
        if first_digest is not None and digest != first_digest:
            problems = problems + [f"same-seed rerun gave digest {digest}, first pass gave {first_digest}"]
        self.failed += len(problems)
        self.problems += problems


def timed_run(workload, inputs, commands, work: Path, seconds: float) -> tuple[dict, dict, Tally]:
    from workloads import tree_digest

    tally = Tally()
    log = work / "commands.log"
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, rc, _ = run_process([sys.executable, "-c", SETUP, *inputs.setup_files], work, log)
        tally.command("setup", 1, rc)
        setup.append(wall)

    passes = []  # per pass: {command: seconds}
    rss = []
    digests = []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        shutil.rmtree(work / "out", ignore_errors=True)
        walls: dict[str, float] = {}
        ok = True
        for cmd in commands:
            wall, rc, peak = run_process([sys.executable, "-c", CLI, *cmd.args], work, log)
            tally.command(cmd.name, cmd.items, rc)
            walls[cmd.name] = walls.get(cmd.name, 0.0) + wall
            rss.append(peak)
            ok = ok and rc == 0
        if not ok:
            break
        digest = tree_digest(work / "out")
        tally.check(workload.check(work, inputs), digest, digests[0] if digests else None)
        digests.append(digest)
        passes.append(walls)

    chains = [sum(p.values()) for p in passes]
    metrics = {
        "chain_s": (median(chains), "s", len(chains)),
        "setup_s": (median(setup), "s", len(setup)),
        "peak_rss_mb": (max(rss, default=0.0), "MB", len(rss)),
    }
    if inputs.audio_seconds:
        metrics["rtf"] = (median(chains) / inputs.audio_seconds, "s/s", len(chains))
    for name in dict.fromkeys(c.name for c in commands):
        metrics[f"{name}_s"] = (median([p[name] for p in passes]), "s", len(passes))
    metrics["error_rate"] = (tally.failed / max(tally.attempted, 1), "ratio", tally.attempted)
    info = {"passes": len(passes), "pass_seconds": passes, "setup_seconds": setup, "digest": digests[0] if digests else None}
    return metrics, info, tally


# ---------------------------------------------------------------------------
# traced run: in process, through voxanon.cli.main


def in_process_pass(workload, inputs, commands, work: Path, tally: Tally, tracer=None) -> tuple[float, int]:
    """Run the chain once; returns its wall seconds and the bytes extract wrote."""
    from voxanon import cli
    from workloads import tree_bytes

    shutil.rmtree(work / "out", ignore_errors=True)
    (work / "out").mkdir()
    features_bytes = 0
    wall = 0.0
    sink = io.StringIO()
    for cmd in commands:
        before = tree_bytes(work / "out")
        span = tracer.command(cmd.name) if tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            with span:
                rc = cli.main(list(cmd.args))
            wall += time.perf_counter() - start
        tally.command(cmd.name, cmd.items, rc)
        if rc != 0:
            tally.problems.append(sink.getvalue()[-2000:])
            return wall, features_bytes
        if cmd.name == "extract":
            features_bytes += tree_bytes(work / "out") - before
    return wall, features_bytes


def traced_run(workload, inputs, commands, work: Path, seconds: float, spans_path: Path):
    from tracing import Tracer, layer_metrics
    from workloads import tree_digest

    tally = Tally()
    untraced, traced, per_pass = [], [], []
    digests = []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            tracer = Tracer() if len(untraced) > len(traced) else None
            if tracer:
                tracer.install()
            try:
                failed_before = tally.failed
                wall, features_bytes = in_process_pass(workload, inputs, commands, work, tally, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
            if tally.failed > failed_before:
                break
            digest = tree_digest(work / "out")
            tally.check(workload.check(work, inputs), digest, digests[0] if digests else None)
            digests.append(digest)
            if tracer:
                traced.append(wall)
                per_pass.append(layer_metrics(tracer, features_bytes))
                last_spans = tracer.spans
            else:
                untraced.append(wall)
    finally:
        os.chdir(cwd)

    metrics = {}
    if per_pass:
        for name, (_, unit) in per_pass[0].items():
            metrics[name] = (median([m[name][0] for m in per_pass]), unit, len(per_pass))
        with spans_path.open("w") as fh:
            for index, span in enumerate(last_spans):
                fh.write(json.dumps(span.record(index)) + "\n")
    metrics["trace.untraced_s"] = (median(untraced), "s", len(untraced))
    metrics["trace.traced_s"] = (median(traced), "s", len(traced))
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s", min(len(traced), len(untraced)))
    return metrics, {"passes": len(untraced) + len(traced), "digest": digests[0] if digests else None}, tally


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("synth", "extract", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="input size; 'tiny' is for the benchmark's own smoke test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "voxanon" / "__init__.py").is_file():
        print(f"perfbench: no voxanon package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    jobs = min(2, nproc())
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        inputs = workload.prepare(work, args.seed, args.size)
        inputs_s = time.perf_counter() - start
        commands = workload.commands(inputs, args.seed, jobs)
        if args.trace:
            metrics, info, tally = traced_run(workload, inputs, commands, work, args.seconds, RESULTS / f"{tag}.spans.jsonl")
        else:
            metrics, info, tally = timed_run(workload, inputs, commands, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    for m in spec:
        if m["name"] not in metrics:
            # Only a run that failed early lacks metrics; they read 0.
            tally.problems.append(f"metric {m['name']} was not measured")
        elif metrics[m["name"]][1] != m["unit"]:
            tally.problems.append(f"metric {m['name']} measured in {metrics[m['name']][1]}, declared {m['unit']}")
    correct = not tally.problems and tally.attempted > 0
    report = {
        "environment": environment(args, inputs),
        "inputs_s": inputs_s,
        "commands": [" ".join(("voxanon",) + c.args) for c in commands],
        **info,
        "metrics": {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in metrics.items()},
        "problems": tally.problems,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {tag}: {info['passes']} passes, correct={correct}, digest={info['digest']}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<6} n={n}")
    for problem in tally.problems:
        print(f"  FAILED: {problem}")
    print("report: " + json.dumps({k: v for k, v in report.items() if k != "metrics"}, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], (0.0,))[0], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
