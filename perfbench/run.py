#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the semfuse CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload suite-small --seed 0 --seconds 20 --trace 0

A child process writes the workload's inputs, and for peak memory each
of the workload's CLI commands (train, eval --mode zsl/gzsl, compare)
runs once as its own process. Then one client runs a closed loop in
this process: the commands go through ``semfuse.cli.main`` one after
another, each starting when the previous one returned, and the whole
sequence (a pass) repeats until the next pass would end after
``--seconds``. Every command's report CSVs, ``train_log.csv``,
checkpoint and fused semantics are checked by sha256.

Between any two timed samples a fixed reference piece of work is timed
too, and each sample is divided by how slow the host ran the reference
just before and just after it (1 at the nominal speed; see
``Reference``), so a timing reads in seconds at the reference speed.
A timing is the sum over the workload's commands of each command's
median over the passes. With ``--trace 1`` every second pass runs with
the per-layer tracer of bench_trace.py installed and per-layer figures
are printed instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it
give the machine, the sample counts, the unscaled timings and the fail
ratio. See NOTES.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DIGESTS = BENCH / "digests.json"
DEFAULT_SEED = 0

# before every pass set-up is repeated for at least this long; the
# batch's mean repeat is one set-up sample, scaled by the median of at
# least SETUP_REFERENCE_REPEATS reference readings
SETUP_BATCH_SECONDS = 0.4
SETUP_REFERENCE_REPEATS = 3
# untraced passes needed before the run may end
MIN_PASSES = 3
# seconds of the reference's two parts (text parsing, numpy) at the
# nominal speed: their medians on the 2-vCPU machine of NOTES.md
REFERENCE_NOMINAL_S = (0.0115, 0.0155)

# README real-data protocol: epochs=1000 over ~5k seen rows at batch 64
PROTOCOL_CYCLES = 1000 * -(-5000 // 64)


# one CLI command in its own process; then its peak resident set and the
# file-backed pages resident at exit, in kB, into the file named first
MEMORY_CHILD = """
import sys
from semfuse.cli import main
code = main(sys.argv[2:])
with open("/proc/self/status", encoding="utf-8") as status:
    kb = {k: v.split() for k, v in (line.split(":", 1) for line in status)}
with open(sys.argv[1], "w", encoding="utf-8") as out:
    out.write(f"{kb['VmHWM'][0]} {kb['RssFile'][0]}")
sys.exit(code)
"""


def machine_info() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "ram_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
    }


def _blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, left at its default."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def sha256(path: Path) -> str:
    with path.open("rb") as handle:
        return hashlib.file_digest(handle, "sha256").hexdigest()


def outputs_match(work: Path, outputs: list[str], expected: dict[str, str]) -> bool:
    """Compare each output's sha256 with ``expected``; a name not yet in
    ``expected`` is recorded as the reference for later repeats."""
    ok = True
    for rel in outputs:
        path = work / rel
        if not path.is_file():
            print(f"missing output {rel}", file=sys.stderr)
            ok = False
            continue
        digest = sha256(path)
        if expected.setdefault(rel, digest) != digest:
            print(f"output {rel} differs from its recorded digest", file=sys.stderr)
            ok = False
    return ok


def run_command(main, command, work: Path, expected: dict[str, str]) -> tuple[float, bool]:
    """Run one command; returns (seconds, passed). A command fails if it
    raises, exits non-zero, or its outputs differ from ``expected``."""
    if command.before is not None:
        command.before()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(command.argv)
    except (Exception, SystemExit):  # a crashing command is a failed command
        traceback.print_exc()
        code = None
    seconds = time.perf_counter() - start
    if code != 0:
        print(f"command {command.argv[:1]} exited {code}", file=sys.stderr)
        return seconds, False
    return seconds, outputs_match(work, command.outputs, expected)


def set_up_once(config_path: Path) -> float:
    """Seconds to load one run's inputs through the public loaders."""
    from semfuse import cli
    from semfuse.datasets import load_features, load_split

    start = time.perf_counter()
    config = cli.load_run_config(config_path)
    split = load_split(config.split)
    cli.obtain_bundles(config, split)
    load_features(split.train_features, split)
    load_features(split.test_features, split)
    return time.perf_counter() - start


class Reference:
    """A fixed piece of work timed between samples: text parsing in the
    interpreter (split, float, dict updates), then numpy (a chain of
    256x256 matmuls through BLAS at its default threads, and elementwise
    arithmetic), about 30 ms in all at the nominal speed. ``slowness``
    is the geometric mean of each part's time over its nominal time:
    how slowly the host runs both kinds of work right now."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.text = " ".join(f"{v:.6f}" for v in rng.normal(size=24_000))
        self.square = rng.normal(size=(256, 256))
        self.vector = rng.normal(size=300_000)

    def slowness(self) -> float:
        np = self.np
        start = time.perf_counter()
        totals: dict[int, float] = {}
        for i, value in enumerate(map(float, self.text.split())):
            totals[i & 255] = totals.get(i & 255, 0.0) + value
        parsed = time.perf_counter()
        m = self.square
        for _ in range(6):
            m = np.tanh(m @ self.square * 0.05)
        for _ in range(6):
            (self.vector * 1.5 + self.vector).sum()
        done = time.perf_counter()
        parse_s, numeric_s = REFERENCE_NOMINAL_S
        return math.sqrt((parsed - start) / parse_s * (done - parsed) / numeric_s)


class Clock:
    """Scales each sample by the reference slowness measured right
    before and right after it. After a sample the reference is repeated
    until it has taken about ``share`` of the sample's time, and the
    median repeat counts, so a long sample gets a steadier reading."""

    def __init__(self, slowness, share: float = 0.05):
        self.slowness = slowness
        self.share = share
        self.last = slowness()

    def scale(self, seconds: float, least: int = 1) -> float:
        """``seconds`` just measured, in seconds at the reference speed,
        judged by at least ``least`` reference readings after it."""
        repeats = max(least, 1 + int(seconds * self.share / sum(REFERENCE_NOMINAL_S)))
        after = statistics.median(self.slowness() for _ in range(repeats))
        scaled = seconds / ((self.last + after) / 2)
        self.last = after
        return scaled


class Run:
    """Closed-loop passes over one workload, with their checks."""

    def __init__(self, name: str, seed: int, work: Path, expected: dict[str, str]):
        from bench_workloads import WORKLOADS, generate

        generate(name, work, seed, ROOT)
        self.work = work
        self.workload = WORKLOADS[name][1](work)
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.clock: Clock | None = None

    def start_clock(self) -> None:
        """Warm up (imports, file cache) with one untimed set-up, then
        take the first reference sample."""
        set_up_once(self.workload.config)
        self.clock = Clock(Reference().slowness)

    def set_up_sample(self) -> tuple[float, float]:
        """(seconds, scaled seconds) of one set-up: the mean repeat of a
        batch that lasts at least SETUP_BATCH_SECONDS."""
        gc.collect()
        times = [set_up_once(self.workload.config)]
        while sum(times) < SETUP_BATCH_SECONDS:
            times.append(set_up_once(self.workload.config))
        seconds = sum(times) / len(times)
        return seconds, self.clock.scale(sum(times), SETUP_REFERENCE_REPEATS) / len(times)

    def _run(self, command) -> float:
        from semfuse import cli

        # looked up per call so a traced pass reaches the wrapped main
        seconds, ok = run_command(cli.main, command, self.work, self.expected)
        self.attempted += 1
        self.failed += not ok
        return seconds

    def one_pass(self, tracer=None) -> tuple[list[float], list[float], float]:
        """Run every command once; (seconds per command, scaled seconds
        per command, wall seconds). A tracer is told which kind of
        command each span belongs to. The wall time includes the
        reference samples."""
        gc.collect()
        times, scaled = [], []
        start = time.perf_counter()
        for command in self.workload.commands:
            if tracer is not None:
                tracer.kind = command.kind
            times.append(self._run(command))
            if self.clock is not None:
                scaled.append(self.clock.scale(times[-1]))
        return times, scaled, time.perf_counter() - start

    def run_checks(self) -> None:
        for command in self.workload.checks:
            self._run(command)

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory among the workload's commands,
        each run once as its own CLI process, as a user runs it, less
        the file-backed pages (shared libraries) resident when it ends:
        the host's page reclaim moves those by up to ~16 MB between runs."""
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        report = self.work / "memory.txt"
        peak, lines = 0, []
        for command in self.workload.commands:
            if command.before is not None:
                command.before()
            code = subprocess.run(
                [sys.executable, "-c", MEMORY_CHILD, str(report), *command.argv],
                env=env, stdout=subprocess.DEVNULL,
            ).returncode
            if code != 0:
                print(f"command {command.argv[:1]} exited {code}", file=sys.stderr)
            ok = code == 0 and outputs_match(self.work, command.outputs, self.expected)
            self.attempted += 1
            self.failed += not ok
            if ok:
                hwm_kb, file_kb = map(int, report.read_text().split())
                peak = max(peak, hwm_kb - file_kb)
                lines.append(f"{command.argv[0]}:{hwm_kb / 1024:.1f}-{file_kb / 1024:.1f}")
        print("memory peak-file_mb " + " ".join(lines))
        return peak / 1024

    def kind_seconds(self, times: list[float]) -> dict[str, float]:
        totals = {"train": 0.0, "eval": 0.0}
        for command, seconds in zip(self.workload.commands, times):
            totals[command.kind] += seconds
        return totals


def _print_pass(label: str, run: Run, times: list[float], scaled: list[float], wall: float,
                setup: tuple[float, float]) -> None:
    seconds = {**run.kind_seconds(times), "wall": wall, "setup": setup[0]}
    print(label + " " + " ".join(f"{k}_s={v:.4f}" for k, v in seconds.items())
          + " commands_s=" + ",".join(f"{t:.3f}" for t in times)
          + " slowness=" + ",".join(f"{t / u:.3f}" for t, u in zip(times, scaled)))


def medians(passes: list[list[float]]) -> list[float]:
    """Each command's median time over the passes."""
    return [statistics.median(samples) for samples in zip(*passes)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="store this run's output digests as the seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "semfuse" / "__init__.py").is_file():
        print(f"no semfuse sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    from bench_workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = recorded.get(args.workload, {})
    checked = entry.get("seed") == args.seed and not args.record_digests
    expected = dict(entry["files"]) if checked else {}

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work, expected)
        result = measure(run, args, work.parent)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_digests:
        if run.failed:
            print("not recording digests of a run with failed commands", file=sys.stderr)
            return 1
        recorded[args.workload] = {"seed": args.seed, "files": dict(sorted(expected.items()))}
        DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")

    print(json.dumps(result))
    return 0


def measure(run: Run, args, trace_dir: Path) -> dict:
    """Set-up samples and closed-loop passes for ``args.seconds``."""
    print("machine " + json.dumps(machine_info()))
    deadline = time.perf_counter() + args.seconds
    setups: list[tuple[float, float]] = []
    passes: list[list[float]] = []
    scaled_passes: list[list[float]] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    tracer = None
    if args.trace:
        import bench_trace

        tracer = bench_trace.Tracer()
    else:
        peak_rss_mb = run.peak_rss_mb()
    run.start_clock()
    last = 0.0
    while (
        len(passes) < MIN_PASSES
        or (tracer is not None and not traced_walls)
        or time.perf_counter() + last < deadline
    ):
        start = time.perf_counter()
        setups.append(run.set_up_sample())
        if tracer is not None and len(passes) > len(traced_walls):
            tracer.request = len(traced_walls)
            uninstall = bench_trace.install(tracer)
            try:
                times, scaled, wall = run.one_pass(tracer)
            finally:
                uninstall()
            traced_walls.append(wall)
            _print_pass("traced pass", run, times, scaled, wall, setups[-1])
        else:
            times, scaled, wall = run.one_pass()
            passes.append(times)
            scaled_passes.append(scaled)
            walls.append(wall)
            _print_pass("pass", run, times, scaled, wall, setups[-1])
        last = time.perf_counter() - start
    run.run_checks()

    fail_ratio = run.failed / run.attempted
    print(
        f"summary workload={args.workload} seed={args.seed} passes={len(passes)} "
        f"traced_passes={len(traced_walls)} setup_samples={len(setups)} "
        f"commands={run.attempted} fail_ratio={fail_ratio:.4f}"
    )
    if tracer is None:
        raw = run.kind_seconds(medians(passes))
        print("unscaled " + json.dumps({
            "setup_s": statistics.median(s for s, _ in setups),
            "train_s": raw["train"],
            "eval_s": raw["eval"],
        }))
        at_reference = run.kind_seconds(medians(scaled_passes))
        metrics = {
            "setup_s": {"value": statistics.median(s for _, s in setups), "unit": "s"},
            "train_s": {"value": at_reference["train"], "unit": "s"},
            "eval_s": {"value": at_reference["eval"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        overhead = statistics.median(traced_walls) / statistics.median(walls)
        metrics = bench_trace.layer_metrics(tracer, len(traced_walls), overhead)
        print("shares " + json.dumps(bench_trace.shares(tracer, len(traced_walls))))
        trace_file = trace_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
            "stats": {k: dict(zip(("calls", "total_s", "self_s"), v))
                      for k, v in tracer.stats.items()},
        }))
        if args.workload == "gen-wide":
            cycle_s = metrics["gen_zsl.wgan_step_ms.p50"]["value"] / 1e3
            io_s = sum(metrics[f"autodiff.{k}_params_s"]["value"] for k in ("save", "load"))
            print("projection " + json.dumps({
                "protocol_cycles": PROTOCOL_CYCLES,
                "median_cycle_s": cycle_s,
                "checkpoint_io_s": io_s,
                "projected_hours": (PROTOCOL_CYCLES * cycle_s + io_s) / 3600,
            }))
    if tracer is None:
        print(f"  fail_ratio = {fail_ratio:.6g} ratio")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
