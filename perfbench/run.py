#!/usr/bin/env python3
"""Benchmark of the tailkit command line on three workloads.

Run from the root of a tailkit checkout:

    python3 perfbench/run.py --workload {train,refine,image} --seed N --seconds S --trace {0,1}

One client drives ``python -m tailkit`` (the ``tailkit`` console entry) from
the checkout's ``src`` as child processes in a closed loop: each invocation
waits for the previous one.  Inputs are generated from ``--seed``.  Set-up
(input generation plus one warm-up pass) is repeated three times; then passes
run until ``--seconds`` have elapsed.  Every invocation's outputs are checked
(see workloads.py), and a failed check, a non-zero exit or a missing output
counts as a failed invocation.

A shared machine's speed drifts by tens of percent within seconds to
minutes, so a fixed calibration kernel (no tailkit code) is timed between
set-ups and after every measured invocation, and every end-to-end time is
scaled by CALIBRATION_REF_S over the calibrations around it: the figures read
as if the machine ran at the reference speed.  Raw wall times are printed
and kept beside them.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate in-process run through ``tailkit.cli.main`` with every
module's public functions spanned (see tracer.py).  The last line of standard
output is one JSON object; the lines before it give each metric's median,
quartiles and sample count, the machine, and where the full results were
written (under ``.perfbench_work/results`` in the checkout).
"""

import os

# One BLAS thread here and in every child, matching the toolkit's one-core claim.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

from workloads import WORKLOADS, sha256_file  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
IMPORT_SAMPLES = 5
# Median time of calibration_s() on the 2-CPU Intel Xeon machine (Python 3.11,
# numpy 2.4) where the benchmark was defined; end-to-end times are reported as
# if the machine ran at that speed.
CALIBRATION_REF_S = 0.040
# Inputs of the calibration kernel: one array that sorts within the caches and
# one too large for them, so the kernel also tracks memory bandwidth.
CALIBRATION_SORT = np.random.default_rng(0).random(300_000)
CALIBRATION_STREAM = np.random.default_rng(1).random(4_000_000)
CALIBRATION_OUT = CALIBRATION_STREAM.copy()

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "ratio" if name.endswith("ratio") else "count"


class Invocation(NamedTuple):
    argv: list
    returncode: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    log_path: Path


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Launcher:
    """The small long-lived process that spawns every child (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )

    def run(self, args, cwd, log_path) -> Invocation:
        """Run one child to completion; CPU time and peak RSS come from its own rusage."""
        request = {"args": [str(a) for a in args], "cwd": str(cwd), "log": str(log_path)}
        start = time.perf_counter()
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        wall = time.perf_counter() - start
        if not line:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(line)
        return Invocation(args, reply["returncode"], wall, reply["cpu_s"], reply["rss_mb"], log_path)

    def close(self, kill: bool = False) -> None:
        """Stop the launcher; ``kill`` also stops a child it is running."""
        if kill:
            os.killpg(self.proc.pid, signal.SIGKILL)
        else:
            self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


class Runner:
    """Runs passes of one workload in its work directory and keeps the tallies."""

    def __init__(self, workload, workdir: Path, launcher: Launcher):
        self.workload = workload
        self.launcher = launcher
        self.workdir = workdir
        self.logs = workdir.with_name(workdir.name + "-logs")
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.inputs = set()
        self.calibrations = []

    def set_up(self) -> float:
        """Fresh inputs plus one checked warm-up pass; returns its wall time."""
        start = time.perf_counter()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.logs.mkdir(parents=True, exist_ok=True)
        self.workload.generate(self.workdir)
        self.inputs = {p for p in self.workdir.rglob("*")}
        self.subprocess_pass()
        return time.perf_counter() - start

    def clear_outputs(self) -> None:
        """Remove what earlier passes wrote, so a pass cannot pass on stale outputs."""
        for path in sorted(self.workdir.rglob("*"), reverse=True):
            if path not in self.inputs:
                path.rmdir() if path.is_dir() else path.unlink()

    def record(self, argv, ok: bool, why: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"{' '.join(argv)}: {why}")
            print(f"FAILED {self.workload.name} {' '.join(argv)}: {why}", file=sys.stderr)

    def subprocess_pass(self, calibrate: bool = False) -> dict:
        """One closed-loop pass of CLI children, checked after it ends.

        With ``calibrate`` the calibration kernel is timed before the pass and
        after every invocation, and each invocation's times are scaled by
        CALIBRATION_REF_S over the mean of the calibrations on either side.
        """
        self.clear_outputs()
        runs, scales = [], []
        before = self.calibrate() if calibrate else CALIBRATION_REF_S
        for i, argv in enumerate(self.workload.commands()):
            runs.append(self.launcher.run([sys.executable, "-m", "tailkit", *argv], self.workdir,
                                          self.logs / f"{i}.log"))
            after = self.calibrate() if calibrate else CALIBRATION_REF_S
            scales.append(2 * CALIBRATION_REF_S / (before + after))
            before = after
            if runs[-1].returncode != 0:
                break
        self._check(runs)
        return {
            "run_s": sum(r.wall_s * k for r, k in zip(runs, scales)),
            "cpu_s": sum(r.cpu_s * k for r, k in zip(runs, scales)),
            "raw_run_s": sum(r.wall_s for r in runs),
            "raw_cpu_s": sum(r.cpu_s for r in runs),
            "rss_mb": max(r.rss_mb for r in runs),
        }

    def calibrate(self) -> float:
        self.calibrations.append(calibration_s())
        return self.calibrations[-1]

    def _check(self, runs) -> None:
        for i, run in enumerate(runs):
            argv = run.argv[3:]
            if run.returncode != 0:
                tail = Path(run.log_path).read_text(errors="replace")[-400:]
                self.record(argv, False, f"exit code {run.returncode}: {tail}")
            else:
                why = self.workload.check(i, self.workdir)
                self.record(argv, not why, why)

    def in_process_pass(self, cli) -> float:
        """One pass through ``cli.main`` in this process, timed, then checked."""
        self.clear_outputs()
        commands = self.workload.commands()
        codes = []
        cwd = os.getcwd()
        sink = io.StringIO()
        start = time.perf_counter()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for argv in commands:
                    codes.append(cli.main(argv))
                    if codes[-1] != 0:
                        break
        finally:
            os.chdir(cwd)
        wall = time.perf_counter() - start
        for i, code in enumerate(codes):
            if code != 0:
                self.record(commands[i], False, f"exit code {code}: {sink.getvalue()[-400:]}")
            else:
                why = self.workload.check(i, self.workdir)
                self.record(commands[i], not why, why)
        return wall

    def output_digests(self) -> dict:
        return {
            str(p.relative_to(self.workdir)): sha256_file(p)
            for p in sorted(self.workdir.rglob("*"))
            if p.is_file() and p not in self.inputs
        }


def summary(values, value=None) -> dict:
    """The reported value (the median unless given) with quartiles and sample count."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"value": median if value is None else value, "median": median, "q1": q1, "q3": q3,
            "n": len(values)}


def calibration_s() -> float:
    """Time of a fixed kernel of interpreter loop, sort and memory-streaming work.

    The kernel never changes and uses no tailkit code, so its time tracks only
    how fast the machine runs at the moment.
    """
    start = time.perf_counter()
    state = 0
    for i in range(150_000):
        state = (state * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
    np.sort(CALIBRATION_SORT)
    for _ in range(2):
        np.multiply(CALIBRATION_STREAM, 1.0001, out=CALIBRATION_OUT)
    return time.perf_counter() - start


def measure_end_to_end(runner: Runner, seconds: float):
    """End-to-end metrics, each time scaled to the reference machine speed.

    A set-up's time is scaled by the calibrations on either side of it, a
    pass's by those around each of its invocations (see subprocess_pass).
    Raw wall times are kept beside the results.
    """
    setups = []
    before = runner.calibrate()
    for _ in range(SETUPS):
        raw = runner.set_up()
        after = runner.calibrate()
        setups.append((raw, raw * 2 * CALIBRATION_REF_S / (before + after)))
        before = after
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(runner.subprocess_pass(calibrate=True))
    work = runner.workload.work
    metrics = {
        "setup_s": summary(scaled for _, scaled in setups),
        "run_s": summary(p["run_s"] for p in passes),
        "cpu_s": summary(p["cpu_s"] for p in passes),
        "work_per_s": summary(work / p["run_s"] for p in passes),
        "peak_rss_mb": summary((p["rss_mb"] for p in passes), value=max(p["rss_mb"] for p in passes)),
    }
    raw = {
        "raw_setup_s": summary(raw for raw, _ in setups),
        "raw_run_s": summary(p["raw_run_s"] for p in passes),
        "raw_cpu_s": summary(p["raw_cpu_s"] for p in passes),
        "calibration_s": summary(runner.calibrations),
    }
    return metrics, raw


def measure_import(runner: Runner) -> list:
    code = "import time; t = time.perf_counter(); import tailkit.cli; print(time.perf_counter() - t)"
    samples = []
    for i in range(IMPORT_SAMPLES):
        log = runner.logs / f"import-{i}.log"
        run = runner.launcher.run([sys.executable, "-c", code], runner.workdir, log)
        if run.returncode == 0:
            samples.append(float(log.read_text().split()[-1]))
        runner.record(["import", "tailkit.cli"], run.returncode == 0, f"exit code {run.returncode}")
    return samples or [0.0]


def measure_layers(runner: Runner, seconds: float):
    """Per-layer metrics from traced in-process passes, alternated with untraced ones."""
    sys.path.insert(0, str(SRC))
    import tailkit.cli as cli  # noqa: E402  (from the checkout, after the path is set)
    from tracer import COMPUTED, Tracer

    runner.set_up()
    reference = runner.output_digests()
    import_s = measure_import(runner)
    tracer = Tracer()
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - start < seconds:
        untraced.append(runner.in_process_pass(cli))
        tracer.reset()
        tracer.install()
        try:
            traced.append(runner.in_process_pass(cli))
        finally:
            tracer.uninstall()
        layers.append(tracer.layer_metrics())
        # tracing must change no output: compare with the subprocess pass
        digests = runner.output_digests()
        differing = sorted(k for k in reference.keys() | digests.keys() if reference.get(k) != digests.get(k))
        runner.record(["traced pass"], not differing,
                      f"outputs differ from the subprocess pass: {', '.join(differing)}")
        why = runner.workload.check_layers(layers[-1])
        runner.record(["traced pass"], not why, why)
    metrics = {name: summary(layer[name] for layer in layers) for name in layers[0]}
    metrics["cli.import_s"] = summary(import_s)
    metrics["trace.untraced_s"] = summary(untraced)
    metrics["trace.traced_s"] = summary(traced)
    metrics["trace.overhead_s"] = summary(t - u for t, u in zip(traced, untraced))
    return metrics, tracer.spans, set(COMPUTED)


def git_sha(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailkit").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine() -> dict:
    cpu_model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tailkit" / "cli.py").is_file():
        print(f"error: no tailkit sources at {SRC / 'tailkit'}; run from a tailkit checkout",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed)
    base = ROOT / ".perfbench_work"
    launcher = Launcher()
    runner = Runner(workload, base / f"{args.workload}-{args.seed}-{os.getpid()}", launcher)
    raw, spans, computed = {}, [], set()
    try:
        if args.trace:
            metrics, spans, computed = measure_layers(runner, args.seconds)
            units = {name: per_layer_unit(name) for name in metrics}
        else:
            metrics, raw = measure_end_to_end(runner, args.seconds)
            units = END_TO_END_UNITS
    except BaseException:
        launcher.close(kill=True)
        raise
    else:
        launcher.close()
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
        shutil.rmtree(runner.logs, ignore_errors=True)

    env = machine()
    fail_rate = runner.failed / max(runner.attempted, 1)
    results = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "work_unit": workload.work_unit,
        "work_per_pass": workload.work,
        "machine": env,
        "metrics": {name: dict(s, unit=units[name], computed=name in computed) for name, s in metrics.items()},
        "raw": raw,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "fail_rate": fail_rate,
        "errors": runner.errors[:50],
        "spans_of_last_traced_pass": spans,
    }
    (base / "results").mkdir(parents=True, exist_ok=True)
    out = base / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    out.write_text(json.dumps(results) + "\n", encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {workload.work:.0f} {workload.work_unit} per pass")
    print("machine " + json.dumps(env, sort_keys=True))
    for name, s in list(metrics.items()) + list(raw.items()):
        unit = units.get(name, "s")
        label = " (computed)" if name in computed else ""
        print(f"{name:26s} {s['value']:<12.6g} median {s['median']:.6g} q1 {s['q1']:.6g} "
              f"q3 {s['q3']:.6g} n {s['n']} {unit}{label}")
    print(f"fail_rate {fail_rate:.6g} ({runner.failed}/{runner.attempted}); results in {out}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": s["value"], "unit": units[name]} for name, s in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
