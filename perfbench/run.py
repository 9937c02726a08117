"""perfeat pipeline benchmark.

    python3 perfbench/run.py --workload {midi_corpus,audio_corpus,study}
        [--seed N] [--seconds S] [--trace {0,1}]

Builds the workload's corpus from the seed under ``.perfbench/`` in the
checkout, runs the real CLI in this process through ``perfeat.cli.main`` as
one closed-loop client (one command after another, BLAS pinned to one
thread), checks every output, and prints one line per metric followed by
a JSON result line.  ``--trace 0`` reports the end-to-end metrics with
tracing off; ``--trace 1`` alternates plain and traced passes and reports
per-layer metrics from the traced ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy loads, here and in every child interpreter.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import checks
import corpus
from probes import run_probes
from spans import LAYER_TOTALS, UNITS, Tracer, layer_metrics

ROOT = corpus.ROOT
WORK_ROOT = ROOT / ".perfbench"
SETUP_SAMPLES = 9  # at least, one after each timed pass, after one discarded warm-up
MIN_PASSES = 3
CHILD_TIMEOUT_S = 150
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]


class Ledger:
    """Commands attempted and the ones that failed, with the reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []

    def add(self, label: str, commands, errors: Dict[str, str], problems) -> None:
        for command in commands:
            self.attempted += 1
            issues = [errors[command.name]] if command.name in errors else []
            issues += [f"{name}: {p}" for name in command.outputs for p in problems.get(name, [])]
            if issues:
                self.failures.append(f"{label} {command.name}: " + "; ".join(issues))


def run_pass(cli, commands, out_dir: Path, after_each: Optional[Callable[[], None]] = None):
    """Run each command once, in order, calling ``after_each`` after each one, untimed.

    Returns wall seconds, CPU seconds of this process, and failures, each by
    command name.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    gc.collect()
    walls: Dict[str, float] = {}
    cpus: Dict[str, float] = {}
    errors: Dict[str, str] = {}
    for command in commands:
        sink = io.StringIO()
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main([*command.argv, "--out-dir", str(out_dir)])
        except (Exception, SystemExit) as err:  # a crash is a failed command, not a stop
            rc = f"raised {type(err).__name__}"
        walls[command.name] = time.perf_counter() - start
        cpus[command.name] = time.process_time() - cpu_start
        if rc != 0:
            errors[command.name] = f"exit {rc}: {sink.getvalue().strip()[-300:]}"
        if after_each is not None:
            after_each()
    return walls, cpus, errors


@functools.lru_cache(maxsize=None)
def _calibration_inputs() -> Tuple[np.ndarray, ...]:
    """Fixed inputs of the calibration loops, made on first use.

    Made lazily so that they stay out of the child process that measures
    ``peak_rss_mb``.
    """
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((100, 22))
    frames = rng.standard_normal((200, 2048)) * np.hanning(2048)
    spectra = np.abs(np.fft.rfft(rng.standard_normal((144, 2048)) * np.hanning(2048))) + 1e-3
    return matrix, frames, spectra, np.fft.rfftfreq(2048, 1.0 / 44100)


def _linalg_loop() -> None:
    """Small numpy calls behind Python wrappers, then one batch of windowed FFTs."""
    matrix, frames, _, _ = _calibration_inputs()
    for _ in range(100):
        np.linalg.qr(matrix)
        np.linalg.lstsq(matrix, matrix[:, 0], rcond=None)
    np.abs(np.fft.rfft(frames, axis=1))


def _spectrum_loop() -> None:
    """Vector math on one 1025-bin spectrum at a time: powers, logs, cumulative sums."""
    _, _, spectra, frequencies = _calibration_inputs()
    for spectrum in spectra:
        weights = spectrum / float(spectrum.sum())
        deviations = frequencies - float(weights @ frequencies)
        for power in (2, 3, 4):
            float(weights @ deviations**power)
        float(np.exp(np.mean(np.log(spectrum[1:]))))
        energy = spectrum**2
        cumulative = np.cumsum(energy)
        int(np.searchsorted(cumulative, 0.85 * cumulative[-1]))
        float(energy[frequencies >= 1000.0].sum())


# How fast the CPU runs this process changes with the load on a shared host,
# and it changes interpreter-bound and vector-math-bound code by different
# factors.  Each workload's loop does its kind of work, so the loop's time
# follows the workload's speed.  Neither loop touches perfeat.
CALIBRATION_LOOPS = {
    "midi_corpus": _linalg_loop,
    "audio_corpus": _spectrum_loop,
    "study": _linalg_loop,
}


def calibration_seconds(workload: str) -> float:
    """Wall seconds of one run of the workload's fixed calibration loop."""
    start = time.perf_counter()
    CALIBRATION_LOOPS[workload]()
    return time.perf_counter() - start


def output_names(commands) -> List[str]:
    return [name for command in commands for name in command.outputs]


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until ``import perfeat.cli`` returns."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import time, perfeat.cli; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.strip()) - start


def _peak_rss_kb() -> int:
    """Peak resident memory of this process's own address space, in KiB.

    Read from ``VmHWM``, not ``ru_maxrss``: after fork and exec, ``ru_maxrss``
    keeps the resident size the parent had at the fork, so it would report
    the benchmark process rather than the pass.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def child_pass(cli, work: Path) -> int:
    """One pass over an existing corpus in this fresh process; prints peak RSS."""
    os.chdir(work)
    spec = json.loads(Path("commands.json").read_text(encoding="utf-8"))
    commands = [corpus.Command(c["name"], tuple(c["argv"]), tuple(c["outputs"])) for c in spec]
    _, _, errors = run_pass(cli, commands, Path("out/child"))
    print(json.dumps({"rss_kb": _peak_rss_kb(), "errors": errors}))
    return 0


def peak_rss_mb(workload: str, work: Path, commands) -> Tuple[float, Dict[str, str]]:
    (work / "commands.json").write_text(json.dumps(
        [{"name": c.name, "argv": c.argv, "outputs": c.outputs} for c in commands]))
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--child-pass", str(work)],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        failed = f"child exit {done.returncode}: {done.stderr.strip()[-300:]}"
        return 0.0, {c.name: failed for c in commands}
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return report["rss_kb"] / 1024.0, report["errors"]


# ---------------------------------------------------------------- environment


def _git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> Dict[str, str]:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (KeyError, TypeError, ValueError):
        return {"name": "unknown", "version": "unknown"}


def environment(seed: int, digest: str) -> Dict[str, object]:
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "perfeat").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "git_commit": _git_commit(ROOT),
        "source_digest": sources.hexdigest(),
        "seed": seed,
        "corpus_digest": digest,
    }


# ---------------------------------------------------------------------- runs


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _checked_pass(cli, built, ledger: Ledger, label: str, out: Path, first: Path,
                  after_each: Optional[Callable[[], None]] = None):
    walls, cpus, errors = run_pass(cli, built.commands, out, after_each)
    ledger.add(label, built.commands, errors,
               checks.compare_bytes(first, out, output_names(built.commands)))
    return walls, cpus


def _timed(args, cli, built, ledger: Ledger, work: Path, first: Path):
    """End-to-end metrics with tracing off; returns (reported, extra, samples)."""
    setup_seconds()  # warms the file cache and the bytecode of a fresh interpreter
    calibration_seconds(args.workload)  # makes the loop's inputs
    rss_mb, child_errors = peak_rss_mb(args.workload, work, built.commands)
    ledger.add("child", built.commands, child_errors,
               checks.compare_bytes(first, Path("out/child"), output_names(built.commands)))
    walls: Dict[str, List[float]] = defaultdict(list)
    passes: List[float] = []
    pass_cals: List[float] = []
    pass_cpus: List[float] = []
    cals: List[float] = []
    cal_all: List[float] = []
    setup: List[float] = []
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        cals.clear()
        cals.append(calibration_seconds(args.workload))
        pass_walls, cpus = _checked_pass(cli, built, ledger, f"pass{len(passes)}",
                                         Path("out/pass"), first,
                                         lambda: cals.append(calibration_seconds(args.workload)))
        passes.append(sum(pass_walls.values()))
        # Each command in calibration-loop units, against the loops just before and after it.
        pass_cals.append(sum(seconds * 2.0 / (cals[i] + cals[i + 1])
                             for i, seconds in enumerate(pass_walls.values())))
        cal_all.extend(cals)
        pass_cpus.append(sum(cpus.values()))
        for name, seconds in pass_walls.items():
            walls[name].append(seconds)
        setup.append(setup_seconds())  # spread over the run, like the passes
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds())
    n = len(passes)
    reported = {
        "wall_cal": (_median(pass_cals), "cal", n),
        "setup_s": (_median(setup), "s", len(setup)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    extra = {
        "wall_s": (_median(passes), "s", n),
        "cpu_s": (_median(pass_cpus), "s", n),
        "cal_loop_s": (_median(cal_all), "s", len(cal_all)),
    }
    extra.update({f"command.{name}_s": (_median(v), "s", n) for name, v in walls.items()})
    if args.workload == "midi_corpus":
        extra["midi_notes_per_s"] = (
            built.expect["notes"] / extra["command.extract-midi_s"][0], "notes/s", n)
    elif args.workload == "audio_corpus":
        extra["audio_x_realtime"] = (
            built.expect["audio_seconds"] / extra["command.extract-audio_s"][0],
            "audio_s/wall_s", n)
    else:
        for name in ("agreement", "cv_ols", "cv_pls"):
            extra[f"{name}_s"] = extra.pop(f"command.{name}_s")
    return reported, extra, {"pass_wall": passes, "pass_cal": pass_cals, "pass_cpu": pass_cpus,
                             "calibration_loop": cal_all, "setup": setup}


def _traced(args, cli, built, ledger: Ledger, first: Path):
    """Per-layer metrics from traced passes alternating with plain ones."""
    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    deadline = time.perf_counter() + args.seconds
    while min(len(plain), len(traced)) < 2 or time.perf_counter() < deadline:
        tracing = len(plain) > len(traced)
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            pass_walls, _ = _checked_pass(cli, built, ledger,
                                          f"pass{len(plain) + len(traced)}", Path("out/pass"),
                                          first)
        finally:
            tracer.uninstall()
        (traced if tracing else plain).append(sum(pass_walls.values()))
        if tracing:
            samples.append(layer_metrics(tracer, traced[-1]))
    tracer.dump(WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}.spans.npz")
    reported = {name: (_median([s[name] for s in samples]), UNITS[name], len(samples))
                for name in samples[0]}
    reported["trace_overhead_ratio"] = (
        _median(traced) / _median(plain), "ratio", min(len(plain), len(traced)))
    covered = [sum(s[name] for name in LAYER_TOTALS.values()) / s["trace.commands_s"]
               for s in samples]
    extra = {"trace.layer_sum_ratio": (min(covered), "ratio", len(samples))}
    return reported, extra, {"plain_pass_wall": plain, "traced_pass_wall": traced}


def measure(args, h, cli, work: Path) -> Tuple[Dict, Dict, Ledger, Dict]:
    """Everything one run measures; returns (reported, extra, ledger, record)."""
    built = corpus.build(h, args.workload, args.seed, Path("in"))
    probes = run_probes(h, cli, Tracer(), Path("probes"))
    ledger = Ledger()
    first = Path("out/first")
    _, _, errors = run_pass(cli, built.commands, first)
    names = output_names(built.commands)
    reference = "skipped: not the default seed"
    try:
        problems = checks.check_outputs(built, first)
        if args.seed == corpus.DEFAULT_SEED:
            reference = "checked"
            for name, found in checks.compare_reference(
                checks.REFERENCE_DIR / args.workload, first, names
            ).items():
                problems[name].extend(found)
    except Exception as err:  # an unreadable output fails its pass; the run goes on
        problems = {name: [f"check raised {type(err).__name__}: {err}"] for name in names}
    ledger.add("first", built.commands, errors, problems)
    if args.trace:
        reported, extra, samples = _traced(args, cli, built, ledger, first)
    else:
        reported, extra, samples = _timed(args, cli, built, ledger, work, first)
    extra["error_rate"] = (len(ledger.failures) / ledger.attempted, "ratio", ledger.attempted)
    record = {
        "environment": environment(args.seed, built.digest),
        "probes": probes,
        "reference_check": reference,
        "samples_s": samples,
    }
    return reported, extra, ledger, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=corpus.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="how long the timed passes run (at least three passes); "
                             "defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child-pass", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        h = corpus.attach_program()
    except corpus.MissingProgram as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import perfeat.cli as cli

    if args.child_pass:
        return child_pass(cli, Path(args.child_pass))

    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (WORK_ROOT / "results").mkdir(exist_ok=True)
    here = os.getcwd()
    os.chdir(work)
    try:
        reported, extra, ledger, record = measure(args, h, cli, work)
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    failed = len(ledger.failures)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"corpus={record['environment']['corpus_digest'][:16]}")
    for name, (value, unit, samples) in {**reported, **extra}.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<15} n={samples}")
    verdict = "PASS" if not failed else f"FAIL ({failed} of {ledger.attempted} commands)"
    print(f"  output check: {verdict}; reference {record['reference_check']}")
    for failure in ledger.failures[:10]:
        print(f"    {failure}")
    for name, outcome in record["probes"].items():
        print(f"  probe {name}: {outcome}")
    results = WORK_ROOT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace, seconds=args.seconds,
        metrics={name: {"value": v, "unit": u, "samples": n}
                 for name, (v, u, n) in {**reported, **extra}.items()},
        attempted=ledger.attempted, failed=failed, failures=ledger.failures,
    )
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"  results: {results.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
