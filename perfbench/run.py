"""jrank benchmark: one workload, measured end to end or traced per layer.

    python3 perfbench/run.py --workload census --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a jrank checkout; it measures the code under that
checkout's ``src/``.  Inputs are generated from ``--seed`` into
``.perfbench_work/`` and every pass's outputs are checked.

``--trace 0`` is a closed loop with one client: each command of a pass runs as
a fresh ``python -m jrank.cli`` child with ``PYTHONPATH`` set to the
checkout's ``src/``, the next only after the previous one has exited, and
passes repeat until ``--seconds`` have elapsed.  Resources are taken per
child from ``os.wait4`` in the small ``spawn.py`` helper.  ``--trace 1`` runs the same commands in process
through ``jrank.cli.main``, alternating untraced and traced passes, and reports
the per-layer metrics of ``spans.py``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up runs once before the first pass and again after every pass, for at
# least SETUP_MIN_S each time, so its median samples the machine over the
# whole run as wall_s does.  The inputs are rewritten byte for byte.
SETUP_MIN_S = 1.0
IMPORT_REPEATS = 5  # samples of cli.import_s in a traced run
RUN_LIMIT_S = 170.0  # a run must end within 180 s


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout: str


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same set and dict layouts in every child
    return env


class Spawner:
    """The ``spawn.py`` helper: runs one child at a time and reports its resources.

    Children are not started from this process, because Linux charges a
    child's ``ru_maxrss`` with its parent's peak RSS at exec, and this
    process holds the generated corpus.
    """

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawn.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )

    def __enter__(self) -> Spawner:
        return self

    def __exit__(self, *exc: object) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def run(self, argv: list[str], log: Path, timeout: float) -> Child:
        """Run one child to completion; resources from ``os.wait4`` in the helper."""
        out = log.with_suffix(".out")
        request = {
            "argv": argv, "env": child_env(), "cwd": str(ROOT),
            "out": str(out), "err": str(log.with_suffix(".err")), "timeout": max(timeout, 1.0),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawn helper exited")
        result = json.loads(reply)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        return Child(result["returncode"], result["wall_s"], result["cpu_s"], result["maxrss_mb"], stdout)


def run_in_process(jrank_cli: Any, argv: list[str]) -> tuple[int, str]:
    """``jrank.cli.main(argv)`` with its output captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = jrank_cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, stdout.getvalue()


def in_process_pass(jrank_cli: Any, commands: list[Any], recorder: Any = None) -> list[tuple[int, str]]:
    """(exit code, stdout) of each command run through ``jrank.cli.main``; one ``cli.main`` span each when traced."""
    results = []
    for command in commands:
        with recorder.span("cli.main") if recorder else contextlib.nullcontext():
            results.append(run_in_process(jrank_cli, command.argv))
    return results


def bytes_under(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


@dataclass
class Tally:
    """Commands attempted and failed, with the first problems seen."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, name: str, code: int, problems: list[str]) -> None:
        self.attempted += 1
        if code != 0:
            problems = [f"{name}: exit code {code}", *problems]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: max(0, 10 - len(self.problems))])


def median_of(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    """One workload at one seed: set-up, then passes until ``seconds`` have elapsed."""

    def __init__(self, workload_name: str, seed: int, seconds: int, spawner: Spawner) -> None:
        import jrank.cli

        import checks
        from spans import Recorder
        from workloads import WORKLOADS

        self.started = time.perf_counter()
        self.cli = jrank.cli
        self.spawner = spawner
        self.workload = WORKLOADS[workload_name]
        self.seed, self.seconds = seed, seconds
        self.work = WORK / workload_name
        shutil.rmtree(self.work, ignore_errors=True)
        (self.work / "logs").mkdir(parents=True)
        self.out = self.work / "out"
        self.recorder = Recorder()
        self.tally = Tally()
        self.bytes_out = 0
        self.missing_sites: list[str] = []

        self.setup_s: list[float] = []
        self.inputs = self.set_up()
        self.inputs.expected = self.workload.expect(self.inputs, checks.load_oracles(ROOT))
        self.commands = self.workload.commands(self.inputs, self.out)

    def set_up(self) -> Any:
        """Generate and write the inputs, repeatedly for at least SETUP_MIN_S."""
        from workloads import set_up

        spent = 0.0
        while spent < SETUP_MIN_S:
            self.recorder.group = f"setup{len(self.setup_s)}"
            start = time.perf_counter()
            inputs = set_up(self.workload, self.seed, self.work / "inputs", self.recorder)
            self.setup_s.append(time.perf_counter() - start)
            spent += self.setup_s[-1]
        return inputs

    def time_left(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def more_passes(self, cycles: list[float], loop_start: float) -> bool:
        """Start another pass (and its set-up) only if it should end within ``--seconds``."""
        if not cycles:
            return True
        next_end = time.perf_counter() + cycles[-1]
        return next_end - loop_start <= self.seconds and self.time_left() > 2 * max(cycles) + 5

    def fresh_out(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def check_all(self, results: list[tuple[int, str]]) -> None:
        """Check each command's outputs once the pass is over (they do not overwrite each other)."""
        for command, (code, stdout) in zip(self.commands, results):
            problems = command.check(stdout) if code == 0 else []
            self.tally.record(command.argv[0], code, problems)

    def warm_up(self, repeats: int = 1) -> list[float]:
        """Import jrank in children (compiling its bytecode) and confirm they use SRC; the walls."""
        argv = [sys.executable, "-c", "import jrank.cli; print(jrank.cli.__file__)"]
        walls = []
        for i in range(repeats):
            child = self.spawner.run(argv, self.work / "logs" / f"import{i}", self.time_left())
            imported = Path(child.stdout.strip()).resolve()
            if child.returncode != 0 or imported.parent != SRC / "jrank":
                raise RuntimeError(f"children import jrank from {imported}, not {SRC / 'jrank'}")
            walls.append(child.wall_s)
        return walls

    def measure(self) -> dict[str, tuple[list[float], str]]:
        """Passes of fresh ``python -m jrank.cli`` children until the time is up."""
        self.warm_up()
        walls, cpus, rss, cycles = [], [], [], []
        loop_start = time.perf_counter()
        while self.more_passes(cycles, loop_start):
            self.fresh_out()
            children = []
            start = time.perf_counter()
            for i, command in enumerate(self.commands):
                argv = [sys.executable, "-m", "jrank.cli", *command.argv]
                children.append(self.spawner.run(argv, self.work / "logs" / f"{len(walls)}_{i}", self.time_left()))
            walls.append(time.perf_counter() - start)
            cpus.append(sum(c.cpu_s for c in children))
            rss.append(max(c.maxrss_mb for c in children))
            self.bytes_out = bytes_under(self.out)
            self.check_all([(c.returncode, c.stdout) for c in children])
            self.set_up()
            cycles.append(time.perf_counter() - start)
        ok = 1 - self.tally.failed / self.tally.attempted
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (walls, "s"),
            "cpu_s": (cpus, "s"),
            "peak_rss_mb": (rss, "MB"),
            "success_rate": ([ok], "ratio"),
        }

    def measure_traced(self) -> dict[str, tuple[list[float], str]]:
        """In-process passes, untraced and traced in turn, until the time is up."""
        from spans import installed, pass_metrics

        import_walls = self.warm_up(IMPORT_REPEATS)
        plain, traced, cycles, layers = [], [], [], []
        loop_start = time.perf_counter()
        while self.more_passes(cycles, loop_start):
            self.fresh_out()
            cycle_start = start = time.perf_counter()
            results = in_process_pass(self.cli, self.commands)
            plain.append(time.perf_counter() - start)
            self.check_all(results)

            self.fresh_out()
            group = f"pass{len(layers)}"
            self.recorder.group = group
            start = time.perf_counter()
            with installed(self.recorder) as self.missing_sites:
                results = in_process_pass(self.cli, self.commands, self.recorder)
            traced.append(time.perf_counter() - start)
            self.check_all(results)
            self.bytes_out = bytes_under(self.out)
            layers.append({**pass_metrics(self.recorder, group), "cli.bytes_out": self.bytes_out})
            self.set_up()
            cycles.append(time.perf_counter() - cycle_start)

        metrics = {name: [m[name] for m in layers] for name in layers[0]}
        for metric, span in (("synth.generate_s", "synth.generate_corpus"), ("synth.write_s", "synth.write_corpus_files")):
            metrics[metric] = [s.end - s.start for s in self.recorder.spans if s.name == span]
        metrics["cli.import_s"] = import_walls
        metrics["trace.overhead_frac"] = [median_of(traced) / median_of(plain) - 1]
        self.write_spans()
        return {name: (values, layer_unit(name)) for name, values in metrics.items()}

    def write_spans(self) -> None:
        spans = [
            {"name": s.name, "group": s.group, "start": s.start, "end": s.end, "parent": s.parent, "counts": s.counts}
            for s in self.recorder.spans
        ]
        (self.work / "spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "robustness.share":
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def report(run: Run, trace: int, samples: dict[str, tuple[list[float], str]]) -> dict[str, Any]:
    """Print the human-readable summary; return the metrics of the JSON line."""
    w = run.workload
    print(f"workload {w.name}  seed {run.seed}  trace {trace}  jrank source {SRC / 'jrank'}")
    print(f"  machine: nproc={os.cpu_count()}  python={platform.python_version()}  numpy={numpy.__version__}")
    print(f"  why: {w.why}")
    props = {**run.inputs.properties(), "output_bytes": run.bytes_out}
    print("  inputs: " + "  ".join(f"{k}={v}" for k, v in props.items()))
    print(f"  {'metric':<28} {'unit':<6} {'n':>3} {'median':>12} {'min':>12} {'max':>12}")
    metrics = {}
    for name, (values, unit) in samples.items():
        value = median_of(values)
        metrics[name] = {"value": value, "unit": unit}
        lo, hi = (min(values), max(values)) if values else (0.0, 0.0)
        print(f"  {name:<28} {unit:<6} {len(values):>3} {value:>12.6g} {lo:>12.6g} {hi:>12.6g}")
    error_rate = run.tally.failed / run.tally.attempted
    print(f"  error_rate {error_rate:g} ({run.tally.failed} of {run.tally.attempted} commands failed)")
    for problem in run.tally.problems:
        print(f"  problem: {problem}")
    if run.missing_sites:
        print(f"  not traced (absent in this jrank): {', '.join(run.missing_sites)}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="census, robustness, classify, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "jrank" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"error: {ROOT} is not a jrank checkout (needs src/jrank and tests/oracles.py)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)} or all",
              file=sys.stderr)
        return 2

    attempted = failed = 0
    metrics: dict[str, Any] = {}
    with Spawner() as spawner:
        for name in names:
            run = Run(name, args.seed, args.seconds, spawner)
            samples = run.measure_traced() if args.trace else run.measure()
            found = report(run, args.trace, samples)
            attempted += run.tally.attempted
            failed += run.tally.failed
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
