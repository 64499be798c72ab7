#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the trimobius CLI.

    python3 perfbench/run.py --workload tri-series --seed 1 --seconds 40 --trace 0

Each command of a workload runs in a fresh ``python -m trimobius.cli``
process, with the working tree's ``src/`` on PYTHONPATH, one at a time: a
closed loop with one client.  The commands repeat round-robin while the
next run fits in ``--seconds``, and a pass (each command once) is costed
from per-command medians.  Every output is checked, and the seeded oracle
check runs after the timed runs.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` every command alternates between an untraced run and a run
under ``trace_driver.py``, which records a span around each layer's public
functions, and the result holds the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds provenance and per-command detail.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import gate
import spans as spanlib
from trace_driver import COUNT_SPAN, COUNTERS, TRACED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed for setup_s in every untraced run.
SETUP_SAMPLES = 7
# A command slower than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 150


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    n: int
    out: str | None  # file written through --out, relative to the work directory
    check: Callable


# N values are fixed: the seed chooses only the oracle's sampled rows.
WORKLOADS = {
    # The paper's headline series at 1e5; ~80% of it is the triangular
    # predecessor build, which each command repeats.
    "tri-series": (
        Command("sums", ("sums", "-n", "100000", "--format", "json"), 100_000,
                "sums.json", gate.check_sums),
        Command("ratio-sums", ("ratio-sums", "-n", "100000", "--denom", "value",
                               "--format", "json"), 100_000,
                "ratio-sums.json", gate.check_ratio_sums),
        Command("abs-sums", ("abs-sums", "-n", "100000", "--format", "svg"), 100_000,
                "abs-sums.svg", gate.check_abs_sums_svg),
    ),
    # Pairwise covering checks and DOT output at 5e4, mostly on the identity
    # kind, whose predecessor build is cheap.
    "hasse": (
        Command("hasse", ("hasse", "-n", "50000"), 50_000,
                "hasse.dot", gate.dot_check(84_446, gate.SHA256["hasse"])),
        Command("hasse-identity", ("hasse", "--kind", "identity", "-n", "50000"), 50_000,
                "hasse-identity.dot", gate.dot_check(129_954, gate.SHA256["hasse-identity"])),
    ),
    # Dense oracle, proposition scan, classical sieve and a 1e6-line b-file;
    # the triangular builder runs only at n <= 800, so builder work bypasses it.
    "checks": (
        Command("verify", ("verify", "-n", "800"), 800, None, gate.check_verify),
        Command("mobius-matrix", ("mobius-matrix", "-n", "400", "--format", "csv"), 400,
                "mobius-matrix.csv", gate.sha_check(gate.SHA256["mobius-matrix"])),
        Command("props", ("props", "--max-n", "100000"), 100_000, None, gate.check_props),
        Command("oeis-diff", ("oeis-diff", "--series", "sums"), 10, None,
                gate.check_oeis_diff),
        Command("classical", ("classical", "-n", "1000000", "--series", "mertens",
                              "--format", "bfile"), 1_000_000,
                "classical.b", gate.bfile_check(1_000_000, 212, gate.SHA256["classical"])),
    ),
}

ORACLES = {
    "tri-series": gate.oracle_tri_series,
    "hasse": gate.oracle_hasse,
    "checks": gate.oracle_checks,
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

LAYER_SPANS = [f"{module}.{fn}" for module, _, fn in TRACED]
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in LAYER_SPANS},
    **{f"{name}.calls": "count" for name in LAYER_SPANS},
    **{name: ("bytes" if name.endswith("bytes_out") else "count") for name in COUNTERS},
    "trace.overhead_frac": "frac",
}



@dataclass
class Outcome:
    """One command run: its cost, and what went wrong, if anything."""

    label: str
    traced: bool
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    run_error: str | None = None
    check_error: str | None = None
    layers: dict = field(default_factory=dict)  # per-layer metrics of a traced run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_process(argv: list[str], workdir: Path, stem: str, timeout: float):
    """Run argv to completion; return (wall_s, rusage, exit code, stdout, stderr)."""
    stdout_path = workdir / f"{stem}.stdout"
    stderr_path = workdir / f"{stem}.stderr"
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=workdir, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (wall, usage, proc.returncode,
            stdout_path.read_text(encoding="utf-8", errors="replace"),
            stderr_path.read_text(encoding="utf-8", errors="replace"))


def run_command(cmd: Command, workdir: Path, traced: bool, deadline: float) -> Outcome:
    argv = list(cmd.argv) + (["--out", cmd.out] if cmd.out else [])
    spans_path = workdir / f"{cmd.label}.spans.json"
    if traced:
        argv = [sys.executable, str(HERE / "trace_driver.py"), str(spans_path), "--"] + argv
    else:
        argv = [sys.executable, "-m", "trimobius.cli"] + argv
    timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - perf_counter()))
    wall, usage, rc, stdout, stderr = run_process(argv, workdir, cmd.label, timeout)
    outcome = Outcome(cmd.label, traced, wall, usage.ru_utime + usage.ru_stime,
                      usage.ru_maxrss)
    if rc != 0:
        reason = "killed after the timeout" if rc < 0 else f"exit code {rc}"
        outcome.run_error = f"{cmd.label}: {reason}: {stderr.strip()[-200:]}"
        outcome.check_error = f"{cmd.label}: output not checked, the command failed"
        return outcome
    outcome.check_error = check_output(cmd, stdout, workdir)
    if traced:
        outcome.layers = layer_metrics(json.loads(spans_path.read_text(encoding="utf-8")))
    return outcome


def check_output(cmd: Command, stdout: str, workdir: Path) -> str | None:
    try:
        return cmd.check(stdout, workdir / cmd.out if cmd.out else None)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"{cmd.label}: unreadable output: {exc!r}"


def layer_metrics(recorded: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans and counters."""
    metrics = {f"{name}.self_s": 0.0 for name in LAYER_SPANS}
    metrics.update({f"{name}.calls": 0 for name in LAYER_SPANS})
    for name, (self_s, calls) in spanlib.layer_totals(recorded["spans"]).items():
        if name != COUNT_SPAN:
            metrics[f"{name}.self_s"] = self_s
            metrics[f"{name}.calls"] = calls
    metrics.update(recorded["counters"])
    return metrics


def tally(outcomes: list[Outcome], oracle_error: str | None) -> tuple[int, list[str]]:
    """Operations attempted (each command, each output check, the oracle) and the failures."""
    errors = [e for o in outcomes for e in (o.run_error, o.check_error) if e]
    if oracle_error:
        errors.append(oracle_error)
    return 2 * len(outcomes) + 1, errors


def failed_frac(attempted: int, errors: list[str]) -> float:
    return len(errors) / attempted


def measure(commands, workdir: Path, seconds: float, trace: bool,
            deadline: float) -> list[Outcome]:
    """Run the commands round-robin until the next run would overrun `seconds`.

    Every command runs at least once (and once traced with `trace`); after
    that a run starts only if its median so far still fits.
    """
    modes = (False, True) if trace else (False,)
    steps = [(cmd, traced) for cmd in commands for traced in modes]
    walls: dict[tuple[str, bool], list[float]] = {}
    outcomes = []
    start = perf_counter()
    for i in itertools.count():
        cmd, traced = steps[i % len(steps)]
        key = (cmd.label, traced)
        if i >= len(steps) and perf_counter() - start + statistics.median(walls[key]) > seconds:
            break
        outcome = run_command(cmd, workdir, traced, deadline)
        outcomes.append(outcome)
        walls.setdefault(key, []).append(outcome.wall_s)
    return outcomes


def by_label(outcomes: list[Outcome]) -> dict[str, list[Outcome]]:
    runs: dict[str, list[Outcome]] = {}
    for outcome in outcomes:
        runs.setdefault(outcome.label, []).append(outcome)
    return runs


def command_medians(outcomes: list[Outcome]) -> dict[str, dict[str, float]]:
    """Per command: run count, wall times, and median wall time, CPU time and peak RSS."""
    return {
        label: {
            "runs": len(runs),
            "wall_s_each": [o.wall_s for o in runs],
            "wall_s": statistics.median(o.wall_s for o in runs),
            "cpu_s": statistics.median(o.cpu_s for o in runs),
            "rss_mb": statistics.median(o.maxrss_kb for o in runs) / 1024.0,
        }
        for label, runs in by_label(outcomes).items()
    }


def pass_estimate(outcomes: list[Outcome]) -> dict[str, float]:
    """The cost of one pass (each command once), from per-command medians.

    wall_s and cpu_s sum the commands' medians and peak_rss_mb is the
    largest command's.  A median per command keeps one run slowed by a
    neighbour on a shared machine out of the result.
    """
    medians = command_medians(outcomes).values()
    return {
        "wall_s": sum(m["wall_s"] for m in medians),
        "cpu_s": sum(m["cpu_s"] for m in medians),
        "peak_rss_mb": max(m["rss_mb"] for m in medians),
    }


def pass_layers(outcomes: list[Outcome]) -> dict[str, float]:
    """Per-layer metrics of one pass: per-command medians, combined over commands.

    Times and call counts add up; of the counters, pred_entries keeps the
    largest table and the others add up.
    """
    metrics = {}
    per_command = [
        {name: statistics.median_low(o.layers[name] for o in runs) for name in runs[0].layers}
        for runs in by_label([o for o in outcomes if o.layers]).values()
    ]
    for name, unit in PER_LAYER_UNITS.items():
        values = [row[name] for row in per_command if name in row]
        combine = COUNTERS.get(name, sum)
        metrics[name] = combine(values) if values else 0
    return metrics


def measure_setup(workdir: Path, deadline: float) -> list[float]:
    """Wall time of a fresh interpreter that imports trimobius, SETUP_SAMPLES times."""
    samples = []
    for i in range(SETUP_SAMPLES):
        timeout = max(1.0, min(COMMAND_TIMEOUT_S, deadline - perf_counter()))
        wall, _, rc, _, stderr = run_process(
            [sys.executable, "-c", "import trimobius"], workdir, f"setup{i}", timeout)
        if rc != 0:
            raise RuntimeError(f"import trimobius failed: {stderr.strip()[-200:]}")
        samples.append(wall)
    return samples


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "trimobius").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "workload": workload,
        "commands": {c.label: {"argv": list(c.argv), "n": c.n} for c in WORKLOADS[workload]},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "loop": "closed, 1 client",
    }


def run_benchmark(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    start = perf_counter()
    deadline = start + 170.0
    setup = [] if trace else measure_setup(workdir, deadline)
    outcomes = measure(WORKLOADS[workload], workdir, seconds, trace, deadline)
    try:
        oracle_error = ORACLES[workload](workdir, random.Random(seed))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        oracle_error = f"oracle check: unreadable output: {exc!r}"
    attempted, errors = tally(outcomes, oracle_error)

    untraced = [o for o in outcomes if not o.traced]
    estimate = pass_estimate(untraced)
    if trace:
        traced = [o for o in outcomes if o.traced]
        metrics = pass_layers(traced)
        metrics["trace.overhead_frac"] = (
            pass_estimate(traced)["wall_s"] / estimate["wall_s"] - 1.0)
        units = PER_LAYER_UNITS
    else:
        metrics = dict(estimate, setup_s=statistics.median(setup))
        units = END_TO_END_UNITS
    return {
        "detail": {
            "provenance": provenance(workload, seed, seconds, trace),
            "runs": {"untraced": len(untraced), "traced": len(outcomes) - len(untraced),
                     "setup": len(setup)},
            "per_command": command_medians(untraced),
            "setup_s": setup,
            "failed_frac": failed_frac(attempted, errors),
            "errors": errors,
            "run_s": perf_counter() - start,
        },
        "result": {
            "correct": not errors,
            "attempted": attempted,
            "failed": len(errors),
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def print_report(workload: str, report: dict) -> None:
    detail, result = report["detail"], report["result"]
    runs = detail["runs"]
    print(f"workload {workload}: {runs['untraced']} untraced and {runs['traced']} traced "
          f"command runs, closed loop, 1 client, seed {detail['provenance']['seed']}")
    for label, m in detail["per_command"].items():
        print(f"  {label:<16} {m['runs']} runs, median {m['wall_s']:.4f} s wall, "
              f"{m['cpu_s']:.4f} s cpu, {m['rss_mb']:.1f} MB")
    from_medians = "  (sum of per-command medians)"
    notes = {"wall_s": from_medians, "cpu_s": from_medians,
             "peak_rss_mb": "  (largest per-command median)",
             "setup_s": f"  (median of {runs['setup']})"}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6f}"
        print(f"  {name:<42} {shown} {metric['unit']}{notes.get(name, '')}")
    print(f"  {'failed_frac':<42} {detail['failed_frac']:>14.6f} frac  "
          f"({result['failed']} of {result['attempted']} operations)")
    for error in detail["errors"]:
        print(f"  FAIL {error}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trimobius" / "cli.py").is_file():
        print(f"error: no trimobius sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # a terminated benchmark still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        report = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                               Path(tmp))
    print_report(args.workload, report)
    print(json.dumps(report["detail"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
