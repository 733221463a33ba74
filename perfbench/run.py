"""Cold-CLI benchmark for isingforms.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from anywhere in a source checkout; the package is taken from ``src``
with no install. Each program run is a cold ``python -m isingforms ...``
child, started only after the previous one exited: a closed loop with one
client, because every user pays for one cold run per answer and the module
caches start empty each time.

Every run is checked three ways: its exit code and the sha256 of its stdout
against ``reference.json`` (recorded with ``--record``), the answer against
the free-fermion oracle in ``oracle.py``, and the seed-invariant facts of the
answer (ranks, denominators, check counts) against the first run of the same
benchmark run. A run failing any check counts in ``failed`` and its time is
left out of the medians.

``--trace 0`` reports the end-to-end metrics:

- ``wall_s``: median wall time of a workload child, spawn to exit;
- ``setup_s``: median wall time of ``python -m isingforms --help``, which
  imports the package and builds the parser; one such child runs in every
  step, so that set-up is sampled across the whole run;
- ``peak_rss_mb``: median ``ru_maxrss`` of the workload children.

Both times are calibrated. The host this was written on switches, for
seconds to minutes at a time, between two speeds about 1.7x apart (the same
child took 1.08 s and 2.05 s within four minutes), so the raw medians of
whole 55 s runs spread by up to 39 % (interquartile range over median, ten
runs). Each step therefore starts with ``CALIBRATION``, a fixed exact-
arithmetic child that does not touch the package; a child's time is reported
as its wall time over that step's calibration wall time, times
``CALIBRATION_S``, and the metric is the median of these. That brought the
same spread to 2 to 3 %. The raw medians are printed too, on lines of their
own, and are what a user would have waited.

``--trace 1`` alternates untraced children with children that run the same
command under ``spans.py`` and reports the per-layer metrics as medians over
the traced children, plus ``cli.report_bytes`` and ``trace.overhead_s``.

The seed shuffles the workload's inputs; a run visits them in that order,
cycling, for as long as ``--seconds`` allows. On ``hamming-half`` and
``corr-even4`` the inputs are every pair of positions carrying weight 1/2.
All pairs are equivalent under the code's automorphisms (AGL(3,2) is
3-transitive on hamming8, S4 acts on even:4), so their answers must agree,
but their costs do not: at ``--max-level 5`` on hamming8 they range over a
factor 1.9. A run therefore visits every pair, which is why hamming-half
stops at level 4 and corr-even4 at level 6. The other two workloads are
sized the same way, so that a run holds ten or more steps: on a 2-vCPU Xeon
at 2.1 GHz one child takes about 2.3 s (vir-sixteenth, level 12), 0.7 s
(hamming-half), 2 s (corr-even4) and 1.4 s (dual-hamming-vacuum, level 4).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
CALIBRATION = (
    "from fractions import Fraction\n"
    "acc = Fraction(0)\n"
    "for i in range(1, 60000):\n"
    "    acc += Fraction(i % 97, i % 89 + 1)\n"
)
# median wall time of 40 calibration children on the host that recorded
# reference.json: 2-vCPU Xeon at 2.1 GHz, CPython 3.11.7
CALIBRATION_S = 0.26


@dataclass(frozen=True)
class Workload:
    inputs: dict[str, list[str]]  # input key -> isingforms arguments
    check: Callable[[str], tuple[list[str], tuple]]


def _pairs(n: int) -> list[tuple[int, int]]:
    return list(itertools.combinations(range(1, n + 1), 2))


def _half(n: int, pair: tuple[int, int]) -> str:
    return ",".join("1/2" if k in pair else "0" for k in range(1, n + 1))


VIR_LEVEL, HAMMING_LEVEL, CORR_LEVEL, DUAL_LEVEL = 12, 4, 6, 4

WORKLOADS = {
    "vir-sixteenth": Workload(
        {"h=1/16": ["vir", "dims", "--h", "1/16", "--max-level", str(VIR_LEVEL)]},
        lambda text: oracle.check_vir_dims(text, Fraction(1, 16), VIR_LEVEL),
    ),
    "hamming-half": Workload(
        {
            f"{i},{j}": ["form", "verify", "--code", "hamming8", "--H", _half(8, (i, j)),
                         "--max-level", str(HAMMING_LEVEL)]
            for i, j in _pairs(8)
        },
        lambda text: oracle.check_form_verify(text, HAMMING_LEVEL),
    ),
    "corr-even4": Workload(
        {
            f"{i},{j}": ["corr", "--H1", _half(4, (i, j)), "--H2", _half(4, (i, j)),
                         "--H3", "0,0,0,0", "--code", "even:4", "--c", "1",
                         "--max-level", str(CORR_LEVEL)]
            for i, j in _pairs(4)
        },
        oracle.check_corr,
    ),
    "dual-hamming-vacuum": Workload(
        {"vacuum": ["dual", "--power", "8", "--code", "hamming8", "--H", "0,0,0,0,0,0,0,0",
                    "--level", str(DUAL_LEVEL), "--compare"]},
        oracle.check_dual,
    ),
}


@dataclass
class Child:
    exit_code: int
    stdout: bytes
    wall_s: float
    rss_mb: float
    spans: dict | None = None
    calibration_s: float | None = None  # the wall time of its step's calibration child


def _env() -> dict[str, str]:
    """The caller's environment, less the settings that change a child's work:
    children cache bytecode and buffer stdout as an installed command does."""
    env = dict(os.environ)
    for name in ("ISINGFORMS_WORKERS", "PYTHONDONTWRITEBYTECODE", "PYTHONUNBUFFERED"):
        env.pop(name, None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def spawn(args: list[str], traced: bool = False) -> Child:
    """One cold ``isingforms`` child, optionally under ``spans.py``."""
    if not traced:
        return launch([sys.executable, "-m", "isingforms", *args])
    reader, writer = os.pipe()
    return launch([sys.executable, str(HERE / "spans.py"), str(writer), *args],
                  reader, writer)


def launch(cmd: list[str], reader: int | None = None, writer: int | None = None) -> Child:
    """One child, timed from spawn to exit and reaped with wait4 for its rusage.

    With ``reader`` and ``writer`` (a pipe), the child gets ``writer`` and
    the JSON it writes there becomes ``Child.spans``.
    """
    fds = () if writer is None else (writer,)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=_env(), cwd=ROOT, pass_fds=fds)
    for fd in fds:
        os.close(fd)
    stdout = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    summary = None
    if reader is not None:
        with os.fdopen(reader, "rb") as pipe:
            raw = pipe.read()
        summary = json.loads(raw) if raw else None
    return Child(proc.returncode, stdout, wall, usage.ru_maxrss / 1024, summary)


@dataclass
class Tally:
    """Runs attempted and failed, with the first reasons for failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)
    facts: tuple | None = None

    def judge(self, workload: Workload, key: str, child: Child, reference: dict,
              traced: bool = False) -> bool:
        self.attempted += 1
        problems = ["the traced child wrote no spans"] if traced and child.spans is None else []
        want = reference.get(key)
        if want is None:
            problems.append("no reference recorded")
        else:
            if child.exit_code != want["exit"]:
                problems.append(f"exit {child.exit_code}, reference {want['exit']}")
            if hashlib.sha256(child.stdout).hexdigest() != want["sha256"]:
                problems.append("stdout differs from the reference")
        try:
            found, facts = workload.check(child.stdout.decode())
        except (KeyError, ValueError, UnicodeDecodeError) as exc:
            found, facts = [f"unreadable report ({exc!r})"], None
        problems += found
        if self.facts is None:
            self.facts = facts
        elif facts != self.facts:
            problems.append(f"seed-invariant facts {facts} differ from {self.facts}")
        if problems:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{key}: " + "; ".join(problems))
        return not problems

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def calibrate(tally: Tally) -> float | None:
    """The wall time of one calibration child, or None if it failed."""
    child = launch([sys.executable, "-c", CALIBRATION])
    tally.attempted += 1
    if child.exit_code == 0:
        return child.wall_s
    tally.failed += 1
    tally.reasons.append(f"calibration: exit {child.exit_code}")
    return None


def measure_setup(tally: Tally, setup: list[Child], calibration_s: float | None):
    """One cold ``--help``: import the package and build the parser."""
    child = spawn(["--help"])
    child.calibration_s = calibration_s
    tally.attempted += 1
    if child.exit_code == 0 and child.stdout:
        setup.append(child)
    else:
        tally.failed += 1
        tally.reasons.append(f"--help: exit {child.exit_code}")


def measure(workload: Workload, order: list[str], seconds: float, trace: bool,
            reference: dict, tally: Tally):
    """Closed loop over the seeded input order until the next step would overrun.

    A step is a calibration child, a set-up child and a workload child, or
    with ``trace`` a workload child and its traced twin. Returns the set-up
    children that passed and the untraced and traced children, each as
    (child, passed).
    """
    setup, plain, traced, step_walls = [], [], [], []
    start = time.perf_counter()
    for key in itertools.cycle(order):
        step = time.perf_counter()
        calibration_s = None
        if not trace:
            calibration_s = calibrate(tally)
            measure_setup(tally, setup, calibration_s)
        child = spawn(workload.inputs[key])
        child.calibration_s = calibration_s
        plain.append((child, tally.judge(workload, key, child, reference)))
        if trace:
            child = spawn(workload.inputs[key], traced=True)
            traced.append((child, tally.judge(workload, key, child, reference, traced=True)))
        step_walls.append(time.perf_counter() - step)
        if time.perf_counter() - start + statistics.median(step_walls) > seconds:
            return setup, plain, traced


def _usable(children: list[tuple[Child, bool]]) -> list[Child]:
    """The children that passed; all of them when none did, so that a failed
    benchmark run still reports what it measured."""
    return [c for c, ok in children if ok] or [c for c, _ in children]


def _calibrated(children: list[Child]) -> list[float]:
    return [CALIBRATION_S * c.wall_s / c.calibration_s for c in children if c.calibration_s]


def end_to_end(plain: list[tuple[Child, bool]], setup: list[Child]) -> dict[str, list[float]]:
    plain = _usable(plain)
    return {
        "wall_s": _calibrated(plain),
        "setup_s": _calibrated(setup),
        "peak_rss_mb": [c.rss_mb for c in plain],
        "raw.wall_s": [c.wall_s for c in plain],
        "raw.setup_s": [c.wall_s for c in setup],
        "raw.calibration_s": [c.calibration_s for c in plain if c.calibration_s],
    }


def per_layer(plain: list[tuple[Child, bool]],
              traced: list[tuple[Child, bool]]) -> dict[str, list[float]]:
    plain, traced = _usable(plain), [c for c in _usable(traced) if c.spans]
    out = {name: [c.spans["metrics"][name] for c in traced]
           for name in (traced[0].spans["metrics"] if traced else ())}
    out["cli.report_bytes"] = [len(c.stdout) for c in traced]
    if traced and plain:
        out["trace.overhead_s"] = [statistics.median([c.wall_s for c in traced])
                                   - statistics.median([c.wall_s for c in plain])]
    return out


def record() -> int:
    """Run every input of every workload once and store exit codes and hashes."""
    reference = {}
    for name, workload in WORKLOADS.items():
        reference[name] = {}
        for key, args in workload.inputs.items():
            child = spawn(args)
            problems, _ = workload.check(child.stdout.decode())
            if problems:
                print(f"{name} {key}: the oracle rejects the answer: {problems}", file=sys.stderr)
                return 1
            reference[name][key] = {
                "exit": child.exit_code,
                "sha256": hashlib.sha256(child.stdout).hexdigest(),
            }
            print(f"{name} {key}: exit {child.exit_code} {child.wall_s:.2f} s", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record reference.json from the current source")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isingforms" / "__main__.py").is_file():
        print(f"perfbench: no isingforms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.is_file():
        print(f"perfbench: {REFERENCE} is missing; run with --record", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text()).get(args.workload, {})
    order = sorted(workload.inputs)
    random.Random(args.seed).shuffle(order)

    tally = Tally()
    setup, plain, traced = measure(workload, order, args.seconds, bool(args.trace),
                                   reference, tally)
    values = per_layer(plain, traced) if args.trace else end_to_end(plain, setup)
    for reason in tally.reasons:
        print(f"failed: {reason}", file=sys.stderr)
    print(f"{args.workload}: seed {args.seed}, first input {order[0]}, "
          f"fail_rate {tally.failed}/{tally.attempted} = {tally.fail_rate:.3g}")
    result = {}
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in contract["per_layer" if args.trace else "end_to_end"]}
    for name in [*declared, *(sorted(values.keys() - declared.keys()))]:
        unit = declared.get(name, "s")
        samples = values.get(name) or [0.0]
        q1, q3 = _quartiles(samples)
        value = statistics.median(samples)
        print(f"{name}: median {value:.6g} {unit} (q1 {q1:.6g}, q3 {q3:.6g}, n={len(samples)})")
        if name in declared:
            result[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
