"""Measurement core of the benchmark; ``run.py`` is the entry point.

Importing this module imports ``nkshed``, so ``src`` must be on ``sys.path``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from statistics import median, median_low

import numpy
import scipy

import nkshed
import tracing
import workloads
from lattice import lattice_text

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Minimum number of fresh interpreters per run whose median set-up time is reported.
SETUP_PROBES = 5

_LIBC = ctypes.CDLL(None)

END_TO_END = {"solve_s": "s", "setup_s": "s", "iterations": "count", "peak_rss_mb": "MiB"}

_PROBE = """
import json, sys, time
src, case_text, geo_text = json.loads(sys.stdin.read())
sys.path.insert(0, src)
t0 = time.perf_counter()
import nkshed
t1 = time.perf_counter()
nkshed.parse_geo(geo_text, nkshed.parse_case(case_text))
t2 = time.perf_counter()
print(json.dumps([t2 - t0, t2 - t1]))
"""


def probe_setup(case_text: str, geo_text: str) -> tuple[float, float]:
    """(import + parse, parse) seconds in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", _PROBE], cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=120,
                          input=json.dumps([str(SRC), case_text, geo_text]))
    setup_s, parse_s = json.loads(done.stdout.splitlines()[-1])
    return setup_s, parse_s


class StdoutCapture:
    """Points file descriptor 1 at a file; ``new_lines`` counts what arrived."""

    def __init__(self, path: Path):
        self.path = path
        self._seen = 0

    def __enter__(self) -> "StdoutCapture":
        sys.stdout.flush()
        self._saved = os.dup(1)
        with open(self.path, "wb") as sink:
            os.dup2(sink.fileno(), 1)
        return self

    def new_lines(self) -> int:
        _LIBC.fflush(None)  # C stdio buffers what HiGHS prints
        with open(self.path, "rb") as f:
            f.seek(self._seen)
            data = f.read()
        self._seen += len(data)
        return data.count(b"\n")

    def __exit__(self, *exc) -> None:
        _LIBC.fflush(None)
        sys.stdout.flush()
        os.dup2(self._saved, 1)
        os.close(self._saved)


@dataclass
class Sample:
    seconds: float
    failure: str | None
    noise_lines: int
    outcome: dict | None


def git_commit() -> str | None:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
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
    return None


def environment(seed: int, trace: bool) -> dict:
    try:
        from scipy.optimize._highspy import _core as highs
        highs_version = f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}.{highs.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs_version = None
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__, "highs": highs_version,
            "platform": platform.platform(), "git_commit": git_commit(), "seed": seed,
            "traced": trace}


def solve_once(w, net, capture: StdoutCapture, tracer=None) -> Sample:
    """Time one solve and check its answer; a solve that raises has failed."""
    outcome = failure = None
    start = time.perf_counter()
    try:
        if tracer is None:
            outcome = workloads.solve(w, net)
        else:
            with tracer.solve(tracing.ORACLE if w.oracle else tracing.ENGINE):
                outcome = workloads.solve(w, net)
    except Exception:  # counted as a failure; the run goes on
        failure = traceback.format_exc().strip()
    seconds = time.perf_counter() - start
    if outcome is not None:
        failure = workloads.check(w, outcome)
    return Sample(seconds, failure, capture.new_lines(),
                  None if outcome is None else asdict(outcome))


def solve_for(w, net, capture: StdoutCapture, seconds: float, probe, tracer=None) -> list[Sample]:
    """Alternate ``probe()`` and a solve, at least once, until the next solve would pass ``seconds``."""
    start = time.perf_counter()
    samples = []
    while not samples or time.perf_counter() - start + median(s.seconds for s in samples) <= seconds:
        probe()
        samples.append(solve_once(w, net, capture, tracer))
    return samples


def measure(w, case_text: str, geo_text: str, seconds: float, trace: bool,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run; returns the full record (see ``run.py``).

    Set-up probes run between solves rather than in one block, so their
    median spans the same stretch of machine time as the solves do.
    """
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        setups.append(probe_setup(case_text, geo_text))

    net = nkshed.parse_geo(geo_text, nkshed.parse_case(case_text))
    OUT.mkdir(exist_ok=True)
    record: dict = {"workload": w.name}
    with StdoutCapture(OUT / "highs-stdout.log") as capture:
        start = time.perf_counter()
        if not trace:
            samples = solve_for(w, net, capture, seconds, probe)
        else:
            base = solve_once(w, net, capture)
            with tracing.Tracer() as tracer:
                traced = solve_for(w, net, capture, seconds - (time.perf_counter() - start),
                                   probe, tracer)
            samples = [base] + traced
        while len(setups) < probes:
            probe()

    done = [s.outcome for s in samples if s.outcome is not None]
    if not trace:
        metrics = {
            "solve_s": median(s.seconds for s in samples),
            "setup_s": median(s for s, _ in setups),
            "iterations": median_low(o["iterations"] for o in done) if done else 0,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    else:
        rows = []
        for sample, spans in zip(traced, tracer.solves):
            row = tracing.layer_metrics(spans)
            out = sample.outcome or {}
            evaluated = out.get("iterations", 0) if w.oracle else 0
            row.update({
                "engine.cuts": out.get("cuts", 0),
                "engine.iters_to_best": out.get("iters_to_best", 0),
                "oracle.evaluated": evaluated,
                "oracle.attacks_per_s": evaluated / spans[0].duration,
                "backend.stdout_noise_lines": sample.noise_lines,
                "trace.solve_s": sample.seconds,
                "trace.overhead_s": sample.seconds - base.seconds,
            })
            rows.append(row)
        metrics = {name: median(row[name] for row in rows)
                   for name in tracing.PER_LAYER if name != "netmodel.parse_s"}
        metrics["netmodel.parse_s"] = median(p for _, p in setups)
        units = tracing.PER_LAYER
        record["spans"] = [[asdict(s) for s in spans] for spans in tracer.solves]
        record["unhooked"] = tracer.missing
        record["shares"] = {
            group: {name: metrics[name] / metrics["trace.solve_s"] for name in names}
            for group, names in (("call", tracing.CALL_TIMES), ("self", tracing.SELF_TIMES))}

    failed = sum(1 for s in samples if s.failure)
    record.update({
        "result": {
            "correct": failed == 0,
            "attempted": len(samples),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
        "failure_rate": failed / len(samples),
        "setups": setups,
        "samples": [asdict(s) for s in samples],
    })
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nkshed benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1,
                        help="labels the bus ids and geolocation grid of the input text")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    w = workloads.WORKLOADS[args.workload]
    case_text, geo_text = lattice_text(w.rows, w.cols, workloads.NET_SEED, args.seed)
    record = measure(w, case_text, geo_text, args.seconds, bool(args.trace))
    record["env"] = environment(args.seed, bool(args.trace))

    spans = record.pop("spans", None)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    if spans is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))

    result = record["result"]
    print(json.dumps({"env": record["env"]}))
    for name, m in result["metrics"].items():
        print(f"{w.name}  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"{w.name}  {'failure_rate':28s} {record['failure_rate']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for s in record["samples"]:
        if s["failure"]:
            print(f"{w.name}  failed: {s['failure'].splitlines()[-1]}")
    for group, shares in record.get("shares", {}).items():
        for name, share in shares.items():
            print(f"{w.name}  {group}-time share of solve_s  {name:24s} {share:.3f}")
    print(json.dumps(result))
    return 0

