"""nillat benchmark: one workload per run, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload symplectic-h1 --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

Run from anywhere inside a checkout that holds `src/nillat`; the library is
always imported from that checkout's `src`.  The workloads and their mixes
are described in `perfbench/workloads.py` and `BENCHMARK.json`.

Untraced (`--trace 0`): one client in a closed loop runs whole cycles of the
workload until the measured request time reaches `--seconds` and at least
100 requests are in (so at least 10 lie above the pooled p90).  Every cycle
holds the same mix, so each cycle gives one estimate of the mix's p50 and
p90; the reported percentiles are the mean of those per-cycle estimates.
On a shared machine the CPU speed can change for seconds at a time; a
percentile pooled over the run then jumps between the speeds when the
requests at that rank all cost about the same, while the per-cycle mean
moves smoothly with the share of the run spent at each speed.  The last stdout
line is the result object; the lines before it print every metric with its
unit.
Each cycle's outputs are checked as it completes, outside the timed calls;
a request fails if it raises or its output fails a check (error_rate =
failed / attempted).

Traced (`--trace 1`): a fixed number of cycles (derived from `--seconds`,
so counts repeat exactly for a seed) runs untraced, then again with the
`perfbench.tracing` wrappers installed.  The per-layer metrics come from
the traced pass; both passes' outputs must be identical; their rates give
the tracing overhead.  Spans go to `perfbench/out/spans-*.jsonl`.

Every run also writes `perfbench/out/<workload>-seed<seed>-trace<t>.json`,
stamped with the Python version, CPU count and model, git commit and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("symplectic-h1", "filiform-isom", "exact-decisions", "cli")
MIN_SAMPLES = 100          # p90 then has at least 10 samples above it
WALL_CAP_S = 140.0         # stop measuring early rather than overrun the 180 s limit
SETUP_REPEATS = 7


def _import_library():
    """Import nillat from this checkout's src and the benchmark package; fail loudly otherwise."""
    if not (SRC / "nillat" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {SRC / 'nillat'}; run inside a full checkout")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import nillat

    if Path(nillat.__file__).resolve().parent != (SRC / "nillat").resolve():
        raise SystemExit(f"perfbench: imported nillat from {nillat.__file__}, not from {SRC}")
    from perfbench import workloads

    return workloads


def setup_once(name: str, seed: int) -> float:
    """Seconds from before `import nillat` until the first cycle's inputs exist."""
    t0 = time.perf_counter()
    workloads = _import_library()
    workloads.get(name, str(ROOT)).cycle(seed, 0)
    return time.perf_counter() - t0


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def execute(workload, cycles, tracer=None, in_process=False):
    """Run requests one at a time (closed loop, one client); time each call only."""
    from perfbench.workloads import Record

    records = []
    for reqs in cycles:
        for req in reqs:
            call = req.call_in_process if in_process and req.call_in_process else req.call
            if tracer is not None:
                tracer.request = (req.rid, req.dim)
            k0 = _child_cpu()
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # noqa: BLE001 - a raising request is a failed request
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            c1 = time.process_time()
            k1 = _child_cpu()
            records.append(Record(req, result, error, t1 - t0, (c1 - c0) + (k1 - k0)))
    return records


def check_cycle(workload, records, bad: dict, circle) -> None:
    """File into `bad` the requests of `records` that raised or gave a wrong output."""
    bad.update((r.req.rid, r.error) for r in records if r.error is not None)
    workload.check([r for r in records if r.error is None], bad, circle)


def run_untraced(workload, seed: int, seconds: float):
    """Whole cycles until `seconds` of request time and MIN_SAMPLES requests are measured.

    Each cycle is checked as soon as it completes and then dropped, so the
    process holds one cycle's outputs at a time.  Returns (each cycle's
    latencies, CPU times, failures, pending unit-circle oracle).
    """
    from perfbench.oracles import CircleOracle

    cycles, cpu, bad, circle = [], [], {}, CircleOracle()
    measured = 0.0
    started = time.perf_counter()
    while (measured < seconds or sum(map(len, cycles)) < MIN_SAMPLES) and time.perf_counter() - started < WALL_CAP_S:
        records = execute(workload, [workload.cycle(seed, len(cycles))])
        cycles.append([r.latency_s for r in records])
        cpu.extend(r.cpu_s for r in records)
        measured += sum(cycles[-1])
        check_cycle(workload, records, bad, circle)
    return cycles, cpu, bad, circle


def end_to_end(cycles, cpu, setup_samples, peak_rss_mb):
    """The end-to-end metrics as {name: (value, unit)}, and the count of samples above the pooled p90.

    `cycles` holds the request latencies (s) of each cycle.  p50 and p90 are
    taken within each cycle and averaged over the cycles.
    """
    per_cycle = [statistics.quantiles([x * 1000 for x in c], n=10, method="inclusive") for c in cycles]
    lat_ms = [x * 1000 for c in cycles for x in c]
    pooled_p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "latency_p50_ms": (statistics.fmean(q[4] for q in per_cycle), "ms"),
        "latency_p90_ms": (statistics.fmean(q[8] for q in per_cycle), "ms"),
        "decisions_per_s": (len(lat_ms) / (sum(lat_ms) / 1000), "1/s"),
        "cpu_ms_per_decision": (1000 * sum(cpu) / len(cpu), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }, sum(x > pooled_p90 for x in lat_ms)


def setup_samples(name: str, seed: int) -> list[float]:
    """Set-up time of SETUP_REPEATS fresh processes, each importing nillat and building cycle 0."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def spawn_probes(repeats: int = 5) -> tuple[float, float]:
    """(median ms of `python -c pass`, median ms of importing nillat.cli on top of it)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def median_ms(code):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120)
            times.append((time.perf_counter() - t0) * 1000)
        return statistics.median(times)

    spawn = median_ms("pass")
    return spawn, median_ms("import nillat.cli") - spawn


def stamp(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown" outside a clone."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    """(result object, human-readable lines, result-file document) of one run."""
    workload = _import_library().get(name, str(ROOT))
    info = {"workload": name, "seconds": seconds, "trace": int(trace), "mix": workload.mix, "why": workload.why}
    if trace:
        attempted, bad, metrics, lines = _traced(workload, seed, seconds, info)
    else:
        cycles, cpu, bad, circle = run_untraced(workload, seed, seconds)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        peak_mb = (kids if name == "cli" else own) / 1024   # cli requests run in child processes
        circle.resolve()
        metrics, above = end_to_end(cycles, cpu, setup_samples(name, seed), peak_mb)
        attempted = len(cpu)
        lines = [f"requests {attempted} in {len(cycles)} cycles, {above} above the pooled p90"]
        info.update(cycles=len(cycles), samples=attempted, above_p90=above)
    lines.append(f"error_rate {len(bad) / attempted:.6g} ({len(bad)} failed of {attempted})")
    lines.extend(f"failed request {rid}: {why}" for rid, why in list(bad.items())[:10])
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info.update(stamp=stamp(seed), failures={str(k): v for k, v in bad.items()}, result=result)
    return result, lines, info


def _traced(workload, seed, seconds, info):
    """Per-layer metrics: each cycle runs untraced, then traced, and the outputs must agree."""
    from perfbench.oracles import CircleOracle
    from perfbench.tracing import Tracer

    n_cycles = max(1, math.ceil(seconds / 10 * workload.trace_cycles_per_10s))
    tracer, bad, circle = Tracer(), {}, CircleOracle()
    plain_s = traced_s = 0.0
    attempted = 0
    for k in range(n_cycles):
        plain = execute(workload, [workload.cycle(seed, k)], in_process=True)
        reqs = workload.cycle(seed, k)
        tracer.install()
        try:
            traced = execute(workload, [reqs], tracer=tracer, in_process=True)
        finally:
            tracer.uninstall()
        check_cycle(workload, traced, bad, circle)
        for a, b in zip(plain, traced):
            if b.error is None and (a.error is not None or workload.canon(a) != workload.canon(b)):
                bad.setdefault(b.req.rid, "traced output differs from the untraced output")
        plain_s += sum(r.latency_s for r in plain)
        traced_s += sum(r.latency_s for r in traced)
        attempted += len(traced)
    circle.resolve()
    spawn_ms, import_ms = spawn_probes()
    metrics = dict(tracer.layer_metrics())
    metrics.update({
        "cli.spawn_ms": (spawn_ms, "ms"),
        "cli.import_ms": (import_ms, "ms"),
        "trace.requests": (attempted, "count"),
        "trace.decisions_per_s": (attempted / traced_s, "1/s"),
        "trace.untraced_decisions_per_s": (attempted / plain_s, "1/s"),
        "trace.slowdown": (traced_s / plain_s, "ratio"),
    })
    sanity = bypass_sanity(workload, tracer)
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload.name}-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in tracer.span_records():
            fh.write(json.dumps(span) + "\n")
    info.update(cycles=n_cycles, samples=attempted, bypass_sanity=sanity, missing_boundaries=tracer.missing,
                spans=str(spans_path.relative_to(ROOT)), spans_recorded=len(tracer.spans))
    lines = [f"requests {attempted} in {n_cycles} cycles, each cycle run untraced and then traced",
             f"bypass sanity: {'ok' if not sanity else '; '.join(sanity)}",
             f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return attempted, bad, metrics, lines


def bypass_sanity(workload, tracer) -> list[str]:
    """Boundaries whose call counts contradict what the workload is meant to exercise."""
    problems = []
    for metric in workload.stresses:
        if tracer.stats[metric][0] == 0:
            problems.append(f"{metric} never called")
    for metric in workload.bypasses:
        if tracer.stats[metric][0] != 0:
            problems.append(f"{metric} called {tracer.stats[metric][0]} times")
    return problems


def run_all(args) -> int:
    """Every workload in its own process; prints each table and one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *table, last = proc.stdout.strip().splitlines()
        print("\n".join(table))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=27.0, help="request time to measure (untraced)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        print(repr(setup_once(args.workload, args.seed)))
        return 0
    if args.workload == "all":
        return run_all(args)
    result, lines, info = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    title = f"{args.workload} seed {args.seed} {'traced' if args.trace else 'untraced'}"
    print(f"== {title}")
    for name, m in result["metrics"].items():
        print(f"  {name:52s} {m['value']:16.6f} {m['unit']}")
    for line in lines + [f"result file {path.relative_to(ROOT)}"]:
        print("  " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
