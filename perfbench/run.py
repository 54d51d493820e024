"""The hyptorsion benchmark: fixed workloads, end-to-end times, per-layer spans.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):

  l32-modp          utilde(x051, 32, 5), the level-32 locus mod 5
  char0-search      characteristic_search and a locus over ZZ[x]
  certify-jacobian  verify_utilde on loci with roots in extension fields
  sweep-modp        about 110 small and medium loci over GF(p), one level per
                    job; runnable, but not in BENCHMARK.json: four workloads'
                    runs, each long enough to be steady, do not fit the time
                    the benchmark's full set of runs is allowed

Each pass of a workload runs single-threaded in a fresh worker process
(worker.py), so the package's memo caches start empty and peak memory is
that of one pass.  Passes run one after another, never two at once (on a
machine of a few CPUs a second pass slows the first), each pinned to a
CPU, taking the first two CPUs in turn, until every CPU has run a pass and
the passes have measured ``--seconds``.

On a shared machine other tenants slow a CPU down by 10-60% for seconds to
minutes at a time, one CPU independently of the other, so two runs of the
same code a few minutes apart can differ by a third in seconds.  Each pass
is therefore bracketed by two timings of a fixed reference computation
(reference.py) on its CPU, and wall_ref, the gated time metric, is the
pass's time to finish every job divided by the faster of its two reference
timings, as a median over the passes: the time to solution in a unit that
slows down with the machine.  wall_s, the same time in seconds, is the sum
over jobs of each job's minimum over the passes (noise only ever adds
time).  Set-up time is the median over the passes and extra set-up-only
processes.  With ``--trace 1`` a final pass runs with spans installed
(spans.py); the per-layer numbers come from it and its spans are written
to perfbench/out/.

Every output is checked after the timed region (workloads.py).  The report
prints wall_ref, wall_s, job_p50_s, job_tail_s (workloads of 20 jobs or
more), setup_s, peak_rss_mb and failed_frac; its last line is one JSON object with
correct, attempted, failed and the metrics BENCHMARK.json lists.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # set-up is timed at least this many times per run
DEADLINE_S = 170.0
UNITS = {"wall_ref": "ref", "wall_s": "s", "job_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, deadline: float, cpu: int, *flags: str) -> dict:
    """Run one worker process, pinned to ``cpu``, to its end and return its
    result."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            preexec_fn=partial(os.sched_setaffinity, 0, {cpu}))
    try:
        out, err = proc.communicate(timeout=max(deadline - perf_counter(), 0.1))
    except subprocess.TimeoutExpired as e:
        raise BenchError("worker did not finish before the deadline") from e
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_reference(cpu: int, deadline: float) -> float:
    """Seconds the reference computation takes on ``cpu`` now."""
    try:
        out = subprocess.run([sys.executable, str(HERE / "reference.py")], cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=max(deadline - perf_counter(), 0.1),
                             preexec_fn=partial(os.sched_setaffinity, 0, {cpu}))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"reference computation failed: {e}") from e
    return float(out.stdout)


def run_pass(workload: str, seed: int, deadline: float, cpu: int, *flags: str) -> dict:
    """One pass on ``cpu``, between two timings of the reference computation."""
    before = run_reference(cpu, deadline)
    result = run_worker(workload, seed, deadline, cpu, *flags)
    return result | {"cpu": cpu, "ref_s": [before, run_reference(cpu, deadline)]}


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest percentile with at least ten
    samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hyptorsion" / "__init__.py").is_file():
        print(f"error: no hyptorsion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + DEADLINE_S
    cpus = sorted(os.sched_getaffinity(0))[:2]
    passes, measured = [], 0.0
    while measured < args.seconds or len(passes) < len(cpus):
        cpu = cpus[len(passes) % len(cpus)]
        passes.append(run_pass(args.workload, args.seed, deadline, cpu))
        measured += passes[-1]["wall_s"]
    traced = run_pass(args.workload, args.seed, deadline, cpus[0], "--trace") if args.trace else None
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        cpu = cpus[len(setups) % len(cpus)]
        setups.append(run_worker(args.workload, args.seed, deadline, cpu, "--setup-only")["setup_s"])

    runs = passes + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    job_s = [min(times) for times in zip(*(p["job_s"] for p in passes))]
    wall_s = sum(job_s)
    e2e = {
        "wall_ref": statistics.median(p["wall_s"] / min(p["ref_s"]) for p in passes),
        "wall_s": wall_s,
        "job_p50_s": statistics.median(job_s),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)} (one at a time, on CPUs {cpus} in turn)  "
          f"jobs per pass {passes[0]['attempted']}  closed loop, 1 caller  "
          f"correctness gate {passes[0]['gate_s']:.1f} s per pass")
    print("  passes (cpu, wall_s, reference s): "
          + ", ".join(f"({p['cpu']}, {p['wall_s']:.3f}, {min(p['ref_s']):.4f})" for p in passes))
    for line in passes[0]["inputs"]:
        print(f"  input: {line}")
    for name, value in e2e.items():
        print(f"  {name:<16} {value:12.6f} {UNITS[name]}")
    if passes[0]["attempted"] >= 20:
        pct, value = tail(job_s)
        print(f"  {'job_tail_s':<16} {value:12.6f} s   (p{pct:.1f} of {len(job_s)} jobs)")
    print(f"  {'failed_frac':<16} {len(failures) / attempted:12.6f}     ({len(failures)} of {attempted} jobs)")
    for name, value in passes[0]["counts"].items():
        if value:
            print(f"  {name:<32} {value}")
    for f in failures:
        print(f"  FAILED {f}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if traced is None:
        listed, values = spec["end_to_end"], e2e
    else:
        layers = dict(traced["layers"])
        layers.update(traced["counts"])
        traced_ref = traced["wall_s"] / min(traced["ref_s"])
        layers["trace.overhead_frac"] = traced_ref / e2e["wall_ref"] - 1.0
        print(f"traced pass: wall_ref {traced_ref:.6f}  (untraced {e2e['wall_ref']:.6f}), "
              f"spans in {traced['spans_path']}")
        for name in traced["absent"]:
            print(f"  absent: {name} (no such function in the package)")
        for name, value in traced["extra_counts"].items():
            print(f"  {name:<32} {value}")
        for name in sorted(layers):
            print(f"  {name:<40} {layers[name]}")
        print("  poly operand sizes: kernel, domain, operands, max degree, max coefficient bits")
        for row in traced["sizes"]:
            print("    " + "  ".join(str(c) for c in row))
        listed, values = spec["per_layer"], layers
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed if m["name"] in values}
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
