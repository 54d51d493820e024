"""One pass of one workload in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--setup-only]

Set-up (importing hyptorsion and building the workload's models) is timed
first.  The jobs then run one after another on a single thread, each timed
on its own; the correctness gate runs after the last job, outside the timed
region.  A traced pass writes its spans to perfbench/out/.  The pass prints
one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def public_counts(jobs, results) -> dict:
    """Counts read from the public results; they repeat exactly."""
    counts = {"search.witness_tries": 0, "search.witness_hits": 0, "search.candidate_primes": 0,
              "search.exceptional_primes": 0, "jacobian.certificates": 0}
    for job, result in zip(jobs, results):
        if result is None:
            continue
        if job.fn == "reduction_scan":
            for v in result:
                counts["search.witness_tries"] += sum(note.startswith("degree") for _, note in v.tried)
                counts["search.witness_hits"] += v.witness is not None
        elif job.fn == "characteristic_search":
            counts["search.candidate_primes"] += len(result.candidate_primes)
            counts["search.exceptional_primes"] += len(result.exceptional_primes)
        elif job.fn == "verify_utilde":
            counts["jacobian.certificates"] += len(result.certificates)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    t0 = perf_counter()
    import hyptorsion as H

    import workloads

    jobs, inputs = workloads.build(H, args.workload, args.seed)
    setup_s = perf_counter() - t0
    if not Path(H.__file__).resolve().is_relative_to(ROOT / "src"):
        raise RuntimeError(f"imported hyptorsion from {H.__file__}, not from {ROOT / 'src'}")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import spans

    tracer = None
    if args.trace:
        tracer = spans.Tracer(H)
        tracer.install()
    else:
        spans.assert_untraced()

    results, job_s = [], []
    start = perf_counter()
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t = perf_counter()
        try:
            result = getattr(H, job.fn)(*job.args)
        except Exception:  # a raising job is a failed job; keep running the rest
            traceback.print_exc()
            result = None
        job_s.append(perf_counter() - t)
        results.append(result)
    wall_s = perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed,
                                  "jobs": [j.label for j in jobs]}, start)
    gate_start = perf_counter()
    failures = []
    for job, result in zip(jobs, results):
        reason = "raised" if result is None else job.check(H, job, result)
        if reason is not None:
            failures.append(f"{job.label}: {reason}")

    out = {
        "gate_s": perf_counter() - gate_start,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "job_s": job_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(jobs),
        "failures": failures,
        "inputs": inputs,
        "counts": public_counts(jobs, results),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["extra_counts"] = {k: v for k, v in tracer.counts.items() if k.startswith("torsion.exit.")
                               and k.split(".")[-1] not in spans.EXIT_KINDS}
        out["absent"] = tracer.absent
        out["sizes"] = tracer.size_table()
        out["spans_path"] = str(spans_path.relative_to(ROOT))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
