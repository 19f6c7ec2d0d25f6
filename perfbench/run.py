"""Benchmark of the floergamma command line, one workload per invocation.

    python3 perfbench/run.py --workload invariants --seed 1 --seconds 25 --trace 0

A closed loop: one client in this process calls ``floergamma.cli.main``
in-process with the next job's argv once the previous job has returned;
no threads.  The job list is built from the seed and replayed in passes
until --seconds have passed.  Every job of every pass is checked by its
oracle (workloads.py) outside the timed region.

On a shared machine the CPU's speed swings by up to 40 % for
milliseconds to minutes, so a fixed calibration loop runs between jobs
and each job's time is reported at a reference speed (speed.py); a
job's time is its median over the passes:
  wall_s      the whole job list once: sum of the per-job times
  job_p50_ms  median of the per-job times (90th percentile: job_p90_ms)
  setup_s     median over fresh interpreters of the time to import
              floergamma.cli
  peak_rss_mb peak resident memory of this process
With --trace 1 passes alternate between untraced and traced (spans.py);
the traced passes give the per-layer metrics and trace.overhead_frac.

The last line of standard output is one JSON object: correct, attempted
and failed count job executions; a job fails when it raises or its exit
code or output disagrees with its oracle.  correct is false when a job
outside the recorded known defects fails, or when passes (traced or not)
print different outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 11


def import_seconds(module: str, after: str = "") -> float:
    """Median time, at the reference speed, for a fresh interpreter to import
    `module` (once `after` is imported)."""
    code = (f"import sys, time\n{'import ' + after if after else ''}\n"
            f"t = time.perf_counter()\nimport {module}\n"
            "elapsed = time.perf_counter() - t\n"
            f"sys.path.insert(0, {str(HERE)!r})\n"
            "from speed import module_exec_seconds\n"
            "speeds = sorted(module_exec_seconds() for _ in range(9))\n"
            "print(elapsed, speeds[4])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        elapsed, calibration = map(float, proc.stdout.split())
        times.append(elapsed * speed.REFERENCE_EXEC_S / calibration)
    return statistics.median(times)


def run_job(cli, argv: list[str]) -> tuple[float, tuple]:
    """(seconds, (exit code, stdout, stderr)); a raise becomes exit None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = None
            err.write(f"raised {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue())


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, spans_mod, passes: list[tuple[int, int, dict]]) -> dict:
    """Per-layer metrics of each traced pass; the median over passes."""
    selfs = spans_mod.self_times(tracer.spans)
    per_pass = []
    for lo, hi, counts in passes:
        calls, total, own = {}, {}, {}
        layer_self = dict.fromkeys(spans_mod.LAYERS, 0.0)
        for i in range(lo, hi):
            label, start, end = tracer.spans[i][:3]
            calls[label] = calls.get(label, 0) + 1
            total[label] = total.get(label, 0.0) + (end - start)
            own[label] = own.get(label, 0.0) + selfs[i]
            layer_self[label.split(".")[0]] += selfs[i]

        def c(label):
            return calls.get(label, 0)

        def s(label):
            return total.get(label, 0.0)

        def ratio(a, b):
            return a / b if b else 0.0

        ops = [f"equivariant.ops.{f}" for f in spans_mod.EQUIVARIANT_OPS]
        m = {
            "cli.jobs": c("cli.main"),
            "floer_datum.load_datum.calls": c("floer_datum.load_datum"),
            "floer_datum.load_datum.s": s("floer_datum.load_datum"),
            "floer_datum.validate.calls": c("floer_datum.validate"),
            "floer_datum.validate.s": s("floer_datum.validate"),
            "floer_datum.validate.per_job": ratio(c("floer_datum.validate"), c("cli.main")),
            "gamma.gamma.calls": c("gamma.gamma"),
            "gamma.gamma.self_s": own.get("gamma.gamma", 0.0),
            "gamma.gamma_profile.s": s("gamma.gamma_profile"),
            "gamma.h_invariant.calls": c("gamma.h_invariant"),
            "gamma.h_invariant.s": s("gamma.h_invariant"),
            "gamma.feasible_nonempty.calls": c("gamma.feasible_nonempty"),
            "gamma.feasible_nonempty.s": s("gamma.feasible_nonempty"),
            "gamma.probes_per_h": ratio(c("gamma.feasible_nonempty"), c("gamma.h_invariant")),
            "linalg.q_rank.calls": c("linalg.q_rank"),
            "linalg.q_rank.s": s("linalg.q_rank"),
            "linalg.q_rank.cells": counts.get("linalg.q_rank.cells", 0),
            "linalg.ranks_per_gamma": ratio(c("linalg.q_rank"), c("gamma.gamma")),
            "linalg.q_kernel_basis.calls": c("linalg.q_kernel_basis"),
            "linalg.q_kernel_basis.s": s("linalg.q_kernel_basis"),
            "linalg.q_solve.calls": c("linalg.q_solve"),
            "linalg.q_solve.s": s("linalg.q_solve"),
            "linalg.poly_matrix_rank.calls": c("linalg.poly_matrix_rank"),
            "linalg.poly_matrix_rank.s": s("linalg.poly_matrix_rank"),
            "linalg.poly_matrix_rank.cells": counts.get("linalg.poly_matrix_rank.cells", 0),
            "novikov.elements": counts.get("novikov.elements", 0),
            "novikov.to_rational_function.calls": c("novikov.to_rational_function"),
            "novikov.to_rational_function.s": s("novikov.to_rational_function"),
            "novikov.common_scale.s": s("novikov.common_scale"),
            "equivariant.verify_triangle.calls": c("equivariant.verify_triangle"),
            "equivariant.verify_triangle.s": s("equivariant.verify_triangle"),
            "equivariant.verify_triangle.self_s": own.get("equivariant.verify_triangle", 0.0),
            "equivariant.verify_triangle.fail": counts.get("equivariant.verify_triangle.fail", 0),
            "equivariant.ops.calls": sum(c(o) for o in ops),
            "equivariant.ops.s": sum(s(o) for o in ops),
            "cobordism.verify_tilde_chain_map.calls": c("cobordism.verify_tilde_chain_map"),
            "cobordism.verify_tilde_chain_map.s": s("cobordism.verify_tilde_chain_map"),
            "cobordism.verify_functoriality.s": s("cobordism.verify_functoriality"),
            "cobordism.mdeg_decay.s": s("cobordism.mdeg_decay"),
            "cobordism.correction_series.calls": c("cobordism.correction_series"),
            "cobordism.correction_series.s": s("cobordism.correction_series"),
            "cobordism.correction_series.per_distinct": ratio(
                c("cobordism.correction_series"), counts.get("correction_series.distinct", 0)),
            "cobordism.gamma_comparison.s": s("cobordism.gamma_comparison"),
            "cobordism.compose_tilde.s": s("cobordism.compose_tilde"),
            "seifert.r_invariant_cotangent.calls": c("seifert.r_invariant_cotangent"),
            "seifert.r_invariant_cotangent.s": s("seifert.r_invariant_cotangent"),
            "seifert.seifert_invariants.s": s("seifert.seifert_invariants"),
            "seifert.sweep.s": s("seifert.sweep"),
            "lattice.enumerate_up_to_norm.calls": c("lattice.enumerate_up_to_norm"),
            "lattice.enumerate_up_to_norm.s": s("lattice.enumerate_up_to_norm"),
            "lattice.enumerate_up_to_norm.vectors":
                counts.get("lattice.enumerate_up_to_norm.vectors", 0),
            "lattice.enumerate.distinct_ratio": ratio(
                counts.get("enumerate.distinct", 0), c("lattice.enumerate_up_to_norm")),
            "lattice.signed_sum_even.s": s("lattice.signed_sum_even"),
            "lattice.minimal_vectors.s": s("lattice.minimal_vectors"),
            "morse_minmax.evaluate_class.calls": c("morse_minmax.evaluate_class"),
            "morse_minmax.evaluate_class.s": s("morse_minmax.evaluate_class"),
        }
        m.update({f"{layer}.self_s": v for layer, v in layer_self.items()})
        per_pass.append(m)
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("invariants", "verifiers", "calculators"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "floergamma" / "cli.py").is_file():
        print(f"error: no floergamma package under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    from floergamma import cli
    import spans as spans_mod
    import workloads

    setup_s = None if args.trace else import_seconds("floergamma.cli")
    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, scratch)
        jobs = workload.jobs
        tracer = spans_mod.Tracer() if args.trace else None
        passes = []          # (traced, [(scaled s, measured s)], [outcome]) per pass
        traced_slices = []   # (first span, end span, counters) per traced pass
        deadline = time.perf_counter() + args.seconds
        while not passes or time.perf_counter() < deadline or \
                (tracer and len(passes) < 2):
            traced = bool(tracer) and len(passes) % 2 == 1
            if traced:
                tracer.counts.clear()
                tracer.distinct.clear()
                first = len(tracer.spans)
                tracer.install()
            results, intervals, calibrations = [], [], [speed.calibrate()]
            try:
                for j, job in enumerate(jobs):
                    if traced:
                        tracer.job = j
                    begin = time.perf_counter()
                    results.append(run_job(cli, job.argv))
                    intervals.append((begin, time.perf_counter()))
                    calibrations.append(speed.calibrate())
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                counts = dict(tracer.counts)
                counts["correction_series.distinct"] = len(
                    tracer.distinct["cobordism.correction_series"])
                counts["enumerate.distinct"] = len(
                    tracer.distinct["lattice.enumerate_up_to_norm"])
                traced_slices.append((first, len(tracer.spans), counts))
            times = [(speed.at_reference_speed(seconds, begin, end, calibrations), seconds)
                     for (seconds, _), (begin, end) in zip(results, intervals)]
            passes.append((traced, times, [outcome for _, outcome in results]))

        attempted = failed = unexpected = 0
        reasons: dict[int, str] = {}
        for _, _, outcomes in passes:
            for j, (job, (code, out, err)) in enumerate(zip(jobs, outcomes)):
                reason = err if code is None else job.check(code, out, err)
                attempted += 1
                if reason:
                    failed += 1
                    reasons.setdefault(j, reason)
                    unexpected += job.known_defect is None
        same_outputs = all(outcomes == passes[0][2] for _, _, outcomes in passes)

        def per_job(traced: bool) -> list[float]:
            """Each job's median time at the reference speed over its passes."""
            runs = [times for t, times, _ in passes if t == traced]
            return [statistics.median(times[j][0] for times in runs)
                    for j in range(len(jobs))]

        job_s = per_job(False)
        plain = sum(1 for traced, _, _ in passes if not traced)
        print(f"# workload {workload.name}, seed {args.seed}: {len(jobs)} jobs, "
              f"{len(passes)} passes ({len(passes) - plain} traced)")
        print("# job, time at the reference speed, fastest measured time, argv, "
              "sizes, verdict")
        for j, job in enumerate(jobs):
            verdict = ("known defect: " if job.known_defect else "FAIL: ") + reasons[j] \
                if j in reasons else "ok"
            fastest = min(times[j][1] for traced, times, _ in passes if not traced)
            shown = " ".join(Path(a).name if "/" in a else a for a in job.argv)
            print(f"job {j:3d} {job_s[j] * 1000:9.2f} ms {fastest * 1000:9.2f} ms  "
                  f"{shown}  {json.dumps(job.sizes)}  {verdict[:160]}")
        known = sum(1 for job in jobs if job.known_defect)
        controls = sum(1 for job in jobs if job.negative_control)
        print(f"# known-defect jobs: {known} of {len(jobs)} = {known / len(jobs):.4f}; "
              f"negative controls: {controls}")
        print(f"# outputs identical across passes: {same_outputs}")
        print(f"failed_frac = {failed / attempted!r} ratio (samples {attempted})")

        if tracer is None:
            metrics = {
                "setup_s": (setup_s, "s", IMPORT_REPEATS),
                "wall_s": (sum(job_s), "s", plain),
                "job_p50_ms": (statistics.median(job_s) * 1000, "ms", len(job_s)),
                "job_p90_ms": (percentile(job_s, 90) * 1000, "ms", len(job_s)),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB", 1),
            }
        else:
            layer = layer_metrics(tracer, spans_mod, traced_slices)
            layer["seifert.import_s"] = import_seconds("floergamma.seifert",
                                                       after="floergamma")
            layer["trace.overhead_frac"] = sum(per_job(True)) / sum(job_s) - 1
            metrics = {k: (v, spans_mod.unit(k), len(traced_slices))
                       for k, v in layer.items()}
            spans_path = ROOT / ".perfbench" / f"spans-{args.workload}.jsonl"
            with spans_path.open("w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
        for name, (value, unit, samples) in metrics.items():
            print(f"{name} = {value!r} {unit} (samples {samples})")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(json.dumps({
        "correct": unexpected == 0 and same_outputs,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
