"""obsblock benchmark: design, record round trip and verification per op.

Run from the repository root:

    python3 bench/run.py --workload ladder-direct --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 40 --trace 1

`--workload all` runs every workload in a fresh child process. With
`--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics of the untraced passes. With `--trace 1` half of the time goes
to untraced passes and half to traced passes, and the JSON holds the
per-layer metrics of the traced ones. BLAS is pinned to one thread.
Exits 2 without a result when the library sources are missing and 1
when a check fails.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOAD_NAMES = ("ladder-direct", "cutset-bridged", "small-batch")
SETUP_REPEATS = 3
P90_MIN_OPS = 100
SPAN_TOLERANCE = 0.05      # span self times must cover the traced wall to 5 %

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("design_s", "s"), ("verify_s", "s"),
    ("peak_rss_mb", "MB"),
)
# span name -> metric of its self time; entry points report "_self_s"
SPAN_METRICS = {
    "designer.check_controllability": "designer.check_controllability_s",
    "designer.select_lambda": "designer.select_lambda_s",
    "designer.nullspace_bundle": "designer.nullspace_bundle_s",
    "designer.select_hp": "designer.select_hp_s",
    "designer.build_candidate": "designer.build_candidate_s",
    "designer.assemble_and_gain": "designer.assemble_and_gain_s",
    "designer.design_blocking": "designer.design_blocking_self_s",
    "cutset.lg_condition": "cutset.lg_condition_s",
    "cutset.design_via_cutset": "cutset.design_via_cutset_self_s",
    "graph.min_vertex_cut": "graph.min_vertex_cut_s",
    "spectrum.decompose": "spectrum.decompose_s",
    "model.assemble": "model.assemble_s",
    "verify.pbh_test": "verify.pbh_test_s",
    "verify.observability_rank": "verify.observability_rank_s",
    "verify.preservation_audit": "verify.preservation_audit_s",
    "verify.output_energy": "verify.output_energy_s",
    "verify.verify_design": "verify.verify_design_self_s",
    "records.dump": "records.dump_s",
    "records.load": "records.load_s",
    "bench.glue": "bench.glue_s",
}
CALL_METRICS = {
    "designer.check_controllability": "designer.check_controllability_calls",
    "designer.nullspace_bundle": "designer.nullspace_bundle_calls",
    "cutset.lg_condition": "cutset.lg_condition_calls",
    "graph.min_vertex_cut": "graph.min_vertex_cut_calls",
    "spectrum.decompose": "spectrum.decompose_calls",
    "verify.output_energy": "verify.output_energy_calls",
}
OUTCOMES = ("verified", "rejected", "numerical", "unverified", "crash",
            "check_failed")
PER_LAYER = (
    tuple((name, "s") for name in SPAN_METRICS.values())
    + tuple((name, "count") for name in CALL_METRICS.values())
    + (("cutset.lg_eligible_ratio", "ratio"),
       ("designer.repaired_units", "count"),
       ("verify.verdict_fail", "count"),
       ("verify.obs_rank_shortfall", "count"),
       ("records.bytes", "bytes"),
       ("scenarios.generate_s", "s"),
       ("bench.check_s", "s"))
    + tuple((f"outcome.{o}", "count") for o in OUTCOMES)
    + (("fail_share", "ratio"),
       ("trace.wall_s", "s"),
       ("trace.overhead", "ratio"),
       ("trace.unattributed_s", "s"))
)
FAILED_OUTCOMES = ("crash", "check_failed")   # the program misbehaved


@dataclass
class PassSummary:
    """What one pass over all ops leaves after its checks."""

    wall: float
    op_s: list
    design_s: float
    verify_s: float
    outcomes: list           # (ident, outcome, message) per op
    digests: list            # sha256 of each op's record or failure text
    sha256: str
    record_bytes: int
    repaired_units: int
    verdict_fail: int
    obs_shortfall: int
    layers: dict = field(default_factory=dict)

    def count(self, outcome: str) -> int:
        return sum(1 for _, o, _ in self.outcomes if o == outcome)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def blas_report() -> str:
    """OpenBLAS versions of numpy and scipy and their live thread counts."""
    import numpy as np
    import scipy

    versions = []
    for mod in (np, scipy):
        blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
        versions.append(f"{mod.__name__} {blas.get('name')} {blas.get('version')}")
    threads = []
    with open("/proc/self/maps") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line
                       and line.rstrip().endswith(".so")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                threads.append(f"{Path(lib).name}={getattr(handle, sym)()}")
                break
    return (f"blas: {'; '.join(versions)}; pinned threads {BLAS_THREADS} "
            f"(live: {', '.join(threads) or 'unknown'})")


class Bench:
    """One workload in this process: setup, passes, checks, metrics."""

    def __init__(self, workload: str, seed: int, import_s: float):
        import checks
        import pipeline
        import tracer
        import workloads

        self.pipeline, self.checks, self.tracer = pipeline, checks, tracer
        self.workload, self.seed = workload, seed
        gen, warm = [], []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            instances = workloads.WORKLOADS[workload](seed)
            t1 = perf_counter()
            # the smallest op warms every code path at the least cost
            self.warm_index = min(range(len(instances)),
                                  key=lambda i: instances[i].network.state_dim)
            warm_result = pipeline.run_op(instances[self.warm_index])
            t2 = perf_counter()
            gen.append(t1 - t0)
            warm.append(t2 - t1)
        self.instances = instances
        self.warm_digest = _digest(warm_result.fingerprint())
        self.generate_s = statistics.median(gen)
        self.setup_s = import_s + statistics.median(g + w for g, w in zip(gen, warm))
        self.problems = []

    def _summarize(self, wall, results) -> PassSummary:
        """Run the correctness checks, then keep only what metrics need."""
        for inst, r in zip(self.instances, results):
            self.checks.apply_checks(inst, r, self.pipeline.TOL)
        digests = [_digest(r.fingerprint()) for r in results]
        whole = hashlib.sha256("".join(digests).encode()).hexdigest()
        shortfall = 0
        for r in results:
            if r.report is not None:
                blocked = 2 if complex(r.loaded.lambda_p).imag != 0.0 else 1
                shortfall += (r.report.full_state_dim - blocked
                              - r.report.obs_matrix_rank)
        return PassSummary(
            wall=wall, op_s=[r.op_s for r in results],
            design_s=sum(r.design_s for r in results),
            verify_s=sum(r.verify_s for r in results),
            outcomes=[(r.ident, r.outcome, r.message) for r in results],
            digests=digests, sha256=whole,
            record_bytes=sum(len(r.record) for r in results if r.record),
            repaired_units=sum(len(r.loaded.repaired) for r in results
                               if r.loaded is not None),
            verdict_fail=sum(1 for r in results
                             if r.report is not None and not r.report.verdict),
            obs_shortfall=shortfall)

    def untraced_pass(self) -> PassSummary:
        run_op = self.pipeline.run_op
        t0 = perf_counter()
        results = [run_op(inst) for inst in self.instances]
        return self._summarize(perf_counter() - t0, results)

    def traced_pass(self) -> PassSummary:
        tr = self.tracer.Tracer()
        with self.tracer.installed(tr):
            run_op = self.pipeline.run_op
            t0 = perf_counter()
            results = []
            for inst in self.instances:
                with tr.span("bench.glue"):
                    results.append(run_op(inst))
            wall = perf_counter() - t0
        with tr.span("bench.check"):
            summary = self._summarize(wall, results)
        self_s, calls = tr.self_times()
        check_s = self_s.pop("bench.check", 0.0)
        attributed = sum(self_s.values())
        layers = {metric: self_s.get(span, 0.0)
                  for span, metric in SPAN_METRICS.items()}
        layers.update({metric: calls.get(span, 0)
                       for span, metric in CALL_METRICS.items()})
        lg_calls = calls.get("cutset.lg_condition", 0)
        layers["cutset.lg_eligible_ratio"] = (
            tr.counters["cutset.lg_satisfied"] / lg_calls if lg_calls else 0.0)
        layers["bench.check_s"] = check_s
        layers["trace.wall_s"] = wall
        layers["trace.unattributed_s"] = wall - attributed
        if abs(wall - attributed) > SPAN_TOLERANCE * wall:
            self.problems.append(
                f"span self times sum to {attributed:.4f} s, traced wall "
                f"{wall:.4f} s")
        summary.layers = layers
        return summary

    def passes(self, run_pass, budget: float) -> list:
        """Passes until the next one would end past the budget; at least one."""
        out = []
        spent = 0.0
        while True:
            out.append(run_pass())
            spent += out[-1].wall
            if spent + out[-1].wall > budget:
                return out

    def verify_determinism(self, passes, label: str) -> None:
        ref = passes[0]
        if ref.digests[self.warm_index] != self.warm_digest:
            self.problems.append(f"{label}: the warm-up op and the timed pass "
                                 "produced different records")
        for k, p in enumerate(passes[1:], start=2):
            if p.sha256 != ref.sha256:
                self.problems.append(f"{label}: pass {k} records differ from pass 1")

    def end_to_end(self, passes) -> dict:
        return {
            "setup_s": self.setup_s,
            "wall_s": statistics.median(p.wall for p in passes),
            "design_s": statistics.median(p.design_s for p in passes),
            "verify_s": statistics.median(p.verify_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self, untraced, traced) -> dict:
        ref = traced[0]
        values = {name: statistics.median(p.layers[name] for p in traced)
                  for name in ref.layers}
        values.update({name: ref.layers[name] for name in CALL_METRICS.values()})
        values.update({
            "designer.repaired_units": ref.repaired_units,
            "verify.verdict_fail": ref.verdict_fail,
            "verify.obs_rank_shortfall": ref.obs_shortfall,
            "records.bytes": ref.record_bytes,
            "scenarios.generate_s": self.generate_s,
            "fail_share": fail_share(ref),
            "trace.overhead": (values["trace.wall_s"]
                               / statistics.median(p.wall for p in untraced)),
        })
        values.update({f"outcome.{o}": ref.count(o) for o in OUTCOMES})
        return values


def fail_share(p: PassSummary) -> float:
    return 1.0 - p.count("verified") / len(p.outcomes)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def print_report(bench: Bench, passes, e2e: dict) -> None:
    ref = passes[0]
    print(f"workload {bench.workload} seed {bench.seed}: {len(ref.outcomes)} ops "
          f"per pass, {len(passes)} untraced passes")
    for name, unit in END_TO_END:
        print(f"  {name:<14} {e2e[name]:.6g} {unit}")
    ops = [t for p in passes for t in p.op_s]
    print(f"  {'op_p50_s':<14} {statistics.median(ops):.6g} s "
          f"({len(ops)} op samples)")
    if len(ref.outcomes) >= P90_MIN_OPS:
        p90 = statistics.quantiles(ops, n=10, method="inclusive")[-1]
        print(f"  {'op_p90_s':<14} {p90:.6g} s")
    print(f"  {'fail_share':<14} {fail_share(ref):.6g} "
          f"({len(ref.outcomes) - ref.count('verified')} of {len(ref.outcomes)})")
    print("  outcomes: " + ", ".join(f"{o}={ref.count(o)}" for o in OUTCOMES))
    print("  pass walls: " + " ".join(f"{p.wall:.3f}" for p in passes) + " s")
    print(f"  records sha256 {ref.sha256}")
    for ident, outcome, message in ref.outcomes:
        if outcome != "verified":
            first = (message.splitlines() or [""])[0]
            print(f"  FAIL [{outcome}] {ident}: {first[:240]}")


def run_workload(args) -> int:
    # the pin must precede the first numpy import, which comes with obsblock
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    t0 = perf_counter()
    init = SRC / "obsblock" / "__init__.py"
    if not init.is_file():
        print(f"error: library sources not found at {init}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import obsblock  # brings in numpy and scipy.linalg
    import_s = perf_counter() - t0
    if Path(obsblock.__file__).resolve().parent != (SRC / "obsblock").resolve():
        print(f"error: imported obsblock from {obsblock.__file__}", file=sys.stderr)
        return 2
    import numpy
    import scipy
    print(f"python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}")
    print(blas_report())

    bench = Bench(args.workload, args.seed, import_s)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = bench.passes(bench.untraced_pass, budget)
    bench.verify_determinism(untraced, "untraced")
    e2e = bench.end_to_end(untraced)
    print_report(bench, untraced, e2e)
    runs = list(untraced)
    if args.trace:
        traced = bench.passes(bench.traced_pass, budget)
        bench.verify_determinism(traced, "traced")
        if traced[0].sha256 != untraced[0].sha256:
            bench.problems.append("traced records differ from untraced records")
        metrics = bench.per_layer(untraced, traced)
        units = dict(PER_LAYER)
        print(f"  traced passes: {len(traced)}")
        for name, value in metrics.items():
            print(f"  {name:<38} {value:.6g} {units[name]}")
        runs += traced
    else:
        metrics, units = e2e, dict(END_TO_END)

    attempted = sum(len(p.outcomes) for p in runs)
    failed = sum(p.count(o) for p in runs for o in FAILED_OUTCOMES)
    for problem in bench.problems:
        print(f"  CHECK FAILED: {problem}")
    correct = failed == 0 and not bench.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh child process; a combined JSON line last."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines() or [""]
        for line in lines[:-1]:
            print(line)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"error: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
