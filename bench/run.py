"""polyhardy benchmark: seeded workloads through ``polyhardy.cli.main``.

    python3 bench/run.py --workload {ambient-n2,compressed-n3,sweep,all} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own worker
process (``bench/worker.py``) with BLAS/OpenMP threads pinned to 1; with
``all`` the workloads and their passes are interleaved round-robin.  Every
output is checked; see ``bench/README.md`` for the metrics.  The last line
of stdout is one JSON object ``{correct, attempted, failed, metrics}``; the
lines before it name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 15  # fresh-interpreter set-up samples per workload and run
STOP_TIMEOUT_S = 20

# every end-to-end metric, printed with its unit on the lines above the JSON line
E2E_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "ok_per_s": "1/s",
    "scenario_p50_s": "s",
    "scenario_p90_s": "s",
    "peak_rss_mb": "MB",
    "failed_fraction": "fraction",
}
# the end-to-end metrics of the JSON line with --trace 0, as BENCHMARK.json
# bounds them.  ok_per_s and the scenario percentiles say more than pass_s
# only on sweep, which BENCHMARK.json leaves out (see README.md)
END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")

# Per-layer metrics printed in the JSON line with --trace 1.  Self times of
# layers that some workload never enters (project, blh, rigidity on
# compressed-n3) are printed on the lines above it only, so that no time in
# the JSON line is a constant zero.
PER_LAYER = {
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
    "host.cpu_s": "s",
    "host.calib_s": "s",
    "host.steal_frac": "fraction",
    "scenario.calls": "count",
    "scenario.self_s": "s",
    "disc.model_space.calls": "count",
    "disc.model_space.self_s": "s",
    "disc.model_space.distinct": "count",
    "disc.model_space.refused": "count",
    "disc.rank_one_compression.calls": "count",
    "disc.rank_one_compression.self_s": "s",
    "disc.self_s": "s",
    "kernel.singular_values.calls": "count",
    "kernel.singular_values.self_s": "s",
    "kernel.kron_all.calls": "count",
    "kernel.kron_all.self_s": "s",
    "kernel.kron_all.max_dim": "count",
    "kernel.self_s": "s",
    "lattice.default_degrees.calls": "count",
    "lattice.default_degrees.refused": "count",
    "lattice.submodule_projection.calls": "count",
    "lattice.submodule_projection.distinct": "count",
    "lattice.submodule_projection.self_s": "s",
    "lattice.slot_spaces.calls": "count",
    "lattice.slot_apply.calls": "count",
    "lattice.slot_apply.self_s": "s",
    "lattice.self_s": "s",
    "commutator.commutator_report.calls": "count",
    "commutator.cross_commutator_bruteforce_ambient.self_s": "s",
    "commutator.cross_commutator_structural.self_s": "s",
    "commutator.cross_commutator_compressed.self_s": "s",
    "commutator.cross_commutator_compressed.max_elems": "count",
    "commutator.essential_dc_diagnostic.self_s": "s",
    "commutator.self_s": "s",
    "blh.wandering_subspace.calls": "count",
    "rigidity.fingerprint.calls": "count",
    "report.execute.self_s": "s",
    "report.report_json.self_s": "s",
    "report.summary_text.self_s": "s",
    "report.failed_blocks": "count",
    "analysis.commutator_s": "s",
    "analysis.essnorm_s": "s",
    "analysis.c0_s": "s",
    "analysis.decay_s": "s",
    "cli.main.self_s": "s",
    "cli.exit_0": "count",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
    "cli.failed_fraction": "fraction",
    "cli.bytes_written": "B",
    "linalg.svd.calls": "count",
    "linalg.svd.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.qr.calls": "count",
    "linalg.qr.self_s": "s",
    "linalg.solve.calls": "count",
    "linalg.solve.self_s": "s",
    "linalg.svd.flops": "flop",
    "linalg.eigh.flops": "flop",
    "linalg.bytes": "B",
    "linalg.max_dim": "count",
    "linalg.self_s": "s",
}

# printed on the lines above the JSON line in every traced run
LINES_ONLY = (
    "kernel.orthonormal_basis_of_span.self_s",
    "kernel.subspace_gap.self_s",
    "lattice.complementarity_residual.self_s",
    "lattice.submodule_span_gap.self_s",
    "lattice.shift_invariance_residual.self_s",
    "lattice.projection_formula_residuals.self_s",
    "blh.build_blh_symbol.self_s",
    "blh.wandering_subspace.self_s",
    "blh.verify_range.self_s",
    "blh.verify_inner.self_s",
    "blh.self_s",
    "rigidity.fingerprint.self_s",
    "rigidity.equality_test.self_s",
    "rigidity.self_s",
    "analysis.project_s",
    "analysis.blh_s",
    "analysis.rigidity_s",
    "linalg.eigh.self_s",
)


class Worker:
    """A worker process for one workload, driven one command at a time."""

    def __init__(self, workload: str, seed: int, env: dict):
        self.workload = workload
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._read()  # the ready line: set-up done
        self.passes: list[dict] = []
        self.traced: list[dict] = []
        self.walls: list[float] = []  # every pass, traced or not, in order

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.workload} worker exited with {self.proc.wait()}")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._read()

    def run(self, traced: bool) -> None:
        result = self.command("traced" if traced else "pass")
        (self.traced if traced else self.passes).append(result)
        self.walls.append(result["pass_s"])

    def fits(self, seconds: float, traced: bool) -> bool:
        """Whether another round ends within ``seconds`` of measuring.

        A round is one pass, or with tracing one traced and one untraced
        pass; its length is predicted from the rounds so far, so a run
        ends close to ``seconds``.  A run has at least one round, and with
        tracing two, so that each side runs once first.
        """
        per_round = 2 if traced else 1
        rounds = [sum(self.walls[k : k + per_round]) for k in range(0, len(self.walls), per_round)]
        if len(rounds) < per_round:
            return True
        return sum(rounds) + statistics.median(rounds) <= seconds

    def stop(self) -> None:
        """Let the worker finish its clean-up; kill it if it does not end."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def probe_setup(workloads: list[str], seed: int, env: dict, times: dict[str, list[float]]) -> None:
    """Append one fresh-interpreter set-up time per workload to ``times``."""
    for w in workloads:
        t = time.perf_counter()
        # no timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantize the measurement
        subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", w, "--seed", str(seed), "--probe"],
            cwd=ROOT,
            env=env,
            check=True,
        )
        times[w].append(time.perf_counter() - t)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def typical_pass(passes: list[dict]) -> float:
    """Sum over the scenarios of each one's median wall time across ``passes``.

    A burst of load from elsewhere on the host slows the few scenarios it
    overlaps in one pass.  Per-scenario medians drop it; a median of pass
    totals keeps it as soon as most passes catch some burst.
    """
    return sum(statistics.median(times) for times in zip(*(p["case_s"] for p in passes)))


def summarize(worker: Worker, setup: list[float], final: dict) -> tuple[dict, dict, dict]:
    """(metrics, sample counts, counters) of one workload."""
    passes = worker.passes
    ok_times = [t for p in passes for t in p["ok_times"]]
    attempted = sum(p["attempted"] for p in passes + worker.traced)
    failed = sum(len(p["failures"]) for p in passes + worker.traced)
    ok_total = len(ok_times)
    walls = [p["pass_s"] for p in passes]
    pass_s = typical_pass(passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": pass_s,
        "ok_per_s": statistics.median(len(p["ok_times"]) for p in passes) / pass_s,
        "scenario_p50_s": statistics.median(ok_times) if ok_times else 0.0,
        "scenario_p90_s": quantile(ok_times, 0.9) if ok_times else 0.0,
        "peak_rss_mb": final["peak_rss_mb"],
        "failed_fraction": sum(p["nonzero_or_failed"] for p in passes)
        / sum(p["attempted"] for p in passes),
    }
    counts = {
        "setup_s": len(setup),
        "pass_s": len(walls),
        "ok_per_s": len(walls),
        "scenario_p50_s": ok_total,
        "scenario_p90_s": ok_total,
        "peak_rss_mb": 1,
        "failed_fraction": sum(p["attempted"] for p in passes),
    }
    return metrics, counts, {"attempted": attempted, "failed": failed}


def layer_summary(worker: Worker, final: dict, e2e: dict) -> dict:
    """Per-layer metrics: medians over traced passes, plus the untraced context."""
    traced, passes = worker.traced, worker.passes
    names = sorted({k for p in traced for k in p["layers"]})
    m = {k: statistics.median(p["layers"].get(k, 0) for p in traced) for k in names}
    traced_s = typical_pass(traced)
    m["trace.overhead_frac"] = traced_s / e2e["pass_s"] - 1.0
    m["host.cpu_s"] = statistics.median(p["cpu_s"] for p in passes)
    m["host.calib_s"] = final["calib_s"]
    m["host.steal_frac"] = final["steal_frac"] if final["steal_frac"] is not None else -1.0
    last = passes[-1]
    for code in ("0", "1", "2"):
        m[f"cli.exit_{code}"] = last["exits"].get(code, 0)
    m["cli.failed_fraction"] = e2e["failed_fraction"]
    m["cli.bytes_written"] = last["bytes_written"]
    m["report.failed_blocks"] = last["failed_blocks"]
    for analysis in ("project", "commutator", "essnorm", "blh", "rigidity", "c0", "decay"):
        m[f"analysis.{analysis}_s"] = statistics.median(p["analysis"].get(analysis, 0.0) for p in passes)
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description="polyhardy benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polyhardy" / "__init__.py").is_file():
        print(f"bench: no polyhardy sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a fixed hash seed gives every worker the same dict and set layout
    env = dict(os.environ, PYTHONHASHSEED="0", **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]

    setup: dict[str, list[float]] = {w: [] for w in workloads}
    workers: list[Worker] = []
    finals: dict[str, dict] = {}
    try:
        for w in workloads:
            workers.append(Worker(w, args.seed, env))
        # round-robin: each round gives every workload one pass (with
        # --trace 1, one traced and one untraced) while its next round
        # still ends within --seconds
        while True:
            active = [wk for wk in workers if wk.fits(args.seconds, bool(args.trace))]
            if not active:
                break
            # set-up samples spread over the run, taken while no pass runs
            short = [wk.workload for wk in active if len(setup[wk.workload]) < SETUP_PROBES]
            probe_setup(short, args.seed, env, setup)
            for wk in active:
                if not args.trace:
                    wk.run(traced=False)
                    continue
                # traced, untraced, untraced, traced, ...: neither side gets
                # all the first-pass warm-up
                first = len(wk.traced) % 2 == 0
                wk.run(traced=first)
                wk.run(traced=not first)
        for w in workloads:
            while len(setup[w]) < SETUP_PROBES:
                probe_setup([w], args.seed, env, setup)
        for wk in workers:
            finals[wk.workload] = wk.command("end")
    finally:
        for wk in workers:
            wk.stop()

    out: dict = {}
    attempted = failed = 0
    for wk in workers:
        w, final = wk.workload, finals[wk.workload]
        e2e, counts, counters = summarize(wk, setup[w], final)
        attempted += counters["attempted"]
        failed += counters["failed"]
        print(f"# {w}: {WORKLOADS[w]}")
        print(f"# {w} host: {json.dumps(final['host'], sort_keys=True)}")
        print(f"# {w} passes_s: {[round(p['pass_s'], 4) for p in wk.passes]}")
        print(
            f"# {w} host.calib_s: {final['calib_s']:.6g}  host.steal_frac: {final['steal_frac']}  "
            f"host.cpu_s: {statistics.median(p['cpu_s'] for p in wk.passes):.6g}"
        )
        for failure in [f for p in wk.passes + wk.traced for f in p["failures"]][:20]:
            print(f"# {w} FAILED {failure}")
        for name, value in e2e.items():
            unit = E2E_UNITS[name]
            print(f"{w:<14} {name:<48} {value:>14.6g} {unit:<8} n={counts[name]}")
        if args.trace:
            layers = layer_summary(wk, final, e2e)
            for name in [*PER_LAYER, *LINES_ONLY]:
                unit = PER_LAYER.get(name, "s")
                print(f"{w:<14} {name:<48} {layers.get(name, 0):>14.6g} {unit:<8} n={len(wk.traced)}")
            if final.get("spans_file"):
                print(f"# {w} spans: {final['spans_file']}")
            chosen = {k: (layers.get(k, 0), u) for k, u in PER_LAYER.items()}
        else:
            chosen = {k: (e2e[k], E2E_UNITS[k]) for k in END_TO_END}
        prefix = f"{w}/" if args.workload == "all" else ""
        out.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
