"""One workload in one process: runs passes on request and reports JSON lines.

Started by ``run.py`` with the checkout root as working directory::

    python3 bench/worker.py --workload W --seed N [--probe]

With ``--probe`` it imports polyhardy, generates the workload's inputs,
writes and parses them, and exits: ``run.py`` times that from spawn to exit
as the set-up time.  Otherwise it sets up the same way, prints a ``ready``
line, then reads commands from stdin, one per line, and answers each with
one JSON line on stdout:

- ``pass`` / ``traced``: one pass over the workload's scenarios through
  ``polyhardy.cli.main``, untraced or traced;
- ``end``: host record, peak RSS and the stored spans' file; then exits.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import polyhardy  # noqa: E402
from polyhardy import cli  # noqa: E402
from polyhardy.scenario import parse_scenario_file  # noqa: E402

from gate import check_run  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WARM_UP, generate  # noqa: E402

OUT = ROOT / ".bench_out"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) ticks of the whole machine from /proc/stat, read only."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            ticks = [int(t) for t in f.readline().split()[1:]]
        return ticks[7], sum(ticks)
    except (OSError, IndexError, ValueError):
        return None


def calibrate() -> float:
    """Median wall time of a fixed 384x384 complex eigh, the host-speed reference."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((384, 384)) + 1j * rng.standard_normal((384, 384))
    a = a + a.conj().T
    times = []
    for _ in range(5):
        t = time.perf_counter()
        np.linalg.eigh(a)
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def host_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "python": sys.version.split()[0],
    }


class Session:
    """A workload's generated inputs and the per-case state kept across passes."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.cases = generate(workload, seed)
        self.dir = OUT / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "in").mkdir(parents=True)
        self.paths = []
        for case in self.cases:
            path = self.dir / "in" / f"{case.name}.json"
            path.write_text(json.dumps(case.doc, indent=1), encoding="utf-8")
            parse_scenario_file(path)
            self.paths.append(path)
        self.digests: dict[str, str] = {}
        self.failed = 0
        self.passes = 0
        self.tracer = Tracer()

    def warm_up(self, count: int) -> None:
        """Run the first ``count`` cases once, unchecked, and drop their outputs."""
        out = self.dir / "warm-up"
        for case, path in zip(self.cases[:count], self.paths):
            with contextlib.redirect_stderr(io.StringIO()):
                self._run_case(["run", str(path), "--out", str(out), *case.flags])
        shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, traced: bool) -> dict:
        out = self.dir / f"out{self.passes}"
        self.passes += 1
        tracer = self.tracer
        first = len(tracer.spans)
        codes, times, errs = [], [], []
        gc.collect()  # every pass starts from a collected heap
        if traced:
            tracer.install()
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            for case, path in zip(self.cases, self.paths):
                argv = ["run", str(path), "--out", str(out), *case.flags]
                err = io.StringIO()
                t = time.perf_counter()
                with contextlib.redirect_stderr(err):
                    code = self._run_case(argv)
                times.append(time.perf_counter() - t)
                codes.append(code)
                errs.append(err.getvalue())
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if traced:
                tracer.uninstall()
        return self._judge(out, codes, times, errs, wall, cpu, first if traced else None)

    @staticmethod
    def _run_case(argv: list[str]) -> int:
        """Exit code of one CLI run; -1 when it raised instead of exiting."""
        try:
            return cli.main(argv)
        except Exception:  # a crash is an outcome to report, not a harness error
            traceback.print_exc()
            return -1

    def _judge(self, out, codes, times, errs, wall, cpu, first) -> dict:
        failures, analysis = [], {}
        ok_times, written, failed_blocks, bad = [], 0, 0, 0
        for case, code, seconds, err in zip(self.cases, codes, times, errs):
            problems, data = check_run(case, code, err, out)
            if data is not None:
                digest = hashlib.sha256(data).hexdigest()
                if self.digests.setdefault(case.name, digest) != digest:
                    problems.append("report.json differs from an earlier pass")
                failed_blocks += len(json.loads(data)["failed_blocks"])
                timing = json.loads((out / f"{case.name}.timing.json").read_text())
                for name, value in timing["wall_clock_seconds"].items():
                    analysis[name] = analysis.get(name, 0.0) + value
            written += sum(p.stat().st_size for p in out.glob(f"{case.name}.*"))
            if problems:
                failures.append(f"{case.name}: " + "; ".join(problems))
            elif code == 0:
                ok_times.append(seconds)
            bad += bool(problems) or code != 0
        shutil.rmtree(out, ignore_errors=True)
        self.failed += len(failures)
        result = {
            "pass_s": wall,
            "case_s": times,
            "cpu_s": cpu,
            "attempted": len(codes),
            "exits": {str(c): codes.count(c) for c in sorted(set(codes))},
            "ok_times": ok_times,
            "failures": failures,
            "nonzero_or_failed": bad,
            "analysis": analysis,
            "bytes_written": written,
            "failed_blocks": failed_blocks,
        }
        if first is not None:
            result["layers"] = layer_metrics(self.tracer.spans, first, wall)
        return result

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.tracer.spans})
        index = {n: k for k, n in enumerate(names)}
        spans = [[index[s[0]], s[1], s[2], s[3]] for s in self.tracer.spans]
        path.write_text(json.dumps({"names": names, "spans": spans}), encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args()
    if not Path(polyhardy.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"polyhardy imported from {polyhardy.__file__}, not this checkout", file=sys.stderr)
        return 1
    tag = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    session = Session(args.workload, args.seed, tag)
    if args.probe:
        shutil.rmtree(session.dir, ignore_errors=True)
        return 0
    ticks0, calib = cpu_ticks(), [calibrate()]
    session.warm_up(WARM_UP[args.workload])
    print(json.dumps({"ready": True, "cases": len(session.cases)}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command in ("pass", "traced"):
                print(json.dumps(session.run_pass(command == "traced")), flush=True)
            elif command == "end":
                break
        calib.append(calibrate())
        spans_file = OUT / f"{args.workload}-s{args.seed}.trace.json"
        if session.tracer.spans:
            session.write_spans(spans_file)
        ticks1 = cpu_ticks()
        steal = None
        if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
            steal = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
        print(
            json.dumps(
                {
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                    "calib_s": statistics.median(calib),
                    "steal_frac": steal,
                    "host": host_record(),
                    "spans_file": str(spans_file.relative_to(ROOT)) if session.tracer.spans else None,
                }
            ),
            flush=True,
        )
    finally:
        # a failed run keeps its scenario files for a rerun by hand
        if not session.failed:
            shutil.rmtree(session.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
