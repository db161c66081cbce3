"""Output checks for one scenario run.

A run passes when its exit code is one the case allows and agrees with
what was written: exit 0 means a report with every block ok, exit 2 a
report whose failed blocks are the ones named on stderr, exit 1 an input
error on stderr and no report.  Every ok commutator block must match the
closed-form norm law recomputed here from the generated zeros, and every ok
block with an expected verdict must report it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import Case


def expected_norm(case: Case, i: int, j: int) -> float | None:
    """sqrt((1-|b_i(0)|^2)(1-|b_j(0)|^2)) for an inner pair, None otherwise."""
    bi, bj = case.b0_moduli[i], case.b0_moduli[j]
    if bi is None or bj is None:
        return None
    return math.sqrt((1.0 - bi * bi) * (1.0 - bj * bj))


def check_report(case: Case, report: dict) -> list[str]:
    problems = []
    for block in report["analyses"]:
        if block["status"] != "ok":
            continue
        name, results = block["analysis"], block["results"]
        want = case.verdicts.get(name)
        if want is not None and results.get("verdict") != want:
            problems.append(f"{name}: verdict {results.get('verdict')} != {want}")
        if name == "commutator":
            tol = block["tolerances"]["norm_law"]
            for entry in results["pairs"]:
                law = expected_norm(case, *entry["pair"])
                if law is not None and abs(entry["operator_norm"] - law) > tol:
                    problems.append(
                        f"pair {entry['pair']}: operator norm {entry['operator_norm']!r} "
                        f"vs law {law!r} exceeds {tol:g}"
                    )
    return problems


def check_run(case: Case, code: int, stderr: str, out_dir: Path) -> tuple[list[str], bytes | None]:
    """Problems with one run, plus the report bytes when a report was written."""
    report_path = out_dir / f"{case.name}.report.json"
    data = report_path.read_bytes() if report_path.exists() else None
    if code not in case.exits:
        return [f"exit {code} not in {sorted(case.exits)}: {stderr.strip()[:300]}"], data
    if code == 1:
        problems = [] if "polyhardy: input error:" in stderr else [f"exit 1 without an input error: {stderr.strip()[:300]}"]
        if data is not None:
            problems.append("exit 1 but a report was written")
        return problems, data
    if data is None:
        return [f"exit {code} without a report"], None
    report = json.loads(data)
    failed = report["failed_blocks"]
    problems = check_report(case, report)
    if code == 0 and (failed or report["status"] != "ok"):
        problems.append(f"exit 0 but blocks failed: {failed}")
    if code == 2 and (not failed or ", ".join(failed) not in stderr):
        problems.append(f"exit 2 but report names failed blocks {failed}: {stderr.strip()[:300]}")
    for suffix in ("timing.json", "summary.txt"):
        if not (out_dir / f"{case.name}.{suffix}").exists():
            problems.append(f"missing sidecar {suffix}")
    if "decay" in case.doc["analyses"] and not (out_dir / f"{case.name}.decay.csv").exists():
        problems.append("missing sidecar decay.csv")
    return problems, data
