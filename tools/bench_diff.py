#!/usr/bin/env python3
"""Compare two directories of BENCH_*.json reports (schema coca-bench-v1).

The regression contract, mirroring src/obs/bench_report.hpp:

* Deterministic fields must match EXACTLY (bit-for-bit as JSON numbers):
  `objective` and every meta entry that is not timing-classed.  Any drift is
  a regression (or an intentional change that requires refreshing the
  goldens — see EXPERIMENTS.md).
* Timing-classed fields are machine-dependent and are ignored by default,
  or ratio-checked when --timing-factor is given: `wall_s`,
  `evals_per_sec`, and meta keys that end in `_ms`, `_s`, `_per_sec` or
  contain `speedup` / `high_water` (the pool queue high-water mark depends
  on scheduling).  --timing-keys REGEX narrows the ratio check to the
  timing keys whose name matches the regex (others stay ignored), so a
  gate can pin e.g. `speedup` ratios without tripping on raw wall times.
* Suites, result names and meta keys must agree set-wise in both
  directions: a vanished result is as much a regression as a changed one.
  Reports must also pass structural validation (finite values, unique
  names) — the same rules bench_json_check enforces.

* --max-rel also prints the largest relative drift |new - old| / |old| of
  the deterministic fields, per field and suite and overall (inf for a
  field that leaves zero), to bound a deliberate re-pin.  It does not change
  the verdict or the exit status.

Exit status: 0 = no drift, 1 = drift or malformed input, 2 = usage error.

Usage:
  tools/bench_diff.py <old_dir> <new_dir> [--timing-factor F]
                      [--timing-keys REGEX] [--max-rel] [--verbose]
  tools/bench_diff.py --self-test
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

SCHEMA = "coca-bench-v1"

TIMING_META_SUFFIXES = ("_ms", "_s", "_per_sec")
TIMING_META_SUBSTRINGS = ("speedup", "high_water")
TIMING_TOP_FIELDS = ("wall_s", "evals_per_sec")


def is_timing_key(key: str) -> bool:
    """Meta keys classified as timing by naming convention."""
    return key.endswith(TIMING_META_SUFFIXES) or any(
        s in key for s in TIMING_META_SUBSTRINGS
    )


def validate(report: dict, label: str) -> list[str]:
    """Structural validation, mirroring BenchReport::validate()."""
    problems = []
    if report.get("schema") != SCHEMA:
        problems.append(f"{label}: unknown schema {report.get('schema')!r}")
        return problems
    if not report.get("suite"):
        problems.append(f"{label}: empty suite name")
    results = report.get("results", [])
    if not results:
        problems.append(f"{label}: no results")
    seen = set()
    for result in results:
        name = result.get("name", "")
        where = f"{label}: result {name!r}"
        if not name:
            problems.append(f"{label}: empty result name")
        if name in seen:
            problems.append(f"{label}: duplicate result name {name!r}")
        seen.add(name)
        values = [(f, result.get(f, 0.0)) for f in ("wall_s", "evals_per_sec", "objective")]
        values += [(f"meta {k!r}", v) for k, v in result.get("meta", {}).items()]
        for field, value in values:
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                problems.append(f"{where}: non-finite {field} ({value!r})")
    return problems


def load_reports(directory: Path) -> tuple[dict[str, dict], list[str]]:
    """Map suite name -> report for every BENCH_*.json in `directory`."""
    reports, problems = {}, []
    paths = sorted(directory.glob("BENCH_*.json"))
    if not paths:
        problems.append(f"{directory}: no BENCH_*.json files")
    for path in paths:
        try:
            report = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            problems.append(f"{path}: unreadable ({error})")
            continue
        problems += validate(report, str(path))
        suite = report.get("suite", path.stem)
        if suite in reports:
            problems.append(f"{path}: duplicate suite {suite!r}")
        reports[suite] = report
    return reports, problems


def timing_drift(
    key: str,
    old: float,
    new: float,
    factor: float,
    timing_re: "re.Pattern | None" = None,
    name: str | None = None,
) -> str | None:
    """Ratio check for a timing field; None = within tolerance."""
    if factor <= 0:  # timing ignored entirely
        return None
    if timing_re is not None and not timing_re.search(name if name is not None else key):
        return None  # gate narrowed to other timing keys
    if old == 0.0 and new == 0.0:
        return None
    if old <= 0.0 or new <= 0.0 or not (1.0 / factor <= new / old <= factor):
        return f"{key}: timing drift {old} -> {new} (allowed factor {factor})"
    return None


def diff_result(
    old: dict, new: dict, factor: float, timing_re: "re.Pattern | None" = None
) -> list[str]:
    drifts = []
    for field in TIMING_TOP_FIELDS:
        drift = timing_drift(
            field, old.get(field, 0.0), new.get(field, 0.0), factor, timing_re
        )
        if drift:
            drifts.append(drift)
    if old.get("objective") != new.get("objective"):
        drifts.append(
            f"objective: {old.get('objective')} -> {new.get('objective')}"
        )
    old_meta, new_meta = old.get("meta", {}), new.get("meta", {})
    for key in sorted(set(old_meta) | set(new_meta)):
        if key not in old_meta:
            drifts.append(f"meta {key!r}: appeared (= {new_meta[key]})")
        elif key not in new_meta:
            drifts.append(f"meta {key!r}: vanished (was {old_meta[key]})")
        elif is_timing_key(key):
            drift = timing_drift(
                f"meta {key!r}", old_meta[key], new_meta[key], factor, timing_re, key
            )
            if drift:
                drifts.append(drift)
        elif old_meta[key] != new_meta[key]:
            drifts.append(f"meta {key!r}: {old_meta[key]} -> {new_meta[key]}")
    return drifts


def relative_drift(old: float, new: float) -> float:
    """|new - old| / |old|; inf when a zero field moves."""
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old != 0 else math.inf


def max_rel_drift(old_reports: dict, new_reports: dict) -> dict[str, dict[str, float]]:
    """Suite -> deterministic field -> its largest relative drift over the
    results both reports share (fields that do not drift are left out)."""
    drift = {}
    for suite in sorted(set(old_reports) & set(new_reports)):
        old_results = {r["name"]: r for r in old_reports[suite].get("results", [])}
        new_results = {r["name"]: r for r in new_reports[suite].get("results", [])}
        fields = drift.setdefault(suite, {})
        for name in sorted(set(old_results) & set(new_results)):
            old, new = old_results[name], new_results[name]
            pairs = [("objective", old.get("objective"), new.get("objective"))]
            old_meta, new_meta = old.get("meta", {}), new.get("meta", {})
            pairs += [
                (f"meta {key!r}", old_meta[key], new_meta[key])
                for key in sorted(set(old_meta) & set(new_meta))
                if not is_timing_key(key)
            ]
            for field, a, b in pairs:
                if not all(isinstance(v, (int, float)) for v in (a, b)):
                    continue
                rel = relative_drift(a, b)
                if rel > fields.get(field, 0.0):
                    fields[field] = rel
    return drift


def print_max_rel(drift: dict[str, dict[str, float]]) -> None:
    overall, worst_suite = 0.0, None
    for suite, fields in drift.items():
        suite_max = max(fields.values(), default=0.0)
        detail = ", ".join(f"{field} {rel:.3g}" for field, rel in fields.items())
        print(f"max-rel: suite {suite!r}: {suite_max:.3g}" + (f" ({detail})" if detail else ""))
        if suite_max > overall:
            overall, worst_suite = suite_max, suite
    print(f"max-rel: overall {overall:.3g}" + (f" (suite {worst_suite!r})" if worst_suite else ""))


def diff_dirs(
    old_dir: Path,
    new_dir: Path,
    factor: float,
    verbose: bool,
    timing_re: "re.Pattern | None" = None,
    max_rel: bool = False,
) -> int:
    old_reports, problems = load_reports(old_dir)
    new_reports, new_problems = load_reports(new_dir)
    problems += new_problems
    drift_lines = list(problems)
    if max_rel:
        print_max_rel(max_rel_drift(old_reports, new_reports))

    for suite in sorted(set(old_reports) | set(new_reports)):
        if suite not in new_reports:
            drift_lines.append(f"suite {suite!r}: vanished from {new_dir}")
            continue
        if suite not in old_reports:
            drift_lines.append(f"suite {suite!r}: appeared in {new_dir} (not in golden)")
            continue
        old_results = {r["name"]: r for r in old_reports[suite].get("results", [])}
        new_results = {r["name"]: r for r in new_reports[suite].get("results", [])}
        suite_drifts = []
        for name in sorted(set(old_results) | set(new_results)):
            if name not in new_results:
                suite_drifts.append(f"result {name!r}: vanished")
            elif name not in old_results:
                suite_drifts.append(f"result {name!r}: appeared")
            else:
                suite_drifts += [
                    f"result {name!r}: {d}"
                    for d in diff_result(
                        old_results[name], new_results[name], factor, timing_re
                    )
                ]
        if suite_drifts:
            drift_lines += [f"suite {suite!r}: {d}" for d in suite_drifts]
        elif verbose:
            print(f"ok: suite {suite!r} ({len(old_results)} results)")

    if drift_lines:
        for line in drift_lines:
            print(f"DRIFT: {line}", file=sys.stderr)
        print(
            f"bench_diff: {len(drift_lines)} drift(s) between "
            f"{old_dir} and {new_dir}",
            file=sys.stderr,
        )
        return 1
    print(f"bench_diff: no drift ({len(old_reports)} suite(s))")
    return 0


# --------------------------------------------------------------------------
# Self-test: exercises the diff logic on synthetic reports in temp dirs.
# Registered as a ctest (bench_diff_selftest) so the harness itself cannot
# silently rot.


def _report(suite: str, results: list[dict]) -> str:
    return json.dumps({"schema": SCHEMA, "suite": suite, "results": results})


def _result(name: str, objective: float = 1.0, wall_s: float = 0.5, **meta) -> dict:
    return {
        "name": name,
        "wall_s": wall_s,
        "evals_per_sec": 10.0,
        "objective": objective,
        "meta": meta,
    }


def self_test() -> int:
    import tempfile

    failures = []

    def expect(
        case: str,
        old: list[str],
        new: list[str],
        want: int,
        factor: float = 0.0,
        timing_keys: str | None = None,
        max_rel: bool = False,
    ):
        with tempfile.TemporaryDirectory() as tmp:
            old_dir, new_dir = Path(tmp, "old"), Path(tmp, "new")
            old_dir.mkdir(), new_dir.mkdir()
            for i, text in enumerate(old):
                (old_dir / f"BENCH_s{i}.json").write_text(text)
            for i, text in enumerate(new):
                (new_dir / f"BENCH_s{i}.json").write_text(text)
            timing_re = re.compile(timing_keys) if timing_keys else None
            got = diff_dirs(
                old_dir, new_dir, factor, verbose=False, timing_re=timing_re,
                max_rel=max_rel,
            )
            if got != want:
                failures.append(f"{case}: exit {got}, wanted {want}")

    same = _report("a", [_result("r", objective=2.0, groups=8.0)])
    expect("identical reports", [same], [same], 0)
    expect(
        "objective drift",
        [same],
        [_report("a", [_result("r", objective=2.5, groups=8.0)])],
        1,
    )
    expect(
        "deterministic meta drift",
        [same],
        [_report("a", [_result("r", objective=2.0, groups=9.0)])],
        1,
    )
    expect(
        "timing ignored by default",
        [same],
        [_report("a", [_result("r", objective=2.0, wall_s=50.0, groups=8.0)])],
        0,
    )
    expect(
        "timing outside factor",
        [same],
        [_report("a", [_result("r", objective=2.0, wall_s=50.0, groups=8.0)])],
        1,
        factor=3.0,
    )
    expect(
        "timing within factor",
        [same],
        [_report("a", [_result("r", objective=2.0, wall_s=0.6, groups=8.0)])],
        0,
        factor=3.0,
    )
    expect(
        "timing-classed meta ignored",
        [_report("a", [_result("r", solve_ms=1.0, speedup=2.0, pool_queue_high_water=3.0)])],
        [_report("a", [_result("r", solve_ms=9.0, speedup=7.0, pool_queue_high_water=1.0)])],
        0,
    )
    expect(
        "timing-keys narrows the gate to matching keys",
        [_report("a", [_result("r", wall_s=0.5, speedup=5.0)])],
        [_report("a", [_result("r", wall_s=50.0, speedup=4.0)])],
        0,
        factor=2.0,
        timing_keys="speedup",
    )
    expect(
        "timing-keys still gates matching keys",
        [_report("a", [_result("r", wall_s=0.5, speedup=5.0)])],
        [_report("a", [_result("r", wall_s=0.5, speedup=1.0)])],
        1,
        factor=2.0,
        timing_keys="speedup",
    )
    expect(
        "timing-keys can gate top-level fields by name",
        [_report("a", [_result("r", wall_s=0.5)])],
        [_report("a", [_result("r", wall_s=50.0)])],
        1,
        factor=2.0,
        timing_keys="wall_s",
    )
    expect(
        "timing-keys without timing-factor stays inert",
        [_report("a", [_result("r", speedup=5.0)])],
        [_report("a", [_result("r", speedup=1.0)])],
        0,
        timing_keys="speedup",
    )
    expect("vanished result", [same], [_report("a", [])], 1)
    expect(
        "vanished suite",
        [same, _report("b", [_result("r")])],
        [same],
        1,
    )
    expect(
        "appeared suite",
        [same],
        [same, _report("b", [_result("r")])],
        1,
    )
    expect(
        "nan rejected",
        [same],
        [_report("a", [_result("r", objective=2.0, groups=8.0)]).replace("2.0", "NaN", 1)],
        1,
    )
    expect(
        "duplicate result names rejected",
        [same],
        [_report("a", [_result("r", objective=2.0, groups=8.0),
                       _result("r", objective=2.0, groups=8.0)])],
        1,
    )
    expect(
        "unknown schema rejected",
        [same],
        [same.replace(SCHEMA, "coca-bench-v999")],
        1,
    )
    expect("empty dirs rejected", [], [], 1)
    drifted = _report("a", [_result("r", objective=2.5, wall_s=9.0, groups=8.0)])
    expect("max-rel keeps the drift verdict", [same], [drifted], 1, max_rel=True)
    expect("max-rel keeps the no-drift verdict", [same], [same], 0, max_rel=True)
    rel = max_rel_drift(
        {"a": json.loads(same), "b": json.loads(_report("b", [_result("r", hours=0.0)]))},
        {"a": json.loads(drifted), "b": json.loads(_report("b", [_result("r", hours=3.0)]))},
    )
    want = {"a": {"objective": 0.25}, "b": {"meta 'hours'": math.inf}}
    if rel != want:  # wall_s is timing and groups did not move
        failures.append(f"max-rel drift: got {rel}, wanted {want}")

    if failures:
        for failure in failures:
            print(f"SELF-TEST FAIL: {failure}", file=sys.stderr)
        return 1
    print("bench_diff self-test: all cases pass")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old_dir", nargs="?", help="golden BENCH_*.json directory")
    parser.add_argument("new_dir", nargs="?", help="candidate BENCH_*.json directory")
    parser.add_argument(
        "--timing-factor",
        type=float,
        default=0.0,
        metavar="F",
        help="allowed slowdown/speedup factor for timing fields "
        "(default 0 = ignore timing entirely)",
    )
    parser.add_argument(
        "--timing-keys",
        metavar="REGEX",
        help="only ratio-check timing keys matching this regex "
        "(others stay ignored); requires --timing-factor to have any effect",
    )
    parser.add_argument(
        "--max-rel",
        action="store_true",
        help="also print the largest relative drift of the deterministic "
        "fields, per field and suite and overall (exit status unchanged)",
    )
    parser.add_argument("--verbose", action="store_true", help="print ok suites")
    parser.add_argument(
        "--self-test", action="store_true", help="run the built-in test cases"
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.old_dir or not args.new_dir:
        parser.print_usage(sys.stderr)
        return 2
    old_dir, new_dir = Path(args.old_dir), Path(args.new_dir)
    for directory in (old_dir, new_dir):
        if not directory.is_dir():
            print(f"bench_diff: not a directory: {directory}", file=sys.stderr)
            return 2
    timing_re = None
    if args.timing_keys:
        try:
            timing_re = re.compile(args.timing_keys)
        except re.error as error:
            print(f"bench_diff: bad --timing-keys regex: {error}", file=sys.stderr)
            return 2
    return diff_dirs(
        old_dir, new_dir, args.timing_factor, args.verbose, timing_re, args.max_rel
    )


if __name__ == "__main__":
    sys.exit(main())
