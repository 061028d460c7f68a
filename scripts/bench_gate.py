#!/usr/bin/env python3
"""CI perf-regression gate: compare a fresh --bench-json artifact against
a checked-in baseline (e.g. BENCH_SWEEP_ENGINE.json).

Two classes of field, two severities:

* Correctness fields (bench name, sweep parameters, the deterministic
  outcome digest, the tallies_identical flag) are machine-independent:
  any difference is a HARD FAILURE (exit 1). A digest mismatch means the
  routing outcomes themselves changed — that is a correctness regression,
  not noise.
* Timing fields (*_ms, *_us, speedup_*) and throughput rates (*_per_sec)
  depend on the host: a regression beyond --tolerance is reported, as a
  warning by default (CI runners are noisy) or as a failure with
  --strict-timing.
* Run-dependent service counts (stale_*, epochs_*, outcome_* — produced
  by bench_service, whose outcomes depend on live thread interleaving)
  are never compared: only their self-consistency flags
  (snapshots_consistent etc.) gate, as exact fields.

Telemetry fields ("telemetry_*", present only when the bench ran with
--telemetry) are never compared against the baseline. Instead each
telemetry_X timing is compared against its untelemetered counterpart X
*from the same run*: more than --telemetry-overhead relative slowdown
warns, because the recorder is supposed to be nearly free. With
--telemetry-only the baseline comparison is skipped entirely (no
--baseline needed) and only this intra-run overhead check runs.

Sampled-tracing runs (bench_service --sample, baseline
BENCH_SAMPLING.json) add one more intra-run check: the bench's own
"sampling_overhead_pct" (sampled vs untraced throughput, measured as
the median paired ratio across interleaved reps) warns past
--sampling-overhead percent. It is never compared against the baseline
— it is host noise — while the deterministic sampling_* fields
(promoted digest, promotion counts, the retention / invariance /
audit-clean verdict flags) gate exactly: a digest mismatch means the
promoted route *set* changed, which is a correctness regression in the
sampler, the scripted workload, or the serving path.

Mega-cube runs (bench_mega_cube, baseline BENCH_MEGA_CUBE.json, plus the
Q14-bounded BENCH_MEGA_CUBE_SMOKE.json the CI smoke gates against) add
per-dimension correctness fields: table_digest_qN / routes_qN_digest
(the packed fixed point and the fold-homomorphic route digest),
build_qN_rounds, build_qN_evaluations (GS node evaluations, the
host-independent build work), the outcome tallies, and bytes_per_node_qN
(the packed 5-bit SoA footprint). All gate exactly; build_qN_*_ms and
routes_qN_per_sec are host timing/rate fields as usual.

Exact fields that carry floats (bytes_per_node_qN) compare with a 1e-9
relative tolerance: the quantity is deterministic but travels through
decimal formatting, and a printf-precision change must not read as a
correctness regression. Integer exact fields (digests, counts, rounds)
still compare strictly.

Exit status: 0 clean or warnings only, 1 hard failure (or timing
regression under --strict-timing), 2 usage / unreadable input.
Stdlib only — no pip installs.
"""

import argparse
import json
import math
import sys

# Host-dependent fields: never compared.
IGNORED = {"workers"}
# Run-dependent count families: outcomes of live multi-threaded serving
# (bench_service) depend on thread interleaving, so only their
# self-consistency flags are gateable.
IGNORED_PREFIXES = ("stale_", "epochs_", "outcome_")

TELEMETRY_PREFIX = "telemetry_"
# Intra-run measurement from bench_service --sample: checked against the
# --sampling-overhead budget, never against the baseline.
SAMPLING_OVERHEAD_KEY = "sampling_overhead_pct"


def classify(key):
    if key in IGNORED or key.startswith(IGNORED_PREFIXES):
        return "ignored"
    if key == SAMPLING_OVERHEAD_KEY:
        return "overhead"  # intra-run budget check only, never vs baseline
    if key.startswith(TELEMETRY_PREFIX):
        return "telemetry"  # intra-run check only, never vs baseline
    if key.endswith("_ms") or key.endswith("_us"):
        return "time"  # lower is better
    if key.startswith("speedup") or key.endswith("_per_sec"):
        return "rate"  # higher is better
    return "exact"


def exact_equal(base, cur):
    """Strict equality, except float-valued exact fields get a 1e-9
    relative tolerance so a formatting-precision change in the bench's
    JSON writer is not misread as a correctness regression. bool is an
    int subclass in Python; both compare strictly."""
    if isinstance(base, float) or isinstance(cur, float):
        if not isinstance(base, (int, float)) or \
                not isinstance(cur, (int, float)):
            return base == cur
        return math.isclose(base, cur, rel_tol=1e-9, abs_tol=1e-12)
    return base == cur


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"bench_gate: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(data, dict):
        print(f"bench_gate: {path} is not a JSON object", file=sys.stderr)
        sys.exit(2)
    return data


def compare_to_baseline(baseline, current, tolerance, failures, warnings):
    for key in sorted(set(baseline) | set(current)):
        kind = classify(key)
        if kind in ("ignored", "telemetry", "overhead"):
            continue
        if key not in current:
            failures.append(f"{key}: missing from current run")
            continue
        if key not in baseline:
            warnings.append(f"{key}: not in baseline (new field?)")
            continue
        base, cur = baseline[key], current[key]
        if kind == "exact":
            if not exact_equal(base, cur):
                failures.append(f"{key}: baseline {base!r} != current {cur!r}")
        elif kind == "time":
            if base > 0 and cur > base * (1.0 + tolerance):
                warnings.append(
                    f"{key}: {cur:.3f} vs baseline {base:.3f} "
                    f"(+{(cur / base - 1.0) * 100.0:.1f}%, "
                    f"tolerance {tolerance * 100.0:.0f}%)")
        elif kind == "rate":
            if base > 0 and cur < base * (1.0 - tolerance):
                warnings.append(
                    f"{key}: {cur:.2f} vs baseline {base:.2f} "
                    f"(-{(1.0 - cur / base) * 100.0:.1f}%)")


def check_telemetry_overhead(current, overhead, warnings):
    """Each telemetry_X timing vs its untelemetered X from the same run."""
    checked = 0
    for key in sorted(current):
        if not key.startswith(TELEMETRY_PREFIX):
            continue
        plain_key = key[len(TELEMETRY_PREFIX):]
        plain = current.get(plain_key)
        cur = current[key]
        if not isinstance(plain, (int, float)) or \
                not isinstance(cur, (int, float)) or plain <= 0:
            continue
        checked += 1
        if cur > plain * (1.0 + overhead):
            warnings.append(
                f"{key}: {cur:.3f} vs untelemetered {plain_key} "
                f"{plain:.3f} (+{(cur / plain - 1.0) * 100.0:.1f}%, "
                f"telemetry overhead budget {overhead * 100.0:.0f}%)")
    return checked


def check_sampling_overhead(current, budget_pct, warnings):
    """The sampler's own sampled-vs-untraced overhead vs the budget.

    bench_service --sample measures this intra-run (median of the paired
    ratios over interleaved reps), so the gate only has to compare the
    reported percentage against the budget — a warning, like all timing
    checks, because shared CI runners can blow any throughput ratio."""
    pct = current.get(SAMPLING_OVERHEAD_KEY)
    if not isinstance(pct, (int, float)):
        return False
    if pct > budget_pct:
        warnings.append(
            f"{SAMPLING_OVERHEAD_KEY}: {pct:.1f}% sampled-vs-untraced "
            f"slowdown exceeds the {budget_pct:.0f}% budget")
    return True


def main():
    parser = argparse.ArgumentParser(
        description="compare bench --bench-json output against a baseline")
    parser.add_argument("--baseline",
                        help="checked-in reference JSON (required unless "
                             "--telemetry-only)")
    parser.add_argument("--current", required=True,
                        help="freshly produced JSON")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed relative timing regression "
                             "(0.30 = 30%% slower; default %(default)s)")
    parser.add_argument("--telemetry-overhead", type=float, default=0.05,
                        help="allowed telemetry-on vs telemetry-off slowdown "
                             "within one run (default %(default)s)")
    parser.add_argument("--telemetry-only", action="store_true",
                        help="skip the baseline comparison; only check the "
                             "intra-run telemetry overhead")
    parser.add_argument("--sampling-overhead", type=float, default=5.0,
                        help="allowed sampled-vs-untraced slowdown percent "
                             "for bench_service --sample runs "
                             "(default %(default)s)")
    parser.add_argument("--strict-timing", action="store_true",
                        help="timing regressions fail instead of warn")
    args = parser.parse_args()

    if args.baseline is None and not args.telemetry_only:
        parser.error("--baseline is required unless --telemetry-only")

    current = load(args.current)

    failures, warnings = [], []

    if not args.telemetry_only:
        compare_to_baseline(load(args.baseline), current, args.tolerance,
                            failures, warnings)

    checked = check_telemetry_overhead(current, args.telemetry_overhead,
                                       warnings)
    check_sampling_overhead(current, args.sampling_overhead, warnings)
    if args.telemetry_only and checked == 0:
        print("bench_gate: WARNING no telemetry_* timing fields in "
              f"{args.current} — was the bench run with --telemetry?")

    for msg in warnings:
        print(f"bench_gate: WARNING {msg}")
    for msg in failures:
        print(f"bench_gate: FAIL    {msg}")

    if failures:
        print(f"bench_gate: {len(failures)} hard mismatch(es) — "
              "parameters or the outcome digest changed")
        return 1
    if warnings and args.strict_timing:
        print(f"bench_gate: {len(warnings)} timing regression(s) "
              "with --strict-timing")
        return 1
    verdict = "clean" if not warnings else f"{len(warnings)} warning(s)"
    against = args.baseline if not args.telemetry_only else "itself"
    print(f"bench_gate: {verdict} ({args.current} vs {against})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
