"""Benchmark entry point: host cost of the DoCeph simulator, outside in.

Run from the root of a checkout::

    python3 perfbench/run.py --workload doceph-write-4m --seed 0 \\
        --seconds 20 --trace 0

``--trace 0`` repeats set-up + measured call until ``--seconds`` host
seconds have passed (at least :data:`MIN_REPEATS` times) and reports the
end-to-end metrics: host times (at the reference speed of
:mod:`hostclock`) as medians over the repeats, simulated figures from
the (identical) repeats.  ``--trace 1`` makes one untraced
repeat, one repeat under the span recorder (:mod:`spans`) and one under
cProfile, and reports the per-layer metrics.  ``--workload all`` runs
every workload with ``--trace 0`` and prints one table; its
``peak_rss_mb`` is the process peak so far.

A run is correct only if every repeat, the traced and the profiled one
included, simulates the same outcome fingerprint, that fingerprint
matches the one pinned for (workload, seed) in ``pinned.json`` when
there is one (an unpinned seed is reported as ``UNPINNED`` on standard
error), the run has enough latency samples for its p99, and it reports
exactly the metrics ``BENCHMARK.json`` lists.  The
last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import sys
from time import perf_counter
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
#: The benchmark definition: every metric's name and unit.
DEFINITION = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

#: Measured repeats per untraced run, at the least.
MIN_REPEATS = 3
#: Set-ups per untraced run, at the least (median reported).
MIN_SETUPS = 24
#: Set-ups after each measured repeat, besides the one it runs on.  The
#: host's speed changes every second or so and the calibration does not
#: follow set-up code as closely as it follows the event loop, so
#: set-ups are spread over the whole run rather than made in one burst.
EXTRA_SETUPS = 2



def _units(section: str) -> dict[str, str]:
    """``{metric: unit}`` of one section of BENCHMARK.json."""
    with open(DEFINITION) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def _with_units(section: str, metrics: dict[str, float],
                problems: list[str]) -> dict[str, tuple[float, str]]:
    """Attach each metric's unit; the run must report exactly the
    metrics BENCHMARK.json lists in ``section``."""
    units = _units(section)
    if set(metrics) != set(units):
        problems.append(f"metrics differ from BENCHMARK.json {section}: "
                        f"missing {sorted(set(units) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(units))}")
    return {k: (v, units.get(k, "?")) for k, v in metrics.items()}


def _load_repro(root: str) -> None:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no repro sources under {src}; run from the root "
            "of a repository checkout"
        )
    # measure the default (pure-Python) engine whatever the caller's
    # environment selects
    os.environ.pop("REPRO_ENGINE", None)
    sys.path.insert(0, src)


def _pinned(workload: str, seed: int) -> str | None:
    path = os.path.join(HERE, "pinned.json")
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _check_outcome(workload: str, seed: int, fingerprints: list[str],
                   outcome: Any, problems: list[str]) -> None:
    from workloads import MIN_LATENCY_SAMPLES

    if len(set(fingerprints)) != 1:
        problems.append(f"outcome fingerprints differ between repeats: "
                        f"{sorted(set(fingerprints))}")
    pinned = _pinned(workload, seed)
    if pinned is None:
        print(f"UNPINNED: {workload} seed {seed} has no pinned fingerprint; "
              "only the repeats are checked against each other",
              file=sys.stderr)
    elif fingerprints[0] != pinned:
        problems.append(f"outcome fingerprint {fingerprints[0]} != pinned "
                        f"{pinned} for {workload} seed {seed}")
    if len(outcome.latencies) < MIN_LATENCY_SAMPLES:
        problems.append(f"{len(outcome.latencies)} latency samples; p99 "
                        f"needs {MIN_LATENCY_SAMPLES}")


def _set_up_only(workload: Any, seed: int, clock: Any) -> float:
    """Host seconds of one more set-up, whose cluster is dropped."""
    from workloads import set_up

    gc.collect()
    _cluster, phase = set_up(workload, seed, clock)
    return phase.total_s


def run_untraced(name: str, seed: int, seconds: float) -> dict[str, Any]:
    from hostclock import HostClock
    from workloads import WORKLOADS, set_up

    workload = WORKLOADS[name]
    deadline = perf_counter() + seconds
    clock = HostClock()
    host: list[float] = []
    setups: list[float] = []
    outcomes: list[Any] = []
    while len(host) < MIN_REPEATS or perf_counter() < deadline:
        gc.collect()
        cluster, phase = set_up(workload, seed, clock)
        setups.append(phase.total_s)
        clock.reset()
        outcomes.append(workload.driver.measure(cluster, seed, clock))
        host.append(clock.host_s)
        del cluster
        for _ in range(EXTRA_SETUPS):
            setups.append(_set_up_only(workload, seed, clock))
    while len(setups) < MIN_SETUPS:
        setups.append(_set_up_only(workload, seed, clock))
    outcome = outcomes[0]
    fingerprints = [out.fingerprint() for out in outcomes]
    problems: list[str] = []
    _check_outcome(name, seed, fingerprints, outcome, problems)
    host_s = statistics.median(host)
    metrics = {
        "host_s_per_sim_s": host_s / outcome.sim_s,
        "host_ms_per_op": 1e3 * host_s / outcome.ops_total,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0),
    }
    metrics.update(outcome.end_to_end())
    repeats = len(host)
    return {
        "problems": problems,
        "attempted": repeats * outcome.attempted,
        "failed": repeats * outcome.failed,
        "metrics": _with_units("end_to_end", metrics, problems),
        "fingerprint": fingerprints[0],
        "repeats": repeats,
        "host_s": host,
    }


def run_traced(name: str, seed: int) -> dict[str, Any]:
    from layers import (
        PREDICTED_ZERO, counters, layer_metrics, profile_shares, span_shares,
    )
    from hostclock import HostClock
    from spans import SpanRecorder
    from workloads import WORKLOADS, all_cpus, set_up

    workload = WORKLOADS[name]
    problems: list[str] = []

    # untraced reference repeat
    gc.collect()
    clock = HostClock()
    cluster, phase = set_up(workload, seed, clock)
    clock.reset()
    plain = workload.driver.measure(cluster, seed, clock)
    plain_host = clock.host_s
    del cluster

    # traced repeat
    gc.collect()
    rec = SpanRecorder()
    rec.install()
    try:
        cluster, _ = set_up(workload, seed, clock,
                            on_env=lambda env: setattr(rec, "env", env))
        rec.observe_cpus(all_cpus(cluster))
        before = counters(cluster)
        mark = rec.mark()
        clock.reset()
        traced = workload.driver.measure(cluster, seed, clock)
        traced_host = clock.host_s
        after = counters(cluster)
        measured = rec.since(mark)
        whole = rec.since()
        peak_pending = cluster.env.peak_pending
    finally:
        rec.restore()
    del cluster
    rec.dump(os.path.join(".perfbench", f"spans-{name}"))

    # profiled repeat
    gc.collect()
    raw_clock = HostClock(calibrated=False)
    cluster, _ = set_up(workload, seed, raw_clock)
    prof = cProfile.Profile()
    prof.enable()
    profiled = workload.driver.measure(cluster, seed, raw_clock)
    prof.disable()
    del cluster

    fingerprints = [plain.fingerprint(), traced.fingerprint(),
                    profiled.fingerprint()]
    _check_outcome(name, seed, fingerprints, plain, problems)
    for entry in sorted(workload.uses):
        if whole["calls"][entry] == 0:
            problems.append(f"entry point {entry} recorded no call")

    metrics = layer_metrics(traced, measured, before, after, peak_pending)
    for key in PREDICTED_ZERO[name]:
        if metrics[key] != 0:
            problems.append(f"{key} = {metrics[key]!r}, predicted 0")
    metrics["cluster.build_s"] = phase.build_s
    metrics["cluster.boot_s"] = phase.boot_s
    metrics["bench.prepopulate_s"] = phase.prepopulate_s
    metrics["sim.host_us_per_event"] = 1e6 * plain_host / plain.events
    metrics["trace.overhead_pct"] = 100.0 * (traced_host / plain_host - 1.0)
    spans_pct = span_shares(measured["self_s"])
    prof_pct = profile_shares(pstats.Stats(prof))
    metrics["xcheck.sim.span_pct"] = spans_pct["sim"]
    metrics["xcheck.sim.cprofile_pct"] = prof_pct["sim"]
    metrics["xcheck.sim.gap_pct"] = spans_pct["sim"] - prof_pct["sim"]
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", f"xcheck-{name}.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed,
                   "span_self_pct": spans_pct, "cprofile_pct": prof_pct},
                  fh, indent=1, sort_keys=True)
    return {
        "problems": problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": _with_units("per_layer", metrics, problems),
        "fingerprint": fingerprints[0],
        "repeats": 1,
    }


def _report(name: str, seed: int, result: dict[str, Any]) -> None:
    print(f"{name} seed={seed} repeats={result['repeats']} "
          f"fingerprint={result['fingerprint'][:16]}", file=sys.stderr)
    if "host_s" in result:
        print("  measured call, host s: "
              + " ".join(f"{t:.3f}" for t in result["host_s"]), file=sys.stderr)
    for key, (value, unit) in result["metrics"].items():
        print(f"  {key:32s} {value:14.6f} {unit}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  PROBLEM: {problem}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_repro(os.getcwd())
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(choose from all, {', '.join(WORKLOADS)})")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.trace and len(names) > 1:
        parser.error("--trace 1 takes one workload")
    correct = True
    attempted = failed = 0
    metrics: dict[str, dict[str, Any]] = {}
    for name in names:
        if args.trace:
            result = run_traced(name, args.seed)
        else:
            result = run_untraced(name, args.seed, args.seconds)
        _report(name, args.seed, result)
        correct = correct and not result["problems"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, (value, unit) in result["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
