"""marlkit benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pong-replay --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, measured without tracing; with
--trace 1 it reports the per-layer metrics of a traced run, next to an
untraced run of the same length that gives the tracing overhead and the
outputs the traced run must reproduce. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. A run whose
outputs fail a check prints that object with "correct": false and exits 1.

Every measurement runs in a fresh interpreter (perfbench/measure.py), one at
a time, so at most two processes of the benchmark are alive.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 15
# p99 spread by 12% across seeds on bomber-itf; p95 repeats within a tenth everywhere.
TAIL_PERCENTILE = 95
# The self times of all spans must add up to the traced wall time within this
# share: a span left open, or work done outside the traced roots, shows here.
COVERAGE_TOLERANCE = 0.01
RUN_BUDGET_S = 170.0


class Failed(Exception):
    """A measuring process crashed or timed out; there is no result to print."""


class Run:
    def __init__(self, deadline: float) -> None:
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def child(self, *args: str) -> dict:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise Failed("out of time before starting a measuring process")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "measure.py"), *args], cwd=ROOT,
                stdout=subprocess.PIPE, text=True, timeout=timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise Failed(f"measuring process timed out: {args[:2]}") from exc
        if proc.returncode != 0:
            raise Failed(f"measuring process exited {proc.returncode}: {args[:2]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def measure(self, workload: str, seed: int, seconds: float, traced: bool,
                quick: bool = False) -> dict:
        cfg = {"workload": workload, "seed": seed, "seconds": seconds, "traced": traced,
               "quick": quick}
        result = self.child("run", json.dumps(cfg))
        self.attempted += result["attempted"]
        self.failures += result["failures"]
        if not result["walls"]:
            raise Failed(f"{workload}: no operation completed: {result['failures']}")
        return result

    def check_pins(self, workload: str, seed: int, result: dict, quick: bool) -> None:
        """Compare the outputs of the default seed with the pinned ones."""
        if seed != DEFAULT_SEED:
            return
        pins = json.loads((HERE / "expected.json").read_text())[workload]
        expected = pins["outcome"]
        got = result["outcome"]
        if quick:
            self.check(got["episodes"] == expected["episodes"][:1],
                       f"{workload}: first episode differs from the pinned one")
        else:
            self.check(got == expected, f"{workload}: outcomes differ from the pinned ones")
        if WORKLOADS[workload].replay:
            key = "quick_replay_sha256" if quick else "replay_sha256"
            self.check(result["replay_sha256"] == pins[key],
                       f"{workload}: replay bytes differ from the pinned ones")

    def check_traced(self, workload: str, plain: dict, traced: dict) -> None:
        self.check(traced["outcome"] == plain["outcome"],
                   f"{workload}: the traced run's outcomes differ from the untraced run's")
        self.check(traced["replay_sha256"] == plain["replay_sha256"],
                   f"{workload}: the traced run's replay differs from the untraced run's")
        for c in traced["coverage"]:
            self.check(abs(c - 1.0) <= COVERAGE_TOLERANCE,
                       f"{workload}: trace coverage {c:.4f} is not within "
                       f"{COVERAGE_TOLERANCE} of 1")


def scaled_wall(result: dict) -> float:
    return statistics.median(w * s for w, s in zip(result["walls"], result["scales"]))


def end_to_end(run: Run, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    run.child("setup", workload)  # compiles bytecode; users pay that once
    setups = [run.child("setup", workload) for _ in range(SETUP_PROBES)]
    result = run.measure(workload, seed, seconds, traced=False)
    run.check_pins(workload, seed, result, quick=False)
    ticks = result["ticks"]
    rates = [ticks / wall for wall in result["walls"]]
    tail = f"p{TAIL_PERCENTILE}"
    values = {
        "steps_per_s": statistics.median(r / s for r, s in zip(rates, result["scales"])),
        "tick_us_p50": result["tick_us"]["p50"],
        f"tick_us_{tail}": result["tick_us"][tail],
        "setup_s": statistics.median(p["setup_s"] for p in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    op = "run_match" if WORKLOADS[workload].op == "match" else "replay_verify"
    notes = [
        f"steps_per_s: median of {result['repeats']} {op} calls of {ticks} ticks",
        f"tick_us_*: {result['tick_samples']} tick samples; "
        + ", ".join(f"{q} {v:.1f}" for q, v in result["tick_us"].items()),
        f"setup_s: median of {SETUP_PROBES} fresh interpreters",
        f"host speed: median scale to the reference {statistics.median(result['scales']):.3f}",
        f"raw (unscaled) wall clock: steps_per_s {statistics.median(rates):.1f}, "
        + ", ".join(f"tick_us_{q} {v:.1f}" for q, v in result["raw_tick_us"].items())
        + f", setup_s {statistics.median(p['raw_setup_s'] for p in setups):.4f}",
    ]
    return values, notes


def per_layer(run: Run, workload: str, seed: int, seconds: float) -> tuple[dict, list[str]]:
    plain = run.measure(workload, seed, seconds / 2, traced=False)
    traced = run.measure(workload, seed, seconds / 2, traced=True)
    run.check_pins(workload, seed, plain, quick=False)
    run.check_traced(workload, plain, traced)
    values = dict(traced["layers"])
    values["trace.overhead_ratio"] = scaled_wall(traced) / scaled_wall(plain)
    values["trace.coverage"] = statistics.median(traced["coverage"])
    notes = [
        f"per-layer rows: median of {traced['repeats']} traced repeats of "
        f"{traced['ticks']} ticks; spans in .perfbench_out/trace-{workload}.jsonl",
        f"trace.overhead_ratio: traced over untraced median wall "
        f"({traced['repeats']} and {plain['repeats']} repeats)",
    ]
    return values, notes


def report(run: Run, workload: str, values: dict, specs: list[dict], notes: list[str]) -> int:
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values.get(spec["name"], 0.0), "unit": spec["unit"]}
    failed = len(run.failures)
    print(f"workload {workload}")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:14.4f} {m['unit']}")
    print(f"  {'failed_ratio':52s} {failed}/{run.attempted}")
    for note in notes:
        print(f"  # {note}")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": max(run.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def self_check(run: Run) -> int:
    """One short episode per workload, untraced and traced, with every check on."""
    for workload in WORKLOADS:
        run.child("setup", workload)
        plain = run.measure(workload, DEFAULT_SEED, 0, traced=False, quick=True)
        traced = run.measure(workload, DEFAULT_SEED, 0, traced=True, quick=True)
        run.check_pins(workload, DEFAULT_SEED, plain, quick=True)
        run.check_traced(workload, plain, traced)
        print(f"{workload}: {len(run.failures)} failures so far, {run.attempted} attempted")
    for message in run.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    print("self-check " + ("passed" if not run.failures else "FAILED"))
    return 0 if not run.failures else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="one short episode per workload with every check on")
    args = parser.parse_args()
    if not (ROOT / "src" / "marlkit" / "__init__.py").is_file():
        print(f"no marlkit source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    run = Run(time.monotonic() + RUN_BUDGET_S)
    try:
        if args.self_check:
            return self_check(run)
        if args.workload is None:
            parser.error("--workload is required")
        specs = json.loads((ROOT / "BENCHMARK.json").read_text())
        if args.trace:
            values, notes = per_layer(run, args.workload, args.seed, args.seconds)
            return report(run, args.workload, values, specs["per_layer"], notes)
        values, notes = end_to_end(run, args.workload, args.seed, args.seconds)
        return report(run, args.workload, values, specs["end_to_end"], notes)
    except Failed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
