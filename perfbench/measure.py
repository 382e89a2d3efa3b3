"""One measuring process of the benchmark, started by run.py in a fresh interpreter.

    python3 perfbench/measure.py setup <workload>
    python3 perfbench/measure.py run '<json config>'

"setup" times `import marlkit` up to the first env and pipelines of the
workload's spec. "run" repeats the workload's timed operation (run_match, or
replay_verify) until the time is up: untraced, with one clock read per tick
and the host calibration of calibrate.py, or traced with spans. Either mode
prints one JSON object as its last line.
"""

import hashlib
import json
import os
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

from calibrate import CALIBRATION_INTERVAL_S, REFERENCE_S, kernel
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PERCENTILES = (50, 90, 95, 99)
MIN_REPEATS = 2  # so that every run checks that a repeat reproduces the first


def import_marlkit():
    sys.path.insert(0, str(SRC))
    import marlkit

    if Path(marlkit.__file__).resolve().parent != SRC / "marlkit":
        raise SystemExit(f"imported marlkit from {marlkit.__file__}, not from {SRC}")
    return marlkit


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def setup_probe(workload: str) -> dict:
    w = WORKLOADS[workload]
    before = [kernel_seconds() for _ in range(3)]
    start = time.perf_counter()
    mk = import_marlkit()
    env = mk.make_env(w.env, w.env_params)
    pipeline = mk.build_pipeline(w.env_interfaces)
    if pipeline is not None:
        env = mk.wrap_env(env, pipeline)
    for _, interfaces in w.entrants:
        if interfaces:
            mk.build_pipeline(interfaces)
    raw = time.perf_counter() - start
    after = [kernel_seconds() for _ in range(3)]
    return {"raw_setup_s": raw, "setup_s": raw * REFERENCE_S / statistics.mean(before + after)}


class TickClock:
    """One clock read per tick, on the return of the outermost env.step.

    Between two ticks, once every CALIBRATION_INTERVAL_S, it runs the
    calibration kernel; that time is left out of the tick samples and is
    summed in `excluded`, which the caller takes off its wall times.
    """

    def __init__(self) -> None:
        self.samples = array("d")  # compact, so that peak RSS stays marlkit's
        # (number of samples taken before the calibration, kernel seconds)
        self.marks: list[tuple[int, float]] = []
        self.excluded = 0.0
        self.active = False
        self._next = 0.0

    def calibrate(self) -> float:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.marks.append((len(self.samples), end - start))
        self.excluded += end - start
        self._next = end + CALIBRATION_INTERVAL_S
        return end

    def attach(self, env) -> None:
        step = env.step
        last = None

        def timed_step(actions):
            nonlocal last
            result = step(actions)
            now = time.perf_counter()
            if self.active:
                if last is not None:
                    self.samples.append(now - last)
                if now >= self._next:
                    now = self.calibrate()
            last = now
            return result

        env.step = timed_step

    def install(self, mk, op: str) -> None:
        """Attach to every outermost env the operation steps."""
        if op == "match":
            run_episode = mk.harness.run_episode

            def clocked_run_episode(env, *args, **kwargs):
                self.attach(env)
                return run_episode(env, *args, **kwargs)

            mk.harness.run_episode = clocked_run_episode
        else:
            make_env = mk.registry.make_env

            def clocked_make_env(*args, **kwargs):
                env = make_env(*args, **kwargs)
                self.attach(env)
                return env

            mk.registry.make_env = clocked_make_env

    def scaled_samples(self) -> list[float]:
        """Tick samples at the reference speed, each scaled by the mean of the
        kernel times just before and just after it."""
        out = []
        marks = self.marks
        j = 0  # marks[j] is the first calibration after sample i
        for i, sample in enumerate(self.samples):
            while j < len(marks) and marks[j][0] <= i:
                j += 1
            around = [marks[k][1] for k in (j - 1, j) if 0 <= k < len(marks)]
            out.append(sample * REFERENCE_S * len(around) / sum(around))
        return out


def percentiles(values: list[float]) -> dict[str, float]:
    """Nearest-rank percentiles, in microseconds."""
    ordered = sorted(values)
    return {f"p{q}": ordered[max(1, -(-len(ordered) * q // 100)) - 1] * 1e6 for q in PERCENTILES}


def outcome_of(result) -> dict:
    return {
        "wins": result.wins, "draws": result.draws, "losses": result.losses,
        "episodes": [[o.winner_party, o.draw, o.length, list(o.returns)]
                     for o in result.outcomes],
    }


class Checks:
    """Attempted and failed operations (matches, verifies, output checks)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def layer_rows(tracer, op_ticks: dict[str, int], replay_bytes: int | None,
               scale: float) -> tuple[dict, dict]:
    """Per-layer rows of one traced repeat: (time rows at the reference speed,
    exact count rows)."""
    times: dict[str, float] = {}
    counts: dict[str, float] = {}

    def ticks_of(name: str) -> int:
        return op_ticks["verify" if name.startswith("verify.") else "match"] or 1

    for name, (self_s, calls) in tracer.self_times().items():
        ticks = ticks_of(name)
        if name in ("gc", "verify.gc"):
            times[f"{name}.pause_us_per_step"] = self_s * scale * 1e6 / ticks
            times[f"{name}.collections_per_kstep"] = calls * 1e3 / ticks
            continue
        times[f"{name}.us_per_step"] = self_s * scale * 1e6 / ticks
        counts[f"{name}.calls_per_step"] = calls / ticks
    for name, n in tracer.counts.items():
        counts[f"{name}_per_step"] = n / ticks_of(name)
    if replay_bytes is not None:
        counts["replay.bytes_per_step"] = replay_bytes / op_ticks["match"]
    return times, counts


def run(cfg: dict) -> dict:
    w = WORKLOADS[cfg["workload"]]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    replay_path = str(out_dir / f"replay-{cfg['workload']}-{os.getpid()}.jsonl")
    mk = import_marlkit()

    spec = w.match_spec(mk, cfg["seed"], cfg["quick"], replay_path)

    tracer = clock = None
    if cfg["traced"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    else:
        clock = TickClock()
        clock.install(mk, w.op)

    checks = Checks()
    first: dict | None = None
    replay_sha: str | None = None
    replay_bytes: int | None = None
    op_ticks = {"match": 0, "verify": 0}

    def traced_call(phase: str, name: str, fn, *args):
        if tracer is None:
            return fn(*args)
        tracer.switch(phase)
        try:
            return tracer.call(name, fn, args, {})
        finally:
            tracer.switch(None)

    def match(record: bool = True) -> float:
        """Run the match and check its outputs; return its wall time."""
        nonlocal first, replay_sha, replay_bytes
        start = time.perf_counter()
        if record:
            result = traced_call("match", "harness.run_match", mk.run_match, spec)
        else:
            result = mk.run_match(spec)
        wall = time.perf_counter() - start
        outcome = outcome_of(result)
        op_ticks["match"] = sum(ep[2] for ep in outcome["episodes"])
        if first is None:
            first = outcome
        checks.check(outcome == first, "outcomes differ between repeats of one seed")
        if w.replay:
            data = Path(replay_path).read_bytes()
            sha = hashlib.sha256(data).hexdigest()
            if replay_sha is None:
                replay_sha, replay_bytes = sha, len(data)
            checks.check(sha == replay_sha, "replay bytes differ between repeats of one seed")
        return wall

    def verify() -> float:
        """Verify the replay the match wrote; return the wall time."""
        start = time.perf_counter()
        result = traced_call("verify", "replay.replay_verify", mk.replay_verify, replay_path)
        wall = time.perf_counter() - start
        checks.check(result.ok, f"replay_verify: {result}")
        op_ticks["verify"] = op_ticks["match"]
        return wall

    walls: list[float] = []  # raw, of the timed operation, calibration time taken off
    # Per repeat, REFERENCE_S over the mean kernel time around and (untraced)
    # inside it: a time times its scale, or a rate over it, is at the reference speed.
    scales: list[float] = []
    repeat_times: list[dict] = []
    repeat_counts: list[dict] = []
    coverages: list[float] = []
    peak_rss_mb = 0.0
    try:
        if w.op == "verify":
            match(record=False)  # writes the replay that the timed loop verifies
        if clock is not None:
            clock.active = True
        deadline = time.perf_counter() + cfg["seconds"]
        while len(walls) < MIN_REPEATS or time.perf_counter() < deadline:
            if tracer is not None:
                tracer.begin()
            if clock is not None:
                clock.calibrate()
                first_mark, excluded = len(clock.marks) - 1, clock.excluded
            else:
                before = [kernel_seconds() for _ in range(3)]
            try:
                wall = match() if w.op == "match" else verify()
                if clock is not None:
                    wall -= clock.excluded - excluded
                    clock.calibrate()
                    kernels = [k for _, k in clock.marks[first_mark:]]
                else:
                    kernels = before + [kernel_seconds() for _ in range(3)]
                scales.append(REFERENCE_S / statistics.mean(kernels))
                walls.append(wall)
                if len(walls) == MIN_REPEATS:
                    # Later repeats only add tick samples; the peak is marlkit's by now.
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                # pong-replay verifies what it wrote, untimed, as an output check
                roots_wall = wall + (verify() if w.op == "match" and w.replay else 0.0)
            except Exception as exc:  # a failed operation is counted, then reported
                checks.check(False, f"{type(exc).__name__}: {exc}")
                break
            if tracer is not None:
                times, counts = layer_rows(tracer, op_ticks, replay_bytes, scales[-1])
                repeat_times.append(times)
                repeat_counts.append(counts)
                self_total = sum(s for s, _ in tracer.self_times().values())
                coverages.append(self_total / roots_wall)
                checks.check(tracer.open_spans() == 0, "spans left open")
        if clock is not None:
            clock.active = False
    finally:
        if os.path.exists(replay_path):
            os.remove(replay_path)

    result: dict = {
        "repeats": len(walls), "walls": walls, "scales": scales, "ticks": op_ticks[w.op],
        "outcome": first, "replay_sha256": replay_sha,
        "peak_rss_mb": peak_rss_mb,
    }
    if clock is not None and walls:
        expected = len(walls) * sum(ep[2] - 1 for ep in first["episodes"])
        checks.check(len(clock.samples) == expected,
                     f"tick clock read {len(clock.samples)} ticks, expected {expected}")
        result["tick_samples"] = len(clock.samples)
        result["raw_tick_us"] = percentiles(clock.samples)
        result["tick_us"] = percentiles(clock.scaled_samples())
    if tracer is not None and repeat_times:
        checks.check(all(c == repeat_counts[0] for c in repeat_counts),
                     "count metrics differ between repeats of one seed")
        names = set().union(*repeat_times)
        layers = {n: statistics.median(t.get(n, 0.0) for t in repeat_times) for n in names}
        layers.update(repeat_counts[0])
        result["layers"] = layers
        result["coverage"] = coverages
        tracer.write(str(out_dir / f"trace-{cfg['workload']}.jsonl"))
    result["attempted"] = checks.attempted + len(walls)
    result["failures"] = checks.failures
    return result


def main(argv: list[str]) -> None:
    if argv[1] == "setup":
        result = setup_probe(argv[2])
    else:
        result = run(json.loads(argv[2]))
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
