"""The CLI survives generated argv and tourney configs.

Hypothesis (derandomized, so every run draws the same cases) builds argv from
the README's grammar (the list commands, run, tourney, verify-replay and
render) and tourney configs. A case is valid, or has hostile parts: a huge,
negative, non-finite, string or nested value, a size past its bound, an
unknown name or key, or a malformed flag. One child process, whose address space alone is capped by
RLIMIT_AS, runs every case through main() in turn. Each must return 0, 1 or 2
as the README says and print no Traceback; a valid case returns 0 and a
hostile one 1 or 2. A hostile `run` is refused before any env is reset: every
input is bounded before it is used.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from marlkit import AgentSpec, MatchSpec, run_match

SRC = Path(__file__).resolve().parent.parent / "src"
ADDRESS_SPACE = 1 << 30  # bytes, the child's RLIMIT_AS
BUDGET_S = 10.0
TMP = "{tmp}"  # stands for the test's temporary directory in generated argv and configs

# The child: cap its own address space, count env resets, run each case's argv
# through main() and print one [code, traceback printed, resets] per case.
CHILD = r"""
import contextlib, io, json, resource, sys, traceback
resource.setrlimit(resource.RLIMIT_AS, (int(sys.argv[2]),) * 2)
from marlkit.cli import main
from marlkit.env import Env
resets = [0]
reset = Env.reset
def counting_reset(self, seed):
    resets[0] += 1
    return reset(self, seed)
Env.reset = counting_reset
with open(sys.argv[1], encoding="utf-8") as fh:
    cases = json.load(fh)
results = []
for argv in cases:
    out = io.StringIO()
    resets[0] = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and --version
            code = exc.code
        except Exception as exc:  # every escape, MemoryError included, is a fault
            traceback.print_exc()
            code = f"{type(exc).__name__}: {str(exc)[:80]}"
    results.append([code, "Traceback" in out.getvalue(), resets[0]])
sys.__stdout__.write(json.dumps(results))
"""

# JSON texts (or plain strings, which --env-param keeps as strings): non-finite,
# negative, fractional and huge numbers, strings, a bool, nesting (shallow, and
# deeper than the recursion limit).
DEEP = "[" * 5000 + "]" * 5000
NONFINITE = ("NaN", "Infinity", "-Infinity")
HUGE = ("1e308", str(2**64), "1" + "0" * 100)
NESTED = ("[[[1]]]", '{"m": {"s": [{"d": 0}]}}', DEEP)
STRINGS = ('"x"', "x")
NOT_POSITIVE = ("0", "-1", str(-2**64))
# The hostile texts for each kind of config field. A huge number is hostile
# only where the field has an upper bound; elsewhere it is a valid value.
HOSTILE = {
    "pos_int": NONFINITE + NOT_POSITIVE + NESTED + STRINGS + ("1.5", "true"),
    "pos_float": NONFINITE + NOT_POSITIVE + NESTED + STRINGS + ("true",),
    "bounded_float": NONFINITE + NOT_POSITIVE + NESTED + STRINGS + HUGE,
    "prob": NONFINITE + NESTED + STRINGS + HUGE + ("-1", "1.5", "true"),
    "bool": NONFINITE + NESTED + STRINGS + ("0", "1", "2.5"),
    "size": NONFINITE + NOT_POSITIVE + NESTED + STRINGS + HUGE + ("4", "65", "1.5", "true"),
    "choice": NONFINITE + NESTED + ('"nope"', "nope", "5", "true"),
}
# Each env: the hostile kind of each config field a case may set, the agents
# that play its raw views and the env-side pipelines random agents play behind.
ENVS = {
    "pong2p": {
        "fields": {"field_w": "bounded_float", "field_h": "bounded_float",
                   "paddle_speed": "pos_float", "speedup": "pos_float",
                   "max_deflect_deg": "pos_float", "win_score": "pos_int",
                   "mirror_serves": "bool"},
        "agents": ("random", "pong.follow_ball"),
        "pipelines": ("pong.screen_obs", '[{"name": "pong.screen_obs", "resolution": 16}]',
                      '[{"name": "pong.screen_obs", "params": {"resolution": 512}}]'),
    },
    "gridbattle": {
        "fields": {"scenario": "choice", "randomize_status": "bool",
                   "randomize_positions": "bool"},
        "agents": ("random", "battle.hit_and_run"),
        "pipelines": ("battle.img5i,battle.dead_pad",),
    },
    "bomber": {
        "fields": {"size": "size", "mode": "choice", "bomb_life": "pos_int",
                   "flame_life": "pos_int", "initial_ammo": "pos_int",
                   "initial_blast": "pos_int", "wood_density": "prob", "powerup_prob": "prob"},
        "agents": ("random", "bomber.simple"),
        "pipelines": ("bomber.board_map", "bomber.board_map,bomber.rotate",
                      '[{"name": "bomber.board_map"}, {"name": "bomber.rotate"}]'),
    },
}
# Pipelines refused on every env above: unknown names and params, bounds,
# shapes that are not a list of objects, deep nesting, and a param given both
# inline and under "params".
BAD_PIPELINES = (
    "nope", '[{"name": "nope"}]', '[{"name": "identity", "resolutoin": 3}]', "[1]", '["x"]',
    '{"name": "identity"}', '[{"params": {}}]', '[{"name": 5}]', "[", DEEP,
    '[{"name": "pong.screen_obs", "params": {"resolution": 32}, "resolution": 64}]',
    *(f'[{{"name": "pong.screen_obs", "resolution": {r}}}]'
      for r in ("1.5", '"32"', "NaN", "true")),
)
# Integer sizes past their bounds, each in a match that is valid otherwise: a
# pong.screen_obs resolution outside [16, 512] and a bomber size that is not
# odd in [5, 63].
PAST_BOUNDS = {
    "pong2p": tuple(f'[{{"name": "pong.screen_obs", "resolution": {r}}}]'
                    for r in (15, 513, 100000, 2**64, 0, -1)),
    "bomber": ("3", "4", "65", "101", str(2**64), "-1"),
}
I64 = 2**63


def _in_range(seed: int) -> bool:
    return -I64 <= seed < I64


@st.composite
def seeds(draw) -> int:
    """Seeds near zero and near both ends of the signed 64-bit range."""
    return draw(st.one_of(st.integers(0, 9), st.integers(I64 - 3, I64 - 1),
                          st.integers(-I64, -I64 + 2)))


@st.composite
def run_case(draw) -> tuple[list[str], bool]:
    """(argv, hostile) for `run`: a valid match with at most one part made hostile."""
    env = draw(st.sampled_from(sorted(ENVS)))
    entry = ENVS[env]
    hostile = draw(st.sampled_from(["", "", "", "seed", "episodes", "param", "pipeline", "agents",
                                    "agent_itf", "flag"] + ["bound"] * (env in PAST_BOUNDS)))
    params = {"step_limit": str(draw(st.integers(1, 4)))}
    parties = 2
    if env == "gridbattle":
        params["scenario"] = '"5I"'
    if env == "bomber":
        sizes = PAST_BOUNDS[env] if hostile == "bound" else ("5", "11", "63")
        params["size"] = draw(st.sampled_from(sizes))
        params["initial_ammo"] = draw(st.sampled_from(["1", "200"]))  # past the default bound too
        parties = draw(st.sampled_from([2, 4]))
        params["mode"] = '"ffa"' if parties == 4 else '"2v2"'
    pipeline = draw(st.sampled_from((None,) + entry["pipelines"]))
    if hostile == "bound" and env == "pong2p":
        pipeline = draw(st.sampled_from(PAST_BOUNDS[env]))
    names = ("random",) if pipeline else entry["agents"]
    agents = [draw(st.sampled_from(names)) for _ in range(parties)]
    # An agent-side pipeline cannot cover a party whose slots are apart, as
    # bomber 2v2's {0, 2} and {1, 3} are.
    apart = env == "bomber" and parties == 2
    agent_itf = draw(st.sampled_from([None, "-"] if apart else [None, "-", "identity"]))
    seed, episodes = draw(seeds()), draw(st.integers(1, 3))
    if hostile == "seed":
        seed = draw(st.one_of(st.integers(I64, 2**64), st.integers(-2**64, -I64 - 1),
                              st.sampled_from(["x", "1.5", ""])))
    elif hostile == "episodes":
        episodes = draw(st.sampled_from(["0", "-1", "x", "1.5", str(2**65)]))
    elif hostile == "param":
        key = draw(st.sampled_from(sorted(entry["fields"]) + ["step_limit", "nope"]))
        kind = entry["fields"].get(key, "pos_int")
        params[key] = draw(st.sampled_from(HOSTILE[kind]))
    elif hostile == "pipeline":
        pipeline = draw(st.sampled_from(BAD_PIPELINES))
    elif hostile == "agents":
        agents = draw(st.sampled_from([agents[:-1], agents + ["random"], agents[:-1] + ["nope"],
                                       [], [""]]))
    argv = ["run", "--env", env, "--agents", ",".join(agents), "--seed", str(seed),
            "--episodes", str(episodes)]
    for key, text in params.items():
        argv += ["--env-param", f"{key}={text}"]
    if pipeline is not None:
        argv += ["--env-itf", pipeline]
    if agent_itf is not None or hostile == "agent_itf":
        itfs = [agent_itf or "-"] * len(agents)
        if hostile == "agent_itf":
            itfs = draw(st.sampled_from([itfs[:-1], itfs + ["-"], ["nope"] * len(agents),
                                         ['[{"name": "nope"}]'] * len(agents)]))
        for itf in itfs:
            argv += ["--agent-itf", itf]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv += ["--replay", f"{TMP}/run.jsonl"]
    if hostile == "flag":
        at = argv.index(draw(st.sampled_from(["--env", "--agents"])))
        argv = draw(st.sampled_from([argv + ["--nope"], argv + ["--seed"], argv + ["stray"],
                                     argv[:at] + argv[at + 2:],  # a required flag left out
                                     argv + ["--env-param", "novalue"]]))
    if not hostile and not _in_range(seed + episodes - 1):
        hostile = "seed"  # a seed and episode count valid alone may end out of range
    return argv, bool(hostile)


@st.composite
def tourney_case(draw) -> tuple[dict | str, bool]:
    """(config or raw text, hostile) for `tourney --config`."""
    env = draw(st.sampled_from(sorted(ENVS)))
    entry = ENVS[env]
    params: dict = {"step_limit": draw(st.integers(1, 3))}
    if env == "bomber":
        params["mode"] = "2v2"
    entrants = [{"name": draw(st.sampled_from(entry["agents"])), "label": f"e{i}"}
                for i in range(draw(st.integers(2, 3)))]
    config = {"env": {"name": env, "params": params}, "entrants": entrants,
              "episodes_per_pair": draw(st.integers(1, 2)), "seed": draw(seeds())}
    if draw(st.booleans()):
        config["replay_dir"] = TMP
    if draw(st.booleans()):
        entrants[0]["params"] = {"seed": draw(st.integers(0, 9))} \
            if entrants[0]["name"] == "random" else {}
    nasty = [float("nan"), float("inf"), -1, 1.5, 2**65, -2**65, "x", True, None, [[1]],
             {"m": {}}, []]
    hostile = draw(st.sampled_from(["", "", "", "top", "env", "param", "entrant", "key", "text"]))
    if hostile == "text":
        return draw(st.sampled_from(["", "{", "[]", "5", "null", "\udcff", DEEP])), True
    if hostile == "top":
        key = draw(st.sampled_from(["env", "entrants", "episodes_per_pair", "seed",
                                    "env_interfaces", "replay_dir"]))
        # Valid, so left out: null (the default) but for env and entrants, an
        # empty pipeline and the in-range seed -1.
        config[key] = draw(st.sampled_from([
            v for v in nasty if not (v is None and key not in ("env", "entrants")
                                     or key == "env_interfaces" and v == []
                                     or key == "seed" and v == -1)]))
    elif hostile == "env":
        config["env"] = draw(st.sampled_from([{"name": "nope"}, {"params": {}}, {"name": 5},
                                              {"name": env, "params": [1]},
                                              {"name": env, "extra": 1}]))
    elif hostile == "param":
        key = draw(st.sampled_from(sorted(entry["fields"]) + ["step_limit", "nope"]))
        text = draw(st.sampled_from([t for t in HOSTILE[entry["fields"].get(key, "pos_int")]
                                     if t != DEEP]))
        try:
            params[key] = json.loads(text)
        except json.JSONDecodeError:
            params[key] = text  # as --env-param keeps a text that is not JSON
    elif hostile == "entrant":
        which = draw(st.integers(0, len(entrants) - 1))
        entrants[which] = draw(st.sampled_from([
            {"name": "nope"}, {"name": 5}, {}, "random",
            {"name": "random", "label": entrants[1 - which]["label"]},
            {"name": "random", "params": {"seed": "x"}}, {"name": "random", "params": []},
            {"name": "random", "interfaces": [{"name": "nope"}]}, {"name": "random", "x": 1}]))
    elif hostile == "key":
        config[draw(st.sampled_from(["sed", "entrant", ""]))] = 0
    pairs = len(entrants) * (len(entrants) - 1) // 2
    if hostile == "" and not _in_range(config["seed"] + pairs * config["episodes_per_pair"] - 1):
        hostile = "seed"  # the last pair's last seed may lie out of range
    return config, bool(hostile)


# Tourney configs whose one bad entrant comes third, so that its first pair is
# the last: it must be refused before the pairs ahead of it play.
LATE_BAD_ENTRANTS = [
    ({"env": {"name": "pong2p", "params": {"step_limit": 3}}, "episodes_per_pair": 2,
      "entrants": [{"name": "random", "label": "e0"}, {"name": "random", "label": "e1"}, bad]},
     True)
    for bad in ({"name": "nope"}, {"name": "random", "params": {"seed": "x"}},
                {"name": "random", "interfaces": [{"name": "nope_itf"}]})
]


# The other commands: listings, help, version and the replay readers, with good
# and bad paths and flags. "{tmp}/good.jsonl" is a valid replay.
OTHER = [
    (["list-envs"], False), (["list-agents"], False), (["list-interfaces"], False),
    (["--version"], False), (["run", "--help"], False),
    (["verify-replay", f"{TMP}/good.jsonl"], False),
    (["render", f"{TMP}/good.jsonl", "--fps", "0"], False),
    (["render", f"{TMP}/good.jsonl", "--fps", "inf", "--episodes", "1"], False),
    ([], True), (["nope"], True), (["run"], True), (["--seed", "1"], True),
    (["verify-replay"], True), (["verify-replay", f"{TMP}/missing.jsonl"], True),
    (["verify-replay", TMP], True), (["render", f"{TMP}/missing.jsonl", "--fps", "0"], True),
    (["tourney", "--config", f"{TMP}/missing.json"], True), (["tourney", "--config", TMP], True),
    *((["render", f"{TMP}/good.jsonl", "--fps", fps], True)
      for fps in ("nan", "-1", "1e-300", "5e-324", "x")),
    *((["render", f"{TMP}/good.jsonl", "--fps", "0", "--episodes", n], True)
      for n in ("0", "-1", "x", "1.5")),
]


def generated(strategy, count: int) -> list:
    """count draws of strategy, the same on every run."""
    drawn = []

    @settings(max_examples=count, derandomize=True, database=None, deadline=None,
              phases=[Phase.generate], suppress_health_check=list(HealthCheck))
    @given(strategy)
    def draw(case):
        drawn.append(case)

    draw()
    return drawn


def test_generated_cli_cases_end_in_their_exit_codes(tmp_path):
    tmp = str(tmp_path)
    cases = [(argv, hostile, "run") for argv, hostile in generated(run_case(), 160)]
    for i, (config, hostile) in enumerate(generated(tourney_case(), 50) + LATE_BAD_ENTRANTS):
        path = tmp_path / f"tourney{i}.json"
        text = config if isinstance(config, str) else json.dumps(config)
        path.write_bytes(text.replace(TMP, tmp).encode("utf-8", "surrogateescape"))
        cases.append((["tourney", "--config", str(path), "--json"], hostile, "tourney"))
    cases += [(argv, hostile, "other") for argv, hostile in OTHER]
    argvs = [[arg.replace(TMP, tmp) for arg in argv] for argv, _, _ in cases]
    assert sum(hostile for _, hostile, _ in cases) > len(cases) // 3
    assert sum(not hostile for _, hostile, _ in cases) > len(cases) // 5

    run_match(MatchSpec("pong2p", {"step_limit": 3}, agents=(AgentSpec("random"),) * 2,
                        replay_path=str(tmp_path / "good.jsonl")))
    (tmp_path / "cases.json").write_text(json.dumps(argvs), encoding="utf-8")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, str(tmp_path / "cases.json"),
                           str(ADDRESS_SPACE)],
                          capture_output=True, text=True, timeout=6 * BUDGET_S, cwd=tmp,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    faults = []
    for (argv, hostile, command), (code, traced, resets) in zip(cases, results):
        want = (1, 2) if hostile else (0,)
        if code not in want or traced or (hostile and command in ("run", "tourney") and resets):
            shown = [a if len(a) < 60 else a[:57] + "..." for a in argv]
            faults.append(f"{shown}: exit {code}, traceback {traced}, resets {resets}")
    assert faults == []
    assert elapsed < BUDGET_S
