"""Command-line front end.

Subcommands: list-envs / list-agents / list-interfaces, run (seeded matches
with optional replay logging), tourney (round robin from a JSON config),
verify-replay (re-simulate and check every record), and render (ASCII
animation of a replay). Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Sequence

from .errors import MarlkitError
from .harness import round_robin, run_match, toolkit_version
from .registry import (AgentSpec, MatchSpec, config_value, env_entry, list_agents, list_envs,
                       list_interfaces, make_env, require_known_keys)
from .replay import read_replay, replay_verify, step_actions


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        raise _UsageError(message)


def _parse_kv(pairs: Sequence[str]) -> dict[str, Any]:
    params: dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise _UsageError(f"expected key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
        except RecursionError as exc:
            raise _UsageError(f"bad JSON for {key!r}: {exc}")
    return params


def _parse_pipeline(text: str | None) -> tuple[dict[str, Any], ...]:
    """A pipeline flag: JSON list of {name, params} or a comma list of names."""
    if not text or text == "-":
        return ()
    text = text.strip()
    if text.startswith("["):
        try:
            entries = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise _UsageError(f"bad pipeline JSON: {exc}")
        if not isinstance(entries, list):
            raise _UsageError("pipeline JSON must be a list")
        return tuple(entries)
    return tuple({"name": name.strip()} for name in text.split(",") if name.strip())


def _build_parser() -> _Parser:
    parser = _Parser(prog="marlkit", description=__doc__)
    parser.add_argument("--version", action="version", version=toolkit_version())
    sub = parser.add_subparsers(dest="command", required=True)

    for noun, names in (("envs", list_envs), ("agents", list_agents),
                        ("interfaces", list_interfaces)):
        listing = sub.add_parser(f"list-{noun}", help=f"list registered {noun}")
        listing.set_defaults(func=_cmd_list, names=names)

    run = sub.add_parser("run", help="run a seeded match")
    run.set_defaults(func=_cmd_run)
    run.add_argument("--env", required=True, help="environment registry name")
    run.add_argument("--mode", default=None,
                     help="shorthand for --env-param mode=..., e.g. 2v2")
    run.add_argument("--env-param", action="append", default=[], metavar="KEY=VALUE",
                     help="environment parameter (repeatable), e.g. scenario=5I")
    run.add_argument("--agents", required=True,
                     help="comma list of agent registry names, one per party")
    run.add_argument("--env-itf", default=None,
                     help="env-side pipeline: JSON list or comma list of names")
    run.add_argument("--agent-itf", action="append", default=[],
                     help="agent-side pipeline for the matching --agents entry "
                          "(repeatable, '-' for none)")
    run.add_argument("--episodes", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--replay", default=None, metavar="PATH",
                     help="write a JSONL replay of every episode")
    run.add_argument("--json", action="store_true", help="machine-readable stats on stdout")

    tourney = sub.add_parser("tourney", help="round-robin tournament from a config file")
    tourney.add_argument("--config", required=True, metavar="PATH")
    tourney.add_argument("--json", action="store_true")
    tourney.set_defaults(func=_cmd_tourney)

    verify = sub.add_parser("verify-replay", help="re-simulate a replay and check every record")
    verify.add_argument("path", metavar="PATH")
    verify.set_defaults(func=_cmd_verify)

    render = sub.add_parser("render", help="ASCII animation of a replay")
    render.add_argument("path", metavar="PATH")
    render.add_argument("--fps", type=float, default=4.0,
                        help="frames per second; 0 disables sleeping")
    render.add_argument("--episodes", type=int, default=None,
                        help="render at most this many episodes")
    render.set_defaults(func=_cmd_render)
    return parser


def _cmd_list(args) -> int:
    print("\n".join(args.names()))
    return 0


def _cmd_run(args) -> int:
    agent_names = [n.strip() for n in args.agents.split(",") if n.strip()]
    if not agent_names:
        raise _UsageError("--agents needs at least one name")
    pipelines = [_parse_pipeline(p) for p in args.agent_itf]
    if pipelines and len(pipelines) != len(agent_names):
        raise _UsageError("--agent-itf must be given once per --agents entry (use '-')")
    agents = tuple(
        AgentSpec(name=name, interfaces=pipelines[i] if pipelines else ())
        for i, name in enumerate(agent_names)
    )
    env_params = _parse_kv(args.env_param)
    if args.mode is not None:
        env_params["mode"] = args.mode
    spec = MatchSpec(
        env_name=args.env,
        env_params=env_params,
        env_interfaces=_parse_pipeline(args.env_itf),
        agents=agents,
        episodes=args.episodes,
        base_seed=args.seed,
        replay_path=args.replay,
    )
    result = run_match(spec)
    stats = result.stats_jsonable()
    if args.json:
        print(json.dumps(stats, sort_keys=True))
    else:
        print(f"{stats['env']}: {' vs '.join(stats['agents'])} over {stats['episodes']} episodes")
        print(f"  wins={stats['wins']} draws={stats['draws']} losses={stats['losses']} "
              f"win_rate={stats['win_rate']:.3f} (for {stats['agents'][0]})")
        print(f"  mean_length={stats['mean_length']:.1f}")
        if args.replay:
            print(f"  replay written to {args.replay}")
    return 0


TOURNEY_KEYS = ("env", "env_interfaces", "entrants", "episodes_per_pair", "seed", "replay_dir")


def _cmd_tourney(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise MarlkitError(f"cannot read config {args.config!r}: {exc}") from exc
    what = f"tourney config {args.config!r}"
    require_known_keys(config, TOURNEY_KEYS, what)
    env_name, env_params = env_entry(config, what)
    board = round_robin(
        [AgentSpec.from_jsonable(e) for e in config_value(config, "entrants", list, (), what)],
        env_name=env_name,
        env_params=env_params,
        env_interfaces=tuple(config_value(config, "env_interfaces", list, (), what)),
        episodes_per_pair=config_value(config, "episodes_per_pair", int, 2, what),
        base_seed=config_value(config, "seed", int, 0, what),
        replay_dir=config_value(config, "replay_dir", str, None, what),
    )
    if args.json:
        print(json.dumps(board.to_jsonable(), sort_keys=True))
        return 0
    points = board.points()
    order = sorted(range(len(points)), key=lambda i: -points[i])
    print(f"round robin over {board.episodes_per_pair} episodes per pair")
    for rank, i in enumerate(order, start=1):
        print(f"  {rank}. {board.labels[i]:<24} {points[i]:.1f} pts")
    matrix = board.win_rate_matrix()
    header = " ".join(f"{lbl[:10]:>10}" for lbl in board.labels)
    print(f"{'win rate':>12} {header}")
    for i, row in enumerate(matrix):
        cells = " ".join("      ." if v is None else f"{v:>10.3f}" for v in row)
        print(f"{board.labels[i][:12]:>12} {cells}")
    return 0


def _cmd_verify(args) -> int:
    result = replay_verify(args.path)
    if result.ok:
        print("ok")
        return 0
    where = ""
    if result.episode is not None:
        where = f" at episode {result.episode}"
        if result.step is not None:
            where += f", step {result.step}"
    print(f"DIVERGED{where}: {result.message}")
    return 2


def _cmd_render(args) -> int:
    if args.episodes is not None and args.episodes < 1:
        raise _UsageError(f"--episodes must be at least 1, got {args.episodes}")
    replay = read_replay(args.path)
    delay = 1.0 / args.fps if args.fps and args.fps > 0 else 0.0
    episodes = replay.episodes
    if args.episodes is not None:
        episodes = episodes[: args.episodes]
    for ep in episodes:
        env = make_env(replay.spec.env_name, replay.spec.env_params)
        env.reset(ep.seed)
        print(f"=== episode {ep.index} (seed {ep.seed}) ===")
        print(env.render_ascii())
        if delay:
            time.sleep(delay)
        for rec in ep.steps:
            env.step(step_actions(rec, args.path))
            print()
            print(env.render_ascii())
            if delay:
                time.sleep(delay)
        if ep.outcome is not None:
            winner = ep.outcome.get("winner")
            tag = "draw" if ep.outcome.get("draw") else f"winner: party {winner}"
            print(f"--- {tag}, length {ep.outcome.get('length')} ---")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except MarlkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
