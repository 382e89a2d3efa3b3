"""Malformed env, agent and interface params end in exit 2, never in a traceback.

Env params are checked against the type each config field declares; built-in
agent and interface factories reject params they do not read; string config
keys must be strings; and the pong and gridbattle encoders check what they
read on every slot at setup.
"""

from __future__ import annotations

import json
import re

import pytest

from marlkit import (
    BoxSpec,
    ConfigError,
    DiscreteSpec,
    MappingSpec,
    MatchSpec,
    RandomAgent,
    SeqSpec,
    SetupError,
    build_pipeline,
    make_agent,
    make_interface,
    registry,
)
from marlkit import agents as agents_module
from marlkit.cli import main as cli_main
from marlkit.envs.gridbattle import BattleConfig, BattleEnv
from marlkit.envs.pong import PongConfig, PongEnv


def run_cli(argv, capsys) -> str:
    """The CLI's stderr, once it has exited 2 without a traceback."""
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def _run(env: str, agents: int, *extra: str) -> list[str]:
    return ["run", "--env", env, "--agents", ",".join(["random"] * agents), *extra]


BAD_PARAMS = {
    "bomber_size_float": (_run("bomber", 4, "--env-param", "size=11.0"),
                          "BomberConfig parameters: 'size' must be int, got 11.0"),
    "pong_step_limit_float": (_run("pong2p", 2, "--env-param", "step_limit=5.5"),
                              "PongConfig parameters: 'step_limit' must be int, got 5.5"),
    "pong_win_score_float": (_run("pong2p", 2, "--env-param", "win_score=2.5"),
                             "PongConfig parameters: 'win_score' must be int, got 2.5"),
    "battle_step_limit_bool": (_run("gridbattle", 2, "--env-param", "step_limit=true"),
                               "BattleConfig parameters: 'step_limit' must be int, got True"),
    "pong_mirror_serves_string": (_run("pong2p", 2, "--env-param", 'mirror_serves="no"'),
                                  "PongConfig parameters: 'mirror_serves' must be bool, got 'no'"),
    "screen_obs_typo": (
        _run("pong2p", 2, "--env-param", "step_limit=20",
             "--agent-itf", '[{"name": "pong.screen_obs", "resolutoin": 16}]', "--agent-itf", "-"),
        "pong.screen_obs params has unknown keys ['resolutoin']; known: ['resolution']"),
    "make_team_typo": (
        _run("bomber", 2, "--mode", "2v2",
             "--env-itf", '[{"name": "make_team", "grops": [[0, 1], [2, 3]]}]'),
        "make_team params has unknown keys ['grops']; known: ['groups']"),
    "rotate_typo": (
        _run("bomber", 4, "--env-itf", '[{"name": "bomber.rotate", "params": {"turns": 1}}]'),
        "bomber.rotate params has unknown keys ['turns']; known: []"),
}


@pytest.mark.parametrize("argv, message", BAD_PARAMS.values(), ids=BAD_PARAMS)
def test_bad_run_params_exit_2(capsys, argv, message):
    assert message in run_cli(argv, capsys)


def _tourney(**changes) -> dict:
    config = {
        "env": {"name": "pong2p", "params": {"step_limit": 20}},
        "entrants": [{"name": "random", "label": "a"}, {"name": "random", "label": "b"}],
        "episodes_per_pair": 1,
    }
    for key, value in changes.items():
        if key == "entrant":
            config["entrants"][0].update(value)
        else:
            config[key] = value
    return config


BAD_TOURNEYS = {
    "random_agent_typo": (_tourney(entrant={"params": {"sed": 5}}),
                          "random params has unknown keys ['sed']; known: ['seed']"),
    "label_not_a_string": (_tourney(entrant={"label": 5}), "'label' must be a string, got 5"),
    "replay_dir_not_a_string": (_tourney(replay_dir=5), "'replay_dir' must be a string, got 5"),
}


@pytest.mark.parametrize("config, message", BAD_TOURNEYS.values(), ids=BAD_TOURNEYS)
def test_bad_tourney_params_exit_2(tmp_path, capsys, config, message):
    path = tmp_path / "tourney.json"
    path.write_text(json.dumps(config))
    assert message in run_cli(["tourney", "--config", str(path)], capsys)
    assert list(tmp_path.iterdir()) == [path]


def test_match_config_replay_must_be_a_string():
    with pytest.raises(ConfigError, match="'replay' must be a string, got 5"):
        MatchSpec.from_jsonable({"env": {"name": "pong2p"}, "replay": 5})


def test_params_that_are_read_still_work():
    assert type(make_agent("random", {"seed": 5})) is RandomAgent
    assert make_interface("pong.screen_obs", {"resolution": 16}).resolution == 16
    assert build_pipeline([{"name": "pong.screen_obs", "resolution": 16}]).resolution == 16
    # A null env param means the field's default; a float field takes an int.
    env = registry.make_env("pong2p", {"step_limit": None, "field_w": 80})
    assert (env.cfg.step_limit, env.cfg.field_w) == (3000, 80)


# ---------------------------------------------------------------------------
# Encoders check every slot at setup: envs whose specs an encoder cannot read.


def _without(spec: MappingSpec, *keys: str) -> MappingSpec:
    return MappingSpec({k: v for k, v in spec.entries if k not in keys})


def _pong_specs(specs):
    return [_without(s, "own_paddle_y", "opp_paddle_y") for s in specs]


def _pong_slot1_specs(specs):
    return [specs[0], *_pong_specs(specs[1:])]


def _units_box_specs(specs):
    return [MappingSpec({"self_id": s["self_id"], "units": BoxSpec((1,), 0.0, 1.0)})
            for s in specs]


def _units_kindless_specs(specs):
    return [MappingSpec({"self_id": s["self_id"],
                         "units": SeqSpec(tuple(_without(u, "kind") for u in s["units"].items))})
            for s in specs]


def _units_kindless_at_3(specs):
    """Unit 3 without "kind", after three units that share one spec object."""
    units = specs[0]["units"].items
    assert units[0] is units[1] is units[2]
    bad = SeqSpec(units[:3] + (_without(units[3], "kind"),) + units[4:])
    return [MappingSpec({"self_id": s["self_id"], "units": bad}) for s in specs]


def _foreign_slot1(scenario: str):
    def specs_of(specs):
        other = BattleEnv(BattleConfig(scenario=scenario)).observation_specs[0]
        return [specs[0], other, *specs[2:]]
    return specs_of


def _respecced(env_cls, config, specs_of):
    class Respecced(env_cls):
        @property
        def observation_specs(self):
            return specs_of(super().observation_specs)

    return lambda params: Respecced(config)


SPEC_CASES = {
    "screen_obs_without_paddles": (PongEnv, PongConfig(step_limit=20), _pong_specs,
                                   "pong.screen_obs", "slot 0: pong.screen_obs observation lacks"),
    "screen_obs_slot1_without_paddles": (PongEnv, PongConfig(step_limit=20), _pong_slot1_specs,
                                         "pong.screen_obs", "slot 1: pong.screen_obs observation"),
    "img5i_units_not_a_sequence": (BattleEnv, BattleConfig(step_limit=20), _units_box_specs,
                                   "battle.img5i", "observation['units'] must be a sequence"),
    "img5i_units_without_kind": (BattleEnv, BattleConfig(step_limit=20), _units_kindless_specs,
                                 "battle.img5i", "observation['units'][0] lacks keys ['kind']"),
    "img5i_units_without_kind_after_shared": (
        BattleEnv, BattleConfig(step_limit=20), _units_kindless_at_3, "battle.img5i",
        "slot 0: Img5IObs observation['units'][3] lacks keys ['kind']"),
    "img5i_foreign_slot1": (BattleEnv, BattleConfig(step_limit=20), _foreign_slot1("3I2Z"),
                            "battle.img5i", "slot 1: Img5IObs does not match this scenario"),
    "img3i2z_foreign_slot1": (BattleEnv, BattleConfig(scenario="3I2Z", step_limit=20),
                              _foreign_slot1("5I"), "battle.img3i2z",
                              "slot 1: Img3I2ZObs does not match this scenario"),
}


@pytest.mark.parametrize("env_cls, config, specs_of, itf, message", SPEC_CASES.values(),
                         ids=SPEC_CASES)
def test_encoder_setup_checks_every_slot(monkeypatch, capsys, env_cls, config, specs_of, itf,
                                         message):
    monkeypatch.setitem(registry._ENVS, "respecced", _respecced(env_cls, config, specs_of))
    assert message in run_cli(_run("respecced", 2, "--env-itf", itf), capsys)


# ---------------------------------------------------------------------------
# require_spec checks each distinct item object of a sequence once


def _count_require_spec(monkeypatch) -> list:
    """Record the spec of every require_spec call, recursive ones included."""
    calls = []
    inner = agents_module.require_spec

    def counting(spec, pattern, what):
        calls.append(spec)
        return inner(spec, pattern, what)

    monkeypatch.setattr(agents_module, "require_spec", counting)
    return calls


_UNIT = {"row": (1,), "col": (1,)}


def _unit_spec():
    return MappingSpec({"row": BoxSpec((1,), 0.0, 7.0), "col": BoxSpec((1,), 0.0, 7.0)})


def test_require_spec_checks_equal_but_distinct_items_one_by_one(monkeypatch):
    items = tuple(_unit_spec() for _ in range(4))
    assert all(item == items[0] and item is not items[0] for item in items[1:])
    calls = _count_require_spec(monkeypatch)
    agents_module.require_spec(SeqSpec(items), [_UNIT], "units")
    assert [id(c) for c in calls if isinstance(c, MappingSpec)] == list(map(id, items))


def test_require_spec_checks_a_shared_item_once(monkeypatch):
    shared = _unit_spec()
    calls = _count_require_spec(monkeypatch)
    agents_module.require_spec(SeqSpec((shared,) * 4), [_UNIT], "units")
    assert sum(c is shared for c in calls) == 1


@pytest.mark.parametrize("bad_at", [1, 3, 5])
def test_require_spec_names_the_first_bad_item_after_shared_ones(bad_at):
    shared, bad = _unit_spec(), MappingSpec({"row": BoxSpec((1,), 0.0, 7.0)})
    items = [shared] * 6
    items[bad_at] = bad
    items.append(bad)  # a second bad item, shared with the first: not named
    with pytest.raises(SetupError, match=re.escape(f"units[{bad_at}] lacks keys ['col']")):
        agents_module.require_spec(SeqSpec(tuple(items)), [_UNIT], "units")


def test_hit_and_run_setup_names_a_bad_unit_after_shared_ones():
    spec = BattleEnv(BattleConfig()).observation_specs[0]
    units = spec["units"].items
    bad = SeqSpec(units[:3] + (_without(units[3], "cd"),) + units[4:])
    agent = make_agent("battle.hit_and_run")
    with pytest.raises(SetupError,
                       match=re.escape("observation['units'][3] lacks keys ['cd']")):
        agent.setup(MappingSpec({"self_id": spec["self_id"], "units": bad}), DiscreteSpec(9))
