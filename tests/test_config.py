"""Config file parsing and scenario assembly."""

import importlib
import math
import pkgutil
import re
from pathlib import Path

import pytest

import oamcoop
from oamcoop.config import (
    KEYS,
    build_scenario,
    config_echo,
    dbm_to_watts,
    load_config,
    parse_config_text,
)
from oamcoop.errors import ConfigError
from oamcoop.sim import ScenarioConfig

FULL = """
# scenario
hotspot_side_m = 80
user_count = 1500
fbs_height_m = 60
trials = 50
master_seed = 9

link.carrier_frequency_hz = 2e9
link.transmit_power_dbm = 30
link.noise_power_dbm = -90
link.mode_set = 1, 2
selection.max_pair_distance_m = 9
selection.service_radius_m = 200
selection.epsilon = 1e-5
ground_bs.x_m = 40
ground_bs.y_m = 41
ground_bs.height_m = 25
"""


def test_parse_skips_comments_and_blanks():
    values = parse_config_text("# top\n\nuser_count = 12  # trailing\n")
    assert values == {"user_count": "12"}


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text("users = 5\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("trials = 5\ntrials = 6\n")


def test_parse_rejects_empty_value():
    with pytest.raises(ConfigError):
        parse_config_text("trials =\n")


def test_parse_rejects_bare_line():
    with pytest.raises(ConfigError):
        parse_config_text("just-some-words\n")


def test_dbm_conversion():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)


def test_build_full_scenario():
    cfg = build_scenario(parse_config_text(FULL))
    assert cfg.hotspot_side == 80.0
    assert cfg.user_count == 1500
    assert cfg.fbs_height == 60.0
    assert cfg.trials == 50
    assert cfg.master_seed == 9
    assert cfg.link.carrier_frequency == 2e9
    assert cfg.link.transmit_power == pytest.approx(1.0, rel=1e-12)
    assert cfg.link.noise_power == pytest.approx(1e-12, rel=1e-12)
    assert cfg.link.mode_set == (1, 2)
    assert cfg.selection.max_pair_distance == 9.0
    assert cfg.selection.service_radius == 200.0
    assert cfg.selection.stop_threshold == 1e-5
    assert cfg.ground_bs_position == (40.0, 41.0, 25.0)
    # planning height follows the flight height, not the file order
    assert cfg.selection.min_height == 60.0


def test_power_units_are_exclusive():
    with pytest.raises(ConfigError, match="not both"):
        build_scenario(
            parse_config_text("link.transmit_power_dbm = 30\nlink.transmit_power_w = 1\n")
        )


def test_watt_keys_accepted():
    cfg = build_scenario(
        parse_config_text("link.transmit_power_w = 2\nlink.noise_power_w = 1e-11\n")
    )
    assert cfg.link.transmit_power == 2.0
    assert cfg.link.noise_power == 1e-11


def test_bad_numbers_become_config_errors():
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("trials = soon\n"))
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("user_count = 2.5\n"))
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("link.mode_set = 1\n"))
    with pytest.raises(ConfigError):
        build_scenario(parse_config_text("fbs_height_m = -5\n"))
    with pytest.raises(ConfigError, match="link.transmit_power_dbm"):
        build_scenario(parse_config_text("link.transmit_power_dbm = 1e5\n"))


def test_defaults_match_dataclass(tmp_path):
    assert load_config(None) == ScenarioConfig()
    empty = tmp_path / "empty.cfg"
    empty.write_text("# nothing configured\n")
    assert load_config(empty) == ScenarioConfig()


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_echo_reports_resolved_values():
    cfg = build_scenario(parse_config_text(FULL))
    echo = config_echo(cfg)
    assert echo["hotspot_side_m"] == 80.0
    assert echo["link.transmit_power_w"] == pytest.approx(1.0)
    assert echo["selection.min_height_m"] == 60.0
    assert echo["link.ring_mode"] == 1
    lam = cfg.link.wavelength
    assert echo["link.aperture_m2"] == pytest.approx(lam * lam / (4 * math.pi))


def test_echo_is_pinned_and_covers_every_key():
    echo = config_echo(build_scenario(parse_config_text(FULL)))
    assert echo == {
        "hotspot_side_m": 80.0,
        "user_count": 1500,
        "fbs_height_m": 60.0,
        "trials": 50,
        "master_seed": 9,
        "link.carrier_frequency_hz": 2000000000.0,
        "link.transmit_power_w": 1.0,
        "link.noise_power_w": 1.0000000000000002e-12,
        "link.mode_set": [1, 2],
        "link.aperture_m2": 0.0017880166165675552,
        "link.ring_mode": 1,
        "selection.max_pair_distance_m": 9.0,
        "selection.service_radius_m": 200.0,
        "selection.epsilon": 1e-05,
        "selection.min_height_m": 60.0,
        "ground_bs.x_m": 40.0,
        "ground_bs.y_m": 41.0,
        "ground_bs.height_m": 25.0,
    }
    schema = {key for key in KEYS if not key.endswith("_dbm")}
    assert set(echo) == schema | {"link.ring_mode", "selection.min_height_m"}


def test_readme_table_lists_exactly_the_schema_keys():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Configuration files", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(KEYS)


# Backticked words in README's "What is inside" that name no package code.
README_WORDS = {"arctan2"}


def test_readme_names_in_what_is_inside_resolve():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    names = [
        name
        for name in re.findall(r"`([^`]+)`", section)
        if re.fullmatch(r"[A-Za-z_]\w*(\.\w+)*", name) and name not in README_WORDS
    ]
    assert names
    # A name resolves from the package, from one of its modules, or as a
    # scenario config field.
    modules = [
        importlib.import_module(f"oamcoop.{m.name}")
        for m in pkgutil.iter_modules(oamcoop.__path__)
        if m.name != "__main__"
    ]
    roots = [oamcoop, *modules, ScenarioConfig()]

    missing = object()

    def resolves(name):
        first, *rest = name.split(".")
        if first == "oamcoop":
            starts = [oamcoop]
        else:
            starts = [getattr(root, first, missing) for root in roots]
        for obj in starts:
            for part in rest:
                obj = getattr(obj, part, missing)
            if obj is not missing:
                return True
        return False

    assert [name for name in names if not resolves(name)] == []
