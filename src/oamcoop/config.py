"""Flat key-value configuration files for the CLI.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Dotted keys group related settings; every key is
optional and falls back to the scenario defaults.  Powers may be given in
dBm (``*_dbm`` keys) or watts (``*_w`` keys), not both.

``KEYS`` is the one schema of the format: parsing, defaults and the
manifest echo all follow from it.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .errors import ConfigError
from .sim import ScenarioConfig


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


def _int(raw: str) -> int:
    return int(raw, 0)


def _watts_from_dbm(raw: str) -> float:
    return dbm_to_watts(float(raw))


def _mode_pair(raw: str) -> tuple[int, int]:
    modes = tuple(int(p) for p in raw.split(",") if p.strip())
    if len(modes) != 2:
        raise ValueError("exactly two modes required")
    return modes


# key -> (group, field, parser).  Group "" is ScenarioConfig itself; a
# ground_bs field indexes the (x, y, height) station position.  Keys that
# share a field are alternative units for one setting.
KEYS = {
    "hotspot_side_m": ("", "hotspot_side", float),
    "user_count": ("", "user_count", _int),
    "fbs_height_m": ("", "fbs_height", float),
    "trials": ("", "trials", _int),
    "master_seed": ("", "master_seed", _int),
    "link.carrier_frequency_hz": ("link", "carrier_frequency", float),
    "link.transmit_power_dbm": ("link", "transmit_power", _watts_from_dbm),
    "link.transmit_power_w": ("link", "transmit_power", float),
    "link.noise_power_dbm": ("link", "noise_power", _watts_from_dbm),
    "link.noise_power_w": ("link", "noise_power", float),
    "link.mode_set": ("link", "mode_set", _mode_pair),
    "link.aperture_m2": ("link", "aperture", float),
    "selection.max_pair_distance_m": ("selection", "max_pair_distance", float),
    "selection.service_radius_m": ("selection", "service_radius", float),
    "selection.epsilon": ("selection", "stop_threshold", float),
    "ground_bs.x_m": ("ground_bs", 0, float),
    "ground_bs.y_m": ("ground_bs", 1, float),
    "ground_bs.height_m": ("ground_bs", 2, float),
}


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Split config text into a key -> raw value map, validating key names."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def apply_setting(cfg: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """cfg with the parsed value of one KEYS key; a rejected value is a ConfigError naming the key."""
    group, name, _ = KEYS[key]
    try:
        if group == "ground_bs":
            position = list(cfg.ground_bs_position)
            position[name] = value
            return replace(cfg, ground_bs_position=tuple(position))
        if group:
            return replace(cfg, **{group: replace(getattr(cfg, group), **{name: value})})
        return replace(cfg, **{name: value})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def build_scenario(values: dict[str, str]) -> ScenarioConfig:
    """Assemble a ScenarioConfig from parsed values; absent keys keep the defaults.

    Settings are applied in KEYS order, so a file with several bad settings
    reports the first; a rejected setting is a ConfigError that names its key.
    """
    cfg = ScenarioConfig()
    given: dict[tuple, str] = {}  # (group, field) -> key
    for key, (group, name, parse) in KEYS.items():
        if key not in values:
            continue
        if (group, name) in given:
            raise ConfigError(f"give {given[group, name]} or {key}, not both")
        given[group, name] = key
        try:
            value = parse(values[key])
        except (ValueError, OverflowError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc
        cfg = apply_setting(cfg, key, value)
    return cfg


def load_config(path: str | Path | None) -> ScenarioConfig:
    """Read a config file (or take every default when path is None)."""
    if path is None:
        return build_scenario({})
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_scenario(parse_config_text(text, source=str(path)))


def config_echo(cfg: ScenarioConfig) -> dict:
    """Every resolved setting as a flat mapping, for run manifests.

    Powers are echoed in watts only; the aperture is the effective one.
    """
    groups = {"": cfg, "link": cfg.link, "selection": cfg.selection}
    bs = cfg.resolved_ground_bs()
    echo = {
        key: bs[name] if group == "ground_bs" else getattr(groups[group], name)
        for key, (group, name, _) in KEYS.items()
        if not key.endswith("_dbm")
    }
    echo["link.mode_set"] = list(cfg.link.mode_set)
    echo["link.aperture_m2"] = cfg.link.effective_aperture
    echo["link.ring_mode"] = cfg.link.ring_mode
    echo["selection.min_height_m"] = cfg.selection.min_height
    return echo
