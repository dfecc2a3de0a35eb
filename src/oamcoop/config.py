"""Flat key-value configuration files for the CLI.

Format: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines are ignored.  Dotted keys group related settings; every key is
optional and falls back to the scenario defaults.  Powers may be given in
dBm (``*_dbm`` keys) or watts (``*_w`` keys), not both.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ConfigError
from .link import LinkConfig
from .selection import SelectionConfig
from .sim import ScenarioConfig

KNOWN_KEYS = frozenset(
    {
        "hotspot_side_m",
        "user_count",
        "fbs_height_m",
        "trials",
        "master_seed",
        "link.carrier_frequency_hz",
        "link.transmit_power_dbm",
        "link.transmit_power_w",
        "link.noise_power_dbm",
        "link.noise_power_w",
        "link.mode_set",
        "link.aperture_m2",
        "selection.max_pair_distance_m",
        "selection.service_radius_m",
        "selection.epsilon",
        "ground_bs.x_m",
        "ground_bs.y_m",
        "ground_bs.height_m",
    }
)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) * 1e-3


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
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{source}:{lineno}: empty value for {key!r}")
        values[key] = value
    return values


def _get_float(values: dict[str, str], key: str, default: float | None) -> float | None:
    if key not in values:
        return default
    try:
        return float(values[key])
    except ValueError as exc:
        raise ConfigError(f"{key}: not a number: {values[key]!r}") from exc


def _get_int(values: dict[str, str], key: str, default: int) -> int:
    if key not in values:
        return default
    try:
        return int(values[key], 0)
    except ValueError as exc:
        raise ConfigError(f"{key}: not an integer: {values[key]!r}") from exc


def _get_power_watts(values: dict[str, str], stem: str, default: float) -> float:
    dbm_key = f"{stem}_dbm"
    watt_key = f"{stem}_w"
    if dbm_key in values and watt_key in values:
        raise ConfigError(f"give {dbm_key} or {watt_key}, not both")
    if dbm_key in values:
        return dbm_to_watts(_get_float(values, dbm_key, None))
    if watt_key in values:
        return _get_float(values, watt_key, None)
    return default


def _get_mode_set(values: dict[str, str]) -> tuple[int, int]:
    raw = values.get("link.mode_set")
    if raw is None:
        return LinkConfig().mode_set
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        modes = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"link.mode_set: not integers: {raw!r}") from exc
    if len(modes) != 2:
        raise ConfigError("link.mode_set: exactly two modes required")
    return modes


def build_scenario(values: dict[str, str]) -> ScenarioConfig:
    """Assemble a ScenarioConfig from parsed values, applying defaults."""
    link_defaults = LinkConfig()
    sel_defaults = SelectionConfig()
    scen_defaults = ScenarioConfig()
    try:
        link = LinkConfig(
            carrier_frequency=_get_float(
                values, "link.carrier_frequency_hz", link_defaults.carrier_frequency
            ),
            transmit_power=_get_power_watts(
                values, "link.transmit_power", link_defaults.transmit_power
            ),
            noise_power=_get_power_watts(
                values, "link.noise_power", link_defaults.noise_power
            ),
            mode_set=_get_mode_set(values),
            aperture=_get_float(values, "link.aperture_m2", link_defaults.aperture),
        )
        selection = SelectionConfig(
            max_pair_distance=_get_float(
                values,
                "selection.max_pair_distance_m",
                sel_defaults.max_pair_distance,
            ),
            service_radius=_get_float(
                values, "selection.service_radius_m", sel_defaults.service_radius
            ),
            stop_threshold=_get_float(
                values, "selection.epsilon", sel_defaults.stop_threshold
            ),
        )
        side = _get_float(values, "hotspot_side_m", scen_defaults.hotspot_side)
        height = _get_float(values, "fbs_height_m", scen_defaults.fbs_height)
        ground_bs = None
        if any(k.startswith("ground_bs.") for k in values):
            ground_bs = (
                _get_float(values, "ground_bs.x_m", 0.5 * side),
                _get_float(values, "ground_bs.y_m", 0.5 * side),
                _get_float(values, "ground_bs.height_m", height),
            )
        return ScenarioConfig(
            hotspot_side=side,
            user_count=_get_int(values, "user_count", scen_defaults.user_count),
            fbs_height=height,
            trials=_get_int(values, "trials", scen_defaults.trials),
            master_seed=_get_int(values, "master_seed", scen_defaults.master_seed),
            link=link,
            selection=selection,
            ground_bs_position=ground_bs,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


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
    """Every resolved setting as a flat mapping, for run manifests."""
    bs = cfg.resolved_ground_bs()
    return {
        "hotspot_side_m": cfg.hotspot_side,
        "user_count": cfg.user_count,
        "fbs_height_m": cfg.fbs_height,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
        "link.carrier_frequency_hz": cfg.link.carrier_frequency,
        "link.transmit_power_w": cfg.link.transmit_power,
        "link.noise_power_w": cfg.link.noise_power,
        "link.mode_set": list(cfg.link.mode_set),
        "link.aperture_m2": cfg.link.effective_aperture,
        "link.ring_mode": cfg.link.ring_mode,
        "selection.max_pair_distance_m": cfg.selection.max_pair_distance,
        "selection.service_radius_m": cfg.selection.service_radius,
        "selection.epsilon": cfg.selection.stop_threshold,
        "selection.min_height_m": cfg.selection.min_height,
        "ground_bs.x_m": bs[0],
        "ground_bs.y_m": bs[1],
        "ground_bs.height_m": bs[2],
    }
