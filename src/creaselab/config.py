"""Run configuration: strict YAML schema with fail-loud unknown keys."""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Any

import yaml


class ConfigError(ValueError):
    pass


# schema: key -> (type or nested dict, required)
_ANGLE_SCHEMA = {"type": (str, True), "value": (float, False), "amplitude": (float, False)}

_SCHEMA: dict[str, Any] = {
    "catalog": (
        {
            "name": (str, True),
            "params": (dict, False),
            "angle": (_ANGLE_SCHEMA, False),
            "base": (str, False),
            "base_params": (dict, False),
        },
        True,
    ),
    "quadrature": ({"sphere_order": (int, False)}, False),
    "radii": (list, False),
    "grid": ({"n_minus": (int, False), "n_plus": (int, False), "r_max": (float, False)}, False),
    "tolerances": (
        {
            "dec_crease": (float, False),
            "identity_rel": (float, False),
            "crease_identity_rel": (float, False),
            "gap_rel": (float, False),
            "lorentz": (float, False),
            "killing": (float, False),
            "flatness": (float, False),
            "drift": (float, False),
            "flux_rel": (float, False),
        },
        False,
    ),
    "ensembles": ({"n_spinors": (int, False)}, False),
    "flux_check": (bool, False),
    "seed": (int, False),
    "out_dir": (str, False),
}


def _construct_unique_mapping(loader: yaml.SafeLoader, node, deep=False) -> dict:
    """SafeLoader's construct_mapping, refusing a mapping that repeats a key (plain PyYAML keeps the last value)."""
    seen = []  # a list, not a set: an unhashable key is left for SafeLoader to report
    for key_node, _ in node.value:
        if key_node.tag == "tag:yaml.org,2002:merge":  # a << merge key may override; flatten_mapping does that
            continue
        key = loader.construct_object(key_node, deep=True)
        if key in seen:
            raise yaml.constructor.ConstructorError(None, None, f"found duplicate key {key!r}", key_node.start_mark)
        seen.append(key)
    return yaml.SafeLoader.construct_mapping(loader, node, deep=deep)


class _UniqueKeyLoader(yaml.SafeLoader):
    construct_mapping = _construct_unique_mapping  # PyYAML builds every mapping through this method


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_section(data: dict, schema: dict, path: str) -> None:
    for key in data:
        if key not in schema:
            raise ConfigError(f"unknown configuration key {path}{key!r}")
    for key, (spec, required) in schema.items():
        if key not in data:
            if required:
                raise ConfigError(f"missing required configuration key {path}{key!r}")
            continue
        val = data[key]
        if isinstance(spec, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{path}{key} must be a mapping")
            _check_section(val, spec, f"{path}{key}.")
        elif spec is float:
            if not _is_number(val):
                raise ConfigError(f"{path}{key} must be a number")
            if not math.isfinite(val):
                raise ConfigError(f"{path}{key} must be finite, got {val!r}")
        elif spec is int:
            if not isinstance(val, int) or isinstance(val, bool):
                raise ConfigError(f"{path}{key} must be an integer")
        elif spec is list:
            if not isinstance(val, list):
                raise ConfigError(f"{path}{key} must be a list")
        elif not isinstance(val, spec):
            raise ConfigError(f"{path}{key} must be of type {spec.__name__}")


_DEFAULT_TOLERANCES = {
    "dec_crease": 1e-9,
    "identity_rel": 1e-6,
    "crease_identity_rel": 1e-8,
    "gap_rel": 1e-4,
    "lorentz": 1e-10,
    "killing": 1e-9,
    "flatness": 1e-6,
    "drift": 1e-8,
    "flux_rel": 0.02,
}


@dataclass
class RunConfig:
    """A parsed configuration; `parse_config` fills every field, with the defaults of absent keys."""

    catalog_name: str
    catalog_params: dict
    angle: dict | None
    base: str | None
    base_params: dict
    sphere_order: int
    radii: tuple
    n_minus: int
    n_plus: int
    r_max: float
    tolerances: dict
    n_spinors: int
    flux_check: bool
    seed: int
    out_dir: str
    raw: dict

    def echo(self) -> dict:
        """Deterministic copy of the configuration as parsed (for reports)."""
        return self.raw

    def tol(self, name: str) -> float:
        return float(self.tolerances[name])


def parse_config(text: str) -> RunConfig:
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping")
    _check_section(data, _SCHEMA, "")
    cat = data["catalog"]
    quad = data.get("quadrature", {})
    grid = data.get("grid", {})
    tols = dict(_DEFAULT_TOLERANCES)
    tols.update(data.get("tolerances", {}))
    radii = data.get("radii", [50.0, 100.0, 200.0])
    sphere_order = quad.get("sphere_order", 16)
    n_spinors = data.get("ensembles", {}).get("n_spinors", 4)
    seed = data.get("seed", 0)
    # the ADM limit extrapolates from the last three radii
    if (len(radii) < 3 or any(not _is_number(r) or not math.isfinite(r) for r in radii)
            or any(b <= a for a, b in zip(radii, radii[1:]))):
        raise ConfigError("radii must be a strictly increasing list of at least 3 finite numbers")
    for where in ("params", "base_params"):
        bad = next((key for key, value in cat.get(where, {}).items() if not _is_number(value)), None)
        if bad is not None:
            raise ConfigError(f"catalog.{where}.{bad} must be a number")
    # identities sums sphere_order x 2 sphere_order^2 LSW nodes in fixed blocks, so its peak stays near 80-115 MiB
    # (3 spinors, 32 and 64), but its time grows with the nodes: 1.1 s at 32, 8.5 s at 64, about 70 s at 128
    if not 4 <= sphere_order <= 64:
        raise ConfigError("sphere_order must be within 4..64")
    for name, value in tols.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"tolerances.{name} must be finite and positive, got {value!r}")
    # identities carries every spinor through each LSW node block: at sphere_order 16 it peaks at 72, 98 and
    # 189 MiB (0.3, 0.6 and 1.7 s) for 4, 32 and 128 spinors, so a stray 40000 would end in an out-of-memory kill
    if not 1 <= n_spinors <= 256:
        raise ConfigError("ensembles.n_spinors must be within 1..256")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return RunConfig(
        catalog_name=cat["name"],
        catalog_params=dict(cat.get("params", {})),
        angle=cat.get("angle"),
        base=cat.get("base"),
        base_params=dict(cat.get("base_params", {})),
        sphere_order=sphere_order,
        radii=tuple(float(r) for r in radii),
        n_minus=int(grid.get("n_minus", 256)),
        n_plus=int(grid.get("n_plus", 1024)),
        r_max=float(grid.get("r_max", 400.0)),
        tolerances=tols,
        n_spinors=n_spinors,
        flux_check=data.get("flux_check", False),
        seed=seed,
        out_dir=str(data.get("out_dir", ".")),
        raw=data,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"configuration is not UTF-8 text: {exc}") from exc
    return parse_config(text)


def build_catalog_entry(config: RunConfig):
    """Instantiate the configured catalog model (data or creased data).

    An unknown model, a missing or unknown parameter, a non-finite
    parameter value, parameter values the model rejects (GeometryError)
    or cannot convert, and catalog.angle/base/base_params on any model but
    rotated_crease are configuration errors.
    """
    from .catalog import catalog
    from .reports import nonfinite_path

    for where, values in (("catalog.params", config.catalog_params), ("catalog.base_params", config.base_params)):
        bad = nonfinite_path(values, where)
        if bad is not None:
            raise ConfigError(f"{bad} must be finite")
    params = dict(config.catalog_params)
    if config.catalog_name == "rotated_crease":
        if config.base is None or config.angle is None:
            raise ConfigError("rotated_crease needs catalog.base and catalog.angle")
        if params:
            raise ConfigError("rotated_crease takes catalog.base_params, not catalog.params")
        params = {"base": config.base, "base_params": config.base_params, "f": config.angle}
    else:
        for key in ("angle", "base", "base_params"):
            if getattr(config, key):
                raise ConfigError(f"catalog.{key} applies to rotated_crease only, not {config.catalog_name}")
    try:
        return catalog(config.catalog_name, **params)
    except (ValueError, TypeError) as exc:  # GeometryError is a ValueError
        raise ConfigError(str(exc)) from exc
