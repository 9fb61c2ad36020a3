"""Run configuration: the YAML contract of every command, checked whole at parse time.

An unknown or repeated key, a wrong type and a value out of range exit 2
before any command runs.  Keys, with their defaults and ranges:

- catalog (required), checked by `catalog.check_spec`: {name, params} for
  a model of `catalog.MODELS` (a parameter without a default is required)
  or, for the one composite model, {name, base, base_params, angle} with
  angle {type: constant, value: f} or {type: cos_theta, amplitude: f} and
  |f| <= `catalog.MAX_ANGLE` = 10.  Every parameter is a finite number.  A
  range only the model sees (a gluing sphere inside the horizon, a base
  without a crease) exits 2 when a command builds the model.
- quadrature.sphere_order: 16, within 4..64.
- radii: [50, 100, 200]; at least 3 numbers, strictly increasing, at most
  `radial.MAX_R_MAX` = 1e6.
- grid: n_minus 256, n_plus 1024, r_max 400.0; `solve` checks them.
- ensembles.n_spinors: 4, within 1..256.
- flux_check: false.  seed: 0, nonnegative.  out_dir: ".".

Pass criteria are fixed next to the flags that read them, not configured.
"""

from __future__ import annotations

from dataclasses import dataclass

import yaml

from .catalog import build, check_spec, is_finite
from .geometry import GeometryError
from .radial import MAX_R_MAX


class ConfigError(ValueError):
    pass


# schema: key -> type or nested schema; catalog.check_spec checks the catalog mapping
_SCHEMA = {
    "catalog": dict,
    "quadrature": {"sphere_order": int},
    "radii": list,
    "grid": {"n_minus": int, "n_plus": int, "r_max": float},
    "ensembles": {"n_spinors": int},
    "flux_check": bool,
    "seed": int,
    "out_dir": str,
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
    for key, val in data.items():
        spec = schema.get(key)
        if spec is None:
            raise ConfigError(f"unknown configuration key {path}{key!r}")
        if isinstance(spec, dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{path}{key} must be a mapping")
            _check_section(val, spec, f"{path}{key}.")
        elif spec is float:
            if not _is_number(val):
                raise ConfigError(f"{path}{key} must be a number")
            if not is_finite(val):
                raise ConfigError(f"{path}{key} must be a finite float, got {val!r}")
        elif not isinstance(val, spec) or (isinstance(val, bool) and spec is not bool):
            raise ConfigError(f"{path}{key} must be of type {spec.__name__}")


@dataclass
class RunConfig:
    """A parsed configuration; `parse_config` fills every field, with the defaults of absent keys."""

    catalog: dict
    sphere_order: int
    radii: tuple
    n_minus: int
    n_plus: int
    r_max: float
    n_spinors: int
    flux_check: bool
    seed: int
    out_dir: str
    raw: dict  # the configuration as parsed, echoed in every report


def parse_config(text: str) -> RunConfig:
    try:
        data = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a mapping")
    _check_section(data, _SCHEMA, "")
    if "catalog" not in data:
        raise ConfigError("missing required configuration key 'catalog'")
    try:
        check_spec(data["catalog"])
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
    grid = data.get("grid", {})
    radii = data.get("radii", [50.0, 100.0, 200.0])
    sphere_order = data.get("quadrature", {}).get("sphere_order", 16)
    n_spinors = data.get("ensembles", {}).get("n_spinors", 4)
    seed = data.get("seed", 0)
    # the ADM limit extrapolates from the last three radii; the bound also fails NaN and inf
    if (len(radii) < 3 or any(not _is_number(r) or not abs(r) <= MAX_R_MAX for r in radii)
            or any(b <= a for a, b in zip(radii, radii[1:]))):
        raise ConfigError(f"radii must be a strictly increasing list of at least 3 numbers, each at most {MAX_R_MAX:g}")
    # identities sums sphere_order x 2 sphere_order^2 LSW nodes in fixed blocks, so its peak stays near 80-115 MiB
    # (3 spinors, 32 and 64), but its time grows with the nodes: 1.1 s at 32, 8.5 s at 64, about 70 s at 128
    if not 4 <= sphere_order <= 64:
        raise ConfigError("sphere_order must be within 4..64")
    # identities carries every spinor through each LSW node block: at sphere_order 16 it peaks at 72, 98 and
    # 189 MiB (0.3, 0.6 and 1.7 s) for 4, 32 and 128 spinors, so a stray 40000 would end in an out-of-memory kill
    if not 1 <= n_spinors <= 256:
        raise ConfigError("ensembles.n_spinors must be within 1..256")
    if seed < 0:
        raise ConfigError("seed must be a nonnegative integer")
    return RunConfig(
        catalog=data["catalog"],
        sphere_order=sphere_order,
        radii=tuple(float(r) for r in radii),
        n_minus=int(grid.get("n_minus", 256)),
        n_plus=int(grid.get("n_plus", 1024)),
        r_max=float(grid.get("r_max", 400.0)),
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
    """The configured model (InitialData or CreasedData); a value range the model refuses is a configuration error."""
    try:
        return build(config.catalog)
    except GeometryError as exc:
        raise ConfigError(str(exc)) from exc
