import json
from pathlib import Path

import pytest
import yaml

from creaselab import cli

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOLVE_SMALL = CONFIGS / "solve-small.yaml"
IDENTITIES_SMALL = CONFIGS / "identities-small.yaml"


def _run(command, config_path, out_dir) -> int:
    return cli.main([command, "--config", str(config_path), "--out", str(out_dir)])


def _write_config(tmp_path, name, doc) -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _solve_small() -> dict:
    return yaml.safe_load(SOLVE_SMALL.read_text(encoding="utf-8"))


def test_solve_report_is_byte_reproducible(tmp_path):
    assert _run("solve", SOLVE_SMALL, tmp_path / "a") == 0
    assert _run("solve", SOLVE_SMALL, tmp_path / "b") == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    solver = json.loads(first)["results"]["solver"]
    assert solver["smallest_singular_value"] > 0.0
    assert "method" not in solver and "iterations" not in solver


def test_solve_poincare_grids_valid_when_half_is_odd(tmp_path):
    # 130 intervals halve to 65, which RadialGrid.validate rejects as odd
    doc = _solve_small()
    doc["grid"] = {"n_minus": 66, "n_plus": 130, "r_max": 100.0}
    assert _run("solve", _write_config(tmp_path, "odd-half.yaml", doc), tmp_path / "out") == 0


def test_adm_flux_check_on_graph_slice_passes_and_is_reproducible(tmp_path):
    doc = {"catalog": {"name": "graph_slice"}, "flux_check": True, "quadrature": {"sphere_order": 12}}
    path = _write_config(tmp_path, "adm-graph.yaml", doc)
    assert _run("adm", path, tmp_path / "a") == 0
    assert _run("adm", path, tmp_path / "b") == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    assert json.loads(first)["results"]["mass_report"]["E"] == 0.0


def test_malformed_yaml_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("catalog: {name: miao_corner\ngrid: [", encoding="utf-8")
    assert _run("solve", path, tmp_path / "out") == 2
    assert "malformed YAML" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,value",
    [("solver", {"method": "direct"}), ("quadrature", {"sphere_order": 12, "radial_order": 32})],
)
def test_removed_config_keys_exit_2(tmp_path, capsys, section, value):
    doc = _solve_small()
    doc[section] = value
    assert _run("solve", _write_config(tmp_path, "removed.yaml", doc), tmp_path / "out") == 2
    assert "unknown configuration key" in capsys.readouterr().err


def test_identities_report_is_byte_reproducible(tmp_path):
    assert _run("identities", IDENTITIES_SMALL, tmp_path / "a") == 0
    assert _run("identities", IDENTITIES_SMALL, tmp_path / "b") == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    report = json.loads(first)
    assert report["flags"] == {"clifford": True, "lsw": True, "crease_boundary": True}
    assert report["results"]["lsw"]["max_scaled_residual"] > 0.0


def test_zero_spinors_exits_2(tmp_path, capsys):
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["ensembles"] = {"n_spinors": 0}
    assert _run("identities", _write_config(tmp_path, "none.yaml", doc), tmp_path / "out") == 2
    assert "n_spinors" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf")])
def test_nonpositive_or_nonfinite_tolerance_exits_2(tmp_path, capsys, value):
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["tolerances"] = {"identity_rel": value}
    assert _run("identities", _write_config(tmp_path, "tol.yaml", doc), tmp_path / "out") == 2
    assert "tolerances.identity_rel" in capsys.readouterr().err


@pytest.mark.parametrize(
    "catalog,message",
    [
        ({"name": "no_such_model"}, "unknown catalog model"),
        ({"name": "schwarzschild_isotropic", "params": {"m": 1.0, "typo_mass": 5}}, "typo_mass"),
        ({"name": "miao_corner", "params": {"m": 1.0}}, "missing parameter"),
        ({"name": "miao_corner", "params": {"m": 3.0, "rho0": 4.0}}, "horizon"),
        ({"name": "schwarzschild_isotropic", "params": {"m": "heavy"}}, "could not convert"),
        ({"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": 4.0, "r0": 2.0},
          "angle": {"type": "constant", "value": 0.3}}, "r0"),
        ({"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": 4.0},
          "params": {"m": 1.0}, "angle": {"type": "constant", "value": 0.3}}, "catalog.params"),
    ],
)
def test_catalog_lookup_and_parameter_errors_exit_2(tmp_path, capsys, catalog, message):
    path = _write_config(tmp_path, "catalog.yaml", {"catalog": catalog})
    assert _run("adm", path, tmp_path / "out") == 2
    assert message in capsys.readouterr().err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.yaml"
    path.write_bytes(b"catalog: {name: \xff\xfe}\n")
    assert _run("adm", path, tmp_path / "out") == 2
    assert "not UTF-8" in capsys.readouterr().err


def test_solve_with_crease_radius_beyond_200(tmp_path):
    # the Poincare grids must reach past the crease, so they end at 2 r0 = 500 here
    doc = {
        "catalog": {"name": "miao_corner", "params": {"m": 1.0, "rho0": 250.0}},
        "grid": {"n_minus": 128, "n_plus": 256, "r_max": 600.0},
        "radii": [300.0, 400.0, 500.0],
        "quadrature": {"sphere_order": 12},
    }
    assert _run("solve", _write_config(tmp_path, "wide.yaml", doc), tmp_path / "out") == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert all(report["flags"].values())
