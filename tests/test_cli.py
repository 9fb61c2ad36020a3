import json
from pathlib import Path

import pytest
import yaml

from creaselab import cli

SOLVE_SMALL = Path(__file__).resolve().parent.parent / "configs" / "solve-small.yaml"


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
