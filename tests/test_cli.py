import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from creaselab import cli
from creaselab.config import ConfigError, _construct_unique_mapping, _UniqueKeyLoader, parse_config
from creaselab.reports import NonFiniteReportError, render_report

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
SOLVE_SMALL = CONFIGS / "solve-small.yaml"
SOLVE_SMALL_ROTATED = CONFIGS / "solve-small-rotated.yaml"
IDENTITIES_SMALL = CONFIGS / "identities-small.yaml"
CREASE_CHECK_SMALL = CONFIGS / "crease-check-small.yaml"
CREASE_CHECK_SMALL_ROTATED = CONFIGS / "crease-check-small-rotated.yaml"
RIGIDITY_SMALL = CONFIGS / "rigidity-small.yaml"
ADM_SMALL = CONFIGS / "adm-small.yaml"


def _run(command, config_path, out_dir) -> int:
    return cli.main([command, "--config", str(config_path), "--out", str(out_dir)])


def _write_config(tmp_path, name, doc) -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def _rotated(angle) -> dict:
    return {"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": 3.0}, "angle": angle}


def _solve_small() -> dict:
    return yaml.safe_load(SOLVE_SMALL.read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", [SOLVE_SMALL, SOLVE_SMALL_ROTATED], ids=["solve-small", "solve-small-rotated"])
def test_solve_report_is_byte_reproducible(tmp_path, config):
    assert _run("solve", config, tmp_path / "a") == 0
    assert _run("solve", config, tmp_path / "b") == 0
    for name in ("report.json", "psi_minus.csv", "psi_plus.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    first = (tmp_path / "a" / "report.json").read_bytes()
    report = json.loads(first)
    # oracle, poincare_positive and dirichlet_nonnegative are gone: the solve raises before any can be false
    assert set(report["flags"]) == {"transmission", "poincare_stable", "hypotheses_hold", "gap_nonnegative"}
    results = report["results"]
    solver = results["solver"]
    assert solver["smallest_singular_value"] > 0.0
    assert "method" not in solver and "iterations" not in solver
    gap = results["gap"]
    assert gap["closure"] == gap["gap"] + gap["crease_term"]
    assert results["oracle"]["radii_checked"] == 20
    if config == SOLVE_SMALL_ROTATED:
        # the crease angle couples V to U: the rotated run exercises the sinh terms and the tau psi_inf lift
        abs_v = np.loadtxt(tmp_path / "a" / "psi_plus.csv", delimiter=",", skiprows=1)[:, 2]
        assert abs_v.max() > 0.0


def _fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    """Run a script in a new interpreter that imports creaselab from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter whose import system refuses every scipy module; adm on Schwarzschild data, every
    # committed config with the command its file name starts with, then equivalence_angle, whose nodal angle
    # takes the spectral gradient
    doc = {"catalog": {"name": "schwarzschild_isotropic", "params": {"m": 1.0}},
           "radii": [50.0, 100.0, 200.0], "quadrature": {"sphere_order": 16}}
    runs = [("adm", _write_config(tmp_path, "adm-schwarzschild.yaml", doc))]
    runs += [(path.stem.split("-small")[0], path) for path in sorted(CONFIGS.glob("*.yaml"))]
    assert len(runs) == 9
    script = (
        "import sys\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'scipy' or name.startswith('scipy.'):\n"
        "            raise ImportError(f'{name} refused')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "import creaselab.cli as cli\n"
    ) + "".join(
        f"assert cli.main([{command!r}, '--config', {str(path)!r}, '--out', {str(tmp_path / path.stem)!r}]) == 0\n"
        for command, path in runs
    ) + (
        "import dataclasses\n"
        "from creaselab.bartnik import angle_gradient_frame, bartnik_from_data, equivalence_angle, rotated_components\n"
        "from creaselab.catalog import miao_corner\n"
        "from creaselab.geometry import CreaseAngle\n"
        "from creaselab.spheregrid import sphere_grid\n"
        "mc = miao_corner(1.0, 4.0)\n"
        "grid = sphere_grid(16)\n"
        "bm = bartnik_from_data(mc.minus, mc.r0, order=16)\n"
        "angle = CreaseAngle.cos_theta(0.3)\n"
        "nu, tau = rotated_components(bm, angle.value(bm.omega))\n"
        "rotated = dataclasses.replace(bm, H=nu, trk=tau, beta=bm.beta + angle_gradient_frame(angle, bm))\n"
        "f = equivalence_angle(grid, bm, rotated)\n"
        "assert abs(f.value(grid.nodes) - angle.value(grid.nodes)).max() < 1e-10\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = _fresh_interpreter(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_unbounded_r_max_exits_2(tmp_path, capsys):
    # r_max = 1e300 would overflow the quadrature weights into non-finite pivot blocks; it is a config error
    doc = _solve_small()
    doc["grid"] = {"n_minus": 64, "n_plus": 64, "r_max": 1.0e300}
    assert _run("solve", _write_config(tmp_path, "huge-rmax.yaml", doc), tmp_path / "out") == 2
    assert "grid: r_max must be at most 1e+06, got 1e+300" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_nonfinite_radial_system_exits_3(tmp_path, capsys, monkeypatch):
    # a non-finite residual row makes the normal equations' pivot blocks non-finite: a numeric error
    original = cli.assemble

    def assemble_nan(problem, grid):
        system = original(problem, grid)
        system.A.coef[7] = math.nan
        return system

    monkeypatch.setattr(cli, "assemble", assemble_nan)
    assert _run("solve", SOLVE_SMALL, tmp_path / "out") == 3
    assert "solve: normal equations: non-finite pivot block" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("side", ["n_minus", "n_plus"])
def test_oversized_radial_grid_exits_2(tmp_path, capsys, side):
    # 32,770 intervals, two over the bound: a broken check would still only build a grid that fits in memory
    doc = _solve_small()
    doc["grid"][side] = 32770
    assert _run("solve", _write_config(tmp_path, "oversized.yaml", doc), tmp_path / "out") == 2
    assert "at most 32768 intervals per side" in capsys.readouterr().err


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


def test_adm_flux_check_reads_no_unit_of_length(tmp_path):
    # m and the radii scaled by 2^-10, an exact power of two: E, E_fit and the floor radii[-1] / 200 scale alike,
    # so the relative mismatch and the flag repeat bit for bit; a floor of 1 made the check absolute below m = 1
    reports = {}
    for scale in (1.0, 2.0**-10):
        doc = {"catalog": {"name": "schwarzschild_isotropic", "params": {"m": scale}}, "flux_check": True,
               "radii": [50.0 * scale, 100.0 * scale, 200.0 * scale], "quadrature": {"sphere_order": 12}}
        out = tmp_path / f"scale-{scale!r}"
        code = _run("adm", _write_config(tmp_path, f"adm-{scale!r}.yaml", doc), out)
        reports[scale] = (code, json.loads((out / "report.json").read_text(encoding="utf-8")))
    (code_1, unit), (code_s, scaled) = reports[1.0], reports[2.0**-10]
    assert code_s == code_1 == 0
    assert scaled["flags"]["flux_consistent"] is unit["flags"]["flux_consistent"] is True
    rel = unit["results"]["flux_fit"]["relative_energy_mismatch"]
    assert 1e-4 < rel <= 0.02
    assert scaled["results"]["flux_fit"]["relative_energy_mismatch"] == rel


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
    assert report["flags"] == {"lsw": True, "crease_boundary": True}
    assert set(report["results"]) == {"lsw", "crease_boundary"}
    assert report["results"]["lsw"]["max_scaled_residual"] > 0.0
    assert 0.0 < report["results"]["lsw"]["roundoff_floor"] < 1e-10


def test_identities_roundoff_floor_is_eps_times_the_largest_volume_sum(tmp_path, monkeypatch):
    # the floor is eps times the largest |dirichlet| + |dirac_sq| of the ensemble, the two sums the residual subtracts
    original, captured = cli.lsw_residual, []

    def lsw_residual(*args, **kwargs):
        captured.append(original(*args, **kwargs))
        return captured[-1]

    monkeypatch.setattr(cli, "lsw_residual", lsw_residual)
    assert _run("identities", IDENTITIES_SMALL, tmp_path / "out") == 0
    (res,) = captured
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    floor = report["results"]["lsw"]["roundoff_floor"]
    assert floor == np.finfo(float).eps * np.max(np.abs(res.dirichlet) + np.abs(res.dirac_sq))


def test_identities_crease_check_passes_when_the_crease_term_nearly_vanishes(tmp_path):
    # m = 1e-9: the crease term is about 1e-7 of the one-sided integrals it is the sum of, so
    # dividing the mismatch by |formula| + 1e-12 read 3.2e-7 against the 1e-8 tolerance
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["catalog"]["params"]["m"] = 1e-9
    assert _run("identities", _write_config(tmp_path, "tiny-mass.yaml", doc), tmp_path / "out") == 0
    crease = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["results"]["crease_boundary"]
    assert 0.0 < crease["max_abs_mismatch"] <= 1e-12
    assert crease["max_relative_mismatch"] <= 1e-15
    assert crease["bound_respected"]


def test_sphere_order_above_64_exits_2_before_any_computation(tmp_path, capsys, monkeypatch):
    # the LSW batch of identities grows as the cube of the order: 64 peaks at 1.4 GiB, 128 would need about 13 GiB
    def must_not_run(config, out_dir):
        raise AssertionError("identities ran on a rejected config")

    monkeypatch.setitem(cli.COMMANDS, "identities", must_not_run)
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["quadrature"] = {"sphere_order": 65}
    assert _run("identities", _write_config(tmp_path, "big.yaml", doc), tmp_path / "out") == 2
    assert "sphere_order must be within 4..64" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    doc["quadrature"] = {"sphere_order": 64}
    assert parse_config(yaml.safe_dump(doc)).sphere_order == 64


def test_zero_spinors_exits_2(tmp_path, capsys):
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["ensembles"] = {"n_spinors": 0}
    assert _run("identities", _write_config(tmp_path, "none.yaml", doc), tmp_path / "out") == 2
    assert "n_spinors" in capsys.readouterr().err


def test_n_spinors_above_256_exits_2_before_any_computation(tmp_path, capsys, monkeypatch):
    # identities' peak memory grows with the ensemble: 189 MiB for 128 spinors at sphere_order 16
    def must_not_run(config, out_dir):
        raise AssertionError("identities ran on a rejected config")

    monkeypatch.setitem(cli.COMMANDS, "identities", must_not_run)
    doc = yaml.safe_load(IDENTITIES_SMALL.read_text(encoding="utf-8"))
    doc["ensembles"] = {"n_spinors": 257}
    assert _run("identities", _write_config(tmp_path, "many.yaml", doc), tmp_path / "out") == 2
    assert "n_spinors must be within 1..256" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    doc["ensembles"] = {"n_spinors": 256}
    assert parse_config(yaml.safe_dump(doc)).n_spinors == 256


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
@pytest.mark.parametrize(
    "doc,message",
    [({"catalog": {"name": "no_such_model"}}, "unknown catalog model 'no_such_model'"),
     ({"catalog": {"name": "minkowski_slice", "params": {"typo_mass": 5}}}, "has no parameter typo_mass"),
     ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": "heavy"}}}, "catalog.params.m must be a number"),
     ({"catalog": _rotated({"type": "constant", "value": 0.3, "scale": 2.0})}, "'constant' has no parameter scale"),
     # the pass criteria are fixed, so a section that set them is an unknown key
     ({"catalog": {"name": "minkowski_slice"}, "tolerances": {"drift": 1}}, "unknown configuration key 'tolerances'")],
    ids=["unknown-model", "unknown-param", "string-param", "angle-extra-key", "tolerances"],
)
def test_bad_spec_exits_2_before_any_command(tmp_path, capsys, monkeypatch, command, doc, message):
    # rigidity builds no configured data, so only the parse-time check can reject its catalog
    monkeypatch.setitem(cli.COMMANDS, command, lambda config, out_dir: pytest.fail(f"{command} ran on a bad config"))
    assert _run(command, _write_config(tmp_path, "bad.yaml", doc), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "catalog,message",
    [
        ({"name": "no_such_model"}, "unknown catalog model"),
        ({"name": "schwarzschild_isotropic", "params": {"m": 1.0, "typo_mass": 5}}, "typo_mass"),
        ({"name": "miao_corner", "params": {"m": 1.0}}, "missing parameter"),
        ({"name": "miao_corner", "params": {"m": 3.0, "rho0": 4.0}}, "horizon"),
        ({"name": "schwarzschild_isotropic", "params": {"m": "heavy"}}, "must be a number"),
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


def test_repeated_yaml_key_exits_2(tmp_path, capsys):
    # plain PyYAML keeps the last of two equal keys, so the second quadrature would silently win
    text = IDENTITIES_SMALL.read_text(encoding="utf-8")
    assert "\nquadrature:" in text
    path = tmp_path / "twice.yaml"
    path.write_text(text + "quadrature: {sphere_order: 64}\n", encoding="utf-8")
    assert _run("identities", path, tmp_path / "out") == 2
    assert "duplicate key 'quadrature'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()
    with pytest.raises(ConfigError, match="duplicate key 'name'"):
        parse_config("catalog: {name: minkowski_slice, name: miao_corner}\n")


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


@pytest.mark.parametrize(
    "command,config",
    [("crease-check", CREASE_CHECK_SMALL), ("rigidity", RIGIDITY_SMALL), ("adm", ADM_SMALL),
     ("crease-check", CREASE_CHECK_SMALL_ROTATED)],
)
def test_small_config_report_is_byte_reproducible(tmp_path, command, config):
    assert _run(command, config, tmp_path / "a") == 0
    assert _run(command, config, tmp_path / "b") == 0
    first = (tmp_path / "a" / "report.json").read_bytes()
    assert first == (tmp_path / "b" / "report.json").read_bytes()
    assert all(json.loads(first)["flags"].values())


def test_crease_check_with_negative_margin_exits_1(tmp_path):
    doc = {
        "catalog": {"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": 5.0},
                    "angle": {"type": "cos_theta", "amplitude": 0.6}},
        "quadrature": {"sphere_order": 12},
    }
    assert _run("crease-check", _write_config(tmp_path, "rotated.yaml", doc), tmp_path / "out") == 1
    results = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))["results"]
    assert results["min_margin"] == pytest.approx(-0.089, abs=1e-3)
    assert results["dec_creased"] is False


def test_crease_check_verdict_reads_no_unit_of_length(tmp_path):
    # f = 0.5493061456340547 lies 1.3e-9 above ln sqrt(3), where the margin of miao_corner(L, 3 L) vanishes: the
    # margin is -5.0e-10 / L, within the slack relative to the curvature scale 2/(3 L) at every unit of length L
    outcomes = []
    for scale in (2.0**-10, 1.0, 2.0**10):
        doc = {"catalog": {"name": "rotated_crease", "base": "miao_corner",
                           "base_params": {"m": scale, "rho0": 3.0 * scale},
                           "angle": {"type": "constant", "value": 0.5493061456340547}},
               "quadrature": {"sphere_order": 12}}
        out = tmp_path / f"unit-{scale:g}"
        code = _run("crease-check", _write_config(tmp_path, f"unit-{scale:g}.yaml", doc), out)
        results = json.loads((out / "report.json").read_text(encoding="utf-8"))["results"]
        outcomes.append((code, results["dec_creased"], results["min_margin"] * scale))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][:2] == (0, True) and outcomes[0][2] == pytest.approx(-5.0037e-10, rel=1e-4)


def test_solve_exits_1_when_the_hypotheses_fail(tmp_path):
    # the constant angle 1.0 drives the crease margin of miao_corner(1, 3) below 0: the report is written, and fails
    doc = _solve_small()
    doc["catalog"] = _rotated({"type": "constant", "value": 1.0})
    assert _run("solve", _write_config(tmp_path, "steep.yaml", doc), tmp_path / "out") == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text(encoding="utf-8"))
    assert report["passed"] is False and report["flags"]["hypotheses_hold"] is False
    assert report["results"]["gap"]["min_crease_margin"] < 0.0


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("adm", {"catalog": {"name": "schwarzschild_isotropic", "params": {"m": math.nan}}}, "catalog.params.m"),
        ("identities", {"catalog": {"name": "graph_slice", "params": {"center": math.inf}}}, "catalog.params.center"),
        ("crease-check", {"catalog": {"name": "rotated_crease", "base": "miao_corner",
                                      "base_params": {"m": 1.0, "rho0": -math.inf},
                                      "angle": {"type": "constant", "value": 0.3}}}, "catalog.base_params.rho0"),
        ("crease-check", {"catalog": {"name": "rotated_crease", "base": "miao_corner",
                                      "base_params": {"m": 1.0, "rho0": 4.0},
                                      "angle": {"type": "cos_theta", "amplitude": math.nan}}},
         "catalog.angle.amplitude"),
        ("solve", {"catalog": {"name": "miao_corner", "params": {"m": 1.0, "rho0": 4.0}},
                   "grid": {"r_max": math.inf}}, "grid.r_max"),
        ("adm", {"catalog": {"name": "minkowski_slice"}, "radii": [50.0, math.nan]}, "radii"),
        # 401-digit integers: too large for a float, where math.isfinite raises OverflowError
        ("adm", {"catalog": {"name": "schwarzschild_isotropic", "params": {"m": 10**400}}}, "catalog.params.m"),
        ("solve", {"catalog": {"name": "miao_corner", "params": {"m": 1.0, "rho0": 4.0}},
                   "grid": {"r_max": 10**400}}, "grid.r_max"),
    ],
)
def test_nonfinite_input_exits_2(tmp_path, capsys, command, doc, message):
    assert _run(command, _write_config(tmp_path, "nonfinite.yaml", doc), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_render_report_names_first_nonfinite_key():
    results = {"lsw": {"region": [3.0, 6.0], "max_scaled_residual": np.float64(np.nan)}, "zz": math.inf}
    with pytest.raises(NonFiniteReportError, match=r"results\.lsw\.max_scaled_residual"):
        render_report("identities", {}, results, True, {})
    with pytest.raises(NonFiniteReportError, match=r"results\.P\[1\]"):
        render_report("adm", {}, {"P": np.array([0.0, -np.inf])}, True, {})
    text = render_report("adm", {}, {"P": [0.0, 1.5]}, True, {"ok": np.bool_(True)})
    assert json.loads(text)["results"]["P"] == [0.0, 1.5]


def test_nonfinite_result_exits_3_without_report(tmp_path, capsys, monkeypatch):
    def nan_identities(config, out_dir):
        return {"lsw": {"max_scaled_residual": float("nan")}}, False, {"lsw": False}

    monkeypatch.setitem(cli.COMMANDS, "identities", nan_identities)
    assert _run("identities", IDENTITIES_SMALL, tmp_path / "out") == 3
    assert "results.lsw.max_scaled_residual" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "doc,message",
    [
        ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": 1.0}}, "radii": [50.0]}, "at least 3"),
        ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": 1.0}}, "radii": [200.0, 100.0, 50.0]},
         "strictly increasing"),
        ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": True}}}, "catalog.params.m"),
        ({"catalog": {"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": True},
                      "angle": {"type": "constant", "value": 0.3}}}, "catalog.base_params.rho0"),
        # a string that reads as a number would reach the report as a string
        ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": "1.0"}}}, "catalog.params.m must be a number"),
        ({"catalog": {"name": "schwarzschild_isotropic", "params": {"m": [1.0]}}}, "catalog.params.m must be a number"),
        # 1e300 overflowed r ** 2 in the ADM integrals and exited 3
        ({"catalog": {"name": "minkowski_slice"}, "radii": [1e300, 1e301, 1e302]}, "each at most 1e+06"),
        # r = 0 passed the chart check, and every closure divided by it; a negative radius left the chart at run time
        ({"catalog": {"name": "minkowski_slice"}, "radii": [0.0, 1.0, 2.0]}, "at least 3 positive numbers"),
        ({"catalog": {"name": "graph_slice"}, "radii": [0.0, 1.0, 2.0]}, "at least 3 positive numbers"),
        ({"catalog": {"name": "minkowski_slice"}, "radii": [-3.0, -2.0, -1.0]}, "at least 3 positive numbers"),
        # at f = 50 the roundoff of cosh(f) H swamps a margin of about -0.38, so crease-check passed; 1000 overflowed
        ({"catalog": _rotated({"type": "constant", "value": 50.0})}, "catalog.angle.value must lie within [-10, 10]"),
        ({"catalog": _rotated({"type": "constant", "value": 1000.0})}, "catalog.angle.value must lie within"),
        ({"catalog": _rotated({"type": "cos_theta", "amplitude": 50.0})}, "catalog.angle.amplitude must lie within"),
    ],
    ids=["one-radius", "decreasing-radii", "boolean-param", "boolean-base-param", "string-param", "list-param",
         "radii-above-1e6", "zero-radius-minkowski", "zero-radius-graph", "negative-radii", "angle-value-50",
         "angle-value-1000", "angle-amplitude-50"],
)
def test_parse_time_contract_exits_2(tmp_path, capsys, doc, message):
    # E is extrapolated from the last three radii, and every model parameter is a number
    assert _run("adm", _write_config(tmp_path, "bad.yaml", doc), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_negative_radii_exit_2_on_a_command_that_reads_none(tmp_path, capsys):
    # rigidity reads no radius, and exited 0 on these
    doc = yaml.safe_load(RIGIDITY_SMALL.read_text(encoding="utf-8"))
    doc["radii"] = [-3.0, -2.0, -1.0]
    assert _run("rigidity", _write_config(tmp_path, "neg.yaml", doc), tmp_path / "out") == 2
    assert "at least 3 positive numbers" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_largest_crease_angle_and_radii_parse():
    config = parse_config(yaml.safe_dump({"catalog": _rotated({"type": "constant", "value": 10.0}),
                                          "radii": [1e5, 5e5, 1e6]}))
    assert config.catalog["angle"]["value"] == 10.0 and config.radii == (1e5, 5e5, 1e6)


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("solve", {"grid": {"n_minus": 64, "n_plus": 128, "r_max": 2.5}}, "must exceed the crease radius"),
        ("adm", {"radii": [1.0, 2.0, 3.0]}, "leave the chart"),
        ("solve", {"radii": [1.0, 2.0, 3.0]}, "leave the chart"),
        # the radial reduction needs a constant angle; a cos(theta) one is a config solve cannot take
        ("solve", {"catalog": {"name": "rotated_crease", "base": "miao_corner", "base_params": {"m": 1.0, "rho0": 3.0},
                               "angle": {"type": "cos_theta", "amplitude": 0.3}}}, "constant crease angle"),
        ("crease-check", {"catalog": {"name": "rotated_crease", "base": "graph_slice",
                                      "angle": {"type": "constant", "value": 0.3}}}, "creased base"),
        # each angle type reads one key; another one would be ignored
        ("crease-check", {"catalog": {"name": "rotated_crease", "base": "miao_corner",
                                      "base_params": {"m": 1.0, "rho0": 3.0},
                                      "angle": {"type": "cos_theta", "amplitude": 0.3, "value": 5.0}}},
         "'cos_theta' has no parameter value"),
        ("crease-check", {"catalog": {"name": "rotated_crease", "base": "miao_corner",
                                      "base_params": {"m": 1.0, "rho0": 3.0},
                                      "angle": {"type": "constant", "value": 0.3, "amplitude": 0.3}}},
         "'constant' has no parameter amplitude"),
        # r0 <= 0 ended in a numpy traceback (solve) or a numeric error (exit 3); width 0 in a non-finite report
        *((command, {"catalog": {"name": "trivial_crease", "params": {"r0": r0}}}, "trivial_crease needs r0 > 0")
          for r0 in (0.0, -1.0) for command in ("solve", "identities", "crease-check")),
        *((command, {"catalog": {"name": "graph_slice", "params": {"width": 0.0}}}, "graph_slice needs width > 0")
          for command in ("identities", "adm")),
    ],
    ids=["solve-r_max-inside-crease", "adm-radii-inside-chart", "solve-radii-inside-chart",
         "solve-varying-angle", "rotated-uncreased-base", "cos_theta-angle-with-value",
         "constant-angle-with-amplitude", "trivial-r0-0-solve", "trivial-r0-0-identities", "trivial-r0-0-crease-check",
         "trivial-r0-negative-solve", "trivial-r0-negative-identities", "trivial-r0-negative-crease-check",
         "graph-width-0-identities", "graph-width-0-adm"],
)
def test_run_time_config_errors_exit_2(tmp_path, capsys, command, doc, message):
    config = {"catalog": {"name": "miao_corner", "params": {"m": 1.0, "rho0": 3.0}}, **doc}
    assert _run(command, _write_config(tmp_path, "bad.yaml", config), tmp_path / "out") == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "command,config,names",
    [("solve", SOLVE_SMALL, ["psi_minus.csv", "psi_plus.csv"]),
     ("crease-check", CREASE_CHECK_SMALL, ["crease_margin.csv"])],
)
def test_csv_matches_per_value_formatting(tmp_path, monkeypatch, command, config, names):
    # reference: each value formatted on its own as repr(float(v))
    expected = {}
    write_csv = cli.write_csv

    def recording_write_csv(path, header, rows):
        rows = list(rows)
        lines = [",".join(header)] + [",".join(repr(float(v)) for v in row) for row in rows]
        expected[os.path.basename(path)] = "\n".join(lines) + "\n"
        write_csv(path, header, rows)

    monkeypatch.setattr(cli, "write_csv", recording_write_csv)
    assert _run(command, config, tmp_path) == 0
    assert sorted(expected) == names
    for name in names:
        assert (tmp_path / name).read_text(encoding="utf-8") == expected[name]


def test_negative_config_seed_exits_2(tmp_path, capsys):
    # numpy's generators reject negative seeds; the config parser says so first
    doc = yaml.safe_load(RIGIDITY_SMALL.read_text(encoding="utf-8"))
    doc["seed"] = -1
    assert _run("rigidity", _write_config(tmp_path, "neg.yaml", doc), tmp_path / "out") == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_negative_command_line_seed_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rigidity", "--config", str(RIGIDITY_SMALL), "--out", str(tmp_path / "out"), "--seed", "-3"])
    assert exc.value.code == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("n_minus,message", [(255, "must be even"), (32, "at least 64")], ids=["odd", "too-few"])
def test_invalid_solve_grid_exits_2(tmp_path, capsys, n_minus, message):
    doc = _solve_small()
    doc["grid"]["n_minus"] = n_minus
    assert _run("solve", _write_config(tmp_path, "grid.yaml", doc), tmp_path / "out") == 2
    err = capsys.readouterr().err
    assert "configuration error: grid" in err and message in err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize(
    "key,value",
    [("angle", {"type": "constant", "value": 0.5}), ("base", "trivial_crease"), ("base_params", {"r0": 2.0})],
)
def test_rotated_crease_keys_on_other_models_exit_2(tmp_path, capsys, key, value):
    doc = yaml.safe_load(CREASE_CHECK_SMALL.read_text(encoding="utf-8"))
    doc["catalog"][key] = value
    assert _run("crease-check", _write_config(tmp_path, "extra.yaml", doc), tmp_path / "out") == 2
    assert f"catalog.{key} applies to rotated_crease only" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


@pytest.mark.parametrize("name", ["report.json", "crease_margin.csv"])
def test_unwritable_output_exits_2(tmp_path, capsys, name):
    (tmp_path / name).mkdir()  # a directory where the file goes
    assert _run("crease-check", CREASE_CHECK_SMALL, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("output error:") and str(tmp_path / name) in err
    assert "Traceback" not in err
    assert (tmp_path / name).is_dir() and not list(tmp_path.glob("*.tmp"))


def _paths(prefix: str, names: str) -> set[str]:
    return {f"{prefix}.{name}" for name in names.split()}


# the dotted key paths of each committed config's report.json; a list is one leaf
_ENVELOPE = {"schema_version", "library_version", "command", "passed", "config.seed", "config.catalog.name"}
_MASS = "E P m radii E_by_radius P_by_radius decay_exponent extrapolation_residual monotone warning"
_IDENTITIES = (_paths("config", "ensembles.n_spinors quadrature.sphere_order") | _paths("flags", "lsw crease_boundary")
               | _paths("results.lsw", "region max_scaled_residual roundoff_floor")
               | _paths("results.crease_boundary", "max_relative_mismatch max_abs_mismatch bound_respected"))
_SOLVE = (_paths("config", "grid.n_minus grid.n_plus grid.r_max quadrature.sphere_order radii")
          | _paths("flags", "transmission poincare_stable hypotheses_hold gap_nonnegative") | {"results.label"}
          | _paths("results.oracle", "operator_defect gradient_defect radii_checked")
          | _paths("results.solver", "relative_residual residual_norm transmission_defect origin_defect "
                                     "smallest_singular_value")
          | _paths("results.mass", _MASS) | _paths("results.poincare", "estimate coarse")
          | _paths("results.gap", "flux_term bulk_term dirichlet_part matter_part gap crease_term closure "
                                  "min_crease_margin bulk_dec_satisfied dec_creased"))
_ROTATED = _paths("config.catalog", "base base_params.m base_params.rho0 angle.type")
_CREASE_CHECK = ({"config.quadrature.sphere_order", "flags.dec_creased"}
                 | _paths("results", "label min_margin argmin_node dec_creased spacelike_form_nodes_true "
                                     "nodes margin_summary.max margin_summary.mean"))
REPORT_PATHS = {
    "adm-small": (_paths("config", "catalog.params.m flux_check quadrature.sphere_order")
                  | _paths("flags", "flux_consistent monotone") | {"results.label"}
                  | _paths("results.flux_fit", "E P relative_energy_mismatch") | _paths("results.mass_report", _MASS)),
    "crease-check-small": _CREASE_CHECK | _paths("config.catalog.params", "m rho0"),
    "crease-check-small-rotated": _CREASE_CHECK | _ROTATED | {"config.catalog.angle.amplitude"},
    "identities-small": _IDENTITIES | _paths("config.catalog.params", "m rho0"),
    "identities-small-rotated": _IDENTITIES | _ROTATED | {"config.catalog.angle.amplitude"},
    "rigidity-small": (_paths("flags", "killing flatness drift lorentz negative_control_detects_curvature")
                       | _paths("results", "killing_residuals.tensor killing_residuals.covector development_flatness "
                                           "lorentz_length_drift crease_lorentz.angle crease_lorentz.max_residual "
                                           "crease_lorentz.causal_invariant_residual negative_control.description "
                                           "negative_control.riemann_norm negative_control.expected_fail")),
    "solve-small": _SOLVE | _paths("config.catalog.params", "m rho0"),
    "solve-small-rotated": _SOLVE | _ROTATED | {"config.catalog.angle.value"},
}


def _key_paths(obj, prefix: str = "") -> set[str]:
    if not isinstance(obj, dict):
        return {prefix}
    return {p for key, value in obj.items() for p in _key_paths(value, f"{prefix}.{key}" if prefix else key)}


@pytest.mark.parametrize("name", sorted(REPORT_PATHS))
def test_report_key_paths_match_the_layout(tmp_path, name):
    assert sorted(path.stem for path in CONFIGS.glob("*.yaml")) == sorted(REPORT_PATHS)
    assert _run(name.split("-small")[0], CONFIGS / f"{name}.yaml", tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert _key_paths(report) == _ENVELOPE | REPORT_PATHS[name]


# ---------------------------------------------------------------------------
# the command line and the YAML loader


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command"),
        (["nosuch", "--config", str(RIGIDITY_SMALL)], "unknown command 'nosuch'"),
        (["rigidity", "--conf", str(RIGIDITY_SMALL)], "unrecognized argument '--conf'"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "--verbose"], "unrecognized argument '--verbose'"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "extra"], "unrecognized argument 'extra'"),
        (["rigidity", "--config"], "option --config expects a value"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "--seed", "--out", "x"], "option --seed expects a value"),
        (["rigidity"], "the option --config is required"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "--seed", "-3"], "seed must be a nonnegative integer"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "--seed=1.5"], "seed must be a nonnegative integer"),
        (["rigidity", "--config", str(RIGIDITY_SMALL), "--seed", "x"], "seed must be a nonnegative integer"),
    ],
    ids=["no-command", "unknown-command", "abbreviation", "unknown-option", "stray-word", "no-value-at-end",
         "option-as-value", "no-config", "negative-seed", "float-seed", "word-seed"],
)
def test_usage_errors_exit_2_before_any_output(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + (["--out", str(out)] if argv else []))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: crease-lab COMMAND --config PATH")
    assert f"crease-lab: error: {message}" in err
    assert not (out / "report.json").exists()


def test_options_in_any_order_and_inline_values(tmp_path):
    assert cli.main(["rigidity", "--config", str(RIGIDITY_SMALL), "--out", str(tmp_path / "a"), "--seed", "5"]) == 0
    # --name=value, another order, and a repeated option whose last value wins
    argv = ["rigidity", "--seed=1", "--out", str(tmp_path / "b"), f"--config={RIGIDITY_SMALL}", "--seed", "5"]
    assert cli.main(argv) == 0
    report = (tmp_path / "b" / "report.json").read_bytes()
    assert json.loads(report)["config"]["seed"] == 5
    assert report == (tmp_path / "a" / "report.json").read_bytes()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["adm", "--help"]], ids=["--help", "-h", "after-command"])
def test_help_exits_0_with_the_command_list(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: crease-lab COMMAND")
    assert all(name in out for name in cli.COMMANDS)


def test_a_run_imports_neither_argparse_nor_locale(tmp_path):
    # the fixed cost of every run: the command line is read by hand, so a run loads neither module
    script = (
        "import sys\n"
        "import creaselab.cli as cli\n"
        f"assert cli.main(['rigidity', '--config', {str(RIGIDITY_SMALL)!r}, '--out', {str(tmp_path)!r}]) == 0\n"
        "print(sorted({'argparse', 'locale'} & set(sys.modules)))\n"
    )
    proc = _fresh_interpreter(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def _pure_python_loader():
    """The config loader on PyYAML's pure-Python scanner and parser, whatever PyYAML was built with."""
    return type("PureUniqueKeyLoader", (yaml.SafeLoader,), {"construct_mapping": _construct_unique_mapping})


LOADERS = [_UniqueKeyLoader, _pure_python_loader()]


def test_the_config_loader_uses_libyaml_where_pyyaml_has_it():
    assert issubclass(_UniqueKeyLoader, getattr(yaml, "CSafeLoader", yaml.SafeLoader))


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.stem)
def test_both_loaders_parse_the_committed_configs_alike(path):
    text = path.read_text(encoding="utf-8")
    c_data, pure_data = (yaml.load(text, Loader=loader) for loader in LOADERS)
    assert c_data == pure_data
    assert json.dumps(c_data, sort_keys=True) == json.dumps(pure_data, sort_keys=True)  # types too: 1 vs 1.0


@pytest.mark.parametrize("loader", LOADERS, ids=["config-loader", "pure-python"])
def test_both_loaders_refuse_a_repeated_key_and_honour_merge_keys(loader):
    with pytest.raises(yaml.constructor.ConstructorError, match="found duplicate key 'a'"):
        yaml.load("a: 1\nb: 2\na: 3\n", Loader=loader)
    # a << merge key is no repeat: a key written in the mapping overrides the merged one
    doc = "base: &b {sphere_order: 8, n: 2}\nquadrature:\n  <<: *b\n  sphere_order: 16\n"
    assert yaml.load(doc, Loader=loader)["quadrature"] == {"sphere_order": 16, "n": 2}
