"""Command-line driver: crease-lab <command> --config <path> [--out <dir>] [--seed <int>].

Commands: crease-check, adm, identities, solve, rigidity.  Each run writes
a deterministic report.json (byte-identical for identical config + seed),
CSV series for plotting, and a timing sidecar.  Exit codes: 0 pass,
1 hypothesis or inequality failure, 2 usage/config error or an output
that cannot be written, 3 numeric error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time

import numpy as np
from numpy.random import default_rng

from .bartnik import crease_report_for, spacelike_form_check
from .catalog import minkowski_slice, schwarzschild_isotropic, trivial_crease
from .cliffords import DIM
from .config import ConfigError, RunConfig, build_catalog_entry, load_config
from .geometry import CreaseAngle, CreasedData, GeometryError, InitialData
from .integrals import (
    adm_energy_momentum,
    crease_boundary_terms,
    flux_fit_energy_momentum,
    lsw_residual,
)
from .killing import (
    crease_lorentz_check,
    killing_conditions_residual,
    killing_development,
    lapse_shift_from_spinor,
    lorentz_length_drift,
    riemann_norm,
)
from .radial import RadialError, RadialGrid, assemble, mass_gap, poincare_estimate, reduce_radial, solve
from .reports import NonFiniteReportError, render_report, write_atomic, write_csv
from .spheregrid import unit_vectors
from .spinorfields import constant_spinor_field, random_polynomial_field


def _require_creased(entry) -> CreasedData:
    if not isinstance(entry, CreasedData):
        raise ConfigError("this command needs a creased catalog entry")
    return entry


def _exterior_data(entry) -> InitialData:
    return entry.plus if isinstance(entry, CreasedData) else entry


def _require_radii_in_chart(config: RunConfig, data: InitialData) -> None:
    """The ADM spheres must lie in the data's chart: a config error, checked before any computation."""
    if not np.all(data.chart.contains(np.asarray(config.radii))):
        raise ConfigError(f"radii {list(config.radii)} leave the chart [{data.chart.r_min:g}, {data.chart.r_max:g}]")


def cmd_crease_check(config: RunConfig, out_dir: str):
    cd = _require_creased(build_catalog_entry(config))
    report = crease_report_for(cd, order=config.sphere_order)
    spacelike_ok = spacelike_form_check(report)
    results = {
        "label": cd.label,
        "min_margin": report.min_margin,
        "argmin_node": report.argmin_node,
        "dec_creased": report.dec_creased,
        "spacelike_form_nodes_true": int(np.sum(spacelike_ok)),
        "nodes": int(report.margin.shape[0]),
        "margin_summary": {
            "max": float(np.max(report.margin)),
            "mean": float(np.mean(report.margin)),
        },
    }
    write_csv(
        os.path.join(out_dir, "crease_margin.csv"),
        ["node", "margin", "nu_component", "tau_component", "beta_delta_norm"],
        np.column_stack([np.arange(report.margin.shape[0]), report.margin, report.nu_component,
                         report.tau_component, report.beta_delta_norm]),
    )
    return results, bool(report.dec_creased), {"dec_creased": report.dec_creased}


def cmd_adm(config: RunConfig, out_dir: str):
    data = _exterior_data(build_catalog_entry(config))
    _require_radii_in_chart(config, data)
    mass = adm_energy_momentum(data, config.radii, order=config.sphere_order)
    results = {"label": data.label, "mass_report": mass}
    flags = {"monotone": mass.monotone}
    passed = True
    if config.flux_check:
        E_fit, P_fit = flux_fit_energy_momentum(data, config.radii[-1], order=min(config.sphere_order, 12))
        # relative to |E|, floored at the last radius / 200 (1 at the default radii) so that E = 0 (flat or
        # graph data) is measurable; the floor scales with the data, so the check reads no unit of length
        rel = abs(E_fit - mass.E) / max(abs(mass.E), config.radii[-1] / 200.0)
        results["flux_fit"] = {"E": E_fit, "P": list(P_fit), "relative_energy_mismatch": rel}
        # the fit reads one sphere of order <= 12 and misses E by 1.6e-3 to 2.6e-3 on Schwarzschild data
        flags["flux_consistent"] = rel <= 0.02
        passed = passed and flags["flux_consistent"]
    write_csv(
        os.path.join(out_dir, "adm_by_radius.csv"),
        ["radius", "E", "P1", "P2", "P3"],
        [
            (r, mass.E_by_radius[i], *mass.P_by_radius[i])
            for i, r in enumerate(mass.radii)
        ],
    )
    return results, passed, flags


def _crease_trace(a0: np.ndarray, a1: np.ndarray):
    """The crease trace psi(theta, phi) = a0 + omega . a1 of spinor coefficients a0 (..., I) and a1 (..., 3, I)."""

    def psi(theta, phi):
        om = unit_vectors(np.asarray(theta), np.asarray(phi))
        return a0[..., None, :] + om @ a1

    return psi


def cmd_identities(config: RunConfig, out_dir: str):
    entry = build_catalog_entry(config)
    rng = default_rng(config.seed)
    data = _exterior_data(entry)
    a = max(3.0, data.chart.r_min + 0.5)
    region = ("annulus", a, a + 3.0)
    # every spinor of the ensemble in one batch: the geometry is evaluated once
    fld = random_polynomial_field(rng, (config.n_spinors,), degree=2, scale=0.2)
    res = lsw_residual(data, fld, region, order=config.sphere_order)
    worst_lsw = float(np.max(np.abs(res.residual) / (np.abs(res.bulk) + 1.0)))
    # the residual is a difference of the two positive volume sums, so their size sets its roundoff floor
    floor = float(np.finfo(float).eps * np.max(np.abs(res.dirichlet) + np.abs(res.dirac_sq)))
    results: dict = {"lsw": {"region": list(region[1:]), "max_scaled_residual": worst_lsw, "roundoff_floor": floor}}
    # the quadrature floor reaches 1.4e-7 on graph_slice (one Gauss panel radially), while a wrong term is O(1)
    flags = {"lsw": worst_lsw <= 1e-6}

    if isinstance(entry, CreasedData):
        # rows per spinor: Re a0, Im a0, Re a1 (3 rows), Im a1 (3 rows), drawn in that order
        z = rng.normal(size=(config.n_spinors, 8, DIM))
        a0 = z[:, 0] + 1j * z[:, 1]
        a1 = 0.2 * (z[:, 2:5] + 1j * z[:, 5:8])
        res = crease_boundary_terms(entry, _crease_trace(a0, a1), order=config.sphere_order)
        # relative to the one-sided integrals summed, not to a crease term that may vanish; floored for a zero trace
        scale = np.maximum(np.abs(res.i_minus) + np.abs(res.i_plus), np.finfo(float).tiny)
        worst_crease = float(np.max(res.mismatch / scale))
        bound_ok = bool(np.all(res.direct <= res.bound + 1e-10))
        results["crease_boundary"] = {"max_relative_mismatch": worst_crease,
                                      "max_abs_mismatch": float(np.max(res.mismatch)), "bound_respected": bound_ok}
        # the mismatch is a few ulp of the one-sided integrals summed, about 1e-16 of them
        flags["crease_boundary"] = worst_crease <= 1e-8 and bound_ok

    passed = all(flags.values())
    return results, passed, flags


def cmd_solve(config: RunConfig, out_dir: str):
    grid = RadialGrid(n_minus=config.n_minus, n_plus=config.n_plus, r_max=config.r_max)
    try:
        grid.validate()
    except RadialError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    cd = _require_creased(build_catalog_entry(config))
    if cd.angle.constant is None:
        raise ConfigError(f"solve needs a constant crease angle, got {cd.angle.description}")
    if not config.r_max > cd.r0:
        raise ConfigError(f"grid.r_max {config.r_max:g} must exceed the crease radius {cd.r0:g}")
    _require_radii_in_chart(config, cd.plus)
    problem = reduce_radial(cd)
    psi_inf = np.zeros(DIM, dtype=complex)
    psi_inf[0] = 1.0
    sol = solve(assemble(problem, grid), psi_inf)
    mass = adm_energy_momentum(cd.plus, config.radii, order=config.sphere_order)
    gap = mass_gap(sol, mass)
    # the Poincare check compares a grid of 128..512 intervals per side with
    # its half rounded to an even count, so both grids pass RadialGrid.validate;
    # both end at 200, or at twice the crease radius when that is farther
    fine = [max(min(n, 512), 128) for n in (config.n_minus, config.n_plus)]
    r_max = min(config.r_max, max(200.0, 2.0 * cd.r0))
    lam = poincare_estimate(problem, RadialGrid(*fine, r_max=r_max))
    lam_coarse = poincare_estimate(problem, RadialGrid(*(2 * (n // 4) for n in fine), r_max=r_max))

    results = {
        "label": cd.label,
        "oracle": problem.oracle,
        "solver": {
            "relative_residual": sol.relative_residual,
            "residual_norm": sol.residual_norm,
            "transmission_defect": sol.transmission_defect,
            "origin_defect": sol.origin_defect,
            "smallest_singular_value": sol.smallest_singular_value,
        },
        "mass": mass,
        "gap": gap,
        "poincare": {"estimate": lam, "coarse": lam_coarse},
    }
    # reduce_radial raises on an uncertified reduction and poincare_estimate on a nonpositive estimate
    flags = {
        "transmission": sol.transmission_defect <= 1e-9,
        "poincare_stable": abs(lam - lam_coarse) <= 0.2 * abs(lam),
        "hypotheses_hold": gap.bulk_dec_satisfied and gap.dec_creased,
    }
    # flux - bulk is nonnegative in the continuum; where it vanishes, discretization may take it slightly below 0
    flags["gap_nonnegative"] = gap.gap >= -1e-4 * (abs(gap.flux_term) + 1e-12)
    # data outside the theorem's hypotheses fail the run, as an inequality failure does; the report is still written
    passed = all(flags.values())

    # |U| = |u| |psi_inf| and |V| = |v| |psi_inf| from the channel values
    psi_norm = float(np.linalg.norm(psi_inf))
    for side, r, u, v in (
        ("minus", sol.system.r_minus, sol.u_minus, sol.v_minus),
        ("plus", sol.system.r_plus, sol.u_plus, sol.v_plus),
    ):
        write_csv(
            os.path.join(out_dir, f"psi_{side}.csv"),
            ["r", "abs_U", "abs_V"],
            np.column_stack([r, np.abs(u) * psi_norm, np.abs(v) * psi_norm]),
        )
    return results, passed, flags


def cmd_rigidity(config: RunConfig, out_dir: str):
    rng = default_rng(config.seed)
    flat = minkowski_slice()
    samples = np.array([[1.0, 2.0, 0.5], [3.0, 0.0, 1.0], [0.5, -1.0, 2.0]])

    c = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    ls = lapse_shift_from_spinor(constant_spinor_field(c), flat, check_points=samples)
    kres = killing_conditions_residual(flat, ls, samples)
    dev = killing_development(flat, ls, sample_points=samples)
    flatness = max(riemann_norm(dev, p) for p in samples)
    ts = np.linspace(1.0, 10.0, 50)
    curve = np.stack([ts, np.zeros_like(ts), np.zeros_like(ts)], axis=1)
    drift = lorentz_length_drift(flat, ls, curve)

    tc = trivial_crease(2.0).with_angle(CreaseAngle.from_constant(math.log(2.0)))
    a0 = rng.normal(size=DIM) + 1j * rng.normal(size=DIM)
    a1 = 0.2 * (rng.normal(size=(3, DIM)) + 1j * rng.normal(size=(3, DIM)))
    lorentz = crease_lorentz_check(tc, _crease_trace(a0, a1), order=config.sphere_order)

    # the static pair u = 1, Y = 0, exactly, of the constant spinor e_0
    schw = schwarzschild_isotropic(1.0)
    ls_static = lapse_shift_from_spinor(constant_spinor_field(np.eye(DIM)[0]), schw)
    dev_s = killing_development(schw, ls_static)
    curved_norm = riemann_norm(dev_s, np.array([3.0, 0.2, 0.1]))

    results = {
        "killing_residuals": {"tensor": kres.max_tensor, "covector": kres.max_covector},
        "development_flatness": flatness,
        "lorentz_length_drift": drift,
        "crease_lorentz": {
            "angle": math.log(2.0),
            "max_residual": lorentz.max_residual,
            "causal_invariant_residual": lorentz.causal_invariant_residual,
        },
        "negative_control": {
            "description": "static development of a curved slice is not flat",
            "riemann_norm": curved_norm,
            "expected_fail": True,
        },
    }
    flags = {
        # closed form from the spinor's analytic derivatives: 0 for a constant spinor on the flat slice
        "killing": max(kres.max_tensor, kres.max_covector) <= 1e-9,
        # the noise floor of riemann_norm's two nested difference stencils (steps 1e-5 and 2e-4)
        "flatness": flatness <= 1e-6,
        # u^2 - |Y|^2 is conserved along the development; what is left is roundoff
        "drift": drift <= 1e-8,
        # the traces obey the hyperbolic rotation in closed form: 8.9e-15 on this Minkowski self-test
        "lorentz": lorentz.max_residual <= 1e-10,
        "negative_control_detects_curvature": curved_norm > 1e-3,
    }
    return results, all(flags.values()), flags


COMMANDS = {
    "crease-check": cmd_crease_check,
    "adm": cmd_adm,
    "identities": cmd_identities,
    "solve": cmd_solve,
    "rigidity": cmd_rigidity,
}


def _seed(text: str) -> int:
    """argparse type of --seed: a nonnegative integer, as numpy's generators require."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a nonnegative integer, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crease-lab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=_seed, default=None)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seed = int(args.seed)
            config.raw = dict(config.raw)
            config.raw["seed"] = int(args.seed)
        out_dir = args.out if args.out is not None else config.out_dir
        os.makedirs(out_dir, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        results, passed, flags = COMMANDS[args.command](config, out_dir)
        report = render_report(args.command, config.raw, results, passed, flags)
        elapsed = time.perf_counter() - started
        write_atomic(os.path.join(out_dir, "report.json"), report)
        write_atomic(os.path.join(out_dir, "report_meta.json"), f'{{"wall_clock_seconds": {elapsed:.3f}}}\n')
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, NonFiniteReportError) as exc:
        print(f"numeric/internal error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:  # a CSV or report path that cannot be written, e.g. a directory in its place
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.command}: {'pass' if passed else 'FAIL'} (report in {out_dir})")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
