"""Closed-form initial data models and creased gluings.

Every model is spherically symmetric and is written once, as radial
functions: g = u delta + v P and k = k_u delta + k_v P, P the radial
projector.  `_radial_data` builds from them g, k, their analytic first
derivatives, the analytic second derivatives of g (`InitialData.d2g`) and
the radial profile A = sqrt(u + v), B = sqrt(u), kappa_n = (k_u + k_v) /
(u + v), kappa_t = k_u / u with the derivatives A', B', B'' and kappa_t'
that the transmission solver and its mass gap read.  All closures are
vectorized over point batches (m, 3); the catalog is three-dimensional.
"""

from __future__ import annotations

from dataclasses import replace
import inspect
import math
import sys

import numpy as np

from .geometry import (
    Chart,
    CreaseAngle,
    CreasedData,
    GeometryError,
    InitialData,
    RadialProfile,
)
from .spheregrid import sphere_grid


def _radii(x: np.ndarray) -> np.ndarray:
    return np.linalg.norm(x, axis=-1)


def _radial_tensor(x, u, v):
    """u(r) delta_ij + v(r) omega_i omega_j at each point."""
    r = _radii(x)
    om = x / r[:, None]
    eye = np.eye(3)
    return u[:, None, None] * eye[None] + v[:, None, None] * (om[:, :, None] * om[:, None, :])


def _radial_tensor_deriv(x, u, du, v, dv):
    """d_l of the radial tensor; index order [..., i, j, l].

    d_l (u delta_ij + v omega_i omega_j) = u' delta_ij omega_l
    + (v' - 2 v / r) omega_i omega_j omega_l + v / r (delta_il omega_j + omega_i delta_jl):
    one omega x omega x omega outer product, the Kronecker terms added on index slices.
    """
    r = _radii(x)
    om = x / r[:, None]
    out = ((dv - 2.0 * v / r)[:, None] * om)[:, :, None, None] * (om[:, :, None] * om[:, None, :])[:, None]
    du_om, v_om = du[:, None] * om, (v / r)[:, None] * om
    for a in range(3):
        out[:, a, a] += du_om  # u' delta_ij omega_l
        out[:, a, :, a] += v_om  # v/r delta_il omega_j
        out[:, :, a, a] += v_om  # v/r omega_i delta_jl
    return out


def _radial_tensor_deriv2(x, u, du, d2u, v, dv, d2v):
    """d_m d_l of the radial tensor; index order [..., i, j, l, m].

    With g = u delta + w x x^T, w = v / r^2 and P = omega omega^T:
    d_m d_l g_ij = r^2 (w'' - w'/r) P_ij P_lm + delta_ij U_lm + r w' P_ij delta_lm
                   + r w' (delta_il P_jm + delta_jl P_im + delta_im P_jl + delta_jm P_il)
                   + w (delta_il delta_jm + delta_im delta_jl),
    where U_lm = u'' P_lm + u' (delta_lm - P_lm) / r.  One P x P outer
    product; the Kronecker terms are added on index slices.
    """
    r = _radii(x)
    om = x / r[:, None]
    w = v / r**2
    dw = dv / r**2 - 2.0 * v / r**3
    d2w = d2v / r**2 - 4.0 * dv / r**3 + 6.0 * v / r**4
    eye = np.eye(3)
    P = om[:, :, None] * om[:, None, :]
    U = d2u[:, None, None] * P + du[:, None, None] * (eye - P) / r[:, None, None]
    rP = (r * dw)[:, None, None] * P
    rPw = rP + w[:, None, None] * eye
    out = ((r**2 * d2w - r * dw)[:, None, None] * P)[:, :, :, None, None] * P[:, None, None]
    for a in range(3):
        out[:, a, a] += U  # delta_ij U_lm
        out[:, :, :, a, a] += rP  # r w' P_ij delta_lm
        out[:, a, :, a] += rPw  # delta_il (r w' P_jm + w delta_jm)
        out[:, :, a, a] += rP  # delta_jl r w' P_im
        out[:, a, :, :, a] += rPw  # delta_im (r w' P_jl + w delta_jl)
        out[:, :, a, :, a] += rP  # delta_jm r w' P_il
    return out


def _zero_tensor(x):
    m = np.shape(x)[0]
    return np.zeros((m, 3, 3))


def _zero_tensor_deriv(x):
    m = np.shape(x)[0]
    return np.zeros((m, 3, 3, 3))


def _radial_data(
    chart: Chart,
    label: str,
    metric_uv,  # r -> (u, du, d2u, v, dv, d2v) for g = u delta + v P
    curv_uv=None,  # r -> (u, du, v, dv) for k, or None for k = 0
) -> InitialData:
    def g(x):
        u, _, _, v, _, _ = metric_uv(_radii(x))
        return _radial_tensor(x, u, v)

    def dg(x):
        u, du, _, v, dv, _ = metric_uv(_radii(x))
        return _radial_tensor_deriv(x, u, du, v, dv)

    def d2g(x):
        return _radial_tensor_deriv2(x, *metric_uv(_radii(x)))

    def profile(r):
        u, du, d2u, v, dv, _ = metric_uv(r)
        A, B = np.sqrt(u + v), np.sqrt(u)
        ku, dku, kv, _ = (np.zeros_like(r),) * 4 if curv_uv is None else curv_uv(r)
        return RadialProfile(r=r, A=A, B=B, dA=(du + dv) / (2.0 * A), dB=du / (2.0 * B),
                             d2B=d2u / (2.0 * B) - du**2 / (4.0 * B**3), kappa_n=(ku + kv) / (u + v),
                             kappa_t=ku / u, dkappa_t=(dku * u - ku * du) / u**2)

    if curv_uv is None:
        k, dk = _zero_tensor, _zero_tensor_deriv
    else:
        def k(x):
            u, du, v, dv = curv_uv(_radii(x))
            return _radial_tensor(x, u, v)

        def dk(x):
            u, du, v, dv = curv_uv(_radii(x))
            return _radial_tensor_deriv(x, u, du, v, dv)

    return InitialData(n=3, chart=chart, g=g, k=k, dg=dg, dk=dk, d2g=d2g, label=label, profile=profile)


def _validate_positive_definite(data: InitialData, radii) -> None:
    grid = sphere_grid(6)
    for r in radii:
        if not data.chart.contains(r):
            continue
        g = data.g(r * grid.nodes[::7])
        if not np.all(np.linalg.eigvalsh(g) > 0.0):
            raise GeometryError(f"{data.label}: metric not positive definite at r={r:g}")


# ---------------------------------------------------------------------------
# individual models


def minkowski_slice() -> InitialData:
    ones = lambda r: (np.ones_like(r),) + (np.zeros_like(r),) * 5
    return _radial_data(chart=Chart(0.0, math.inf), label="minkowski_slice", metric_uv=ones)


def schwarzschild_isotropic(m: float) -> InitialData:
    m = float(m)
    r_min = 0.75 * abs(m) if m != 0.0 else 0.0

    def phi(r):
        return 1.0 + m / (2.0 * r)

    def metric_uv(r):
        p = phi(r)
        dp = -m / (2.0 * r**2)
        d2p = m / r**3
        zero = np.zeros_like(r)
        return p**4, 4.0 * p**3 * dp, 12.0 * p**2 * dp**2 + 4.0 * p**3 * d2p, zero, zero, zero

    data = _radial_data(
        chart=Chart(r_min, math.inf),
        label=f"schwarzschild_isotropic(m={m:g})",
        metric_uv=metric_uv,
    )
    _validate_positive_definite(data, [max(r_min * 1.5, 1.0), 10.0, 100.0])
    return data


def schwarzschild_exterior_area_radius(m: float) -> InitialData:
    m = float(m)
    r_min = 2.5 * m if m > 0 else 0.05 * max(abs(m), 1.0)

    def metric_uv(r):
        alpha = 2.0 * m / (r - 2.0 * m)
        dalpha = -2.0 * m / (r - 2.0 * m) ** 2
        d2alpha = 4.0 * m / (r - 2.0 * m) ** 3
        zero = np.zeros_like(r)
        return np.ones_like(r), zero, zero, alpha, dalpha, d2alpha

    data = _radial_data(
        chart=Chart(r_min, math.inf),
        label=f"schwarzschild_exterior_area_radius(m={m:g})",
        metric_uv=metric_uv,
    )
    _validate_positive_definite(data, [r_min * 1.2 + 0.1, 10.0, 100.0])
    return data


def flat_ball(r0: float) -> InitialData:
    return replace(minkowski_slice(), chart=Chart(0.0, float(r0)), label=f"flat_ball(r0={r0:g})")


def miao_corner(m: float, rho0: float) -> CreasedData:
    """Flat interior glued to the Schwarzschild exterior in area-radius coordinates."""
    m, rho0 = float(m), float(rho0)
    if rho0 <= 0:
        raise GeometryError("miao_corner needs rho0 > 0")
    if 2.0 * m / rho0 >= 1.0:
        raise GeometryError(f"miao_corner: gluing sphere rho0={rho0:g} is inside the horizon 2m={2*m:g}")
    exterior = schwarzschild_exterior_area_radius(m)
    plus = replace(exterior, chart=Chart(rho0, math.inf), label=exterior.label + f"|r>={rho0:g}")
    return CreasedData(
        minus=flat_ball(rho0),
        plus=plus,
        r0=rho0,
        angle=CreaseAngle.from_constant(0.0),
        label=f"miao_corner(m={m:g}, rho0={rho0:g})",
    )


def trivial_crease(r0: float = 1.0) -> CreasedData:
    """Flat data on both sides of r = r0 with zero hyperbolic angle."""
    if r0 <= 0:
        raise GeometryError("trivial_crease needs r0 > 0")
    plus = replace(minkowski_slice(), chart=Chart(float(r0), math.inf))
    return CreasedData(
        minus=flat_ball(r0), plus=plus, r0=float(r0),
        angle=CreaseAngle.from_constant(0.0), label=f"trivial_crease(r0={r0:g})",
    )


def graph_slice(amplitude: float = 0.4, center: float = 4.5, width: float = 1.0) -> InitialData:
    """Slice t = h(|x|) of Minkowski with Gaussian-profile slope h'.

    h'(r) = amplitude * exp(-((r-center)/width)^2) keeps the slope below 1
    and makes the slice flat to all polynomial orders at infinity.
    """
    a, c, w = float(amplitude), float(center), float(width)
    if not abs(a) < 1.0:
        raise GeometryError("graph_slice amplitude must satisfy |amplitude| < 1")
    if w <= 0:
        raise GeometryError("graph_slice needs width > 0")

    def h1(r):
        return a * np.exp(-(((r - c) / w) ** 2))

    def h2(r):
        s = (r - c) / w
        return a * np.exp(-(s**2)) * (-2.0 * s) / w

    def h3(r):
        s = (r - c) / w
        return a * np.exp(-(s**2)) * (4.0 * s**2 - 2.0) / w**2

    def metric_uv(r):
        hp, hpp = h1(r), h2(r)
        zero = np.zeros_like(r)
        return np.ones_like(r), zero, zero, -(hp**2), -2.0 * hp * hpp, -2.0 * hpp**2 - 2.0 * hp * h3(r)

    # k = Hess(h)/W w.r.t. the future timelike normal (the sign convention of
    # the `geometry` module docstring); the slice is vacuum for either global k sign
    def curv_uv(r):
        hp, hpp, hppp = h1(r), h2(r), h3(r)
        W = np.sqrt(1.0 - hp**2)
        u = hp / (r * W)
        v = hpp / W - u
        du = hpp / (r * W) - hp / (r**2 * W) + hp**2 * hpp / (r * W**3)
        dvn = hppp / W + hp * hpp**2 / W**3
        return u, du, v, dvn - du

    return _radial_data(
        chart=Chart(0.0, math.inf),
        label=f"graph_slice(a={a:g}, c={c:g}, w={w:g})",
        metric_uv=metric_uv,
        curv_uv=curv_uv,
    )


def rotated_crease(base: CreasedData, angle: CreaseAngle) -> CreasedData:
    """Apply a hyperbolic gauge angle to an existing crease; bulks unchanged."""
    if not isinstance(base, CreasedData):
        raise GeometryError(f"rotated_crease needs a creased base, got {base.label}")
    return base.with_angle(angle, label=f"rotated({base.label}; f={angle.description})")


# ---------------------------------------------------------------------------
# the catalog spec of a run configuration


# every model a config can name and every crease angle type; the keyword parameters of each are its catalog
# parameters, required where they have no default.  rotated_crease, the one composite model, takes a base of
# MODELS with its base_params and an angle of ANGLES.
MODELS = {model.__name__: model for model in (minkowski_slice, schwarzschild_isotropic,
          schwarzschild_exterior_area_radius, miao_corner, trivial_crease, graph_slice)}
ANGLES = {"constant": CreaseAngle.from_constant, "cos_theta": CreaseAngle.cos_theta}
# |f| bound of either angle type: the DEC-crease margin's roundoff eps cosh(f) |H| is 2.4e-12 |H| at |f| = 10,
# far below bartnik.DEC_CREASE_TOL, but 6e5 |H| at |f| = 50, where it swamps the margin (cosh overflows at 711)
MAX_ANGLE = 10.0


def is_finite(value) -> bool:
    """Whether a config number is a finite float: False for NaN, inf and an integer too large for a float,
    where math.isfinite raises OverflowError."""
    return abs(value) <= sys.float_info.max


def _check_params(label: str, make, params, where: str, bound: float = math.inf) -> None:
    if not isinstance(params, dict):
        raise GeometryError(f"{where} must be a mapping")
    signature = inspect.signature(make).parameters
    extra = [str(key) for key in params if key not in signature]
    if extra:
        raise GeometryError(f"{label} has no parameter {', '.join(extra)}")
    missing = [key for key, p in signature.items() if p.default is p.empty and key not in params]
    if missing:
        raise GeometryError(f"{label} is missing parameter {missing[0]!r}")
    for key, value in params.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise GeometryError(f"{where}.{key} must be a number")
        if not is_finite(value):
            raise GeometryError(f"{where}.{key} must be a finite float, got {value!r}")
        if abs(value) > bound:
            raise GeometryError(f"{where}.{key} must lie within [-{bound:g}, {bound:g}], got {value!r}")


def _check_model(name, params, where: str) -> None:
    if not isinstance(name, str) or name not in MODELS:
        raise GeometryError(f"unknown catalog model {name!r}")
    _check_params(f"catalog model {name!r}", MODELS[name], params, where)


def check_spec(spec: dict) -> None:
    """Check a config's catalog mapping without building the model; GeometryError names the key at fault."""
    extra = [str(key) for key in spec if key not in ("name", "params", "base", "base_params", "angle")]
    if extra:
        raise GeometryError(f"unknown configuration key catalog.{extra[0]!r}")
    name = spec.get("name")
    if name != "rotated_crease":
        _check_model(name, spec.get("params", {}), "catalog.params")
        for key in ("angle", "base", "base_params"):
            if key in spec:
                raise GeometryError(f"catalog.{key} applies to rotated_crease only, not {name}")
        return
    if "params" in spec:
        raise GeometryError("rotated_crease takes catalog.base_params, not catalog.params")
    if "base" not in spec or not isinstance(spec.get("angle"), dict):
        raise GeometryError("rotated_crease needs catalog.base and a catalog.angle mapping")
    _check_model(spec["base"], spec.get("base_params", {}), "catalog.base_params")
    angle = dict(spec["angle"])
    kind = angle.pop("type", None)
    if not isinstance(kind, str) or kind not in ANGLES:
        raise GeometryError(f"unknown crease angle type {kind!r} (the types: {', '.join(ANGLES)})")
    _check_params(f"crease angle type {kind!r}", ANGLES[kind], angle, "catalog.angle", MAX_ANGLE)


def build(spec: dict):
    """The InitialData or CreasedData of a catalog mapping that `check_spec` accepted."""
    if spec["name"] == "rotated_crease":
        angle = dict(spec["angle"])
        base = build({"name": spec["base"], "params": spec.get("base_params", {})})
        return rotated_crease(base, ANGLES[angle.pop("type")](**angle))
    return MODELS[spec["name"]](**spec.get("params", {}))
