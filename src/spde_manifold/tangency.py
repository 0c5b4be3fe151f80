"""Tangency checks for drift/diffusion models along a chart.

For each sampled chart point the diffusion fields are projected onto
the tangent frame (relative residual per noise component), and the
drift is tested after subtracting half the frame's second-order
correction.  Two equivalent drift forms are supported: the chart
Hessian contraction ("bracket") and the diffusion-derivative form
("stratonovich"); they must agree, and their observed agreement is part
of the report.  Residual thresholds scale with the reported spectral
spill so truncation artifacts are not mistaken for genuine
non-tangency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .hermite import HERMITE_TAG, top_band_ratio
from .manifold import (
    FD_STEP_HESSIAN,
    FD_STEP_JACOBIAN,
    DegenerateChartError,
    Parametrization,
    TangentFrame,
    bracket,
    jacobian,
)
from .models import as_batched, stratonovich_correction

__all__ = [
    "InvalidSamplingError",
    "FormDisagreementError",
    "SamplingSpec",
    "sample_points",
    "DiffusionCheck",
    "DriftCheck",
    "check_diffusion_tangency",
    "check_drift_tangency",
    "reduced_coefficients",
    "TangencyReport",
    "sweep",
]

VERDICT_TANGENT = "tangent"
VERDICT_NOT_TANGENT = "not_tangent"


class InvalidSamplingError(ValueError):
    """The sampling request produced no usable chart points."""


class FormDisagreementError(RuntimeError):
    """The two drift forms disagree beyond tolerance (bug or truncation breakdown)."""


# -- chart sampling ----------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """How to pick chart points: a lattice for m <= 2, Halton above that.

    ``margin_frac`` shrinks the box slightly so finite-difference stencils
    stay interior.  Explicit ``points`` override everything else.
    """

    points_per_axis: int = 11
    method: str = "auto"  # auto | lattice | halton
    margin_frac: float = 0.01
    points: Optional[np.ndarray] = None


def _halton(count: int, dim: int) -> np.ndarray:
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    if dim > len(primes):
        raise InvalidSamplingError(f"halton sampling supports at most {len(primes)} axes")
    out = np.empty((count, dim))
    for j in range(dim):
        b = primes[j]
        for i in range(count):
            f, r, n = 1.0, 0.0, i + 1
            while n > 0:
                f /= b
                r += f * (n % b)
                n //= b
            out[i, j] = r
    return out


def sample_points(spec: SamplingSpec, domain: np.ndarray) -> np.ndarray:
    if spec.points is not None:
        pts = np.asarray(spec.points, dtype=float).reshape(-1, domain.shape[0])
        if pts.shape[0] == 0:
            raise InvalidSamplingError("explicit point list is empty")
        return pts
    m = domain.shape[0]
    if spec.points_per_axis < 1:
        raise InvalidSamplingError("points_per_axis must be at least 1")
    lo = domain[:, 0] + spec.margin_frac * (domain[:, 1] - domain[:, 0])
    hi = domain[:, 1] - spec.margin_frac * (domain[:, 1] - domain[:, 0])
    method = spec.method
    if method == "auto":
        method = "lattice" if m <= 2 else "halton"
    if method == "lattice":
        axes = [np.linspace(lo[k], hi[k], spec.points_per_axis) for k in range(m)]
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=1)
    elif method == "halton":
        unit = _halton(spec.points_per_axis ** 2, m)
        pts = lo + unit * (hi - lo)
    else:
        raise InvalidSamplingError(f"unknown sampling method {method!r}")
    if pts.shape[0] == 0:
        raise InvalidSamplingError("sampling produced no points")
    return pts


# -- single-point checks -----------------------------------------------------


@dataclass
class DiffusionCheck:
    """At a (P, m) batch of points every field gains a leading path axis."""

    a: np.ndarray  # (n_noise, m) tangent coordinates per noise component
    rho: np.ndarray  # (n_noise,) relative normal residuals
    spill: float
    frame: TangentFrame


@dataclass
class DriftCheck:
    beta: np.ndarray
    rho: float
    spill: float
    form: str
    step_disagreement: float = 0.0
    warnings: list = field(default_factory=list)


def _frame_at(model, param, x, jac_mode, h_fd):
    return jacobian(param, x, model.geometry, mode=jac_mode, h_fd=h_fd)


def _max(a, b):
    """Larger of two spills, per path when either is batched."""
    if np.ndim(a) == 0 and np.ndim(b) == 0:
        return max(a, b)
    return np.maximum(a, b)


def check_diffusion_tangency(
    model,
    param: Parametrization,
    x,
    *,
    frame: TangentFrame | None = None,
    jac_mode: str = "auto",
    h_fd: float = FD_STEP_JACOBIAN,
) -> DiffusionCheck:
    """Project every diffusion component at phi(x) onto the tangent frame."""
    if frame is None:
        frame = _frame_at(model, param, x, jac_mode, h_fd)
    state = param.eval(frame.x)
    fields = as_batched(model).diffusion(state)
    n = len(fields)
    batch = frame.x.shape[:-1]
    a = np.zeros(batch + (n, param.m))
    rho = np.zeros(batch + (n,))
    spill = 0.0
    for j, f in enumerate(fields):
        proj = frame.project(f)
        a[..., j, :] = proj.coords
        rho[..., j] = proj.rel_residual
        spill = _max(spill, proj.spill)
    return DiffusionCheck(a, rho, spill, frame)


def _bracket_drift(param, frame, drift, a, h_hess):
    """Drift minus half the chart-Hessian contraction of each noise coordinate."""
    terms = [(drift, 1.0)]
    for j in range(a.shape[-2]):
        aj = a[..., j, :]
        if aj.any():
            terms.append((bracket(param, frame.x, aj, aj, h_fd=h_hess), -0.5))
    return type(drift).combine(terms) if len(terms) > 1 else drift


def check_drift_tangency(
    model,
    param: Parametrization,
    x,
    form: str = "bracket",
    *,
    frame: TangentFrame | None = None,
    diffusion: DiffusionCheck | None = None,
    jac_mode: str = "auto",
    da_mode: str = "auto",
    h_fd: float = FD_STEP_JACOBIAN,
    h_hess: float = FD_STEP_HESSIAN,
    h_chart: float = 1e-4,
) -> DriftCheck:
    """Residual of the corrected drift against the tangent frame.

    ``form`` "bracket" subtracts half the chart-Hessian contraction of
    the diffusion coordinates; "stratonovich" subtracts half the
    diffusion-derivative correction and recovers the same reduced drift
    through the chart-derivative decomposition.  The bracket form also
    takes a (P, m) batch of points; the stratonovich form takes one point
    and batches its own 2m shifted frames.
    """
    if frame is None:
        frame = _frame_at(model, param, x, jac_mode, h_fd)
    if diffusion is None:
        diffusion = check_diffusion_tangency(model, param, x, frame=frame)
    state = param.eval(frame.x)
    drift = model.drift(state)
    if form == "bracket":
        proj = frame.project(_bracket_drift(param, frame, drift, diffusion.a, h_hess))
        return DriftCheck(proj.coords, proj.rel_residual, _max(diffusion.spill, proj.spill), form)
    if form == "stratonovich":
        corr = stratonovich_correction(model, state, da_mode=da_mode, h_fd=h_fd)
        w = drift - corr.value * 0.5
        proj = frame.project(w)
        # recover the reduced drift: add back half of (Da^j a^j) per component
        beta = proj.coords.copy()
        n_noise = diffusion.a.shape[0]
        if n_noise:
            # the 2m shifted chart points x +- h e_k form one batch
            offsets = h_chart * np.eye(param.m)
            shifted = check_diffusion_tangency(
                model, param, frame.x + np.concatenate([offsets, -offsets]),
                jac_mode=jac_mode, h_fd=h_fd,
            ).a
            da_dot_a = np.zeros(param.m)
            for k in range(param.m):
                # d a / d x_k, shape (n, m)
                col = (shifted[k] - shifted[param.m + k]) * (0.5 / h_chart)
                for j in range(n_noise):
                    da_dot_a += col[j] * diffusion.a[j][k]
            beta = beta + 0.5 * da_dot_a
        return DriftCheck(
            beta,
            proj.rel_residual,
            max(diffusion.spill, proj.spill),
            form,
            corr.step_disagreement,
            list(corr.warnings),
        )
    raise ValueError(f"unknown drift form {form!r}")


def reduced_coefficients(
    model,
    param: Parametrization,
    x,
    *,
    jac_mode: str = "auto",
    h_fd: float = FD_STEP_JACOBIAN,
    h_hess: float = FD_STEP_HESSIAN,
):
    """Chart-coordinate noise and drift coefficients (a, beta) at x.

    At a (P, m) batch of points a is (P, n_noise, m) and beta is (P, m);
    models without batch support are evaluated row by row.
    """
    model = as_batched(model)
    frame = _frame_at(model, param, x, jac_mode, h_fd)
    state = param.eval(frame.x)
    fields = model.diffusion(state)
    a = np.zeros(frame.x.shape[:-1] + (len(fields), param.m))
    for j, f in enumerate(fields):
        a[..., j, :] = frame.coordinates(f)
    beta = frame.coordinates(_bracket_drift(param, frame, model.drift(state), a, h_hess))
    return a, beta


# -- chart sweep and report ---------------------------------------------------


@dataclass
class TangencyReport:
    points: np.ndarray
    rho_diffusion: np.ndarray  # (S, n_noise)
    a_coords: np.ndarray  # (S, n_noise, m)
    beta: np.ndarray  # (S, m)
    rho_drift: np.ndarray  # (S,) bracket form
    rho_drift_strat: Optional[np.ndarray]
    beta_strat: Optional[np.ndarray]
    spill: np.ndarray
    thresholds: np.ndarray
    degenerate: np.ndarray
    verdict: str
    max_residual: float
    form_agreement: Optional[float]
    base_threshold: float
    spill_factor: float
    warnings: list
    metadata: dict

    def to_json_dict(self) -> dict:
        def clean(arr):
            if arr is None:
                return None
            return [
                [None if (isinstance(v, float) and math.isnan(v)) else v for v in row]
                if isinstance(row, list)
                else (None if (isinstance(row, float) and math.isnan(row)) else row)
                for row in arr.tolist()
            ]

        return {
            "points": self.points.tolist(),
            "rho_diffusion": clean(self.rho_diffusion),
            "a_coords": [clean(a) for a in self.a_coords] if self.a_coords.size else [],
            "beta": clean(self.beta),
            "rho_drift": clean(self.rho_drift),
            "rho_drift_strat": clean(self.rho_drift_strat),
            "beta_strat": clean(self.beta_strat),
            "spill": clean(self.spill),
            "thresholds": clean(self.thresholds),
            "degenerate": self.degenerate.tolist(),
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "form_agreement": self.form_agreement,
            "base_threshold": self.base_threshold,
            "spill_factor": self.spill_factor,
            "warnings": list(self.warnings),
            "metadata": self.metadata,
        }

    def to_csv_rows(self):
        m = self.points.shape[1]
        n_noise = self.rho_diffusion.shape[1]
        header = (
            ["point", *(f"x_{k}" for k in range(m)), "j", "rho_diffusion"]
            + [f"a_{k}" for k in range(m)]
            + ["rho_drift", *(f"beta_{k}" for k in range(m))]
            + ["rho_drift_strat", "spill", "threshold", "degenerate"]
        )
        rows = []
        for s in range(self.points.shape[0]):
            xs = [f"{v:.17g}" for v in self.points[s]]
            strat = (
                f"{self.rho_drift_strat[s]:.17g}" if self.rho_drift_strat is not None else ""
            )
            shared = (
                [f"{self.rho_drift[s]:.17g}"]
                + [f"{v:.17g}" for v in self.beta[s]]
                + [strat, f"{self.spill[s]:.17g}", f"{self.thresholds[s]:.17g}",
                   str(bool(self.degenerate[s]))]
            )
            if n_noise == 0:
                rows.append([str(s), *xs, "", ""] + [""] * m + shared)
                continue
            for j in range(n_noise):
                rows.append(
                    [str(s), *xs, str(j), f"{self.rho_diffusion[s, j]:.17g}"]
                    + [f"{v:.17g}" for v in self.a_coords[s, j]]
                    + shared
                )
        return header, rows


def _check_point(model, param, x, form, jac_mode, da_mode, h_fd, h_hess, tail_warn):
    record = {"x": x, "degenerate": False, "warnings": []}
    try:
        frame = _frame_at(model, param, x, jac_mode, h_fd)
    except DegenerateChartError as err:
        record["degenerate"] = True
        record["warnings"].append(str(err))
        return record
    record["warnings"].extend(frame.warnings)
    state = param.eval(frame.x)
    if getattr(state, "basis_tag", None) == HERMITE_TAG:
        tail = top_band_ratio(state)
        if tail > tail_warn:
            record["warnings"].append(
                f"chart state poorly resolved at x={x.tolist()}: top band ratio {tail:.3e}"
            )
    diff = check_diffusion_tangency(model, param, x, frame=frame)
    record["diff"] = diff
    spill = diff.spill
    if form in ("bracket", "both"):
        db = check_drift_tangency(
            model, param, x, "bracket", frame=frame, diffusion=diff, h_hess=h_hess
        )
        record["bracket"] = db
        spill = max(spill, db.spill)
    if form in ("stratonovich", "both"):
        ds = check_drift_tangency(
            model, param, x, "stratonovich", frame=frame, diffusion=diff,
            jac_mode=jac_mode, da_mode=da_mode, h_fd=h_fd,
        )
        record["strat"] = ds
        record["warnings"].extend(ds.warnings)
        spill = max(spill, ds.spill)
    record["spill"] = spill
    return record


def sweep(
    model,
    param: Parametrization,
    sampling: SamplingSpec | None = None,
    *,
    base_threshold: float = 1e-6,
    spill_factor: float = 10.0,
    form: str = "both",
    jac_mode: str = "auto",
    da_mode: str = "auto",
    h_fd: float = FD_STEP_JACOBIAN,
    h_hess: float = FD_STEP_HESSIAN,
    form_error_tol: float = 1e-2,
    tail_warn: float = 1e-3,
    metadata: dict | None = None,
) -> TangencyReport:
    """Run the tangency checks over sampled chart points and aggregate.

    The verdict is "tangent" iff every residual at every non-degenerate
    point is within max(base_threshold, spill_factor * spill at that
    point).  Degenerate points are recorded, not fatal; a sweep where
    every point degenerates raises.
    """
    sampling = sampling or SamplingSpec()
    pts = sample_points(sampling, param.domain)
    s_count, m = pts.shape

    records = [
        _check_point(model, param, x, form, jac_mode, da_mode, h_fd, h_hess, tail_warn)
        for x in pts
    ]

    n_noise = model.n_noise
    rho_diff = np.full((s_count, n_noise), np.nan)
    a_coords = np.full((s_count, n_noise, m), np.nan)
    beta = np.full((s_count, m), np.nan)
    rho_drift = np.full(s_count, np.nan)
    rho_strat = np.full(s_count, np.nan) if form in ("stratonovich", "both") else None
    beta_strat = np.full((s_count, m), np.nan) if form in ("stratonovich", "both") else None
    spill = np.zeros(s_count)
    degenerate = np.zeros(s_count, dtype=bool)
    warnings: list = []

    for s, rec in enumerate(records):
        warnings.extend(rec["warnings"])
        if rec["degenerate"]:
            degenerate[s] = True
            continue
        diff = rec["diff"]
        rho_diff[s] = diff.rho
        a_coords[s] = diff.a
        spill[s] = rec["spill"]
        if "bracket" in rec:
            rho_drift[s] = rec["bracket"].rho
            beta[s] = rec["bracket"].beta
        if "strat" in rec and rho_strat is not None:
            rho_strat[s] = rec["strat"].rho
            beta_strat[s] = rec["strat"].beta
        if "bracket" not in rec and "strat" in rec:
            rho_drift[s] = rec["strat"].rho
            beta[s] = rec["strat"].beta

    valid = ~degenerate
    if not np.any(valid):
        raise DegenerateChartError("every sampled chart point is degenerate")

    thresholds = np.maximum(base_threshold, spill_factor * spill)
    point_res = np.where(
        valid,
        np.maximum(
            rho_diff.max(axis=1, initial=0.0, where=~np.isnan(rho_diff)),
            np.nan_to_num(rho_drift, nan=0.0),
        ),
        np.nan,
    )
    max_residual = float(np.nanmax(point_res))
    tangent = bool(np.all(point_res[valid] <= thresholds[valid]))

    # The two drift forms are only equivalent where the noise fields are
    # themselves tangent, so agreement is enforced on exactly those points;
    # a deliberately off-tangent field would otherwise read as a form bug.
    form_agreement = None
    if rho_strat is not None and form == "both":
        diff_res = np.nan_to_num(rho_diff, nan=0.0).max(axis=1, initial=0.0)
        premise = valid & (diff_res <= thresholds)
        gaps = np.abs(rho_drift - rho_strat)[premise]
        if gaps.size:
            form_agreement = float(np.nanmax(gaps))
            if form_agreement > form_error_tol:
                raise FormDisagreementError(
                    f"drift forms disagree: max residual gap {form_agreement:.3e} "
                    f"exceeds {form_error_tol:.1e}; max spill {float(spill.max()):.3e}"
                )

    return TangencyReport(
        points=pts,
        rho_diffusion=rho_diff,
        a_coords=a_coords,
        beta=beta,
        rho_drift=rho_drift,
        rho_drift_strat=rho_strat,
        beta_strat=beta_strat,
        spill=spill,
        thresholds=thresholds,
        degenerate=degenerate,
        verdict=VERDICT_TANGENT if tangent else VERDICT_NOT_TANGENT,
        max_residual=max_residual,
        form_agreement=form_agreement,
        base_threshold=base_threshold,
        spill_factor=spill_factor,
        warnings=warnings,
        metadata=metadata or {},
    )
