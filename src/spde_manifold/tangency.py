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
The checks take the caller's frame and return numbers per point (only
the stratonovich form builds frames, at the shifted points x +- h e_k);
the sweep alone writes the report's notes from those numbers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .hermite import SpectralState, top_band_ratio
from .manifold import (
    DegenerateChartError,
    Parametrization,
    TangentFrame,
    block_frame,
    bracket,
)
from .models import stratonovich_correction

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
FORMS = ("bracket", "stratonovich", "both")
FD_STEP_CHART = 1e-4  # step of the chart derivative of the noise coordinates
TAIL_WARN = 1e-3  # top band ratio above which a chart state warns
COND_WARN = 1e12  # Gram condition number above which a frame warns
FD_SENSITIVITY_TOL = 1e-5  # step disagreement above which the fd correction warns

# The sweep checks its points, and the coupled comparison solves its chart
# distances, in blocks whose batched state holds about this many float64
# entries (252 rows at Hermite N=64, 64 rows on a 256-point grid): every
# layer runs once per block, while peak memory stays that of a small batch.
SWEEP_BLOCK_ENTRIES = 2 ** 14


def row_blocks(rows: np.ndarray, geometry):
    """``rows`` in consecutive blocks whose states hold about ``SWEEP_BLOCK_ENTRIES`` entries."""
    size = max(1, SWEEP_BLOCK_ENTRIES // geometry.flat(geometry.zero_state()).size)
    return (rows[k : k + size] for k in range(0, rows.size, size))


def repr_words(*arrays) -> list:
    """Each array's floats as repr text, which round-trips exactly, in str object arrays.

    Each distinct float64 bit pattern over all the arrays is formatted once and
    gathered back, so -0.0 stays apart from 0.0 and every NaN reads ``nan``.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    bits, where = np.unique(flat.view(np.int64), return_inverse=True)
    words = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    ends = np.cumsum([a.size for a in arrays])[:-1]
    return [w.reshape(a.shape) for w, a in zip(np.split(words[where.ravel()], ends), arrays)]


def int_words(count: int) -> np.ndarray:
    """The str object array "0", "1", ..., of the first ``count`` integers."""
    return np.arange(count).astype(str).astype(object)


# json's text for the non-finite words of a NaN-cleaned array
_JSON_SPECIAL = {"nan": "null", "inf": "Infinity", "-inf": "-Infinity"}


def _json_list(values: np.ndarray, words: np.ndarray) -> str:
    """Compact JSON of ``values`` as nested lists, from their repr ``words`` (NaN as null)."""
    if not words.size:
        return json.dumps(values.tolist(), separators=(",", ":"))
    words = words.copy()
    odd = ~np.isfinite(values)
    if odd.any():
        words[odd] = [_JSON_SPECIAL[w] for w in words[odd]]
    # each list opens at the first word of its block and closes at the last,
    # so the words join with commas alone: "[[1", "2]", "[3", "4]]"
    for axis in range(words.ndim):
        lead = (slice(None),) * axis
        first, last = lead + (0,) * (words.ndim - axis), lead + (-1,) * (words.ndim - axis)
        words[first] = "[" + words[first]
        words[last] = words[last] + "]"
    return ",".join(words.ravel().tolist())


class InvalidSamplingError(ValueError):
    """The sampling request produced no usable chart points."""


class FormDisagreementError(RuntimeError):
    """The two drift forms disagree beyond tolerance (bug or truncation breakdown)."""


# -- chart sampling ----------------------------------------------------------


@dataclass(frozen=True)
class SamplingSpec:
    """How to pick chart points: a lattice for m <= 2, Halton above that.

    ``margin_frac`` shrinks the box slightly so finite-difference stencils
    stay interior.  Explicit ``points``, one (m,) point or a finite (k, m)
    array, override everything else.
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
    m = domain.shape[0]
    if spec.points is not None:
        try:
            pts = np.asarray(spec.points, dtype=float)
        except (TypeError, ValueError) as err:
            raise InvalidSamplingError(f"explicit points are not a numeric array: {err}") from err
        if pts.size == 0:
            raise InvalidSamplingError("explicit point list is empty")
        pts = pts[None] if pts.shape == (m,) else pts
        if pts.ndim != 2 or pts.shape[1] != m:
            raise InvalidSamplingError(
                f"explicit points must be one point of {m} coordinates or a (k, {m}) "
                f"array, got shape {np.shape(spec.points)}"
            )
        if not np.isfinite(pts).all():
            raise InvalidSamplingError("explicit points must be finite")
        return pts
    if spec.points_per_axis < 1:
        raise InvalidSamplingError("points_per_axis must be at least 1")
    if not 0.0 <= spec.margin_frac < 0.5:
        raise InvalidSamplingError(f"margin_frac must be in [0, 0.5), got {spec.margin_frac!r}")
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


# -- pointwise checks ----------------------------------------------------------


@dataclass
class DiffusionCheck:
    """At a (P, m) batch of points every field gains a leading path axis."""

    a: np.ndarray  # (n_noise, m) tangent coordinates per noise component
    rho: np.ndarray  # (n_noise,) relative normal residuals
    spill: float


@dataclass
class DriftCheck:
    beta: np.ndarray
    rho: float
    spill: float
    form: str
    step_disagreement: float = 0.0
    degenerate: dict = field(default_factory=dict)  # row -> rank message of a shifted frame


def check_diffusion_tangency(model, param: Parametrization, frame: TangentFrame) -> DiffusionCheck:
    """Project every diffusion component at the frame's image phi(frame.x) onto the frame."""
    fields = model.diffusion(frame.image)
    n = len(fields)
    batch = frame.x.shape[:-1]
    a = np.zeros(batch + (n, param.m))
    rho = np.zeros(batch + (n,))
    spill = 0.0
    for j, f in enumerate(fields):
        proj = frame.project(f)
        a[..., j, :] = proj.coords
        rho[..., j] = proj.rel_residual
        spill = np.maximum(spill, proj.spill)
    return DiffusionCheck(a, rho, spill)


def _bracket_drift(param, frame, drift, a):
    """Drift minus half the chart-Hessian contraction of each noise coordinate."""
    terms = [(drift, 1.0)]
    for j in range(a.shape[-2]):
        aj = a[..., j, :]
        if aj.any():
            terms.append((bracket(param, frame.x, aj, aj), -0.5))
    return type(drift).combine(terms) if len(terms) > 1 else drift


def _noise_coords(model, frame) -> np.ndarray:
    """Frame coordinates (..., n_noise, m) of the diffusion fields at the frame's image."""
    fields = model.diffusion(frame.image)
    a = np.zeros(frame.x.shape[:-1] + (len(fields), frame.m))
    for j, f in enumerate(fields):
        a[..., j, :] = frame.coordinates(f)
    return a


def _shifted_coords(model, param, x, jac_mode):
    """Noise coordinates at the rows of x (B, m) on frames of their own:
    NaN at a row whose frame degenerates, whose rank message is kept."""
    kept, frame, dropped = block_frame(param, x, model.geometry, mode=jac_mode)
    a = np.full((x.shape[0], model.n_noise, param.m), np.nan)
    if kept.size:
        a[kept] = _noise_coords(model, frame)
    return a, dropped


def check_drift_tangency(
    model,
    param: Parametrization,
    frame: TangentFrame,
    form: str = "bracket",
    *,
    diffusion: DiffusionCheck | None = None,
    jac_mode: str = "auto",
    da_mode: str = "auto",
) -> DriftCheck:
    """Residual of the corrected drift against the tangent frame.

    ``form`` "bracket" subtracts half the chart-Hessian contraction of
    the diffusion coordinates; "stratonovich" subtracts half the
    diffusion-derivative correction and recovers the same reduced drift
    through the chart-derivative decomposition, from frames built (with
    ``jac_mode``) at the shifted points x +- h e_k.  A frame
    at a (P, m) batch of points gives answers per point.
    """
    if diffusion is None:
        diffusion = check_diffusion_tangency(model, param, frame)
    drift = model.drift(frame.image)
    if form == "bracket":
        proj = frame.project(_bracket_drift(param, frame, drift, diffusion.a))
        spill = np.maximum(diffusion.spill, proj.spill)
        return DriftCheck(proj.coords, proj.rel_residual, spill, form)
    if form == "stratonovich":
        corr = stratonovich_correction(model, frame.image, da_mode=da_mode)
        w = drift - corr.value * 0.5
        proj = frame.project(w)
        # recover the reduced drift: add back half of (Da^j a^j) per component
        beta = proj.coords
        degenerate = {}
        if diffusion.a.shape[-2]:
            # d a / d x_k from the shifted points x +- h e_k, one direction at a time
            x = frame.x.reshape(-1, param.m)
            da_dot_a = 0.0
            for k in range(param.m):
                step = np.zeros(param.m)
                step[k] = FD_STEP_CHART
                plus, lost_plus = _shifted_coords(model, param, x + step, jac_mode)
                minus, lost_minus = _shifted_coords(model, param, x - step, jac_mode)
                degenerate = {**lost_minus, **lost_plus, **degenerate}  # first message wins
                col = (plus - minus).reshape(diffusion.a.shape) * (0.5 / FD_STEP_CHART)
                da_dot_a = da_dot_a + np.einsum("...jl,...j->...l", col, diffusion.a[..., k])
            beta = beta + 0.5 * da_dot_a
        return DriftCheck(
            beta,
            proj.rel_residual,
            np.maximum(diffusion.spill, proj.spill),
            form,
            corr.step_disagreement,
            degenerate,
        )
    raise ValueError(f"unknown drift form {form!r}")


def reduced_coefficients(model, param: Parametrization, frame: TangentFrame):
    """Chart-coordinate noise and drift coefficients (a, beta) at frame.x.

    At a (P, m) batch of points a is (P, n_noise, m) and beta is (P, m).
    """
    a = _noise_coords(model, frame)
    beta = frame.coordinates(_bracket_drift(param, frame, model.drift(frame.image), a))
    return a, beta


# -- chart sweep and report ---------------------------------------------------


# the report's float array fields, in ``to_json_dict`` order
_FLOAT_FIELDS = (
    "points", "rho_diffusion", "a_coords", "beta", "rho_drift", "rho_drift_strat",
    "beta_strat", "spill", "thresholds",
)


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
    max_step_disagreement: float = 0.0  # largest fd step disagreement; 0 when analytic

    @cached_property
    def _words(self) -> dict:
        """repr words of every float array field, by name, from one ``repr_words`` pass.

        Formatted on first use, which both artifacts share; a report's arrays
        do not change after its sweep.
        """
        arrays = {name: getattr(self, name) for name in _FLOAT_FIELDS}
        arrays = {name: a for name, a in arrays.items() if a is not None}
        return dict(zip(arrays, repr_words(*arrays.values())))

    def _json_fields(self) -> dict:
        """The JSON fields other than the float arrays."""
        return {
            "degenerate": self.degenerate.tolist(),
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "form_agreement": self.form_agreement,
            "base_threshold": self.base_threshold,
            "spill_factor": self.spill_factor,
            "warnings": list(self.warnings),
            "metadata": self.metadata,
        }

    def to_json_dict(self) -> dict:
        def clean(arr):  # nested lists with NaN as None
            if arr is None:
                return None
            nan = np.isnan(arr)
            return np.where(nan, None, arr.astype(object)).tolist() if nan.any() else arr.tolist()

        doc = {name: clean(getattr(self, name)) for name in _FLOAT_FIELDS}
        if not self.a_coords.size:
            doc["a_coords"] = []
        return {**doc, **self._json_fields()}

    def to_json_text(self) -> str:
        """``to_json_dict`` as compact JSON with sorted keys; its arrays joined from ``_words``."""
        text = {name: "null" for name in _FLOAT_FIELDS}
        text.update((name, _json_list(getattr(self, name), w)) for name, w in self._words.items())
        if not self.a_coords.size:
            text["a_coords"] = "[]"
        for name, value in self._json_fields().items():
            text[name] = json.dumps(value, sort_keys=True, separators=(",", ":"))
        return "{" + ",".join(f"{json.dumps(k)}:{text[k]}" for k in sorted(text)) + "}"

    def to_csv_rows(self):
        """Header and one row per point and noise component (one per point without noise)."""
        s_count, m = self.points.shape
        n_noise = self.rho_diffusion.shape[1]
        header = (
            ["point", *(f"x_{k}" for k in range(m)), "j", "rho_diffusion"]
            + [f"a_{k}" for k in range(m)]
            + ["rho_drift", *(f"beta_{k}" for k in range(m))]
            + ["rho_drift_strat", "spill", "threshold", "degenerate"]
        )
        w = self._words
        blank = np.full(s_count, "", dtype=object)
        lead = np.column_stack([int_words(s_count), w["points"]])
        tail = np.column_stack([
            w["rho_drift"], w["beta"], w.get("rho_drift_strat", blank), w["spill"], w["thresholds"],
            np.where(self.degenerate, "True", "False").astype(object),
        ])
        if n_noise:  # a point's own cells repeat on each of its noise-component rows
            own = np.column_stack([
                np.tile(int_words(n_noise), s_count), w["rho_diffusion"].ravel(),
                w["a_coords"].reshape(-1, m),
            ])
            lead, tail = lead.repeat(n_noise, axis=0), tail.repeat(n_noise, axis=0)
        else:
            own = np.full((s_count, m + 2), "", dtype=object)
        return header, np.concatenate([lead, own, tail], axis=1).tolist()


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
    form_error_tol: float = 1e-2,
    metadata: dict | None = None,
) -> TangencyReport:
    """Run the tangency checks over sampled chart points and aggregate.

    The points are checked in blocks of ``SWEEP_BLOCK_ENTRIES`` state
    entries, each block as one batch; every result is per point, so the
    block size changes no number.  The verdict is "tangent" iff every
    residual at every non-degenerate point is within
    max(base_threshold, spill_factor * spill at that point).  A point
    whose frame, or a shifted stratonovich frame, degenerates is recorded
    with NaN fields and its rank message, not fatal; a sweep where every
    point degenerates raises.  Each point's notes follow in check order.
    """
    if form not in FORMS:
        raise ValueError(f"form must be one of {'/'.join(FORMS)}, got {form!r}")
    sampling = sampling or SamplingSpec()
    pts = sample_points(sampling, param.domain)
    s_count, m = pts.shape
    geo = model.geometry
    strat = form in ("stratonovich", "both")

    n_noise = model.n_noise
    rho_diff = np.full((s_count, n_noise), np.nan)
    a_coords = np.full((s_count, n_noise, m), np.nan)
    beta = np.full((s_count, m), np.nan)
    rho_drift = np.full(s_count, np.nan)
    rho_strat = np.full(s_count, np.nan) if strat else None
    beta_strat = np.full((s_count, m), np.nan) if strat else None
    spill = np.zeros(s_count)
    step_disagreement = np.zeros(s_count)
    degenerate = np.zeros(s_count, dtype=bool)
    notes = [[] for _ in range(s_count)]  # warnings per point, in check order

    for idx in row_blocks(np.arange(s_count), geo):
        kept, frame, dropped = block_frame(param, pts[idx], geo, mode=jac_mode)
        for k, note in dropped.items():
            degenerate[idx[k]] = True
            notes[idx[k]].append(note)
        if not kept.size:
            continue
        rows = idx[kept]
        # a chart with constant columns has one frame, and one cond, for every row
        cond = np.broadcast_to(frame.cond, rows.shape)
        for k in np.flatnonzero(cond > COND_WARN):
            notes[rows[k]].append(
                f"ill-conditioned tangent Gram matrix at x={pts[rows[k]].tolist()}: "
                f"cond={cond[k]:.3e}"
            )
        if isinstance(frame.image, SpectralState):
            tail = np.broadcast_to(top_band_ratio(frame.image), rows.shape)
            for k in np.flatnonzero(tail > TAIL_WARN):
                notes[rows[k]].append(
                    f"chart state poorly resolved at x={pts[rows[k]].tolist()}: "
                    f"top band ratio {tail[k]:.3e}"
                )
        diff = check_diffusion_tangency(model, param, frame)
        rho_diff[rows] = diff.rho
        a_coords[rows] = diff.a
        block_spill = diff.spill
        if form != "stratonovich":
            db = check_drift_tangency(model, param, frame, "bracket", diffusion=diff)
            rho_drift[rows], beta[rows] = db.rho, db.beta
            block_spill = np.maximum(block_spill, db.spill)
        if strat:
            ds = check_drift_tangency(model, param, frame, "stratonovich", diffusion=diff,
                                      jac_mode=jac_mode, da_mode=da_mode)
            rho_strat[rows], beta_strat[rows] = ds.rho, ds.beta
            if form == "stratonovich":
                rho_drift[rows], beta[rows] = ds.rho, ds.beta
            step_disagreement[rows] = sd = np.broadcast_to(ds.step_disagreement, rows.shape)
            for k in np.flatnonzero(sd > FD_SENSITIVITY_TOL):
                notes[rows[k]].append(
                    "directional difference is step-sensitive: halving the step moved "
                    f"the correction by a relative {sd[k]:.3e}"
                )
            for k, note in ds.degenerate.items():
                degenerate[rows[k]] = True
                notes[rows[k]].append(note)
            block_spill = np.maximum(block_spill, ds.spill)
        spill[rows] = block_spill
    warnings = [note for point in notes for note in point]
    # a point degenerate in a shifted frame keeps no numbers, like any other
    for values in (rho_diff, a_coords, beta, rho_drift, rho_strat, beta_strat):
        if values is not None:
            values[degenerate] = np.nan
    spill[degenerate] = step_disagreement[degenerate] = 0.0

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
        max_step_disagreement=float(step_disagreement.max()),
    )
