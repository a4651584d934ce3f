"""Estimation and decision pipeline: partitioning, moment estimation of the
mean power, grid-search maximum likelihood for (K, Delta), small-sample
corrected information criterion, model selection and the g-test validation
of the selected distribution.

The pipeline mirrors the measurement workflow: envelope data are split into
a moment set (power estimate) and a fit set (shape estimate), the fit set is
normalized by the estimated root power, both the Rician restriction
(Delta = 0) and the full TWDP family are fitted on a discrete parameter
grid, the lower corrected information criterion picks the model, and a
log-likelihood-ratio goodness-of-fit test validates the winner.

Reported log-likelihoods refer to the normalized envelopes (scale-free);
they are directly comparable across the two models. No scipy loads at import:
``chi2_quantile`` imports scipy.special when called, as ``fading`` does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EstimationError, NumericalError
from .fading import K_MAX_SUPPORTED, FadingParams, _check_r, rice_cdf, twdp_cdf
from .likelihood import get_table

__all__ = [
    "EnvelopeSet",
    "GridConfig",
    "ModelFit",
    "GTestResult",
    "FitReport",
    "partition_stride",
    "partition_chequerboard",
    "estimate_omega",
    "ml_fit",
    "aicc",
    "select_model",
    "g_test",
    "chi2_quantile",
    "fit_envelopes",
]


@dataclass
class EnvelopeSet:
    """Nonnegative envelope samples with a moment/fit partition.

    ``fit_mask`` is True for samples used in shape fitting and hypothesis
    testing, False for the complementary moment-estimation set.
    """

    values: np.ndarray
    fit_mask: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.fit_mask = np.asarray(self.fit_mask, dtype=bool)
        if self.values.ndim != 1 or self.values.shape != self.fit_mask.shape:
            raise DomainError("values and fit_mask must be 1-D arrays of equal length")
        _check_r(self.values)

    @property
    def fit_values(self) -> np.ndarray:
        return self.values[self.fit_mask]

    @property
    def moment_values(self) -> np.ndarray:
        return self.values[~self.fit_mask]

    @property
    def n_fit(self) -> int:
        return int(self.fit_mask.sum())

    @property
    def n_moment(self) -> int:
        return int(len(self.values) - self.fit_mask.sum())


@dataclass(frozen=True)
class GridConfig:
    """Search grid for the (K, Delta) maximum-likelihood fit (linear K)."""

    k_min: float = 0.0
    k_max: float = 1000.0
    k_step: float = 0.05
    delta_step: float = 0.05

    def __post_init__(self):
        if self.k_step <= 0 or self.delta_step <= 0:
            raise DomainError("grid steps must be positive")
        if self.k_max <= self.k_min or self.k_min < 0:
            raise DomainError("require 0 <= k_min < k_max")
        if self.k_max > K_MAX_SUPPORTED:
            raise DomainError(f"k_max exceeds the supported cap {K_MAX_SUPPORTED:g}")
        if self.delta_step > 1.0:
            raise DomainError("delta_step must not exceed 1")

    @property
    def k_values(self) -> np.ndarray:
        n = int(math.floor((self.k_max - self.k_min) / self.k_step + 1e-9)) + 1
        return np.round(self.k_min + np.arange(n) * self.k_step, 12)

    @property
    def delta_values(self) -> np.ndarray:
        n = int(math.floor(1.0 / self.delta_step + 1e-9)) + 1
        return np.round(np.arange(n) * self.delta_step, 12)


@dataclass
class ModelFit:
    """One fitted model: grid argmax, its log-likelihood and criterion value."""

    model: str                  # "rice" | "twdp"
    k_hat: float
    delta_hat: float
    loglik: float
    aicc: float | None = None
    boundary_hit: bool = False  # argmax landed on the K grid edge


@dataclass
class GTestResult:
    statistic: float
    dof: int
    threshold: float
    verdict: str                # "accepted" | "rejected"
    n_cells: int
    alpha: float
    per_cell: int


@dataclass
class FitReport:
    """Complete outcome of the fitting pipeline for one envelope set."""

    omega_hat: float
    n_fit: int
    n_moment: int
    rice: ModelFit
    twdp: ModelFit
    chosen: str
    gtest: GTestResult
    grid: GridConfig = field(default_factory=GridConfig)
    schema_version: int = 1


# ---------------------------------------------------------------------------
# partitioning and moments
# ---------------------------------------------------------------------------

def partition_stride(values, stride: int = 10) -> EnvelopeSet:
    """Mark every stride-th sample (indices stride-1, 2*stride-1, ...) as the
    fit set; the remainder estimates the mean power."""
    arr = np.asarray(values, dtype=float)
    if stride < 2:
        raise DomainError("stride must be >= 2 (stride 1 leaves no moment set)")
    if arr.ndim != 1 or len(arr) < 2 * stride:
        raise DomainError(f"need at least {2 * stride} samples for stride {stride}")
    mask = np.zeros(len(arr), dtype=bool)
    mask[stride - 1::stride] = True
    return EnvelopeSet(arr, mask)


def partition_chequerboard(grid_shape: tuple[int, int, int]) -> np.ndarray:
    """3-D parity split; True (fit set) where ix+iy+iz is even.

    Degenerate shapes (a single point) are allowed here; downstream
    estimators reject empty classes.
    """
    nx, ny, nz = grid_shape
    if nx < 1 or ny < 1 or nz < 1:
        raise DomainError("all grid dimensions must be >= 1")
    ix, iy, iz = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    return (ix + iy + iz) % 2 == 0


def estimate_omega(envelope_set: EnvelopeSet) -> float:
    """Mean squared envelope over the moment class."""
    mom = envelope_set.moment_values
    if len(mom) == 0:
        raise DomainError("moment class is empty")
    omega = float(np.mean(mom ** 2))
    if omega <= 0:
        raise DomainError("moment set has zero mean power")
    return omega


# ---------------------------------------------------------------------------
# maximum likelihood on the grid
# ---------------------------------------------------------------------------

def ml_fit(
    envelope_set: EnvelopeSet,
    omega_hat: float,
    grid: GridConfig | None = None,
) -> tuple[ModelFit, ModelFit]:
    """Grid-search ML estimates of the Rician and TWDP parameter sets.

    Returns (rice, twdp) fits. The Rician fit is the restriction of the
    same likelihood surface to the Delta = 0 column, so
    ``twdp.loglik >= rice.loglik`` holds exactly. Ties on the surface
    resolve to the smallest K, then the smallest Delta.
    """
    grid = grid or GridConfig()
    fit = envelope_set.fit_values
    if len(fit) == 0:
        raise DomainError("fit class is empty")
    if omega_hat <= 0:
        raise DomainError("omega_hat must be positive")
    if np.any(fit == 0.0):
        raise EstimationError(
            "fit sample with zero envelope has zero density at every grid cell")
    x = fit / math.sqrt(omega_hat)
    table = get_table(grid.k_values, grid.delta_values)
    surface = table.loglik_surface(x)

    i_rice = int(np.argmax(surface[:, 0]))
    flat = int(np.argmax(surface))
    i_twdp, j_twdp = divmod(flat, surface.shape[1])
    if not np.isfinite(surface[i_twdp, j_twdp]):
        raise EstimationError(
            "some fit sample has zero density across the whole grid")

    kv, dv = table.k_values, table.deltas

    def fit_at(model: str, i: int, j: int) -> ModelFit:
        # an argmax on a K grid edge other than K = 0 is a boundary hit
        return ModelFit(model, float(kv[i]), float(dv[j]), float(surface[i, j]),
                        boundary_hit=bool(i in (0, len(kv) - 1) and kv[i] != 0.0))

    return fit_at("rice", i_rice, 0), fit_at("twdp", i_twdp, j_twdp)


def aicc(loglik: float, model_order: int, n: int) -> float:
    """Information criterion with the small-sample correction term.

    model_order is 1 for the Rician fit (K only) and 2 for TWDP (K and
    Delta); the separately estimated mean power does not count.
    """
    if model_order < 1:
        raise DomainError("model_order must be >= 1")
    if n <= model_order + 1:
        raise DomainError(f"need n > {model_order + 1} samples, got {n}")
    u = float(model_order)
    return -2.0 * loglik + 2.0 * u + 2.0 * u * (u + 1.0) / (n - u - 1.0)


def select_model(rice_aicc: float, twdp_aicc: float) -> str:
    """Model with the strictly lower criterion; ties go to the lower-order
    Rician model."""
    return "twdp" if twdp_aicc < rice_aicc else "rice"


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def _g_statistic(observed: np.ndarray, expected: np.ndarray) -> float:
    """G = 2 sum O_i ln(O_i / E_i); zero-count cells contribute nothing."""
    obs = np.asarray(observed, dtype=float)
    exp = np.asarray(expected, dtype=float)
    nz = obs > 0
    return 2.0 * float(np.sum(obs[nz] * np.log(obs[nz] / exp[nz])))


def chi2_quantile(p: float, dof: int) -> float:
    """Chi-square quantile, 2 P^-1(dof/2, p) through the inverse regularized
    lower incomplete gamma function (the form scipy's chi2.ppf evaluates),
    so the command line does not load scipy.stats."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    if dof < 1:
        raise DomainError("dof must be >= 1")
    from scipy import special
    return float(2.0 * special.gammaincinv(0.5 * dof, p))


def g_test(
    envelope_set: EnvelopeSet,
    model_fit: ModelFit,
    omega_hat: float,
    alpha: float = 0.01,
    per_cell: int = 10,
) -> GTestResult:
    """Log-likelihood-ratio goodness-of-fit test of the chosen model.

    Cells are built from the sorted fit-class envelopes so each holds
    exactly ``per_cell`` observations (the last cell absorbs the
    remainder); expected counts come from model CDF differences. The model
    loses e = 2 (Rice) or e = 3 (TWDP) degrees of freedom for the
    estimated (omega, K[, Delta]).
    """
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if per_cell < 1:
        raise DomainError("per_cell must be >= 1")
    e = 2 if model_fit.model == "rice" else 3
    fit = envelope_set.fit_values
    n = len(fit)
    if n < per_cell * (e + 2):
        raise DomainError(
            f"need at least {per_cell * (e + 2)} fit samples for the g-test, got {n}")
    if omega_hat <= 0:
        raise DomainError("omega_hat must be positive")

    x = np.sort(fit) / math.sqrt(omega_hat)
    m = n // per_cell
    edges = 0.5 * (x[per_cell * np.arange(1, m) - 1] + x[per_cell * np.arange(1, m)])
    if model_fit.model == "rice":
        cdf_at_edges = rice_cdf(edges, model_fit.k_hat, 1.0)
    else:
        cdf_at_edges = twdp_cdf(edges, FadingParams(model_fit.k_hat, model_fit.delta_hat, 1.0))
    cum = np.concatenate([[0.0], cdf_at_edges, [1.0]])
    expected = np.diff(cum) * n
    if np.any(expected <= 0.0):
        raise NumericalError("expected cell count of zero; model CDF degenerate "
                             "over a data cell")
    observed = np.full(m, float(per_cell))
    observed[-1] = n - per_cell * (m - 1)
    statistic = _g_statistic(observed, expected)
    dof = m - e
    threshold = chi2_quantile(1.0 - alpha, dof)
    verdict = "rejected" if statistic > threshold else "accepted"
    return GTestResult(statistic, dof, threshold, verdict, m, alpha, per_cell)


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def fit_envelopes(
    envelope_set: EnvelopeSet,
    grid: GridConfig | None = None,
    alpha: float = 0.01,
    per_cell: int = 10,
) -> FitReport:
    """Full decision pipeline on a pre-partitioned envelope set."""
    grid = grid or GridConfig()
    omega_hat = estimate_omega(envelope_set)
    rice, twdp = ml_fit(envelope_set, omega_hat, grid)
    n = envelope_set.n_fit
    rice.aicc = aicc(rice.loglik, 1, n)
    twdp.aicc = aicc(twdp.loglik, 2, n)
    chosen = select_model(rice.aicc, twdp.aicc)
    gres = g_test(envelope_set, rice if chosen == "rice" else twdp,
                  omega_hat, alpha=alpha, per_cell=per_cell)
    return FitReport(
        omega_hat=omega_hat,
        n_fit=n,
        n_moment=envelope_set.n_moment,
        rice=rice,
        twdp=twdp,
        chosen=chosen,
        gtest=gres,
        grid=grid,
    )
