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
they are directly comparable across the two models. ``FitReport`` and the
dataclasses it nests alone declare the report's layout and bounds. Nothing
here loads scipy: ``chi2_quantile`` inverts the regularized incomplete gamma
function with ``math`` alone, within 4e-15 relative of scipy's gammaincinv
where the g-test reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, EstimationError, NumericalError
from .fading import K_MAX_SUPPORTED, FadingParams, _check_r, twdp_cdf
from .likelihood import MAX_TABLE_BYTES, get_table, table_bytes, table_reach

__all__ = [
    "EnvelopeSet",
    "GridConfig",
    "MAX_GRID_CELLS",
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


def _freeze(obj, **converted) -> None:
    """Set a frozen dataclass's converted fields; arrays as read-only views (no copies)."""
    for name, value in converted.items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class EnvelopeSet:
    """Nonnegative envelope samples with a moment/fit partition.

    ``fit_mask`` is True for samples used in shape fitting and hypothesis
    testing, False for the complementary moment-estimation set.
    """

    values: np.ndarray
    fit_mask: np.ndarray

    def __post_init__(self):
        _freeze(self, values=np.asarray(self.values, dtype=float),
                fit_mask=np.asarray(self.fit_mask, dtype=bool))
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


# Most (K, Delta) cells a search grid may have, 24 times the default grid's
# 420,021. A fit holds about 50 bytes of surface and K-interpolation arrays
# per cell, about 0.5 GB at the cap; the density table comes on top.
MAX_GRID_CELLS = 10 ** 7


@dataclass(frozen=True)
class GridConfig:
    """Search grid for the (K, Delta) maximum-likelihood fit (linear K), of
    at most ``MAX_GRID_CELLS`` cells and a density table of at most
    ``likelihood.MAX_TABLE_BYTES``."""

    k_min: float = 0.0
    k_max: float = 1000.0
    k_step: float = 0.05
    delta_step: float = 0.05

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (0 < self.k_step < math.inf and self.delta_step > 0):
            raise DomainError("grid steps must be positive and finite")
        if not 0 <= self.k_min < self.k_max:
            raise DomainError("require 0 <= k_min < k_max")
        if not self.k_max <= K_MAX_SUPPORTED:
            raise DomainError(f"k_max exceeds the supported cap {K_MAX_SUPPORTED:g}")
        if not self.delta_step <= 1.0:
            raise DomainError("delta_step must not exceed 1")
        # counted in floats, which a huge count cannot overflow
        cells = ((self.k_max - self.k_min) / self.k_step + 1.0) * (1.0 / self.delta_step + 1.0)
        if not cells <= MAX_GRID_CELLS:
            raise DomainError(f"grid of {cells:.3g} (K, Delta) cells exceeds the cap "
                              f"of {MAX_GRID_CELLS:g}")
        table = table_bytes(self.k_values, len(self.delta_values))
        if not table <= MAX_TABLE_BYTES:
            raise DomainError(f"grid's density table of {table / 1e6:.1f} MB exceeds the cap "
                              f"of {MAX_TABLE_BYTES / 1e6:g} MB")

    @property
    def k_values(self) -> np.ndarray:
        n = int(math.floor((self.k_max - self.k_min) / self.k_step + 1e-9)) + 1
        return np.round(self.k_min + np.arange(n) * self.k_step, 12)

    @property
    def delta_values(self) -> np.ndarray:
        n = int(math.floor(1.0 / self.delta_step + 1e-9)) + 1
        return np.round(np.arange(n) * self.delta_step, 12)


# These dataclasses and GridConfig are the fit report's layout; each field's
# metadata holds the JSON-schema keywords that bound it in REPORT_SCHEMA.

@dataclass
class ModelFit:
    """One fitted model: grid argmax, its log-likelihood and criterion value."""

    model: str = field(metadata={"enum": ["rice", "twdp"]})
    k_hat: float = field(metadata={"minimum": 0})
    delta_hat: float = field(metadata={"minimum": 0, "maximum": 1})
    loglik: float
    # None until fit_envelopes sets it; a written report always has it
    aicc: float | None = field(default=None, metadata={"type": "number"})
    boundary_hit: bool = False  # argmax landed on the K grid edge


@dataclass
class GTestResult:
    statistic: float
    dof: int = field(metadata={"minimum": 1})
    threshold: float
    verdict: str = field(metadata={"enum": ["accepted", "rejected"]})
    n_cells: int = field(metadata={"minimum": 1})
    alpha: float
    per_cell: int = field(metadata={"minimum": 1})


@dataclass
class FitReport:
    """Complete outcome of the fitting pipeline for one envelope set."""

    schema_version: int = field(default=1, kw_only=True, metadata={"const": 1})
    omega_hat: float = field(metadata={"exclusiveMinimum": 0})
    n_fit: int = field(metadata={"minimum": 1})
    n_moment: int = field(metadata={"minimum": 1})
    rice: ModelFit
    twdp: ModelFit
    chosen: str = field(metadata={"enum": ["rice", "twdp"]})
    gtest: GTestResult
    grid: GridConfig = field(default_factory=GridConfig)


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
    """Mean squared envelope over the moment class; a mean power that is not
    a finite normal double is a DomainError. Where the plain mean is not one
    (its squares or their sum overflow or underflow), it is taken again on
    the values scaled by an exact power of two, so only the mean itself
    must lie in the double range."""
    mom = envelope_set.moment_values
    if len(mom) == 0:
        raise DomainError("moment class is empty")
    normal = np.finfo(float)
    with np.errstate(over="ignore", under="ignore"):
        omega = float(np.mean(mom ** 2))
        if not normal.tiny <= omega <= normal.max and mom.any():
            exponent = math.frexp(float(mom.max()))[1]
            omega = float(np.ldexp(np.mean(np.ldexp(mom, -exponent) ** 2), 2 * exponent))
    if not normal.tiny <= omega <= normal.max:
        if not mom.any():
            raise DomainError("moment set has zero mean power")
        raise DomainError(f"moment set mean power {omega:g} lies outside the normal double "
                          f"range [{normal.tiny:g}, {normal.max:g}]; rescale the envelopes")
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
    # only the envelope columns x reads are built
    table = get_table(grid.k_values, grid.delta_values, x_max=table_reach(x))
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


def _stirlerr(a: float) -> float:
    """ln Gamma(a + 1) - ((a + 1/2) ln a - a + ln sqrt(2 pi)) at a > 0: by
    lgamma up to 15, by Stirling's series above (Loader 2000)."""
    if a <= 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    aa = a * a
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / 1188 / aa) / aa) / aa) / aa) / a


def _gamma_tails(a: float, x: float) -> tuple[float, float, float, float]:
    """ln P(a, x) and ln Q(a, x), the regularized lower and upper incomplete
    gamma functions at x > 0, and the hazards f/P and f/Q of the Gamma(a)
    density f at x. The power series gives P below x = a + 1 and Lentz's
    continued fraction gives Q above (Numerical Recipes 6.2); both scale
    x^a e^-x / Gamma(a + 1), taken in Loader's saddle-point form, so neither
    loses digits to a ln Gamma of size a ln a."""
    u = (x - a) / a
    deviance = (x - a) - a * (math.log1p(u) if u > -0.5 else math.log(x / a))
    log_front = -_stirlerr(a) - deviance - 0.5 * math.log(2.0 * math.pi * a)
    if x < a + 1.0:
        term = total = 1.0
        n = a
        while term > 2.0 ** -56 * total:
            n += 1.0
            term *= x / n
            total += term
        log_p = log_front + math.log(total)
        p = math.exp(log_p)
        return log_p, math.log1p(-p), a / (x * total), math.exp(log_front) * a / (x * (1.0 - p))
    tiny = 1e-300
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 10 ** 5):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= 2.0 ** -53:
            break
    log_q = log_front + math.log(a * h)
    q = math.exp(log_q)
    return math.log1p(-q), log_q, math.exp(log_front) * a / (x * (1.0 - q)), 1.0 / (x * h)


def chi2_quantile(p: float, dof: int) -> float:
    """Chi-square quantile, 2 P^-1(dof/2, p) for the regularized lower
    incomplete gamma P, without scipy: Halley steps on ln P (ln Q above
    p = 1/2, so the upper tail keeps its digits) from a Wilson-Hilferty
    start, until a step falls below 2^-40 of x. Within 4e-15 relative of
    scipy's 2 gammaincinv(dof/2, p) for dof 1-1e5 and p from 1/2 to
    1 - 1e-6."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile level must lie in (0, 1)")
    if dof < 1:
        raise DomainError("dof must be >= 1")
    a = 0.5 * dof
    upper = p > 0.5
    log_target = math.log1p(-p) if upper else math.log(p)
    # the normal quantile to 4.5e-4 (Abramowitz & Stegun 26.2.23), enough to
    # start from; statistics.NormalDist would cost a fresh process 1.6 ms
    t = math.sqrt(-2.0 * log_target)
    z = t - (2.515517 + t * (0.802853 + t * 0.010328)) / (
        1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308)))
    c = 2.0 / (9.0 * dof)
    base = 1.0 - c + (z if upper else -z) * math.sqrt(c)
    # far in the lower tail the cube fails; there P ~ x^a / Gamma(a + 1)
    x = a * base ** 3 if base > 0.1 else math.exp((math.log(p) + math.lgamma(a + 1.0)) / a)
    for _ in range(60):
        if x == 0.0:
            return 0.0
        log_p, log_q, hazard_p, hazard_q = _gamma_tails(a, x)
        g = (log_q if upper else log_p) - log_target
        slope = -hazard_q if upper else hazard_p
        newton = g / slope
        # g''/g' = f'/f - g' with f'/f = (a - 1)/x - 1
        halley = 1.0 - 0.5 * newton * ((a - 1.0) / x - 1.0 - slope)
        step = newton / halley if halley > 0.5 else newton
        x_new = x - step if x - step > 0.0 else 0.5 * x
        # Halley converges cubically: a step this small leaves an error far
        # below rounding, and smaller ones only follow the noise of ln P
        if abs(x_new - x) <= 2.0 ** -40 * x_new:
            return 2.0 * x_new
        x = x_new
    raise NumericalError(f"chi-square quantile not converged for p={p}, dof={dof}")


def _check_test_options(alpha: float, per_cell: int) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie in (0, 1)")
    if per_cell < 1:
        raise DomainError("per_cell must be >= 1")


def g_test(
    envelope_set: EnvelopeSet,
    model_fit: ModelFit,
    omega_hat: float,
    alpha: float = 0.01,
    per_cell: int = 10,
) -> GTestResult:
    """Log-likelihood-ratio goodness-of-fit test of the chosen model.

    The sorted fit-class envelopes are cut every ``per_cell`` samples, each
    cut moved up to the next change of value (tied, quantized samples share
    a cell), and a cut fewer than ``per_cell`` after the last kept cut or
    above ``n - per_cell`` is dropped: every edge lies midway between two
    distinct values, every cell holds at least ``per_cell`` samples, and
    tie-free data keep equal-count cells. Expected counts come from
    differences of the TWDP CDF at the fitted (K, Delta); a Rice fit has
    Delta = 0, where that CDF is the Rician one. The model loses e = 2
    (Rice) or e = 3 (TWDP) degrees of freedom for the estimated
    (omega, K[, Delta]); fewer than e + 2 cells raise ``DomainError``.
    """
    _check_test_options(alpha, per_cell)
    e = 2 if model_fit.model == "rice" else 3
    fit = envelope_set.fit_values
    n = len(fit)
    if n < per_cell * (e + 2):
        raise DomainError(
            f"need at least {per_cell * (e + 2)} fit samples for the g-test, got {n}")
    if omega_hat <= 0:
        raise DomainError("omega_hat must be positive")

    x = np.sort(fit) / math.sqrt(omega_hat)
    # the first change of value at or after each equal-count cut (n if none)
    rises = np.append(np.flatnonzero(np.diff(x) > 0.0) + 1, n)
    kept = [0]
    for cut in rises[np.searchsorted(rises, per_cell * np.arange(1, n // per_cell))].tolist():
        if cut - kept[-1] >= per_cell and cut <= n - per_cell:
            kept.append(cut)
    cuts = np.array(kept[1:], dtype=np.int64)
    m = len(cuts) + 1
    if m < e + 2:
        raise DomainError(f"{m} g-test cells between distinct values; need {e + 2}")
    edges = 0.5 * (x[cuts - 1] + x[cuts])
    cdf_at_edges = twdp_cdf(edges, FadingParams(model_fit.k_hat, model_fit.delta_hat, 1.0))
    cum = np.concatenate([[0.0], cdf_at_edges, [1.0]])
    expected = np.diff(cum) * n
    if np.any(expected <= 0.0):
        raise NumericalError("expected cell count of zero; model CDF degenerate "
                             "over a data cell")
    observed = np.diff(cuts, prepend=0, append=n).astype(float)
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
    """Full decision pipeline on a pre-partitioned envelope set. The g-test
    options are checked first, before the density table is built."""
    _check_test_options(alpha, per_cell)
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
