"""Step functions on dyadic windows and their Haar calculus.

Functions are constant on the leaf cells of a :class:`~dyadlab.dyadic.DyadicSystem`
and take values in ``R^d``.  Two arithmetic modes share one code path: float64
arrays for norm work, and object arrays holding ``Fraction`` / ``Sqrt2Rational``
entries when identities are to be checked exactly.

The Haar function of a non-leaf interval ``I`` is ``|I|**-0.5`` on the left
half and ``-|I|**-0.5`` on the right half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .dyadic import DyadicError, children
from .exact import sqrt2_pow

__all__ = [
    "SpaceSpec",
    "StepFunction",
    "KernelSpec",
    "hilbert_kernel",
    "average",
    "haar_coeff",
    "haar_expand",
    "haar_reconstruct",
    "lp_norm",
    "pairing_integral",
    "pointwise_product",
    "random_step_function",
]


@dataclass(frozen=True)
class SpaceSpec:
    """Exponents and target-space data for L^p(R; l^q(R^d)) norms.

    ``beta_ref`` is the reference unconditionality constant used by norm
    experiments; for scalar targets (``d == 1``) it defaults to
    ``max(p, p/(p-1)) - 1`` and for ``d > 1`` it must be supplied explicitly
    or left ``None`` (raw norms are then reported without a reference line).
    """

    p: float
    q: float = 2.0
    d: int = 1
    beta_ref: float | None = None

    def __post_init__(self):
        if not (1.0 < self.p < math.inf):
            raise DyadicError(f"p must lie in (1, inf), got {self.p}")
        if not (1.0 < self.q < math.inf):
            raise DyadicError(f"q must lie in (1, inf), got {self.q}")
        if self.d < 1:
            raise DyadicError("d must be a positive integer")
        if self.beta_ref is None and self.d == 1:
            object.__setattr__(self, "beta_ref", max(self.p, self.p_dual) - 1.0)

    @property
    def p_dual(self):
        return self.p / (self.p - 1.0)

    @property
    def q_dual(self):
        return self.q / (self.q - 1.0)

    def dual(self):
        return SpaceSpec(p=self.p_dual, q=self.q_dual, d=self.d,
                         beta_ref=self.beta_ref)


class StepFunction:
    """A function constant on the leaf cells of a dyadic window."""

    def __init__(self, system, values):
        values = np.asarray(values)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] != system.n_leaves:
            raise DyadicError(
                f"values shape {values.shape} does not match "
                f"{system.n_leaves} leaves")
        if values.dtype != object:
            values = values.astype(float)
        self.system = system
        self.values = values

    # -- construction ----------------------------------------------------

    @classmethod
    def from_callable(cls, system, func):
        """Sample ``func`` at leaf midpoints (float mode)."""
        mids = np.array([float(leaf.midpoint) for leaf in system.leaves()])
        vals = np.asarray([func(x) for x in mids], dtype=float)
        return cls(system, vals)

    @classmethod
    def constant(cls, system, value, d=1, exact=False):
        if exact:
            vals = np.empty((system.n_leaves, d), dtype=object)
            vals[:] = Fraction(value)
        else:
            vals = np.full((system.n_leaves, d), float(value))
        return cls(system, vals)

    # -- basic properties ------------------------------------------------

    @property
    def depth(self):
        return self.system.depth

    @property
    def d(self):
        return self.values.shape[1]

    @property
    def exact(self):
        return self.values.dtype == object

    @property
    def n_cells(self):
        return self.values.shape[0]

    def copy(self):
        return StepFunction(self.system, self.values.copy())

    def as_float(self):
        if not self.exact:
            return self
        return StepFunction(self.system,
                            np.vectorize(float)(self.values).astype(float))

    # -- arithmetic ------------------------------------------------------

    def _binary(self, other, op):
        if isinstance(other, StepFunction):
            if other.system != self.system:
                raise DyadicError("operands live on different systems")
            return StepFunction(self.system, op(self.values, other.values))
        return StepFunction(self.system, op(self.values, other))

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __mul__(self, scalar):
        return StepFunction(self.system, self.values * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return StepFunction(self.system, -self.values)

    def __eq__(self, other):
        if not isinstance(other, StepFunction):
            return NotImplemented
        return (self.system == other.system
                and self.values.shape == other.values.shape
                and bool(np.all(self.values == other.values)))

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "system": self.system.to_json_dict(),
            "depth": self.depth,
            "d": self.d,
            "values": [[float(v) for v in row] for row in self.values],
        }

    @classmethod
    def from_json_dict(cls, data):
        from .dyadic import DyadicSystem
        system = DyadicSystem.from_json_dict(data["system"])
        vals = np.asarray(data["values"], dtype=float)
        return cls(system, vals)


# -- Haar calculus -------------------------------------------------------


def average(f, interval):
    """Mean value of ``f`` over ``interval`` (exact in exact mode)."""
    lo, hi = interval.leaf_span
    total = f.values[lo:hi].sum(axis=0)
    count = hi - lo
    if f.exact:
        return np.array([v / count for v in total], dtype=object)
    return total / count


def haar_coeff(f, interval):
    """Inner product of ``f`` with the Haar function of ``interval``.

    Equals ``sqrt(|I|)/2 * (mean over left half - mean over right half)``.
    """
    left, right = children(interval)
    diff = average(f, left) - average(f, right)
    if f.exact:
        scale = sqrt2_pow(f.system.M - interval.level) / 2
        return np.array([scale * v for v in diff], dtype=object)
    scale = math.sqrt(float(interval.length)) / 2.0
    return scale * diff


def haar_profile(f_or_system, interval, exact=False):
    """Leaf-cell values of the Haar function of ``interval``.

    Returns a length ``n_leaves`` vector that is ``|I|**-0.5`` on the left
    half of ``interval``, the negative of that on the right half and zero
    elsewhere.
    """
    system = getattr(f_or_system, "system", f_or_system)
    left, right = children(interval)
    if exact:
        out = np.zeros(system.n_leaves, dtype=object)
        amp = sqrt2_pow(interval.level - system.M)
    else:
        out = np.zeros(system.n_leaves)
        amp = 1.0 / math.sqrt(float(interval.length))
    lo, hi = left.leaf_span
    out[lo:hi] = amp
    lo, hi = right.leaf_span
    out[lo:hi] = -amp
    return out


def haar_expand(f):
    """Full expansion ``(window mean, {address: coefficient vector})``."""
    mean = average(f, f.system.root)
    coeffs = {}
    for interval in f.system.nonleaf_intervals():
        coeffs[interval.address] = haar_coeff(f, interval)
    return mean, coeffs


def haar_reconstruct(system, mean, coeffs, exact=False):
    """Rebuild a step function from its window mean and Haar coefficients.

    ``coeffs`` must cover exactly the non-leaf intervals of the window; a
    missing or unknown address raises ``DyadicError``.
    """
    expected = {iv.address for iv in system.nonleaf_intervals()}
    got = set(coeffs)
    if got != expected:
        missing, extra = expected - got, got - expected
        raise DyadicError(
            f"coefficient cover mismatch: missing {sorted(missing)[:4]}, "
            f"unknown {sorted(extra)[:4]}")
    mean = np.asarray(mean, dtype=object if exact else float)
    if mean.ndim == 0:
        mean = mean[None]
    d = mean.shape[0]
    if exact:
        vals = np.empty((system.n_leaves, d), dtype=object)
        for i in range(system.n_leaves):
            for j in range(d):
                vals[i, j] = mean[j]
    else:
        vals = np.tile(np.asarray(mean, dtype=float), (system.n_leaves, 1))
    for address, cvec in coeffs.items():
        interval = system.interval(*address)
        cvec = np.asarray(cvec, dtype=object if exact else float)
        if cvec.ndim == 0:
            cvec = cvec[None]
        left, right = children(interval)
        if exact:
            amp = sqrt2_pow(interval.level - system.M)
            for half, sign in ((left, 1), (right, -1)):
                lo, hi = half.leaf_span
                for i in range(lo, hi):
                    for j in range(d):
                        vals[i, j] = vals[i, j] + sign * amp * cvec[j]
        else:
            profile = haar_profile(system, interval, exact=False)
            vals += np.outer(profile, cvec)
    return StepFunction(system, vals)


# -- norms and pairings --------------------------------------------------


def lp_norm(f, space):
    """Mixed norm ``( sum_cells width * |value|_q^p )**(1/p)`` (float)."""
    vals = np.abs(np.asarray(f.as_float().values, dtype=float))
    inner = (vals ** space.q).sum(axis=1) ** (1.0 / space.q)
    w = float(f.system.leaf_width)
    return float((w * inner ** space.p).sum() ** (1.0 / space.p))


def pairing_integral(f, g):
    """``integral of <f(t), g(t)> dt`` over the window (exact in exact mode)."""
    if f.system != g.system:
        raise DyadicError("pairing requires a common system")
    if f.d != g.d:
        raise DyadicError(f"dimension mismatch {f.d} != {g.d}")
    if f.exact and g.exact:
        w = Fraction(2) ** (f.system.M - f.system.depth)
        total = 0
        for row_f, row_g in zip(f.values, g.values):
            for a, b in zip(row_f, row_g):
                total = total + a * b
        return total * w
    ff, gg = f.as_float(), g.as_float()
    w = float(f.system.leaf_width)
    return float(w * (ff.values * gg.values).sum())


def pointwise_product(phi, f):
    """Pointwise product of a scalar step function with ``f``."""
    if phi.system != f.system:
        raise DyadicError("operands live on different systems")
    if phi.d != 1:
        raise DyadicError("left factor must be scalar valued")
    return StepFunction(f.system, phi.values * f.values)


# -- test signals --------------------------------------------------------


def random_step_function(system, seed, d=1, exact=False, vmax=4, denom_exp=3):
    """Random leaf values; dyadic rationals in exact mode, uniform otherwise."""
    rng = np.random.default_rng(seed)
    if exact:
        den = 2 ** denom_exp
        nums = rng.integers(-vmax * den, vmax * den + 1,
                            size=(system.n_leaves, d))
        vals = np.empty((system.n_leaves, d), dtype=object)
        for i in range(system.n_leaves):
            for j in range(d):
                vals[i, j] = Fraction(int(nums[i, j]), den)
        return StepFunction(system, vals)
    vals = rng.uniform(-vmax, vmax, size=(system.n_leaves, d))
    return StepFunction(system, vals)


# -- Calderon-Zygmund kernel checks --------------------------------------


@dataclass
class KernelSpec:
    """A kernel with claimed size/smoothness constants.

    ``evaluate(x, y)`` must accept numpy arrays and is only probed off the
    diagonal.  ``check_standard_estimates`` samples admissible triples
    ``(x, y, z)`` with ``|x - y| > 2 |y - z|`` and verifies

    * size:       ``|K(x, y)| <= C / |x - y|``
    * smoothness: ``|K(x,y) - K(x,z)| + |K(y,x) - K(z,x)|
                    <= C |y - z|**delta / |x - y|**(1 + delta)``.
    """

    evaluate: object
    C: float
    delta: float
    name: str = "kernel"

    def check_standard_estimates(self, n_samples=100_000, seed=0,
                                 half_width=8.0):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-half_width, half_width, size=n_samples)
        y = rng.uniform(-half_width, half_width, size=n_samples)
        sep = np.abs(x - y)
        ok = sep > 1e-6
        x, y, sep = x[ok], y[ok], sep[ok]
        rho = rng.uniform(0.0, 1.0, size=x.size) * 0.999
        sign = rng.choice([-1.0, 1.0], size=x.size)
        z = y + sign * rho * sep / 2.0

        k_xy = np.asarray(self.evaluate(x, y), dtype=float)
        k_xz = np.asarray(self.evaluate(x, z), dtype=float)
        k_yx = np.asarray(self.evaluate(y, x), dtype=float)
        k_zx = np.asarray(self.evaluate(z, x), dtype=float)

        size_ratio = np.abs(k_xy) * sep / self.C
        dz = np.abs(y - z)
        smooth_lhs = np.abs(k_xy - k_xz) + np.abs(k_yx - k_zx)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = self.C * dz ** self.delta / sep ** (1.0 + self.delta)
            smooth_ratio = np.where(bound > 0, smooth_lhs / bound, 0.0)
        report = {
            "kernel": self.name,
            "n_checked": int(x.size),
            "max_size_ratio": float(size_ratio.max()),
            "max_smoothness_ratio": float(smooth_ratio.max()),
        }
        report["accepted"] = bool(report["max_size_ratio"] <= 1.0 + 1e-9
                                  and report["max_smoothness_ratio"] <= 1.0 + 1e-9)
        return report


def hilbert_kernel():
    """The convolution kernel ``1 / (x - y)`` with its standard constants."""
    return KernelSpec(evaluate=lambda x, y: 1.0 / (x - y), C=4.0, delta=1.0,
                      name="hilbert")
