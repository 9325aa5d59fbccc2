"""Finite windows of randomly translated dyadic grids.

A system is a window ``[origin, origin + 2**M)`` subdivided ``depth`` times by
exact bisection.  Randomness enters through one bit per level below the root:
the bit at level ``t`` translates every grid coarser than ``t`` by ``2**(M-t)``,
and the accumulated translation is folded into the realized window origin.
Inside the window the intervals therefore always form a perfect binary tree
with scaled-integer endpoints, while the absolute position of the whole
configuration moves on the leaf lattice as the bits vary.

Levels are counted downward from the window root (root = 0, leaves = depth).
An interval at level ``lev`` has length ``2**(M - lev)``.  Global (window
independent) levels, where length ``2**-j`` corresponds to level ``j``, are
``lev - M``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "DyadicError",
    "DepthExhaustedError",
    "WindowError",
    "DyadicSystem",
    "DyadicInterval",
    "sample_system",
]


class DyadicError(ValueError):
    """Base class for dyadic-structure errors."""


class DepthExhaustedError(DyadicError):
    """An operation asked for intervals below the leaf level."""


class WindowError(DyadicError):
    """An address does not exist inside the window."""


@dataclass(frozen=True)
class DyadicSystem:
    """A dyadic window with its translation bits.

    Parameters
    ----------
    base_origin:
        Left endpoint of the window before the translation bits are applied.
    M:
        Window length exponent; the window has length ``2**M``.
    depth:
        Number of bisection levels below the root.
    omega:
        ``depth`` bits; ``omega[t-1]`` is the bit of level ``t`` and shifts the
        realized origin by ``2**(M - t)``.
    """

    base_origin: Fraction = Fraction(0)
    M: int = 0
    depth: int = 1
    omega: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "base_origin", Fraction(self.base_origin))
        if self.depth < 1:
            raise DyadicError("depth must be >= 1")
        bits = tuple(int(b) for b in self.omega)
        if not bits:
            bits = (0,) * self.depth
        if len(bits) != self.depth:
            raise DyadicError(
                f"omega has {len(bits)} bits, expected depth={self.depth}")
        if any(b not in (0, 1) for b in bits):
            raise DyadicError("omega bits must be 0 or 1")
        object.__setattr__(self, "omega", bits)

    # -- geometry --------------------------------------------------------

    @property
    def window_length(self):
        return Fraction(2) ** self.M

    @property
    def leaf_width(self):
        return Fraction(2) ** (self.M - self.depth)

    @property
    def n_leaves(self):
        return 2 ** self.depth

    def grid_translation(self, level):
        """Translation of the level-``level`` grid coming from finer bits.

        Equals the sum of ``2**(M - t) * omega[t-1]`` over stored levels
        ``t > level``; grids at or below ``level`` are translated by integer
        multiples of their own length on top of this.
        """
        if not 0 <= level <= self.depth:
            raise WindowError(f"level {level} outside [0, {self.depth}]")
        out = Fraction(0)
        for t in range(level + 1, self.depth + 1):
            if self.omega[t - 1]:
                out += Fraction(2) ** (self.M - t)
        return out

    @property
    def origin(self):
        """Realized left endpoint of the window."""
        return self.base_origin + self.grid_translation(0)

    # -- intervals -------------------------------------------------------

    def interval(self, level, index):
        if not 0 <= level <= self.depth:
            raise WindowError(f"level {level} outside [0, {self.depth}]")
        if not 0 <= index < 2 ** level:
            raise WindowError(
                f"index {index} outside [0, {2 ** level}) at level {level}")
        return DyadicInterval(self, level, index)

    def intervals(self, level):
        """All intervals of one level, left to right."""
        return [self.interval(level, i) for i in range(2 ** level)]

    def nonleaf_intervals(self):
        """All intervals strictly above the leaf level, coarse to fine."""
        out = []
        for lev in range(self.depth):
            out.extend(self.intervals(lev))
        return out

    # -- serialization ---------------------------------------------------

    def to_json_dict(self):
        return {
            "origin": str(self.base_origin),
            "M": self.M,
            "D": self.depth,
            "omega_bits": list(self.omega),
        }

    @classmethod
    def from_json_dict(cls, data):
        return cls(
            base_origin=Fraction(data["origin"]),
            M=int(data["M"]),
            depth=int(data["D"]),
            omega=tuple(int(b) for b in data["omega_bits"]),
        )


@dataclass(frozen=True)
class DyadicInterval:
    """One interval of a system, addressed by (level, index)."""

    system: DyadicSystem
    level: int
    index: int

    @property
    def length(self):
        return Fraction(2) ** (self.system.M - self.level)

    @property
    def left(self):
        return self.system.origin + self.index * self.length

    @property
    def right(self):
        return self.left + self.length

    @property
    def leaf_span(self):
        """Half-open range of leaf indices covered by this interval."""
        width = 2 ** (self.system.depth - self.level)
        return self.index * width, (self.index + 1) * width


def sample_system(seed, depth, M=0, base_origin=0):
    """A window of depth ``depth`` and length ``2**M`` whose ``depth``
    translation bits are i.i.d. uniform on {0, 1}.

    Deterministic in ``seed``; a sequence seed such as ``(master, trial)``
    gives independent per-trial streams.
    """
    if depth < 1:
        raise DyadicError("depth must be >= 1")
    rng = np.random.default_rng(seed)
    bits = tuple(int(b) for b in rng.integers(0, 2, size=depth))
    return DyadicSystem(base_origin=Fraction(base_origin), M=M, depth=depth,
                        omega=bits)
