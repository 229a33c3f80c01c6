"""Grid setup for Red-Black Successive Over-Relaxation.

The application solves a discrete Poisson/Laplace problem on an ``n x n``
grid (Section 2.2.1: "a distributed stencil application whose data
resides on an NxN grid") with Dirichlet boundaries.  Interior points are
coloured red/black like a checkerboard: a red point's 4-neighbours are
all black and vice versa, so each colour can be updated in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.util.validation import check_in_range

__all__ = ["SORGrid", "optimal_omega"]


def optimal_omega(n: int) -> float:
    """Theoretically optimal SOR relaxation factor for the 5-point Laplacian.

    ``omega* = 2 / (1 + sin(pi * h))`` with ``h = 1 / (n - 1)``.
    """
    if n < 3:
        raise ValueError(f"grid size must be >= 3, got {n}")
    h = 1.0 / (n - 1)
    return 2.0 / (1.0 + math.sin(math.pi * h))


@dataclass(frozen=True)
class SORGrid:
    """Problem definition: boundary values, source term, relaxation factor.

    Attributes
    ----------
    n:
        Grid points per side, including the boundary ring.
    boundary:
        Full ``n x n`` array whose edge ring provides the Dirichlet values
        (interior entries are ignored).
    source:
        Right-hand side ``f`` scaled by ``h**2`` (zero for Laplace),
        shape ``(n - 2, n - 2)``.
    omega:
        SOR relaxation factor in (0, 2).
    """

    n: int
    boundary: np.ndarray
    source: np.ndarray
    omega: float

    def __post_init__(self) -> None:
        if self.n < 3:
            raise ValueError(f"grid size must be >= 3, got {self.n}")
        check_in_range(self.omega, "omega", 0.0, 2.0, inclusive=(False, False))
        b = np.asarray(self.boundary, dtype=float)
        s = np.asarray(self.source, dtype=float)
        if b.shape != (self.n, self.n):
            raise ValueError(f"boundary must be ({self.n}, {self.n}), got {b.shape}")
        if s.shape != (self.n - 2, self.n - 2):
            raise ValueError(f"source must be ({self.n - 2}, {self.n - 2}), got {s.shape}")
        object.__setattr__(self, "boundary", b)
        object.__setattr__(self, "source", s)

    # ------------------------------------------------------------------
    # Problem factories
    # ------------------------------------------------------------------
    @classmethod
    def laplace_problem(cls, n: int, omega: float | None = None) -> "SORGrid":
        """Laplace problem with the harmonic boundary ``u(x, y) = x + y``.

        The exact solution is ``u = x + y`` everywhere, which makes
        convergence easy to verify to machine precision.
        """
        xs = np.linspace(0.0, 1.0, n)
        full = xs[:, None] + xs[None, :]
        boundary = np.zeros((n, n))
        boundary[0, :] = full[0, :]
        boundary[-1, :] = full[-1, :]
        boundary[:, 0] = full[:, 0]
        boundary[:, -1] = full[:, -1]
        return cls(
            n=n,
            boundary=boundary,
            source=np.zeros((n - 2, n - 2)),
            omega=omega if omega is not None else optimal_omega(n),
        )

    @classmethod
    def hot_edge_problem(cls, n: int, omega: float | None = None) -> "SORGrid":
        """Laplace problem with one heated edge (u=1 on top, 0 elsewhere)."""
        boundary = np.zeros((n, n))
        boundary[0, :] = 1.0
        return cls(
            n=n,
            boundary=boundary,
            source=np.zeros((n - 2, n - 2)),
            omega=omega if omega is not None else optimal_omega(n),
        )

    @classmethod
    def poisson_problem(cls, n: int, f, omega: float | None = None) -> "SORGrid":
        """Poisson problem ``-laplace(u) = f`` with zero boundary.

        ``f`` is evaluated on the interior points of the unit square.
        """
        xs = np.linspace(0.0, 1.0, n)
        h = xs[1] - xs[0]
        xi, yi = np.meshgrid(xs[1:-1], xs[1:-1], indexing="ij")
        source = (h * h) * np.asarray(f(xi, yi), dtype=float)
        return cls(
            n=n,
            boundary=np.zeros((n, n)),
            source=source,
            omega=omega if omega is not None else optimal_omega(n),
        )

    # ------------------------------------------------------------------
    # Working arrays
    # ------------------------------------------------------------------
    def initial_field(self) -> np.ndarray:
        """Full ``n x n`` field: boundary ring set, interior zeroed."""
        u = self.boundary.copy()
        u[1:-1, 1:-1] = 0.0
        return u

    def exact_laplace_solution(self) -> np.ndarray:
        """Exact solution for :meth:`laplace_problem` grids (``u = x + y``)."""
        xs = np.linspace(0.0, 1.0, self.n)
        return xs[:, None] + xs[None, :]

    @property
    def interior_points(self) -> int:
        """Number of interior (updated) grid points."""
        return (self.n - 2) * (self.n - 2)
