"""Composite Gauss-Legendre panel quadrature with in-panel antiderivatives.

A panel grid is built from the edges its caller chooses; the coefficient
plans take equal panels: one for Legendre, the 2**D dyadic cells for Haar
and Walsh, and for the trigonometric system four per period and four more.
On every panel the integrand is sampled at the same Gauss nodes; the
cumulative matrix turns those samples into values of the antiderivative at
the nodes, which is what the iterated (simplex) integrals need.  Both
operations are exact whenever the integrand restricted to a panel is a
polynomial of degree at most ``nodes - 1``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Node counts each cache keeps: tables over the four bases take three (5, 24 and,
# for Legendre orders 12 at k = 3, 41); a cumulative matrix at 4096 nodes is 128 MB
@lru_cache(maxsize=4)
def gauss_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached and read-only."""
    if nodes < 1:
        raise ValueError("nodes must be >= 1")
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _legendre_rows(x: np.ndarray, degree: int) -> np.ndarray:
    """P_n(x) for n = 0..degree, shape (degree+1, len(x))."""
    rows = np.empty((degree + 1, x.size))
    rows[0] = 1.0
    if degree >= 1:
        rows[1] = x
    for n in range(1, degree):
        rows[n + 1] = ((2 * n + 1) * x * rows[n] - n * rows[n - 1]) / (n + 1)
    return rows


@lru_cache(maxsize=4)
def cumulative_matrix(nodes: int) -> np.ndarray:
    """Matrix K with (K f)(i) = integral of the interpolant of f from -1 to x_i.

    f holds samples at the Gauss nodes; the interpolant is the unique
    polynomial of degree nodes-1 through them, recovered via the discrete
    Legendre transform (exact at Gauss points).
    """
    x, w = gauss_rule(nodes)
    p = _legendre_rows(x, nodes)  # P_0..P_nodes at the nodes
    # Legendre coefficients of the interpolant: c_n = (2n+1)/2 * sum w_i P_n(x_i) f_i
    scale = (2.0 * np.arange(nodes) + 1.0) / 2.0
    to_coeffs = scale[:, None] * p[:nodes] * w[None, :]
    # g_n(x) = integral of P_n from -1 to x:  g_0 = P_1 + P_0,
    # g_n = (P_{n+1} - P_{n-1}) / (2n+1) for n >= 1
    g = np.empty((nodes, nodes))
    g[:, 0] = p[1] + p[0]
    for n in range(1, nodes):
        g[:, n] = (p[n + 1] - p[n - 1]) / (2 * n + 1)
    k = g @ to_coeffs
    k.setflags(write=False)
    return k


@dataclass(frozen=True)
class PanelGrid:
    """Panelization of [t, T] with shared Gauss nodes on every panel.

    nodes_x and weights have shape (n_panels, nodes): the nodes and their
    quadrature weights on [t, T]; half holds the panel half-widths.
    """

    half: np.ndarray
    nodes_x: np.ndarray
    weights: np.ndarray
    nodes: int

    @property
    def n_panels(self) -> int:
        return self.half.size

    def cumulative(self, samples: np.ndarray) -> np.ndarray:
        """Antiderivative values (from t) at every node, from samples of
        shape (..., n_panels, nodes); the result has the shape of samples."""
        _, w = gauss_rule(self.nodes)
        flat = samples.reshape(-1, self.nodes)
        per_panel = self.half * (flat @ w).reshape(samples.shape[:-1])
        shifted = np.zeros_like(per_panel)
        shifted[..., 1:] = np.cumsum(per_panel, axis=-1)[..., :-1]
        in_panel = (flat @ cumulative_matrix(self.nodes).T).reshape(samples.shape)
        in_panel *= self.half[:, None]
        return np.add(in_panel, shifted[..., None], out=in_panel)


def panel_grid(edges, nodes: int) -> PanelGrid:
    """One panel between each pair of consecutive edges (ascending, from t
    to T), with the same ``nodes`` Gauss nodes on every panel."""
    edges = np.asarray(edges, dtype=float)
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    x, w = gauss_rule(nodes)
    nodes_x = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    for arr in (half, nodes_x, weights):
        arr.setflags(write=False)
    return PanelGrid(half, nodes_x, weights, nodes)
