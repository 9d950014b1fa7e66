"""Dense array helpers: input validation, the exact rank-r truncation, spectral norm.

as_vector and as_matrix are the boundary checks: the public prox, loss and
penalty calls, dataset construction and run_solver's entry run them on what
they are given. The solver loop does not re-run them on its own iterates:
there loss.eval's scan of each evaluated point is the guard (see
iprox.solvers).

Each scalar rule has one home here, and every public entry calls it:
check_positive for a step size or scale (a finite number > 0: gamma,
delta, sigma, margin, an adaptive schedule's floor), check_count for a
count (an integer >= 1 under is_int: iteration budgets, sizes, a rank
bound), check_finite_nonneg for a weight or schedule constant, check_rank
for a rank bound against a shape, and check_seed for a seed. An eps target
(None or a number >= 0) is checked by iprox.prox's _check_eps_target.

The two spectral routines work on the smaller Gram matrix of their input:
one m x m product and one symmetric eigensolve, m the smaller dimension,
in place of a full SVD. The inexact rank prox in iprox.prox never forms
that matrix to iterate: its residual mode certifies each sweep from
products with the input. It forms the matrix once in a call only where
the trace of the complement block does not separate the top r Ritz
values, for the block's Frobenius norm. Its power mode, or a residual-mode
call that neither norm separates, takes one eigvalsh of it.
"""
from __future__ import annotations

import math

import numpy as np


def as_vector(x, name="x"):
    """x as a 1-d float64 array, or ValueError if it is not 1-d or holds a
    non-finite entry. The scan is np.logical_and.reduce over np.isfinite:
    the check of .all(), without its Python frame, on every loss evaluation."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"{name} must be a 1-d array, got shape {x.shape}")
    if not np.logical_and.reduce(np.isfinite(x)):
        raise ValueError(f"{name} contains non-finite entries")
    return x


def as_matrix(a, name="a"):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got shape {a.shape}")
    if not np.logical_and.reduce(np.isfinite(a), axis=None):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_int(value):
    """The integer rule of every count and rank: a Python or numpy integer,
    not a bool (True would pass as 1)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """Raise ValueError unless seed is a non-negative integer, the only seed
    numpy's generators take."""
    if not is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


def check_finite_nonneg(value, name):
    """Raise ValueError unless value is a finite number >= 0. nan fails
    every comparison, and an inf weight gives inf * 0 = nan at zero."""
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be non-negative and finite, got {value!r}")


def check_positive(value, name):
    """Raise ValueError unless value is a finite number > 0: a step size or
    scale. nan fails the comparison, and an inf step gives inf * 0 = nan."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def check_count(value, name):
    """Raise ValueError unless value is an integer >= 1 under is_int's rule."""
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def check_rank(shape, r):
    """Raise ValueError unless r is an integer in [1, min(shape)]."""
    if not is_int(r) or not 1 <= r <= min(shape):
        raise ValueError(f"rank r={r} outside [1, {min(shape)}]")


def truncated_svd_exact(a, r):
    """Best rank-r approximation of a dense matrix (Eckart-Young).

    With b = a, or a.T when a is wide, and Q the eigenvectors of the r
    largest eigenvalues of b.T @ b from one eigh, the truncation is
    (b Q) Q^T, transposed back for wide a. Raises ValueError when r is not
    in [1, min(a.shape)].
    """
    a = as_matrix(a)
    check_rank(a.shape, r)
    wide = a.shape[0] < a.shape[1]
    b = a.T if wide else a
    q = np.linalg.eigh(b.T @ b)[1][:, -r:]
    out = (b @ q) @ q.T
    return out.T if wide else out


def spectral_norm_sq(a):
    """Largest squared singular value: the top eigenvalue of the smaller Gram matrix."""
    a = as_matrix(a)
    if a.size == 0:
        return 0.0
    b = a @ a.T if a.shape[0] <= a.shape[1] else a.T @ a
    return float(np.linalg.eigvalsh(b)[-1])
