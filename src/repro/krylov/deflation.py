"""Harmonic-Ritz extraction shared by the recycling methods.

Two eigenproblems appear in GCRO-DR (paper Fig. 1):

* **line 16** (first cycle): the harmonic-Ritz problem ``H z = theta z``
  with the corrected Hessenberg of eq. (2);
* **line 33** (subsequent restarts): the generalized problem
  ``T z = theta W z`` with ``T = G_m^H G_m`` and ``W`` given by either
  eq. (3a) (strategy A) or eq. (3b) (strategy B).

Both return the ``k`` eigenvectors associated with the smallest (by
default) eigenvalues in magnitude.  For *real* arithmetic the eigenvectors
of a real matrix may come in complex-conjugate pairs; the invariant
subspace is kept real by splitting such pairs into their real and
imaginary parts (standard GCRO-DR practice).
"""

from __future__ import annotations

import numpy as np

from ..la.dense import hessenberg_harmonic_lhs, sorted_eig, sorted_generalized_eig

__all__ = ["select_real_subspace", "harmonic_ritz_vectors",
           "generalized_ritz_vectors", "sketched_harmonic_ritz_vectors"]


def select_real_subspace(vals: np.ndarray, vecs: np.ndarray, k: int,
                         dtype: np.dtype) -> np.ndarray:
    """Build a full-column-rank basis ``P`` (real if ``dtype`` is real).

    ``vals``/``vecs`` are the (already sorted) eigenpairs; for a real target
    dtype, complex-conjugate pairs contribute their real and imaginary
    parts.  The result has at most ``k`` columns and is orthonormalized so
    downstream QR factors stay well conditioned.
    """
    if np.issubdtype(dtype, np.complexfloating):
        p = vecs[:, :k].astype(dtype)
    else:
        cols: list[np.ndarray] = []
        j = 0
        while j < vecs.shape[1] and len(cols) < k:
            v = vecs[:, j]
            lam = vals[j]
            if abs(lam.imag) <= 1e-12 * max(abs(lam), 1.0) and \
               np.max(np.abs(v.imag)) <= 1e-12 * max(np.max(np.abs(v.real)), 1e-300):
                cols.append(v.real)
                j += 1
            else:
                cols.append(v.real)
                if len(cols) < k:
                    cols.append(v.imag)
                # conjugate partner (if adjacent) spans the same plane: skip it
                if j + 1 < vecs.shape[1] and np.isclose(vals[j + 1], np.conj(lam)):
                    j += 2
                else:
                    j += 1
        if not cols:
            return np.zeros((vecs.shape[0], 0), dtype=dtype)
        p = np.column_stack(cols).astype(dtype)
    # orthonormalize and drop numerically dependent columns
    q, r = np.linalg.qr(p)
    keep = np.abs(np.diagonal(r)) > 1e-12 * max(np.abs(np.diagonal(r)).max(), 1e-300)
    return q[:, keep]


def harmonic_ritz_vectors(hbar: np.ndarray, r_factor: np.ndarray,
                          h_last: np.ndarray, p: int, k: int, *,
                          dtype: np.dtype, target: str = "smallest") -> np.ndarray:
    """Eigenvectors for the first GCRO-DR cycle (paper line 16 / eq. 2)."""
    h = hessenberg_harmonic_lhs(hbar, r_factor, h_last, p)
    k_eff = min(k, h.shape[0])
    vals, vecs = sorted_eig(h, h.shape[0], target=target)
    return select_real_subspace(vals, vecs, k_eff, np.dtype(dtype))


def generalized_ritz_vectors(gm: np.ndarray, w: np.ndarray, k: int, *,
                             dtype: np.dtype, target: str = "smallest") -> np.ndarray:
    """Eigenvectors for the restart updates (paper line 33 / eq. 3).

    ``gm`` is the stacked matrix ``G_m``; ``T = G_m^H G_m`` is formed here
    (a small redundant gemm), ``w`` is supplied by the caller according to
    the selected recycle strategy.
    """
    t = gm.conj().T @ gm
    k_eff = min(k, t.shape[0])
    vals, vecs = sorted_generalized_eig(t, w, t.shape[0], target=target)
    return select_real_subspace(vals, vecs, k_eff, np.dtype(dtype))


def sketched_harmonic_ritz_vectors(hbar: np.ndarray, gv: np.ndarray, k: int, *,
                                   dtype: np.dtype,
                                   target: str = "smallest") -> np.ndarray:
    """Harmonic-Ritz vectors of the *sketched* least-squares problem.

    The sketched Arnoldi basis is only sketch-orthonormal, so the
    harmonic-Ritz problem keeps the basis Gram: with ``G_V = (S V)^H (S V)``
    (reconstructed locally from the engine's whitened sketch state — no
    communication) the pencil is

    .. math::  \\bar H^H G_V \\bar H \\, g = \\theta \\, \\bar H^H G_V E \\, g

    where ``E`` keeps the leading ``mp`` rows.  With ``s = n`` the sketch
    is an exact isometry, ``G_V = I`` and the pencil reduces to the
    standard harmonic problem of :func:`harmonic_ritz_vectors`.
    """
    jp = hbar.shape[1]
    a_h = hbar.conj().T @ (gv @ hbar)
    b_h = hbar.conj().T @ gv[:, :jp]
    k_eff = min(k, a_h.shape[0])
    vals, vecs = sorted_generalized_eig(a_h, b_h, a_h.shape[0], target=target)
    return select_real_subspace(vals, vecs, k_eff, np.dtype(dtype))

