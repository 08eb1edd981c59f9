"""Octonion arithmetic.

Octonions are plain length-8 float vectors; the frozen multiplication table
is held once, here, as read-only index arrays that every octonion product
gathers through.
"""

from __future__ import annotations

import hashlib
from functools import cache

import numpy as np

from ._octonion_table import TABLE

# e_s e_t = _SIGN[s, k] e_k for t = _FACTOR[s, k]: each row of TABLE maps the
# right factor t to its slot k, and _FACTOR holds the inverse permutations.
_FACTOR = np.argsort(np.array(TABLE)[..., 0], axis=1)
_SIGN = np.take_along_axis(np.array(TABLE)[..., 1], _FACTOR, axis=1).astype(float)
_FACTOR.flags.writeable = _SIGN.flags.writeable = False
_I8 = np.eye(8)


@cache
def octonion_table_checksum() -> str:
    """SHA-256 of the frozen multiplication table, embedded in CLI reports; hashed once."""
    payload = ";".join(
        f"{s},{t},{TABLE[s][t][0]},{TABLE[s][t][1]}" for s in range(8) for t in range(8)
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def octonion_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two octonions, or of two batches with leading batch axes."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    # (x y)_k = sum over s, in s order, of x_s y_FACTOR[s,k] SIGN[s,k]
    return (x[..., :, None] * y[..., _FACTOR] * _SIGN).sum(axis=-2)


def octonion_conj(x: np.ndarray) -> np.ndarray:
    out = -np.asarray(x, dtype=float).copy()
    out[..., 0] = -out[..., 0]
    return out


def octonion_inner(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    return np.sum(np.asarray(x, float) * np.asarray(y, float), axis=-1)


def octonion_norm_sq(x: np.ndarray) -> float | np.ndarray:
    return octonion_inner(x, x)


def left_mult_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of y -> x y acting on coefficient vectors."""
    return octonion_mul(x, _I8).T


def right_mult_matrix(x: np.ndarray) -> np.ndarray:
    """Matrix of y -> y x acting on coefficient vectors."""
    return octonion_mul(_I8, x).T


# Coefficient matrix of octonion conjugation.
CONJ_MATRIX = np.diag([1.0, -1, -1, -1, -1, -1, -1, -1])


def octonion_basis(k: int) -> np.ndarray:
    return _I8[k].copy()
