"""Composition-algebra arithmetic: octonions, quaternion matrices, pfaffians.

Octonions are plain length-8 float vectors; the frozen multiplication table
is held once, here, as read-only index arrays that every octonion product
gathers through.  Quaternion matrices are kept as pairs of complex matrices
(m = A + B j) so that one complex matrix kernel serves multiplication,
conjugate transposition and inversion.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ._octonion_table import TABLE

# e_s e_t = _SIGN[s, k] e_k for t = _FACTOR[s, k]: each row of TABLE maps the
# right factor t to its slot k, and _FACTOR holds the inverse permutations.
_FACTOR = np.argsort(np.array(TABLE)[..., 0], axis=1)
_SIGN = np.take_along_axis(np.array(TABLE)[..., 1], _FACTOR, axis=1).astype(float)
_FACTOR.flags.writeable = _SIGN.flags.writeable = False
_I8 = np.eye(8)


def octonion_table_checksum() -> str:
    """SHA-256 of the frozen multiplication table, embedded in CLI reports."""
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


# ---------------------------------------------------------------------------
# Quaternions as pairs of complex numbers, quaternion matrices as complex pairs


class QMatrix:
    """Quaternion matrix m = A + B j with complex blocks A, B.

    Scalars are 1x1 matrices.  The complex embedding used for inversion
    sends m to [[A, -B], [conj(B), conj(A)]].
    """

    __slots__ = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray | None = None):
        self.a = np.asarray(a, dtype=complex)
        self.b = (
            np.zeros_like(self.a) if b is None else np.asarray(b, dtype=complex)
        )
        if self.a.shape != self.b.shape:
            raise ValueError("component shape mismatch")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zeros(n: int, m: int) -> "QMatrix":
        return QMatrix(np.zeros((n, m), dtype=complex))

    @staticmethod
    def eye(n: int) -> "QMatrix":
        return QMatrix(np.eye(n, dtype=complex))

    @staticmethod
    def from_components(w, x, y, z) -> "QMatrix":
        """Entrywise components w + x i + y j + z k; scalars become 1x1."""
        w, x, y, z = (np.atleast_2d(np.asarray(c, dtype=float)) for c in (w, x, y, z))
        return QMatrix(w + 1j * x, y + 1j * z)

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def components(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (self.a.real, self.a.imag, self.b.real, self.b.imag)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QMatrix") -> "QMatrix":
        return QMatrix(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QMatrix":
        return QMatrix(-self.a, -self.b)

    def scale(self, t: float) -> "QMatrix":
        return QMatrix(self.a * t, self.b * t)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        # (A1 + B1 j)(A2 + B2 j) = (A1 A2 - B1 conj(B2)) + (A1 B2 + B1 conj(A2)) j
        return QMatrix(
            self.a @ other.a - self.b @ other.b.conj(),
            self.a @ other.b + self.b @ other.a.conj(),
        )

    def conj_t(self) -> "QMatrix":
        """Quaternionic conjugate transpose."""
        return QMatrix(self.a.conj().T, -self.b.T)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.a) ** 2 + np.abs(self.b) ** 2)))

    # -- complex embedding -------------------------------------------------

    def embed(self) -> np.ndarray:
        a, b = self.a, self.b
        return np.block([[a, -b], [b.conj(), a.conj()]])

    @staticmethod
    def unembed(mat: np.ndarray, shape: tuple[int, int]) -> "QMatrix":
        n, m = shape
        return QMatrix(mat[:n, :m], mat[n:, :m].conj())

    def inv(self) -> "QMatrix":
        return QMatrix.unembed(np.linalg.inv(self.embed()), self.shape)


# ---------------------------------------------------------------------------
# Pfaffian and the quaternion 2x2 determinant


def pfaffian(a: np.ndarray) -> float | complex:
    """Pfaffian of an even skew-symmetric matrix by perfect-matching expansion.

    Normalized so the block-diagonal form diag([[0, 1], [-1, 0]], ...) has
    pfaffian +1.  Works for real or complex entries; intended for n <= 8.
    """
    a = np.asarray(a)
    n = a.shape[0]
    if a.shape != (n, n) or n % 2:
        raise ValueError("pfaffian needs an even square matrix")
    if n and np.max(np.abs(a + a.T)) > 1e-10 * max(1.0, np.max(np.abs(a))):
        raise ValueError("matrix is not skew-symmetric")
    if n == 0:
        return 1.0

    def rec(idx: tuple[int, ...]):
        if not idx:
            return 1.0
        i = idx[0]
        total = 0.0
        for pos in range(1, len(idx)):
            j = idx[pos]
            rest = idx[1:pos] + idx[pos + 1:]
            sign = -1.0 if (pos - 1) % 2 else 1.0
            total = total + sign * a[i, j] * rec(rest)
        return total

    return rec(tuple(range(n)))


def qdet2(m: QMatrix) -> float:
    """Determinant a c - |b|^2 of a quaternion-Hermitian 2x2 matrix."""
    if m.shape != (2, 2):
        raise ValueError("qdet2 is defined for 2x2 matrices")
    herm_residual = (m - m.conj_t()).norm()
    if herm_residual > 1e-10 * max(1.0, m.norm()):
        raise ValueError("matrix is not quaternion-Hermitian")
    a = float(m.a[0, 0].real)
    c = float(m.a[1, 1].real)
    b = QMatrix(m.a[:1, 1:2], m.b[:1, 1:2])
    return a * c - float(np.sum(np.abs(b.a) ** 2 + np.abs(b.b) ** 2))
