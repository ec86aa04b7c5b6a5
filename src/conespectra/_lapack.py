"""LAPACK's banded symmetric-definite eigensolver dsbgvd, for two tridiagonal matrices.

scipy.linalg.lapack wraps no dsbgvd, but scipy.linalg.cython_lapack exports
every LAPACK routine of scipy's own build as a C function pointer in a
capsule, and ctypes calls it there.  dsbgvd reduces the pencil to a
tridiagonal matrix with a split Cholesky factor of B and Crawford's banded
reduction, as Kaufman modified it (Comm. ACM 1973; ACM TOMS 1984), and
solves that by divide and conquer: O(n^2) for the eigenvalues alone, and
no dense matrix but the eigenvectors (and their workspace) when they are
asked for.
"""

import ctypes

import numpy as np
from scipy.linalg import cython_lapack

_capsules = getattr(cython_lapack, "__pyx_capi__", {})
if "dsbgvd" not in _capsules:
    raise ImportError("scipy.linalg.cython_lapack exports no dsbgvd")
_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)
_signature = _capsule_name(_capsules["dsbgvd"]).decode()
# jobz, uplo, n, ka, kb, ab, ldab, bb, ldbb, w, z, ldz, work, lwork, iwork, liwork, info: char, int or double
_kinds = "".join("c" if arg == "char *" else "i" if arg == "int *" else "d" for arg in _signature[6:-1].split(", "))
if not _signature.startswith("void (") or _kinds != "cciiidididdidiiii":
    raise ImportError(f"scipy.linalg.cython_lapack's dsbgvd has the signature {_signature!r}, not LAPACK's")
_ctype = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int), "d": ctypes.c_void_p}
_dsbgvd = ctypes.CFUNCTYPE(None, *(_ctype[kind] for kind in _kinds))(
    _capsule_pointer(_capsules["dsbgvd"], _signature.encode())
)


def tridiagonal_eigh(a_diag, a_off, b_diag, b_off, vectors: bool):
    """Eigenvalues w, ascending, of A z = w B z for tridiagonal A and B, B positive definite.

    With vectors, also Z with Z^T A Z = diag(w) and Z^T B Z = I,
    Fortran-ordered; else None.

    Raises
    ------
    np.linalg.LinAlgError
        If B is not positive definite, or the eigensolve does not converge.
    """
    n = len(a_diag)
    ab, bb = np.zeros((n, 2)), np.zeros((n, 2))  # the (2, n) lower band storage, Fortran-ordered
    ab[:, 0], ab[: n - 1, 1], bb[:, 0], bb[: n - 1, 1] = a_diag, a_off, b_diag, b_off
    w = np.empty(n)
    z = np.empty((n, n), order="F") if vectors else np.empty(1)
    lwork, liwork = (1 + 5 * n + 2 * n * n, 3 + 5 * n) if vectors else (2 * n, 1)
    work, iwork = np.empty(lwork), (ctypes.c_int * liwork)()
    band, two, info = ctypes.c_int(min(1, n - 1)), ctypes.c_int(2), ctypes.c_int()
    _dsbgvd(b"V" if vectors else b"N", b"L", ctypes.c_int(n), band, band, ab.ctypes.data, two, bb.ctypes.data, two,
            w.ctypes.data, z.ctypes.data, ctypes.c_int(n if vectors else 1), work.ctypes.data, ctypes.c_int(lwork),
            iwork, ctypes.c_int(liwork), info)
    if info.value > n:
        raise np.linalg.LinAlgError(
            f"the mass block is not positive definite: its split Cholesky factor fails at row {info.value - n}"
        )
    if info.value:
        raise np.linalg.LinAlgError(f"the banded eigensolve did not converge ({info.value} off-diagonals left)")
    return w, (z if vectors else None)
