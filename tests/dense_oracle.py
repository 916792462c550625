"""The dense complex least-squares route: the oracle of the exact FFT route.

On a conjugate-closed lattice the complex-exponential design with entry
exp(-i w.x) fits a real target with c_{-w} = conj(c_w), so the real
series has a_w = 2 Re c_w and b_w = 2 Im c_w. On the matched grid the
design is a scaled unitary and its solve is the scaled DFT that
``pipeline.surrogate_exact`` takes by FFT. Not a test module: the tests
import it from here.
"""

import numpy as np

from fourier_surrogates import DesignMatrix
from fourier_surrogates.spectrum import _frequency_array


def build_complex_design(points, freqs) -> DesignMatrix:
    """Design with entry (j, k) = exp(-i * freqs[k] . points[j])."""
    W = _frequency_array(freqs)
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    entries = np.exp(-1j * (pts @ W.astype(float).T))
    return DesignMatrix(entries)


def complex_fit_to_real(freqs, coeffs):
    """Fold complex-exponential coefficients into (intercept, canonical, a, b).

    Keeps the coefficient of each canonical lattice vector (first nonzero
    entry positive), in the lattice's order, and drops its conjugate
    partner.
    """
    vectors = list(map(tuple, _frequency_array(freqs).tolist()))
    coeffs = np.asarray(coeffs)
    intercept = 0.0
    canon, a, b = [], [], []
    for f, c in zip(vectors, coeffs):
        if not any(f):
            intercept = float(np.real(c))
        elif f > tuple(-v for v in f):
            canon.append(f)
            a.append(2.0 * float(np.real(c)))
            b.append(2.0 * float(np.imag(c)))
    return intercept, canon, np.asarray(a), np.asarray(b)
