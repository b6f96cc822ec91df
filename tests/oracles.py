"""Brute-force reference routes that the tests check the library against.

Each oracle computes a quantity the library also computes, by the most
literal route there is: slow, but with nothing to get wrong. None of them
is part of the library.

- ``energy_quadruple``: the additive energy as the literal count of
  quadruples x1 + x2 = x3 + x4, cubic in |A|.
- ``energy_fourier_check``: the floating cross-check N^d * sum |1hat_A|^4.
"""

from __future__ import annotations

import numpy as np

from zncert import spectral
from zncert.errors import CapacityError
from zncert.lattice import SupportSet

# The literal quadruple loop is cubic; larger sets must use the
# representation route, which is equally exact.
QUADRUPLE_LIMIT = 256


def energy_quadruple(a: SupportSet) -> int:
    """Count additive quadruples directly: for (x1,x2,x3) test x4 in A."""
    if len(a) > QUADRUPLE_LIMIT:
        raise CapacityError(
            f"quadruple count needs |A| <= {QUADRUPLE_LIMIT}, got {len(a)}"
        )
    n = a.params.modulus
    members = [v.coords for v in a]
    lookup = set(members)
    count = 0
    for x1 in members:
        for x2 in members:
            s = tuple((p + q) % n for p, q in zip(x1, x2))
            for x3 in members:
                x4 = tuple((p - q) % n for p, q in zip(s, x3))
                if x4 in lookup:
                    count += 1
    return count


def energy_fourier_check(a: SupportSet) -> float:
    """Floating cross-check N^d * sum_m |1hat_A(m)|^4 (unitary transform)."""
    a.params.require_dense("Fourier energy check")
    spec = spectral.indicator_spectrum(a)
    return float(a.params.size * np.sum(np.abs(spec.values) ** 4))
