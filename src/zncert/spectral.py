"""Dense signals on Z_N^d and their discrete Fourier transforms.

Two normalization conventions are supported (unitary: N^{-d/2} in both
directions; analyst: 1 forward and N^{-d} inverse) together with either
exponent sign in the forward transform. Up to N = ``DENSE_MAX_MODULUS``
the transform is the defining dense sum, the N x N character matrix applied
along each axis with one BLAS product, so its bits are those of the
one-shot matrix product the reports were pinned with; both signs' matrices
of each such modulus are built once per process and kept, read-only.
Above it the transform is numpy's one-axis FFT along each axis in turn,
which builds no matrix, so no modulus is refused. Either route takes one
vector or a stack of them, one per row, and gives each row the bits it has
alone. Values are stored flat in row-major order and read at a point
through the (N,)*d grid by its coordinate tuple; indicators of sets are in
the default convention.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .lattice import GroupParams, RingVector, SupportSet, params_from_json

TIME = "time"
FREQUENCY = "frequency"

_NORMALIZATIONS = ("unitary", "analyst")
_SIGNS = ("minus-forward", "plus-forward")


@dataclass(frozen=True)
class Convention:
    """Transform convention: normalization pair plus forward exponent sign."""

    normalization: str = "unitary"
    exponent_sign: str = "minus-forward"

    def __post_init__(self) -> None:
        if self.normalization not in _NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if self.exponent_sign not in _SIGNS:
            raise ValueError(f"unknown exponent sign {self.exponent_sign!r}")

    @property
    def forward_sign(self) -> int:
        return -1 if self.exponent_sign == "minus-forward" else 1

    def forward_scale(self, params: GroupParams) -> float:
        if self.normalization == "unitary":
            return params.size ** -0.5
        return 1.0

    def inverse_scale(self, params: GroupParams) -> float:
        if self.normalization == "unitary":
            return params.size ** -0.5
        return 1.0 / params.size


#: Default convention: unitary normalization, minus sign in the forward sum.
UNITARY_MINUS = Convention("unitary", "minus-forward")
#: The convention that reproduces the four-point walkthrough's spectrum list.
ANALYST_PLUS = Convention("analyst", "plus-forward")


@dataclass(frozen=True)
class Signal:
    """A complex-valued function on Z_N^d stored densely in row-major order.

    ``side`` records whether the values are point-side ("time") or
    frequency-side ("frequency"); a recovery problem is built only from a
    frequency-side spectrum. Values are immutable after construction.
    """

    params: GroupParams
    values: np.ndarray
    convention: Convention = UNITARY_MINUS
    side: str = TIME

    def __post_init__(self) -> None:
        vals = np.array(self.values, dtype=np.complex128).reshape(-1)
        if vals.size != self.params.size:
            raise ValueError(
                f"expected {self.params.size} values, got {vals.size}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("signal values must be finite (no NaN or inf)")
        if self.side not in (TIME, FREQUENCY):
            raise ValueError(f"unknown side {self.side!r}")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def value_at(self, v: RingVector) -> complex:
        if v.modulus != self.params.modulus or v.dimension != self.params.dimension:
            raise ValueError("point lives in a different group")
        grid = self.values.reshape((self.params.modulus,) * self.params.dimension)
        return complex(grid[v.coords])

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)))

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


#: The largest modulus whose transforms are the dense character-matrix sum;
#: above it they are a one-axis FFT per axis. Two reasons put the line here.
#: Bits: the pinned reports run at N <= 25 and the exact-bit solver tests at
#: N <= 31, and an FFT moves roundoff that the reports print to 12
#: significant digits. Speed: with one BLAS thread the dense sum is also the
#: faster route up to here, against the per-axis FFT too (about 2.2 us
#: against 5.9 us per transform on Z_32, 112 us against 122 us on Z_16^3,
#: timeit minima on a 2-CPU x86-64 host), and the FFT wins from Z_64^2
#: (74 us against 107 us) and Z_256 on.
DENSE_MAX_MODULUS = 32

# Character matrices by (modulus, sign), for moduli up to DENSE_MAX_MODULUS:
# at most 62 matrices of at most 1024 entries, under 0.4 MB together.
_character_memo: dict[tuple[int, int], np.ndarray] = {}


def _character_matrix(n: int, sign: int) -> np.ndarray:
    """The character matrix W[m, x] = exp(sign*2*pi*i*m*x/n), read-only.

    Built once per (n, sign) by the one-shot expression and kept. Two
    threads that miss together each build it, with the same bits, and one
    of the two is kept.
    """
    w = _character_memo.get((n, sign))
    if w is None:
        w = np.exp(sign * 2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
        w.setflags(write=False)
        _character_memo[(n, sign)] = w
    return w


def _apply_axis_transform(values: np.ndarray, params: GroupParams, w: np.ndarray) -> np.ndarray:
    """Apply a character matrix along every axis of the (N,)*d grid.

    ``values`` is one row-major vector or a (B, N^d) stack of them. Each
    axis is one ``matmul`` of W over the stack, with the view that brings
    that axis to the front of each row (the view ``moveaxis`` makes). Per
    row that is the BLAS product ``tensordot`` would form, a matrix-vector
    product when d = 1 and a matrix-matrix one otherwise, so every row has
    the bits it has alone and the bits of ``tensordot``. Returns a new array
    of the input's shape.
    """
    n, d = params.modulus, params.dimension
    if d == 1:
        return np.matmul(w, values[..., None]).reshape(values.shape)
    t = values.reshape(-1, *(n,) * d)
    for axis in range(1, d + 1):
        front = t.transpose(0, axis, *range(1, axis), *range(axis + 1, d + 1))
        back = (0, *range(2, axis + 1), 1, *range(axis + 1, d + 1))
        t = np.matmul(w, front.reshape(len(t), n, -1)).reshape(front.shape).transpose(back)
    return t.reshape(values.shape)


def _transform(params: GroupParams, sign: int) -> Callable[[np.ndarray], np.ndarray]:
    """The unnormalised transform with exponent ``sign`` on the (N,)*d grid.

    The returned function takes one row-major vector or a (B, N^d) stack of
    them and returns a new array of the same shape, each row with the bits
    it has alone: the dense character-matrix sum when N <= DENSE_MAX_MODULUS,
    an FFT otherwise. The FFT is numpy's one-axis ``fft`` for the minus sign
    and ``ifft`` with ``norm="forward"``, which leaves the plus-sign sum
    unscaled, for the plus sign, along the grid's axes last axis first: the
    calls ``fftn`` and ``ifftn`` make, without their argument handling.
    """
    n, d = params.modulus, params.dimension
    if n <= DENSE_MAX_MODULUS:
        w = _character_matrix(n, sign)
        return lambda values: _apply_axis_transform(values, params, w)
    norm = "backward" if sign == -1 else "forward"
    fft = np.fft.fft if sign == -1 else np.fft.ifft

    def transform(values: np.ndarray) -> np.ndarray:
        t = values.reshape(*values.shape[:-1], *(n,) * d)
        for axis in range(-1, -d - 1, -1):
            t = fft(t, axis=axis, norm=norm)
        return t.reshape(values.shape)

    return transform


def dft(f: Signal) -> Signal:
    """Forward transform under the signal's own convention."""
    out = _transform(f.params, f.convention.forward_sign)(f.values)
    out *= f.convention.forward_scale(f.params)
    return Signal(f.params, out, f.convention, side=FREQUENCY)


def idft(spectrum: Signal) -> Signal:
    """Inverse transform; idft(dft(f)) reproduces f up to roundoff."""
    out = _transform(spectrum.params, -spectrum.convention.forward_sign)(spectrum.values)
    out *= spectrum.convention.inverse_scale(spectrum.params)
    return Signal(spectrum.params, out, spectrum.convention, side=TIME)


def default_threshold(values: np.ndarray) -> float:
    peak = float(np.max(np.abs(values))) if values.size else 0.0
    return 1e-9 * peak


def support_of(f: Signal, tau: float | None = None) -> SupportSet:
    """The set {x : |f(x)| > tau}; tau defaults to 1e-9 * max|f|."""
    if tau is None:
        tau = default_threshold(f.values)
    if not tau >= 0:
        raise ValueError(f"threshold must be nonnegative, got {tau}")
    return SupportSet.from_flat(f.params, np.flatnonzero(np.abs(f.values) > tau))


def random_signal(
    params: GroupParams,
    rng: np.random.Generator,
    support_size: int | None = None,
) -> Signal:
    """Complex Gaussian values on a uniformly random support.

    The support size is drawn from 1..N^d unless given.
    """
    size = support_size if support_size is not None else int(rng.integers(1, params.size + 1))
    values = np.zeros(params.size, dtype=np.complex128)
    if size:
        idx = rng.choice(params.size, size=size, replace=False)
        values[idx] = rng.normal(size=size) + 1j * rng.normal(size=size)
    return Signal(params, values)


def indicator(a: SupportSet) -> Signal:
    """The 0/1 indicator of a set, as a time-side signal in the default convention."""
    vals = np.zeros(a.params.size, dtype=np.complex128)
    vals[a.flat_indices()] = 1.0
    return Signal(a.params, vals)


def negation_permutation(params: GroupParams) -> np.ndarray:
    """Index permutation sending the value at m to the slot of -m."""
    shape = (params.modulus,) * params.dimension
    coords = np.unravel_index(np.arange(params.size), shape)
    return np.ravel_multi_index(tuple(-c % params.modulus for c in coords), shape)


def signal_to_json_dict(sig: Signal) -> dict:
    return {
        "N": sig.params.modulus,
        "d": sig.params.dimension,
        "convention": asdict(sig.convention),
        "side": sig.side,
        "values": [[float(v.real), float(v.imag)] for v in sig.values],
    }


def signal_from_json_dict(data: dict, side: str = TIME) -> Signal:
    """Parse a signal file's contents; ``side`` applies when the file names none."""
    params = params_from_json(data)
    conv_data = data.get("convention", {})
    if not isinstance(conv_data, dict):
        raise ValueError(f"convention must be a JSON object, got {conv_data!r}")
    convention = Convention(
        conv_data.get("normalization", "unitary"),
        conv_data.get("exponent_sign", "minus-forward"),
    )
    entries = data["values"]
    if not isinstance(entries, list):
        raise ValueError(f"values must be a list of [re, im] pairs, got {entries!r}")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == 2
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in entry)
        ):
            raise ValueError(f"value {i} {entry!r} is not an [re, im] pair of numbers")
    values = np.array([complex(re, im) for re, im in entries])
    return Signal(params, values, convention, side=data.get("side", side))


def save_signal(sig: Signal, path: str | Path) -> None:
    Path(path).write_text(json.dumps(signal_to_json_dict(sig), indent=2) + "\n")


def load_signal(path: str | Path) -> Signal:
    return signal_from_json_dict(json.loads(Path(path).read_text()))

