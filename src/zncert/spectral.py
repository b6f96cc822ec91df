"""Dense signals on Z_N^d and their discrete Fourier transforms.

Two normalization conventions are supported (unitary: N^{-d/2} in both
directions; analyst: 1 forward and N^{-d} inverse) together with either
exponent sign in the forward transform. The transform is the defining
dense sum: the N x N character matrix applied along each axis, evaluated
exactly (up to floating point) rather than by an FFT, whose different
roundoff would move report fields printed to 12 significant digits.
A matrix is built in bounded row blocks. It is symmetric bit for bit
(each entry is a function of m*x), so only the entries on and above each
block's diagonal are computed and the rest are mirrored. The transform
applies it along each axis with one BLAS product. The minus-sign matrix of
each modulus is built once per process and kept, read-only, in a
least-recently-used cache of at most ``CHARACTER_CACHE_BYTES``; a larger
matrix is built on every call and dropped. The plus-sign matrix is derived
from the minus-sign one on each call, and so is not kept. A modulus whose
matrix would exceed ``DENSE_LIMIT`` entries (N > 4096) is refused.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from pathlib import Path
import numpy as np

from .errors import CapacityError
from .lattice import DENSE_LIMIT, GroupParams, RingVector, SupportSet, params_from_json

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
        return complex(self.values[self.params.flat_index(v)])

    def l1_norm(self) -> float:
        return float(np.sum(np.abs(self.values)))

    def l2_norm_sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


#: Entries per row block of a character matrix under construction, which
#: bounds the temporaries of the build to a few blocks of this size.
CHARACTER_BLOCK = 1 << 14


def _character_matrix(n: int, sign: int) -> np.ndarray:
    """The character matrix W[m, x] = exp(sign*2*pi*i*m*x/n).

    Rows are written in blocks into one preallocated array. Each block
    computes its columns from its first row on, by the one-shot expression,
    and mirrors the part right of the block into the transpose: an entry
    depends only on the integer m*x, so W is symmetric and the bits match
    a one-shot build.
    """
    w = np.empty((n, n), dtype=np.complex128)
    cols = np.arange(n)
    step = max(1, CHARACTER_BLOCK // n)
    for start in range(0, n, step):
        stop = min(start + step, n)
        np.exp(
            sign * 2j * np.pi * np.outer(cols[start:stop], cols[start:]) / n,
            out=w[start:stop, start:],
        )
        w[stop:, start:stop] = w[start:stop, stop:].T
    return w


#: Total bytes of the minus-sign character matrices kept between calls:
#: 16 MiB holds N = 1024, or N = 256 and 512 together with the small ones.
CHARACTER_CACHE_BYTES = 1 << 24

# Minus-sign matrices by modulus, least recently used first.
_character_cache: dict[int, np.ndarray] = {}
_character_cache_lock = threading.Lock()


def _minus_character_matrix(n: int) -> np.ndarray:
    """``_character_matrix(n, -1)``, read-only, from the cache when it is there.

    A matrix that fits the byte budget is kept, evicting the least recently
    used ones until the kept bytes fit again; a larger one is returned
    without being kept. A matrix of more than ``DENSE_LIMIT`` entries is
    refused with CapacityError before anything is allocated.
    """
    if n * n > DENSE_LIMIT:
        raise CapacityError(
            f"dense transform needs N^2 <= {DENSE_LIMIT}, got N^2 = {n * n}"
        )
    with _character_cache_lock:
        w = _character_cache.pop(n, None)
        if w is not None:
            _character_cache[n] = w
            return w
    w = _character_matrix(n, -1)
    w.setflags(write=False)
    if w.nbytes <= CHARACTER_CACHE_BYTES:
        with _character_cache_lock:
            # another thread may have kept its own build of n meanwhile
            _character_cache.pop(n, None)
            _character_cache[n] = w
            kept = sum(m.nbytes for m in _character_cache.values())
            while kept > CHARACTER_CACHE_BYTES:
                kept -= _character_cache.pop(next(iter(_character_cache))).nbytes
    return w


def _character_matrices(n: int) -> dict[int, np.ndarray]:
    """Both signs' character matrices, keyed by sign, from one minus-sign matrix.

    The plus-sign matrix is the conjugate of the minus-sign one except for
    the sign of the imaginary zero at m*x = 0, which adding 0.0 makes
    positive, so its bits match ``_character_matrix(n, 1)``. It is a new,
    writable array; the minus-sign one is the cached, read-only matrix.
    """
    minus = _minus_character_matrix(n)
    plus = np.conj(minus)
    plus += 0.0
    return {-1: minus, 1: plus}


def _signed_character_matrix(n: int, sign: int) -> np.ndarray:
    """The character matrix of one sign, deriving only the one asked for."""
    return _minus_character_matrix(n) if sign == -1 else _character_matrices(n)[1]


def _apply_axis_transform(values: np.ndarray, params: GroupParams, w: np.ndarray) -> np.ndarray:
    """Apply a character matrix along every axis of the (N,)*d grid.

    Each axis is one BLAS product of W with the view that brings that axis
    to the front (the view ``moveaxis`` makes), the product ``tensordot``
    would form, so the bits match it. Returns a new array.
    """
    n, d = params.modulus, params.dimension
    if d == 1:
        return w @ values
    t = values.reshape((n,) * d)
    for axis in range(d):
        front = t.transpose(axis, *range(axis), *range(axis + 1, d))
        back = (*range(1, axis + 1), 0, *range(axis + 1, d))
        t = np.dot(w, front.reshape(n, -1)).reshape(front.shape).transpose(back)
    return t.reshape(-1)


def dft(f: Signal) -> Signal:
    """Forward transform under the signal's own convention."""
    w = _signed_character_matrix(f.params.modulus, f.convention.forward_sign)
    out = _apply_axis_transform(f.values, f.params, w)
    out *= f.convention.forward_scale(f.params)
    return Signal(f.params, out, f.convention, side=FREQUENCY)


def idft(spectrum: Signal) -> Signal:
    """Inverse transform; idft(dft(f)) reproduces f up to roundoff."""
    w = _signed_character_matrix(spectrum.params.modulus, -spectrum.convention.forward_sign)
    out = _apply_axis_transform(spectrum.values, spectrum.params, w)
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


def indicator(a: SupportSet, convention: Convention = UNITARY_MINUS) -> Signal:
    """The 0/1 indicator of a set, as a time-side signal."""
    vals = np.zeros(a.params.size, dtype=np.complex128)
    vals[a.flat_indices()] = 1.0
    return Signal(a.params, vals, convention, side=TIME)


def negation_permutation(params: GroupParams) -> np.ndarray:
    """Index permutation sending the value at m to the slot of -m."""
    shape = (params.modulus,) * params.dimension
    coords = np.unravel_index(np.arange(params.size), shape)
    return np.ravel_multi_index(tuple(-c % params.modulus for c in coords), shape)


def signal_to_json_dict(sig: Signal) -> dict:
    return {
        "N": sig.params.modulus,
        "d": sig.params.dimension,
        "convention": {
            "normalization": sig.convention.normalization,
            "exponent_sign": sig.convention.exponent_sign,
        },
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

