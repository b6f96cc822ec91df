"""Points, subsets, and structured set generators for the group Z_N^d.

Everything here is exact integer arithmetic on coordinate arrays, and set
contents are kept sorted in lexicographic coordinate order so that outputs
are deterministic. A set stores its members once, as that sorted tuple of
points: membership bisects it, and its row-major flat indices come from
the one routine that also indexes cyclic subgroups. Only this module knows
how a set is stored: other modules turn sets into arrays and back only
through ``SupportSet.from_flat``, ``coords()`` and ``flat_indices()``.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import product
from operator import attrgetter, index
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import CapacityError, StructureError

# Dense enumerations of Z_N^d stop here; explicit small sets are unguarded.
DENSE_LIMIT = 2**24
# Points per block of the annihilator scan.
SCAN_BLOCK = 2**20


@dataclass(frozen=True)
class GroupParams:
    """Ambient group Z_N^d: integer modulus N >= 2 and dimension d >= 1."""

    modulus: int
    dimension: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "modulus", index(self.modulus))
        object.__setattr__(self, "dimension", index(self.dimension))
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")

    @property
    def size(self) -> int:
        """Number of points N^d."""
        return self.modulus**self.dimension

    def require_dense(self, what: str = "dense enumeration") -> None:
        if self.size > DENSE_LIMIT:
            raise CapacityError(
                f"{what} needs N^d <= {DENSE_LIMIT}, got N^d = {self.size}"
            )

    def vector(self, coords: Iterable[int]) -> RingVector:
        v = RingVector(tuple(coords), self.modulus)
        if len(v.coords) != self.dimension:
            raise ValueError(
                f"expected {self.dimension} coordinates, got {len(v.coords)}"
            )
        return v

    def from_flat(self, idx: int) -> RingVector:
        if not 0 <= idx < self.size:
            raise ValueError(f"flat index {idx} out of range for size {self.size}")
        coords = []
        for _ in range(self.dimension):
            coords.append(idx % self.modulus)
            idx //= self.modulus
        return RingVector(tuple(reversed(coords)), self.modulus)


@dataclass(frozen=True)
class RingVector:
    """A point of Z_N^d with canonical residues, a value for the edges and never an operand.

    The modulus and coordinates must be integers; any other value raises TypeError.
    """

    coords: tuple[int, ...]
    modulus: int

    def __post_init__(self) -> None:
        if type(self.modulus) is not int:  # skips a call per member of SupportSet.from_flat
            object.__setattr__(self, "modulus", index(self.modulus))
        if not self.coords:
            raise ValueError("a point needs at least one coordinate")
        if self.modulus < 2:
            raise ValueError(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(
            self, "coords", tuple(index(c) % self.modulus for c in self.coords)
        )

    @property
    def dimension(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class SupportSet:
    """A finite subset of Z_N^d, duplicate-free and lexicographically sorted.

    Construction normalizes: members may arrive in any order (with
    duplicates); they are canonicalized, deduplicated, and sorted.
    """

    params: GroupParams
    members: tuple[RingVector, ...]

    def __post_init__(self) -> None:
        seen: dict[tuple[int, ...], RingVector] = {}
        try:
            for v in self.members:
                if v.modulus != self.params.modulus or v.dimension != self.params.dimension:
                    raise ValueError("member does not live in the declared group")
                seen[v.coords] = v
        except AttributeError:  # caught once, so members pay no type check each
            raise TypeError("members must be points; use SupportSet.from_coords") from None
        object.__setattr__(self, "members", tuple(seen[c] for c in sorted(seen)))

    @classmethod
    def from_coords(
        cls, params: GroupParams, coords: Iterable[Iterable[int]]
    ) -> SupportSet:
        return cls(params, tuple(params.vector(c) for c in coords))

    @classmethod
    def from_flat(cls, params: GroupParams, flat: Iterable[int]) -> SupportSet:
        """The points at row-major indices in any order, repeats allowed, each in [0, N^d)."""
        flat = np.asarray(flat)
        if flat.ndim != 1:
            raise ValueError(f"flat indices must form a 1-D array, got shape {flat.shape}")
        if flat.size and flat.dtype.kind not in "iu":
            raise ValueError(f"flat indices must be integers, got dtype {flat.dtype}")
        return cls(params, tuple(params.from_flat(i) for i in flat.tolist()))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[RingVector]:
        return iter(self.members)

    def __contains__(self, v: object) -> bool:
        """Membership of a point, by bisecting the sorted members; anything else is absent."""
        try:
            coords, modulus = v.coords, v.modulus  # type: ignore[attr-defined]
        except AttributeError:
            return False
        i = bisect_left(self.members, coords, key=attrgetter("coords"))
        return (
            modulus == self.params.modulus
            and i < len(self.members)
            and self.members[i].coords == coords
        )

    def coords(self) -> np.ndarray:
        """Member coordinates as an (|A|, d) int64 array, in member order."""
        rows = [v.coords for v in self.members]
        return np.array(rows, dtype=np.int64).reshape(len(self), self.params.dimension)

    def flat_indices(self) -> np.ndarray:
        """Row-major indices of the members as int64 (ascending, since members are).

        Raises CapacityError when N^d - 1, the largest index, is past int64.
        """
        if self.params.size > 2**63:
            raise CapacityError(f"flat indices need N^d <= 2^63, got N^d = {self.params.size}")
        return _row_major(self.coords(), self.params)


def _row_major(rows: np.ndarray, params: GroupParams) -> np.ndarray:
    """Row-major flat indices of coordinate rows as int64, for N^d <= 2^63."""
    n, d = params.modulus, params.dimension
    # exact Python powers N^(d-1), ..., 1: a power of an int64 N could wrap
    place = np.array([n**k for k in range(d - 1, -1, -1)], dtype=np.int64)
    return rows @ place


def make_interval_grid(params: GroupParams, m: int) -> SupportSet:
    """The Cartesian power {0, ..., m-1}^d inside Z_N^d."""
    if not 1 <= m < params.modulus:
        raise ValueError(f"interval length must satisfy 1 <= m < N, got m={m}")
    return SupportSet.from_coords(
        params, product(range(m), repeat=params.dimension)
    )


def _cyclic_rows(n: int, g: tuple[int, ...]) -> np.ndarray:
    """The multiples k * g, k = 0, ..., order - 1, as rows of canonical residues mod n."""
    # With c = gcd(N, g) and g = c * u, g has order N / c and k * g = c * (k * u mod N / c).
    c = math.gcd(n, *g)
    order = n // c
    return np.arange(order)[:, None] * (np.array(g) // c) % order * c


def make_cyclic_subgroup(params: GroupParams, generator: RingVector) -> SupportSet:
    """The cyclic subgroup {k * g : k >= 0} generated by one element."""
    if generator.modulus != params.modulus:
        raise ValueError("generator does not live in the declared group")
    g = params.vector(generator.coords).coords
    return SupportSet.from_coords(params, _cyclic_rows(params.modulus, g).tolist())


def shift_set(a: SupportSet, t: RingVector) -> SupportSet:
    """Translate: {x + t : x in A}. Cardinality is preserved."""
    if t.modulus != a.params.modulus or t.dimension != a.params.dimension:
        raise ValueError("points live in different groups")
    return SupportSet.from_coords(a.params, (a.coords() + t.coords).tolist())


def is_subgroup(a: SupportSet) -> bool:
    """True iff A contains 0 and A + x = A (closure under addition) for every x in A."""
    rows = a.coords()
    if len(rows) == 0 or rows[0].any():  # the first row is the least one
        return False
    for x in rows[1:]:
        shifted = (rows + x) % a.params.modulus
        if not np.array_equal(shifted[np.lexsort(shifted.T[::-1])], rows):
            return False
    return True


def annihilator(h: SupportSet) -> SupportSet:
    """All frequencies m with m . x = 0 for every x in the subgroup H.

    Satisfies |H| * |annihilator(H)| = N^d. Raises StructureError when H
    is not a subgroup. Each block of the group is filtered by one member
    of H after another until it is empty.
    """
    if not is_subgroup(h):
        raise StructureError("annihilator requires a subgroup (0 in H, closed under +)")
    params = h.params
    params.require_dense("annihilator scan")
    members = h.coords()[1:]  # row 0 is the zero, which every m annihilates
    kept = []
    for start in range(0, params.size, SCAN_BLOCK):
        flat = np.arange(start, min(start + SCAN_BLOCK, params.size))
        rows = np.stack(np.unravel_index(flat, (params.modulus,) * params.dimension), axis=1)
        for x in members:
            if not flat.size:
                break
            keep = rows @ x % params.modulus == 0
            flat, rows = flat[keep], rows[keep]
        kept.append(flat)
    return SupportSet.from_flat(params, np.concatenate(kept))


def all_cyclic_subgroups(params: GroupParams) -> list[SupportSet]:
    """Every distinct subgroup generated by a single element, sorted by size."""
    params.require_dense("subgroup enumeration")
    n, d = params.modulus, params.dimension
    distinct: dict[bytes, np.ndarray] = {}
    for g in product(range(n), repeat=d):
        flat = np.sort(_row_major(_cyclic_rows(n, g), params))
        distinct.setdefault(flat.tobytes(), flat)
    ordered = sorted(distinct.values(), key=lambda flat: (len(flat), flat.tolist()))
    return [SupportSet.from_flat(params, flat) for flat in ordered]


def set_to_json_dict(a: SupportSet) -> dict:
    return {
        "N": a.params.modulus,
        "d": a.params.dimension,
        "members": a.coords().tolist(),
    }


def points_from_json(
    params: GroupParams, entries: list, label: str = "member"
) -> SupportSet:
    """The set of points listed in a file, each already a point of Z_N^d.

    Unlike ``SupportSet.from_coords``, coordinates are not reduced mod N:
    entries that are not a list, an entry with the wrong number of
    coordinates, or a coordinate that is not an integer in [0, N) (a
    boolean is not) raise ValueError naming the entry by ``label`` and position.
    """
    n, d = params.modulus, params.dimension
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{label} entries must form a list, got {entries!r}")
    for i, entry in enumerate(entries):
        if not (
            isinstance(entry, (list, tuple))
            and len(entry) == d
            and all(type(c) is int and 0 <= c < n for c in entry)
        ):
            raise ValueError(
                f"{label} {i} {entry!r} is not a point of Z_{n}^{d}:"
                f" expected {d} integer coordinates in [0, {n})"
            )
    return SupportSet.from_coords(params, entries)


def params_from_json(data: dict) -> GroupParams:
    """The group a file names by its integer keys ``N`` and ``d``.

    Raises ValueError when the file does not hold a JSON object or either
    key is not an integer.
    """
    if not isinstance(data, dict):
        raise ValueError(f"the file must hold a JSON object, got {type(data).__name__}")
    n, d = data["N"], data["d"]
    if not (type(n) is int and type(d) is int):  # a JSON boolean is no integer
        raise ValueError(f"N and d must be integers, got {n!r} and {d!r}")
    return GroupParams(n, d)


def set_from_json_dict(data: dict) -> SupportSet:
    """Parse a set file's contents; members must already be points of Z_N^d."""
    return points_from_json(params_from_json(data), data["members"])


def save_set(a: SupportSet, path: str | Path) -> None:
    Path(path).write_text(json.dumps(set_to_json_dict(a), indent=2) + "\n")


def load_set(path: str | Path) -> SupportSet:
    return set_from_json_dict(json.loads(Path(path).read_text()))
