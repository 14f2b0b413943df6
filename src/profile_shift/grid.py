"""Spatial domains and their uniform grid discretizations.

The domain is a 1D interval or a 2D box, optionally restricted by a cell
mask: a boolean raster with one entry per interior node, False where the
cell is removed (staircase approximation of non-rectangular, non-connected
or non-simply-connected regions).  Masked-out cells act as homogeneous
Dirichlet boundary, exactly like the outer box boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import BadResolution, EmptyInterior


@dataclass(frozen=True, eq=False)
class Domain:
    """Bounded spatial domain: 1D interval or 2D box, with an optional mask raster.

    Domains compare and hash by value: the dimension, the box, and the
    mask raster's shape and bytes.
    """

    dimension: int
    box: tuple[tuple[float, float], ...]
    mask: np.ndarray | None = None

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise BadResolution(f"dimension must be 1 or 2, got {self.dimension}")
        box = tuple((float(lo), float(hi)) for lo, hi in self.box)
        if len(box) != self.dimension:
            raise BadResolution(
                f"box must give one interval per axis ({self.dimension}), got {len(box)}"
            )
        for lo, hi in box:
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise BadResolution(f"box interval ({lo}, {hi}) must have finite endpoints")
            if not hi > lo:
                raise BadResolution(f"box interval ({lo}, {hi}) has nonpositive extent")
        object.__setattr__(self, "box", box)
        if self.mask is not None:
            # kept as a read-only bool array; a callable or a ragged list is refused
            try:
                raster = np.array(self.mask, dtype=bool)
            except (ValueError, TypeError) as exc:
                raise BadResolution(f"mask must be a boolean raster: {exc}") from exc
            if raster.ndim != self.dimension:
                raise BadResolution(
                    f"mask must be a boolean raster with {self.dimension} axes, "
                    f"got {type(self.mask).__name__} of shape {raster.shape}"
                )
            object.__setattr__(self, "mask", _read_only(raster))

    def _key(self) -> tuple:
        mask = None if self.mask is None else (self.mask.shape, self.mask.tobytes())
        return self.dimension, self.box, mask

    def __eq__(self, other):
        if not isinstance(other, Domain):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def extents(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in self.box)


def interval(lo: float = 0.0, hi: float = np.pi, mask=None) -> Domain:
    return Domain(1, ((lo, hi),), mask)


def box2d(
    x: tuple[float, float] = (0.0, np.pi),
    y: tuple[float, float] = (0.0, np.pi),
    mask=None,
) -> Domain:
    return Domain(2, (x, y), mask)


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid over a Domain's interior nodes.

    ``index_map`` has shape ``nodes_per_axis`` and holds the linear interior
    index of each node, or -1 where the mask removed the cell.  ``nodes``
    lists the multi-indices of the M interior nodes in index order, so the
    two arrays form a bijection between interior nodes and 0..M-1.
    ``coordinates()`` is computed once per grid and returned as a read-only
    array, shared by every caller; ``operators.assemble`` keeps the stencil's
    sparsity pattern on the grid the same way.
    """

    domain: Domain
    shape: tuple[int, ...]
    h: tuple[float, ...]
    index_map: np.ndarray
    nodes: np.ndarray

    @property
    def size(self) -> int:
        return self.nodes.shape[0]

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def cell_volume(self) -> float:
        vol = 1.0
        for step in self.h:
            vol *= step
        return vol

    def coordinates(self) -> np.ndarray:
        """Physical coordinates of interior nodes, shape (M, dimension), read-only."""
        return self._coordinates

    @cached_property
    def _coordinates(self) -> np.ndarray:
        lows = np.array([lo for lo, _ in self.domain.box])
        return _read_only(lows + (self.nodes + 1) * np.asarray(self.h))

    def neighbor(self, offset: Sequence[int]) -> np.ndarray:
        """Linear index of the node at ``offset`` from each interior node, or -1.

        Returns an int array of length M; -1 marks a neighbor on the box
        boundary or in a masked-out cell.
        """
        step = np.asarray(offset, dtype=np.int64)
        reach = int(np.abs(step).max())
        padded = np.pad(self.index_map, reach, constant_values=-1)
        return padded[tuple((self.nodes + reach + step).T)]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def build_grid(domain: Domain, nodes_per_axis: Sequence[int]) -> Grid:
    """Discretize a domain with the given interior-node counts per axis.

    Spacing is ``extent / (nodes + 1)`` per axis; the outermost node layer of
    the box is the Dirichlet boundary and is never stored.  Masked-out cells
    are likewise treated as Dirichlet boundary (staircase approximation).

    Raises BadResolution for a count below 1 or a mask raster whose shape is
    not the counts, and EmptyInterior if masking removes every node.
    """
    counts = tuple(int(n) for n in nodes_per_axis)
    if len(counts) != domain.dimension:
        raise BadResolution(
            f"expected {domain.dimension} per-axis counts, got {len(counts)}"
        )
    if any(n < 1 for n in counts):
        raise BadResolution(f"nodes_per_axis must be >= 1, got {counts}")

    h = tuple(ext / (n + 1) for ext, n in zip(domain.extents, counts))

    inside = np.ones(counts, dtype=bool) if domain.mask is None else domain.mask
    if inside.shape != counts:
        raise BadResolution(f"mask shape {inside.shape} does not match grid shape {counts}")

    count = int(inside.sum())
    if count == 0:
        raise EmptyInterior("mask leaves no interior node")

    index_map = np.full(counts, -1, dtype=np.int64)
    index_map[inside] = np.arange(count)
    nodes = np.argwhere(inside)
    return Grid(domain=domain, shape=counts, h=h, index_map=index_map, nodes=nodes)
