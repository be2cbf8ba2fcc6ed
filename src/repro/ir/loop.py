"""Loop-nest building blocks: iterators and stages.

A :class:`Stage` is the schedulable unit corresponding to one operation of
the computation DAG.  It holds a tuple of :class:`Iterator` objects (the
loop nest, outermost first) plus a *compute location* describing where the
stage's loop nest is placed (at root, inlined into its consumer, or nested
at a given loop of another stage).

Stages, iterators and compute locations are values: nothing writes them
after construction.  A transform step puts a new version of the stage it
changes into its state (:meth:`Stage.replace`), and that version shares
every iterator the step left alone.  So states share stages freely: a
copied state and a child bred from a parent hold the very same objects.

Iterators remember which original axes they derive from and with what
stride.  That bookkeeping is what lets the lowering pass reconstruct memory
access strides after arbitrary split / fuse / reorder sequences.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..te.operation import ComputeOp, Operation, PlaceholderOp
from ..te.tensor import IterVar

__all__ = ["Iterator", "Stage", "ComputeLocation"]

# Annotation kinds an iterator may carry.
ANNOTATIONS = ("none", "parallel", "vectorize", "unroll")


class Iterator:
    """One loop of a stage's loop nest (a value: see the module docstring).

    Attributes
    ----------
    name:
        Display name, e.g. ``"i.0"`` after splitting axis ``i``.
    extent:
        Loop trip count.
    kind:
        ``"spatial"``, ``"reduce"`` or ``"mixed"`` (result of fusing a
        spatial and a reduction iterator, which we disallow, but fused
        spatial iterators keep ``"spatial"``).
    annotation:
        One of :data:`ANNOTATIONS`.
    axis_strides:
        Mapping from original axis name to the step this iterator advances
        that axis per iteration.  A split of axis ``i`` (extent 512) into
        ``i.0``/``i.1`` of extents 8/64 gives ``i.0 -> {"i": 64}`` and
        ``i.1 -> {"i": 1}``.
    """

    __slots__ = ("name", "extent", "kind", "annotation", "axis_strides")

    def __init__(
        self,
        name: str,
        extent: int,
        kind: str,
        annotation: str = "none",
        axis_strides: Optional[Dict[str, int]] = None,
    ):
        if extent <= 0:
            raise ValueError(f"iterator {name!r} must have positive extent, got {extent}")
        if annotation not in ANNOTATIONS:
            raise ValueError(f"unknown annotation {annotation!r}")
        self.name = name
        self.extent = int(extent)
        self.kind = kind
        self.annotation = annotation
        self.axis_strides = dict(axis_strides or {})

    def copy(self) -> "Iterator":
        """A private duplicate, for lowering to shrink to a tile."""
        return Iterator(self.name, self.extent, self.kind, self.annotation, dict(self.axis_strides))

    def is_spatial(self) -> bool:
        return self.kind == "spatial"

    def is_reduce(self) -> bool:
        return self.kind == "reduce"

    def __repr__(self) -> str:
        ann = f", {self.annotation}" if self.annotation != "none" else ""
        return f"Iterator({self.name}<{self.extent}>{ann})"


class ComputeLocation:
    """Where a stage's loop nest is placed (a value: see the module
    docstring)."""

    ROOT = "root"
    INLINED = "inlined"
    AT = "at"

    __slots__ = ("kind", "target_stage", "target_iter")

    def __init__(self, kind: str = ROOT, target_stage: Optional[str] = None, target_iter: int = -1):
        self.kind = kind
        self.target_stage = target_stage
        self.target_iter = target_iter

    @classmethod
    def root(cls) -> "ComputeLocation":
        return cls(cls.ROOT)

    @classmethod
    def inlined(cls) -> "ComputeLocation":
        return cls(cls.INLINED)

    @classmethod
    def at(cls, stage_name: str, iter_index: int) -> "ComputeLocation":
        return cls(cls.AT, stage_name, iter_index)

    def __repr__(self) -> str:
        if self.kind == self.AT:
            return f"ComputeLocation(at {self.target_stage}[{self.target_iter}])"
        return f"ComputeLocation({self.kind})"


_ROOT = ComputeLocation.root()


class Stage:
    """The schedulable loop nest of one operation (a value: see the module
    docstring).  ``iters`` is a tuple, so an in-place edit fails loudly."""

    __slots__ = ("name", "op", "iters", "compute_location", "auto_unroll_max_step", "is_cache_stage", "is_rfactor_stage")

    def __init__(
        self,
        name: str,
        op: Operation,
        iters: Sequence[Iterator],
        compute_location: ComputeLocation = _ROOT,
        auto_unroll_max_step: int = 0,
        is_cache_stage: bool = False,
        is_rfactor_stage: bool = False,
    ):
        self.name = name
        self.op = op
        self.iters = tuple(iters)
        self.compute_location = compute_location
        self.auto_unroll_max_step = auto_unroll_max_step
        self.is_cache_stage = is_cache_stage
        self.is_rfactor_stage = is_rfactor_stage

    # ------------------------------------------------------------------
    @classmethod
    def from_op(cls, op: Operation, **fields) -> "Stage":
        """Create the naive stage for an operation (one loop per axis);
        ``fields`` are the other constructor arguments."""
        iters: List[Iterator] = []
        if isinstance(op, ComputeOp):
            for ax in op.axes:
                iters.append(Iterator(ax.name, ax.extent, "spatial", axis_strides={ax.name: 1}))
            for ax in op.reduce_axes:
                iters.append(Iterator(ax.name, ax.extent, "reduce", axis_strides={ax.name: 1}))
        return cls(op.name, op, iters, **fields)

    def replace(
        self,
        iters: Optional[Sequence[Iterator]] = None,
        compute_location: Optional[ComputeLocation] = None,
        auto_unroll_max_step: Optional[int] = None,
    ) -> "Stage":
        """A new version of this stage with the given fields changed; it
        shares everything else with this one."""
        return Stage(
            self.name,
            self.op,
            self.iters if iters is None else iters,
            self.compute_location if compute_location is None else compute_location,
            self.auto_unroll_max_step if auto_unroll_max_step is None else auto_unroll_max_step,
            self.is_cache_stage,
            self.is_rfactor_stage,
        )

    # ------------------------------------------------------------------
    def is_placeholder(self) -> bool:
        return isinstance(self.op, PlaceholderOp)

    def is_inlined(self) -> bool:
        return self.compute_location.kind == ComputeLocation.INLINED

    def iter_index(self, name: str) -> int:
        for idx, it in enumerate(self.iters):
            if it.name == name:
                return idx
        raise KeyError(f"stage {self.name!r} has no iterator named {name!r}")

    def spatial_iters(self) -> List[Iterator]:
        return [it for it in self.iters if it.is_spatial()]

    def reduce_iters(self) -> List[Iterator]:
        return [it for it in self.iters if it.is_reduce()]

    def iteration_count(self) -> int:
        total = 1
        for it in self.iters:
            total *= it.extent
        return total

    def original_axis_extents(self) -> Dict[str, int]:
        """Extent of each original axis covered by this stage's iterators."""
        extents: Dict[str, int] = {}
        if isinstance(self.op, ComputeOp):
            for ax in self.op.axes + self.op.reduce_axes:
                extents[ax.name] = ax.extent
        return extents

    def __repr__(self) -> str:
        loc = ""
        if self.compute_location.kind != ComputeLocation.ROOT:
            loc = f" @{self.compute_location}"
        return f"Stage({self.name}, iters={len(self.iters)}{loc})"
