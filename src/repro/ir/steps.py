"""Transform steps: the rewriting history of a program.

Every schedule decision Ansor makes is recorded as a *transform step*.  A
program (:class:`~repro.ir.state.State`) is fully described by its
computation DAG plus the ordered list of steps applied to the initial naive
program.  This is exactly the "complete rewriting history" the paper uses as
the genes for node-based crossover (§5.1) and what the tuning-log records
serialize.

Steps reference stages by *name* (stable across stage insertion) and
iterators by *index at application time* (stable because replay happens in
the original order).

Applying a step never edits a stage: it puts a new version of each stage it
changes into the state (:meth:`~repro.ir.loop.Stage.replace`), so states
that share a stage never see each other's steps.

Split steps may carry ``None`` placeholders as lengths: sketches (§4.1) fix
the tile *structure* but not the tile *sizes*; the random annotation pass
(§4.2) and the evolution operators (§5.1) fill in or mutate the concrete
lengths and replay the steps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..te.expr import Reduce, TensorRead
from ..te.operation import ComputeOp
from ..te.tensor import IterVar, Tensor
from .loop import ComputeLocation, Iterator, Stage

__all__ = [
    "Step",
    "SplitStep",
    "FuseStep",
    "ReorderStep",
    "AnnotationStep",
    "PragmaStep",
    "ComputeAtStep",
    "ComputeInlineStep",
    "ComputeRootStep",
    "CacheWriteStep",
    "RfactorStep",
    "step_from_dict",
    "STEP_REGISTRY",
]


class Step:
    """Base class of all transform steps."""

    #: short identifier used in serialized records
    kind = "step"

    def apply_to(self, state) -> None:
        """Put new versions of the stages this step changes into ``state``."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "Step":
        raise NotImplementedError

    def copy(self) -> "Step":
        """An unapplied duplicate: the same fields, list fields copied."""
        fields = self.__dict__.copy()
        for name, value in fields.items():
            if type(value) is list:
                fields[name] = value[:]
        new = object.__new__(type(self))
        new.__dict__ = fields
        return new

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items() if k != "kind")
        return f"{type(self).__name__}({items})"


STEP_REGISTRY: Dict[str, Type[Step]] = {}


def _register(cls: Type[Step]) -> Type[Step]:
    STEP_REGISTRY[cls.kind] = cls
    return cls


def step_from_dict(data: dict) -> Step:
    """Deserialize a step from its dictionary form."""
    kind = data["kind"]
    if kind not in STEP_REGISTRY:
        raise ValueError(f"unknown step kind {kind!r}")
    return STEP_REGISTRY[kind].from_dict(data)


def _product(values: Sequence[int]) -> int:
    total = 1
    for v in values:
        total *= v
    return total


@_register
class SplitStep(Step):
    """Split one iterator into ``1 + len(lengths)`` nested iterators.

    ``lengths`` are the extents of the inner parts (innermost last); the
    outer part gets ``extent // product(lengths)``.  A ``None`` length is a
    placeholder (treated as 1 until the annotation pass fills it in).

    Applying the step records the split iterator's extent as ``extent``
    (``None`` until then), so tile-size mutation can derive the outer part
    without replaying the steps before it.  The extent follows from the
    steps before this one, so it stays out of :meth:`to_dict` (and with it
    the state's fingerprint) and :meth:`copy` returns an unapplied step.
    """

    kind = "split"

    def __init__(self, stage_name: str, iter_id: int, lengths: Sequence[Optional[int]]):
        self.stage_name = stage_name
        self.iter_id = int(iter_id)
        self.lengths: List[Optional[int]] = list(lengths)
        self.extent: Optional[int] = None

    @property
    def is_placeholder(self) -> bool:
        return any(l is None for l in self.lengths)

    def concrete_lengths(self) -> List[int]:
        return [1 if l is None else int(l) for l in self.lengths]

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        if not (0 <= self.iter_id < len(stage.iters)):
            raise IndexError(f"split: iterator index {self.iter_id} out of range in stage {self.stage_name!r}")
        it = stage.iters[self.iter_id]
        lengths = self.concrete_lengths()
        inner_product = _product(lengths)
        if inner_product <= 0 or it.extent % inner_product != 0:
            raise ValueError(
                f"split lengths {lengths} do not divide extent {it.extent} of {it.name!r}"
            )
        self.extent = it.extent
        outer_extent = it.extent // inner_product
        extents = [outer_extent] + lengths
        new_iters: List[Iterator] = []
        for part, extent in enumerate(extents):
            # Stride of this part in terms of the original axes: the product
            # of all parts nested inside it.
            inner_factor = _product(extents[part + 1:])
            strides = {axis: base * inner_factor for axis, base in it.axis_strides.items()}
            new_iters.append(
                Iterator(f"{it.name}.{part}", extent, it.kind, "none", strides)
            )
        iters = stage.iters
        state.stages[index] = stage.replace(
            iters=iters[:self.iter_id] + tuple(new_iters) + iters[self.iter_id + 1:]
        )
        state.shift_attached_iters(self.stage_name, self.iter_id, len(new_iters) - 1)

    def copy(self) -> "SplitStep":
        return SplitStep(self.stage_name, self.iter_id, self.lengths)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "iter": self.iter_id, "lengths": list(self.lengths)}

    @classmethod
    def from_dict(cls, data: dict) -> "SplitStep":
        return cls(data["stage"], data["iter"], data["lengths"])


@_register
class FuseStep(Step):
    """Fuse a run of consecutive iterators into a single iterator."""

    kind = "fuse"

    def __init__(self, stage_name: str, iter_ids: Sequence[int]):
        ids = sorted(int(i) for i in iter_ids)
        if len(ids) < 2:
            raise ValueError("fuse needs at least two iterators")
        for a, b in zip(ids, ids[1:]):
            if b != a + 1:
                raise ValueError(f"fuse requires consecutive iterators, got {ids}")
        self.stage_name = stage_name
        self.iter_ids = ids

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        if self.iter_ids[-1] >= len(stage.iters):
            raise IndexError(f"fuse: iterator indices {self.iter_ids} out of range in {self.stage_name!r}")
        parts = [stage.iters[i] for i in self.iter_ids]
        kinds = {p.kind for p in parts}
        if kinds == {"spatial"}:
            kind = "spatial"
        elif kinds == {"reduce"}:
            kind = "reduce"
        else:
            raise ValueError("cannot fuse spatial and reduction iterators together")
        extent = _product(p.extent for p in parts)
        # The innermost part dominates the access stride of the fused loop.
        strides: Dict[str, int] = {}
        for part in parts:
            for axis, stride in part.axis_strides.items():
                strides.setdefault(axis, stride)
        for axis, stride in parts[-1].axis_strides.items():
            strides[axis] = stride
        name = "@".join(p.name for p in parts)
        fused = Iterator(name, extent, kind, "none", strides)
        first = self.iter_ids[0]
        iters = stage.iters
        state.stages[index] = stage.replace(iters=iters[:first] + (fused,) + iters[self.iter_ids[-1] + 1:])
        state.shift_attached_iters(self.stage_name, first, -(len(parts) - 1))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "iters": list(self.iter_ids)}

    @classmethod
    def from_dict(cls, data: dict) -> "FuseStep":
        return cls(data["stage"], data["iters"])


@_register
class ReorderStep(Step):
    """Permute the iterators of a stage.  ``order`` is the new order given as
    indices into the current iterator list."""

    kind = "reorder"

    def __init__(self, stage_name: str, order: Sequence[int]):
        self.stage_name = stage_name
        self.order = [int(i) for i in order]

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        if sorted(self.order) != list(range(len(stage.iters))):
            raise ValueError(
                f"reorder of stage {self.stage_name!r} must be a permutation of "
                f"0..{len(stage.iters) - 1}, got {self.order}"
            )
        state.stages[index] = stage.replace(iters=[stage.iters[i] for i in self.order])
        order = list(self.order)
        state.remap_attached_iters(self.stage_name, lambda old: order.index(old) if old in order else old)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "order": list(self.order)}

    @classmethod
    def from_dict(cls, data: dict) -> "ReorderStep":
        return cls(data["stage"], data["order"])


@_register
class AnnotationStep(Step):
    """Annotate one iterator with parallel / vectorize / unroll."""

    kind = "annotate"

    def __init__(self, stage_name: str, iter_id: int, annotation: str):
        self.stage_name = stage_name
        self.iter_id = int(iter_id)
        self.annotation = annotation

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        if not (0 <= self.iter_id < len(stage.iters)):
            raise IndexError(f"annotate: iterator index {self.iter_id} out of range in {self.stage_name!r}")
        iters = stage.iters
        it = iters[self.iter_id]
        annotated = Iterator(it.name, it.extent, it.kind, self.annotation, it.axis_strides)
        state.stages[index] = stage.replace(iters=iters[:self.iter_id] + (annotated,) + iters[self.iter_id + 1:])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "iter": self.iter_id, "annotation": self.annotation}

    @classmethod
    def from_dict(cls, data: dict) -> "AnnotationStep":
        return cls(data["stage"], data["iter"], data["annotation"])


@_register
class PragmaStep(Step):
    """Set a stage-level pragma, currently only ``auto_unroll_max_step``."""

    kind = "pragma"

    def __init__(self, stage_name: str, pragma: str, value: int):
        self.stage_name = stage_name
        self.pragma = pragma
        self.value = int(value)

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        if self.pragma != "auto_unroll_max_step":
            raise ValueError(f"unknown pragma {self.pragma!r}")
        state.stages[index] = state.stages[index].replace(auto_unroll_max_step=self.value)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "pragma": self.pragma, "value": self.value}

    @classmethod
    def from_dict(cls, data: dict) -> "PragmaStep":
        return cls(data["stage"], data["pragma"], data["value"])


@_register
class ComputeAtStep(Step):
    """Attach a stage's computation at a loop of another stage."""

    kind = "compute_at"

    def __init__(self, stage_name: str, target_stage: str, target_iter: int):
        self.stage_name = stage_name
        self.target_stage = target_stage
        self.target_iter = int(target_iter)

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        target = state.stage(self.target_stage)
        if not (0 <= self.target_iter < len(target.iters)):
            raise IndexError(
                f"compute_at: iterator index {self.target_iter} out of range in {self.target_stage!r}"
            )
        state.stages[index] = state.stages[index].replace(
            compute_location=ComputeLocation.at(self.target_stage, self.target_iter)
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "stage": self.stage_name,
            "target": self.target_stage,
            "target_iter": self.target_iter,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ComputeAtStep":
        return cls(data["stage"], data["target"], data["target_iter"])


@_register
class ComputeInlineStep(Step):
    """Inline a stage into its consumers."""

    kind = "compute_inline"

    def __init__(self, stage_name: str):
        self.stage_name = stage_name

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        state.stages[index] = state.stages[index].replace(compute_location=ComputeLocation.inlined())

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name}

    @classmethod
    def from_dict(cls, data: dict) -> "ComputeInlineStep":
        return cls(data["stage"])


@_register
class ComputeRootStep(Step):
    """Move a stage back to the root of the program."""

    kind = "compute_root"

    def __init__(self, stage_name: str):
        self.stage_name = stage_name

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        state.stages[index] = state.stages[index].replace(compute_location=ComputeLocation.root())

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name}

    @classmethod
    def from_dict(cls, data: dict) -> "ComputeRootStep":
        return cls(data["stage"])


@_register
class CacheWriteStep(Step):
    """Add a cache-write stage for a stage (Table 1, rule 5).

    The computation of ``stage`` moves into a new stage named
    ``"<stage>.cache"`` which writes a small cache block; the original stage
    becomes a plain copy of the cache block into the output buffer.  The
    cache stage is a fusible producer of the original stage, which lets rule
    4 (multi-level tiling with fusion) apply next.
    """

    kind = "cache_write"

    def __init__(self, stage_name: str):
        self.stage_name = stage_name

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        op = stage.op
        if not isinstance(op, ComputeOp):
            raise ValueError(f"cache_write target {self.stage_name!r} is not a compute op")
        cache_name = f"{op.name}.cache"
        if state.has_stage(cache_name):
            raise ValueError(f"stage {self.stage_name!r} already has a cache stage")
        cache_op = ComputeOp(
            cache_name,
            axes=list(op.axes),
            reduce_axes=list(op.reduce_axes),
            body=op.body,
            tag=op.tag,
            attrs=dict(op.attrs),
        )
        copy_axes = [IterVar(f"{ax.name}.c", ax.extent) for ax in op.axes]
        copy_body = TensorRead(cache_op.output, [ax.var for ax in copy_axes])
        copy_op = ComputeOp(op.name, axes=copy_axes, reduce_axes=[], body=copy_body, tag="cache_copy")

        cache_stage = Stage.from_op(cache_op, is_cache_stage=True)
        copy_stage = Stage.from_op(copy_op, compute_location=stage.compute_location)
        state.stages[index:index + 1] = [cache_stage, copy_stage]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name}

    @classmethod
    def from_dict(cls, data: dict) -> "CacheWriteStep":
        return cls(data["stage"])


@_register
class RfactorStep(Step):
    """Factorize a reduction iterator into a new spatial stage (Table 1, rule 6).

    The chosen reduction iterator of ``stage`` becomes a spatial axis of a
    new stage named ``"<stage>.rf"``; the original stage then only reduces
    over that factored axis.  This exposes reduction parallelism (rfactor of
    Suriana et al., cited as [42] in the paper).
    """

    kind = "rfactor"

    def __init__(self, stage_name: str, iter_id: int):
        self.stage_name = stage_name
        self.iter_id = int(iter_id)

    def apply_to(self, state) -> None:
        index = state.stage_index(self.stage_name)
        stage = state.stages[index]
        op = stage.op
        if not isinstance(op, ComputeOp):
            raise ValueError(f"rfactor target {self.stage_name!r} is not a compute op")
        if not (0 <= self.iter_id < len(stage.iters)):
            raise IndexError(f"rfactor: iterator index {self.iter_id} out of range in {self.stage_name!r}")
        factored = stage.iters[self.iter_id]
        if not factored.is_reduce():
            raise ValueError("rfactor must be applied to a reduction iterator")
        rf_name = f"{op.name}.rf"
        if state.has_stage(rf_name):
            raise ValueError(f"stage {self.stage_name!r} already has an rfactor stage")

        factored_axis = IterVar(factored.name.replace(".", "_"), factored.extent)
        rf_axes = list(op.axes) + [factored_axis]
        # Remaining reduction axes: the op-level reduction axes, scaled so the
        # total reduction work is preserved.
        remaining_extent = 1
        for it in stage.reduce_iters():
            remaining_extent *= it.extent
        remaining_extent //= factored.extent
        rf_reduce_axes: List[IterVar] = []
        if remaining_extent > 1:
            rf_reduce_axes = [IterVar(f"{op.name}_rk", remaining_extent, IterVar.REDUCE)]
        if isinstance(op.body, Reduce):
            rf_body = Reduce(op.body.combiner, op.body.value, rf_reduce_axes, op.body.init)
        else:
            rf_body = op.body
        rf_op = ComputeOp(rf_name, axes=rf_axes, reduce_axes=rf_reduce_axes, body=rf_body, tag=op.tag)

        final_reduce = IterVar(f"{factored_axis.name}.v", factored.extent, IterVar.REDUCE)
        final_body = Reduce(
            op.body.combiner if isinstance(op.body, Reduce) else "sum",
            TensorRead(rf_op.output, [ax.var for ax in op.axes] + [final_reduce.var]),
            [final_reduce],
        )
        final_op = ComputeOp(op.name, axes=list(op.axes), reduce_axes=[final_reduce], body=final_body, tag=op.tag)

        rf_stage = Stage.from_op(rf_op, is_rfactor_stage=True)
        final_stage = Stage.from_op(final_op, compute_location=stage.compute_location)
        state.stages[index:index + 1] = [rf_stage, final_stage]

    def to_dict(self) -> dict:
        return {"kind": self.kind, "stage": self.stage_name, "iter": self.iter_id}

    @classmethod
    def from_dict(cls, data: dict) -> "RfactorStep":
        return cls(data["stage"], data["iter"])
