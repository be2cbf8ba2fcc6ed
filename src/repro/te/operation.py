"""Operations: the nodes of a computation DAG.

Two kinds of operations exist:

* :class:`PlaceholderOp` — an input tensor with no body.
* :class:`ComputeOp` — an output computed element-wise (optionally with a
  reduction) from other tensors.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .expr import Expr, Reduce, TensorRead, collect_reads, count_flop
from .tensor import IterVar, Tensor

__all__ = ["Operation", "PlaceholderOp", "ComputeOp"]


class Operation:
    """Base class of DAG nodes."""

    def __init__(self, name: str):
        self.name = name
        self.output: Optional[Tensor] = None

    @property
    def input_tensors(self) -> List[Tensor]:
        raise NotImplementedError

    def is_placeholder(self) -> bool:
        return isinstance(self, PlaceholderOp)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name})"


class PlaceholderOp(Operation):
    """An input tensor."""

    def __init__(self, name: str, shape: Sequence[int], dtype: str = "float32"):
        super().__init__(name)
        self.shape = tuple(int(s) for s in shape)
        self.dtype = dtype
        self.output = Tensor(self, shape, dtype, name)

    @property
    def input_tensors(self) -> List[Tensor]:
        return []


class ComputeOp(Operation):
    """A computed tensor.

    Attributes
    ----------
    axes:
        Spatial iteration variables, one per output dimension.
    reduce_axes:
        Reduction iteration variables (possibly empty).
    body:
        The expression computing one output element.  If the op has
        reduction axes the body is a :class:`Reduce` node.
    tag:
        A free-form tag used by the workload definitions (e.g. ``"conv2d"``)
        and by annotation hints.
    attrs:
        Optional hints, e.g. ``{"auto_unroll": True}`` (paper §4.2: users may
        give simple hints in the computation definition).
    """

    #: the op's reads, write and counts, which lowering
    #: (:func:`repro.codegen.lowering.access_table`) builds on first use;
    #: a memo that pickles leave out
    _access_table = None

    def __init__(
        self,
        name: str,
        axes: Sequence[IterVar],
        reduce_axes: Sequence[IterVar],
        body: Expr,
        tag: str = "",
        attrs: Optional[dict] = None,
    ):
        super().__init__(name)
        self.axes = list(axes)
        self.reduce_axes = list(reduce_axes)
        self.body = body
        self.tag = tag
        self.attrs = dict(attrs or {})
        shape = tuple(ax.extent for ax in self.axes)
        self.output = Tensor(self, shape, "float32", name)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_access_table", None)
        return state

    # -- structural queries -------------------------------------------------
    @property
    def input_tensors(self) -> List[Tensor]:
        """Distinct tensors read by the body, in first-read order."""
        seen: List[Tensor] = []
        for read in collect_reads(self.body):
            if read.tensor not in seen and read.tensor.op is not self:
                seen.append(read.tensor)
        return seen

    @property
    def all_iter_vars(self) -> List[IterVar]:
        return list(self.axes) + list(self.reduce_axes)

    def reads(self) -> List[TensorRead]:
        """All tensor read sites in the body (duplicates preserved)."""
        return collect_reads(self.body)

    def has_reduction(self) -> bool:
        return len(self.reduce_axes) > 0

    # -- cost-related queries ------------------------------------------------
    def iteration_count(self) -> int:
        """Total number of innermost-body evaluations."""
        total = 1
        for ax in self.all_iter_vars:
            total *= ax.extent
        return total

    def flop_count(self) -> int:
        """Floating point operations performed by this op."""
        per_element = count_flop(self.body)
        if isinstance(self.body, Reduce) and per_element == 0:
            # A bare reduction of a read still performs one accumulation per
            # reduction iteration.
            per_element = 1
        return per_element * self.iteration_count()

    def output_bytes(self, dtype_bytes: int = 4) -> int:
        return self.output.size() * dtype_bytes

    def input_bytes(self, dtype_bytes: int = 4) -> int:
        return sum(t.size() * dtype_bytes for t in self.input_tensors)
