"""The computation DAG.

A :class:`ComputeDAG` wraps a set of output tensors and exposes:

* a deterministic topological ordering of its operations,
* producer / consumer relations,
* FLOP counting (used by the task scheduler's similarity term),
* creation of the initial *naive program* (:meth:`init_state`), which is the
  root of every sketch derivation (§4.1), and
* replay of a transform-step history onto a fresh state (used by crossover
  and by record deserialization).
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from .operation import ComputeOp, Operation, PlaceholderOp
from .tensor import Tensor

__all__ = ["ComputeDAG"]


class ComputeDAG:
    """A directed acyclic graph of tensor operations."""

    #: the naive program's stages, which ``State.from_dag`` builds on first
    #: use and every initial state shares; a memo that pickles leave out
    _stage_template = None

    def __init__(self, outputs: Sequence[Tensor]):
        if isinstance(outputs, Tensor):
            outputs = [outputs]
        self.outputs: List[Tensor] = list(outputs)
        if not self.outputs:
            raise ValueError("a ComputeDAG needs at least one output tensor")
        self.ops: List[Operation] = self._topological_sort()
        self._op_index: Dict[Operation, int] = {op: i for i, op in enumerate(self.ops)}

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_stage_template", None)
        return state

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _topological_sort(self) -> List[Operation]:
        """Return operations sorted from inputs to outputs (stable order)."""
        order: List[Operation] = []
        visited: set = set()

        def visit(op: Operation) -> None:
            if id(op) in visited:
                return
            visited.add(id(op))
            for tensor in op.input_tensors:
                visit(tensor.op)
            order.append(op)

        for out in self.outputs:
            visit(out.op)
        return order

    # ------------------------------------------------------------------
    # Structural queries
    # ------------------------------------------------------------------
    @property
    def compute_ops(self) -> List[ComputeOp]:
        return [op for op in self.ops if isinstance(op, ComputeOp)]

    @property
    def placeholder_ops(self) -> List[PlaceholderOp]:
        return [op for op in self.ops if isinstance(op, PlaceholderOp)]

    def op_index(self, op: Operation) -> int:
        return self._op_index[op]

    def consumers(self, op: Operation) -> List[ComputeOp]:
        """Operations that read the output of ``op``."""
        result = []
        for other in self.ops:
            if isinstance(other, ComputeOp) and any(t.op is op for t in other.input_tensors):
                result.append(other)
        return result

    def producers(self, op: Operation) -> List[Operation]:
        """Operations whose outputs ``op`` reads."""
        if isinstance(op, PlaceholderOp):
            return []
        return [t.op for t in op.input_tensors]

    def is_output(self, op: Operation) -> bool:
        return any(out.op is op for out in self.outputs)

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------
    def flop_count(self) -> int:
        """Total floating point operations of one DAG execution."""
        return sum(op.flop_count() for op in self.compute_ops)

    def total_bytes(self, dtype_bytes: int = 4) -> int:
        """Footprint of all tensors (placeholders and outputs) in bytes."""
        total = 0
        for op in self.ops:
            if op.output is not None:
                total += op.output.size() * dtype_bytes
        return total

    # ------------------------------------------------------------------
    # State creation / replay
    # ------------------------------------------------------------------
    def init_state(self):
        """Create the initial naive program for this DAG."""
        from ..ir.state import State

        return State.from_dag(self)

    def replay_steps(self, steps):
        """Apply a recorded list of transform steps to a fresh initial state."""
        from ..ir.state import State

        return State.from_steps(self, [step.copy() for step in steps])

    # ------------------------------------------------------------------
    # Identification
    # ------------------------------------------------------------------
    def workload_key(self) -> str:
        """A stable hash identifying the computation (shapes + structure)."""
        parts: List[str] = []
        for op in self.ops:
            if isinstance(op, PlaceholderOp):
                parts.append(f"P:{op.name}:{op.shape}")
            else:
                assert isinstance(op, ComputeOp)
                parts.append(
                    f"C:{op.name}:{tuple(a.extent for a in op.axes)}:"
                    f"{tuple(a.extent for a in op.reduce_axes)}:{op.tag}:{op.body}"
                )
        digest = hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]
        return digest

    def structure_key(self) -> str:
        """A stable hash of the DAG's *shape class*: op kinds, loop arities,
        tags and the dataflow wiring, with every extent erased.

        Workloads that differ only in sizes (``matmul(64,64,64)`` vs
        ``matmul(256,256,128)``) share a structure key, while structurally
        different computations (matmul vs conv2d, fused vs unfused) do not.
        The schedule store uses this as its similarity class: a tuned best
        from the same structure class is a strong warm-start seed for a
        resized workload, because the transform-step history replays onto
        the same stage/axis skeleton.
        """
        parts: List[str] = []
        for op in self.ops:
            if isinstance(op, PlaceholderOp):
                parts.append(f"P:{op.name}:{len(op.shape)}")
            else:
                assert isinstance(op, ComputeOp)
                inputs = tuple(self._op_index[t.op] for t in op.input_tensors)
                parts.append(
                    f"C:{op.name}:{len(op.axes)}:{len(op.reduce_axes)}:"
                    f"{op.tag}:{inputs}"
                )
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        names = ", ".join(op.name for op in self.ops)
        return f"ComputeDAG([{names}])"

    def pretty_print(self) -> str:
        """A human readable description of the naive program."""
        lines = []
        for op in self.ops:
            if isinstance(op, PlaceholderOp):
                lines.append(f"{op.name} = placeholder({op.shape})")
            else:
                assert isinstance(op, ComputeOp)
                axes = ", ".join(f"{a.name}<{a.extent}>" for a in op.axes)
                raxes = ", ".join(f"{a.name}<{a.extent}>" for a in op.reduce_axes)
                header = f"{op.name}({axes})"
                if raxes:
                    header += f" reduce({raxes})"
                lines.append(f"{header} = {op.body}")
        return "\n".join(lines)
