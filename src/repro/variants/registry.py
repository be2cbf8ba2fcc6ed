"""The algorithm-variant registry: competing DAGs for one logical operator.

A *variant* is one algorithmic formulation of a logical operator — e.g.
``conv2d`` can be computed directly, through an im2col patch matrix followed
by a GEMM, or through a spatially-packed (tiled) GEMM.  Variants of one
logical op compute the same function on the same inputs but lower to
structurally different :class:`~repro.te.dag.ComputeDAG`\\ s, so each explores
a different schedule space and each can win on different hardware.

Builders register under ``(logical op name, variant name)``::

    @register_variant("conv2d", "im2col")
    def conv2d_im2col(batch, in_channels, ...) -> ComputeDAG:
        ...

and :func:`expand_variants` (or :meth:`LogicalOp.expand`) turns one logical
op instance into the competing :class:`~repro.task.SearchTask` group — every
task carries the group's shared ``logical_key`` plus its own ``variant``
name, which is what the variant pruner, the schedule store's logical index
and the tuner's variant groups key on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..hardware.platform import HardwareParams
from ..task import SearchTask
from ..te.dag import ComputeDAG

__all__ = [
    "VariantSpec",
    "LogicalOp",
    "register_variant",
    "registered_variant_ops",
    "variants_for",
    "resolve_variant",
    "expand_variants",
    "logical_key_of",
]

#: ``builder(**params) -> ComputeDAG``
VariantBuilder = Callable[..., ComputeDAG]

#: logical op name -> {variant name -> VariantSpec}, in registration order
_VARIANT_REGISTRY: Dict[str, Dict[str, "VariantSpec"]] = {}


@dataclass
class VariantSpec:
    """One registered implementation of a logical operator."""

    #: the logical operator this implements (the registry key)
    logical_op: str
    #: this implementation's name (``"direct"``, ``"im2col"``, ...)
    name: str
    #: ``builder(**params) -> ComputeDAG``
    builder: VariantBuilder
    #: optional applicability predicate over the params dict; a variant
    #: whose predicate returns False is left out of the expanded group
    #: (e.g. a Winograd-style formulation only valid for 3x3 stride-1)
    applicable: Optional[Callable[[Dict], bool]] = None

    def build(self, params: Dict) -> ComputeDAG:
        return self.builder(**params)

    def accepts(self, params: Dict) -> bool:
        return self.applicable is None or bool(self.applicable(dict(params)))


def register_variant(
    logical_op: str,
    name: str,
    applicable: Optional[Callable[[Dict], bool]] = None,
):
    """Register a variant builder for a logical operator (decorator).

    Re-registering the same ``(logical_op, name)`` pair overwrites the
    previous builder, mirroring :func:`~repro.search.policy.register_policy`.
    """

    def _register(builder: VariantBuilder) -> VariantBuilder:
        _VARIANT_REGISTRY.setdefault(logical_op, {})[name] = VariantSpec(
            logical_op=logical_op, name=name, builder=builder, applicable=applicable
        )
        return builder

    return _register


def registered_variant_ops() -> List[str]:
    """The sorted logical-op names that have at least one variant."""
    return sorted(_VARIANT_REGISTRY)


def variants_for(logical_op: str) -> List[VariantSpec]:
    """All variants of one logical op, in registration order; unknown ops
    raise ``KeyError`` listing every registered logical op."""
    try:
        return list(_VARIANT_REGISTRY[logical_op].values())
    except KeyError:
        raise KeyError(
            f"no variants registered for logical op {logical_op!r}; "
            f"registered ops: {', '.join(registered_variant_ops()) or '(none)'}"
        ) from None


def resolve_variant(logical_op: str, name: str) -> VariantSpec:
    """One specific variant; unknown names raise ``KeyError`` listing the
    op's registered variants."""
    specs = _VARIANT_REGISTRY.get(logical_op)
    if specs is None:
        # Reuse the op-level error (it lists the registered ops).
        variants_for(logical_op)
    if name not in specs:
        raise KeyError(
            f"logical op {logical_op!r} has no variant {name!r}; "
            f"registered variants: {', '.join(specs)}"
        )
    return specs[name]


def logical_key_of(logical_op: str, params: Dict) -> str:
    """The deterministic, target-free identity of one logical op instance.

    Human-readable on purpose (it lands in store segment files):
    ``"conv2d(batch=1, in_channels=32, ...)"``, with params sorted by name
    so construction order never changes the key.
    """
    inner = ", ".join(f"{k}={params[k]}" for k in sorted(params))
    return f"{logical_op}({inner})"


def expand_variants(
    logical_op: str,
    params: Dict,
    hardware: Optional[HardwareParams] = None,
) -> List[SearchTask]:
    """Expand one logical op instance into its competing variant tasks.

    Every returned :class:`~repro.task.SearchTask` shares the group's
    ``logical_key`` and carries its own ``variant`` name and the originating
    ``variant_params``, so any one task of the group suffices to rebuild the
    whole group (``LogicalOp(task.logical_op, task.variant_params)``).
    Variants whose applicability predicate rejects ``params`` are skipped;
    an instance no variant accepts raises ``ValueError``.
    """
    key = logical_key_of(logical_op, params)
    tasks: List[SearchTask] = []
    for spec in variants_for(logical_op):
        if not spec.accepts(params):
            continue
        dag = spec.build(dict(params))
        tasks.append(
            SearchTask(
                dag,
                hardware_params=hardware,
                desc=f"{key} [{spec.name}]",
                logical_op=logical_op,
                logical_key=key,
                variant=spec.name,
                variant_params=dict(params),
            )
        )
    if not tasks:
        raise ValueError(
            f"no registered variant of {logical_op!r} accepts params {params!r}"
        )
    return tasks


@dataclass
class LogicalOp:
    """One logical operator instance: one variant group of a workload.

    ``Tuner(LogicalOp("conv2d", dict(batch=1, ...)), ...)`` — alone or in a
    list with other tasks and LogicalOps — expands the instance through the
    registry and arbitrates its share of the trial budget across the
    competing implementations instead of tuning one fixed DAG.
    """

    op: str
    params: Dict = field(default_factory=dict)
    hardware: Optional[HardwareParams] = None

    @property
    def key(self) -> str:
        """The group's shared ``logical_key``."""
        return logical_key_of(self.op, self.params)

    def expand(self, hardware: Optional[HardwareParams] = None) -> List[SearchTask]:
        """The competing variant tasks of this instance (see
        :func:`expand_variants`); ``hardware`` overrides the instance's."""
        return expand_variants(
            self.op, self.params, hardware=hardware or self.hardware
        )

    def __repr__(self) -> str:
        hw = f", hardware={self.hardware.name!r}" if self.hardware else ""
        return f"LogicalOp({self.key!r}{hw})"
