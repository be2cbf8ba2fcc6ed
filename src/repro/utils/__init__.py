"""Small shared utilities."""

from .timing import Timer
from .random import seeded_rng

__all__ = ["Timer", "seeded_rng"]
