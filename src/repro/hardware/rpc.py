"""Old names of the one builder and the one runner.

``RpcBuilder`` is :class:`~repro.hardware.measure.LocalBuilder` and
``RpcRunner`` is :class:`~repro.hardware.measure.LocalRunner`, which times
every run on a :class:`~repro.hardware.fleet.DeviceFleet` of one or more
boards.  The names stay only because ``perfbench/spans.py`` looks up the
methods it wraps under them; nothing else uses them.
"""

from .measure import LocalBuilder, LocalRunner

RpcBuilder = LocalBuilder
RpcRunner = LocalRunner
