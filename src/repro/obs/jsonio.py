"""Deterministic JSON form of experiment results and metrics.

Every experiment returns a nest of frozen dataclasses, numpy arrays and
plain containers; :func:`to_jsonable` flattens that into JSON-safe types
(dataclasses become field dicts, arrays become lists, numpy scalars
become Python scalars) so ``python -m repro <experiment> --json`` can dump
any result without per-experiment serializers. Other objects give their
own form through a ``to_jsonable()`` method (a
:class:`~repro.serving.faults.FaultSchedule`, a metrics registry), or
fall back to ``repr``. A ``repr`` must not hold a memory address, or two
runs of one seeded experiment dump different bytes.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

__all__ = ["to_jsonable", "dumps_result"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable builtins."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: to_jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, dict):
        return {str(key): to_jsonable(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(value) for value in seq]
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    return repr(obj)


def dumps_result(
    experiment: str, result: Any, metrics_snapshot: Any = None
) -> str:
    """The ``--json`` document: experiment result plus metrics snapshot."""
    payload: dict[str, Any] = {
        "experiment": experiment,
        "result": to_jsonable(result),
    }
    if metrics_snapshot is not None:
        payload["metrics"] = to_jsonable(metrics_snapshot)
    return json.dumps(payload, indent=2, sort_keys=True)
