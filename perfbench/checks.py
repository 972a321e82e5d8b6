"""Output checks: order-preserving digests of warehouses, answers and reports.

A digest follows ``==`` semantics (dict key order is ignored, ``1 == 1.0``),
so two outputs the program's equivalence suites call equal get the same
digest, and the benchmark never has to keep a whole reference in memory.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict

#: Every dataset a generation run stores.
DATASETS = ("device", "trajectory", "rssi", "positioning", "probabilistic", "proximity")


def _canonical(value: Any) -> Any:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return float(value) + 0.0  # 1 == 1.0 and -0.0 == 0.0, as for ==
    if isinstance(value, dict):
        return tuple(sorted((str(key), _canonical(item)) for key, item in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if hasattr(value, "to_json"):
        return _canonical(value.to_json())
    return repr(value)


def digest(value: Any) -> str:
    """The digest of one value (an answer, a row list, a report)."""
    return hashlib.blake2b(repr(_canonical(value)).encode(), digest_size=16).hexdigest()


def warehouse_digest(warehouse: Any) -> Dict[str, Any]:
    """``{dataset: [row count, digest]}`` of every stored row, in query order.

    Rows are streamed through the query builder one at a time, so a digest
    costs no more memory than one row.
    """
    result: Dict[str, Any] = {}
    for dataset in DATASETS:
        hasher = hashlib.blake2b(digest_size=16)
        count = 0
        for row in warehouse.query(dataset).iter():
            hasher.update(repr(_canonical(row)).encode())
            count += 1
        result[dataset] = [count, hasher.hexdigest()]
    return result


def live_digest(report: Any, alert_order: bool = True) -> str:
    """Digest of a live report's emitted results: per monitor, the window
    values and the alerts.

    Attached and replayed monitors fire alerts in a different order (shard
    order against time order), so the live ≡ replay check passes
    ``alert_order=False`` and compares the alerts as a multiset; the
    workers=N ≡ serial check keeps the order.
    """
    def alerts(result) -> list:
        events = [_canonical(alert.to_json()) for alert in result.alerts]
        return events if alert_order else sorted(events, key=repr)

    return digest({
        name: {"values": result.values(), "alerts": alerts(result)}
        for name, result in report.results.items()
    })


def close(left: Any, right: Any, rel_tol: float = 1e-9) -> bool:
    """Equal in structure, ids and counts, with floats equal to *rel_tol*.

    For answers whose floats the engines *compute* (a kNN distance, a stats
    sum or mean): SQLite evaluates them in SQL, the memory engine in Python,
    and the two can differ in the last bits.
    """
    if isinstance(left, float) or isinstance(right, float):
        return (isinstance(left, (int, float)) and isinstance(right, (int, float))
                and math.isclose(left, right, rel_tol=rel_tol, abs_tol=1e-12))
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            close(left[key], right[key], rel_tol) for key in left)
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return len(left) == len(right) and all(
            close(a, b, rel_tol) for a, b in zip(left, right))
    return left == right
