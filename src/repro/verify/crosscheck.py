"""Fused-vs-per-rank conservation cross-check.

The fused execution engine is required to be a *pure* optimization: for
any workload, the :class:`~repro.util.ledger.CostLedger` counts must be
bit-identical between ``exec_mode="fused"`` and ``exec_mode="per_rank"``,
and the numerics must agree to rounding.  This module packages that
equivalence as an invariant check so the conformance matrix (and users
debugging a substrate change) can assert it for whole solves.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from ..util import ledger
from ..util.execmode import use_exec_mode
from ..util.ledger import CostLedger
from .checker import InvariantChecker

__all__ = ["cross_check_exec_modes"]


def cross_check_exec_modes(fn: Callable[[], Any], *,
                           checker: InvariantChecker | None = None,
                           extract: Callable[[Any], np.ndarray] | None = None,
                           rtol: float = 1e-9, atol: float = 1e-11,
                           what: str = "workload") -> tuple[Any, Any]:
    """Run ``fn`` under both execution modes and assert conservation.

    Parameters
    ----------
    fn:
        zero-argument workload (e.g. ``lambda: solve(A, b, options=o)``).
        It is invoked twice, each time under a fresh ledger.
    checker:
        records the ledger-conservation drift (a throwaway full-level
        checker is used when omitted).
    extract:
        maps ``fn``'s return value to an array compared across modes
        (skipped when None and the return value is not array-like).
    what:
        label used in violation messages.

    Returns the two results ``(fused_result, per_rank_result)``.
    """
    chk = checker or InvariantChecker("full", context="cross-check")
    results: dict[str, Any] = {}
    ledgers: dict[str, CostLedger] = {}
    for mode in ("fused", "per_rank"):
        with use_exec_mode(mode), ledger.install() as led:
            results[mode] = fn()
        ledgers[mode] = led
    chk.check_ledger_conservation(ledgers["fused"], ledgers["per_rank"],
                                  what=what)
    a, b = results["fused"], results["per_rank"]
    if extract is not None:
        a_arr, b_arr = np.asarray(extract(a)), np.asarray(extract(b))
    elif isinstance(a, np.ndarray) and isinstance(b, np.ndarray):
        a_arr, b_arr = a, b
    else:
        a_arr = b_arr = None
    if a_arr is not None:
        if not np.allclose(a_arr, b_arr, rtol=rtol, atol=atol):
            gap = float(np.max(np.abs(a_arr - b_arr)))
            chk._record("exec_mode_numerics", gap, 0.0,
                        f"{what}: fused vs per_rank results diverge")
    return results["fused"], results["per_rank"]
