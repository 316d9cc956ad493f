"""Which layer entry points the traced run wraps, and the metrics it reports.

Layers are the ``src/repro`` modules.  Each wrapped entry point records
a span under a span name; :data:`LAYER_OF` maps span names to layers.
Observers take counts (iterations, columns, bytes) from a call's
arguments and result while its span is open.
"""

from __future__ import annotations

import types

import numpy as np

from repro import api, problems
from repro.direct import SparseLU, TriangularFactor
from repro.direct import triangular
from repro.distla import DistributedCSR
from repro.krylov import cycle, shifted
from repro.krylov.base import Operator
from repro.la import BlockHessenbergQR, PseudoBlockOrthogonalizer
from repro.la import orthogonalization as ortho
from repro.perfmodel import estimate
from repro.precond import SchwarzPreconditioner
from repro.service import (AsyncSolveService, SetupCache, ShardedSetupCache,
                           SolveService, fingerprint, traffic)

from tracing import ROOT, SpanRecorder

#: span name -> layer whose self time it counts toward
LAYER_OF = {
    ROOT: "trace.unattributed",
    "service": "service",
    "fingerprint": "fingerprint",
    "cache": "cache",
    "api.solve": "api",
    "api.Solver.solve": "api",
    "krylov.solve": "krylov",
    "krylov.cycle": "krylov",
    "la.ortho": "la.ortho",
    "la.blockqr": "la.blockqr",
    "precond.setup": "precond.setup",
    "precond.apply": "precond.apply",
    "direct.lu_factor": "direct.factor",
    "direct.tri_factor": "direct.factor",
    "direct.concat_factors": "direct.factor",
    "direct.lu_solve": "direct.trisolve",
    "direct.trisolve": "direct.trisolve",
    "spmm": "spmm",
    "perfmodel": "perfmodel",
    "problems.assemble": "problems.assemble",
}

#: solve-phase layer -> per-layer metric carrying its self time; together
#: with ``trace.unattributed_s`` they partition the traced ``solve_s``
SELF_TIME_METRICS = {
    "service": "service.self_s",
    "fingerprint": "fingerprint.self_s",
    "cache": "cache.self_s",
    "api": "api.self_s",
    "krylov": "krylov.self_s",
    "la.ortho": "la.ortho.self_s",
    "la.blockqr": "la.blockqr.self_s",
    "precond.setup": "precond.setup_self_s",
    "precond.apply": "precond.apply_self_s",
    "direct.factor": "direct.factor_s",
    "direct.trisolve": "direct.trisolve_s",
    "spmm": "spmm.self_s",
    "perfmodel": "perfmodel.self_s",
    "problems.assemble": "problems.assemble_self_s",
    "trace.unattributed": "trace.unattributed_s",
}


def _cols(x) -> int:
    shape = np.shape(x)
    return int(shape[1]) if len(shape) > 1 else 1


def _outermost(key: str, name: str):
    def observe(rec: SpanRecorder, args, kwargs, out) -> None:
        if rec.outermost(name):
            rec.count(key)
    return observe


def _krylov(rec: SpanRecorder, args, kwargs, out) -> None:
    if not rec.outermost("krylov.solve"):
        return  # a solver called from inside another solver
    rec.count("krylov.iterations", out.iterations)
    rec.count("krylov.cycles", out.restarts)
    if hasattr(out, "shifts"):  # a shifted family: one column per shift
        rec.count("krylov.rhs_cols", len(out.shifts))
    else:
        rec.count("krylov.rhs_cols", _cols(args[1] if len(args) > 1
                                           else kwargs["b"]))


def _adoption(rec: SpanRecorder, args, kwargs, out) -> None:
    if out and rec.outermost("cache"):
        rec.count("cache.adoptions")


def _spmm(rec: SpanRecorder, args, kwargs, out) -> None:
    rec.count("spmm.cols", _cols(args[1]))


def _trisolve(rec: SpanRecorder, args, kwargs, out) -> None:
    factor, p = args[0], _cols(out)
    rec.count("direct.trisolve_cols", p)
    # computed, not measured: every factor entry is read once per column
    rec.count("direct.trisolve_bytes", factor.nnz * p * out.itemsize)


def targets() -> tuple[list, list]:
    """(functions, methods) to wrap, as :func:`tracing.install` takes them."""
    solvers = [getattr(api, n) for n in ("gmres", "bgmres", "cg", "bcg",
                                         "gmresdr", "lgmres", "pgcrodr",
                                         "gcrodr")]
    solvers.append(shifted.solve_shifted_family)
    ortho_fns = [getattr(ortho, n) for n in ortho.__all__
                 if isinstance(getattr(ortho, n), types.FunctionType)
                 and n not in ("make_arnoldi_engine", "sketch_size")]
    functions = [(api.solve, "api.solve", None)]
    functions += [(fn, "krylov.solve", _krylov) for fn in solvers]
    functions.append((cycle.block_arnoldi_cycle, "krylov.cycle", None))
    functions += [(fn, "la.ortho", _outermost("la.ortho.calls", "la.ortho"))
                  for fn in ortho_fns]
    functions.append((fingerprint.operator_fingerprint, "fingerprint", None))
    functions.append((estimate.modeled_time, "perfmodel", None))
    functions.append((triangular.concat_factors, "direct.concat_factors",
                      None))
    functions += [(fn, "problems.assemble", None) for fn in (
        problems.maxwell_chamber, problems.decompose_maxwell,
        problems.antenna_ring_rhs, traffic.build_operators,
        traffic.base_operator)]

    methods = []
    for cls in (SolveService, AsyncSolveService):
        for attr in ("submit", "submit_family", "flush", "advance_to",
                     "drain", "result", "solve"):
            if attr in vars(cls):
                methods.append((cls, attr, "service", None))
    for cls in (SetupCache, ShardedSetupCache):
        methods.append((cls, "adopt_from", "cache", _adoption))
    methods.append((api.Solver, "solve", "api.Solver.solve", None))
    engines = {type(ortho.make_arnoldi_engine(s, max_cols=4))
               for s in ortho.LOW_SYNC_SCHEMES}
    steppers = {next(c for c in k.__mro__ if "step" in vars(c))
                for k in engines | {PseudoBlockOrthogonalizer}}
    for cls in sorted(steppers, key=lambda c: c.__qualname__):
        methods.append((cls, "step", "la.ortho",
                        _outermost("la.ortho.calls", "la.ortho")))
    methods += [(BlockHessenbergQR, "add_column", "la.blockqr", None),
                (BlockHessenbergQR, "solve", "la.blockqr", None),
                (SchwarzPreconditioner, "__init__", "precond.setup", None),
                (SchwarzPreconditioner, "apply", "precond.apply", None),
                (SparseLU, "__init__", "direct.lu_factor", None),
                (SparseLU, "solve", "direct.lu_solve", None),
                (TriangularFactor, "__init__", "direct.tri_factor", None),
                (TriangularFactor, "solve", "direct.trisolve", _trisolve),
                (Operator, "matmat", "spmm", _spmm),
                (DistributedCSR, "matmat", "spmm", _spmm),
                (problems.HeatSequence, "__init__", "problems.assemble",
                 None)]
    return functions, methods


def layer_self_s(rec: SpanRecorder, phase: str) -> dict[str, float]:
    """Self seconds per layer over one phase."""
    out: dict[str, float] = {}
    for (ph, name), secs in rec.self_s.items():
        if ph == phase:
            layer = LAYER_OF[name]
            out[layer] = out.get(layer, 0.0) + secs
    return out


def calls(rec: SpanRecorder, phase: str, *names: str) -> int:
    return sum(rec.calls.get((phase, n), 0) for n in names)


def inclusive_s(rec: SpanRecorder, phase: str, name: str) -> float:
    """Time inside outermost spans of ``name`` during ``phase``."""
    return rec.outer_s.get((phase, name), 0.0)
