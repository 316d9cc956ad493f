"""Shared generator for the solver conformance matrix.

One place defines the axes (solver x preconditioning variant x execution
mode x dtype x block size x recycle strategy), how a configuration maps to
``Options``, and the derived-property oracles every configuration must
satisfy.  ``test_conformance_matrix.py`` sweeps the matrix; other tests can
import :func:`make_problem` / :func:`assert_conforms` for single configs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro import Options, solve
from repro.krylov.base import true_residual_norms

from conftest import make_rng

#: solvers under test and whether they recycle / accept blocks
SOLVERS = {
    "gmres":   {"recycles": False, "block": True},
    "bgmres":  {"recycles": False, "block": True},
    "gcrodr":  {"recycles": True, "block": True},   # dispatches pgcrodr for p>1
    "bgcrodr": {"recycles": True, "block": True},
    "gmresdr": {"recycles": True, "block": False},
}

VARIANTS = ("left", "right", "flexible")
EXEC_MODES = ("fused", "per_rank")
DTYPES = (np.float64, np.complex128)
BLOCK_SIZES = (1, 3)
STRATEGIES = ("A", "B")


@dataclass(frozen=True)
class Config:
    """One cell of the conformance matrix."""

    method: str
    variant: str = "right"
    exec_mode: str = "fused"
    dtype: type = np.float64
    p: int = 1
    strategy: str = "A"
    precond: bool = True
    seed: int = 0
    ortho: str = "cgs"
    #: how the recycled pair travels: "full" (exact re-derivation) or
    #: "sketched" (sketch-whitened carrying, lazy repair)
    recycle_space: str = "full"
    #: route the solve through the service front end: None = direct
    #: ``repro.solve``, "sync"/"async" = the matching ``make_service``
    service_mode: str | None = None
    #: number of shifts for a shifted-family solve (0 = scalar solve);
    #: family configs are unpreconditioned (the engine rejects ``m``)
    shifts: int = 0
    #: steps of an adaptive-dt heat sequence driven through the service
    #: (0 = not a sequence config); with ``shifts`` the sequence runs in
    #: ``sequence_mode="shifted"`` (one-shift family per step)
    sequence: int = 0

    def id(self) -> str:
        dt = "c128" if self.dtype is np.complex128 else "f64"
        pc = self.variant if self.precond else "none"
        base = (f"{self.method}-{pc}-{self.exec_mode}-{dt}-p{self.p}"
                f"-{self.strategy}")
        if self.ortho != "cgs":
            base += f"-{self.ortho}"
        if self.recycle_space != "full":
            base += f"-rs_{self.recycle_space}"
        if self.service_mode is not None:
            base += f"-svc_{self.service_mode}"
        if self.shifts:
            base += f"-sh{self.shifts}"
        if self.sequence:
            base += f"-seq{self.sequence}"
        return base

    def options(self, *, verify: str = "full", tol: float = 1e-8) -> Options:
        kw = {}
        if SOLVERS[self.method]["recycles"]:
            kw["recycle"] = 5
            kw["recycle_strategy"] = self.strategy
            kw["recycle_space"] = self.recycle_space
        if self.service_mode is not None:
            kw["service_mode"] = self.service_mode
            if self.service_mode == "async":
                kw["service_shards"] = 2  # exercise the sharded cache
        return Options(krylov_method=self.method, gmres_restart=20, tol=tol,
                       max_it=2000, variant=self.variant if self.precond
                       else "right", exec_mode=self.exec_mode, verify=verify,
                       orthogonalization=self.ortho, **kw)


def conformance_matrix(full: bool = False) -> list[Config]:
    """Enumerate the matrix; ``full=False`` yields the fast tier-1 subset.

    The full matrix is the cross product restricted to valid combinations
    (GMRES-DR rejects flexible preconditioning and p > 1; strategy only
    matters for recyclers), deduplicated by config id.
    """
    configs: list[Config] = []
    seen: set[str] = set()

    def add(cfg: Config) -> None:
        if cfg.id() not in seen:
            seen.add(cfg.id())
            configs.append(cfg)

    if not full:
        # tier-1 subset: every solver, both exec modes, one nontrivial
        # variant and dtype apiece
        for method in SOLVERS:
            p = 3 if SOLVERS[method]["block"] else 1
            add(Config(method, variant="right", p=p))
            add(Config(method, variant="right", p=p, exec_mode="per_rank"))
            add(Config(method, variant="left", p=1))
            if method != "gmresdr":
                add(Config(method, variant="flexible", p=p))
        add(Config("gcrodr", p=3, strategy="B"))
        add(Config("bgmres", p=3, dtype=np.complex128))
        # low-synchronization orthogonalization engine: the block engine
        # (bgmres/bgcrodr), the pseudo-block per-column path (gcrodr) and
        # GMRES-DR each route the schemes differently — cover all three
        for scheme in ("cgs2_1r", "cholqr2", "sketched"):
            add(Config("bgmres", p=3, ortho=scheme))
            add(Config("gcrodr", p=3, ortho=scheme))
            add(Config("gmresdr", p=1, ortho=scheme))
        # sketched recycle carrying: block engine (gcrodr p=1 / bgcrodr)
        # and the pseudo-block per-column path (gcrodr p=3)
        add(Config("gcrodr", p=1, ortho="sketched",
                   recycle_space="sketched"))
        add(Config("gcrodr", p=3, ortho="sketched",
                   recycle_space="sketched"))
        add(Config("bgcrodr", p=3, ortho="sketched",
                   recycle_space="sketched"))
        # service_mode axis (verify=cheap on this subset — see
        # assert_conforms): both front ends over a plain and a recycling
        # solver, block width 3
        for mode in ("sync", "async"):
            add(Config("gmres", p=3, service_mode=mode))
            add(Config("gcrodr", p=3, service_mode=mode))
        # shifted-family axis: shared-basis and unprojected-recycled
        # engines (families reject m)
        add(Config("bgmres", p=1, ortho="cgs2_1r", shifts=4, precond=False))
        add(Config("bgcrodr", p=1, ortho="cgs2_1r", shifts=4, precond=False))
        # sequence axis: an adaptive-dt heat sequence through both
        # service front ends (unchanged-fp steps must show zero setup
        # spans — see _assert_sequence_conforms)
        add(Config("gcrodr", p=1, service_mode="sync", sequence=6))
        add(Config("gcrodr", p=1, service_mode="async", sequence=6,
                   exec_mode="per_rank"))
        return configs

    for method, caps in SOLVERS.items():
        for variant in VARIANTS:
            if variant == "flexible" and method == "gmresdr":
                continue
            for mode in EXEC_MODES:
                for dtype in DTYPES:
                    for p in BLOCK_SIZES:
                        if p > 1 and not caps["block"]:
                            continue
                        strategies = STRATEGIES if caps["recycles"] else ("A",)
                        for strat in strategies:
                            add(Config(method, variant=variant,
                                       exec_mode=mode, dtype=dtype, p=p,
                                       strategy=strat))
    # unpreconditioned spot checks (variant is then irrelevant)
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        add(Config(method, p=p, precond=False))
    # service_mode axis: every solver through both front ends
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        for mode in ("sync", "async"):
            add(Config(method, p=p, service_mode=mode))
    # orthogonalization-scheme sweep: every solver x every non-default
    # scheme, both exec modes, default axes elsewhere
    for method in SOLVERS:
        p = 3 if SOLVERS[method]["block"] else 1
        for scheme in ("mgs", "imgs", "cgs2_1r", "cholqr2", "sketched"):
            add(Config(method, p=p, ortho=scheme))
            add(Config(method, p=p, ortho=scheme, exec_mode="per_rank"))
    # recycle_space axis: both recyclers that carry (U_k, C_k) pairs, both
    # exec modes, both strategies on the block engine
    for method, p in (("gcrodr", 1), ("gcrodr", 3), ("bgcrodr", 3)):
        for mode in EXEC_MODES:
            add(Config(method, p=p, ortho="sketched",
                       recycle_space="sketched", exec_mode=mode))
    add(Config("gcrodr", p=1, ortho="sketched", recycle_space="sketched",
               strategy="B"))
    add(Config("bgcrodr", p=3, ortho="sketched", recycle_space="sketched",
               strategy="B"))
    add(Config("gcrodr", p=1, ortho="sketched", recycle_space="sketched",
               dtype=np.complex128))
    # shifted-family axis: both engines x exec mode, plus a complex-shift
    # spot check
    for method in ("bgmres", "bgcrodr"):
        for mode in EXEC_MODES:
            add(Config(method, p=1, ortho="cgs2_1r", shifts=4,
                       precond=False, exec_mode=mode))
    add(Config("bgmres", p=1, ortho="cgs2_1r", shifts=4, precond=False,
               dtype=np.complex128))
    add(Config("bgcrodr", p=1, ortho="cholqr2", shifts=8, precond=False))
    # sequence axis: a recycler and a non-recycler through both front
    # ends x exec modes, plus the shifted-sequence mode (dt ramp as a
    # one-shift family per step against the constant base)
    for method in ("gmres", "gcrodr"):
        for mode in EXEC_MODES:
            for svc in ("sync", "async"):
                add(Config(method, p=1, service_mode=svc, sequence=6,
                           exec_mode=mode))
    add(Config("gcrodr", p=1, service_mode="sync", sequence=6, shifts=1,
               precond=False))
    add(Config("gcrodr", p=1, service_mode="sync", sequence=6, shifts=1,
               precond=False, exec_mode="per_rank"))
    return configs


def make_problem(cfg: Config, n: int = 120):
    """Well-conditioned model system + preconditioner for a config.

    Nonsymmetric real (convection-diffusion) or complex (shifted Laplacian)
    tridiagonal operator; the preconditioner is a Jacobi-like scaled inverse
    diagonal — constant, hence valid for every variant, and made *variable*
    (iteration-dependent) by the caller for flexible-only tests.
    """
    rng = make_rng(cfg.seed, cfg.p, 0 if cfg.dtype is np.float64 else 1)
    if cfg.dtype is np.complex128:
        a = (sp.diags([-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)],
                      [-1, 0, 1]).astype(np.complex128)
             + 0.3j * sp.eye(n, dtype=np.complex128))
        b = (rng.standard_normal((n, cfg.p))
             + 1j * rng.standard_normal((n, cfg.p))).astype(np.complex128)
    else:
        lo = -1.4 * np.ones(n - 1)
        hi = -0.6 * np.ones(n - 1)
        a = sp.diags([lo, 4.0 * np.ones(n), hi], [-1, 0, 1])
        b = rng.standard_normal((n, cfg.p))
    a = a.tocsr()
    m = None
    if cfg.precond:
        dinv = 1.0 / a.diagonal()
        m = sp.diags(dinv).astype(a.dtype).tocsr()
    return a, b, m


def _service_solve(cfg: Config, a, b, m, o: Options):
    """Drive one config's block solve through ``make_service``."""
    from repro import as_preconditioner
    from repro.service import make_service

    svc = make_service(
        options=o,
        preconditioner=as_preconditioner(m) if m is not None else None)
    req = svc.submit(a, b)
    assert getattr(req, "rejected", None) is None
    svc.flush()
    res = svc.result(req)
    assert res.info["service"]["batch_width"] == cfg.p
    if cfg.service_mode == "async":
        assert res.info["service"]["mode"] == "async"
    return res


@dataclass
class Outcome:
    """Result of driving one config through its oracles."""

    cfg: Config
    result: object
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def assert_conforms(cfg: Config, *, verify: str = "full",
                    tol: float = 1e-8) -> Outcome:
    """Solve the config's problem and check every derived-property oracle.

    Oracles (beyond the runtime invariant checker, which raises on its own):

    1. every column converges within the iteration budget;
    2. the *true* relative residual meets the tolerance (honest reporting);
    3. the recorded convergence history is finite and its final entry agrees
       with the returned ``converged`` flags;
    4. recyclers return a recycled space whose basis is orthonormal;
    5. the verify report is attached and clean.
    """
    if cfg.sequence:
        return _assert_sequence_conforms(cfg, tol=tol)
    if cfg.shifts:
        return _assert_family_conforms(cfg, verify=verify, tol=tol)
    if cfg.service_mode is not None:
        # the service path runs verify at "cheap": the full Arnoldi
        # re-verification belongs to the direct-solve axis, the service
        # axis checks the front ends preserve the solve contract
        verify = "cheap" if verify != "off" else verify
    a, b, m = make_problem(cfg)
    o = cfg.options(verify=verify, tol=tol)
    if cfg.service_mode is None:
        res = solve(a, b, m, options=o)
    else:
        res = _service_solve(cfg, a, b, m, o)
    out = Outcome(cfg, res)

    if not np.all(res.converged):
        out.failures.append(f"not converged after {res.iterations} its")
    rel = true_residual_norms(a, np.atleast_2d(np.asarray(res.x).T).T, b)
    rhs = np.linalg.norm(b, axis=0)
    rel = rel / np.where(rhs > 0, rhs, 1.0)
    # left preconditioning converges in the preconditioned norm; allow the
    # unpreconditioned residual the conditioning slack of M (small here)
    slack = 100.0 if (cfg.precond and cfg.variant == "left") else 10.0
    if np.any(rel > slack * tol):
        out.failures.append(f"true residual {rel.max():.2e} > {slack}*tol")
    hist = res.history.matrix()
    if not np.all(np.isfinite(hist)):
        out.failures.append("non-finite history entries")
    if verify != "off":
        rep = res.info.get("verify")
        if rep is None:
            out.failures.append("missing verify report")
        elif rep["violations"]:
            out.failures.append(f"verify violations: {rep['violations']}")
        elif rep["checks"] == 0:
            out.failures.append("verify report recorded zero checks")
    space = res.info.get("recycle")
    if space is not None:
        spaces = getattr(space, "spaces", [space])
        for s in spaces:
            if s is None or s.c is None or s.c.shape[1] == 0:
                continue
            g = s.c.conj().T @ s.c
            drift = np.linalg.norm(g - np.eye(g.shape[0], dtype=g.dtype))
            if drift > 1e-6 * np.sqrt(g.shape[0]):
                out.failures.append(f"recycled basis drift {drift:.2e}")
    return out


def _assert_family_conforms(cfg: Config, *, verify: str,
                            tol: float) -> Outcome:
    """Family-config oracles: the shifted analogue of the scalar list.

    1. every shift converges; 2. each shift's *true* residual against the
    explicitly shifted operator meets tolerance; 3. per-shift histories
    are finite and end consistently; 4. the verify report is attached and
    clean; 5. a recycled family returns an orthonormal ``C_k``.
    """
    from repro.krylov.shifted import shifted_matrix

    a, b, _ = make_problem(cfg)
    o = cfg.options(verify=verify, tol=tol)
    shifts = [0.05 * (i + 1) for i in range(cfg.shifts)]
    fam = solve(a, b, options=o, shifts=shifts)
    out = Outcome(cfg, fam)

    if not np.all(fam.converged):
        out.failures.append(f"not converged after {fam.iterations} its")
    rhs = np.linalg.norm(b, axis=0)
    rhs = np.where(rhs > 0, rhs, 1.0)
    for sigma, res in zip(fam.shifts, fam.results):
        x = np.atleast_2d(np.asarray(res.x).T).T
        rel = true_residual_norms(shifted_matrix(a, sigma), x, b) / rhs
        if np.any(rel > 10.0 * tol):
            out.failures.append(
                f"shift {sigma}: true residual {rel.max():.2e} > 10*tol")
        hist = res.history.matrix()
        if not np.all(np.isfinite(hist)):
            out.failures.append(f"shift {sigma}: non-finite history")
    if verify != "off":
        rep = fam.info.get("verify")
        if rep is None:
            out.failures.append("missing verify report")
        elif rep["violations"]:
            out.failures.append(f"verify violations: {rep['violations']}")
        elif rep["checks"] == 0:
            out.failures.append("verify report recorded zero checks")
    space = fam.info.get("recycle")
    if space is not None and space.c is not None and space.c.shape[1]:
        g = space.c.conj().T @ space.c
        drift = np.linalg.norm(g - np.eye(g.shape[0], dtype=g.dtype))
        if drift > 1e-6 * np.sqrt(g.shape[0]):
            out.failures.append(f"recycled basis drift {drift:.2e}")
    return out


def _assert_sequence_conforms(cfg: Config, *, tol: float) -> Outcome:
    """Sequence-config oracles: the transient analogue of the scalar list.

    1. every step converges; 2. the final field matches per-step direct
    sparse solves; 3. the ``sequence.*`` trace shape holds — in
    particular the *unchanged-fp oracle*: step solves after the first of
    an epoch (fingerprint unchanged) must show **zero setup spans** and
    no recycle-space rebuild in their batch; 4. the driver actually took
    the fast path on those steps.
    """
    import scipy.sparse.linalg as spla

    from repro.problems.transient import HeatSequence
    from repro.service.scheduler import AsyncSolveService
    from repro.service.sequence import SequenceDriver
    from repro.service.service import SolveService
    from repro.trace.gate import GateError, check_sequence_shape
    from repro.trace.tracer import Tracer, install

    o = cfg.options(verify="cheap", tol=tol).replace(
        service_flush="explicit", trace="summary",
        sequence_mode="shifted" if cfg.shifts else "operator")
    seq = HeatSequence(nx=8, n_steps=cfg.sequence, dt0=1e-3,
                       epoch_length=max(1, cfg.sequence // 2), growth=1.5)
    kwargs = {}
    if cfg.precond and not cfg.shifts:  # families reject preconditioning
        kwargs = {"preconditioner": "schwarz", "precond_opts": {"nparts": 2}}
    cls = AsyncSolveService if cfg.service_mode == "async" else SolveService
    svc = cls(options=o, **kwargs)
    driver = SequenceDriver(svc)
    handle = driver.add(seq, options=o, tenant="t0")
    tr = Tracer(level="summary")
    with install(tr):
        records = driver.run(strict=False)
    out = Outcome(cfg, records)

    if not handle.all_converged:
        out.failures.append("not every sequence step converged")
    try:
        shape = check_sequence_shape(tr.roots[-1])
    except GateError as exc:
        out.failures.append(f"sequence trace shape: {exc}")
    else:
        if shape["steps"] != cfg.sequence:
            out.failures.append(f"trace saw {shape['steps']} steps, "
                                f"expected {cfg.sequence}")
        # unchanged-fp steps exist (epoch_length > 1) and took the fast
        # path with zero setup spans (checked inside the shape gate)
        unchanged = sum(1 for r in records if not r["fp_changed"])
        if shape["fast_path_steps"] != unchanged:
            out.failures.append(
                f"{unchanged} unchanged-fp steps but "
                f"{shape['fast_path_steps']} passed the zero-setup oracle")
        if unchanged == 0:
            out.failures.append("sequence produced no unchanged-fp steps")
    # final-field oracle: per-step direct sparse solves
    u = seq.u0()
    for step in seq.steps():
        u = spla.spsolve(seq.operator(step).tocsc(), seq.rhs(step, u))
    err = np.linalg.norm(handle.u - u) / max(np.linalg.norm(u), 1.0)
    if err > 1e-6:
        out.failures.append(f"final field off by {err:.2e} vs direct solves")
    return out


def assert_sketched_quality(cfg: Config, *, rtol: float = 0.75,
                            tol: float = 1e-8) -> None:
    """Full-vs-sketched recycle-space quality oracle.

    Solves the same two-solve recycling sequence (the second solve is
    where the carried pair actually matters) under both
    ``recycle_space`` settings and requires *identical* convergence flags
    and iteration counts within ``rtol`` relative slack — the sketched
    carrying trades the per-cycle exact re-derivation for sketch-level
    pair quality, so a bounded iteration regression is the contract, an
    unbounded one is a bug.
    """
    assert cfg.recycle_space == "sketched", "pass the sketched config"
    a, b, m = make_problem(cfg)
    results = {}
    for space in ("full", "sketched"):
        o = Config(**{**cfg.__dict__, "recycle_space": space}).options(
            verify="cheap", tol=tol)
        r1 = solve(a, b, m, options=o)
        r2 = solve(a, b[:, ::-1] if b.ndim > 1 else -b, m, options=o,
                   recycle=r1.info["recycle"], same_system=False)
        results[space] = (np.asarray(r1.converged).tolist()
                          + np.asarray(r2.converged).tolist(),
                          r1.iterations + r2.iterations)
    full_flags, full_it = results["full"]
    sk_flags, sk_it = results["sketched"]
    assert sk_flags == full_flags, (
        f"{cfg.id()}: convergence flags differ full={full_flags} "
        f"sketched={sk_flags}")
    assert sk_it <= (1.0 + rtol) * full_it + 5, (
        f"{cfg.id()}: sketched carrying costs too many iterations "
        f"({sk_it} vs {full_it} full)")
