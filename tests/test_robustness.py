"""Robustness and stress tests: scaling extremes, dtypes, nasty inputs."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Options, Solver, solve
from repro.krylov.base import Operator

from conftest import make_rng, laplacian_1d, relative_residuals


class TestScalingExtremes:
    """Solvers must be invariant to uniform rescaling of A and b."""

    @pytest.mark.parametrize("scale", [1e-12, 1e12])
    @pytest.mark.parametrize("method,extra", [
        ("gmres", {}), ("gcrodr", {"recycle": 5}), ("bgmres", {}),
    ])
    def test_matrix_scaling(self, rng, scale, method, extra):
        a = laplacian_1d(150, shift=0.5)
        b = rng.standard_normal((150, 2))
        ref = solve(a, b, options=Options(krylov_method=method,
                                          gmres_restart=20, tol=1e-8,
                                          max_it=3000, **extra))
        scaled = solve(sp.csr_matrix(a * scale), b * scale,
                       options=Options(krylov_method=method,
                                       gmres_restart=20, tol=1e-8,
                                       max_it=3000, **extra))
        assert scaled.converged.all()
        assert abs(scaled.iterations - ref.iterations) <= 2
        assert np.allclose(scaled.x, ref.x, rtol=1e-5)

    def test_rhs_scaling_only(self, rng):
        a = laplacian_1d(100, shift=0.5)
        b = rng.standard_normal(100)
        r1 = solve(a, b, options=Options(tol=1e-9))
        r2 = solve(a, 1e9 * b, options=Options(tol=1e-9))
        assert r2.converged.all()
        assert np.allclose(r2.x, 1e9 * r1.x, rtol=1e-6)

    def test_float32_input_promoted(self, rng):
        a = laplacian_1d(80, shift=0.5).astype(np.float32)
        b = rng.standard_normal(80).astype(np.float32)
        res = solve(a, b, options=Options(tol=1e-8))
        assert res.converged.all()
        assert res.x.dtype == np.float64

    def test_mixed_real_complex(self, rng):
        a = laplacian_1d(90, shift=0.5)          # real operator
        b = rng.standard_normal(90) + 1j * rng.standard_normal(90)
        res = solve(a, b, options=Options(tol=1e-9))
        assert res.converged.all()
        assert np.iscomplexobj(res.x)
        assert relative_residuals(a, res.x, b)[0] < 1e-8


class TestDegenerateInputs:
    def test_all_zero_rhs_block(self):
        a = laplacian_1d(40, shift=0.5)
        for method, extra in [("gmres", {}), ("bgmres", {}),
                              ("gcrodr", {"recycle": 5}),
                              ("bgcrodr", {"recycle": 5})]:
            res = solve(a, np.zeros((40, 3)),
                        options=Options(krylov_method=method,
                                        gmres_restart=20, tol=1e-8, **extra))
            assert res.converged.all()
            assert np.allclose(res.x, 0)

    def test_one_by_one_system(self):
        a = sp.csr_matrix(np.array([[4.0]]))
        res = solve(a, np.array([8.0]), options=Options(tol=1e-12))
        assert res.converged.all()
        assert np.isclose(res.x[0], 2.0)

    def test_tiny_system_all_methods(self, rng):
        a = sp.csr_matrix(np.diag([1.0, 2.0, 3.0]) + 0.1)
        b = rng.standard_normal(3)
        for method, extra in [("gmres", {}), ("lgmres", {"recycle": 1}),
                              ("gcrodr", {"gmres_restart": 3, "recycle": 1}),
                              ("gmresdr", {"gmres_restart": 3, "recycle": 1})]:
            o = dict(krylov_method=method, tol=1e-10, max_it=100)
            o.update(extra)
            res = solve(a, b, options=Options(**o))
            assert res.converged.all(), method

    def test_exact_initial_guess_every_method(self, rng):
        a = laplacian_1d(50, shift=0.5)
        x_true = rng.standard_normal(50)
        b = a @ x_true
        for method, extra in [("gmres", {}), ("cg", {}),
                              ("gcrodr", {"recycle": 5})]:
            res = solve(a, b, options=Options(krylov_method=method,
                                              gmres_restart=20, tol=1e-8,
                                              **extra), x0=x_true)
            assert res.converged.all(), method
            assert res.iterations == 0, method

    def test_identity_operator(self, rng):
        n = 30
        op = Operator((n, n), np.float64, lambda x: x, nnz=n)
        b = rng.standard_normal(n)
        res = solve(op, b, options=Options(tol=1e-12))
        assert res.iterations <= 1
        assert np.allclose(res.x, b)

    def test_highly_nonnormal_matrix(self, rng):
        """Strongly nonsymmetric Jordan-ish block: GMRES must still work."""
        n = 60
        a = sp.diags([np.full(n, 2.0), np.full(n - 1, 1.9)], [0, 1]).tocsr()
        b = rng.standard_normal(n)
        res = solve(a, b, options=Options(gmres_restart=60, tol=1e-10,
                                          max_it=600))
        assert res.converged.all()
        assert relative_residuals(a, res.x, b)[0] < 1e-9


class TestNonFiniteInput:
    """``api.solve`` rejects a NaN/inf right-hand side, initial guess or
    shift up front: a NaN column used to spin the GMRES restart loop
    forever and an ``inf`` one reported false convergence."""

    N = 400

    @staticmethod
    def _operator(n: int) -> sp.csr_matrix:
        return sp.diags([-np.ones(n - 1), 3.0 * np.ones(n),
                         -np.ones(n - 1)], [-1, 0, 1]).tocsr()

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("method,extra,shifts", [
        ("gmres", {}, None),
        ("bgmres", {}, None),
        ("gcrodr", {"recycle": 5}, None),
        ("bgmres", {}, [0.1, 0.2]),
    ], ids=["gmres", "bgmres", "gcrodr", "shifted"])
    def test_non_finite_rhs_rejected(self, rng, bad, method, extra, shifts):
        b = rng.standard_normal((self.N, 2))
        b[7, 1] = bad
        opts = Options(krylov_method=method, max_it=200, **extra)
        with pytest.raises(ValueError, match="non-finite"):
            solve(self._operator(self.N), b, options=opts, shifts=shifts)

    def test_non_finite_x0_and_shift_rejected(self, rng):
        a = self._operator(50)
        b = rng.standard_normal(50)
        x0 = np.zeros(50)
        x0[3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve(a, b, x0=x0)
        with pytest.raises(ValueError, match="non-finite"):
            solve(a, b, shifts=[0.1, np.inf])
        with pytest.raises(ValueError, match="non-finite"):
            Solver(options=Options(krylov_method="gcrodr",
                                   recycle=5)).solve(a, b * np.inf)


class TestSequenceRobustness:
    def test_alternating_operators(self, rng):
        """Solver must re-detect same-system correctly when A alternates."""
        n = 150
        a1 = laplacian_1d(n, shift=0.2)
        a2 = laplacian_1d(n, shift=0.7)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        for a in (a1, a2, a1, a1, a2):
            res = s.solve(a, rng.standard_normal(n))
            assert res.converged.all()
        flags = [r.info["same_system"] for r in s.results]
        assert flags == [False, False, False, True, False]

    def test_width_change_resets_pseudo_block_recycle(self, rng):
        """Changing the RHS width mid-sequence must not crash."""
        a = laplacian_1d(120, shift=0.3)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=20,
                                   recycle=5, tol=1e-8, max_it=4000))
        r1 = s.solve(a, rng.standard_normal((120, 2)))
        r2 = s.solve(a, rng.standard_normal(120))        # p changes 2 -> 1
        r3 = s.solve(a, rng.standard_normal((120, 3)))   # 1 -> 3
        assert all(r.converged.all() for r in (r1, r2, r3))

    def test_long_sequence_stays_stable(self, rng):
        """20 recycled solves: iterations must not blow up over time."""
        a = laplacian_1d(300)
        s = Solver(options=Options(krylov_method="gcrodr", gmres_restart=30,
                                   recycle=10, tol=1e-8, max_it=8000,
                                   recycle_same_system=True))
        its = [s.solve(a, rng.standard_normal(300)).iterations
               for _ in range(20)]
        assert all(r.converged.all() for r in s.results)
        late = np.mean(its[10:])
        early = np.mean(its[1:4])
        assert late <= 1.5 * early
        # recycled solves stay well below the cold first solve
        assert late < 0.9 * its[0]


@settings(max_examples=15, deadline=None)
@given(n=st.integers(10, 100), shift=st.floats(0.05, 2.0),
       scale=st.floats(1e-6, 1e6), seed=st.integers(0, 2**31 - 1))
def test_property_solution_correctness_under_scaling(n, shift, scale, seed):
    rng = make_rng(seed)
    a = sp.csr_matrix(laplacian_1d(n, shift=shift) * scale)
    b = rng.standard_normal(n)
    res = solve(a, b, options=Options(gmres_restart=min(30, n), tol=1e-9,
                                      max_it=80 * n))
    assert res.converged.all()
    assert relative_residuals(a, res.x, b)[0] < 1e-8
