"""The closed-form manufactured solution against its symbolic derivation,
and the runtime path kept free of sympy, scipy and numpy.random."""

import os
import subprocess
import sys
import textwrap

import numpy as np

from nsac.grid import make_grid
from nsac.manufactured import ManufacturedSolution
from nsac.potential import DoubleWell
from nsac.solver import FluidParams

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _symbolic_fields(params):
    """U, C, s_c (without F'(C)/eps) and s_u derived with sympy, lambdified."""
    import sympy as sp

    x, y, t = sp.symbols("x y t", real=True)
    g = 1 + sp.Rational(1, 2) * sp.sin(4 * t)
    psi = g * sp.sin(sp.pi * x) ** 2 * sp.sin(sp.pi * y) ** 2 / sp.pi
    U = [sp.diff(psi, y), -sp.diff(psi, x)]
    C = sp.Rational(3, 10) * g * sp.cos(sp.pi * x) * sp.cos(sp.pi * y)

    def lap(f):
        return sp.diff(f, x, 2) + sp.diff(f, y, 2)

    def grad(f):
        return [sp.diff(f, x), sp.diff(f, y)]

    gC = grad(C)
    s_c = sp.diff(C, t) + U[0] * gC[0] + U[1] * gC[1] - params.eps * lap(C)
    # S = (nu/2)(grad U + grad U^T), so div S = (nu/2) lap U for div-free U
    s_u = [
        sp.diff(U[a], t)
        + U[0] * grad(U[a])[0]
        + U[1] * grad(U[a])[1]
        - (params.nu / 2) * lap(U[a])
        + params.eps * lap(C) * gC[a]
        for a in range(2)
    ]

    def to_numpy(expr):
        return sp.lambdify((x, y, t), expr, "numpy", cse=True)

    return [to_numpy(u) for u in U], to_numpy(C), to_numpy(s_c), [to_numpy(s) for s in s_u]


def _rel_err(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_closed_form_matches_symbolic_derivation():
    params = FluidParams(nu=0.01, eps=0.05)
    well = DoubleWell()
    ms = ManufacturedSolution(params, well)
    U, C, s_c, s_u = _symbolic_fields(params)
    for n in (16, 32, 64):
        grid = make_grid(2, (n, n), (1, 1))
        cells = np.meshgrid(grid.cell_centers(0), grid.cell_centers(1), indexing="ij")
        faces = [
            np.meshgrid(
                *[grid.face_coords(b) if b == a else grid.cell_centers(b) for b in range(2)],
                indexing="ij",
            )
            for a in range(2)
        ]
        for t in (0.0, 0.3, 1.0, 2.7):
            state = ms.state_at(grid, t)
            sc, su = ms.sources_at(grid, t)
            c_exact = C(*cells, t)
            assert state.t == t
            assert _rel_err(state.c.values, c_exact) <= 1e-12
            want_sc = s_c(*cells, t) + well.eval_Fprime(c_exact) / params.eps
            assert _rel_err(sc.values, want_sc) <= 1e-12
            for a in range(2):
                want_u = U[a](*faces[a], t)
                assert _rel_err(state.u.components[a], want_u) <= 1e-12
                assert _rel_err(su.components[a], s_u[a](*faces[a], t)) <= 1e-12


def test_sampled_fields_are_fresh_arrays():
    """Callers may write into sampled fields without touching the cached tables."""
    ms = ManufacturedSolution(FluidParams(nu=0.01, eps=0.05), DoubleWell())
    grid = make_grid(2, (8, 8), (1, 1))
    first = ms.state_at(grid, 0.0)
    first.c.values[:] = 7.0
    first.u.components[0][:] = 7.0
    sc, su = ms.sources_at(grid, 0.0)
    sc.values[:] = 7.0
    su.components[1][:] = 7.0
    again = ms.state_at(grid, 0.0)
    assert np.max(np.abs(again.c.values)) < 0.3
    assert np.max(np.abs(again.u.components[0])) < 1.0
    sc2, su2 = ms.sources_at(grid, 0.0)
    assert not np.any(sc2.values == 7.0) and not np.any(su2.components[1] == 7.0)


def test_runtime_path_does_not_import_sympy(tmp_path):
    cfg = tmp_path / "mms.cfg"
    cfg.write_text("init.kind = manufactured\nwsu.levels = 8,16\n")
    audit = tmp_path / "audit.cfg"
    audit.write_text("grid.n = 16\ntime.t_end = 0.002\ntime.dt = 1e-3\ninit.kind = vortex\n")
    spinodal = tmp_path / "spinodal.cfg"
    spinodal.write_text("grid.n = 8\ntime.t_end = 0.002\ntime.dt = 1e-3\ninit.kind = spinodal\n")
    script = textwrap.dedent(f"""
        import sys
        import nsac.cli
        import nsac.manufactured
        code = nsac.cli.main(["mms", "--config", {str(cfg)!r},
                              "--out", {str(tmp_path / "out")!r}, "--quiet"])
        assert code in (0, 2), code
        code = nsac.cli.main(["energy-audit", "--config", {str(audit)!r},
                              "--out", {str(tmp_path / "audit")!r}, "--quiet"])
        assert code == 0, code
        code = nsac.cli.main(["simulate", "--config", {str(spinodal)!r},
                              "--out", {str(tmp_path / "spinodal")!r}, "--quiet"])
        assert code == 0, code
        for name in ("sympy", "scipy", "numpy.random"):
            assert name not in sys.modules, name + " was imported"
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                       env=env)
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "out" / "mms_spatial.csv").exists()
    assert (tmp_path / "audit" / "energy.csv").exists()
    assert (tmp_path / "spinodal" / "energy.csv").exists()
