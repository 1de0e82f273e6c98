"""Independent reference computations used to pin expected values in tests.

Everything here deliberately avoids the closed-form element formulas in the
package: barycentric bases are recovered by solving small linear systems and
integrals use explicit Gauss rules, so agreement with the package is a real
cross-check rather than the same code evaluated twice.  The dissipation terms
of a step are taken directly from its three levels, where the package derives
them from the increments of each level's energy terms.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import scipy.sparse as sp

from coupledwave import mesh as msh

# Midpoint rule on the three edges: exact for quadratics on a triangle.
_TRI_POINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
_TRI_WEIGHTS = np.array([1.0, 1.0, 1.0]) / 3.0

# Two-point Gauss on [0, 1]: exact for cubics.
_SEG_POINTS = np.array([0.5 - 0.5 / np.sqrt(3.0), 0.5 + 0.5 / np.sqrt(3.0)])
_SEG_WEIGHTS = np.array([0.5, 0.5])


def barycentric_coefficients(coords: np.ndarray) -> np.ndarray:
    """Affine coefficients of the nodal basis on one cell.

    Row i holds (a_i, b_i[, c_i]) with basis_i(x) = a_i + b_i x (+ c_i y),
    found by solving basis_i(vertex_j) = delta_ij.
    """
    n = coords.shape[0]
    A = np.column_stack([np.ones(n), coords])
    return np.linalg.solve(A, np.eye(n)).T


def mass_oracle(coords: np.ndarray) -> np.ndarray:
    """Element mass matrix by Gauss quadrature of basis products."""
    coeff = barycentric_coefficients(coords)
    if coords.shape[1] == 1:
        a, b = coords[0, 0], coords[1, 0]
        pts = a + (b - a) * _SEG_POINTS
        weights = np.abs(b - a) * _SEG_WEIGHTS
        vals = coeff[:, 0][:, None] + coeff[:, 1][:, None] * pts[None, :]
    else:
        area = abs(_signed_area(coords))
        pts = _TRI_POINTS @ coords  # quadrature points in physical space
        weights = area * _TRI_WEIGHTS
        vals = (
            coeff[:, 0][:, None]
            + coeff[:, 1][:, None] * pts[:, 0][None, :]
            + coeff[:, 2][:, None] * pts[:, 1][None, :]
        )
    return (vals * weights[None, :]) @ vals.T


def stiffness_oracle(coords: np.ndarray) -> np.ndarray:
    """Element stiffness matrix from the basis gradients (constants)."""
    coeff = barycentric_coefficients(coords)
    grads = coeff[:, 1:]
    if coords.shape[1] == 1:
        measure = abs(coords[1, 0] - coords[0, 0])
    else:
        measure = abs(_signed_area(coords))
    return measure * (grads @ grads.T)


def _signed_area(coords: np.ndarray) -> float:
    d1 = coords[1] - coords[0]
    d2 = coords[2] - coords[0]
    return 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])


def random_triangle(rng: np.random.Generator, min_area: float = 0.05) -> np.ndarray:
    """Random triangle in [0, 1]^2 with area bounded away from zero."""
    while True:
        coords = rng.uniform(0.0, 1.0, size=(3, 2))
        area = _signed_area(coords)
        if abs(area) >= min_area:
            if area < 0:
                coords = coords[[0, 2, 1]]
            return coords


def random_segment(rng: np.random.Generator, min_length: float = 0.05) -> np.ndarray:
    """Random positively oriented segment in [0, 1]."""
    while True:
        a, b = np.sort(rng.uniform(0.0, 1.0, size=2))
        if b - a >= min_length:
            return np.array([[a], [b]])


def fd_time_derivative(fn, t: float, order: int, delta: float = 0.01) -> float:
    """6th-order central difference of a scalar function of time."""
    if order == 1:
        w = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0
        scale = delta
    elif order == 2:
        w = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
        scale = delta * delta
    else:
        raise ValueError(order)
    offsets = np.arange(-3, 4)
    return sum(wi * fn(t + oi * delta) for wi, oi in zip(w, offsets)) / scale


def fd_laplacian(fn, point: np.ndarray, delta: float = 0.01) -> float:
    """6th-order central difference Laplacian of a scalar field."""
    w = np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    offsets = np.arange(-3, 4)
    total = 0.0
    for axis in range(point.size):
        for wi, oi in zip(w, offsets):
            shifted = point.copy()
            shifted[axis] += oi * delta
            total += wi * fn(shifted)
    return total / (delta * delta)


def jittered_square(n: int, seed: int) -> msh.Mesh:
    """The n x n unit square with each interior vertex moved by up to 0.15 h."""
    base = msh.generate_unit_square(n)
    rng = np.random.default_rng(seed)
    vertices = base.vertices.copy()
    interior = ~base.boundary_flags
    vertices[interior] += rng.uniform(-0.15 / n, 0.15 / n, size=(int(interior.sum()), 2))
    h = float(msh.cell_diameters(vertices, base.cells).max())
    jittered = msh.Mesh(2, vertices, base.cells.copy(), base.boundary_flags.copy(), h)
    msh.validate(jittered)
    return jittered


def reference_assembly(mesh: msh.Mesh, element_fn, row_map, col_map, shape) -> sp.csr_matrix:
    """The masked COO build that assembly keeps bitwise: entries in cell-major
    (cell, i, j) order, int64 triplets, rows or columns mapped to a negative
    index dropped, duplicates summed by scipy's COO -> CSR conversion."""
    local = element_fn(mesh.vertices[mesh.cells])
    rows, cols = np.broadcast_arrays(
        row_map[mesh.cells][:, :, None], col_map[mesh.cells][:, None, :]
    )
    keep = (rows >= 0) & (cols >= 0)
    mat = sp.coo_matrix((local[keep], (rows[keep], cols[keep])), shape=shape)
    return mat.tocsr()


def traced_memory(fn, *args, **kwargs):
    """(result, peak, retained) of one call under tracemalloc: the peak and
    the bytes still allocated afterwards, both above the start of the call.
    numpy and scipy report their buffers to tracemalloc, so both are
    deterministic."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args, **kwargs)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - before, current - before


def random_run_states(mesh: msh.Mesh, levels: int, seed: int) -> list:
    """States 1..levels of a run of random fields on the mesh's interior
    vertices: each state's lower level is the previous state's upper one."""
    from coupledwave.scheme import State

    n = int((~mesh.boundary_flags).sum())
    fields = np.random.default_rng(seed).standard_normal((levels + 1, 2, n))
    return [State(i, fields[i - 1, 0], fields[i, 0], fields[i - 1, 1], fields[i, 1])
            for i in range(1, levels + 1)]


def dissipation_terms(old_state, new_state, mass, stiffness, params) -> dict:
    """The seven dissipation terms of the step from old_state to new_state.

    Each is one quadratic form of a difference of the three levels involved:
    the second differences, the increments of u, v and u - v, and friction
    as eps / k times the squared M-norm of the increment.
    """
    def quad(matrix, x):
        return float(x @ (matrix @ x))

    u_old, u_mid, u_new = old_state.u_prev, new_state.u_prev, new_state.u_curr
    v_old, v_mid, v_new = old_state.v_prev, new_state.v_prev, new_state.v_curr
    k, c2 = params.k, params.c**2
    du, dv = u_new - u_mid, v_new - v_mid
    return {
        "second_difference_u": -0.5 * quad(mass, (u_new - 2.0 * u_mid + u_old) / k),
        "second_difference_v": -0.5 * quad(mass, (v_new - 2.0 * v_mid + v_old) / k),
        "gradient_difference_u": -0.5 * c2 * quad(stiffness, du),
        "gradient_difference_v": -0.5 * c2 * quad(stiffness, dv),
        "friction_u": -(params.eps_u / k) * quad(mass, du),
        "friction_v": -(params.eps_v / k) * quad(mass, dv),
        "coupling_difference": -0.5 * params.alpha * quad(mass, (u_new - v_new) - (u_mid - v_mid)),
    }


def modal_rate(lam, params, fields=None):
    """Energy decay rate of the scheme on one generalized eigenpair K phi = lam M phi.

    On span{phi} in both fields the step is A x_{n+1} = B x_n + C x_{n-1} on
    x = (u, v), with A = (1/k^2 + c^2 lam) I + diag(eps)/k + alpha [[1, -1],
    [-1, 1]], B = 2 I/k^2 + diag(eps)/k and C = -I/k^2.  The energy of the
    mode decays like rho^{2n}, rho the spectral radius of the 4 x 4 companion
    [[A^-1 B, A^-1 C], [I, 0]], so the rate is -2 ln(rho) / k.  With
    ``fields = (a_u, a_v)``, rho is taken over the companion's eigenvalues
    that the data (u, v) = (a_u, a_v) phi at rest excites.  ``lam`` may be an
    array; the result then has its shape.
    """
    values, vectors = np.linalg.eig(_companion(lam, params))
    if fields is None:
        rho = np.abs(values).max(axis=-1)
    else:
        # the startup level of data at rest repeats it: x_1 = x_0
        start = np.broadcast_to(np.array([*fields, *fields], dtype=complex), values.shape)
        weights = np.abs(np.linalg.solve(vectors, start[..., None])[..., 0])
        excited = weights > 1e-10 * weights.max(axis=-1, keepdims=True)
        rho = np.where(excited, np.abs(values), 0.0).max(axis=-1)
    return -2.0 * np.log(rho) / params.k


def _companion(lam, params) -> np.ndarray:
    """The 4 x 4 step matrices of ``modal_rate`` on (a_n, b_n, a_{n-1}, b_{n-1}),
    one per eigenvalue in ``lam``."""
    k = params.k
    lam = np.asarray(lam, dtype=float)
    eye = np.eye(2)
    damping = np.diag([params.eps_u, params.eps_v]) / k
    coupling = params.alpha * np.array([[1.0, -1.0], [-1.0, 1.0]])
    a = ((1.0 / k**2 + params.c**2 * lam[..., None, None]) * eye + damping + coupling)
    b = 2.0 * eye / k**2 + damping
    companion = np.zeros(lam.shape + (4, 4))
    companion[..., :2, :2] = np.linalg.solve(a, np.broadcast_to(b, a.shape))
    companion[..., :2, 2:] = np.linalg.solve(a, np.broadcast_to(-eye / k**2, a.shape))
    companion[..., 2:, :2] = eye
    return companion


def lyapunov_contraction(lam, params, weights):
    """(sigma, lower, upper) of the Lyapunov value on one generalized
    eigenpair K phi = lam M phi, |phi|_M = 1.

    On span{phi} the levels are u_n = a_n phi and v_n = b_n phi, and the
    energy E and the value L = N_weight E + beta (a_n (a_n - a_{n-1})
    + b_n (b_n - b_{n-1})) / k of ``energy.EnergyTracker`` (``weights``
    holds N_weight and beta) are quadratic forms z.(E z) and z.(Q z) of
    z = (a_n, b_n, a_{n-1}, b_{n-1}).  One step maps z to T z, T the
    companion of ``modal_rate``.  With Q = C C^T (Cholesky), the largest
    eigenvalue l of C^-1 T^T Q T C^-T bounds L_{n+1} / L_n, so every step
    contracts L at the rate (L_n - L_{n+1}) / (k L_n) >= sigma = (1 - l) / k;
    the extreme eigenvalues of C^-1 E C^-T bound E / L, whence
    lower <= L / E <= upper.  ``lam`` may be an array; each result then has
    its shape.
    """
    k = params.k
    lam = np.asarray(lam, dtype=float)
    step = _companion(lam, params)
    eye, zero = np.eye(2), np.zeros((2, 2))
    displacement = np.hstack([eye, zero])  # z -> (a_n, b_n)
    velocity = np.hstack([eye, -eye]) / k  # z -> the backward differences
    gap = np.array([[1.0, -1.0, 0.0, 0.0]])  # z -> a_n - b_n
    energy = (0.5 * (velocity.T @ velocity + params.alpha * gap.T @ gap)
              + 0.5 * params.c**2 * lam[..., None, None] * (displacement.T @ displacement))
    cross = displacement.T @ velocity
    q = weights.N_weight * energy + 0.5 * weights.beta * (cross + cross.T)
    chol = np.linalg.cholesky(q)

    def reduced(a):  # C^-1 a C^-T of a symmetric a
        return np.linalg.solve(chol, np.swapaxes(np.linalg.solve(chol, a), -1, -2))

    largest = np.linalg.eigvalsh(reduced(np.swapaxes(step, -1, -2) @ q @ step))[..., -1]
    ratios = np.linalg.eigvalsh(reduced(energy))  # E / L, ascending
    return (1.0 - largest) / k, 1.0 / ratios[..., -1], 1.0 / ratios[..., 0]


def mms_error_1d(n: int, k: float, params, case) -> float:
    """The composite MMS error of ``mms.measure_error`` on the uniform interval
    of n cells with time step k, from the scheme's exact modal recurrence.

    There the interpolated mode phi_j = sin(pi j h) is an eigenvector of M, K
    and the load matrix: M phi = mu phi and K phi = kappa phi, with
    mu = h (4 + 2 cos pi h) / 6 and kappa = (2 - 2 cos pi h) / h.  So the
    levels stay (a_n phi, b_n phi), one 2 x 2 solve per step gives (a_n, b_n),
    and the errors e_u = a_u e^{-t_n} - a_n, e_v = a_v e^{-t_n} - b_n of the
    ``case`` (a ``ManufacturedCase``) enter the composite
    |phi|^2 [mu (de_u^2 + de_v^2) + kappa (e_u^2 + e_v^2) + mu (e_u - e_v)^2],
    de the backward differences over k and |phi|^2 = n / 2.  The result is
    the square root of its largest value over levels 1 .. T/k.
    """
    h = 1.0 / n
    mu = h * (4.0 + 2.0 * math.cos(math.pi * h)) / 6.0
    kappa = (2.0 - 2.0 * math.cos(math.pi * h)) / h
    eps_u, eps_v, alpha = params.eps_u, params.eps_v, params.alpha
    diag = 1.0 / k**2 + params.c**2 * kappa / mu + alpha
    a11, a22 = diag + eps_u / k, diag + eps_v / k
    det = a11 * a22 - alpha * alpha
    # levels 0 and 1: the interpolant and the Taylor step with u_t = -u
    a_old, b_old = case.a_u, case.a_v
    a_cur, b_cur = case.a_u * (1.0 - k), case.a_v * (1.0 - k)

    def errors(step, a, b):
        decay = math.exp(-step * k)
        return case.a_u * decay - a, case.a_v * decay - b

    def composite(step):
        e_u, e_v = errors(step, a_cur, b_cur)
        old_u, old_v = errors(step - 1, a_old, b_old)
        du, dv = (e_u - old_u) / k, (e_v - old_v) / k
        return 0.5 * n * (mu * (du * du + dv * dv) + kappa * (e_u * e_u + e_v * e_v)
                          + mu * (e_u - e_v) ** 2)

    worst = composite(1)
    for step in range(2, round(params.T / k) + 1):
        decay = math.exp(-step * k)
        r_u = (2.0 * a_cur - a_old) / k**2 + eps_u / k * a_cur + case.s_u * decay
        r_v = (2.0 * b_cur - b_old) / k**2 + eps_v / k * b_cur + case.s_v * decay
        a_old, b_old = a_cur, b_cur
        a_cur, b_cur = (a22 * r_u + alpha * r_v) / det, (alpha * r_u + a11 * r_v) / det
        worst = max(worst, composite(step))
    return math.sqrt(worst)


def per_level_table(states, mass, stiffness, params, lyapunov_params=None) -> np.ndarray:
    """The table of consecutive states, one level at a time, as an array of
    ``energy.TABLE_DTYPE``.

    This is the tracker's arithmetic taken level by level, with one sparse
    matrix-vector product per energy term and one ``sparse_linalg.dot`` per
    sum, in the order the tracker keeps: parts 1/2 weight a.(P a), E their sum from
    the left, the dissipation terms -1/2 weight (a - a_old).(P a - P a_old)
    and friction -2 eps k times the new kinetic part.  The first row's dE
    and residual are 0.0 and its dissipation terms NaN.
    """
    from coupledwave.energy import TABLE_DTYPE
    from coupledwave.sparse_linalg import dot

    rows, old_terms, old_E = [], None, None
    for state in states:
        k = params.k
        du = (state.u_curr - state.u_prev) / k
        dv = (state.v_curr - state.v_prev) / k
        w = state.u_curr - state.v_curr
        terms = ((1.0, du, mass @ du), (1.0, dv, mass @ dv),
                 (params.c**2, state.u_curr, stiffness @ state.u_curr),
                 (params.c**2, state.v_curr, stiffness @ state.v_curr),
                 (params.alpha, w, mass @ w))
        parts = tuple(0.5 * weight * dot(a, pa) for weight, a, pa in terms)
        E = sum(parts)
        lyap = E
        if lyapunov_params is not None:
            cross = dot(state.u_curr, terms[0][2]) + dot(state.v_curr, terms[1][2])
            lyap = lyapunov_params.N_weight * E + lyapunov_params.beta * cross
        dE, residual, dissipation = 0.0, 0.0, (math.nan,) * 7
        if old_terms is not None:
            second_u, second_v, gradient_u, gradient_v, coupling = (
                -0.5 * weight * dot(a - a_old, pa - pa_old)
                for (weight, a, pa), (_, a_old, pa_old) in zip(terms, old_terms))
            dissipation = (second_u, second_v, gradient_u, gradient_v,
                           -2.0 * params.eps_u * k * parts[0],
                           -2.0 * params.eps_v * k * parts[1], coupling)
            dE = E - old_E
            residual = abs(dE - sum(dissipation))
        rows.append((state.n, state.n * k, E, *parts, dE, residual, lyap, *dissipation))
        old_terms, old_E = terms, E
    return np.array(rows, dtype=TABLE_DTYPE)
