"""Dense n x n oracles for the rank-m operator paths, and the circulant algebra.

The library applies K, T, U and H_t through thin n x m factors. The
functions here build every operator as a dense matrix from its defining
formula instead, so the thin paths can be checked against an independent
computation at small n. The product of the group algebra C[Z/m] (cyclic
convolution) and the compression and lift maps between n x n and m x m
matrices live here too: the pipeline never calls them, the tests check the
paper's algebra through them.
"""
import numpy as np

from sclrom import (
    DimensionMismatch,
    IdentityReport,
    SnapshotHistory,
    check_orthogonal_system,
    cyclic_shift_matrix,
)


def circulant(c):
    """sum_j c_j C_m^j, summed term by term from powers of the cyclic permutation."""
    m = len(c)
    return sum(c[j] * np.roll(np.eye(m, dtype=np.complex128), j, axis=0) for j in range(m))


def circulant_matrix(c):
    """sum_j c_j C_m^j gathered in one indexing step: entry (i, j) is c_{(i-j) mod m}."""
    m = c.shape[0]
    return c[(np.arange(m)[:, None] - np.arange(m)) % m]


def cyclic_convolution(a, b):
    """Coefficients of circ(a) circ(b): (a * b)_k = sum_j a_j b_{(k - j) mod m}."""
    m = len(a)
    if len(b) != m:
        raise DimensionMismatch(f"orders differ: {m} vs {len(b)}")
    diff = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    return a @ b[diff]


def compress(ohf, X):
    """Vhat* X Vhat: an n x n matrix compressed onto the m x m frame block.

    Restricted to the algebra generated by the shift factor this is an
    algebra homomorphism onto the circulants; in particular the shift
    factor itself compresses to the cyclic permutation matrix.
    """
    if X.shape != (ohf.n, ohf.n):
        raise DimensionMismatch(f"expected {(ohf.n, ohf.n)}, got {X.shape}")
    return ohf.Vhat.conj().T @ X @ ohf.Vhat


def lift(ohf, Y):
    """Vhat Y Vhat*: an m x m matrix lifted into the frame's range.

    The lift preserves products and its output commutes with the span
    projector Vhat Vhat*.
    """
    if Y.shape != (ohf.m, ohf.m):
        raise DimensionMismatch(f"expected {(ohf.m, ohf.m)}, got {Y.shape}")
    return ohf.Vhat @ Y @ ohf.Vhat.conj().T


def orthogonal_projector(cols):
    """P = sum_j v_j v_j* / (v_j* v_j) over the columns v_j."""
    return sum(np.outer(v, v.conj()) / np.vdot(v, v).real for v in cols.T)


def shift_operator(cols):
    """U = sum_j v_{j+1} v_j* / (v_j* v_j) + 1 - P, indices mod m."""
    n, m = cols.shape
    advance = sum(
        np.outer(cols[:, (j + 1) % m], cols[:, j].conj()) / np.vdot(cols[:, j], cols[:, j]).real
        for j in range(m)
    )
    return advance + np.eye(n) - orthogonal_projector(cols)


def dense_pair(pair):
    """Dense n x n C = 1 + cols A cols* and P = cols D^-1 cols* of a cyclic
    pair, formed from its columns and the m x m A and D of its Gram matrix."""
    cols, gram = pair.columns, pair.gram
    C = np.eye(cols.shape[0]) + cols @ pair.A @ cols.conj().T
    P = (cols / gram.diagonal().real) @ cols.conj().T
    return C, P


def dense_identity_report(pair, vs, tol=None):
    """verify_cyclic_identities through dense n x n C and P built from the
    defining sums over the pair's columns, with every identity an n x n
    product and the powers of C multiplied out."""
    C, P = shift_operator(pair.columns), orthogonal_projector(pair.columns)
    cols = vs.columns
    n, m = cols.shape
    if tol is None:
        tol = 1e-10 * max(1.0, float(np.linalg.norm(C)))

    advanced = np.roll(cols, -1, axis=1)
    cycle_residual = float(np.max(np.linalg.norm(C @ cols - advanced, axis=0)))

    eye = np.eye(n, dtype=np.complex128)
    projection_residual = max(
        float(np.max(np.linalg.norm(P @ cols - cols, axis=0))),
        float(np.linalg.norm(P @ P - P)),
        float(np.linalg.norm(P - P.conj().T)),
    )
    commute_residual = float(np.linalg.norm(C @ P - P @ C))

    gaps = []
    power = C.copy()
    for _ in range(m - 1):
        gaps.append(float(np.linalg.norm(power - eye)))
        power = power @ C
    minpoly_residual = float(np.linalg.norm(power - eye))
    min_power_gap = min(gaps) if gaps else float("inf")

    unitarity_residual = None
    if check_orthogonal_system(vs, tol).is_orthonormal:
        unitarity_residual = float(np.linalg.norm(C.conj().T @ C - eye))

    residuals = [cycle_residual, projection_residual, commute_residual, minpoly_residual]
    if unitarity_residual is not None:
        residuals.append(unitarity_residual)
    passed = all(r <= tol for r in residuals) and min_power_gap > tol
    return IdentityReport(cycle_residual, projection_residual, commute_residual,
                          minpoly_residual, unitarity_residual, min_power_gap, passed)


def dense_factors(V, Vhat):
    """K = V V*, T = vhat_1 vhat_1*, and the cyclic shift operator U of Vhat."""
    vhat1 = Vhat[:, 0:1]
    K = V @ V.conj().T
    T = vhat1 @ vhat1.conj().T
    return K, T, shift_operator(Vhat)


def project_span(ohf, X):
    """P X P with P = Vhat Vhat*."""
    P = ohf.Vhat @ ohf.Vhat.conj().T
    return P @ X @ P


def dense_diagram_residuals(ohf, degrees, seed=0):
    """Per-degree residuals of check_commuting_diagram through dense n x n powers.

    For each degree d: the larger of ||Vhat* U^d Vhat - C_m^d|| and
    ||Vhat* p(U) Vhat - p(C_m)|| for the random polynomial p the check draws.
    """
    U = shift_operator(ohf.Vhat)
    n, m = ohf.n, ohf.m
    Cm = cyclic_shift_matrix(m)
    rng = np.random.default_rng(seed)
    residuals = {}
    for d in degrees:
        down = ohf.Vhat.conj().T @ np.linalg.matrix_power(U, d) @ ohf.Vhat
        r_generator = float(np.linalg.norm(down - np.linalg.matrix_power(Cm, d)))
        a = rng.standard_normal(d + 1) + 1j * rng.standard_normal(d + 1)
        pU = np.zeros((n, n), dtype=np.complex128)
        pC = np.zeros((m, m), dtype=np.complex128)
        term_U = np.eye(n, dtype=np.complex128)
        term_C = np.eye(m, dtype=np.complex128)
        for k in range(d + 1):
            pU += a[k] * term_U
            pC += a[k] * term_C
            term_U = term_U @ U
            term_C = term_C @ Cm
        r_poly = float(np.linalg.norm(ohf.Vhat.conj().T @ pU @ ohf.Vhat - pC))
        residuals[d] = max(r_generator, r_poly)
    return residuals


def transition_matrix(model, t):
    """Step-t transition matrix Vhat circ(c_{t mod p}) Vhat*, dense n x n; rank <= m."""
    Vhat = model.ohf.Vhat
    return Vhat @ circulant(model.coeffs[:, t % model.period]) @ Vhat.conj().T


def dense_predict(model, t):
    """K (Vhat circ(c_t) Vhat*) (rho vhat_1) through dense n x n matrices."""
    ohf = model.ohf
    K, _, _ = dense_factors(ohf.V, ohf.Vhat)
    start = ohf.rho * ohf.Vhat[:, 0]
    return K @ (transition_matrix(model, t) @ start)


def dense_load_residuals(V, s, W):
    """The three residuals of the model gate, named as the loader reports
    them, from their defining formulas: the Gram matrices of V and of the
    rows of W, and the squared ratios s_j/s_1 one pair at a time."""
    m = V.shape[1]
    eye = np.eye(m)
    ratios = [(s[j] / s[0]) ** 2 for j in range(m)]
    return {
        "V columns orthonormal": float(np.linalg.norm(V.conj().T @ V - eye)),
        "W rows orthonormal": float(np.linalg.norm(W @ W.conj().T - eye)),
        "s non-increasing": max([ratios[j + 1] - ratios[j] for j in range(m - 1)] + [0.0]),
    }


def dense_rho(V, s, W):
    """rho = v_1* v_1 / s_1, with the first snapshot v_1 = sum_j s_j W_j1 v_j
    formed as an n-vector. The gate reads v_1* v_1 as sum_j s_j^2 |W_j1|^2,
    which is equal only while V is orthonormal."""
    v1 = sum(s[j] * W[j, 0] * V[:, j] for j in range(V.shape[1]))
    return np.vdot(v1, v1).real / s[0]


def dense_verify_residuals(ohf, history):
    """The four verify_ohf residuals, in OhfReport field order."""
    K, T, U = dense_factors(ohf.V, ohf.Vhat)
    Vhat, data = ohf.Vhat, history.data
    t_residual = float(np.linalg.norm(T @ data[:, 0] - ohf.rho * Vhat[:, 0]))
    advanced = np.roll(Vhat, -1, axis=1)
    shift_residual = float(np.max(np.linalg.norm(U @ Vhat - advanced, axis=0)))
    recon = ohf.kappa * (K @ Vhat)
    col_norms = np.linalg.norm(data, axis=0)
    k_residual = float(np.max(np.linalg.norm(recon - data, axis=0) / col_norms))
    unitary_residual = float(np.linalg.norm(U.conj().T @ U - np.eye(ohf.n)))
    return {
        "t_residual": t_residual,
        "shift_residual": shift_residual,
        "k_residual": k_residual,
        "unitary_residual": unitary_residual,
    }


def dense_wave_1d(cfg, return_velocity=False):
    """The wave run through the dense 2nx x 2nx implicit-midpoint stepper.

    Builds D2 as a dense second-difference matrix, solves for the stepper
    (1 - dt/2 A)^-1 (1 + dt/2 A) of y' = A y, y = (w, u), and applies it one
    GEMV per step; same output as ``simulate_wave_1d``.
    """
    nx, nt, dx, dt, c = cfg.nx, cfg.nt, cfg.dx, cfg.dt, cfg.c
    x = cfg.grid()

    D2 = (
        np.diag(-2.0 * np.ones(nx)) + np.diag(np.ones(nx - 1), 1) + np.diag(np.ones(nx - 1), -1)
    ) / dx**2
    A = np.zeros((2 * nx, 2 * nx))
    A[:nx, nx:] = np.eye(nx)
    A[nx:, :nx] = c**2 * D2
    eye = np.eye(2 * nx)
    stepper = np.linalg.solve(eye - 0.5 * dt * A, eye + 0.5 * dt * A)

    y = np.concatenate([cfg.w0.evaluate(x, cfg.L), np.zeros(nx)])
    w_hist = np.zeros((nx, nt + 1))
    u_hist = np.zeros((nx, nt + 1))
    w_hist[:, 0] = y[:nx]
    u_hist[:, 0] = y[nx:]
    for k in range(1, nt + 1):
        y = stepper @ y
        w_hist[:, k] = y[:nx]
        u_hist[:, k] = y[nx:]

    history = SnapshotHistory(w_hist)
    if return_velocity:
        return history, u_hist
    return history


def one_shot_coefficients(ohf, data, mode, period):
    """The coefficients of a fit with factorization ``ohf`` and frame
    period ``period``, from the whole-history formulas: the m powers
    (kappa/rho) e_k of the monomial (kappa/rho) z^t, real and so float64
    for every history, or the least-squares
    product W* diag(kappa / (rho s)) (V* x) at once, over the column-major
    history when the period is its length and otherwise over the means of
    the steps of each residue class t mod period, summed one step at a time
    in step order."""
    m, T = ohf.m, data.shape[1]
    if mode == "monomial":
        return np.diag(np.full(m, (ohf.kappa / ohf.rho).real))
    if period < T:
        sums = np.zeros((data.shape[0], period), dtype=data.dtype)
        for t in range(T):
            sums[:, t % period] += data[:, t]
        data = sums / np.bincount(np.arange(T) % period)
    inv_scale = ohf.kappa / (ohf.rho * ohf.singular_values)
    return ohf.W.conj().T @ (inv_scale[:, None] * (ohf.V.conj().T @ np.asfortranarray(data)))


def one_shot_states(coeffs, ohf, steps):
    """The states of steps 0 <= t < steps, one per row of a (steps, n)
    array: row t is row t mod p of the period's single product
    (coeffs.T @ B.T) @ V.T of the replay operator R = V B, for the p
    columns of coeffs."""
    return ((coeffs.T @ ohf.B.T) @ ohf.V.T)[np.arange(steps) % coeffs.shape[1]]


def one_shot_residuals(states, data):
    """||states[t] - data[:, t]||_2, one np.linalg.norm per step."""
    return [np.linalg.norm(states[t] - data[:, t]) for t in range(data.shape[1])]
