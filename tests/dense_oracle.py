"""Dense n x n oracles for the rank-m operator paths.

The library applies K, T, U and H_t through thin n x m factors. The
functions here build every operator as a dense matrix from its defining
formula instead, so the thin paths can be checked against an independent
computation at small n.
"""
import numpy as np

from sclrom import CirculantElement, VectorSystem, cyclic_operator


def dense_factors(V, Vhat, tol=1e-8):
    """K = V V*, T = vhat_1 vhat_1*, and the cyclic shift operator U of Vhat."""
    vhat1 = Vhat[:, 0:1]
    K = V @ V.conj().T
    T = vhat1 @ vhat1.conj().T
    U = cyclic_operator(VectorSystem(Vhat), tol=tol).C
    return K, T, U


def transition_matrix(model, t):
    """Step-t transition matrix Vhat circ(c_{t mod T}) Vhat*, dense n x n; rank <= m."""
    element = CirculantElement(model.coeffs[:, t % model.period])
    Vhat = model.ohf.Vhat
    return Vhat @ element.to_matrix() @ Vhat.conj().T


def dense_predict(model, t):
    """K (Vhat circ(c_t) Vhat*) (rho vhat_1) through dense n x n matrices."""
    ohf = model.ohf
    K, _, _ = dense_factors(ohf.V, ohf.Vhat)
    start = ohf.rho * ohf.Vhat[:, 0]
    return K @ (transition_matrix(model, t) @ start)


def dense_load_residuals(V, Vhat):
    """The five model-load residuals, named as the loader reports them."""
    K, T, U = dense_factors(V, Vhat)
    m, n = V.shape[1], V.shape[0]
    return {
        "Vhat columns orthonormal": float(np.linalg.norm(Vhat.conj().T @ Vhat - np.eye(m))),
        "V columns orthonormal": float(np.linalg.norm(V.conj().T @ V - np.eye(m))),
        "shift factor unitary": float(np.linalg.norm(U.conj().T @ U - np.eye(n))),
        "K idempotent": float(np.linalg.norm(K @ K - K)),
        "T idempotent": float(np.linalg.norm(T @ T - T)),
    }


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
