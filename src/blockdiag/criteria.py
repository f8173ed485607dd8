"""Resolvent-based smallness criteria for the off-diagonal coupling.

The quantity ``norm(V (A - lambda)^{-1})`` measures the coupling against
the diagonal part. If ``max(1, norm(Y)) * norm(V (A - lambda)^{-1}) < 1``
for a shift in the resolvent set of A, a Neumann series places ``lambda``
in the resolvent sets of both ``A + V`` and ``A - Y V``; sweeping shifts
along the imaginary axis estimates the relative bound of V with respect
to a Hermitian A.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .angular import AngularPair
from .core import BlockMatrix, frobenius_norm, is_hermitian, operator_norm
from .errors import ContractError, NumericError, ResolventError, StructuralError
from .spectral import eigenvalues

#: Number of random unit vectors, and the seed that draws them, on which
#: ``estimate_relative_bound`` validates its certified pair.
RELBOUND_SAMPLES = 32
RELBOUND_SEED = 0


@dataclass(frozen=True)
class NeumannCertificate:
    """Certificate data for the resolvent-intersection criterion.

    ``holds`` iff ``product = max(1, norm_Y) * norm_V_resolvent < 1``.
    When it holds, ``sigma_min_B`` and ``sigma_min_AYV`` record the
    verified distances of the shift from the spectra of ``A + V`` and
    ``A - Y V`` (smallest singular values of the shifted matrices).
    """

    lam: complex
    norm_V_resolvent: float
    norm_Y: float
    product: float
    holds: bool
    sigma_min_B: float | None = None
    sigma_min_AYV: float | None = None


@dataclass(frozen=True)
class RelativeBoundEstimate:
    """Sweep-based estimate of the relative bound of V against A.

    ``b_star`` is the smallest resolvent norm seen on the sweep,
    ``(a, b_star)`` is the certified pair (norm(V), b_star),
    ``lambda_sweep`` records (shift, resolvent norm) samples and
    ``resolvent_growth`` the products
    ``|shift| * norm((A - shift)^{-1})`` on the same sweep (informational:
    boundedness of those products is the regularity half of the zero-bound
    criterion, which is automatic at finite dimension).
    """

    a: float
    b_star: float
    lambda_sweep: list = field(default_factory=list)
    resolvent_growth: list = field(default_factory=list)
    validation_max_violation: float = 0.0


def resolvent_norm(b: BlockMatrix, lam: complex) -> float:
    """``norm(V (A - lam)^{-1})`` for the diagonal/off-diagonal split of b.

    V is block anti-diagonal, so the norm is
    ``max(norm(W1 (A1 - lam)^{-1}), norm(W0 (A0 - lam)^{-1}))``. With
    bitwise-Hermitian blocks (``b.eigh_A``) each inverse is
    ``Q_k D_k Q_k*`` with ``D_k = diag(1 / (w_k - lam))``, and the unitary
    ``Q_k*`` drops out of the norm: two half-size SVDs of column-scaled
    blocks. Other blocks take one solve per half.
    """
    lam = complex(lam)
    if b.eigh_A is not None:
        (w0, q0), (w1, q1) = b.eigh_A
        spec_a = np.concatenate([w0, w1])
    else:
        spec_a = np.concatenate([eigenvalues(b.A0), eigenvalues(b.A1)])
    scale = b.norm_A
    dist = float(np.min(np.abs(spec_a - lam)))
    if dist < 1e-10 * max(scale, 1.0):
        raise ResolventError(
            f"shift {lam} is within {dist:.3e} of spec(A) (norm {scale:.3e})"
        )
    if b.eigh_A is not None:
        halves = ((b.W1 @ q1) / (w1 - lam), (b.W0 @ q0) / (w0 - lam))
    else:
        halves = (_times_inverse(b.W1, b.A1, lam), _times_inverse(b.W0, b.A0, lam))
    return max(operator_norm(h) for h in halves)


def _times_inverse(w: np.ndarray, a: np.ndarray, lam: complex) -> np.ndarray:
    """``w (a - lam)^{-1} = solve((a - lam)^H, w^H)^H``."""
    shifted = a - lam * np.eye(a.shape[0], dtype=np.complex128)
    return np.linalg.solve(shifted.conj().T, w.conj().T).conj().T


def neumann_certificate(b: BlockMatrix, p: AngularPair, lam: complex) -> NeumannCertificate:
    """Evaluate the Neumann criterion at a shift and certify its claims.

    When the criterion holds, the smallest singular values of ``B - lam``
    and ``A - Y V - lam`` are computed and checked against the Neumann
    lower bound ``sigma_min(A - lam) * (1 - contraction)`` with 10% slack.
    """
    lam = complex(lam)
    nv = resolvent_norm(b, lam)
    norm_y = p.norm_Y
    product = max(1.0, norm_y) * nv
    holds = product < 1.0
    sigma_b = None
    sigma_ayv = None
    if holds:
        a = b.diagonal_part()
        v = b.offdiagonal_part()
        y = p.Y
        eye = np.eye(a.shape[0], dtype=np.complex128)
        sigma_a = b.sigma_min_shifted_A(lam)
        sigma_b = b.sigma_min_shifted(lam)
        sigma_ayv = float(
            np.linalg.svd(a - y @ v - lam * eye, compute_uv=False)[-1]
        )
        floor_b = sigma_a * (1.0 - nv)
        floor_ayv = sigma_a * (1.0 - product)
        if sigma_b < 0.9 * floor_b or sigma_ayv < 0.9 * floor_ayv:
            raise NumericError(
                "certificate holds but Neumann distance bound fails",
                diagnostics={
                    "sigma_min_B": sigma_b,
                    "sigma_min_AYV": sigma_ayv,
                    "floor_B": floor_b,
                    "floor_AYV": floor_ayv,
                },
            )
    return NeumannCertificate(
        lam=lam,
        norm_V_resolvent=nv,
        norm_Y=norm_y,
        product=product,
        holds=holds,
        sigma_min_B=sigma_b,
        sigma_min_AYV=sigma_ayv,
    )


def estimate_relative_bound(b: BlockMatrix, tau_grid) -> RelativeBoundEstimate:
    """Estimate the relative bound of V against a Hermitian A.

    Sweeps shifts ``i tau`` over the (positive, ascending) grid; the
    smallest resolvent norm is the reported bound. The certified pair
    ``(norm(V), b_star)`` is validated on :data:`RELBOUND_SAMPLES` random
    unit vectors drawn from :data:`RELBOUND_SEED`.
    """
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise StructuralError("tau_grid must not be empty")
    if any(t <= 0 for t in taus) or any(
        t2 <= t1 for t1, t2 in zip(taus, taus[1:])
    ):
        raise StructuralError("tau_grid must be positive and strictly ascending")
    a = b.diagonal_part()
    if not is_hermitian(a):
        raise ContractError("relative-bound sweep requires a Hermitian diagonal part")
    v = b.offdiagonal_part()
    sweep = []
    growth = []
    for tau in taus:
        lam = 1j * tau
        sweep.append((lam, resolvent_norm(b, lam)))
        growth.append((lam, abs(lam) / b.sigma_min_shifted_A(lam)))
    b_star = min(r for _, r in sweep)
    a_const = b.norm_V
    rng = np.random.default_rng(RELBOUND_SEED)
    worst = 0.0
    n = a.shape[0]
    for _ in range(RELBOUND_SAMPLES):
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        x /= np.linalg.norm(x)
        # overflow-safe vector norms: entries may be as large as the input's
        gap = frobenius_norm(v @ x) - (a_const + b_star * frobenius_norm(a @ x))
        worst = max(worst, float(gap))
    if worst > 1e-12 * max(a_const, 1.0):
        raise NumericError(
            "relative-bound pair failed sample validation",
            diagnostics={"max_violation": worst},
        )
    return RelativeBoundEstimate(
        a=a_const,
        b_star=b_star,
        lambda_sweep=sweep,
        resolvent_growth=growth,
        validation_max_violation=worst,
    )
