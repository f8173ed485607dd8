"""Resolvent-based smallness criteria for the off-diagonal coupling.

The quantity ``norm(V (A - lambda)^{-1})`` measures the coupling against
the diagonal part. If ``max(1, norm(Y)) * norm(V (A - lambda)^{-1}) < 1``
for a shift in the resolvent set of A, a Neumann series places ``lambda``
in the resolvent sets of both ``A + V`` and ``A - Y V``; sweeping shifts
along the imaginary axis estimates the relative bound of V with respect
to a Hermitian A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .angular import AngularPair
from .core import BlockMatrix, _sigma_min, check_shifts, operator_norm
from .core import shift_distance
from .errors import ContractError, NumericError, StructuralError
from .spectral import eigenvalues


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


def resolvent_norm(b: BlockMatrix, lam: complex) -> float:
    """``norm(V (A - lam)^{-1})`` for the diagonal/off-diagonal split of b.

    V is block anti-diagonal, so the norm is
    ``max(norm(W1 (A1 - lam)^{-1}), norm(W0 (A0 - lam)^{-1}))``. With
    Hermitian blocks (``b.eigh_A``) each inverse is
    ``Q_k D_k Q_k*`` with ``D_k = diag(1 / (w_k - lam))``, and the unitary
    ``Q_k*`` drops out of the norm: two half-size SVDs of column-scaled
    blocks. Other blocks take one solve per half.
    """
    return _resolvent_norms(b, [complex(lam)])[0]


def _resolvent_norms(b: BlockMatrix, lams: list[complex]) -> list[float]:
    """:func:`resolvent_norm` at each shift, ``W1 Q1`` and ``W0 Q0`` formed
    once.

    It has degree 0 in (A, V, lam), so each shift's is formed on all three
    scaled by the power of two that brings the largest entry of the blocks
    and that shift into [1/2, 1), as
    :func:`~blockdiag.riccati.solve_newton_X0` scales its blocks: exact
    while the entries stay normal, on subnormal blocks the reciprocal of a
    distance ``w - lam`` no longer overflows, and a large shift does not
    flush the blocks of a small one to zero.
    """
    parts = [m.view(np.float64) for m in (b.A0, b.A1, b.W0, b.W1)]
    e = np.frexp(max(float(np.max(np.abs(m), initial=0.0)) for m in parts))[1]
    a0, a1, v0, v1 = (np.ldexp(m, -e).view(np.complex128) for m in parts)
    if b.eigh_A is not None:
        (w0, q0), (w1, q1) = b.eigh_A
        spec_a = np.concatenate([w0, w1])
        # the spectra stand for A0 and A1, and W Q for W
        a0, a1, v0, v1 = np.ldexp(w0, -e), np.ldexp(w1, -e), v0 @ q0, v1 @ q1
    else:
        spec_a = np.concatenate([eigenvalues(b.A0), eigenvalues(b.A1)])
    check_shifts(lams, spec_a, b.norm_A, 1e-10, "spec(A)")
    norms = []
    for lam in lams:
        # a further power of two, when the shift is the larger
        k = max(e, np.frexp(max(abs(lam.real), abs(lam.imag)))[1])
        s0, s1, u0, u1 = (np.ldexp(m.view(float), e - k).view(m.dtype) for m in (a0, a1, v0, v1))
        lam = complex(np.ldexp(lam.real, -k), np.ldexp(lam.imag, -k))
        halves = _times_inverse(u1, s1, lam), _times_inverse(u0, s0, lam)
        norms.append(max(map(operator_norm, halves)))
    return norms


def _times_inverse(w: np.ndarray, a: np.ndarray, lam: complex) -> np.ndarray:
    """``w (a - lam)^{-1}``: a column scaling for a diagonal ``a`` given as
    its diagonal, else ``solve((a - lam)^H, w^H)^H``."""
    if a.ndim == 1:
        return w / (a - lam)
    shifted = a - lam * np.eye(a.shape[0], dtype=np.complex128)
    return np.linalg.solve(shifted.conj().T, w.conj().T).conj().T


def neumann_certificate(b: BlockMatrix, p: AngularPair, lam: complex) -> NeumannCertificate:
    """Evaluate the Neumann criterion at a shift and certify its claims.

    When the criterion holds, the smallest singular values of ``B - lam``
    and ``A - Y V - lam`` are computed and checked against the Neumann
    lower bound ``sigma_min(A - lam) * (1 - contraction)`` with 10% slack.
    ``A - Y V = diag(A0 - X1 W0, A1 - X0 W1)``, so the latter is the
    smaller of those of its two diagonal blocks.
    """
    lam = complex(lam)
    nv = resolvent_norm(b, lam)
    norm_y = p.norm_Y
    product = max(1.0, norm_y) * nv
    holds = product < 1.0
    sigma_b = None
    sigma_ayv = None
    if holds:
        sigma_a = b.sigma_min_shifted_A(lam)
        sigma_b = b.sigma_min_shifted(lam)
        # A - Y V = diag(A0 - X1 W0, A1 - X0 W1)
        sigma_ayv = min(
            _sigma_min(a - x @ w - lam * np.eye(a.shape[0]))
            for a, x, w in ((b.A0, p.X1, b.W0), (b.A1, p.X0, b.W1))
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

    Sweeps shifts ``i tau`` over the (finite, positive, ascending) grid; the
    smallest resolvent norm is the reported bound. For Hermitian A each
    ``|1 / (w - i tau)|`` shrinks as tau grows, so the sweep is
    nonincreasing and that is its value at the largest tau. The certified
    pair ``(norm(V), b_star)`` holds by construction: ``norm(V x) <= norm(V)``
    for every unit x.
    """
    taus = [float(t) for t in tau_grid]
    if not taus:
        raise StructuralError("tau_grid must not be empty")
    # comparisons with NaN are false, so finiteness is tested as 0 < t < inf
    if not all(0.0 < t < math.inf for t in taus) or any(
        t2 <= t1 for t1, t2 in zip(taus, taus[1:])
    ):
        raise StructuralError(
            "tau_grid must be finite, positive and strictly ascending"
        )
    if not b.hermitian_A:
        raise ContractError("relative-bound sweep requires a Hermitian diagonal part")
    lams = [1j * tau for tau in taus]
    sweep, spec_a = list(zip(lams, _resolvent_norms(b, lams))), np.concatenate(b.eigvalsh_A)
    growth = [(lam, abs(lam) / shift_distance(spec_a, lam)) for lam in lams]
    return RelativeBoundEstimate(
        a=b.norm_V,
        b_star=min(r for _, r in sweep),
        lambda_sweep=sweep,
        resolvent_growth=growth,
    )
