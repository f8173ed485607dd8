import numpy as np
import pytest
import scipy.linalg

from blockdiag import BlockMatrix
from blockdiag.core import from_blocks

# filled by tests/test_acceptance.py, printed in the terminal summary
ACCEPTANCE_RESULTS = []


@pytest.fixture
def acceptance():
    def _record(criterion: str, ok: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS.append((criterion, ok, detail))

    return _record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for criterion, ok, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"{status}  {criterion}: {detail}")


@pytest.fixture
def analytic():
    """1+1 fixture [[0, 1], [1, 2]] with closed-form eigensystem."""
    return BlockMatrix([0], [2], [1], [1])


@pytest.fixture
def one_point():
    """2+2 fixture whose diagonal spectra touch at 0 with a planted kernel."""
    w1 = np.array([[0.0, 0.0], [0.0, 1.0]])
    return BlockMatrix(np.diag([0.0, -1.0]), np.diag([0.0, 2.0]), w1.conj().T, w1)


def random_block(rng, n0, n1, scale=1.0):
    """Generic dense complex block matrix (no symmetry)."""

    def mat(r, c):
        return scale * (rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c)))

    return BlockMatrix(mat(n0, n0), mat(n1, n1), mat(n1, n0), mat(n0, n1))


def offdiagonal_part(b):
    """Full matrix of the coupling part ``V = [[0, W1], [W0, 0]]``."""
    return from_blocks(None, b.W1, b.W0, None)


def dirac_hamiltonians(ops):
    """``(H_free, H)`` of a ``DiracOperators``: ``[[0, M], [M*, 0]]`` and
    ``[[U, M], [M*, U]]``, assembled from its coupling block M and potential
    values U, which the package itself never does (independent oracle)."""
    m = ops.coupling
    h_free = from_blocks(None, m, m.conj().T, None)
    return h_free, h_free + np.diag(np.concatenate([ops.potential_values] * 2))


def split_report(problem):
    """``dirac.check_subordination_split`` of a problem, on the operators
    and rotated blocks that ``run_dirac_pipeline`` hands it."""
    from blockdiag import dirac

    ops = dirac.build_operators(problem)
    return dirac.check_subordination_split(problem, dirac._fw_block_matrix(ops), ops)


def eigvecs(b, keep):
    """Eigenvectors of B whose eigenvalues ``keep(w, band)`` selects, with
    ``band = 1e-9 * norm(B)``, from numpy's ``eigh`` (independent oracle)."""
    from blockdiag.spectral import Subspace

    w, v = np.linalg.eigh(b.full)
    return Subspace(basis=v[:, keep(w, 1e-9 * np.linalg.norm(b.full, 2))])


def kernel_pieces(b, mu, piece=None):
    """The kernel split's pieces ``K0 = Ker(A0 - mu) ∩ Ker(W1*)`` and
    ``K1 = Ker(A1 - mu) ∩ Ker(W1)``, by ``piece`` (default
    ``subordinated._kernel_piece``, the split's own)."""
    from blockdiag import subordinated

    piece = piece or subordinated._kernel_piece
    w0, w1 = b.eigvalsh_A
    return piece(b, b.A0, w0, b.W1.conj().T, mu), piece(b, b.A1, w1, b.W1, mu)


def kernel_split_dims(b, mu):
    """``(dim Ker(B - mu), dim K0, dim K1)`` as the kernel split sees them:
    the eigenvalues of B in the band around mu, and the column counts of
    :func:`kernel_pieces`."""
    from blockdiag import subordinated

    _, _, at = subordinated._eigh_classified(b, mu)
    return (int(np.count_nonzero(at)), *(k.shape[1] for k in kernel_pieces(b, mu)))


def containment(inner, outer) -> float:
    """Sine of the largest principal angle between two subspaces.

    For ``inner.dim <= outer.dim`` it is ``norm((I - P_outer) Q_inner)``,
    zero exactly when inner lies in outer.
    """
    angles = scipy.linalg.subspace_angles(inner.basis, outer.basis)
    return float(np.sin(np.max(angles)))


def staged_eigh_calls(monkeypatch) -> dict:
    """Record the stages of every Hermitian eigensolve (``core.StagedEigh``):
    the matrix shape of each ``zhetrd``, the size of each ``dstevd``, and
    for each ``zunmqr`` the order of the matrix (its reflectors act on all
    rows but the first) and the number of columns it back-transforms, its
    workspace queries (``lwork = -1``) left out. ``zheevd`` shapes are
    recorded too, so that a test can assert there are none."""
    lapack = scipy.linalg.lapack
    calls = {"zhetrd": [], "dstevd": [], "zunmqr": [], "zheevd": []}
    records = {
        "zhetrd": lambda args: np.shape(args[0]),
        "dstevd": lambda args: len(args[0]),
        "zunmqr": lambda args: None if args[5] == -1 else (len(args[4]) + 1, np.shape(args[4])[1]),
        "zheevd": lambda args: np.shape(args[0]),
    }
    for name, record in records.items():

        def recorded(*args, _original=getattr(lapack, name), _name=name, **kwargs):
            value = records[_name](args)
            if value is not None:
                calls[_name].append(value)
            return _original(*args, **kwargs)

        monkeypatch.setattr(lapack, name, recorded)
    return calls
