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


def diagonal_part(b):
    """Full matrix of the diagonal part ``A = diag(A0, A1)``."""
    return from_blocks(b.A0, None, None, b.A1)


def offdiagonal_part(b):
    """Full matrix of the coupling part ``V = [[0, W1], [W0, 0]]``."""
    return from_blocks(None, b.W1, b.W0, None)


def dense_multiplier(grid, symbol):
    """Position-space matrix ``F* diag(symbol) F`` of a momentum multiplier on
    a ``dirac.GridSpec``, with F the dense n^2 x n^2 unitary transform from
    positions to the grid's (half-integer shifted) momenta, in
    ``momentum_mesh`` order (independent oracle of the FFT route)."""
    f1 = np.exp(-1j * np.outer(grid.momenta(), grid.positions())) / np.sqrt(grid.n)
    fourier = np.kron(f1, f1)
    return fourier.conj().T @ (symbol[:, None] * fourier)


def dirac_hamiltonians(problem):
    """``(H_free, H)`` of a ``DiracProblem``: ``[[0, M], [M*, 0]]`` and
    ``[[U, M], [M*, U]]``, assembled from the coupling block
    ``M = dense_multiplier(grid, k_x - i k_y)`` and the potential values U,
    which the package itself never does (independent oracle)."""
    kx, ky = problem.grid.momentum_mesh()
    m = dense_multiplier(problem.grid, kx - 1j * ky)
    h_free = from_blocks(None, m, m.conj().T, None)
    potential = problem.potential.sample(problem.grid)
    return h_free, h_free + np.diag(np.concatenate([potential] * 2))


def split_report(problem):
    """``dirac.check_subordination_split`` of a problem, on the operators,
    rotated blocks and subordination check of the swapped blocks at 0 that
    ``run_dirac_pipeline`` hands it."""
    from blockdiag import dirac

    ops = dirac.build_operators(problem)
    bm = dirac._fw_block_matrix(ops)
    check = dirac.check_subordination(bm.swapped(), 0.0)
    return dirac.check_subordination_split(problem, bm, ops, check)


def eigvecs(b, keep):
    """Eigenvectors of B whose eigenvalues ``keep(w, band)`` selects, with
    ``band = 1e-9 * norm(B)``, from numpy's ``eigh`` (independent oracle)."""
    from blockdiag.spectral import Subspace

    w, v = np.linalg.eigh(b.full)
    return Subspace(basis=v[:, keep(w, 1e-9 * np.linalg.norm(b.full, 2))])


def null_space_basis(m) -> np.ndarray:
    """SVD null-space basis of a (possibly rectangular) matrix: the right
    singular vectors with ``sigma <= DEFAULT_TOL * sigma_max`` (all of them
    for a zero matrix). The kernel split's oracle, not a package route."""
    from blockdiag.core import DEFAULT_TOL

    m = np.asarray(m, dtype=np.complex128)
    rows, cols = m.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.complex128)
    if rows == 0:
        return np.eye(cols, dtype=np.complex128)
    _, s, vh = np.linalg.svd(m, full_matrices=rows < cols)
    return vh[int(np.sum(s > DEFAULT_TOL * s[0])) :].conj().T


def kernel_pieces(b, mu):
    """The kernel split's pieces ``K0 = Ker(A0 - mu) ∩ Ker(W1*)`` and
    ``K1 = Ker(A1 - mu) ∩ Ker(W1)``, each the :func:`null_space_basis` of
    the stacked ``[A_i - mu; W]``."""

    def piece(a, coupling):
        return null_space_basis(np.vstack([a - mu * np.eye(a.shape[0]), coupling]))

    return piece(b.A0, b.W1.conj().T), piece(b.A1, b.W1)


def _band_kernel(b, mu):
    """Basis of the kernel of ``B - mu`` as the subordinated pipeline bands it."""
    from blockdiag import subordinated

    v, _, at = subordinated._eigh_classified(b, mu)
    return v[:, at]


def kernel_split_dims(b, mu):
    """``(dim Ker(B - mu), dim K0, dim K1)``: the eigenvalues of B in the
    band around mu, and the column counts of :func:`kernel_pieces`."""
    return (_band_kernel(b, mu).shape[1], *(k.shape[1] for k in kernel_pieces(b, mu)))


def kernel_splits(b, mu) -> bool:
    """Null-space oracle of the kernel split: the dimensions of
    :func:`kernel_split_dims` add up, and the kernel basis K is within
    ``KERNEL_SPLIT_TOL`` of the span of the pieces' direct sum D, by the
    projection residual ``norm_F(K - D D* K)``."""
    from blockdiag.subordinated import KERNEL_SPLIT_TOL

    k_basis, (k0, k1) = _band_kernel(b, mu), kernel_pieces(b, mu)
    if k_basis.shape[1] != k0.shape[1] + k1.shape[1]:
        return False
    direct = from_blocks(k0, None, None, k1)
    residual = np.linalg.norm(k_basis - direct @ (direct.conj().T @ k_basis))
    return bool(residual <= KERNEL_SPLIT_TOL)


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
