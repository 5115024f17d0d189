"""Tests for the two-tier eigensolver, the 1-D quadrature rule and the
root search in p.

The eigensolver reads the 1x1 and 2x2 blocks of a matrix's nonzero
pattern off its degree count and solves them in closed form; every index
left over goes, as one dense block, through Householder tridiagonalisation
and Sturm bisection. Tests that pin which block reaches that second tier
record the calls of ``numerics._tridiagonalize``. numpy.linalg.eigvalsh
serves as an independent oracle for the eigensolver; the library itself
never calls it.
"""

import math

import numpy as np
import pytest

from cvwerner import numerics
from cvwerner.cli import run_validation
from cvwerner.criteria import ppt_spectrum_bruteforce
from cvwerner.errors import DomainTooSmallError, HermiticityError
from cvwerner.fock_core import FockCutoff
from cvwerner.numerics import (
    _bisect_threshold,
    _nonzero_pattern,
    _pattern_eigenvalues,
    hermitian_eigenvalues,
    integrate_line,
)
from cvwerner.states import WernerParams
from cvwerner.tolerances import BISECTION_TOL_P


def random_hermitian(dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2.0


def block_diagonal(sizes, seed):
    """Random Hermitian blocks of the given sizes down the diagonal, the
    k-th drawn with seed ``seed + k``."""
    dim = sum(sizes)
    a = np.zeros((dim, dim), dtype=np.complex128)
    start = 0
    for k, size in enumerate(sizes):
        a[start:start + size, start:start + size] = random_hermitian(size, seed=seed + k)
        start += size
    return a


def record_blocks(monkeypatch):
    """Record a copy of every block that reaches the dense tier, one per
    call of ``numerics._tridiagonalize``."""
    blocks = []
    tridiagonalize = numerics._tridiagonalize

    def recording(block):
        blocks.append(block.copy())
        return tridiagonalize(block)

    monkeypatch.setattr(numerics, "_tridiagonalize", recording)
    return blocks


def assert_blocks(blocks, a, *index_sets):
    """Each recorded block is ``a`` restricted to the next index set."""
    assert len(blocks) == len(index_sets)
    for block, idx in zip(blocks, index_sets):
        assert np.array_equal(block, a[np.ix_(idx, idx)])


class TestHermitianEigenvalues:
    def test_diagonal_matrix(self):
        result = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]).astype(complex))
        assert np.allclose(result.eigenvalues, [-1.0, 2.0, 3.0])
        assert result.max_residual == 0.0

    def test_known_two_by_two(self):
        a = np.array([[1.0, 1j], [-1j, 1.0]])
        result = hermitian_eigenvalues(a)
        assert np.allclose(result.eigenvalues, [0.0, 2.0], atol=1e-14)

    @pytest.mark.parametrize("dim", [2, 5, 17, 64, 144])
    def test_against_numpy_oracle(self, dim):
        a = random_hermitian(dim, seed=dim)
        ours = hermitian_eigenvalues(a).eigenvalues
        oracle = np.linalg.eigvalsh(a)
        assert np.abs(ours - oracle).max() < 1e-10 * max(1.0, np.abs(oracle).max())

    def test_trace_and_frobenius_invariance(self):
        a = random_hermitian(40, seed=1)
        eig = hermitian_eigenvalues(a).eigenvalues
        assert eig.sum() == pytest.approx(np.trace(a).real, abs=1e-10)
        assert (eig ** 2).sum() == pytest.approx((np.abs(a) ** 2).sum(), rel=1e-12)

    def test_unitary_invariance(self):
        a = random_hermitian(24, seed=2)
        q, _ = np.linalg.qr(
            np.random.default_rng(3).normal(size=(24, 24))
            + 1j * np.random.default_rng(4).normal(size=(24, 24))
        )
        rotated = q @ a @ q.conj().T
        e1 = hermitian_eigenvalues(a).eigenvalues
        e2 = hermitian_eigenvalues(rotated).eigenvalues
        assert np.abs(e1 - e2).max() < 1e-10

    def test_residual_bound_reported(self):
        a = random_hermitian(30, seed=5)
        result = hermitian_eigenvalues(a)
        norm = math.sqrt(float((np.abs(a) ** 2).sum()))
        assert result.max_residual < 1e-12 * norm

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_imaginary_diagonal(self):
        a = np.eye(4, dtype=np.complex128) / 4.0
        a[0, 0] = 0.25 + 1e-9j
        with pytest.raises(HermiticityError, match="not Hermitian"):
            hermitian_eigenvalues(a)

    def test_rejects_non_square(self):
        with pytest.raises(HermiticityError):
            hermitian_eigenvalues(np.ones((2, 3)))

    def test_zero_matrix(self):
        result = hermitian_eigenvalues(np.zeros((4, 4)))
        assert np.all(result.eigenvalues == 0.0)

    def test_empty_and_one_by_one(self):
        empty = hermitian_eigenvalues(np.zeros((0, 0)))
        assert empty.eigenvalues.shape == (0,)
        assert empty.max_residual == 0.0
        single = hermitian_eigenvalues(np.array([[-2.5 + 0j]]))
        assert single.eigenvalues.tolist() == [-2.5]
        assert single.max_residual == 0.0

    def test_two_by_two_with_equal_diagonals(self):
        a = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        result = hermitian_eigenvalues(a)
        mag = abs(0.2 - 0.1j)
        assert np.abs(result.eigenvalues - [0.3 - mag, 0.3 + mag]).max() < 1e-15
        assert result.max_residual == 0.0

    def test_permuted_block_diagonal(self):
        sizes = (1, 2, 3, 7, 2, 1)
        dim = sum(sizes)
        a = block_diagonal(sizes, seed=10)
        perm = np.random.default_rng(11).permutation(dim)
        a = a[np.ix_(perm, perm)]
        result = hermitian_eigenvalues(a)
        oracle = np.linalg.eigvalsh(a)
        assert np.abs(result.eigenvalues - oracle).max() < 1e-13
        assert 0.0 < result.max_residual < 1e-12 * math.sqrt(float((np.abs(a) ** 2).sum()))

    @pytest.mark.parametrize("seed", range(5))
    def test_leftover_of_several_blocks_is_one_dense_block(self, seed, monkeypatch):
        # Six blocks of sizes 3 to 11 among singles and pairs: the leftover
        # indices form one dense block, block-diagonal up to a permutation,
        # and its eigenvalues are the union of its blocks'.
        blocks = record_blocks(monkeypatch)
        sizes = (3, 1, 5, 2, 11, 4, 2, 8, 1, 6)
        dim = sum(sizes)
        a = block_diagonal(sizes, seed=100 * seed)
        perm = np.random.default_rng(seed).permutation(dim)
        a = a[np.ix_(perm, perm)]
        result = hermitian_eigenvalues(a)
        leftover = np.flatnonzero(np.isin(perm, np.flatnonzero(np.repeat(sizes, sizes) >= 3)))
        assert_blocks(blocks, a, leftover)
        error = np.abs(result.eigenvalues - np.linalg.eigvalsh(a)).max()
        assert error < 1e-13 * math.sqrt(float((np.abs(a) ** 2).sum()))
        assert error <= result.max_residual

    def test_tiny_coupling_merges_blocks(self):
        pair = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        a = np.zeros((4, 4), dtype=np.complex128)
        a[:2, :2] = pair
        a[2:, 2:] = pair
        split = hermitian_eigenvalues(a)
        assert split.max_residual == 0.0
        a[1, 2] = a[2, 1] = 1e-300
        merged = hermitian_eigenvalues(a)
        assert merged.max_residual > 0.0
        assert np.abs(merged.eigenvalues - split.eigenvalues).max() < 1e-15
        assert np.abs(merged.eigenvalues - np.linalg.eigvalsh(a)).max() < 1e-15

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pattern_path_takes_shuffled_triplets(self, seed):
        # Blocks of sizes 1 to 7 under a random permutation, with their
        # triplets in random order: a partial transpose's triplets are not
        # row-sorted either.
        sizes = (1, 2, 3, 7, 2, 1, 4)
        dim = sum(sizes)
        a = block_diagonal(sizes, seed=20)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(dim)
        a = a[np.ix_(perm, perm)]
        rows, cols, values = _nonzero_pattern(a)
        shuffle = rng.permutation(values.size)
        result = _pattern_eigenvalues(dim, rows[shuffle], cols[shuffle], values[shuffle])
        dense = hermitian_eigenvalues(a)
        assert np.array_equal(result.eigenvalues, dense.eigenvalues)
        assert result.max_residual == dense.max_residual > 0.0

    def test_one_sided_tiny_entry_merges_pairs(self, monkeypatch):
        # An entry on one side only, within the Hermiticity gate, joins the
        # two pairs: neither end of it holds just a mirrored couple, so all
        # four indices go to the dense tier as one block.
        blocks = record_blocks(monkeypatch)
        pair = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
        a = np.zeros((4, 4), dtype=np.complex128)
        a[:2, :2] = pair
        a[2:, 2:] = pair
        a[1, 2] = 1e-300
        result = hermitian_eigenvalues(a)
        assert_blocks(blocks, a, [0, 1, 2, 3])
        assert result.max_residual > 0.0
        assert np.abs(result.eigenvalues - np.linalg.eigvalsh(a)).max() < 1e-15

    def test_one_sided_chain_is_not_taken_for_a_pair(self, monkeypatch):
        # Indices 1 and 2 each have two off-diagonal entries and share an
        # upper one, as a 2x2 block's ends do, but neither entry is
        # mirrored: 0 -> 1 -> 2 -> 3 is one block.
        blocks = record_blocks(monkeypatch)
        a = np.diag([0.4, 0.1, 0.3, 0.2]).astype(np.complex128)
        a[0, 1] = a[1, 2] = a[2, 3] = 1e-300
        result = hermitian_eigenvalues(a)
        assert_blocks(blocks, a, [0, 1, 2, 3])
        assert np.abs(result.eigenvalues - [0.1, 0.2, 0.3, 0.4]).max() < 1e-15

    def test_pairs_and_singles_beside_a_larger_block(self, monkeypatch):
        # Singles and pairs are read off the degree count; only the
        # members of the size-3 and size-4 blocks reach the dense tier,
        # together as one block.
        blocks = record_blocks(monkeypatch)
        sizes = (1, 2, 3, 2, 1, 4, 2)
        dim = sum(sizes)
        a = block_diagonal(sizes, seed=30)
        perm = np.random.default_rng(31).permutation(dim)
        a = a[np.ix_(perm, perm)]
        result = hermitian_eigenvalues(a)
        larger = np.r_[3:6, 9:13]  # the size-3 and size-4 blocks before the permutation
        assert_blocks(blocks, a, np.flatnonzero(np.isin(perm, larger)))
        assert np.abs(result.eigenvalues - np.linalg.eigvalsh(a)).max() < 1e-13
        assert result.max_residual > 0.0

    def test_dense_block_reaches_the_dense_tier(self, monkeypatch):
        blocks = record_blocks(monkeypatch)
        a = random_hermitian(3, seed=40)
        result = hermitian_eigenvalues(a)
        assert_blocks(blocks, a, [0, 1, 2])
        assert np.abs(result.eigenvalues - np.linalg.eigvalsh(a)).max() < 1e-14

    def test_production_inputs_skip_the_dense_block(self, monkeypatch):
        # Every matrix the library builds (the Fock partial transpose, the
        # 4x4 qubit partial transpose, T^T T) splits into blocks of size 1
        # and 2, all read off the degree count.
        blocks = record_blocks(monkeypatch)
        _, ok = run_validation(2)
        assert ok
        for n_max in range(2, 33):
            params = WernerParams(p=0.3 + 0.02 * (n_max % 20), r=0.4 + 0.05 * n_max, s=1.1)
            ppt_spectrum_bruteforce(params, FockCutoff(n_max=n_max, tail_bound=1.0 - 1e-15))
        assert blocks == []

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_rejects_non_finite(self, value, where):
        a = np.array([[1.0, 0.5], [0.5, 2.0]], dtype=np.complex128)
        a[where] = value
        a[where[::-1]] = value
        with pytest.raises(HermiticityError, match=rf"entry \({where[0]}, {where[1]}\) is not finite"):
            hermitian_eigenvalues(a)


class TestIntegrateLine:
    def test_normalized_gaussian_1d(self):
        value = integrate_line(0.5, lambda x: np.exp(-x ** 2) / math.sqrt(math.pi))
        assert value == pytest.approx(1.0, abs=1e-12)

    def test_rejects_boundary_mass(self):
        with pytest.raises(DomainTooSmallError):
            # Variance 100, far from decayed on a grid sized for variance 1.
            integrate_line(1.0, lambda x: np.exp(-x ** 2 / 200.0))

    def test_zero_integrand(self):
        assert integrate_line(1.0, np.zeros_like) == 0.0


# Plain bisection from [0, 1] to BISECTION_TOL_P takes 31 probes; the ITP
# search may take a few more on its worst case, never more than this.
ITP_PROBE_CAP = 35


class ProbeCounter:
    """Wraps a function of p, records every probe and stops a search that
    runs past the cap, which a broken search would otherwise do for ages."""

    def __init__(self, f):
        self.f = f
        self.probes = []

    def __call__(self, p):
        self.probes.append(p)
        if len(self.probes) > ITP_PROBE_CAP:
            raise RuntimeError(f"more than {ITP_PROBE_CAP} probes")
        return self.f(p)


ROOT_IRRATIONAL = 1.0 / math.sqrt(7.0)

# (name, min_eig, sign change, most probes allowed): non-negative below the
# sign change, negative above it. The step's two values are far apart in
# size, so interpolation alone would crawl towards it from one side.
SIGN_CHANGES = [
    ("linear", lambda x: 0.37 - x, 0.37, 12),
    ("concave_kink", lambda x: min(0.6 - x, 3.0 * (0.52 - x)), 0.52, 12),
    ("convex", lambda x: math.exp(-8.0 * x) - math.exp(-8.0 * 0.61), 0.61, 16),
    ("step_irrational", lambda x: 1.0 if x < ROOT_IRRATIONAL else -1e-3, ROOT_IRRATIONAL,
     ITP_PROBE_CAP),
    ("ninth_power", lambda x: (0.3 - x) ** 9, 0.3, ITP_PROBE_CAP),
]


class TestBisectThreshold:
    @pytest.mark.parametrize("name, f, root, most", SIGN_CHANGES,
                             ids=[case[0] for case in SIGN_CHANGES])
    def test_lands_on_sign_change(self, name, f, root, most):
        counter = ProbeCounter(f)
        assert abs(_bisect_threshold(counter) - root) <= BISECTION_TOL_P
        assert all(0.0 <= p <= 1.0 for p in counter.probes)
        assert len(counter.probes) <= most

    def test_no_sign_change_up_to_one(self):
        counter = ProbeCounter(lambda x: 0.5 - 0.1 * x)
        assert _bisect_threshold(counter) == 1.0
        assert counter.probes == [1.0]
        assert _bisect_threshold(lambda x: 0.0) == 1.0

    def test_negative_at_zero_returns_zero(self):
        # Negative on all of [0, 1]: every p is past the sign change, so the
        # threshold is 0 exactly.
        counter = ProbeCounter(lambda x: -1.0 - x)
        assert _bisect_threshold(counter) == 0.0
        assert counter.probes == [1.0, 0.0]

    def test_zero_counts_as_below_the_sign_change(self):
        # min_eig = 0 is not entangled: the sign change is where it first
        # turns negative.
        f = lambda x: 0.0 if x <= 0.4 else 0.4 - x
        assert abs(_bisect_threshold(f) - 0.4) <= BISECTION_TOL_P
