"""Tests for the matrix Lie group kernel."""

import numpy as np
import pytest

from cartanconn import liegroup as lg
from cartanconn.errors import (
    InvalidElementError,
    NoPrincipalLogarithmError,
    TagMismatchError,
)

TAGS = [
    lg.gl_tag(3),
    lg.so_tag(3),
    lg.orthogonal_tag(2, 1),
    lg.orthogonal_tag(3, 1),
    lg.aff_tag(2),
    lg.galileo_tag(2),
    lg.galileo_tag(3),
    lg.pgl_tag(2),
]


def series_exp(mat, terms=60):
    """Term-by-term exponential series, the oracle for exp."""
    total = np.eye(len(mat))
    term = np.eye(len(mat))
    for k in range(1, terms):
        term = term @ mat / k
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Galileo group: the composition law, inverse, exponential
# ---------------------------------------------------------------------------

def test_galileo_composition_law():
    g1 = lg.galileo_element(1.0, 2.0, 3.0)
    g2 = lg.galileo_element(4.0, 5.0, 6.0)
    # (v2, a2, b2)(v1, a1, b1) = (v2 + v1, a2 + a1, b2 + b1 + v2 a1)
    assert lg.galileo_triple(lg.compose(g1, g2)) == (5.0, 7.0, 14.0)


def test_galileo_composition_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v1, a1, b1, v2, a2, b2 = rng.uniform(-2, 2, size=6)
        g = lg.compose(lg.galileo_element(v2, a2, b2), lg.galileo_element(v1, a1, b1))
        v, a, b = lg.galileo_triple(g)
        assert v == v2 + v1
        assert a == a2 + a1
        # summation order in the matrix product may differ by one rounding step
        assert np.isclose(b, b2 + b1 + v2 * a1, rtol=1e-15, atol=1e-15)


def test_compose_identity_is_neutral():
    g = lg.galileo_element(0.3, -1.0, 2.0)
    e = lg.identity(lg.GALILEO2)
    assert np.array_equal(lg.compose(g, e).mat, g.mat)
    assert np.array_equal(lg.compose(e, g).mat, g.mat)


def test_orthogonal_product_preserves_eta():
    rng = np.random.default_rng(2)
    tag = lg.orthogonal_tag(2, 1)
    eta = lg.eta_matrix(tag)
    for _ in range(20):
        a = lg.random_element(tag, rng)
        b = lg.random_element(tag, rng)
        m = lg.compose(a, b).mat
        assert np.max(np.abs(m.T @ eta @ m - eta)) < 1e-10


def test_compose_rejects_tag_mismatch():
    with pytest.raises(TagMismatchError):
        lg.compose(lg.identity(lg.GALILEO2), lg.identity(lg.so_tag(3)))


def test_galileo_inverse_triple():
    g = lg.galileo_element(1.0, 2.0, 3.0)
    # solve (v, a, b)(v', a', b') = (0, 0, 0)
    assert lg.galileo_triple(lg.inverse(g)) == (-1.0, -2.0, -1.0)
    assert np.allclose(lg.compose(g, lg.inverse(g)).mat, np.eye(3), atol=1e-12)


def test_identity_inverse_is_identity():
    for tag in TAGS:
        e = lg.identity(tag)
        assert np.allclose(lg.inverse(e).mat, e.mat, atol=1e-14)


def test_random_gl_inverse():
    rng = np.random.default_rng(3)
    tag = lg.gl_tag(3)
    for _ in range(20):
        g = lg.random_element(tag, rng, scale=1.0)
        assert np.max(np.abs(g.mat @ lg.inverse(g).mat - np.eye(3))) < 1e-10


# ---------------------------------------------------------------------------
# exp / log
# ---------------------------------------------------------------------------

def test_exp_zero_is_identity():
    for tag in TAGS:
        assert np.array_equal(lg.exp(lg.AlgebraElement(tag, np.zeros((tag.size, tag.size)))).mat, np.eye(tag.size))


def test_galileo_exp_closed_form():
    rng = np.random.default_rng(4)
    for _ in range(50):
        av, aa, ab = rng.uniform(-2, 2, size=3)
        g = lg.exp(lg.galileo_algebra(av, aa, ab))
        v, a, b = lg.galileo_triple(g)
        # two-step nilpotent algebra: series terminates at the quadratic term
        assert np.isclose(v, av, atol=1e-14)
        assert np.isclose(a, aa, atol=1e-14)
        assert np.isclose(b, ab + av * aa / 2.0, atol=1e-14)


def test_exp_matches_series_oracle():
    rng = np.random.default_rng(5)
    for tag in TAGS:
        for _ in range(5):
            xi = lg.random_algebra(tag, rng, scale=0.8)
            oracle = series_exp(xi.mat)
            if tag.kind is lg.GroupKind.PGL:
                oracle = lg.normalize_projective(oracle)
            assert np.max(np.abs(lg.exp(xi).mat - oracle)) < 1e-12


def test_exp_log_roundtrip():
    rng = np.random.default_rng(6)
    for tag in TAGS:
        for _ in range(100):
            xi = lg.random_algebra(tag, rng, scale=0.5 * rng.uniform(0.1, 1.0))
            back = lg.log(lg.exp(xi))
            assert (back - xi).norm() < 1e-9


def test_log_exp_roundtrip_inside_radius():
    rng = np.random.default_rng(7)
    for tag in TAGS:
        for _ in range(20):
            g = lg.random_element(tag, rng, scale=0.4)
            if np.max(np.abs(np.linalg.eigvals(g.mat - np.eye(tag.size)))) >= 0.9:
                continue
            again = lg.exp(lg.log(g))
            assert np.max(np.abs(again.mat - g.mat)) < 1e-9


def test_log_rejects_negative_real_spectrum():
    tag = lg.orthogonal_tag(2, 1)
    mat = np.diag([1.0, -1.0, -1.0])  # preserves eta, eigenvalue -1
    g = lg.group_element(tag, mat)
    with pytest.raises(NoPrincipalLogarithmError):
        lg.log(g)


# ---------------------------------------------------------------------------
# Adjoint action and brackets
# ---------------------------------------------------------------------------

def test_ad_identity_fixes_algebra():
    rng = np.random.default_rng(8)
    for tag in TAGS:
        xi = lg.random_algebra(tag, rng)
        assert (lg.Ad(lg.identity(tag), xi) - xi).norm() < 1e-14


def test_ad_boost_on_time_translation():
    # conjugating eps_a by a pure boost picks up a space translation
    g = lg.galileo_element(1.7, 0.0, 0.0)
    out = lg.Ad(g, lg.galileo_algebra(0.0, 1.0, 0.0))
    expected = lg.galileo_algebra(0.0, 1.0, 1.7)
    assert (out - expected).norm() < 1e-14


def test_ad_is_bracket_homomorphism():
    rng = np.random.default_rng(9)
    for tag in TAGS:
        for _ in range(10):
            g = lg.random_element(tag, rng)
            xi = lg.random_algebra(tag, rng)
            eta = lg.random_algebra(tag, rng)
            lhs = lg.Ad(g, lg.bracket(xi, eta))
            rhs = lg.bracket(lg.Ad(g, xi), lg.Ad(g, eta))
            assert (lhs - rhs).norm() < 1e-10


def test_bracket_galileo_structure():
    ev = lg.galileo_algebra(1.0, 0.0, 0.0)
    ea = lg.galileo_algebra(0.0, 1.0, 0.0)
    eb = lg.galileo_algebra(0.0, 0.0, 1.0)
    assert (lg.bracket(ev, ea) - eb).norm() == 0.0
    assert lg.bracket(ev, eb).norm() == 0.0
    assert lg.bracket(ea, eb).norm() == 0.0


def test_bracket_antisymmetry():
    rng = np.random.default_rng(10)
    for tag in TAGS:
        xi = lg.random_algebra(tag, rng)
        assert lg.bracket(xi, xi).norm() == 0.0


def test_jacobi_identity():
    rng = np.random.default_rng(11)
    for tag in TAGS:
        for _ in range(10):
            x = lg.random_algebra(tag, rng)
            y = lg.random_algebra(tag, rng)
            z = lg.random_algebra(tag, rng)
            total = (
                lg.bracket(x, lg.bracket(y, z))
                + lg.bracket(y, lg.bracket(z, x))
                + lg.bracket(z, lg.bracket(x, y))
            )
            assert total.norm() < 1e-12


# ---------------------------------------------------------------------------
# Maurer-Cartan pairing
# ---------------------------------------------------------------------------

def test_maurer_cartan_at_identity():
    rng = np.random.default_rng(12)
    for tag in TAGS:
        xi = lg.random_algebra(tag, rng)
        out = lg.maurer_cartan(lg.identity(tag), xi.mat)
        assert (out - xi).norm() < 1e-14


def test_maurer_cartan_along_one_parameter_group():
    # along g(t) = exp(t xi) the pairing of the velocity is constant = xi;
    # the velocity is checked against a finite-difference oracle at t = 0.3
    rng = np.random.default_rng(13)
    for tag in TAGS:
        xi = lg.random_algebra(tag, rng, scale=0.4)
        t, h = 0.3, 1e-6
        g = lg.exp(t * xi)
        gdot_fd = (lg.exp((t + h) * xi).mat - lg.exp((t - h) * xi).mat) / (2 * h)
        if tag.kind is not lg.GroupKind.PGL:
            assert np.max(np.abs(gdot_fd - g.mat @ xi.mat)) < 1e-6
        # for PGL the normalized representatives differ from exp(t xi) by a
        # scalar family; the traceless projection inside the pairing removes it
        assert (lg.maurer_cartan(g, gdot_fd) - xi).norm() < 1e-6


def test_maurer_cartan_left_invariance():
    rng = np.random.default_rng(14)
    tag = lg.gl_tag(3)
    g = lg.random_element(tag, rng)
    h = lg.random_element(tag, rng)
    dg = rng.standard_normal((3, 3))
    a = lg.maurer_cartan(g, dg)
    b = lg.maurer_cartan(lg.compose(h, g), h.mat @ dg)
    assert (a - b).norm() < 1e-10


# ---------------------------------------------------------------------------
# Structural invariants
# ---------------------------------------------------------------------------

def test_group_closure_mass_sampling():
    rng = np.random.default_rng(15)
    for tag in TAGS:
        for _ in range(1000):
            a = lg.random_element(tag, rng, scale=0.6)
            b = lg.random_element(tag, rng, scale=0.6)
            assert lg.group_defect(tag, lg.compose(a, b).mat) < 1e-9


def test_galileo_triple_roundtrip_bit_exact():
    rng = np.random.default_rng(16)
    for _ in range(100):
        v, a, b = rng.uniform(-10, 10, size=3)
        g = lg.galileo_element(v, a, b)
        assert lg.galileo_triple(g) == (v, a, b)
        rebuilt = lg.galileo_element(*lg.galileo_triple(g))
        assert np.array_equal(rebuilt.mat, g.mat)


def test_pgl_normalization_deterministic():
    mat = np.array([[2.0, 0.0, 0.0], [0.0, -4.0, 0.0], [0.0, 0.0, 1.0]])
    g = lg.group_element(lg.pgl_tag(2), mat, project=True)
    # largest-magnitude entry is -4; dividing by it makes that entry +1
    assert g.mat[1, 1] == 1.0
    assert np.max(np.abs(g.mat)) == 1.0


def test_algebra_coords_roundtrip():
    rng = np.random.default_rng(17)
    for tag in TAGS:
        xi = lg.random_algebra(tag, rng)
        coords = lg.algebra_coords(xi)
        back = lg.algebra_from_coords(tag, coords)
        assert (back - xi).norm() < 1e-12


def test_an_algebra_element_copies_the_callers_array():
    # the public constructor copies; only the library's own coefficient maps
    # hand over a stack they have just built
    arr = np.zeros((3, 3))
    arr[1, 0] = 2.0
    xi = lg.AlgebraElement(lg.GALILEO2, arr)
    assert arr.flags.writeable and not xi.mat.flags.writeable
    arr[1, 0] = 5.0
    assert xi.mat[1, 0] == 2.0
    held = lg.AlgebraElement._holding(lg.GALILEO2, arr)
    assert held.mat is arr and not arr.flags.writeable


def test_invalid_element_rejected():
    bad = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.3, 0.0, 1.0]])
    with pytest.raises(InvalidElementError):
        lg.group_element(lg.GALILEO2, bad)


def test_orthogonal_projection_restores_group():
    rng = np.random.default_rng(18)
    tag = lg.orthogonal_tag(3, 1)
    g = lg.random_element(tag, rng)
    drifted = g.mat + 1e-6 * rng.standard_normal(g.mat.shape)
    fixed = lg.project_to_group(tag, drifted)
    assert lg.group_defect(tag, fixed) < 1e-12
    assert np.max(np.abs(fixed - g.mat)) < 1e-4


def test_orthogonal_projection_raises_when_it_cannot_converge():
    # far from O(3, 1) the polar iteration stalls (residual 13.7 for this
    # seed); a singular iterate must not escape as a numpy LinAlgError
    mat = np.random.default_rng(0).standard_normal((4, 4))
    with pytest.raises(InvalidElementError, match="did not converge"):
        lg.project_to_group(lg.orthogonal_tag(3, 1), mat)
    with pytest.raises(InvalidElementError, match="singular"):
        lg.project_to_group(lg.orthogonal_tag(1, 1), np.array([[0.0, 1.0], [1.0, 0.0]]))


# ---------------------------------------------------------------------------
# Stacked kernels
# ---------------------------------------------------------------------------

STACK_TAGS = [
    lg.gl_tag(3),
    lg.so_tag(3),
    lg.orthogonal_tag(3, 1),
    lg.aff_tag(2),
    lg.galileo_tag(3),
    lg.pgl_tag(2),
]


@pytest.mark.parametrize("tag", STACK_TAGS, ids=lambda t: t.name)
def test_stacked_kernels_match_per_matrix(tag):
    rng = np.random.default_rng(19)
    algebra = np.stack([lg.random_algebra(tag, rng, scale=0.8).mat for _ in range(6)])
    group = np.stack([lg.random_element(tag, rng).mat for _ in range(6)])
    group[1] += 1e-3 * rng.standard_normal(group[1].shape)   # off the group
    group[2, 0, 0] = np.inf
    if tag.kind in (lg.GroupKind.GL, lg.GroupKind.PGL):
        group[3] = 0.0
        group[3, 0, 0] = 1.0                                   # singular
    exps = lg.expm_matrix(tag, algebra)
    defects = lg.group_defect(tag, group)
    inverses = lg.inverse_matrix(tag, np.delete(group, [2, 3], axis=0))
    assert exps.shape == algebra.shape and defects.shape == (6,)
    for stacked, single in zip(exps, algebra):
        assert np.allclose(stacked, lg.expm_matrix(tag, single), rtol=1e-14, atol=1e-15)
    for stacked, single in zip(defects, group):
        assert stacked == lg.group_defect(tag, single)
    for stacked, single in zip(inverses, np.delete(group, [2, 3], axis=0)):
        assert np.array_equal(stacked, lg.inverse_matrix(tag, single))
    assert np.isinf(defects[2])
    if tag.kind in (lg.GroupKind.GL, lg.GroupKind.PGL):
        assert np.isinf(defects[3])
    assert defects[1] > 1e-5 or tag.kind is lg.GroupKind.GL   # GL has no relation
    assert np.all(defects[4:] < 1e-12)


KERNEL_TAGS = [
    lg.gl_tag(3),
    lg.so_tag(3),
    lg.orthogonal_tag(3, 1),
    lg.aff_tag(2),
    lg.pgl_tag(2),
    lg.galileo_tag(2),
    lg.galileo_tag(3),
]
KERNEL_NORMS = (1e-8, 0.02, 0.6, 3.0, 10.0)


def algebra_stack(tag, rng, norms, per_norm=3):
    """Random algebra matrices, ``per_norm`` at each Frobenius norm, in one stack."""
    basis = lg.algebra_basis_matrices(tag)
    mats = np.tensordot(rng.standard_normal((per_norm * len(norms), len(basis))), basis, axes=1)
    target = np.repeat(norms, per_norm)
    return mats * (target / np.linalg.norm(mats, axis=(1, 2)))[:, None, None]


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.name)
def test_expm_matrix_matches_a_40_digit_reference(tag):
    mpmath = pytest.importorskip("mpmath")
    mats = algebra_stack(tag, np.random.default_rng(31), KERNEL_NORMS)
    out = lg.expm_matrix(tag, mats)
    with mpmath.workdps(40):
        for a, e in zip(mats, out):
            ref = np.array(mpmath.expm(mpmath.matrix(a.tolist())).tolist(), dtype=float)
            assert np.abs(e - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.name)
def test_expm_matrix_of_an_algebra_stack_lies_on_the_group(tag):
    mats = algebra_stack(tag, np.random.default_rng(32), (0.02, 0.6, 3.0))
    out = lg.expm_matrix(tag, mats)
    if tag.kind is lg.GroupKind.PGL:
        out = lg.normalize_projective(out)
    assert np.all(lg.group_defect(tag, out) < 1e-12)


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.name)
def test_log_matrix_inverts_expm_matrix_on_stacks(tag):
    # Frobenius norm <= 3 < pi keeps every eigenvalue on the principal branch
    mats = algebra_stack(tag, np.random.default_rng(33), (1e-8, 0.02, 0.6, 3.0))
    back = lg.log_matrix(tag, lg.expm_matrix(tag, mats))
    assert back.shape == mats.shape
    assert np.abs(back - mats).max() < 1e-13


@pytest.mark.parametrize("tag", KERNEL_TAGS, ids=lambda t: t.name)
def test_kernels_keep_a_non_finite_matrix_to_itself(tag):
    rng = np.random.default_rng(34)
    mats = algebra_stack(tag, rng, (0.02, 0.6, 3.0), per_norm=2)
    mats[2] = np.inf
    with np.errstate(invalid="ignore"):
        exps = lg.expm_matrix(tag, mats)
    assert not np.isfinite(exps[2]).all()
    assert np.array_equal(np.delete(exps, 2, axis=0), lg.expm_matrix(tag, np.delete(mats, 2, axis=0)))
    group = lg.expm_matrix(tag, algebra_stack(tag, rng, (0.02, 0.6, 3.0), per_norm=2))
    group[3] = np.inf
    with np.errstate(invalid="ignore"):
        logs = lg.log_matrix(tag, group)
    assert not np.isfinite(logs[3]).all()
    assert np.array_equal(np.delete(logs, 3, axis=0), lg.log_matrix(tag, np.delete(group, 3, axis=0)))


@pytest.mark.parametrize("tag", [lg.galileo_tag(2), lg.galileo_tag(3)], ids=lambda t: t.name)
def test_galileo_expm_matrix_is_the_terminating_series(tag):
    mats = algebra_stack(tag, np.random.default_rng(35), KERNEL_NORMS)
    expected = np.eye(tag.size) + mats + mats @ mats / 2
    assert np.array_equal(lg.expm_matrix(tag, mats), expected)


def test_log_matrix_rejects_a_stack_with_a_negative_eigenvalue():
    tag = lg.orthogonal_tag(1, 1)
    good = lg.expm_matrix(tag, algebra_stack(tag, np.random.default_rng(36), (0.6,)))
    mats = np.concatenate([good, [-np.eye(2)]])   # preserves eta, eigenvalue -1
    assert lg.group_defect(tag, mats[-1]) == 0.0
    with pytest.raises(NoPrincipalLogarithmError, match="-1"):
        lg.log_matrix(tag, mats)
    with pytest.raises(NoPrincipalLogarithmError):
        lg.log(lg.group_element(tag, mats[-1]))


def test_pgl_log_takes_the_negated_representative():
    # normalized (largest entry +3 -> +1) with all eigenvalues -1/3; -M is
    # (1/3) times a unipotent matrix, whose logarithm is log(1/3) I + N
    tag = lg.pgl_tag(2)
    g = lg.group_element(tag, np.array([[-1.0, 3.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, -1.0]]), project=True)
    nilpotent = np.zeros((3, 3))
    nilpotent[0, 1] = -3.0
    assert np.allclose(lg.log(g).mat, nilpotent, rtol=0.0, atol=1e-14)
    assert np.allclose(lg.exp(lg.log(g)).mat, g.mat, rtol=0.0, atol=1e-14)
    stack = lg.log_matrix(tag, np.stack([g.mat, np.eye(3)]))
    assert np.allclose(stack[0], np.log(1 / 3) * np.eye(3) + nilpotent, rtol=0.0, atol=1e-14)
    assert np.array_equal(stack[1], np.zeros((3, 3)))


def eigvals_route_log(tag, mats):
    """``log_matrix`` as it reads with the branch-cut check always made:
    eigenvalues, the PGL flip, then inverse scaling and squaring."""
    lam = np.linalg.eigvals(mats)
    real = np.abs(lam.imag) <= 1e-12 * np.maximum(1.0, np.abs(lam))
    cut = (real & (lam.real <= 0)).any(axis=-1)
    mats = mats.copy()
    if tag.kind is lg.GroupKind.PGL:
        flip = cut & ~(real & (lam.real >= 0)).any(axis=-1)
        mats[flip] *= -1.0
        cut &= ~flip
    assert not cut.any()
    return lg._logm_iss(mats)


@pytest.mark.parametrize("tag", [lg.aff_tag(2), lg.gl_tag(3), lg.so_tag(3), lg.pgl_tag(2)], ids=lambda t: t.name)
def test_near_identity_log_skips_the_eigenvalues_bit_identically(tag, monkeypatch):
    # ||M - I||_1 < 1/2 on every matrix: no eigenvalue can be near the cut
    mats = lg.expm_matrix(tag, algebra_stack(tag, np.random.default_rng(38), (1e-8, 0.02, 0.1, 0.2), per_norm=4))
    if tag.kind is lg.GroupKind.PGL:
        mats = lg.normalize_projective(mats)
    assert lg._norm1(mats - np.eye(tag.size)).max() < 0.5
    reference = eigvals_route_log(tag, mats)
    assert np.array_equal(lg.log_matrix(tag, mats), reference)
    assert np.array_equal(lg.log_matrix(tag, mats[5]), eigvals_route_log(tag, mats[5:6])[0])
    monkeypatch.setattr(lg.np.linalg, "eigvals", None)   # the shortcut does not call it
    assert np.array_equal(lg.log_matrix(tag, mats), reference)
    # one matrix far from I sends the whole stack through the check again
    far = lg.expm_matrix(tag, algebra_stack(tag, np.random.default_rng(39), (2.0,), per_norm=1))
    with pytest.raises(TypeError):
        lg.log_matrix(tag, np.concatenate([mats, far]))


@pytest.mark.parametrize("tag", [lg.so_tag(3), lg.gl_tag(3), lg.orthogonal_tag(3, 1), lg.pgl_tag(2), lg.aff_tag(2)],
                         ids=lambda t: t.name)
def test_log_matrix_gives_a_stack_row_its_single_matrix_log(tag):
    # norms from 1e-8 to 2.9 need from no square root to several: every row
    # of the stack, and of its first seven rows, is bit for bit its own log
    mats = lg.expm_matrix(tag, algebra_stack(tag, np.random.default_rng(38), (1e-8, 0.02, 0.2, 0.6, 1.2, 2.9), per_norm=5))
    if tag.kind is lg.GroupKind.PGL:
        mats = lg.normalize_projective(mats)
    roots = np.ceil(np.log2(np.maximum(lg._norm1(mats - np.eye(tag.size)), 0.58) / 0.58))
    assert roots.min() == 0 and roots.max() >= 2
    single = np.stack([lg.log_matrix(tag, m) for m in mats])
    assert np.array_equal(lg.log_matrix(tag, mats), single)
    assert np.array_equal(lg.log_matrix(tag, mats[:7]), single[:7])


def test_log_matrix_keeps_the_cut_and_the_pgl_flip_off_the_identity():
    tag = lg.pgl_tag(2)
    near = lg.normalize_projective(lg.expm_matrix(tag, algebra_stack(tag, np.random.default_rng(40), (0.1,))))
    # -M represents the same element; its eigenvalues are on the cut, so it is flipped back
    assert np.array_equal(lg.log_matrix(tag, -near), lg.log_matrix(tag, near))
    assert np.array_equal(lg.log_matrix(tag, np.concatenate([near, -near])), eigvals_route_log(tag, np.concatenate([near, -near])))
    so = lg.so_tag(3)
    turn = np.diag([-1.0, -1.0, 1.0])   # rotation by pi: eigenvalue -1
    with pytest.raises(NoPrincipalLogarithmError, match="-1"):
        lg.log_matrix(so, np.stack([np.eye(3), turn]))


@pytest.mark.parametrize("shape", [(3, 3), (7, 3, 3), (2, 5, 4, 4), (0, 4, 4)])
def test_entry_max_is_the_max_over_each_matrix(shape):
    a = np.random.default_rng(41).standard_normal(shape)
    if a.size:
        a.flat[5] = np.nan
    got, expected = lg._entry_max(a), a.max(axis=(-2, -1))
    assert np.array_equal(got, expected, equal_nan=True) and np.shape(got) == np.shape(expected)


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
def test_algebra_from_coords_matches_the_basis_sum(tag):
    coords = np.random.default_rng(37).standard_normal(lg.algebra_dim(tag))
    reference = sum(c * b.mat for c, b in zip(coords, lg.algebra_basis(tag)))
    assert np.abs(lg.algebra_from_coords(tag, coords).mat - reference).max() <= 1e-15
    with pytest.raises(InvalidElementError, match="coefficients"):
        lg.algebra_from_coords(tag, coords[:-1])


def test_normalize_projective_on_a_stack():
    mats = np.array([[[2.0, 0.0], [0.0, -4.0]], [[3.0, -3.0], [1.0, 0.0]]])
    out = lg.normalize_projective(mats)
    assert np.array_equal(out[0], lg.normalize_projective(mats[0]))
    assert np.array_equal(out[1], mats[1] / 3.0)   # tie: the first entry wins
    with pytest.raises(InvalidElementError):
        lg.normalize_projective(np.zeros((2, 2, 2)))


def test_tag_size_is_cached_without_changing_equality():
    tag = lg.orthogonal_tag(3, 1)
    fresh = lg.orthogonal_tag(3, 1)
    assert tag.size == 4 and "size" in vars(tag) and "size" not in vars(fresh)
    assert tag == fresh and hash(tag) == hash(fresh)


def closed_form_dims(tag):
    """Matrix size and algebra dimension of each family, by hand."""
    K = lg.GroupKind
    if tag.kind is K.GL:
        n = tag.dims[0]
        return n, n * n
    if tag.kind is K.SO or tag.kind is K.ORTHOGONAL:
        n = sum(tag.dims)
        return n, n * (n - 1) // 2
    if tag.kind is K.AFF:
        n = tag.dims[0]
        return n + 1, n * n + n
    if tag.kind is K.GALILEO:
        m = tag.dims[0]
        return m + 1, 2 * m - 1
    n = tag.dims[0]   # PGL
    return n + 1, (n + 1) ** 2 - 1


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
def test_size_and_algebra_dim_match_their_closed_forms(tag):
    assert (tag.size, lg.algebra_dim(tag)) == closed_form_dims(tag)


@pytest.mark.parametrize("tag", TAGS, ids=lambda t: t.name)
def test_algebra_projection_and_defect_on_stacks(tag):
    # a stack of length n is the case where a transpose of all axes keeps
    # the shape and would go unnoticed
    n = tag.size
    rng = np.random.default_rng(23)
    for shape in ((4, n, n), (n, n, n), (2, 3, n, n)):
        mats = rng.standard_normal(shape)
        projected = lg.project_to_algebra(tag, mats)
        defects = lg.algebra_defect(tag, mats)
        assert projected.shape == shape and defects.shape == shape[:-2]
        for index in np.ndindex(*shape[:-2]):
            assert np.array_equal(projected[index], lg.project_to_algebra(tag, mats[index]))
            assert defects[index] == lg.algebra_defect(tag, mats[index])
        assert np.all(lg.algebra_defect(tag, projected) < 1e-15)
        assert np.max(defects) > 0.1 or tag.kind is lg.GroupKind.GL   # GL has no pattern
    assert np.ndim(lg.algebra_defect(tag, mats[0, 0])) == 0


@pytest.mark.parametrize("tag", [lg.galileo_tag(2), lg.galileo_tag(3)], ids=lambda t: t.name)
def test_galileo_inverse_is_closed_form(tag, monkeypatch):
    rng = np.random.default_rng(29)
    mats = np.stack([lg.random_element(tag, rng, scale=3.0).mat for _ in range(50)])
    expected = np.linalg.inv(mats)
    monkeypatch.setattr(lg.np.linalg, "inv", None)   # the closed form needs no general inverse
    inverses = lg.inverse_matrix(tag, mats)
    assert np.allclose(inverses, expected, rtol=0.0, atol=1e-14)
    assert np.allclose(inverses @ mats, np.eye(tag.size), rtol=0.0, atol=1e-14)
    for stacked, single in zip(inverses, mats):
        assert np.array_equal(stacked, lg.inverse_matrix(tag, single))
