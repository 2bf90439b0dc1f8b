import tracemalloc

import numpy as np
import pytest

import ergoquench.channels
from ergoquench import ChannelSpec, ModelSpec, build_hamiltonian, gibbs_state
from ergoquench.channels import Liouvillian, _chain_labels, build_liouvillian
from ergoquench.linalg import dagger, hermitian_eig, kron
from ergoquench.model import collective_operator, site_operator

from conftest import random_density, random_hermitian
from reference import (DenseGenerator, _invariant_blocks, dissipator_apply, rate_matrix, unvec,
                       vec)


def _dense_kron(a, b):
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _dense_lindblad_matrix(h_matrix, jumps, rates):
    """Reference assembly: every term as a full D^2 x D^2 Kronecker product."""
    h = np.asarray(h_matrix, dtype=complex)
    eye = np.eye(h.shape[0], dtype=complex)
    out = _dense_kron(eye, -1j * h)
    out += _dense_kron(1j * h.T, eye)
    if len(jumps):
        d = jumps[0].shape[0]
        eye = np.eye(d, dtype=complex)
        dissipator = np.zeros((d * d, d * d), dtype=complex)
        decay = np.zeros((d, d), dtype=complex)
        for rate, jump in zip(np.asarray(rates, dtype=float), jumps, strict=True):
            if rate != 0.0:
                dissipator += _dense_kron(rate * np.conj(jump), jump)
                decay += 0.5 * rate * (dagger(jump) @ jump)
        dissipator -= _dense_kron(eye, decay)
        dissipator -= _dense_kron(decay.T, eye)
        out += dissipator
    return out


def _bfs_blocks(matrix):
    """Reference block finder: one breadth-first search per connected component."""
    coupled = np.asarray(matrix) != 0
    coupled |= coupled.T
    free = np.ones(len(coupled), dtype=bool)
    blocks = []
    for seed in range(len(coupled)):
        if not free[seed]:
            continue
        member = np.zeros_like(free)
        member[seed] = True
        frontier = member
        while frontier.any():
            frontier = coupled[frontier].any(axis=0) & ~member
            member |= frontier
        free &= ~member
        blocks.append(np.flatnonzero(member))
    return tuple(blocks)


def _same_blocks(found, reference):
    return len(found) == len(reference) and all(
        np.array_equal(a, b) for a, b in zip(found, reference, strict=True))


# every channel build_liouvillian assembles, as ChannelSpec keywords
CHANNEL_CASES = {
    "parallel-dissipation": dict(gamma=0.05),
    "collective-dissipation": dict(gamma=0.05, alpha_minus=1.0),
    "interpolated-dissipation": dict(gamma=0.05, alpha_minus=0.4),
    "parallel-dephasing": dict(gamma=0.05, alpha=1.0),
    "collective-dephasing": dict(gamma=0.05, alpha=1.0, alpha_z=1.0),
    "alpha-mixed": dict(gamma=0.05, alpha=0.3, alpha_minus=0.4, alpha_z=0.7),
    "gamma-zero": dict(gamma=0.0, alpha=0.3, alpha_minus=0.4, alpha_z=0.7),
}


def _channel_jumps(spec, model):
    """The jumps and rates build_liouvillian passes on: N site jumps plus their sum per channel."""
    jumps, rates = [], []
    for weight, kind, interp in ((1.0 - spec.alpha, "minus", spec.alpha_minus),
                                 (spec.alpha, "z", spec.alpha_z)):
        if weight > 0.0 and spec.gamma > 0.0:
            site = [site_operator(model, s, kind) for s in range(1, model.n_qubits + 1)]
            jumps += site + [np.sum(site, axis=0)]
            rates += ([weight * spec.gamma * (1.0 - interp)] * model.n_qubits
                      + [weight * spec.gamma * interp])
    return jumps, rates


def _excitations(index, n):
    # |e> is bit 0 per site, site 1 in the most significant position
    return n - bin(index).count("1")


def test_rate_matrix_local_limit():
    assert np.array_equal(rate_matrix(0.05, 0.0, 3), 0.05 * np.eye(3))


def test_rate_matrix_collective_limit():
    assert np.array_equal(rate_matrix(0.05, 1.0, 3), np.full((3, 3), 0.05))


def test_rate_matrix_half_mix():
    expected = np.array([[0.05, 0.025], [0.025, 0.05]])
    assert np.allclose(rate_matrix(0.05, 0.5, 2), expected, atol=1e-15)


def test_rate_matrix_positive_semidefinite():
    for alpha in (0.0, 0.3, 0.7, 1.0):
        vals, _ = hermitian_eig(rate_matrix(0.05, alpha, 4).astype(complex))
        assert vals[0] >= -1e-15
        assert np.allclose(sorted(set(np.round(vals, 12))),
                           sorted(set(np.round([0.05 * (1 - alpha),
                                                0.05 * (1 - alpha + 4 * alpha)], 12))))


def test_rate_matrix_rejects_out_of_range():
    with pytest.raises(ValueError):
        rate_matrix(0.05, 1.2, 2)
    with pytest.raises(ValueError):
        rate_matrix(-0.1, 0.5, 2)


def test_dephasing_leaves_populations(model2):
    jumps = [site_operator(model2, s, "z") for s in (1, 2)]
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    out = dissipator_apply(rate_matrix(0.05, 0.0, 2), jumps, rho)
    assert np.abs(out).max() <= 1e-15


def test_collective_dephasing_annihilates_gibbs(model2, h2):
    jumps = [site_operator(model2, s, "z") for s in (1, 2)]
    out = dissipator_apply(rate_matrix(0.05, 1.0, 2), jumps, gibbs_state(h2, 1.0))
    assert np.abs(out).max() <= 1e-14


def test_single_qubit_decay():
    model = ModelSpec(n_qubits=1, field_h=0.1)
    jumps = [site_operator(model, 1, "minus")]
    excited = np.diag([1.0, 0.0]).astype(complex)
    out = dissipator_apply(rate_matrix(0.05, 0.0, 1), jumps, excited)
    assert np.allclose(out, 0.05 * np.diag([-1.0, 1.0]), atol=1e-15)


def test_dissipator_output_traceless_hermitian(model2):
    rng = np.random.default_rng(3)
    jumps = [site_operator(model2, s, "minus") for s in (1, 2)]
    rates = rate_matrix(0.05, 0.4, 2)
    for _ in range(10):
        out = dissipator_apply(rates, jumps, random_density(rng, 4))
        assert abs(np.trace(out)) <= 1e-14
        assert np.abs(out - dagger(out)).max() <= 1e-14


def test_dissipator_dimension_mismatch(model2):
    jumps = [site_operator(model2, s, "minus") for s in (1, 2)]
    with pytest.raises(ValueError):
        dissipator_apply(rate_matrix(0.05, 0.0, 2), jumps, np.eye(2, dtype=complex) / 2)


def test_liouvillian_pure_hamiltonian(h2):
    liou = build_liouvillian(h2, ChannelSpec(gamma=0.0))
    eye = np.eye(4, dtype=complex)
    expected = -1j * (kron(eye, h2) - kron(h2.T, eye))
    assert np.abs(liou.matrix - expected).max() <= 1e-15


def test_liouvillian_matches_direct_application(model2, h2):
    # two-path equivalence: superoperator vs commutator + dissipator on states
    rng = np.random.default_rng(5)
    spec = ChannelSpec(gamma=0.05, alpha=0.3, alpha_minus=0.4, alpha_z=0.7)
    liou = build_liouvillian(h2, spec)
    minus = [site_operator(model2, s, "minus") for s in (1, 2)]
    zs = [site_operator(model2, s, "z") for s in (1, 2)]
    for _ in range(10):
        rho = random_density(rng, 4)
        direct = (-1j * (h2 @ rho - rho @ h2)
                  + 0.7 * dissipator_apply(rate_matrix(0.05, 0.4, 2), minus, rho)
                  + 0.3 * dissipator_apply(rate_matrix(0.05, 0.7, 2), zs, rho))
        via_super = unvec(liou.matrix @ vec(rho), 4)
        assert np.abs(via_super - direct).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("kind", ["minus", "z"])
@pytest.mark.parametrize("interp", [0.0, 0.3, 0.5, 1.0])
def test_diagonal_form_matches_the_double_sum(n, kind, interp):
    # build_liouvillian assembles N + 1 jumps; dissipator_apply keeps the N^2 double sum
    model = ModelSpec(n_qubits=n, field_h=0.1)
    spec = (ChannelSpec(gamma=0.05, alpha_minus=interp) if kind == "minus"
            else ChannelSpec(gamma=0.05, alpha=1.0, alpha_z=interp))
    liou = build_liouvillian(np.zeros((model.dim, model.dim)), spec)
    jumps = [site_operator(model, s, kind) for s in range(1, n + 1)]
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho = random_density(rng, model.dim)
        reference = dissipator_apply(rate_matrix(0.05, interp, n), jumps, rho)
        assert np.abs(unvec(liou.matrix @ vec(rho), model.dim) - reference).max() <= 1e-14


def test_collective_dephasing_liouvillian_freezes_gibbs(h2):
    liou = build_liouvillian(h2, ChannelSpec(gamma=0.05, alpha=1.0, alpha_z=1.0))
    residual = liou.matrix @ vec(gibbs_state(h2, 1.0))
    assert np.abs(residual).max() <= 1e-13


def test_trace_and_hermiticity_preservation(h2):
    rng = np.random.default_rng(7)
    spec = ChannelSpec(gamma=0.05, alpha=0.5, alpha_minus=0.5, alpha_z=0.5)
    liou = build_liouvillian(h2, spec)
    for _ in range(100):
        rho = random_density(rng, 4)
        out = unvec(liou.matrix @ vec(rho), 4)
        assert abs(np.trace(out)) <= 1e-12
        assert np.abs(out - dagger(out)).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
def test_elementwise_dephasing_law(n):
    # parallel dephasing scales each element by gamma * sum_i (z_i(a) z_i(b) - 1),
    # i.e. -2 gamma per differing site
    model = ModelSpec(n_qubits=n, field_h=0.1)
    gamma = 0.05
    jumps = [site_operator(model, s, "z") for s in range(1, n + 1)]
    rates = rate_matrix(gamma, 0.0, n)
    dim = model.dim
    for a in range(dim):
        for b in range(dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[a, b] = 1.0
            out = dissipator_apply(rates, jumps, basis)
            differing = bin(a ^ b).count("1")
            expected = -2.0 * gamma * differing * basis
            assert np.abs(out - expected).max() <= 1e-14


def test_parallel_dissipation_never_raises_excitations(model2, h2):
    liou = build_liouvillian(h2, ChannelSpec(gamma=0.05))
    n = model2.n_qubits
    dim = model2.dim
    for a in range(dim):
        for b in range(dim):
            col = liou.matrix[:, a + b * dim]
            for ap in range(dim):
                for bp in range(dim):
                    na, nb = _excitations(a, n), _excitations(b, n)
                    nap, nbp = _excitations(ap, n), _excitations(bp, n)
                    if (nap, nbp) not in ((na, nb), (na - 1, nb - 1)):
                        assert abs(col[ap + bp * dim]) <= 1e-14


def test_collective_double_sum_equals_single_jump(model4, h4):
    # alpha_minus = 1 must coincide with the single collective jump S^-
    liou = build_liouvillian(h4, ChannelSpec(gamma=0.05, alpha_minus=1.0))
    single = Liouvillian(h4, (collective_operator(model4, "minus"),), (0.05,),
                         _chain_labels(4)).matrix
    assert np.abs(liou.matrix - single).max() <= 1e-13


def test_hamiltonian_superoperator_anti_hermitian_generator(h2):
    # gamma = 0: i * L is Hermitian, so the propagator is unitary
    mat = Liouvillian(h2, (), (), _chain_labels(2)).matrix
    assert np.abs((1j * mat) - dagger(1j * mat)).max() <= 1e-14


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        ChannelSpec(gamma=-0.1)
    with pytest.raises(ValueError):
        ChannelSpec(gamma=0.05, alpha=1.5)
    with pytest.raises(ValueError):
        ChannelSpec(gamma=0.05, alpha_minus=-0.2)
    with pytest.raises(ValueError):
        ChannelSpec(gamma=0.05, alpha_z=2.0)


@pytest.mark.parametrize("h", [np.eye(32), np.eye(3), np.eye(1), np.zeros((4, 2)), np.zeros(4)],
                         ids=["five-qubits", "3x3", "1x1", "4x2", "vector"])
def test_liouvillian_takes_a_one_to_four_qubit_hamiltonian_only(h):
    with pytest.raises(ValueError, match=r"2\^N x 2\^N with 1 <= N <= 4"):
        build_liouvillian(h, ChannelSpec(gamma=0.05))


@pytest.mark.parametrize("shape", [(4, 16), (16,), (0, 0), (2, 2, 2, 2)])
def test_liouvillian_hamiltonian_must_be_square(shape):
    with pytest.raises(ValueError, match=r"D x D with D >= 1"):
        Liouvillian(np.zeros(shape, dtype=complex), (), (), (0,) * 4)


@pytest.mark.parametrize("shape", [(15, 15), (4, 16), (16,), (0, 0)])
def test_dense_generator_must_be_square_of_a_square(shape):
    with pytest.raises(ValueError, match=r"D\^2 x D\^2"):
        DenseGenerator(np.zeros(shape, dtype=complex))


@pytest.mark.parametrize("dim", [1, 2, 4, 16])
def test_generators_read_the_state_dimension_off_their_matrices(dim):
    assert Liouvillian(np.zeros((dim, dim)), (), (), (0,) * dim).dim_state == dim
    assert DenseGenerator(np.zeros((dim * dim, dim * dim), dtype=complex)).dim_state == dim


def _conserving_hermitian(rng, n):
    """A random Hermitian 2^n x 2^n matrix that conserves the chain's excitation number."""
    k = np.array(_chain_labels(n))
    return np.where(k[:, None] == k[None, :], random_hermitian(rng, 2 ** n), 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", list(CHANNEL_CASES))
def test_assembly_is_bit_identical_to_the_dense_kronecker_formula(n, case):
    model = ModelSpec(n_qubits=n, field_h=0.1)
    spec = ChannelSpec(**CHANNEL_CASES[case])
    for h in (build_hamiltonian(model), _conserving_hermitian(np.random.default_rng(n), n)):
        liou = build_liouvillian(h, spec)
        reference = _dense_lindblad_matrix(h, *_channel_jumps(spec, model))
        assert np.array_equal(liou.matrix, reference)
        assert _same_blocks(liou.blocks, _bfs_blocks(reference))


def test_assembly_is_bit_identical_for_complex_and_overlapping_jumps():
    # every basis state labelled 0: any H and any jump keep the label, one block
    rng = np.random.default_rng(23)
    for d in (2, 3, 4):
        h = random_hermitian(rng, d)
        dense = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        sparse = np.where(rng.random((d, d)) < 0.4, dense, 0.0)
        jumps = (dense, sparse, np.eye(d), sparse.T, np.zeros((d, d)))
        rates = (0.3, 0.05, 0.0, 1.7, 0.2)
        liou = Liouvillian(h, jumps, rates, (0,) * d)
        assert np.array_equal(liou.matrix, _dense_lindblad_matrix(h, jumps, rates))
        assert len(liou.blocks) == 1
        assert np.array_equal(Liouvillian(h, (), (), (0,) * d).matrix,
                              _dense_lindblad_matrix(h, [], []))


# ROADMAP item 13's grid: N x h x gamma x (alpha, alpha_minus, alpha_z)
LABEL_GRID = [(n, h, ChannelSpec(gamma, alpha, alpha_minus, alpha_z))
              for n in (1, 2, 3, 4) for h in (0.0, 0.1, 1.0) for gamma in (0.0, 0.05)
              for alpha in (0.0, 0.3, 1.0) for alpha_minus in (0.0, 0.4, 1.0)
              for alpha_z in (0.0, 0.4, 1.0)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_declared_blocks_are_the_pattern_blocks_and_have_the_dense_bytes(n):
    # the blocks read off the excitation labels are the connected components of the
    # dense generator's pattern, and each block a Gibbs state touches has the bytes of
    # the dense Kronecker formula's slice
    grid = [(h, spec) for m, h, spec in LABEL_GRID if m == n]
    assert len(grid) == 162
    touched = 0
    for h_field, spec in grid:
        model = ModelSpec(n_qubits=n, field_h=h_field)
        h = build_hamiltonian(model)
        liou = build_liouvillian(h, spec)
        reference = _dense_lindblad_matrix(h, *_channel_jumps(spec, model))
        assert _same_blocks(liou.blocks, _invariant_blocks(reference))
        held = vec(gibbs_state(h, np.array([0.2, 5.0]))).any(axis=0)
        for b in liou.blocks:
            if held[b].any():
                touched += 1
                assert np.array_equal(liou.block(b).view(np.uint64),
                                      reference[np.ix_(b, b)].view(np.uint64))
    assert touched >= len(grid)


@pytest.mark.parametrize("labels,h,jumps,match", [
    ((1, 0), np.array([[0, 1], [1, 0]]), (), "Hamiltonian couples"),
    ((1, 0), np.diag([1.0, -1.0]), (np.array([[0, 1], [0, 0]]),), "jump 0 neither"),
    ((1, 0), np.zeros((2, 2)), (np.zeros((2, 2)), np.array([[0, 1], [1, 0]])), "jump 1 neither"),
    ((2, 1, 1, 0), np.zeros((4, 4)), (np.eye(4)[[3, 0, 1, 2]],), "jump 0 neither"),
])
def test_a_matrix_that_breaks_the_labels_is_refused(labels, h, jumps, match):
    with pytest.raises(ValueError, match=match):
        Liouvillian(h, jumps, (0.05,) * len(jumps), labels)


def test_a_zero_rate_jump_is_not_checked_and_adds_nothing():
    raising = np.array([[0, 1], [0, 0]])
    h1 = build_hamiltonian(ModelSpec(n_qubits=1))
    assert np.array_equal(Liouvillian(h1, (raising,), (0.0,), _chain_labels(1)).matrix,
                          Liouvillian(h1, (), (), _chain_labels(1)).matrix)


def _random_pattern(rng, dim, density, symmetric):
    mask = rng.random((dim, dim)) < density
    if symmetric:
        mask |= mask.T
    return np.where(mask, rng.normal(size=(dim, dim)) + 1j, 0.0)


@pytest.mark.parametrize("dim", [1, 5, 16, 64])
def test_block_finder_matches_breadth_first_search(dim):
    rng = np.random.default_rng(dim)
    patterns = [np.zeros((dim, dim)), np.ones((dim, dim)), np.eye(dim),
                np.triu(np.ones((dim, dim)), 1),       # couplings in one direction only
                np.diag(np.ones(dim - 1), -1)]         # a one-way chain through every index
    for density in (0.5 / dim, 1.0 / dim, 2.0 / dim, 0.3):
        patterns += [_random_pattern(rng, dim, density, symmetric)
                     for symmetric in (False, True)]
    for matrix in patterns:
        blocks = _invariant_blocks(matrix)
        assert _same_blocks(blocks, _bfs_blocks(matrix))


def test_four_qubit_generators_never_hold_a_dense_matrix(h4):
    # building every channel and assembling each of its blocks stays below the
    # 1 MiB of one dense 256 x 256 generator
    liouvillians = [build_liouvillian(h4, ChannelSpec(**case)) for case in CHANNEL_CASES.values()]
    for liou in liouvillians:  # the geometry caches fill outside the traced region
        for b in liou.blocks:
            liou.block(b)
    tracemalloc.start()
    try:
        for case in CHANNEL_CASES.values():
            liou = build_liouvillian(h4, ChannelSpec(**case))
            for b in liou.blocks:
                liou.block(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 256 * 16


def test_liouvillian_names_the_first_misshaped_jump(model2, h2):
    good = site_operator(model2, 1, "minus")
    for bad in (np.zeros((2, 2)), np.zeros((4, 2)), np.zeros(4), np.zeros((8, 8))):
        with pytest.raises(ValueError, match=r"jump 1 has shape"):
            Liouvillian(h2, (good, bad, bad), (0.05, 0.05, 0.05), _chain_labels(2))
    with pytest.raises(ValueError, match="D x D"):
        Liouvillian(np.zeros((4, 2)), (), (), _chain_labels(2))


def test_site_jumps_are_built_once_per_size_and_kind(monkeypatch):
    # the jumps and H depend on (n, kind) only: fields and channel mixes share
    # them, H's sigma^z are the dephasing jumps, and the collective operators
    # sum the same cached site operators
    calls = []

    def counting(spec, site, kind):
        calls.append((spec.n_qubits, site, kind))
        return site_operator(spec, site, kind)

    monkeypatch.setattr(ergoquench.model, "site_operator", counting)
    caches = (ergoquench.channels._site_jumps, ergoquench.model._site_operators)
    for cache in caches:
        cache.cache_clear()
    try:
        for h_field in (0.0, 0.1, 0.45):
            model = ModelSpec(n_qubits=2, field_h=h_field)
            for case in CHANNEL_CASES.values():
                build_liouvillian(build_hamiltonian(model), ChannelSpec(**case))
            for kind in ("minus", "z"):
                collective_operator(model, kind)
    finally:
        for cache in caches:
            cache.cache_clear()
    assert sorted(calls) == sorted((2, s, kind) for kind in ("minus", "x", "y", "z")
                                   for s in (1, 2))
    jumps = ergoquench.channels._site_jumps(2, "minus")
    assert not any(jump.flags.writeable for jump in jumps)
    assert np.array_equal(jumps[-1], collective_operator(ModelSpec(n_qubits=2), "minus"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_family_gives_each_member_the_bytes_of_its_own_generator(n):
    # ROADMAP item 13's grid as families of one chain size: a stack of H with a spec per
    # member, one H with a spec per member, and a stack of H with one spec.  Members with
    # a zero rate (gamma = 0, alpha = 0 or 1, an interpolation at 0 or 1) and dissipation
    # mixed with dephasing sit in one family wherever they agree on lowering
    grid = [(h, spec) for m, h, spec in LABEL_GRID if m == n]
    hamiltonians = {h: build_hamiltonian(ModelSpec(n_qubits=n, field_h=h)) for h, _ in grid}
    own = [build_liouvillian(hamiltonians[h], spec) for h, spec in grid]
    families = {}  # lowering or not -> member indices
    for p, liou in enumerate(own):
        families.setdefault(len(liou.blocks), []).append(p)
    cases = []
    for members in families.values():
        stack = np.stack([hamiltonians[grid[p][0]] for p in members])
        cases.append((members, build_liouvillian(stack, [grid[p][1] for p in members])))
        for field, h in hamiltonians.items():
            same_h = [p for p in members if grid[p][0] == field]
            cases.append((same_h, build_liouvillian(h, [grid[p][1] for p in same_h])))
    for spec in dict.fromkeys(spec for _, spec in grid):
        same_spec = [p for p, (_, s) in enumerate(grid) if s == spec]
        cases.append((same_spec, build_liouvillian(np.stack([hamiltonians[grid[p][0]]
                                                             for p in same_spec]), spec)))
    assert sum(len(members) for members, _ in cases) == 3 * len(grid)
    for members, family in cases:
        assert family.members == len(members) and family.blocks is own[members[0]].blocks
        for b in family.blocks:
            block = family.block(b)
            assert block.shape == (len(members), b.size, b.size)
            for member, p in zip(block, members, strict=True):
                assert member.tobytes() == own[p].block(b).tobytes()
            # consecutive members alone are the rows of the whole family's block
            half = len(members) // 2
            for part in (slice(0, 1), slice(1, None), slice(half, half + 2)):
                alone = family.block(b, part)
                assert alone.shape == block[part].shape
                assert alone.tobytes() == block[part].tobytes()


def test_a_family_of_one_generator_has_a_stacked_block(h2):
    spec = ChannelSpec(gamma=0.05, alpha_minus=0.4)
    one, family = build_liouvillian(h2, spec), build_liouvillian(h2[None], spec)
    assert (one.members, family.members) == (1, 1)
    for b in one.blocks:
        assert family.block(b).shape == (1, b.size, b.size)
        assert family.block(b)[0].tobytes() == one.block(b).tobytes()


@pytest.mark.parametrize("specs,match", [
    ([ChannelSpec(0.05, alpha=1.0), ChannelSpec(0.05)], "member 1 disagrees with member 0"),
    ([ChannelSpec(0.05), ChannelSpec(0.05, alpha_minus=1.0), ChannelSpec(0.0)],
     "member 2 disagrees with member 0"),
    ([ChannelSpec(0.0), ChannelSpec(0.05, alpha=0.3)], "member 1 disagrees with member 0"),
], ids=["dephasing-dissipation", "zero-rate", "mixed"])
def test_members_that_disagree_on_lowering_are_refused(h2, specs, match):
    with pytest.raises(ValueError, match=match):
        build_liouvillian(h2, specs)


def test_a_family_needs_one_member_count(h2):
    with pytest.raises(ValueError, match="one member count >= 1, got \\[2, 3\\]"):
        build_liouvillian(np.stack([h2, h2]), [ChannelSpec(0.05)] * 3)
    with pytest.raises(ValueError, match="non-empty sequence"):
        build_liouvillian(h2, [])
    with pytest.raises(ValueError, match="one member count >= 1, got \\[0\\]"):
        Liouvillian(np.zeros((0, 4, 4)), (), (), _chain_labels(2))
