"""Operator view: zigzag flattening, GF(2) affine maps, conv lowering."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockca import ca, gf2, linops
from blockca.ca import Phase
from blockca.linops import (
    AffineOperator,
    KernelSpec,
    OperatorFormatError,
    apply_operator,
    build_full_step_operator,
    build_phase_operator,
    build_wrap_permutation,
    compose,
    conv_to_matrix,
    deconv_to_matrix,
    devectorize_zigzag,
    format_operator,
    identity_operator,
    invert_operator,
    operator_is_invertible,
    parse_operator,
    vectorize_zigzag,
)
from blockca.nn.layers import conv_forward, deconv_forward


class TestZigzag:
    def test_two_by_two_reads_row_major(self):
        vec = vectorize_zigzag([[1, 0], [1, 1]])
        assert vec.tolist() == [1, 0, 1, 1]

    def test_fifth_entry_is_row0_col2(self):
        g = np.zeros((4, 4), dtype=np.uint8)
        g[0, 2] = 1
        assert vectorize_zigzag(g)[4] == 1

    @given(st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_round_trip(self, seed):
        g = ca.random_grid(8, 0.5, seed)
        assert np.array_equal(devectorize_zigzag(vectorize_zigzag(g), 8), g)

    def test_devectorize_checks_length(self):
        with pytest.raises(ValueError):
            devectorize_zigzag(np.zeros(15, dtype=np.uint8), 4)

    def test_all_zero_vector_gives_dead_grid(self):
        assert (devectorize_zigzag(np.zeros(16, dtype=np.uint8), 4) == 0).all()


class TestPhaseOperator:
    def test_count_two_grid_gives_identity_zero_bias(self):
        stripes = np.zeros((4, 4), dtype=np.uint8)
        stripes[:, 0] = stripes[:, 2] = 1
        op = build_phase_operator(stripes)
        assert list(op.rows) == gf2.identity(16)
        assert op.bias == 0

    def test_all_dead_gives_identity_all_ones_bias(self):
        op = build_phase_operator(np.zeros((4, 4), dtype=np.uint8))
        assert list(op.rows) == gf2.identity(16)
        assert op.bias == (1 << 16) - 1

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_simulator_half_step(self, seed):
        g = ca.random_grid(8, 0.5, seed)
        op = build_phase_operator(g)
        assert np.array_equal(apply_operator(op, vectorize_zigzag(g)),
                              vectorize_zigzag(ca.step(g, Phase.ALIGNED)))


class TestWrapPermutation:
    def test_n2_moves_origin_to_opposite_corner(self):
        w = build_wrap_permutation(2)
        g = np.zeros((2, 2), dtype=np.uint8)
        g[1, 1] = 1
        out = devectorize_zigzag(apply_operator(w, vectorize_zigzag(g)), 2)
        assert out[0, 0] == 1 and out.sum() == 1

    def test_is_permutation_with_zero_bias(self):
        w = build_wrap_permutation(8)
        assert gf2.is_permutation(list(w.rows), w.dim)
        assert w.bias == 0

    def test_transpose_is_inverse(self):
        w = build_wrap_permutation(6)
        wt = AffineOperator(w.dim, tuple(gf2.transpose(list(w.rows), w.dim)), 0)
        assert list(compose(w, wt).rows) == gf2.identity(w.dim)

    @given(st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_roll_translation(self, seed):
        g = ca.random_grid(4, 0.5, seed)
        w = build_wrap_permutation(4)
        shifted = np.roll(g, (1, 1), axis=(0, 1))
        assert np.array_equal(apply_operator(w, vectorize_zigzag(g)),
                              vectorize_zigzag(shifted))


class TestCompose:
    def test_identity_is_neutral(self):
        g = ca.random_grid(4, 0.5, 1)
        op = build_phase_operator(g)
        ident = identity_operator(op.dim)
        assert compose(ident, op) == op

    def test_inverse_composes_to_identity(self):
        op = build_phase_operator(ca.random_grid(4, 0.5, 2))
        ident = identity_operator(op.dim)
        assert compose(invert_operator(op), op) == ident

    def test_matches_sequential_application(self):
        rng = np.random.default_rng(3)
        a = build_phase_operator(ca.random_grid(4, 0.5, 10))
        w = build_wrap_permutation(4)
        x = (rng.random(16) < 0.5).astype(np.uint8)
        assert np.array_equal(apply_operator(compose(w, a), x),
                              apply_operator(w, apply_operator(a, x)))

    def test_associative(self):
        ops = [build_phase_operator(ca.random_grid(4, 0.5, s)) for s in (4, 5)]
        w = build_wrap_permutation(4)
        left = compose(compose(ops[0], ops[1]), w)
        right = compose(ops[0], compose(ops[1], w))
        assert left == right

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose(identity_operator(4), identity_operator(8))


class TestFullStepOperator:
    def test_all_dead_two_step_round_trip(self):
        dead = np.zeros((4, 4), dtype=np.uint8)
        op = build_full_step_operator(dead)
        got = apply_operator(op, vectorize_zigzag(dead))
        assert np.array_equal(got, vectorize_zigzag(dead))

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_two_half_steps(self, seed):
        g = ca.random_grid(8, 0.5, seed)
        op = build_full_step_operator(g)
        got = apply_operator(op, vectorize_zigzag(g))
        want = vectorize_zigzag(ca.evolve(g, 2)[-1])
        assert np.array_equal(got, want)

    def test_exhaustive_n2(self):
        for code in range(16):
            g = np.array([(code >> k) & 1 for k in range(4)],
                         dtype=np.uint8).reshape(2, 2)
            op = build_full_step_operator(g)
            got = apply_operator(op, vectorize_zigzag(g))
            want = vectorize_zigzag(ca.evolve(g, 2)[-1])
            assert np.array_equal(got, want)
            assert operator_is_invertible(op)

    def test_matrix_invertible_over_gf2(self):
        op = build_full_step_operator(ca.random_grid(8, 0.5, 123))
        assert operator_is_invertible(op)


@st.composite
def near_dumps(draw):
    """Operator dump text whose head and lines are often, not always, well
    formed, so fuzzing reaches the row checks and the valid path."""
    dim = draw(st.integers(1, 3))
    line = st.text(alphabet="01", min_size=dim, max_size=dim) \
        | st.text(alphabet="012 ", max_size=4)
    lines = draw(st.lists(line, min_size=dim, max_size=dim + 2))
    head = draw(st.sampled_from([str(dim), f" {dim} ", "-1", "x"]))
    return "\n".join([head, *lines])


class TestOperatorDump:
    def test_round_trip(self):
        op = build_full_step_operator(ca.random_grid(4, 0.5, 6))
        assert parse_operator(format_operator(op)) == op

    def test_layout(self):
        op = AffineOperator(2, (0b01, 0b11), 0b10)
        assert format_operator(op) == "2\n10\n11\n01\n"

    @pytest.mark.parametrize("text", ["", " \n\n"])
    def test_empty_text_rejected(self, text):
        with pytest.raises(OperatorFormatError, match="empty"):
            parse_operator(text)

    @pytest.mark.parametrize("text", ["x\n10\n11\n01\n", "2.0\n10\n11\n01\n"])
    def test_non_integer_dim_rejected(self, text):
        with pytest.raises(OperatorFormatError, match="dim"):
            parse_operator(text)

    def test_negative_dim_rejected(self):
        with pytest.raises(OperatorFormatError, match="dim"):
            parse_operator("-1\n")

    @pytest.mark.parametrize("text", ["2\n10\n11\n", "2\n10\n11\n01\n00\n"])
    def test_wrong_line_count_rejected(self, text):
        with pytest.raises(OperatorFormatError, match="rows plus a bias"):
            parse_operator(text)

    @pytest.mark.parametrize("text", [
        "2\n12\n11\n01\n",   # a '2' cell
        "2\n1\n11\n01\n",    # short row
        "2\n10\n11\n011\n",  # long bias
        "2\n1 0\n11\n01\n",  # inner space
    ])
    def test_row_not_dim_bits_rejected(self, text):
        with pytest.raises(OperatorFormatError, match="characters of 0/1"):
            parse_operator(text)

    @given(st.one_of(st.text(), near_dumps()))
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_rejected_or_round_trips(self, text):
        try:
            op = parse_operator(text)
        except OperatorFormatError:
            return
        assert parse_operator(format_operator(op)) == op


def random_kernel(rng, stride_choices=(1, 2)):
    co, ci = int(rng.integers(1, 5)), int(rng.integers(1, 5))
    k = int(rng.choice([1, 2, 3]))
    s = int(rng.choice(stride_choices))
    h = k + s * int(rng.integers(1, 5))
    w = k + s * int(rng.integers(1, 5))
    kernel = KernelSpec(co, ci, k, k, s, rng.normal(size=(co, ci, k, k)),
                        rng.normal(size=co))
    return kernel, (ci, h, w)


class TestConvLowering:
    def test_one_by_one_kernel_is_block_diagonal_scale(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.full((1, 1, 1, 1), 2.5),
                            np.zeros(1))
        mat, bias = conv_to_matrix(kernel, (1, 4, 4))
        assert np.allclose(mat, 2.5 * np.eye(16))
        assert not bias.any()

    def test_two_by_two_stride_two_shape_and_rows(self):
        rng = np.random.default_rng(0)
        kernel = KernelSpec(1, 1, 2, 2, 2, rng.normal(size=(1, 1, 2, 2)),
                            np.zeros(1))
        mat, _ = conv_to_matrix(kernel, (1, 4, 4))
        assert mat.shape == (4, 16)
        assert (np.count_nonzero(mat, axis=1) == 4).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_conv_forward(self, seed):
        rng = np.random.default_rng(seed)
        kernel, shape = random_kernel(rng)
        x = rng.normal(size=(1, *shape))
        mat, bias = conv_to_matrix(kernel, shape)
        want = conv_forward(kernel, x).ravel()
        assert np.abs(mat @ x.ravel() + bias - want).max() <= 1e-10

    def test_rejects_non_tiling_shapes(self):
        kernel = KernelSpec(1, 1, 2, 2, 2, np.zeros((1, 1, 2, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            conv_to_matrix(kernel, (1, 5, 4))


class TestDeconvLowering:
    def test_one_by_one_identity_kernel_self_transpose(self):
        kernel = KernelSpec(1, 1, 1, 1, 1, np.ones((1, 1, 1, 1)), np.zeros(1))
        mat, _ = deconv_to_matrix(kernel, (1, 3, 3))
        assert np.allclose(mat, np.eye(9))

    def test_is_transpose_of_conv_lowering(self):
        rng = np.random.default_rng(1)
        kernel = KernelSpec(3, 2, 2, 2, 2, rng.normal(size=(3, 2, 2, 2)),
                            np.zeros(3))
        conv_mat, _ = conv_to_matrix(kernel, (2, 6, 6))
        deconv_mat, _ = deconv_to_matrix(kernel, (3, 3, 3))
        assert np.array_equal(deconv_mat, conv_mat.T)

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_deconv_forward(self, seed):
        rng = np.random.default_rng(seed + 100)
        kernel, shape = random_kernel(rng)
        small = (kernel.out_channels,
                 (shape[1] - kernel.height) // kernel.stride + 1,
                 (shape[2] - kernel.width) // kernel.stride + 1)
        zero_bias = KernelSpec(kernel.out_channels, kernel.in_channels,
                               kernel.height, kernel.width, kernel.stride,
                               kernel.weights, np.zeros(kernel.in_channels))
        y = rng.normal(size=(1, *small))
        mat, bias = deconv_to_matrix(zero_bias, small)
        want = deconv_forward(zero_bias, y).ravel()
        assert np.abs(mat @ y.ravel() + bias - want).max() <= 1e-10
