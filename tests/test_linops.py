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
    operator_is_invertible,
    parse_operator,
    vectorize_zigzag,
)
from blockca.nn.layers import conv_forward, deconv_forward


def identity_rows(dim):
    """Row representation of the dim x dim identity over GF(2)."""
    return [1 << i for i in range(dim)]


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

    @pytest.mark.parametrize("vec", [[2, 0, 0, 0], [0.5, 0, 0, 0],
                                     [0, 0, -1, 0], [0, np.nan, 0, 0]])
    def test_devectorize_rejects_non_binary_entries(self, vec):
        with pytest.raises(ValueError, match="0 or 1"):
            devectorize_zigzag(vec, 2)

    @pytest.mark.parametrize("n", [2, 4])
    def test_results_are_new_arrays(self, n):
        g = ca.random_grid(n, 0.5, n)
        vec = vectorize_zigzag(g)
        back = devectorize_zigzag(vec, n)
        assert not np.shares_memory(vec, g)
        assert not np.shares_memory(back, vec)

    @pytest.mark.parametrize("n", [2, 4])
    def test_a_stack_gives_one_row_per_grid(self, n):
        grids = ca.random_grids(6, n, 0.5, n).reshape(2, 3, n, n)
        vecs = vectorize_zigzag(grids)
        assert vecs.shape == (2, 3, n * n)
        assert not np.shares_memory(vecs, grids)
        for index in np.ndindex(2, 3):
            assert np.array_equal(vecs[index], vectorize_zigzag(grids[index]))
        with pytest.raises(ValueError, match="square"):
            build_phase_operator(grids[0])

    def test_all_zero_vector_gives_dead_grid(self):
        assert (devectorize_zigzag(np.zeros(16, dtype=np.uint8), 4) == 0).all()


class TestPhaseOperator:
    def test_count_two_grid_gives_identity_zero_bias(self):
        stripes = np.zeros((4, 4), dtype=np.uint8)
        stripes[:, 0] = stripes[:, 2] = 1
        op = build_phase_operator(stripes)
        assert list(op.rows) == identity_rows(16)
        assert op.bias == 0

    def test_all_dead_gives_identity_all_ones_bias(self):
        op = build_phase_operator(np.zeros((4, 4), dtype=np.uint8))
        assert list(op.rows) == identity_rows(16)
        assert op.bias == (1 << 16) - 1

    @pytest.mark.parametrize("code", range(16))
    def test_each_block_code_maps_by_the_block_table(self, code):
        """The operator of the 2x2 grid of each code: a permutation matrix
        with bias 0 or all ones, mapping the block as ca.BLOCK_TABLE does
        (the operator itself reads only the live count)."""
        block = ca.ALL_BLOCKS[code]
        op = build_phase_operator(block)
        matrix = np.array([[row >> j & 1 for j in range(4)]
                           for row in op.rows])
        assert (matrix.sum(axis=0) == 1).all()
        assert (matrix.sum(axis=1) == 1).all()
        assert op.bias in (0, 0b1111)
        image = apply_operator(op, vectorize_zigzag(block))
        assert np.array_equal(devectorize_zigzag(image, 2),
                              ca.ALL_BLOCKS[ca.BLOCK_TABLE[code]])

    @given(st.integers(0, 5_000))
    @settings(max_examples=100, deadline=None)
    def test_matches_simulator_half_step(self, seed):
        g = ca.random_grid(8, 0.5, seed)
        op = build_phase_operator(g)
        assert np.array_equal(apply_operator(op, vectorize_zigzag(g)),
                              vectorize_zigzag(ca.step(g, Phase.ALIGNED)))


    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_matches_a_per_block_live_count_loop(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 0.5, 0.7, 1.0):
            g = ca.random_grid(n, density, rng)
            vec = vectorize_zigzag(g)
            rows, bias = [], 0
            for base in range(0, n * n, 4):
                count = int(vec[base:base + 4].sum())
                order = (3, 2, 1, 0) if count == 3 else (0, 1, 2, 3)
                rows.extend(1 << (base + j) for j in order)
                if count != 2:
                    bias |= 0b1111 << base
            op = build_phase_operator(g)
            assert op.rows == tuple(rows)
            assert op.bias == bias
            assert type(op.bias) is int
            assert all(type(r) is int for r in op.rows)


class TestWrapPermutation:
    def test_n2_moves_origin_to_opposite_corner(self):
        w = build_wrap_permutation(2)
        g = np.zeros((2, 2), dtype=np.uint8)
        g[1, 1] = 1
        out = devectorize_zigzag(apply_operator(w, vectorize_zigzag(g)), 2)
        assert out[0, 0] == 1 and out.sum() == 1

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 32, 64])
    def test_rows_equal_a_per_cell_reference(self, n):
        def zigzag(i, j):
            return 4 * ((i // 2) * (n // 2) + j // 2) + 2 * (i % 2) + j % 2

        want = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                want[zigzag(i, j)] = 1 << zigzag((i - 1) % n, (j - 1) % n)
        assert build_wrap_permutation(n).rows == tuple(want)

    def test_is_permutation_with_zero_bias(self):
        w = build_wrap_permutation(8)
        # Exactly one bit per row, and the rows cover every column.
        assert all(row.bit_count() == 1 for row in w.rows)
        assert {row.bit_length() - 1 for row in w.rows} == set(range(w.dim))
        assert w.bias == 0

    def test_transpose_is_inverse(self):
        w = build_wrap_permutation(6)
        wt = AffineOperator(w.dim, tuple(gf2.transpose(list(w.rows), w.dim)), 0)
        assert list(compose(w, wt).rows) == identity_rows(w.dim)

    @given(st.integers(0, 2_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_roll_translation(self, seed):
        g = ca.random_grid(4, 0.5, seed)
        w = build_wrap_permutation(4)
        shifted = np.roll(g, (1, 1), axis=(0, 1))
        assert np.array_equal(apply_operator(w, vectorize_zigzag(g)),
                              vectorize_zigzag(shifted))


class TestApplyOperator:
    @pytest.mark.parametrize("vec", [[2, 0, 0, 0], [0.5, 0, 0, 0],
                                     [0, 0, 0, 255], [0, 0, np.inf, 0]])
    def test_rejects_non_binary_entries(self, vec):
        op = build_phase_operator(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="0 or 1"):
            apply_operator(op, vec)

    def test_accepts_binary_entries_of_any_dtype(self):
        op = build_phase_operator(np.zeros((2, 2), dtype=np.uint8))
        for vec in ([1, 0, 0, 0], [1.0, 0.0, 0.0, 0.0],
                    np.array([True, False, False, False])):
            assert apply_operator(op, vec).tolist() == [0, 1, 1, 1]

    def test_rejects_a_vector_of_the_wrong_length(self):
        op = build_phase_operator(np.zeros((2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="length 4"):
            apply_operator(op, [0, 0, 0])


class TestCompose:
    def test_identity_is_neutral(self):
        g = ca.random_grid(4, 0.5, 1)
        op = build_phase_operator(g)
        ident = AffineOperator(op.dim, tuple(identity_rows(op.dim)), 0)
        assert compose(ident, op) == op

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
            compose(AffineOperator(4, tuple(identity_rows(4)), 0),
                    AffineOperator(8, tuple(identity_rows(8)), 0))


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

    @staticmethod
    def assert_equals_composed_reference(g):
        """The operator equals W^-1 . B_half . W . B as three `compose`
        products of the factors built on their own, W^-1 as W's transpose."""
        n = g.shape[0]
        w = build_wrap_permutation(n)
        w_inv = AffineOperator(
            w.dim, tuple(gf2.transpose(list(w.rows), w.dim)), 0)
        b_t = build_phase_operator(g)
        mid = apply_operator(w, apply_operator(b_t, vectorize_zigzag(g)))
        b_half = build_phase_operator(devectorize_zigzag(mid, n))
        want = compose(w_inv, compose(b_half, compose(w, b_t)))
        got = build_full_step_operator(g)
        assert (got.dim, got.rows, got.bias) == \
            (want.dim, want.rows, want.bias)

    @pytest.mark.parametrize("n", [2, 4, 6, 32])
    def test_index_map_build_equals_the_composed_factors(self, n):
        """The index-map product equals compose over the four factors, on
        the first call for n (W's source index is cached) and after."""
        for seed in range(3):
            self.assert_equals_composed_reference(ca.random_grid(n, 0.5, seed))

    @given(st.integers(0, 5_000), st.sampled_from([0.1, 0.5, 0.9]))
    @settings(max_examples=50, deadline=None)
    def test_index_map_build_equals_the_composed_factors_n8(self, seed,
                                                             density):
        self.assert_equals_composed_reference(ca.random_grid(8, density, seed))

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_is_a_signed_permutation(self, n):
        """One bit per row, and the rows cover every column: a permutation
        matrix plus a bias."""
        for seed in range(3):
            op = build_full_step_operator(ca.random_grid(n, 0.5, seed))
            assert all(row.bit_count() == 1 for row in op.rows)
            assert {row.bit_length() - 1 for row in op.rows} == \
                set(range(op.dim))

    def test_does_not_read_the_block_table(self, monkeypatch):
        """The operator derives the rule from live counts: with
        ca.BLOCK_TABLE patched to the identity it still gives the
        evolution computed before the patch."""
        g = ca.random_grid(8, 0.5, 7)
        want = vectorize_zigzag(ca.evolve(g, 2)[-1])
        assert not np.array_equal(want, vectorize_zigzag(g))
        monkeypatch.setattr(ca, "BLOCK_TABLE",
                            np.arange(16, dtype=ca.BLOCK_TABLE.dtype))
        op = build_full_step_operator(g)
        assert np.array_equal(apply_operator(op, vectorize_zigzag(g)), want)

    def test_wrap_permutation_itself_is_built_per_call(self):
        assert build_wrap_permutation(4) is not build_wrap_permutation(4)

    def test_rows_past_bit_63_are_python_ints(self):
        """Rows come from a cached table of single-bit ints: row i is the
        Python int 1 << src[i], far past 63 bits at dim 1024."""
        src = np.random.default_rng(5).permutation(1024)
        for _ in range(2):
            op = linops._operator(src, 0)
            assert all(type(row) is int for row in op.rows)
            assert op.rows == tuple(1 << int(s) for s in src)
        assert max(op.rows).bit_length() == 1024
        w = build_wrap_permutation(32)
        assert w.rows == tuple(1 << int(s) for s in linops._wrap_source(32))

    @pytest.mark.parametrize("n", [2, 4, 32])
    def test_cached_sources_are_read_only(self, n):
        w, w_inv = linops._wrap_source(n), linops._unwrap_source(n)
        assert np.array_equal(w[w_inv], np.arange(n * n))
        assert np.array_equal(w_inv[w], np.arange(n * n))
        for cached in (w, w_inv, linops._unit_rows(n * n)):
            assert not cached.flags.writeable
            with pytest.raises(ValueError):
                cached[0] = cached[1]
        assert linops._unwrap_source(n) is w_inv


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

    @pytest.mark.parametrize("dim", [1, 7, 8, 64, 1024])
    def test_layout_matches_a_per_bit_reference(self, dim):
        rng = np.random.default_rng(dim)

        def draw():
            # Some bits above dim too: only the low dim bits are written.
            return int.from_bytes(rng.bytes(dim // 8 + 2), "little")

        def bits(value):
            return "".join("1" if (value >> c) & 1 else "0"
                           for c in range(dim))
        op = AffineOperator(dim, tuple(draw() for _ in range(dim)), draw())
        want = [str(dim), *map(bits, (*op.rows, op.bias))]
        assert format_operator(op) == "\n".join(want) + "\n"

    @pytest.mark.parametrize("text", ["", " \n\n"])
    def test_empty_text_rejected(self, text):
        with pytest.raises(OperatorFormatError, match="empty"):
            parse_operator(text)

    @pytest.mark.parametrize("text", ["x\n10\n11\n01\n", "2.0\n10\n11\n01\n",
                                      "9" * 5000 + "\n"])
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
