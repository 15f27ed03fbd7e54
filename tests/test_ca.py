"""Core automaton: block table, stepping, reversibility, grid text format."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockca import ca
from blockca.ca import Direction, EdgeMode, GridFormatError, Phase


def oracle_block(bits):
    """Independent restatement of the per-block rule on (a, b, c, d) tuples."""
    count = sum(bits)
    if count == 2:
        return tuple(bits)
    flipped = tuple(1 - v for v in bits)
    if count == 3:
        return flipped[::-1]
    return flipped


def code_to_bits(code):
    return tuple((code >> k) & 1 for k in range(4))


def bits_to_code(bits):
    return bits[0] + 2 * bits[1] + 4 * bits[2] + 8 * bits[3]


# Every (phase, edge, direction) a step is defined for.
STEP_CASES = [(phase, edge, direction)
              for phase in Phase for edge in EdgeMode for direction in Direction
              if direction is Direction.FORWARD or edge is EdgeMode.TORUS_WRAP]


def step_fn(direction):
    return ca.step if direction is Direction.FORWARD else ca.inverse_step


def stack_with_one_cell_set(value):
    grids = np.zeros((3, 4, 4), dtype=np.uint8)
    grids[2, 1, 3] = value
    return grids


def all_4x4_grids():
    """The 65536 binary 4x4 grids; bit k of index c is cell k of grid c."""
    codes = np.arange(2 ** 16)[:, None]
    return ((codes >> np.arange(16)) & 1).astype(np.uint8).reshape(-1, 4, 4)


# The three partitions a step can act on.
PARTITIONS = [(Phase.ALIGNED, EdgeMode.TORUS_WRAP),
              (Phase.OFFSET, EdgeMode.TORUS_WRAP),
              (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)]


def reference_step(grids, phase, edge, direction):
    """The rule restated on cell arrays, framed by hand.

    Count 2 keeps a block and other counts flip it; forward, count 3 also
    rotates it 180 degrees, and backward count 1 does (the image of a
    count-3 block).  The offset partition is made aligned by a (-1, -1)
    torus roll or by np.pad, and put back after.
    """
    g = grids
    if phase is Phase.OFFSET:
        g = np.roll(g, (-1, -1), axis=(-2, -1)) \
            if edge is EdgeMode.TORUS_WRAP \
            else np.pad(g, [(0, 0)] * (g.ndim - 2) + [(1, 1), (1, 1)])
    m = g.shape[-1]
    # Axes (..., block row, row in block, block column, column in block).
    q = g.reshape(*g.shape[:-2], m // 2, 2, m // 2, 2)
    count = q.sum(axis=(-3, -1), keepdims=True)
    out = np.where(count == 2, q, 1 - q)
    rotated = 3 if direction is Direction.FORWARD else 1
    out = np.where(count == rotated, out[..., ::-1, :, ::-1], out)
    out = out.reshape(g.shape).astype(np.uint8)
    if phase is Phase.OFFSET:
        out = np.roll(out, (1, 1), axis=(-2, -1)) \
            if edge is EdgeMode.TORUS_WRAP else out[..., 1:-1, 1:-1]
    return out


class TestBlockTransform:
    def test_matches_bruteforce_oracle_on_all_codes(self):
        for code in range(16):
            expected = bits_to_code(oracle_block(code_to_bits(code)))
            assert ca.BLOCK_TABLE[code] == expected

    def test_table_is_permutation(self):
        assert sorted(ca.BLOCK_TABLE.tolist()) == list(range(16))

    def test_count_two_codes_are_fixed_points(self):
        for code in range(16):
            if bin(code).count("1") == 2:
                assert ca.BLOCK_TABLE[code] == code

    def test_known_examples(self):
        # (0,1,1,0) count 2 unchanged; all-dead flips to all-live;
        # (1,1,1,0) flips to (0,0,0,1) then rotates 180 to (1,0,0,0).
        table = ca.BLOCK_TABLE
        assert table[bits_to_code((0, 1, 1, 0))] == bits_to_code((0, 1, 1, 0))
        assert table[0] == 15
        assert table[bits_to_code((1, 1, 1, 0))] == bits_to_code((1, 0, 0, 0))

    def test_inverse_examples(self):
        inverse = ca.INVERSE_BLOCK_TABLE
        assert inverse[bits_to_code((0, 1, 1, 0))] == \
            bits_to_code((0, 1, 1, 0))
        assert inverse[15] == 0
        assert inverse[bits_to_code((1, 0, 0, 0))] == \
            bits_to_code((1, 1, 1, 0))

    def test_inverse_composes_to_identity(self):
        assert np.array_equal(ca.INVERSE_BLOCK_TABLE[ca.BLOCK_TABLE],
                              np.arange(16))

    @pytest.mark.parametrize("fn,table", [
        (ca.step, ca.BLOCK_TABLE),
        (ca.inverse_step, ca.INVERSE_BLOCK_TABLE),
    ])
    def test_stack_of_all_codes_steps_through_the_table(self, fn, table):
        # One 2x2 grid per block code, all 16 stepped in one call.
        blocks = np.array([code_to_bits(c) for c in range(16)],
                          dtype=np.uint8).reshape(16, 2, 2)
        out = fn(blocks, Phase.ALIGNED).reshape(16, 4)
        assert [bits_to_code(tuple(b)) for b in out] == table.tolist()


class TestBlockCodes:
    def test_every_code_round_trips_through_its_block(self):
        codes = np.arange(16, dtype=np.uint8).reshape(16, 1, 1)
        blocks = ca.blocks_from_codes(codes)
        assert blocks.shape == (16, 2, 2) and blocks.dtype == np.uint8
        for code in range(16):
            a, b, c, d = code_to_bits(code)
            assert blocks[code].tolist() == [[a, b], [c, d]]
        assert np.array_equal(ca.block_codes(blocks), codes)
        assert np.array_equal(ca.ALL_BLOCKS, blocks)

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_stack_round_trips(self, n):
        grids = ca.random_grids(6, n, 0.5, n).reshape(2, 3, n, n)
        codes = ca.block_codes(grids)
        assert codes.shape == (2, 3, n // 2, n // 2)
        assert codes.dtype == np.uint8 and codes.max() <= 15
        assert np.array_equal(ca.blocks_from_codes(codes), grids)
        assert codes[1, 2, 0, 0] == bits_to_code(
            grids[1, 2, :2, :2].ravel().tolist())

    def test_odd_sides_rejected(self):
        with pytest.raises(ValueError):
            ca.block_codes(np.zeros((2, 3), dtype=np.uint8))


class TestFrames:
    @pytest.mark.parametrize("phase,edge", PARTITIONS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_from_frame_undoes_to_frame_on_every_4x4_grid(self, phase, edge,
                                                          dtype):
        grids = all_4x4_grids().astype(dtype)
        frame = ca.to_frame(grids, phase, edge)
        back = ca.from_frame(frame, phase, edge)
        assert frame.dtype == back.dtype == dtype
        assert np.array_equal(back, grids)

    @pytest.mark.parametrize("edge", list(EdgeMode))
    def test_offset_frame_moves_cells_by_plus_one(self, edge):
        grids = ca.random_grids(5, 6, 0.5, 3)
        frame = ca.to_frame(grids, Phase.OFFSET, edge)
        # The offset block at rows and columns 1..2 lands at 2..3.
        assert np.array_equal(frame[:, 2:4, 2:4], grids[:, 1:3, 1:3])
        if edge is EdgeMode.TORUS_WRAP:
            assert np.array_equal(frame[:, 0, 0], grids[:, -1, -1])
        else:
            assert frame.shape == (5, 8, 8)
            ring = np.ones((8, 8), dtype=bool)
            ring[1:-1, 1:-1] = False
            assert not frame[:, ring].any()

    def test_aligned_frame_is_the_grid(self):
        grids = ca.random_grids(3, 4, 0.5, 5)
        assert ca.to_frame(grids, Phase.ALIGNED, EdgeMode.ZERO_PAD_CROP) \
            is grids

    @pytest.mark.parametrize("phase,edge", PARTITIONS)
    def test_apply_rule_reads_its_table(self, phase, edge):
        grids = ca.random_grids(20, 8, 0.5, 9)
        identity = np.arange(16, dtype=np.uint8)
        assert np.array_equal(ca.apply_rule(grids, phase, edge, identity),
                              grids)
        assert np.array_equal(
            ca.apply_rule(grids, phase, edge, ca.BLOCK_TABLE),
            ca.step(grids, phase, edge))


class TestMapBlocks:
    """map_blocks on every 4x4 grid, in every partition."""

    @pytest.mark.parametrize("phase,edge", PARTITIONS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.float64])
    def test_identity_rows_return_the_input(self, phase, edge, dtype):
        grids = all_4x4_grids().astype(dtype).reshape(16, 4096, 4, 4)
        out = ca.map_blocks(grids, phase, edge, lambda rows: rows)
        assert out.dtype == dtype
        assert np.array_equal(out, grids)

    @pytest.mark.parametrize("phase,edge", PARTITIONS)
    def test_output_dtype_follows_fn(self, phase, edge):
        grids = all_4x4_grids()
        out = ca.map_blocks(grids, phase, edge, lambda rows: rows * 0.5)
        assert out.dtype == np.float64
        assert np.array_equal(out, grids * 0.5)

    @pytest.mark.parametrize("phase,edge", PARTITIONS)
    def test_block_table_rows_give_the_step(self, phase, edge):
        # Row (TL, TR, BL, BR) has code TL + 2 TR + 4 BL + 8 BR; its image
        # is the row of bits of BLOCK_TABLE at that code.
        def rule(rows):
            image = ca.BLOCK_TABLE[rows @ (1 << np.arange(4))]
            return ((image[:, None] >> np.arange(4)) & 1).astype(np.uint8)
        grids = all_4x4_grids()
        out = ca.map_blocks(grids, phase, edge, rule)
        assert out.dtype == np.uint8
        assert np.array_equal(out, ca.step(grids, phase, edge))


class TestStep:
    @pytest.mark.parametrize("phase,edge,direction", STEP_CASES)
    @pytest.mark.parametrize("grids", [
        all_4x4_grids, lambda: ca.random_grids(200, 16, 0.5, 2024)],
        ids=["every-4x4", "seeded-16x16"])
    def test_matches_reference_framing(self, phase, edge, direction, grids):
        x = grids()
        got = step_fn(direction)(x, phase, edge)
        assert got.dtype == np.uint8
        assert np.array_equal(got, reference_step(x, phase, edge, direction))

    def test_all_dead_flips_to_all_live(self):
        dead = np.zeros((4, 4), dtype=np.uint8)
        assert (ca.step(dead) == 1).all()

    def test_all_live_flips_to_all_dead(self):
        live = np.ones((4, 4), dtype=np.uint8)
        assert (ca.step(live) == 0).all()

    def test_count_two_block_kept_others_flip(self):
        g = np.zeros((4, 4), dtype=np.uint8)
        g[0, 0] = g[0, 1] = 1
        out = ca.step(g)
        expected = np.ones((4, 4), dtype=np.uint8)
        expected[0, 0] = expected[0, 1] = 1
        expected[1, 0] = expected[1, 1] = 0
        assert np.array_equal(out, expected)

    def test_rejects_odd_side(self):
        with pytest.raises(ValueError):
            ca.step(np.zeros((3, 3), dtype=np.uint8))

    def test_rejects_non_binary_cells(self):
        with pytest.raises(ValueError):
            ca.step(np.full((4, 4), 2, dtype=np.uint8))

    @pytest.mark.parametrize("phase,edge,direction", STEP_CASES)
    @pytest.mark.parametrize("lead", [(), (5,), (2, 3), (0,)])
    def test_stack_matches_stacked_single_grids(self, phase, edge, direction,
                                                lead):
        fn = step_fn(direction)
        rng = np.random.default_rng(len(lead))
        grids = (rng.random((*lead, 6, 6)) < 0.5).astype(np.uint8)
        want = np.array([fn(g, phase, edge) for g in grids.reshape(-1, 6, 6)],
                        dtype=np.uint8).reshape(grids.shape)
        got = fn(grids, phase, edge)
        assert got.dtype == np.uint8
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("phase", list(Phase))
    def test_inverse_undoes_step_on_every_4x4_grid(self, phase):
        codes = np.arange(2 ** 16)[:, None]
        grids = ((codes >> np.arange(16)) & 1).astype(np.uint8)
        grids = grids.reshape(-1, 4, 4)
        assert np.array_equal(ca.inverse_step(ca.step(grids, phase), phase),
                              grids)

    @pytest.mark.parametrize("fn", [ca.step, ca.inverse_step,
                                    ca.validate_grids])
    @pytest.mark.parametrize("grids", [
        stack_with_one_cell_set(2),
        np.zeros((3, 4, 6), dtype=np.uint8),
        np.zeros((3, 5, 5), dtype=np.uint8),
        np.zeros(4, dtype=np.uint8),
    ], ids=["one-non-binary-cell", "non-square", "odd-side", "one-axis"])
    def test_rejects_malformed_stacks(self, fn, grids):
        with pytest.raises(ValueError):
            fn(grids)

    def test_validate_grid_rejects_a_stack(self):
        with pytest.raises(ValueError):
            ca.validate_grid(np.zeros((1, 4, 4), dtype=np.uint8))

    def test_offset_pad_matches_manual_padding(self):
        g = ca.random_grid(6, 0.5, 12)
        padded = np.pad(g, 1)
        manual = ca.step(padded, Phase.ALIGNED)[1:-1, 1:-1]
        assert np.array_equal(ca.step(g, Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
                              manual)

    def test_fixed_point_grid_of_count_two_blocks(self):
        stripes = np.zeros((4, 4), dtype=np.uint8)
        stripes[:, 0] = stripes[:, 2] = 1  # every block holds two live cells
        for phase in Phase:
            assert np.array_equal(ca.step(stripes, phase), stripes)

    @given(st.sampled_from([4, 8, 16]), st.integers(0, 10_000),
           st.sampled_from(list(Phase)))
    @settings(max_examples=120, deadline=None)
    def test_inverse_step_undoes_step_on_torus(self, n, seed, phase):
        g = ca.random_grid(n, 0.5, seed)
        assert np.array_equal(ca.inverse_step(ca.step(g, phase), phase), g)

    @given(st.sampled_from([4, 8]), st.integers(0, 10_000),
           st.sampled_from(list(Phase)), st.data())
    @settings(max_examples=60, deadline=None)
    def test_single_cell_change_stays_in_its_block(self, n, seed, phase, data):
        g = ca.random_grid(n, 0.5, seed)
        i = data.draw(st.integers(0, n - 1))
        j = data.draw(st.integers(0, n - 1))
        h = g.copy()
        h[i, j] ^= 1
        diff = ca.step(g, phase) != ca.step(h, phase)
        # Anchor of the 2x2 block containing (i, j) in this partition.
        shift = 0 if phase is Phase.ALIGNED else 1
        bi, bj = ((i - shift) % n) // 2, ((j - shift) % n) // 2
        rows = [(2 * bi + shift) % n, (2 * bi + 1 + shift) % n]
        cols = [(2 * bj + shift) % n, (2 * bj + 1 + shift) % n]
        outside = np.ones_like(diff, dtype=bool)
        for r in rows:
            for c in cols:
                outside[r, c] = False
        assert not diff[outside].any()

    def test_inverse_step_rejects_pad_mode(self):
        g = ca.random_grid(4, 0.5, 0)
        with pytest.raises(ValueError):
            ca.inverse_step(g, Phase.OFFSET, EdgeMode.ZERO_PAD_CROP)
        with pytest.raises(ValueError):
            ca.inverse_step(g, Phase.ALIGNED, EdgeMode.ZERO_PAD_CROP)


class TestEvolve:
    def test_zero_steps_echoes_start(self):
        g = ca.random_grid(4, 0.5, 3)
        traj = ca.evolve(g, 0)
        assert len(traj) == 1 and np.array_equal(traj[0], g)

    def test_all_dead_two_step_cycle(self):
        dead = np.zeros((4, 4), dtype=np.uint8)
        traj = ca.evolve(dead, 2)
        assert (traj[1] == 1).all()
        assert (traj[2] == 0).all()

    @given(st.sampled_from([4, 8, 16]), st.integers(0, 2_000),
           st.integers(0, 9))
    @settings(max_examples=60, deadline=None)
    def test_forward_then_backward_returns_start(self, n, seed, steps):
        g = ca.random_grid(n, 0.5, seed)
        forward = ca.evolve(g, steps)
        backward = ca.evolve(forward[-1], steps, direction=Direction.BACKWARD)
        assert np.array_equal(backward[-1], g)

    def test_trajectory_phases_alternate_from_aligned(self):
        g = ca.random_grid(8, 0.5, 9)
        traj = ca.evolve(g, 3)
        assert np.array_equal(traj[1], ca.step(g, Phase.ALIGNED))
        assert np.array_equal(traj[2], ca.step(traj[1], Phase.OFFSET))
        assert np.array_equal(traj[3], ca.step(traj[2], Phase.ALIGNED))

    @pytest.mark.parametrize("edge,direction", [
        (EdgeMode.TORUS_WRAP, Direction.FORWARD),
        (EdgeMode.ZERO_PAD_CROP, Direction.FORWARD),
        (EdgeMode.TORUS_WRAP, Direction.BACKWARD),
    ])
    def test_stack_trajectory_matches_single_trajectories(self, edge,
                                                          direction):
        rng = np.random.default_rng(14)
        grids = (rng.random((2, 3, 8, 8)) < 0.5).astype(np.uint8)
        traj = ca.evolve(grids, 3, edge, direction)
        for index in np.ndindex(2, 3):
            single = ca.evolve(grids[index], 3, edge, direction)
            for frame, want in zip(traj, single):
                assert np.array_equal(frame[index], want)

    def test_backward_rejects_pad_mode(self):
        g = ca.random_grid(4, 0.5, 0)
        with pytest.raises(ValueError):
            ca.evolve(g, 2, EdgeMode.ZERO_PAD_CROP, Direction.BACKWARD)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            ca.evolve(ca.random_grid(4, 0.5, 0), -1)


class TestRandomGrid:
    def test_density_zero_is_all_dead(self):
        assert (ca.random_grid(4, 0.0, 123) == 0).all()

    def test_density_one_is_all_live(self):
        assert (ca.random_grid(4, 1.0, 123) == 1).all()

    def test_same_seed_same_grid(self):
        assert np.array_equal(ca.random_grid(16, 0.5, 77),
                              ca.random_grid(16, 0.5, 77))

    def test_generator_stream_advances(self):
        rng = np.random.default_rng(0)
        a = ca.random_grid(8, 0.5, rng)
        b = ca.random_grid(8, 0.5, rng)
        assert not np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            ca.random_grid(5, 0.5, 0)
        with pytest.raises(ValueError):
            ca.random_grid(4, 1.5, 0)
        with pytest.raises(ValueError):
            ca.random_grids(-1, 4, 0.5, 0)

    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_stack_equals_successive_single_draws(self, count):
        rng = np.random.default_rng(21)
        want = [ca.random_grid(6, 0.3, rng) for _ in range(count)]
        got = ca.random_grids(count, 6, 0.3, 21)
        assert got.shape == (count, 6, 6) and got.dtype == np.uint8
        assert np.array_equal(got, np.array(want, dtype=np.uint8)
                              .reshape(count, 6, 6))

    @pytest.mark.parametrize("chunk", [1, 7, 64, 100, 1 << 16])
    @pytest.mark.parametrize("count,n", [(0, 4), (1, 2), (4, 4), (25, 8)])
    def test_bounded_draws_equal_one_draw(self, monkeypatch, chunk, count,
                                          n):
        monkeypatch.setattr(ca, "RANDOM_DRAW_CELLS", chunk)
        rng, ref = np.random.default_rng(23), np.random.default_rng(23)
        got = ca.random_grids(count, n, 0.4, rng)
        want = (ref.random((count, n, n)) < 0.4).astype(np.uint8)
        assert got.dtype == np.uint8 and np.array_equal(got, want)
        # The Generator is left where one draw would leave it.
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()


class TestValidateGrids:
    @pytest.mark.parametrize("cells", [
        np.array([[True, False], [False, True]]),
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([[-0.0, 1.0], [1, 0]], dtype=np.float32),
        np.array([[0, 1], [1, 1]], dtype=np.int64),
        np.zeros((3, 2, 2), dtype=np.uint8),
        np.zeros((0, 4, 4), dtype=np.uint8),
        np.zeros((0, 2, 2)),
    ])
    def test_binary_cells_accepted(self, cells):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ca.validate_grids(cells)
        assert got.dtype == np.uint8 and np.array_equal(got, cells)
        # A uint8 stack is returned as it is; any other dtype is copied.
        uint8 = cells.dtype == np.uint8
        assert (got is cells) == uint8
        # An empty array shares no memory, even with itself.
        assert np.shares_memory(got, cells) == (uint8 and cells.size > 0)

    @pytest.mark.parametrize("cell", [2, -1, 0.5, np.nan, np.inf, 255])
    def test_other_cells_rejected(self, cell):
        cells = np.zeros((2, 4, 4), dtype=np.asarray(cell).dtype)
        cells[1, 3, 2] = cell
        with pytest.raises(ValueError, match="0 or 1"):
            ca.validate_grids(cells)


@st.composite
def near_grid_text(draw):
    """Grid text whose header and rows are often, not always, well formed,
    so fuzzing reaches the row checks and the valid path."""
    n = draw(st.sampled_from([2, 4, 0, 1, 3]))
    good = st.text(alphabet="01", min_size=n, max_size=n)
    row = st.one_of(good, good, good, st.text(alphabet="012 \t", max_size=5))
    count = draw(st.sampled_from([n, n, n, max(n - 1, 0), n + 1]))
    rows = draw(st.lists(row, min_size=count, max_size=count))
    head = draw(st.sampled_from([str(n), str(n), f" {n} ", f"+{n}", "-2",
                                 "x", ""]))
    tail = draw(st.sampled_from(["", "\n", "\n\n", "\r\n"]))
    return "\n".join([head, *rows]) + tail


class TestGridText:
    def test_round_trip(self):
        g = ca.random_grid(6, 0.5, 4)
        assert np.array_equal(ca.parse_grid(ca.format_grid(g)), g)

    def test_format_layout(self):
        g = np.zeros((2, 2), dtype=np.uint8)
        g[0, 1] = 1
        assert ca.format_grid(g) == "2\n01\n00\n"

    def test_trajectory_round_trip(self):
        grids = ca.evolve(ca.random_grid(4, 0.5, 8), 3)
        parsed = ca.parse_trajectory(ca.format_trajectory(grids))
        assert len(parsed) == len(grids)
        for a, b in zip(parsed, grids):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("text", [
        "", "x\n00\n00", "2\n01\n0", "2\n01\n02", "3\n010\n000\n111",
        "2\n01",
    ])
    def test_bad_text_raises_format_error(self, text):
        with pytest.raises(GridFormatError):
            ca.parse_grid(text)

    @given(st.one_of(st.text(), near_grid_text()))
    @settings(max_examples=300, deadline=None)
    def test_any_text_is_rejected_or_round_trips(self, text):
        try:
            grid = ca.parse_grid(text)
        except GridFormatError:
            return
        assert np.array_equal(ca.parse_grid(ca.format_grid(grid)), grid)

    @given(st.one_of(st.text(), st.lists(near_grid_text(), max_size=3)
                     .map("\n\n".join)))
    @settings(max_examples=300, deadline=None)
    def test_any_trajectory_text_is_rejected_or_round_trips(self, text):
        try:
            grids = ca.parse_trajectory(text)
        except GridFormatError:
            return
        again = ca.parse_trajectory(ca.format_trajectory(grids))
        assert len(again) == len(grids)
        assert all(np.array_equal(a, b) for a, b in zip(again, grids))

    def test_file_round_trip(self, tmp_path):
        g = ca.random_grid(4, 0.5, 5)
        path = tmp_path / "grid.txt"
        path.write_text(ca.format_grid(g), encoding="ascii")
        assert np.array_equal(ca.read_grid(path), g)

    @pytest.mark.parametrize("read", [ca.read_grid, ca.read_trajectory])
    def test_non_ascii_file_is_a_format_error(self, tmp_path, read):
        path = tmp_path / "grid.txt"
        path.write_bytes(b"2\n01\n00\n\n2\n0\xe9\n00\n")
        with pytest.raises(GridFormatError, match="not ASCII"):
            read(path)
