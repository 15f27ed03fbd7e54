"""Lowering networks in block form to affine stages with ReLU markers."""

import tracemalloc

import numpy as np
import pytest

from blockca.ca import (Direction, EdgeMode, Phase, blocks_from_codes,
                        map_blocks, random_grid, random_grids)
from blockca.learn import (
    TrainConfig,
    TrainingDiverged,
    apply_model_binary,
    block_form,
    build_model,
    generate_dataset,
    tabulate,
    train,
)
from blockca.learn.witness import (
    binarize_stages,
    lower_network,
    single_step_witness,
    two_step_witness,
    witness_logits,
)
from blockca.linops import vectorize_zigzag
from blockca.nn import (
    ConvLayer,
    DeconvLayer,
    Network,
    Pad1Layer,
    ReLULayer,
    SigmoidLayer,
)

VARIANTS = [
    (Phase.ALIGNED, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.TORUS_WRAP),
    (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP),
]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _grids(n, count, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_grid(n, 0.5, rng) for _ in range(count)])


def _layer_matrix(layer, n):
    """Matrix of a parameter-free layer on (1, n, n) inputs, probed on the
    standard basis (identity for None)."""
    if layer is None:
        return np.eye(n * n)
    images = layer.forward(np.eye(n * n).reshape(n * n, 1, n, n))[0]
    return images.reshape(n * n, -1).T


@pytest.mark.parametrize("phase,edge", VARIANTS)
@pytest.mark.parametrize("bypass", [False, True])
def test_lowered_stages_reproduce_network_probabilities(phase, edge, bypass):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=23)
    stages = lower_network(net)
    for n in (4, 8):
        x = _grids(n, 6, 29)
        z = map_blocks(x.astype(np.float64), *block_form(net)[0],
                       lambda rows: witness_logits(stages, rows))
        probs = net.forward(x[:, None].astype(np.float64))[0][:, 0]
        # the trailing geometry acts on logits; it commutes with the sigmoid
        assert np.abs(_sigmoid(z) - probs).max() <= 1e-10


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("phase,edge", VARIANTS)
@pytest.mark.parametrize("bypass", [False, True])
def test_block_stages_expand_to_whole_grid_chain(phase, edge, bypass, n):
    """P^T (I_blocks (x) f) P as explicit n*n-sized matrices: the lead map,
    the zigzag (block-major) permutation, kron(I, M) per affine stage with
    tiled biases, ReLU, then the inverse zigzag and the trailing map."""
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=37)
    # P and P^T are the network's own geometry layers, not ca's frames.
    lead, trail = (net.layers[0], net.layers[-1]) \
        if phase is Phase.OFFSET else (None, None)
    m = n + 2 if isinstance(lead, Pad1Layer) else n
    zigzag = np.stack([vectorize_zigzag(e.reshape(m, m))
                       for e in np.eye(m * m, dtype=np.uint8)], axis=1)
    blocks = m * m // 4
    stages = lower_network(net)
    chain = [("affine", zigzag @ _layer_matrix(lead, n), np.zeros(m * m))]
    for stage in stages:
        if stage[0] == "affine":
            _, mat, bias = stage
            stage = ("affine", np.kron(np.eye(blocks), mat),
                     np.tile(bias, blocks))
        chain.append(stage)
    chain.append(("affine", _layer_matrix(trail, m) @ zigzag.T,
                  np.zeros(n * n)))
    assert {s[0] for s in chain} == {"affine", "relu"}
    x = _grids(n, 6, 41).astype(np.float64)
    dense = witness_logits(chain, x.reshape(6, -1))
    block = map_blocks(x, *block_form(net)[0],
                       lambda rows: witness_logits(stages, rows))
    block = block.reshape(6, -1)
    assert np.abs(dense - block).max() <= 1e-10
    assert np.array_equal((dense >= 0.0).reshape(6, n, n),
                          single_step_witness(net, x))


# Every code once in the aligned blocks, and again in the torus offset
# blocks of the rolled copy.
_CODES = blocks_from_codes(np.arange(16).reshape(4, 4))
ALL_CODES = np.stack([_CODES, np.roll(_CODES, (1, 1), axis=(0, 1))])


@pytest.mark.parametrize("phase,edge", VARIANTS)
@pytest.mark.parametrize("bypass", [False, True])
def test_single_step_witness_on_every_code(phase, edge, bypass):
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=101)
    # Untrained 16-code logits lie on one side of 0; centre them.
    block_form(net)[1][-2].kernel.bias[:] -= np.median(tabulate(net).logits)
    want = apply_model_binary(net, ALL_CODES)
    assert 0 < want.mean() < 1
    assert np.array_equal(single_step_witness(net, ALL_CODES), want)


def test_every_stage_is_affine_or_relu():
    for bypass, shapes in [(False, [(16, 4), (32, 16), (4, 32)]),
                           (True, [(16, 4), (16, 16), (32, 16), (4, 32)])]:
        net = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, bypass, seed=31)
        stages = lower_network(net)
        assert {s[0] for s in stages} <= {"affine", "relu"}
        assert sum(1 for s in stages if s[0] == "relu") == \
            (1 if bypass else 2)
        # one block's maps, whatever the grid size
        assert [s[1].shape for s in stages if s[0] == "affine"] == shapes
        assert [s[2].shape for s in stages if s[0] == "affine"] == \
            [(rows,) for rows, _ in shapes]


def test_binarize_stages_clamp_to_exact_bits():
    stages = binarize_stages(4, alpha=10.0)
    z = np.array([[-3.0, -0.2, 0.2, 5.0]])
    out = witness_logits(stages, z)
    assert out.tolist() == [[0.0, 0.0, 1.0, 1.0]]
    assert {s[0] for s in stages} <= {"affine", "relu"}


def _block_local_stem():
    rng = np.random.default_rng(0)
    return [ConvLayer.create(rng, 1, 2, 2, 2), ReLULayer(),
            DeconvLayer.create(rng, 2, 1, 2, 2)]


def test_network_without_sigmoid_head_rejected():
    with pytest.raises(ValueError,
                       match=r"layer 2 \(deconv\) is not the head"):
        lower_network(Network(_block_local_stem()))


class _UnknownLayer:
    kind = "mystery"


@pytest.mark.parametrize("tail,message", [
    ([SigmoidLayer(), Pad1Layer()], "layer 4 (pad1) is not block-local"),
    ([SigmoidLayer(), ReLULayer()], "layer 3 (sigmoid) is not the head"),
    ([SigmoidLayer(), _UnknownLayer()],
     "layer 4 (mystery) is not block-local"),
    ([_UnknownLayer(), SigmoidLayer()],
     "layer 3 (mystery) is not block-local"),
    ([SigmoidLayer(), SigmoidLayer()], "layer 3 (sigmoid) is not the head"),
])
def test_unlowerable_stacks_rejected(tail, message):
    net = Network([*_block_local_stem(), *tail])
    with pytest.raises(ValueError) as excinfo:
        lower_network(net)
    assert message in str(excinfo.value)


@pytest.mark.parametrize("phase,edge", VARIANTS)
def test_single_step_witness_of_empty_stack_is_empty(phase, edge):
    net = build_model(phase, edge, seed=43)
    out = single_step_witness(net, np.zeros((0, 8, 8)))
    assert out.shape == (0, 8, 8) and out.dtype == np.uint8


@pytest.mark.parametrize("phase,edge", VARIANTS[1:])
def test_two_step_witness_of_empty_stack_is_empty(phase, edge):
    net_aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=47)
    net_offset = build_model(phase, edge, seed=53)
    out, margin = two_step_witness(net_aligned, net_offset,
                                   np.zeros((0, 8, 8)))
    assert out.shape == (0, 8, 8) and out.dtype == np.uint8
    assert margin == np.abs(tabulate(net_aligned).logits).min() > 0


def test_two_step_witness_clamps_at_the_16_code_margin():
    """All-zero grids hold code 0 only, yet the clamp scale is the aligned
    network's margin over all 16 codes, which is smaller here."""
    net_aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=47)
    net_offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=53)
    logits = tabulate(net_aligned).logits
    grids = np.zeros((3, 8, 8), np.uint8)
    got, margin = two_step_witness(net_aligned, net_offset, grids)
    assert margin == np.abs(logits).min() < np.abs(logits[0]).min()
    assert np.array_equal(got, apply_model_binary(
        net_offset, apply_model_binary(net_aligned, grids)))


def test_zero_16_code_margin_has_no_clamp_scale():
    net_aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=47)
    for param, _ in net_aligned.parameters():
        param[...] = 0.0
    net_offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=53)
    with pytest.raises(ValueError, match="no clamp scale exists"):
        two_step_witness(net_aligned, net_offset, random_grids(3, 8, 0.5, 0))


def test_clamp_that_loses_a_bit_raises():
    """Logits -0.5 (code bit TL clear) and 2^60 (set): the clamp scale
    2 / 0.5 takes 2^60 to u = 2^62, where u - 1 rounds to u, so the clamp
    gives 0 for a positive logit."""
    rng = np.random.default_rng(0)
    encode = ConvLayer.create(rng, 1, 1, 2, 2)
    encode.kernel.weights[...] = [[[[1.0, 0.0], [0.0, 0.0]]]]
    encode.kernel.bias[...] = 0.0
    decode = DeconvLayer.create(rng, 1, 1, 2, 2)
    decode.kernel.weights[...] = 2.0 ** 60
    decode.kernel.bias[...] = -0.5
    net_aligned = Network([encode, decode, SigmoidLayer()])
    logits = tabulate(net_aligned).logits
    assert np.abs(logits).max() > 2.0 ** 53 * np.abs(logits).min()
    net_offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=53)
    with pytest.raises(ValueError, match="does not give exact bits"):
        two_step_witness(net_aligned, net_offset, ALL_CODES)


def _stage_loop(stages, x):
    """All rows through every stage: the reference for witness_logits."""
    for stage in stages:
        if stage[0] == "affine":
            _, mat, bias = stage
            x = x @ mat.T + bias
        else:
            x = np.maximum(x, 0.0)
    return x


def _assert_matches_loop(stages, x):
    before = x.copy()
    got = witness_logits(stages, x)
    want = _stage_loop(stages, x)
    assert np.array_equal(x, before)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-12
    assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("rows", [0, 1, 2047, 2048, 2049, 4099])
@pytest.mark.parametrize("bypass", [False, True])
def test_witness_logits_matches_the_stage_loop(rows, bypass):
    stages = lower_network(build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP,
                                       bypass_endpoints=bypass, seed=61))
    x = np.random.default_rng(rows).normal(size=(rows, 4))
    _assert_matches_loop(stages, x)


def test_witness_logits_of_one_vector():
    stages = lower_network(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                                       seed=67))
    x = np.array([1.0, 0.0, 1.0, 1.0])
    assert witness_logits(stages, x).shape == (4,)
    _assert_matches_loop(stages, x)


@pytest.mark.parametrize("rows", [3, 4099])
def test_leading_relu_leaves_the_input_unchanged(rows):
    """A first ReLU must not clip the caller's array in place, with or
    without affine stages after it."""
    lowered = lower_network(build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP,
                                        seed=71))
    x = np.random.default_rng(73).normal(size=(rows, 4))
    for stages in ([("relu",), *lowered], [("relu",)], [("relu",)] * 2, []):
        _assert_matches_loop(stages, x)


@pytest.fixture(scope="module")
def trained_nets():
    """One briefly trained network per partition: far from exact, so their
    outputs on random grids are neither all 0 nor all 1."""
    nets = []
    for i, (phase, edge) in enumerate(VARIANTS):
        data = generate_dataset(8, 400, Direction.FORWARD, phase, edge,
                                seed=70 + i)
        _, net = train(build_model(phase, edge, seed=80 + i), data,
                       TrainConfig(epochs=6, batch_size=16, seed=90 + i),
                       0.25)
        nets.append(net)
    return nets


SPANNING = random_grids(80, 16, 0.5, 59)


@pytest.mark.parametrize("index", range(len(VARIANTS)))
def test_single_step_witness_of_trained_nets(trained_nets, index):
    net = trained_nets[index]
    want = apply_model_binary(net, SPANNING)
    assert 0 < want.mean() < 1
    assert np.array_equal(single_step_witness(net, SPANNING), want)


@pytest.mark.parametrize("index", [1, 2])
def test_two_step_witness_of_trained_nets(trained_nets, index):
    aligned, offset = trained_nets[0], trained_nets[index]
    want = apply_model_binary(offset, apply_model_binary(aligned, SPANNING))
    assert 0 < want.mean() < 1
    got, margin = two_step_witness(aligned, offset, SPANNING)
    assert margin > 0 and np.array_equal(got, want)


def _poisoned(phase, edge, seed, value):
    """A build_model network with one encode weight set to `value`."""
    net = build_model(phase, edge, seed=seed)
    block_form(net)[1][0].kernel.weights[0, 0, 0, 0] = value
    return net


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_single_step_logits_raise(value):
    net = _poisoned(Phase.ALIGNED, EdgeMode.TORUS_WRAP, 1, value)
    grids = random_grids(3, 8, 0.5, 0)
    # inf * 0 warns inside the matmul; the raise is what is checked.
    with np.errstate(invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="non-finite"):
            single_step_witness(net, grids)
        with pytest.raises(TrainingDiverged):
            apply_model_binary(net, grids)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_two_step_logits_raise(value):
    grids = random_grids(3, 8, 0.5, 0)
    aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=1)
    offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=2)
    bad_aligned = _poisoned(Phase.ALIGNED, EdgeMode.TORUS_WRAP, 1, value)
    bad_offset = _poisoned(Phase.OFFSET, EdgeMode.TORUS_WRAP, 2, value)
    two_step_witness(aligned, offset, grids)
    # tabulate checks the aligned logits before the margin is taken,
    # _code_logits checks the offset logits before they are thresholded.
    for first, second in [(bad_aligned, offset), (aligned, bad_offset)]:
        with np.errstate(invalid="ignore"), \
                pytest.raises(TrainingDiverged, match="non-finite"):
            two_step_witness(first, second, grids)


def test_two_step_witness_peak_memory_is_a_few_stacks():
    """The stages run on 16 rows and the grids are read as uint8 codes, so
    the traced peak stays within 8 float64 copies of the stack; running
    every stage over all 64000 block rows at once peaks near 24 copies."""
    grids = random_grids(1000, 16, 0.5, 83)
    aligned = build_model(Phase.ALIGNED, EdgeMode.TORUS_WRAP, seed=89)
    offset = build_model(Phase.OFFSET, EdgeMode.TORUS_WRAP, seed=97)
    tracemalloc.start()
    try:
        two_step_witness(aligned, offset, grids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * grids.size * 8
