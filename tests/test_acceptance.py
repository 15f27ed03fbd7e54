"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one ``[acceptance] criterion-NN ...: PASS/FAIL`` line (run
pytest with ``-s`` to see them live).  The training criteria share
module-scoped runs with pinned seeds; everything here is deterministic, so
reruns reproduce these results bit for bit.
"""

import sys
from types import SimpleNamespace

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from blockca import ca
from blockca.ca import Direction, EdgeMode, Phase
from blockca.linops import (
    KernelSpec,
    apply_operator,
    build_full_step_operator,
    conv_to_matrix,
    deconv_to_matrix,
    operator_is_invertible,
    vectorize_zigzag,
)
from blockca.nn import (
    conv_forward,
    deconv_forward,
    draw_input_with_margin,
    grad_check,
)
from blockca.learn import (
    TrainConfig,
    build_model,
    commute_experiment,
    exact_phase_step,
    generate_dataset,
    single_step_witness,
    train,
    two_step_witness,
    verify_commuting_solutions,
)
from blockca.learn.rollout import apply_model_binary, tabulate

GRID_N = 16
HOLDOUT = 1 / 9
DATASET_COUNT = 9000

SUPERVISED_SEEDS = {
    "aligned": (101, 202, 303),
    "offset_torus": (111, 212, 313),
    "offset_pad": (121, 222, 323),
    "backward": (131, 232, 333),
    "bypass": (141, 242, 343),
}
COMMUTE_RUNS = ((1001, 1008), (2002, 2009))
COMMUTE_CONFIG = dict(epochs=10, batch_size=32, count=4000, holdout=0.1)

ACCURACY_GATE = 0.999
EXACT_GATE = 0.99
PARITY_FACTOR = 2.0
COMMUTE_LOSS_FACTOR = 10.0
DISAGREEMENT_GATE = 0.01


def report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def supervised_run(direction, phase, edge, bypass, seeds):
    data_seed, model_seed, train_seed = seeds
    dataset = generate_dataset(GRID_N, DATASET_COUNT, direction, phase, edge,
                               seed=data_seed)
    net = build_model(phase, edge, bypass_endpoints=bypass, seed=model_seed)
    config = TrainConfig(seed=train_seed, bypass_endpoints=bypass)
    history, net = train(net, dataset, config, holdout_fraction=HOLDOUT)
    n_test = round(DATASET_COUNT * HOLDOUT)
    return SimpleNamespace(history=history, net=net, dataset=dataset,
                           holdout=dataset.inputs[-n_test:])


def run_commute(init_seed, data_seed):
    config = TrainConfig(epochs=COMMUTE_CONFIG["epochs"],
                         batch_size=COMMUTE_CONFIG["batch_size"],
                         seed=data_seed)
    history, net = commute_experiment(
        exact_phase_step(Phase.ALIGNED), init_seed, config, n=GRID_N,
        count=COMMUTE_CONFIG["count"],
        holdout_fraction=COMMUTE_CONFIG["holdout"])
    return SimpleNamespace(history=history, net=net)


@pytest.fixture(scope="module")
def aligned_forward():
    return supervised_run(Direction.FORWARD, Phase.ALIGNED,
                          EdgeMode.TORUS_WRAP, False,
                          SUPERVISED_SEEDS["aligned"])


@pytest.fixture(scope="module")
def offset_torus():
    return supervised_run(Direction.FORWARD, Phase.OFFSET,
                          EdgeMode.TORUS_WRAP, False,
                          SUPERVISED_SEEDS["offset_torus"])


@pytest.fixture(scope="module")
def offset_pad():
    return supervised_run(Direction.FORWARD, Phase.OFFSET,
                          EdgeMode.ZERO_PAD_CROP, False,
                          SUPERVISED_SEEDS["offset_pad"])


@pytest.fixture(scope="module")
def backward_aligned():
    return supervised_run(Direction.BACKWARD, Phase.ALIGNED,
                          EdgeMode.TORUS_WRAP, False,
                          SUPERVISED_SEEDS["backward"])


@pytest.fixture(scope="module")
def bypass_forward():
    return supervised_run(Direction.FORWARD, Phase.ALIGNED,
                          EdgeMode.TORUS_WRAP, True,
                          SUPERVISED_SEEDS["bypass"])


@pytest.fixture(scope="module")
def commute_runs():
    return [run_commute(*seeds) for seeds in COMMUTE_RUNS]


def test_criterion_01_block_bijectivity():
    table = [ca.block_transform(code) for code in range(16)]
    bijective = sorted(table) == list(range(16))
    fixed = all(ca.block_transform(c) == c
                for c in range(16) if bin(c).count("1") == 2)
    report("criterion-01 block-bijectivity", bijective and fixed,
           f"permutation={bijective}, count-2 fixed points={fixed}")


def test_criterion_02_reversibility():
    rng = np.random.default_rng(20_000)
    checked = 0
    exact = True
    for n in (4, 8, 16):
        for _ in range(1000):
            g = ca.random_grid(n, 0.5, rng)
            for phase in Phase:
                back = ca.inverse_step(ca.step(g, phase), phase)
                exact = exact and np.array_equal(back, g)
            checked += 1
    report("criterion-02 reversibility", exact,
           f"{checked} grids x both phases, inverse exact")


def test_criterion_03_operator_equivalence():
    rng = np.random.default_rng(30_000)
    grids = [ca.random_grid(8, 0.5, rng) for _ in range(100)]
    grids += [np.array([(code >> k) & 1 for k in range(4)],
                       dtype=np.uint8).reshape(2, 2) for code in range(16)]
    ok = True
    for g in grids:
        op = build_full_step_operator(g)
        got = apply_operator(op, vectorize_zigzag(g))
        want = vectorize_zigzag(ca.evolve(g, 2)[-1])
        ok = ok and np.array_equal(got, want) and operator_is_invertible(op)
    report("criterion-03 operator-equivalence", ok,
           "100 random 8x8 + exhaustive n=2, exact and invertible")


def test_criterion_04_conv_lowering():
    rng = np.random.default_rng(40_000)
    worst_conv = worst_deconv = worst_adjoint = 0.0
    for _ in range(20):
        co, ci = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        k = int(rng.choice([1, 2, 3]))
        s = int(rng.choice([1, 2]))
        h = k + s * int(rng.integers(1, 5))
        w = k + s * int(rng.integers(1, 5))
        kernel = KernelSpec(co, ci, k, k, s, rng.normal(size=(co, ci, k, k)),
                            rng.normal(size=co))
        x = rng.normal(size=(1, ci, h, w))
        mat, bias = conv_to_matrix(kernel, (ci, h, w))
        worst_conv = max(worst_conv, np.abs(
            mat @ x.ravel() + bias - conv_forward(kernel, x).ravel()).max())
        small = conv_forward(kernel, x).shape[1:]
        zero_k = KernelSpec(co, ci, k, k, s, kernel.weights, np.zeros(ci))
        y = rng.normal(size=(1, *small))
        dmat, dbias = deconv_to_matrix(zero_k, small)
        worst_deconv = max(worst_deconv, np.abs(
            dmat @ y.ravel() + dbias
            - deconv_forward(zero_k, y).ravel()).max())
        worst_adjoint = max(worst_adjoint, abs(
            np.sum(conv_forward(zero_k, x) * y)
            - np.sum(x * deconv_forward(zero_k, y))))
    ok = worst_conv <= 1e-10 and worst_deconv <= 1e-10 \
        and worst_adjoint <= 1e-8
    report("criterion-04 conv-lowering", ok,
           f"conv {worst_conv:.2e}, deconv {worst_deconv:.2e}, "
           f"adjoint {worst_adjoint:.2e}")


def test_criterion_05_gradient_correctness():
    worst = 0.0
    variants = [
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP, False),
        (Phase.OFFSET, EdgeMode.TORUS_WRAP, False),
        (Phase.OFFSET, EdgeMode.ZERO_PAD_CROP, False),
        (Phase.ALIGNED, EdgeMode.TORUS_WRAP, True),
    ]
    for phase, edge, bypass in variants:
        net = build_model(phase, edge, bypass_endpoints=bypass, seed=50)
        rng = np.random.default_rng(51)
        x = draw_input_with_margin(net, (2, 1, 4, 4), rng)
        target = np.stack(
            [ca.step((s[0] >= 0.5).astype(np.uint8), phase, edge)
             for s in x])[:, None].astype(np.float64)
        worst = max(worst, grad_check(net, x, target))
    report("criterion-05 gradient-correctness", worst <= 1e-4,
           f"max relative error {worst:.2e} over all layer kinds")


def _check_rule_gates(name, run):
    final = run.history.final
    ok = final.cell_accuracy >= ACCURACY_GATE \
        and final.exact_grid_rate >= EXACT_GATE
    report(name, ok,
           f"cell_accuracy={final.cell_accuracy:.6f}, "
           f"exact_grid_rate={final.exact_grid_rate:.4f}")


def test_criterion_06_forward_rule_learning(aligned_forward, offset_torus,
                                            offset_pad):
    _check_rule_gates("criterion-06 forward-learning-aligned",
                      aligned_forward)
    _check_rule_gates("criterion-06 forward-learning-offset-torus",
                      offset_torus)
    _check_rule_gates("criterion-06 forward-learning-offset-pad", offset_pad)


def test_criterion_07_backward_rule_learning(aligned_forward,
                                             backward_aligned):
    _check_rule_gates("criterion-07 backward-learning", backward_aligned)
    fwd = aligned_forward.history.final.test_loss
    bwd = backward_aligned.history.final.test_loss
    factor = max(fwd, bwd) / min(fwd, bwd)
    report("criterion-07 forward-backward-loss-parity",
           factor <= PARITY_FACTOR,
           f"fwd={fwd:.3e}, bwd={bwd:.3e}, factor={factor:.3f}")


def test_criterion_08_bypass_variant(bypass_forward):
    _check_rule_gates("criterion-08 bypass-variant", bypass_forward)


def test_criterion_09_composition_witness(aligned_forward, offset_torus):
    exact_rate = aligned_forward.history.final.exact_grid_rate
    report("criterion-09 witness-premise", exact_rate == 1.0,
           f"held-out exact_grid_rate={exact_rate}")
    # Each network maps every block of its partition by the block's code
    # alone, so a 16-code rule equal to the block rule is exact on every
    # grid of every even n >= 4.
    for name, run in [("aligned", aligned_forward),
                      ("offset-torus", offset_torus)]:
        rule = tabulate(run.net).rule
        wrong = np.flatnonzero(rule != ca.BLOCK_TABLE).tolist()
        report(f"criterion-09 {name}-exact-on-all-grids", wrong == [],
               f"16-code rule equals ca.BLOCK_TABLE; wrong codes {wrong}")
    grids = aligned_forward.holdout
    predicted = single_step_witness(aligned_forward.net, grids)
    want = np.stack([ca.step(g, Phase.ALIGNED) for g in grids])
    single_ok = np.array_equal(predicted, want)
    report("criterion-09 single-step-witness", single_ok,
           f"lowered matrices + ReLU reproduce the rule on all "
           f"{len(grids)} held-out grids")
    two_step, margin = two_step_witness(aligned_forward.net, offset_torus.net,
                                        grids)
    want2 = np.stack([ca.evolve(g, 2)[-1] for g in grids])
    two_ok = np.array_equal(two_step, want2)
    report("criterion-09 two-step-witness", two_ok,
           f"full-step evolution as one linear+ReLU chain "
           f"(logit margin {margin:.3f})")


def test_criterion_10_commute_nonuniqueness(aligned_forward, commute_runs):
    evolution = exact_phase_step(Phase.ALIGNED)
    candidates = [
        ("identity", lambda g: g),
        ("evolution", lambda g: ca.step(g, Phase.ALIGNED)),
        ("evolution-squared",
         lambda g: ca.step(ca.step(g, Phase.ALIGNED), Phase.ALIGNED)),
    ]
    cert = verify_commuting_solutions(candidates, trials=100, seed=555,
                                      evolution=evolution, n=GRID_N)
    report("criterion-10 nonuniqueness-certificate",
           cert.certified and len(cert.distinct_commuters) >= 2,
           f"distinct exact commuters: {cert.distinct_commuters}")

    baseline = aligned_forward.history.final.train_loss
    ratios = [run.history.final.train_loss / baseline for run in commute_runs]
    loss_ok = all(r >= COMMUTE_LOSS_FACTOR for r in ratios)
    report("criterion-10 commute-loss-gap", loss_ok,
           f"final commute losses at {ratios[0]:.1f}x and {ratios[1]:.1f}x "
           f"the supervised final training loss")

    rng = np.random.default_rng(777)
    probes = np.stack([ca.random_grid(GRID_N, 0.5, rng) for _ in range(100)])
    out_a = apply_model_binary(commute_runs[0].net, probes)
    out_b = apply_model_binary(commute_runs[1].net, probes)
    disagreement = float((out_a != out_b).mean())
    report("criterion-10 seed-disagreement",
           disagreement >= DISAGREEMENT_GATE,
           f"runs disagree on {100 * disagreement:.2f}% of output cells")


def test_criterion_11_determinism(tmp_path, aligned_forward, commute_runs):
    rerun = supervised_run(Direction.FORWARD, Phase.ALIGNED,
                           EdgeMode.TORUS_WRAP, False,
                           SUPERVISED_SEEDS["aligned"])
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    first.write_text(aligned_forward.history.to_csv())
    second.write_text(rerun.history.to_csv())
    train_ok = first.read_bytes() == second.read_bytes()
    report("criterion-11 determinism-training", train_ok,
           "criterion-06 rerun produced byte-identical CSV")

    commute_rerun = run_commute(*COMMUTE_RUNS[0])
    first.write_text(commute_runs[0].history.to_csv())
    second.write_text(commute_rerun.history.to_csv())
    commute_ok = first.read_bytes() == second.read_bytes()
    report("criterion-11 determinism-commute", commute_ok,
           "criterion-10 rerun produced byte-identical CSV")
