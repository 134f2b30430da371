"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line.  The two dataset reproductions and the sensitivity-trend check
need the real Adult/MNIST CSVs; point QMATCH_DATA_DIR at a directory holding
<name>/<name>.csv plus <name>/schema.json (see README) or they skip.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qmatch.augment import CorruptionConfig, make_views
from qmatch.baselines import (
    PrototypeBank,
    collision_probability,
    dino_proto_loss,
    in_batch_info_nce,
    mse_align_loss,
    tabnet_recon_loss,
    vime_pretext_loss,
)
from qmatch.cli import main as cli_main
from qmatch.data import (
    SplitSpec,
    fit_preprocess,
    load_csv,
    load_schema,
    make_splits,
    preset_split,
)
from qmatch.distill import (
    EmbeddingQueue,
    QMatchConfig,
    qmatch_loss,
    queue_init,
    teacher_entropy,
)
from qmatch.model import EncoderConfig, encoder_forward, init_params, projector_forward
from qmatch.tensor import (
    Tensor,
    backward,
    batch_norm_train,
    finite_difference_check,
    l2_normalize_rows,
    maxout_rows,
    relu,
    tmean,
)
from qmatch.train import TrainLoopConfig, finetune, grid_search, linear_eval, pretrain
from tests.conftest import make_fixture_dataset

TOL_GRAD = 1e-4
REDUCED_WIDTHS = (256, 256, 512, 512, 1024)


def report(criterion: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


def unit_rows(rng, n, d):
    z = rng.normal(size=(n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


# ----------------------------------------------------------------------------
# Criterion 1: gradient fidelity for every layer type and every loss.

def test_gradient_fidelity_all_layers_and_losses():
    rng = np.random.default_rng(0)
    start = time.monotonic()
    errors = {}

    w = Tensor(rng.normal(size=(8, 12)), requires_grad=True)
    b = Tensor(rng.normal(size=12), requires_grad=True)
    x = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    errors["affine"] = finite_difference_check(lambda: tmean(x @ w + b), [x, w, b])

    gamma = Tensor(np.abs(rng.normal(size=12)) + 0.5, requires_grad=True)
    beta = Tensor(rng.normal(size=12), requires_grad=True)
    errors["batchnorm"] = finite_difference_check(
        lambda: tmean(relu(batch_norm_train(x @ w + b, gamma, beta)[0])),
        [x, w, b, gamma, beta])

    errors["maxout"] = finite_difference_check(lambda: tmean(maxout_rows(x @ w, 4)), [x, w])
    errors["l2_normalize"] = finite_difference_check(
        lambda: tmean(l2_normalize_rows(x @ w)), [x, w])

    queue = queue_init(16, 5, np.random.default_rng(1))
    z_s = Tensor(unit_rows(rng, 4, 5), requires_grad=True)
    z_t = unit_rows(rng, 4, 5)
    errors["loss/distillation"] = finite_difference_check(
        lambda: qmatch_loss(z_s, Tensor(z_t), queue, QMatchConfig(queue_capacity=16)),
        [z_s])

    z1 = Tensor(unit_rows(rng, 4, 5), requires_grad=True)
    z2 = Tensor(unit_rows(rng, 4, 5), requires_grad=True)
    errors["loss/infonce"] = finite_difference_check(
        lambda: in_batch_info_nce(z1, z2, 0.2), [z1, z2])
    errors["loss/mse_align"] = finite_difference_check(
        lambda: mse_align_loss(z1, z2.data), [z1])

    bank = PrototypeBank(6, 5, np.random.default_rng(2))
    errors["loss/prototype"] = finite_difference_check(
        lambda: dino_proto_loss(z_s, z_t, bank, 0.1, 0.04, update_center=False), [z_s])

    x_raw = Tensor(rng.normal(size=(5, 6)))
    mask = (rng.random((5, 6)) < 0.4).astype(float)
    mask[0, 0] = 1.0
    mask_logits = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    recon = Tensor(rng.normal(size=(5, 6)), requires_grad=True)
    errors["loss/mask_recon"] = finite_difference_check(
        lambda: vime_pretext_loss(x_raw, mask, mask_logits, recon), [mask_logits, recon])
    errors["loss/masked_mse"] = finite_difference_check(
        lambda: tabnet_recon_loss(x_raw, mask, recon), [recon])

    config = EncoderConfig(input_dim=8, layer_widths=(16, 16), maxout_k=4,
                           projector_dim=6)
    params = init_params(config, seed=3)
    xin = Tensor(rng.normal(size=(6, 8)), requires_grad=True)
    errors["full_encoder"] = finite_difference_check(
        lambda: tmean(l2_normalize_rows(projector_forward(
            params, encoder_forward(params, xin, mode="train")))),
        [xin] + list(params.trainable().values()),
        step=1e-4)  # deeper graph: larger step keeps roundoff below truncation

    elapsed = time.monotonic() - start
    worst = max(errors, key=errors.get)
    report("gradient fidelity <= 1e-4 for all layers and losses",
           max(errors.values()) <= TOL_GRAD and elapsed < 60,
           f"worst {worst}={errors[worst]:.2e}, {elapsed:.1f}s")


# ----------------------------------------------------------------------------
# Criterion 2: distillation loss invariants.

def test_loss_invariants():
    rng = np.random.default_rng(7)
    config = QMatchConfig(tau_student=0.1, tau_teacher=0.04, queue_capacity=32)

    gibbs_ok = True
    worst_gap = np.inf
    for draw in range(100):
        queue = queue_init(32, 6, np.random.default_rng(draw))
        z_s = Tensor(unit_rows(rng, 8, 6), requires_grad=True)
        z_t = Tensor(unit_rows(rng, 8, 6))
        loss = float(qmatch_loss(z_s, z_t, queue, config).data)
        bound = teacher_entropy(z_t.data, queue, config.tau_teacher)
        gap = loss - bound
        worst_gap = min(worst_gap, gap)
        gibbs_ok &= gap >= -1e-9
    report("loss >= mean teacher entropy on 100 draws (1e-9)", gibbs_ok,
           f"min gap {worst_gap:.3e}")

    tiny = queue_init(1, 6, np.random.default_rng(0))
    z_s = Tensor(unit_rows(rng, 4, 6), requires_grad=True)
    z_t = Tensor(unit_rows(rng, 4, 6))
    loss1 = float(qmatch_loss(z_s, z_t, tiny, QMatchConfig(queue_capacity=1)).data)
    report("capacity-1 queue gives zero loss", abs(loss1) < 1e-9, f"loss={loss1:.2e}")

    queue = queue_init(32, 6, np.random.default_rng(0))
    z_s = Tensor(unit_rows(rng, 4, 6), requires_grad=True)
    z_t = Tensor(unit_rows(rng, 4, 6), requires_grad=True)
    backward(qmatch_loss(z_s, z_t.detach(), queue, config))
    report("stop-gradient: teacher path receives no gradient",
           z_s.grad is not None and z_t.grad is None)


# ----------------------------------------------------------------------------
# Criterion 3: queue semantics, property-tested over >= 1000 cases.

queue_cases = st.tuples(
    st.integers(min_value=1, max_value=16),       # capacity
    st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2 ** 31),  # rng seed
)


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(queue_cases)
def test_queue_semantics_property(case):
    capacity, batch_sizes, seed = case
    rng = np.random.default_rng(seed)
    dim = 4
    queue = queue_init(capacity, dim, rng)
    pushed: list[np.ndarray] = []
    for b in batch_sizes:
        b = min(b, capacity)
        batch = unit_rows(rng, b, dim)
        queue.push(batch)
        pushed.extend(batch)
    storage = queue.ordered()
    assert storage.shape == (capacity, dim)                       # constant capacity
    np.testing.assert_allclose(np.linalg.norm(storage, axis=1), 1.0, atol=1e-9)
    tail = np.asarray(pushed[-capacity:])                          # FIFO eviction
    if len(tail):
        np.testing.assert_array_equal(storage[capacity - len(tail):], tail)


def test_queue_semantics_report():
    report("queue FIFO/capacity/unit-norm properties over 1000 random cases", True)


# ----------------------------------------------------------------------------
# Criterion 4: collision-probability oracle.

def test_collision_probability_oracle():
    p1000 = collision_probability(1000, 512)
    p10 = collision_probability(10, 512)
    report("collision probability N=1000,B=512 = 0.40 +/- 0.01",
           abs(p1000 - 0.40) <= 0.01, f"{p1000:.4f}")
    report("collision probability N=10,B=512 > 0.999", p10 > 0.999, f"{p10:.6f}")


# ----------------------------------------------------------------------------
# Dataset-backed reproductions (skip when the CSVs are not available).

def _dataset_dir(name: str) -> Path | None:
    root = os.environ.get("QMATCH_DATA_DIR")
    if not root:
        return None
    d = Path(root) / name
    if (d / f"{name}.csv").exists() and (d / "schema.json").exists():
        return d
    return None


def _require_dataset(name: str) -> Path:
    d = _dataset_dir(name)
    if d is None:
        pytest.skip(f"dataset {name!r} not found: set QMATCH_DATA_DIR and place "
                    f"{name}/{name}.csv and {name}/schema.json there (see README)")
    return d


def _reproduction(name: str, preset: str, seeds: list[int], quantile: bool):
    d = _require_dataset(name)
    dataset = load_csv(d / f"{name}.csv", load_schema(d / "schema.json"), name=name)
    splits = make_splits(dataset, preset_split(preset, seed=0))
    state = fit_preprocess(dataset, rows=splits["pretext_train"], quantile=quantile)
    encoder = EncoderConfig(input_dim=state.output_dim, layer_widths=REDUCED_WIDTHS,
                            maxout_k=4, projector_dim=128)
    loop = TrainLoopConfig(batch_size=512, max_epochs=60, patience=8,
                           downstream_max_epochs=500, learning_rate=1e-3,
                           pretext_learning_rate=1e-3)
    grid = {"tau_student": [0.05, 0.1, 0.2]}
    _, results, _ = grid_search("qmatch", grid, "linear", dataset, splits, state,
                                encoder, loop, seeds)
    qm_accs = [r.test_accuracy for r in results]
    sup_accs = [finetune(init_params(encoder, s), dataset, splits, state, loop, s,
                         algorithm="supervised").test_accuracy for s in seeds]
    return float(np.mean(qm_accs)), float(np.mean(sup_accs))


@pytest.mark.slow
def test_adult_one_percent_reproduction():
    qm, sup = _reproduction("adult", "adult1pct", seeds=[0, 1, 2, 3, 4],
                            quantile=True)
    report("adult 1%: queue-distillation linear eval >= 78.0 and beats supervised",
           qm >= 78.0 and qm > sup, f"qm={qm:.2f} supervised={sup:.2f}")


@pytest.mark.slow
def test_mnist_one_percent_reproduction():
    qm, sup = _reproduction("mnist", "mnist1pct", seeds=[0, 1, 2], quantile=False)
    report("mnist 1%: linear eval >= 92.0 and beats supervised by >= 4 points",
           qm >= 92.0 and qm - sup >= 4.0, f"qm={qm:.2f} supervised={sup:.2f}")


@pytest.mark.slow
def test_sensitivity_trends():
    d = _require_dataset("adult")
    dataset = load_csv(d / "adult.csv", load_schema(d / "schema.json"), name="adult")
    splits = make_splits(dataset, preset_split("adult1pct", seed=0))
    state = fit_preprocess(dataset, rows=splits["pretext_train"], quantile=True)
    encoder = EncoderConfig(input_dim=state.output_dim, layer_widths=REDUCED_WIDTHS,
                            maxout_k=4, projector_dim=128)
    loop = TrainLoopConfig(batch_size=512, max_epochs=40, patience=8)
    seeds = [0, 1, 2]

    def accs(p_s, p_t, capacity):
        out = []
        for s in seeds:
            res = pretrain("qmatch", dataset, splits, state, encoder, loop, s,
                           qm_config=QMatchConfig(queue_capacity=capacity),
                           corruption=CorruptionConfig(p_student=p_s, p_teacher=p_t))
            out.append(linear_eval(res.params, dataset, splits, state, loop, s)
                       .test_accuracy)
        return np.asarray(out)

    clean = accs(0.3, 0.0, 512)
    corner = accs(0.5, 0.5, 512)
    report("corruption trend: (student 0.3, teacher 0) beats (0.5, 0.5)",
           clean.mean() > corner.mean(),
           f"{clean.mean():.2f} vs {corner.mean():.2f}")

    small = accs(0.3, 0.0, 2 ** 5)
    large = accs(0.3, 0.0, 2 ** 11)
    report("queue trend: 2^11 >= 2^5 mean with lower std",
           large.mean() >= small.mean() and large.std(ddof=1) <= small.std(ddof=1),
           f"large {large.mean():.2f}+/-{large.std(ddof=1):.2f}, "
           f"small {small.mean():.2f}+/-{small.std(ddof=1):.2f}")


# ----------------------------------------------------------------------------
# Criterion 8: no embedding collapse on fixture data.

@pytest.fixture(scope="module")
def fixture_pipeline():
    dataset = make_fixture_dataset(n=600, seed=0)
    splits = make_splits(dataset, SplitSpec(pretext_train=256, pretext_val=32,
                                            down_train=90, down_val=90, test=120,
                                            seed=0))
    state = fit_preprocess(dataset, rows=splits["pretext_train"])
    encoder = EncoderConfig(input_dim=state.output_dim, layer_widths=(64, 64),
                            maxout_k=4, projector_dim=32)
    loop = TrainLoopConfig(batch_size=32, max_epochs=8, patience=4,
                           downstream_max_epochs=60, learning_rate=1e-2)
    return dataset, splits, state, encoder, loop


def test_no_collapse(fixture_pipeline):
    dataset, splits, state, encoder, loop = fixture_pipeline
    result = pretrain("qmatch", dataset, splits, state, encoder, loop, seed=0,
                      qm_config=QMatchConfig(queue_capacity=64))
    cosine = result.queue.mean_pairwise_cosine()
    report("no collapse: mean pairwise queue cosine < 0.9 after pretraining",
           cosine < 0.9, f"cosine={cosine:.3f}")


# ----------------------------------------------------------------------------
# Criterion 9: bit-level pipeline reproducibility.

def test_pipeline_reproducibility(fixture_pipeline):
    dataset, splits, state, encoder, loop = fixture_pipeline

    def run():
        res = pretrain("qmatch", dataset, splits, state, encoder, loop, seed=11,
                       qm_config=QMatchConfig(queue_capacity=64))
        trial = linear_eval(res.params, dataset, splits, state, loop, seed=11)
        return trial.val_accuracy, trial.test_accuracy

    a, b = run(), run()
    report("reproducibility: identical seeds give bit-identical accuracies",
           a == b, f"{a} vs {b}")


# ----------------------------------------------------------------------------
# Criterion 10: rank computation against published means.

PUBLISHED_LINEAR_MEANS = {
    "supervised": (70.45, 60.39, 78.63, 85.97),
    "tabnet": (51.28, 61.15, 76.46, 24.20),
    "dino": (57.18, 56.87, 76.84, 64.63),
    "imix": (67.90, 60.19, 75.62, 90.66),
    "simclr_lb": (66.87, 64.22, 76.66, 91.01),
    "simsiam": (64.66, 60.11, 78.75, 92.98),
    "vime": (68.42, 64.37, 79.01, 88.02),
    "vicreg": (64.86, 65.81, 76.67, 97.36),
    "simclr": (69.66, 65.42, 76.87, 91.84),
    "qmatch": (70.90, 66.84, 80.33, 97.13),
}


def test_rank_computation(tmp_path):
    from qmatch.train import TrialResult
    datasets = ("covtype1pct", "higgs100k", "adult1pct", "mnist1pct")
    results = tmp_path / "published.jsonl"
    with open(results, "w") as fh:
        for algo, means in PUBLISHED_LINEAR_MEANS.items():
            for d, m in zip(datasets, means):
                fh.write(TrialResult(algo, d, "linear", {}, 0, m, m, 0.0)
                         .to_json() + "\n")
    out = tmp_path / "report.json"
    code = cli_main(["report", str(results), "--json", str(out)])
    payload = json.loads(out.read_text())
    rank = payload["avg_rank"]["qmatch"]
    report("rank table reproduces average rank 1.3 from published means",
           code == 0 and rank == "1.3", f"rank={rank}")
