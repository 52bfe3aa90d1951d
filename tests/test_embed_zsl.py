from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import embed_zsl
from semfuse.datasets import RunConfig, SynthConfig, split_for_eval, synth_dataset
from semfuse.embed_zsl import (
    EmbedModel,
    classify_batch,
    embed_loss,
    init_embed_model,
    train_embed,
)
from semfuse.errors import ContractError, ManifestError, ShapeError
from semfuse.evaluation import evaluate_run
from semfuse.fusion import VARIATIONS, ClassSemantics, FusionParams, init_fusion

import graph_oracle as go
from conftest import count_live_gradients, keep_classes, record_applied_gradients


def fixed_model(w_z, w_e, lam=0.0) -> EmbedModel:
    w_z = np.asarray(w_z, dtype=np.float64)
    w_e = np.asarray(w_e, dtype=np.float64)
    store = {"W_z": w_z, "b_z": np.zeros(w_z.shape[0]), "W_e": w_e, "b_e": np.zeros(w_e.shape[0])}
    return EmbedModel(store, w_z.shape[1], lam)


def name_only(d: int) -> FusionParams:
    """Fixed semantics that pass each bundle's class-name vector through."""
    return init_fusion(d, seed=0, alpha=0.5, variation="only-class-name")


def name_semantics(vectors: dict) -> ClassSemantics:
    """Class-name vectors by class id, zero description vectors."""
    e_c = np.array([vectors[c] for c in vectors], dtype=np.float64)
    return ClassSemantics(list(vectors), [f"c{c}" for c in vectors], e_c, np.zeros_like(e_c))


def batch_arrays(*rows):
    """Feature, class-name and description rows of (z, e_c, e_p) triples."""
    return tuple(np.stack([np.asarray(v, dtype=np.float64) for v in col]) for col in zip(*rows))


def test_loss_zero_when_projections_agree():
    model = fixed_model(np.eye(2), np.eye(2))
    batch = batch_arrays(([1.0, 2.0], [1.0, 2.0], [0.0, 0.0]))
    assert embed_loss(model, name_only(2), *batch)[0] == 0.0


def test_loss_is_squared_distance():
    model = fixed_model(np.eye(2), np.eye(2))
    batch = batch_arrays(([1.0, 0.0], [0.0, 1.0], [0.0, 0.0]))
    assert embed_loss(model, name_only(2), *batch)[0] == pytest.approx(2.0)


def test_loss_weight_penalty_hand_value():
    # all-ones 2x2 weights in both branches, zero fusion weights: the
    # penalty term is lam * 8 on top of the pair term
    model = fixed_model(np.ones((2, 2)), np.ones((2, 2)), lam=0.01)
    names = ("W_sigma", "b_sigma", "W_phi", "b_phi")
    fusion = FusionParams({n: np.zeros((2, 2) if n[0] == "W" else 2) for n in names}, 0.5, 2)
    z = np.array([1.0, 1.0])
    batch = batch_arrays((z, np.ones(2), np.ones(2)))
    # zero fusion maps give e = 0, so the pair term is ||W_z z||^2
    pair = float((np.ones((2, 2)) @ z) @ (np.ones((2, 2)) @ z))
    assert embed_loss(model, fusion, *batch)[0] == pytest.approx(pair + 0.01 * 8)


def test_loss_rejects_empty_batch():
    with pytest.raises(ContractError):
        embed_loss(fixed_model(np.eye(2), np.eye(2)), name_only(2),
                   np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


def test_loss_rejects_semantic_rows_that_do_not_pair_with_features():
    z, e_c, e_p = batch_arrays(*(([1.0, 1.0], [1.0, 0.0], [0.0, 0.0]) for _ in range(3)))
    with pytest.raises(ShapeError, match=r"^3 feature rows for 3 and 2 semantic rows$"):
        embed_loss(fixed_model(np.eye(2), np.eye(2)), name_only(2), z, e_c, e_p[:2])


def test_loss_gradient_passes_grad_check():
    rng = np.random.default_rng(0)
    model = init_embed_model(q=3, m=4, d=3, lam=0.01, seed=0)
    fusion = init_fusion(3, seed=1, alpha=0.5)
    batch = batch_arrays(*(
        (rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)) for _ in range(5)
    ))

    def loss_fn():
        return embed_loss(model, fusion, *batch)

    assert go.array_grad_check(loss_fn, model.store, fusion.store) < 1e-4


def smoke_data(seed=3):
    cfg = SynthConfig(
        seen=5,
        unseen=2,
        m=8,
        d=6,
        per_class=8,
        sigma_c=0.05,
        sigma_p=0.05,
        sigma_z=0.05,
        latent_rank=4,
        seed=seed,
    )
    fs, semantics = synth_dataset(cfg)
    return split_for_eval(fs, seed=seed) + (semantics,)


def test_training_reduces_loss_to_under_ten_percent():
    train, _, semantics = smoke_data()
    cfg = RunConfig(lr=0.005, epochs=500, lam=1e-4, alpha=0.5, seed=3)
    run = train_embed(train, semantics, cfg)
    assert run.loss_history[-1] < 0.1 * run.loss_history[0]


def test_loss_non_increasing_over_50_epoch_windows():
    train, _, semantics = smoke_data()
    cfg = RunConfig(
        lr=0.002, epochs=300, lam=1e-4, alpha=0.5, seed=3, batch_size=10_000
    )
    history = train_embed(train, semantics, cfg).loss_history
    assert all(history[i] <= history[i - 50] for i in range(50, len(history)))


def test_zero_epochs_returns_initialized_parameters(monkeypatch):
    train, _, semantics = smoke_data()
    cfg = RunConfig(lr=0.01, epochs=0, lam=1e-3, alpha=0.5, seed=9)
    applied = record_applied_gradients(monkeypatch)
    run = train_embed(train, semantics, cfg)
    fresh = init_embed_model(q=semantics.d, m=train.m, d=semantics.d, lam=1e-3, seed=0)
    assert run.loss_history == []
    # same shapes, untouched by any update step: gradients never computed
    assert [w.shape for w in run.model.store.values()] == [w.shape for w in fresh.store.values()]
    assert applied == {}
    assert run.fusion is not None


@pytest.mark.parametrize("optimizer", ["adam", "sgd"])
def test_training_holds_no_gradients_across_batches(monkeypatch, optimizer):
    train, _, semantics = smoke_data()
    cfg = RunConfig(optimizer=optimizer, lr=0.01, epochs=2, batch_size=8, lam=1e-3, seed=9)
    counts = count_live_gradients(
        monkeypatch,
        (embed_zsl, "embed_loss", lambda args, result: [*result[1].values(), *result[2].values()]),
    )
    train_embed(train, semantics, cfg)
    assert len(counts) > 3 and not any(counts), counts


def test_training_is_deterministic():
    train, _, semantics = smoke_data()
    cfg = RunConfig(lr=0.01, epochs=40, lam=1e-4, alpha=0.5, seed=5)
    a = train_embed(train, semantics, cfg)
    b = train_embed(train, semantics, cfg)
    assert a.loss_history == b.loss_history
    for name, w in a.model.store.items():
        assert np.array_equal(w, b.model.store[name])
    for name, w in a.fusion.store.items():
        assert np.array_equal(w, b.fusion.store[name])


@pytest.mark.parametrize("optimizer,lam", [("adam", 0.0), ("sgd", 1e-3), ("adam", 1e-3)])
@pytest.mark.parametrize("variation", VARIATIONS)
def test_training_matches_the_graph_oracle_bit_for_bit(monkeypatch, variation, optimizer, lam):
    # 28 training rows in batches of 12: shuffled minibatches, one short
    train, _, semantics = smoke_data()
    cfg = RunConfig(lr=0.05, epochs=3, lam=lam, alpha=0.7, seed=4, batch_size=12,
                    variation=variation, optimizer=optimizer)
    applied = record_applied_gradients(monkeypatch)
    run = train_embed(train, semantics, cfg)
    monkeypatch.setattr(embed_zsl, "embed_loss", go.embed_loss)
    ref = train_embed(train, semantics, cfg)
    assert run.loss_history == ref.loss_history
    for got, want in ((run.model.store, ref.model.store), (run.fusion.store, ref.fusion.store)):
        assert list(got) == list(want)
        got_grads, want_grads = applied[id(got)], applied[id(want)]
        for name, w in got.items():
            assert w.tobytes() == want[name].tobytes(), name
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name


def test_training_rejects_unseen_features():
    _, test, semantics = smoke_data()
    cfg = RunConfig(epochs=1)
    with pytest.raises(
        ManifestError, match=r"^training features contain non-seen classes \[5, 6\]$"
    ):
        train_embed(test, semantics, cfg)  # test rows include unseen classes


def test_training_rejects_missing_semantics():
    train, _, semantics = smoke_data()
    cfg = RunConfig(epochs=1)
    with pytest.raises(ManifestError):
        train_embed(train, keep_classes(semantics, {0, 1}), cfg)


def test_classify_exact_prototype_match():
    model = fixed_model(np.eye(2), np.eye(2))
    sem = name_semantics({0: [1.0, 0.0], 1: [0.0, 1.0]})
    assert classify_batch(model, name_only(2), sem, np.array([0.0, 1.0]), [0, 1])[0] == 1


def test_classify_tie_goes_to_lowest_id():
    model = fixed_model(np.eye(2), np.eye(2))
    sem = name_semantics({4: [1.0, 0.0], 2: [-1.0, 0.0]})
    assert classify_batch(model, name_only(2), sem, np.array([0.0, 0.0]), [4, 2])[0] == 2


def test_classify_requires_candidates():
    sem = name_semantics({0: [1.0, 0.0]})
    with pytest.raises(ContractError):
        classify_batch(fixed_model(np.eye(2), np.eye(2)), name_only(2), sem, np.zeros(2), [])


def test_classify_refuses_a_candidate_without_semantics():
    sem = name_semantics({0: [1.0, 0.0], 1: [0.0, 1.0]})
    with pytest.raises(ManifestError, match=r"classes without semantics: \[3\]"):
        classify_batch(fixed_model(np.eye(2), np.eye(2)), name_only(2), sem, np.zeros(2), [0, 3])


@given(seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_classify_matches_brute_force_and_ignores_order(seed):
    rng = np.random.default_rng(seed)
    model = fixed_model(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))
    sem = name_semantics({i: rng.normal(size=5) for i in range(10)})
    candidates = list(range(10))
    z = rng.normal(size=4)
    got = classify_batch(model, name_only(5), sem, z, candidates)[0]
    # exhaustive oracle over every candidate, lowest id wins ties
    z_proj = model.project_features(z[None, :])[0]
    best_id, best_d2 = None, np.inf
    for cid, e in zip(sem.ids, sem.e_c):
        proto = model.project_semantics(e[None, :])[0]
        d2 = float(((z_proj - proto) ** 2).sum())
        if d2 < best_d2:
            best_id, best_d2 = cid, d2
    assert got == best_id
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    assert classify_batch(model, name_only(5), sem, z, shuffled)[0] == got


def test_zsl_and_gzsl_share_the_classifier_code_path():
    rng = np.random.default_rng(1)
    model = fixed_model(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))
    sem = name_semantics({i: rng.normal(size=5) for i in range(6)})
    z = rng.normal(size=(5, 4))
    full = classify_batch(model, name_only(5), sem, z, list(range(6)))
    unseen_only = classify_batch(model, name_only(5), sem, z, [3, 4, 5])
    assert set(full) <= set(range(6))
    assert set(unseen_only) <= {3, 4, 5}


def test_noiseless_synthetic_reaches_perfect_unseen_accuracy():
    cfg = SynthConfig(
        seen=5,
        unseen=3,
        m=16,
        d=8,
        per_class=10,
        sigma_c=0.0,
        sigma_p=0.0,
        sigma_z=0.0,
        latent_rank=4,
        seed=1,
    )
    fs, semantics = synth_dataset(cfg)
    train, test = split_for_eval(fs, seed=1)
    run = train_embed(
        train,
        semantics,
        RunConfig(lr=0.005, epochs=600, lam=0.0, alpha=0.5, seed=1),
    )
    predict = partial(classify_batch, run.model, run.fusion, semantics)
    report = evaluate_run(predict, "ours", test, semantics.ids, "zsl")
    assert report.acc == 100.0
