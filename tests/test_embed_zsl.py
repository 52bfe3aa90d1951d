import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.datasets import RunConfig, SynthConfig, split_for_eval, synth_dataset
from semfuse.embed_zsl import (
    EmbedModel,
    EmbedPredictor,
    classify_batch,
    embed_loss,
    init_embed_model,
    train_embed,
)
from semfuse.errors import ContractError, ManifestError, ShapeError
from semfuse.evaluation import evaluate_run
from semfuse.fusion import FusionParams, SemanticBundle, init_fusion


def fixed_model(w_z, w_e, lam=0.0) -> EmbedModel:
    w_z = np.asarray(w_z, dtype=np.float64)
    w_e = np.asarray(w_e, dtype=np.float64)
    store = ad.ParamStore()
    store.add("W_z", w_z)
    store.add("b_z", np.zeros(w_z.shape[0]))
    store.add("W_e", w_e)
    store.add("b_e", np.zeros(w_e.shape[0]))
    return EmbedModel(store, w_z.shape[0], w_z.shape[1], w_e.shape[1], lam)


def name_only(d: int) -> FusionParams:
    """Fixed semantics that pass each bundle's class-name vector through."""
    return init_fusion(d, seed=0, alpha=0.5, variation="only-class-name")


def bundle(cid, e, d=None):
    e = np.asarray(e, dtype=np.float64)
    return SemanticBundle(cid, f"c{cid}", e, np.zeros_like(e), e.copy())


def batch_arrays(*pairs):
    """Feature, class-name and description rows of (feature, bundle) pairs."""
    return tuple(
        np.stack(col) for col in zip(*((np.asarray(z), b.e_c, b.e_p) for z, b in pairs))
    )


def test_loss_zero_when_projections_agree():
    model = fixed_model(np.eye(2), np.eye(2))
    batch = batch_arrays((np.array([1.0, 2.0]), bundle(0, [1.0, 2.0])))
    assert embed_loss(model, name_only(2), *batch).item() == 0.0


def test_loss_is_squared_distance():
    model = fixed_model(np.eye(2), np.eye(2))
    batch = batch_arrays((np.array([1.0, 0.0]), bundle(0, [0.0, 1.0])))
    assert embed_loss(model, name_only(2), *batch).item() == pytest.approx(2.0)


def test_loss_weight_penalty_hand_value():
    # all-ones 2x2 weights in both branches, zero fusion weights: the
    # penalty term is lam * 8 on top of the pair term
    model = fixed_model(np.ones((2, 2)), np.ones((2, 2)), lam=0.01)
    store = ad.ParamStore()
    store.add("W_sigma", np.zeros((2, 2)))
    store.add("b_sigma", np.zeros(2))
    store.add("W_phi", np.zeros((2, 2)))
    store.add("b_phi", np.zeros(2))
    fusion = FusionParams(store, 0.5, 2)
    z = np.array([1.0, 1.0])
    batch = batch_arrays((z, SemanticBundle(0, "c0", np.ones(2), np.ones(2))))
    # zero fusion maps give e = 0, so the pair term is ||W_z z||^2
    pair = float((np.ones((2, 2)) @ z) @ (np.ones((2, 2)) @ z))
    assert embed_loss(model, fusion, *batch).item() == pytest.approx(pair + 0.01 * 8)


def test_loss_rejects_empty_batch():
    with pytest.raises(ContractError):
        embed_loss(fixed_model(np.eye(2), np.eye(2)), name_only(2),
                   np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2)))


def test_loss_rejects_semantic_rows_that_do_not_pair_with_features():
    z, e_c, e_p = batch_arrays(*((np.ones(2), bundle(i, [1.0, 0.0])) for i in range(3)))
    with pytest.raises(ShapeError, match=r"^3 feature rows for 3 and 2 semantic rows$"):
        embed_loss(fixed_model(np.eye(2), np.eye(2)), name_only(2), z, e_c, e_p[:2])


def test_loss_gradient_passes_grad_check():
    rng = np.random.default_rng(0)
    model = init_embed_model(q=3, m=4, d=3, lam=0.01, seed=0)
    fusion = init_fusion(3, seed=1, alpha=0.5)
    batch = batch_arrays(*(
        (rng.normal(size=4), SemanticBundle(i, f"c{i}", rng.normal(size=3), rng.normal(size=3)))
        for i in range(5)
    ))

    def loss_fn():
        return embed_loss(model, fusion, *batch)

    assert ad.grad_check(loss_fn, model.store, fusion.store) < 1e-4


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
    fs, bundles = synth_dataset(cfg)
    return split_for_eval(fs, seed=seed) + (bundles,)


def test_training_reduces_loss_to_under_ten_percent():
    train, _, bundles = smoke_data()
    cfg = RunConfig(lr=0.005, epochs=500, lam=1e-4, alpha=0.5, seed=3)
    run = train_embed(train, bundles, cfg)
    assert run.loss_history[-1] < 0.1 * run.loss_history[0]


def test_loss_non_increasing_over_50_epoch_windows():
    train, _, bundles = smoke_data()
    cfg = RunConfig(
        lr=0.002, epochs=300, lam=1e-4, alpha=0.5, seed=3, batch_size=10_000
    )
    history = train_embed(train, bundles, cfg).loss_history
    assert all(history[i] <= history[i - 50] for i in range(50, len(history)))


def test_zero_epochs_returns_initialized_parameters():
    train, _, bundles = smoke_data()
    cfg = RunConfig(lr=0.01, epochs=0, lam=1e-3, alpha=0.5, seed=9)
    run = train_embed(train, bundles, cfg)
    fresh = init_embed_model(
        q=bundles[0].dimension, m=train.m, d=bundles[0].dimension, lam=1e-3, seed=0
    )
    assert run.loss_history == []
    # same shapes, untouched by any update step: gradients never computed
    assert run.model.store.grads == {}
    assert run.fusion is not None


def test_training_is_deterministic():
    train, _, bundles = smoke_data()
    cfg = RunConfig(lr=0.01, epochs=40, lam=1e-4, alpha=0.5, seed=5)
    a = train_embed(train, bundles, cfg)
    b = train_embed(train, bundles, cfg)
    assert a.loss_history == b.loss_history
    for name, t in a.model.store.items():
        assert np.array_equal(t.data, b.model.store[name].data)
    for name, t in a.fusion.store.items():
        assert np.array_equal(t.data, b.fusion.store[name].data)


def test_training_rejects_unseen_features():
    _, test, bundles = smoke_data()
    cfg = RunConfig(epochs=1)
    with pytest.raises(ManifestError):
        train_embed(test, bundles, cfg)  # test rows include unseen classes


def test_training_rejects_missing_semantics():
    train, _, bundles = smoke_data()
    cfg = RunConfig(epochs=1)
    with pytest.raises(ManifestError):
        train_embed(train, bundles[:2], cfg)


def test_classify_exact_prototype_match():
    model = fixed_model(np.eye(2), np.eye(2))
    candidates = [bundle(0, [1.0, 0.0]), bundle(1, [0.0, 1.0])]
    assert classify_batch(model, name_only(2), np.array([0.0, 1.0]), candidates)[0] == 1


def test_classify_tie_goes_to_lowest_id():
    model = fixed_model(np.eye(2), np.eye(2))
    candidates = [bundle(4, [1.0, 0.0]), bundle(2, [-1.0, 0.0])]
    assert classify_batch(model, name_only(2), np.array([0.0, 0.0]), candidates)[0] == 2


def test_classify_requires_candidates():
    with pytest.raises(ContractError):
        classify_batch(fixed_model(np.eye(2), np.eye(2)), name_only(2), np.zeros(2), [])


@given(seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_classify_matches_brute_force_and_ignores_order(seed):
    rng = np.random.default_rng(seed)
    model = fixed_model(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))
    candidates = [bundle(i, rng.normal(size=5)) for i in range(10)]
    z = rng.normal(size=4)
    got = classify_batch(model, name_only(5), z, candidates)[0]
    # exhaustive oracle over every candidate, lowest id wins ties
    z_proj = model.project_features(ad.constant(z[None, :])).data[0]
    best_id, best_d2 = None, np.inf
    for c in sorted(candidates, key=lambda b: b.class_id):
        proto = model.project_semantics(ad.constant(c.e[None, :])).data[0]
        d2 = float(((z_proj - proto) ** 2).sum())
        if d2 < best_d2:
            best_id, best_d2 = c.class_id, d2
    assert got == best_id
    shuffled = list(candidates)
    rng.shuffle(shuffled)
    assert classify_batch(model, name_only(5), z, shuffled)[0] == got


def test_zsl_and_gzsl_share_the_classifier_code_path():
    rng = np.random.default_rng(1)
    model = fixed_model(rng.normal(size=(3, 4)), rng.normal(size=(3, 5)))
    candidates = [bundle(i, rng.normal(size=5)) for i in range(6)]
    z = rng.normal(size=(5, 4))
    full = classify_batch(model, name_only(5), z, candidates)
    unseen_only = classify_batch(model, name_only(5), z, candidates[3:])
    assert set(full) <= {c.class_id for c in candidates}
    assert set(unseen_only) <= {c.class_id for c in candidates[3:]}


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
    fs, bundles = synth_dataset(cfg)
    train, test = split_for_eval(fs, seed=1)
    run = train_embed(
        train,
        bundles,
        RunConfig(lr=0.005, epochs=600, lam=0.0, alpha=0.5, seed=1),
    )
    report = evaluate_run(
        EmbedPredictor(run.model, run.fusion), test, bundles, "zsl"
    )
    assert report.acc == 100.0
