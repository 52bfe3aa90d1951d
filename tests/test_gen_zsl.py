import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse import gen_zsl
from semfuse.datasets import FeatureSet, RunConfig, SplitSpec, SynthConfig, synth_dataset
from semfuse.errors import ContractError, ManifestError, ShapeError
from semfuse.fusion import VARIATIONS, ClassSemantics, init_fusion
from semfuse.gen_zsl import (
    GanTrainer,
    Mlp,
    generator_loss_grads,
    gradient_penalty,
    init_classifier,
    init_discriminator,
    init_generator,
    pretrain_classifier,
    synthesize,
    synthesize_set,
    train_final_classifier,
)

import graph_oracle as go
from conftest import count_live_gradients, keep_classes, record_applied_gradients

RNG = np.random.default_rng(123)


def linear_critic(w_z: np.ndarray, m: int, d: int) -> Mlp:
    weights = np.zeros((1, m + d))
    weights[0, :m] = w_z
    return Mlp({"l0.W": weights, "l0.b": np.zeros(1)}, [m + d, 1], d)


@pytest.mark.parametrize("norm,expected", [(0.0, 1.0), (1.0, 0.0), (3.0, 4.0)])
def test_gradient_penalty_linear_critic_analytic(norm, expected):
    m, d = 5, 3
    w = np.zeros(m)
    w[0] = norm
    critic = linear_critic(w, m, d)
    gp, _ = gradient_penalty(
        critic,
        RNG.normal(size=(4, m)),
        RNG.normal(size=(4, m)),
        RNG.normal(size=(4, d)),
        RNG.uniform(size=4),
    )
    assert abs(gp - expected) < 1e-9


@given(seed=st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_gradient_penalty_is_non_negative(seed):
    rng = np.random.default_rng(seed)
    critic = init_discriminator(3, 2, seed=seed, hidden=[6])
    gp, _ = gradient_penalty(
        critic,
        rng.normal(size=(3, 3)),
        rng.normal(size=(3, 3)),
        rng.normal(size=(3, 2)),
        rng.uniform(size=3),
    )
    assert gp >= 0.0


def test_beta_endpoints_select_real_or_fake():
    rng = np.random.default_rng(5)
    critic = init_discriminator(4, 2, seed=5, hidden=[8])
    z_real = rng.normal(size=(3, 4))
    z_fake = rng.normal(size=(3, 4))
    e = rng.normal(size=(3, 2))
    at_real = gradient_penalty(critic, z_real, z_fake, e, 1.0)[0]
    at_fake = gradient_penalty(critic, z_real, z_fake, e, 0.0)[0]
    # with both endpoints equal, beta is irrelevant: compare directly
    assert at_real == gradient_penalty(critic, z_real, z_real, e, 0.42)[0]
    assert at_fake == gradient_penalty(critic, z_fake, z_fake, e, 0.42)[0]


def test_gradient_penalty_trains_the_critic():
    rng = np.random.default_rng(9)
    critic = init_discriminator(4, 2, seed=9, hidden=[8])
    z_real = rng.normal(size=(6, 4))
    z_fake = rng.normal(size=(6, 4))
    e = rng.normal(size=(6, 2))
    beta = rng.uniform(size=6)

    def objective():  # the biases get no gradient: the penalty is flat in them
        return gradient_penalty(critic, z_real, z_fake, e, beta)

    assert sorted(objective()[1]) == ["l0.W", "l1.W"]
    assert go.array_grad_check(objective, critic.store) < 1e-4


def test_gradient_penalty_graph_is_freed_without_the_cycle_collector(monkeypatch):
    # a graph that holds a reference cycle outlives its last reference
    # until a collection runs, and its leaves keep the critic's old
    # weight arrays alive with it
    rng = np.random.default_rng(11)
    critic = init_discriminator(4, 2, seed=11, hidden=[8])
    nodes = []  # weak references to the sqrt node's value, held by it alone
    sqrt = ad.sqrt

    def recording(x):
        out = sqrt(x)
        nodes.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "sqrt", recording)
    gc.disable()
    try:
        gradient_penalty(critic, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                         rng.normal(size=(3, 2)), rng.uniform(size=3))
        assert len(nodes) == 1
        assert nodes[0]() is None
    finally:
        gc.enable()


def cls_loss(clf, z, labels):
    """The oracle's classifier loss of rows ``z`` over fresh leaves."""
    return go.cls_loss_batch(clf, go.leaves(clf.store), ad.constant(z), labels)


def test_cls_loss_uniform_logits_is_log_k():
    from semfuse.gen_zsl import SoftmaxClassifier

    clf = SoftmaxClassifier({"W": np.zeros((4, 3)), "b": np.zeros(4)}, [0, 1, 2, 3])
    loss = cls_loss(clf, np.ones((1, 3)), [2])
    assert loss.item() == pytest.approx(np.log(4.0), abs=1e-12)


def test_cls_loss_confident_correct_logits():
    from semfuse.gen_zsl import SoftmaxClassifier

    store = {"W": np.array([[10.0], [0.0], [0.0]]), "b": np.zeros(3)}
    clf = SoftmaxClassifier(store, [0, 1, 2])
    loss = cls_loss(clf, [[1.0]], [0])
    assert loss.item() == pytest.approx(np.log(1 + 2 * np.exp(-10.0)), rel=1e-9)
    assert loss.item() == pytest.approx(9.1e-5, rel=0.01)


def test_cls_loss_goes_to_zero_in_the_confident_limit():
    from semfuse.gen_zsl import SoftmaxClassifier

    clf = SoftmaxClassifier({"W": np.array([[200.0], [0.0]]), "b": np.zeros(2)}, [0, 1])
    assert cls_loss(clf, [[1.0]], [0]).item() < 1e-12


def test_cls_loss_rejects_unknown_label():
    clf = init_classifier(3, [0, 1], seed=0)
    with pytest.raises(ContractError):
        cls_loss(clf, np.zeros((1, 3)), [7])


def test_cls_loss_gradient_flows_to_generator():
    gen = init_generator(m=3, d=2, noise_dim=2, seed=1, hidden=[6])
    clf = init_classifier(3, [0, 1], seed=2)
    h = RNG.normal(size=(4, 2))
    e = RNG.normal(size=(4, 2))
    # a critic with zero weights scores every row 0: the loss is the
    # classification term alone
    critic = linear_critic(np.zeros(3), 3, 2)
    name_only = init_fusion(2, seed=0, alpha=0.5, variation="only-class-name")

    def objective():
        loss, _, grads, _ = generator_loss_grads(
            gen, critic, clf, name_only, h, e, e, [0, 1, 0, 1], 1.0
        )
        return loss, grads

    assert go.array_grad_check(objective, gen.store) < 1e-4


def test_synthesize_deterministic_in_seed():
    gen = init_generator(m=4, d=3, noise_dim=2, seed=0, hidden=[16])
    e = np.ones(3)
    assert np.array_equal(synthesize(gen, e, 5, seed=9), synthesize(gen, e, 5, seed=9))
    assert not np.array_equal(
        synthesize(gen, e, 5, seed=9), synthesize(gen, e, 5, seed=10)
    )


def test_synthesize_rejects_non_positive_count():
    gen = init_generator(m=4, d=3, noise_dim=2, seed=0, hidden=[16])
    with pytest.raises(ContractError):
        synthesize(gen, np.ones(3), 0, seed=1)


def test_identity_like_generator_stub_copies_semantics():
    # single linear layer, zero weights on the noise block, identity on
    # the leading semantic block: output is e truncated to m components
    m, d, noise_dim = 2, 3, 4
    weights = np.zeros((m, noise_dim + d))
    weights[:, noise_dim : noise_dim + m] = np.eye(m)
    gen = Mlp({"l0.W": weights, "l0.b": np.zeros(m)}, [noise_dim + d, m], d)
    e = np.array([0.5, -1.5, 9.0])
    out = synthesize(gen, e, 7, seed=3)
    assert np.allclose(out, np.broadcast_to(e[:m], (7, m)))


@pytest.mark.parametrize(
    "net,x_width",
    [
        (init_generator(m=4, d=3, noise_dim=2, seed=0, hidden=[5]), 2),
        (init_discriminator(m=4, d=3, seed=0, hidden=[5]), 4),
    ],
    ids=["generator", "critic"],
)
@pytest.mark.parametrize("wrong", ["x", "e"])
def test_conditional_mlp_refuses_wrong_input_widths(net, x_width, wrong):
    x = np.zeros((2, x_width + (wrong == "x")))
    e = np.zeros((2, 3 + (wrong == "e")))
    with pytest.raises(ShapeError) as err:
        net.run(x, e)
    assert str(x.shape) in str(err.value) and str(e.shape) in str(err.value)


def toy_classifier_data():
    rng = np.random.default_rng(4)
    centers = np.array([[4.0, 0.0], [-4.0, 4.0], [0.0, -4.0]])
    features = np.vstack([c + 0.2 * rng.normal(size=(20, 2)) for c in centers])
    labels = np.repeat([0, 1, 2], 20)
    return features, labels


TOY_SPLIT = SplitSpec("toy", ["a", "b"], ["c"])


def test_final_classifier_separable_toy_reaches_full_train_accuracy():
    features, labels = toy_classifier_data()
    synth = FeatureSet(features, labels, TOY_SPLIT)
    clf = train_final_classifier(
        None, synth, RunConfig(classifier_lr=0.05, classifier_epochs=120, seed=0)
    )
    preds = clf.predict_ids(features, clf.class_ids)
    assert (preds == labels).all()


def test_final_classifier_rejects_single_class():
    synth = FeatureSet(np.ones((4, 2)), [1, 1, 1, 1], TOY_SPLIT)
    with pytest.raises(ContractError):
        train_final_classifier(None, synth, RunConfig(classifier_epochs=1))


def test_final_classifier_rejects_class_overlap():
    seen = FeatureSet(np.ones((2, 2)), [0, 1], TOY_SPLIT)
    synth = FeatureSet(np.ones((2, 2)), [1, 2], TOY_SPLIT)
    with pytest.raises(ManifestError):
        train_final_classifier(seen, synth, RunConfig(classifier_epochs=1))


def test_classifier_training_holds_no_gradients_across_batches(monkeypatch):
    features, labels = toy_classifier_data()
    synth = FeatureSet(features, labels, TOY_SPLIT)
    cfg = RunConfig(classifier_epochs=3, batch_size=4, seed=7)
    counts = count_live_gradients(
        monkeypatch,
        (ad, "softmax_xent_grad", lambda args, result: [result[1]]),
        [(ad, "adam_step", lambda args, result: args[1].values())],
    )
    train_final_classifier(None, synth, cfg)
    assert len(counts) > 3 and not any(counts), counts


def test_final_classifier_deterministic():
    features, labels = toy_classifier_data()
    synth = FeatureSet(features, labels, TOY_SPLIT)
    cfg = RunConfig(classifier_lr=0.05, classifier_epochs=30, seed=7)
    a = train_final_classifier(None, synth, cfg)
    b = train_final_classifier(None, synth, cfg)
    assert np.array_equal(a.store["W"], b.store["W"])


def gan_fixture(seed=7, lr=5e-4):
    cfg = SynthConfig(
        seen=3,
        unseen=2,
        m=4,
        d=3,
        per_class=12,
        sigma_c=0.0,
        sigma_p=0.0,
        sigma_z=0.1,
        seed=seed,
    )
    fs, semantics = synth_dataset(cfg)
    train = fs.rows_for(fs.split.seen_ids)
    # batch 16 over the 36 training rows: 3 GAN cycles per epoch
    gcfg = RunConfig(
        method="gen",
        noise_dim=3,
        eta=10.0,
        cls_weight=0.01,
        n_critic=2,
        lr=lr,
        batch_size=16,
        epochs=1,
        seed=seed,
        alpha=0.5,
        variation="only-class-name",
        classifier_epochs=30,
    )
    pre = pretrain_classifier(train, gcfg)
    return fs, semantics, train, pre, gcfg


def test_wgan_step_with_zero_lr_keeps_parameters():
    fs, semantics, train, pre, gcfg = gan_fixture(lr=0.0)
    trainer = GanTrainer(train, semantics, pre, gcfg)
    before = {n: w.copy() for n, w in trainer.gen.store.items()}
    before.update({f"d.{n}": w.copy() for n, w in trainer.disc.store.items()})
    trainer.wgan_step()
    assert all(np.array_equal(before[n], w) for n, w in trainer.gen.store.items())
    assert all(np.array_equal(before[f"d.{n}"], w) for n, w in trainer.disc.store.items())


def test_gan_training_is_deterministic():
    fs, semantics, train, pre, gcfg = gan_fixture()
    rec_a = GanTrainer(train, semantics, pre, gcfg).train()
    rec_b = GanTrainer(train, semantics, pre, gcfg).train()
    assert len(rec_a) == 3
    assert [r.critic_loss for r in rec_a] == [r.critic_loss for r in rec_b]
    assert [r.gen_loss for r in rec_a] == [r.gen_loss for r in rec_b]


def test_critic_updates_hold_no_gradients_across_steps(monkeypatch):
    fs, semantics, train, pre, gcfg = gan_fixture()
    trainer = GanTrainer(train, semantics, pre, gcfg)
    counts = count_live_gradients(
        monkeypatch, (gen_zsl, "critic_loss_grads", lambda args, result: result[3].values())
    )
    trainer.train()
    assert len(counts) == 3 * gcfg.n_critic and not any(counts), counts


def _short_gan_run(variation, linear_critic):
    """Three wgan_step cycles: their records, then every parameter's and
    last applied gradient's bytes."""
    fs, semantics, train, pre, gcfg = gan_fixture(lr=1e-2)
    gcfg.variation = variation
    trainer = GanTrainer(train, semantics, pre, gcfg)
    if linear_critic:
        trainer.disc = init_discriminator(train.m, semantics.d, seed=3, hidden=[])
        trainer._disc_state = ad.AdamState(trainer.disc.store)
    with pytest.MonkeyPatch.context() as patch:
        applied = record_applied_gradients(patch)
        records = [trainer.wgan_step() for _ in range(3)]
    stores = [trainer.gen.store, trainer.disc.store, trainer.fusion.store]
    return records, [
        (name, w.tobytes(), applied[id(s)][name].tobytes()) for s in stores for name, w in s.items()
    ]


@pytest.mark.parametrize(
    "variation,linear_critic", [(v, False) for v in VARIATIONS] + [("ours", True)]
)
def test_gan_training_matches_the_graph_oracle_bit_for_bit(monkeypatch, variation, linear_critic):
    got = _short_gan_run(variation, linear_critic)
    monkeypatch.setattr(gen_zsl, "critic_loss_grads", go.critic_loss_grads)
    monkeypatch.setattr(gen_zsl, "generator_loss_grads", go.generator_loss_grads)
    want = _short_gan_run(variation, linear_critic)
    assert got[0] == want[0]
    assert got[1] == want[1]


def test_gan_rejects_unseen_training_features():
    fs, semantics, train, pre, gcfg = gan_fixture()
    with pytest.raises(
        ManifestError, match=r"^generator training features contain non-seen classes \[3, 4\]$"
    ):
        GanTrainer(fs, semantics, pre, gcfg)  # fs still contains unseen rows
    with pytest.raises(
        ManifestError, match=r"^pretraining features contain non-seen classes \[3, 4\]$"
    ):
        pretrain_classifier(fs, gcfg)


def test_gan_rejects_missing_semantics():
    fs, semantics, train, pre, gcfg = gan_fixture()
    without_class_0 = keep_classes(semantics, {1, 2, 3, 4})
    with pytest.raises(ManifestError, match=r"classes without semantics: \[0\]"):
        GanTrainer(train, without_class_0, pre, gcfg)


def test_gan_requires_positive_penalty_coefficient():
    fs, semantics, train, pre, gcfg = gan_fixture()
    gcfg.eta = 0.0
    with pytest.raises(ContractError):
        GanTrainer(train, semantics, pre, gcfg)


def test_wasserstein_estimate_shrinks_on_2d_toy():
    # thresholds frozen from a reference run of this exact configuration:
    # |W| climbs past 1.0 mid-training and ends below 0.15
    cfg = SynthConfig(
        seen=2,
        unseen=2,
        m=2,
        d=2,
        per_class=60,
        sigma_c=0.0,
        sigma_p=0.0,
        sigma_z=0.1,
        seed=7,
    )
    fs, semantics = synth_dataset(cfg)
    train = fs.rows_for(fs.split.seen_ids)
    # 750 epochs of the 120 training rows at batch 64: 1500 GAN cycles
    gcfg = RunConfig(
        method="gen",
        noise_dim=4,
        eta=10.0,
        cls_weight=0.01,
        n_critic=5,
        lr=1e-3,
        batch_size=64,
        epochs=750,
        seed=7,
        alpha=0.5,
        variation="only-class-name",
        classifier_epochs=80,
    )
    pre = pretrain_classifier(train, gcfg)
    records = GanTrainer(train, semantics, pre, gcfg).train()
    assert len(records) == 1500
    w = np.array([r.wasserstein for r in records])
    mid = np.abs(w[400:700]).mean()
    late = np.abs(w[-100:]).mean()
    assert late < 0.15
    assert late < mid


def test_synthesize_set_builds_unseen_feature_set():
    gen = init_generator(m=4, d=3, noise_dim=2, seed=0, hidden=[16])
    e = np.array([[1.0] * 3, [-1.0] * 3, [2.0] * 3])
    semantics = ClassSemantics([6, 5, 1], ["u2", "u1", "s"], e, e)
    name_only = init_fusion(3, seed=0, alpha=0.5, variation="only-class-name")
    split = SplitSpec("toy", ["s0", "s", "s2", "s3", "s4"], ["u1", "u2"])  # unseen ids 5, 6
    fs = synthesize_set(gen, name_only, semantics, split, per_class=10, seed=1)
    assert fs.n == 20
    assert fs.split is split
    assert fs.labels.tolist() == [5] * 10 + [6] * 10
    # each block is the class's own draw from its vector, in id order
    for cid, block, vector in ((5, fs.features[:10], -1.0), (6, fs.features[10:], 1.0)):
        class_seed = int(np.random.SeedSequence([1, cid]).generate_state(1)[0])
        assert np.array_equal(block, synthesize(gen, np.full(3, vector), 10, class_seed))


def test_synthesize_set_fills_one_array():
    # hidden width m, as the wide benchmark workload trains: at 4m one
    # block's forward pass alone holds about 1.2x this output
    m, d = 512, 8
    gen = init_generator(m=m, d=d, noise_dim=8, seed=0, hidden=[m])
    names = ["s0", "s1"] + [f"u{i}" for i in range(10)]
    e = np.random.default_rng(0).normal(size=(12, d))
    semantics = ClassSemantics(np.arange(12), names, e, e)
    fusion = init_fusion(d, seed=0, alpha=0.5, variation="only-class-name")
    split = SplitSpec("toy", names[:2], names[2:])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fs = synthesize_set(gen, fusion, semantics, split, per_class=400, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fs.features.shape == (4000, m)
    # the output beside one class block's forward pass, never two copies
    assert peak - base <= 1.5 * fs.features.nbytes


def _unpruned_grad(output, inputs, create_graph=False):
    """Reference walk without pruning: every rule of every node runs,
    building graph nodes only for ``create_graph``, as in `ad.grad`."""
    adjoint = {id(output): ad.constant(np.ones_like(output.data))}
    saved, ad._record = ad._record, create_graph
    try:
        for node in reversed(ad._toposort(output)):
            g = adjoint.get(id(node))
            if g is None or node.vjps is None:
                continue
            for parent, rule in zip(node.parents, node.vjps):
                pg = rule(g)
                if not parent.requires_grad:
                    continue
                prev = adjoint.get(id(parent))
                adjoint[id(parent)] = pg if prev is None else ad.add(prev, pg)
    finally:
        ad._record = saved
    return [adjoint.get(id(t)) for t in inputs]


def _gradients_of_two_gan_cycles(monkeypatch):
    """Bytes of every gradient the loss functions return during two
    wgan_step cycles (critic losses with the penalty, then generator
    losses)."""
    fs, semantics, train, pre, gcfg = gan_fixture()
    gcfg.variation = "ours"  # the generator loss then reaches fusion layers too
    trainer = GanTrainer(train, semantics, pre, gcfg)
    stored = []

    def recording(loss_grads):
        def wrapper(*args):
            out = loss_grads(*args)
            stored.append([g.tobytes() for part in out if isinstance(part, dict)
                           for g in part.values()])
            return out

        return wrapper

    with monkeypatch.context() as patch:
        for name in ("critic_loss_grads", "generator_loss_grads"):
            patch.setattr(gen_zsl, name, recording(getattr(gen_zsl, name)))
        for _ in range(2):
            trainer.wgan_step()
    return stored


def test_pruned_grad_equals_the_unpruned_walk_bit_for_bit(monkeypatch):
    pruned = _gradients_of_two_gan_cycles(monkeypatch)
    monkeypatch.setattr(ad, "grad", _unpruned_grad)  # the penalty's weight gradient
    unpruned = _gradients_of_two_gan_cycles(monkeypatch)
    assert len(pruned) == 2 * (2 + 1)  # n_critic critic updates + 1 generator update
    assert pruned == unpruned


def _parents_whose_rules_run(output, run):
    """Call ``run()`` with every rule under ``output`` wrapped to record
    the parent it computes an adjoint for."""
    called = []
    for node in ad._toposort(output):
        if node.vjps is not None:
            node.vjps = tuple(
                (lambda p, rule: lambda g: called.append(p) or rule(g))(p, rule)
                for p, rule in zip(node.parents, node.vjps)
            )
    run()
    return called


def test_penalty_input_gradient_runs_no_weight_gradient_rule():
    rng = np.random.default_rng(31)
    critic = init_discriminator(4, 2, seed=31, hidden=[8])
    z_tilde = ad.leaf(rng.normal(size=(5, 4)))
    w = go.leaves(critic.store)
    score_sum = ad.sum_all(go.mlp_forward(critic, w, z_tilde, ad.constant(rng.normal(size=(5, 2)))))
    called = _parents_whose_rules_run(
        score_sum, lambda: go.grad(score_sum, [z_tilde], create_graph=True)
    )
    weights = list(w.values())
    assert any(p is z_tilde for p in called)
    assert not any(p is w for p in called for w in weights)


def test_generator_update_runs_no_critic_or_classifier_rule(monkeypatch):
    fs, semantics, train, pre, gcfg = gan_fixture()
    gcfg.variation = "ours"
    trainer = GanTrainer(train, semantics, pre, gcfg)
    rows = trainer._draw_rows()
    shapes = []  # of each weight gradient the update computes
    linear_grads = ad.linear_grads

    def recording(x, g):
        grads = linear_grads(x, g)
        shapes.append(grads[0].shape)
        return grads

    monkeypatch.setattr(ad, "linear_grads", recording)
    _, _, gen_grads, fused = generator_loss_grads(
        trainer.gen, trainer.disc, trainer.classifier, trainer.fusion,
        trainer.rng.normal(size=(rows.size, gcfg.noise_dim)), *trainer._semantics(rows),
        trainer.data.labels[rows], gcfg.cls_weight,
    )
    assert sorted(gen_grads) == sorted(trainer.gen.store)
    assert sorted(fused) == sorted(trainer.fusion.store)
    trained = [w.shape for s in (trainer.gen.store, trainer.fusion.store)
               for w in s.values() if w.ndim == 2]
    frozen = [w.shape for s in (trainer.disc.store, pre.store) for w in s.values()]
    assert sorted(shapes) == sorted(trained)
    assert not set(shapes) & set(frozen)


def test_cls_loss_names_the_first_unknown_label():
    clf = init_classifier(3, [0, 1], seed=0)
    with pytest.raises(ContractError, match=r"^label 7 outside the classifier's classes$"):
        cls_loss(clf, np.zeros((3, 3)), np.array([1, 7, 9]))


def _graph_fit(features, labels, class_ids, cfg):
    """The classifier fit as a graph loop: backward through the oracle's
    cls_loss_batch, then Adam, on the same shuffled minibatches."""
    clf = init_classifier(features.shape[1], class_ids, cfg.seed)
    state = ad.AdamState(clf.store)
    rng = np.random.default_rng(cfg.seed)
    n = features.shape[0]
    for _ in range(cfg.classifier_epochs):
        order = np.arange(n)
        if n > cfg.batch_size:
            rng.shuffle(order)
        for start in range(0, n, cfg.batch_size):
            rows = order[start : start + cfg.batch_size]
            w = go.leaves(clf.store)
            loss = go.cls_loss_batch(clf, w, ad.constant(features[rows]), labels[rows])
            (grads,) = go.backward(loss, w)
            ad.adam_step(clf.store, grads, state, cfg.classifier_lr)
    return clf


# ids 0-9 are seen, 10-19 unseen
LABELLED_SPLIT = SplitSpec(
    "toy", [f"c{c}" for c in range(10)], [f"c{c}" for c in range(10, 20)]
)


def _labelled_set(rng, n, class_ids, m):
    """n rows over ``class_ids`` (each at least once when n allows),
    features spread around a per-class center."""
    labels = np.array(class_ids * (n // len(class_ids) + 1))[:n]
    rng.shuffle(labels)
    centers = {c: 3.0 * rng.normal(size=m) for c in class_ids}
    features = np.stack([centers[c] for c in labels]) + rng.normal(size=(n, m))
    return FeatureSet(features, labels, LABELLED_SPLIT)


@given(
    n=st.integers(2, 40),
    k=st.integers(2, 5),
    m=st.sampled_from([1, 3, 8, 64]),
    batch_size=st.sampled_from([4, 7, 64]),
    epochs=st.integers(1, 3),
    lr=st.sampled_from([0.05, 0.5]),
    seed=st.integers(0, 2**16),
)
@example(n=5, k=2, m=3, batch_size=64, epochs=2, lr=0.05, seed=0)  # n < batch
@example(n=23, k=2, m=8, batch_size=7, epochs=3, lr=0.05, seed=1)  # n % batch != 0
@settings(max_examples=40, deadline=None)
def test_classifier_fits_match_the_graph_loop_bit_for_bit(n, k, m, batch_size, epochs, lr, seed):
    rng = np.random.default_rng(seed)
    cfg = RunConfig(classifier_lr=lr, classifier_epochs=epochs, batch_size=batch_size, seed=seed)
    seen = _labelled_set(rng, max(n, 2), list(range(2)), m)
    synth = _labelled_set(rng, max(n, k), list(range(10, 10 + k)), m)

    def same_bits(clf, features, labels, class_ids):
        ref = _graph_fit(features, labels, class_ids, cfg)
        assert clf.class_ids == ref.class_ids
        for name in ("W", "b"):
            assert clf.store[name].tobytes() == ref.store[name].tobytes()

    same_bits(pretrain_classifier(seen, cfg), seen.features, seen.labels, [0, 1])
    same_bits(train_final_classifier(None, synth, cfg),
              synth.features, synth.labels, sorted(set(synth.labels.tolist())))
    same_bits(train_final_classifier(seen, synth, cfg),
              np.vstack([seen.features, synth.features]),
              np.concatenate([seen.labels, synth.labels]),
              [0, 1] + sorted(set(synth.labels.tolist())))


def _tensors_built_by(fit):
    """Number of Tensor constructions while ``fit()`` runs."""
    count = 0
    init = ad.Tensor.__init__

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ad.Tensor, "__init__", counting)
        fit()
    return count


def test_classifier_fit_builds_no_graph():
    features, labels = toy_classifier_data()
    synth = FeatureSet(features, labels, TOY_SPLIT)
    counts = {
        (epochs, batch_size): _tensors_built_by(lambda: train_final_classifier(
            None, synth, RunConfig(classifier_epochs=epochs, batch_size=batch_size)))
        for epochs, batch_size in [(1, 64), (1, 5), (6, 64), (6, 5)]
    }
    # not one, however many batches the fit takes
    assert set(counts.values()) == {0}


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_classifier_fit_at_a_huge_rate_fails_as_diverged():
    features, labels = toy_classifier_data()
    synth = FeatureSet(features, labels, TOY_SPLIT)
    with pytest.raises(ContractError, match=r"^loss is (nan|inf): training diverged$"):
        train_final_classifier(None, synth, RunConfig(classifier_lr=1e308, classifier_epochs=5))


def test_rows_of_maps_labels_to_classifier_rows():
    clf = init_classifier(3, [4, 1, 9], seed=0)
    assert clf.rows_of(np.array([9, 4, 4, 1])).tolist() == [2, 0, 0, 1]
    assert clf.rows_of(1).tolist() == [1]
