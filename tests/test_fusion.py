import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse import autodiff as ad
from semfuse.errors import ContractError, FormatError, ShapeError
from semfuse.fusion import (
    FusionParams,
    SemanticBundle,
    export_fused_csv,
    fuse,
    fuse_graph,
    init_fusion,
    read_bundles,
    resolve_semantics,
    write_bundles,
)


def identity_fusion(d: int, alpha: float) -> FusionParams:
    store = ad.ParamStore()
    store.add("W_sigma", np.eye(d))
    store.add("b_sigma", np.zeros(d))
    store.add("W_phi", np.eye(d))
    store.add("b_phi", np.zeros(d))
    return FusionParams(store, alpha, d)


def test_alpha_zero_returns_name_side():
    params = identity_fusion(3, alpha=0.0)
    e_c = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(fuse(params, e_c, np.array([9.0, 9.0, 9.0])), e_c)


def test_alpha_one_is_plain_sum():
    params = identity_fusion(2, alpha=1.0)
    out = fuse(params, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.allclose(out, [1.5, 1.0])


def test_hand_computed_matrix_case():
    store = ad.ParamStore()
    store.add("W_sigma", np.array([[1.0, 0.0], [0.0, 2.0]]))
    store.add("b_sigma", np.zeros(2))
    store.add("W_phi", np.eye(2))
    store.add("b_phi", np.zeros(2))
    params = FusionParams(store, 0.5, 2)
    out = fuse(params, np.array([1.0, 1.0]), np.array([2.0, 0.0]))
    assert np.allclose(out, [2.0, 2.0])


def test_dimension_mismatch_is_shape_error():
    params = identity_fusion(3, 0.5)
    with pytest.raises(ShapeError):
        fuse(params, np.zeros(3), np.zeros(4))


def test_init_is_deterministic_in_seed():
    a = init_fusion(8, seed=42, alpha=0.5)
    b = init_fusion(8, seed=42, alpha=0.5)
    c = init_fusion(8, seed=43, alpha=0.5)
    assert np.array_equal(a.store["W_sigma"].data, b.store["W_sigma"].data)
    assert np.array_equal(a.store["W_phi"].data, b.store["W_phi"].data)
    assert not np.array_equal(a.store["W_sigma"].data, c.store["W_sigma"].data)


def test_init_weight_bound_at_d_300():
    params = init_fusion(300, seed=0, alpha=0.5)
    bound = np.sqrt(6.0 / 600.0)
    assert np.abs(params.store["W_sigma"].data).max() <= bound
    assert np.abs(params.store["W_phi"].data).max() <= bound
    assert np.array_equal(params.store["b_sigma"].data, np.zeros(300))


def test_alpha_outside_unit_interval_rejected():
    with pytest.raises(ContractError):
        init_fusion(4, seed=0, alpha=1.5)


@given(
    scale_a=st.floats(-2, 2, allow_nan=False),
    scale_b=st.floats(-2, 2, allow_nan=False),
    seed=st.integers(0, 1000),
)
@settings(max_examples=30, deadline=None)
def test_fuse_is_linear_per_argument(scale_a, scale_b, seed):
    rng = np.random.default_rng(seed)
    params = init_fusion(5, seed=seed, alpha=0.7)
    x, y = rng.normal(size=5), rng.normal(size=5)
    e_p = rng.normal(size=5)
    combined = fuse(params, scale_a * x + scale_b * y, e_p)
    split_sum = (
        scale_a * fuse(params, x, e_p)
        + scale_b * fuse(params, y, e_p)
        - (scale_a + scale_b - 1) * fuse(params, np.zeros(5), e_p)
    )
    assert np.allclose(combined, split_sum, atol=1e-9)


@given(alpha=st.sampled_from([0.0, 0.1, 0.3, 0.5, 0.7, 1.0]), seed=st.integers(0, 500))
@settings(max_examples=30, deadline=None)
def test_alpha_scales_only_description_term(alpha, seed):
    rng = np.random.default_rng(seed)
    d = 4
    e_c, e_p = rng.normal(size=d), rng.normal(size=d)
    with_alpha = fuse(identity_fusion(d, alpha), e_c, e_p)
    without = fuse(identity_fusion(d, 0.0), e_c, e_p)
    assert np.allclose(with_alpha - without, alpha * e_p)


def test_gradient_through_fuse_passes_grad_check():
    rng = np.random.default_rng(2)
    params = init_fusion(4, seed=2, alpha=0.5)
    e_c = ad.constant(rng.normal(size=(6, 4)))
    e_p = ad.constant(rng.normal(size=(6, 4)))
    target = ad.constant(rng.normal(size=(6, 4)))

    def loss_fn():
        return ad.sum_sq(ad.sub(fuse_graph(params, e_c, e_p), target))

    assert ad.grad_check(loss_fn, params.store) < 1e-4


def test_resolve_semantics_variations():
    rng = np.random.default_rng(4)
    bundles = [
        SemanticBundle(i, f"class_{i}", rng.normal(size=3), rng.normal(size=3))
        for i in range(3)
    ]
    by_name = resolve_semantics(bundles, init_fusion(3, 0, 0.5, "only-class-name"))
    assert all(np.array_equal(b.e, b.e_c) for b in by_name)
    by_desc = resolve_semantics(bundles, init_fusion(3, 0, 0.5, "only-chatgpt"))
    assert all(np.array_equal(b.e, b.e_p) for b in by_desc)
    fused = resolve_semantics(bundles, identity_fusion(3, 1.0))
    assert all(np.allclose(b.e, b.e_c + b.e_p) for b in fused)
    with pytest.raises(ContractError):
        init_fusion(3, 0, 0.5, "only-glove")


def test_fixed_variations_have_no_layers_to_train():
    for variation in ("only-class-name", "only-chatgpt"):
        fixed = init_fusion(4, seed=0, alpha=0.5, variation=variation)
        assert len(fixed.store) == 0
        assert fixed.weight_penalty().item() == 0.0
    assert init_fusion(4, seed=0, alpha=0.5).store.names() == [
        "W_sigma", "b_sigma", "W_phi", "b_phi"
    ]


def test_bundle_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    bundles = [
        SemanticBundle(i, name, rng.normal(size=4), rng.normal(size=4))
        for i, name in enumerate(["bed", "night stand", "sofa"])
    ]
    path = tmp_path / "bundles.csv"
    write_bundles(path, bundles, "ours")
    loaded, variation = read_bundles(path)
    assert variation == "ours"
    assert [b.name for b in loaded] == ["bed", "night stand", "sofa"]
    for orig, back in zip(bundles, loaded):
        assert np.array_equal(orig.e_c, back.e_c)
        assert np.array_equal(orig.e_p, back.e_p)


def test_read_bundles_rejects_missing_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("class_id,name,ec_0,ep_0\n0,bed,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_bundles(path)


def test_export_fused_csv(tmp_path):
    bundles = [
        SemanticBundle(1, "b", np.zeros(2), np.zeros(2), np.array([0.5, 1.5])),
        SemanticBundle(0, "a", np.zeros(2), np.zeros(2), np.array([1.0, 2.0])),
    ]
    path = tmp_path / "fused.csv"
    export_fused_csv(path, bundles)
    lines = path.read_text().splitlines()
    assert lines[0] == "class_id,v0,v1"
    assert lines[1].startswith("0,")  # sorted by class id
    with pytest.raises(ContractError):
        export_fused_csv(path, [SemanticBundle(0, "a", np.zeros(2), np.zeros(2))])
