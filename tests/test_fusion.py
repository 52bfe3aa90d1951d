import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse.errors import ContractError, FormatError, ManifestError, ShapeError
from semfuse.fusion import (
    ClassSemantics,
    FusionParams,
    export_fused_csv,
    fuse_graph,
    fusion_grads,
    init_fusion,
    read_bundles,
    resolve_semantics,
    write_bundles,
)

import graph_oracle as go


def identity_fusion(d: int, alpha: float) -> FusionParams:
    store = {"W_sigma": np.eye(d), "b_sigma": np.zeros(d), "W_phi": np.eye(d), "b_phi": np.zeros(d)}
    return FusionParams(store, alpha, d)


def fuse(params: FusionParams, e_c, e_p) -> np.ndarray:
    """One class's vector through a one-row `fuse_graph` call."""
    rows = [np.atleast_2d(np.asarray(v, dtype=np.float64)) for v in (e_c, e_p)]
    return fuse_graph(params, *rows)[0]


def test_alpha_zero_returns_name_side():
    params = identity_fusion(3, alpha=0.0)
    e_c = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(fuse(params, e_c, np.array([9.0, 9.0, 9.0])), e_c)


def test_alpha_one_is_plain_sum():
    params = identity_fusion(2, alpha=1.0)
    out = fuse(params, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    assert np.allclose(out, [1.5, 1.0])


def test_hand_computed_matrix_case():
    store = {
        "W_sigma": np.array([[1.0, 0.0], [0.0, 2.0]]),
        "b_sigma": np.zeros(2),
        "W_phi": np.eye(2),
        "b_phi": np.zeros(2),
    }
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
    assert np.array_equal(a.store["W_sigma"], b.store["W_sigma"])
    assert np.array_equal(a.store["W_phi"], b.store["W_phi"])
    assert not np.array_equal(a.store["W_sigma"], c.store["W_sigma"])


def test_init_weight_bound_at_d_300():
    params = init_fusion(300, seed=0, alpha=0.5)
    bound = np.sqrt(6.0 / 600.0)
    assert np.abs(params.store["W_sigma"]).max() <= bound
    assert np.abs(params.store["W_phi"]).max() <= bound
    assert np.array_equal(params.store["b_sigma"], np.zeros(300))


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
    e_c = rng.normal(size=(6, 4))
    e_p = rng.normal(size=(6, 4))
    target = rng.normal(size=(6, 4))

    def objective():
        diff = fuse_graph(params, e_c, e_p) - target
        return (diff * diff).sum(), fusion_grads(params, e_c, e_p, 2.0 * diff)

    assert go.array_grad_check(objective, params.store) < 1e-4


def test_resolve_semantics_variations():
    rng = np.random.default_rng(4)
    sem = ClassSemantics(range(3), ["a", "b", "c"], rng.normal(size=(3, 3)), rng.normal(size=(3, 3)))
    by_name = resolve_semantics(sem, init_fusion(3, 0, 0.5, "only-class-name"))
    assert np.array_equal(by_name, sem.e_c)
    by_desc = resolve_semantics(sem, init_fusion(3, 0, 0.5, "only-chatgpt"))
    assert np.array_equal(by_desc, sem.e_p)
    fused = resolve_semantics(sem, identity_fusion(3, 1.0))
    assert np.allclose(fused, sem.e_c + sem.e_p)
    with pytest.raises(ContractError):
        init_fusion(3, 0, 0.5, "only-glove")


@pytest.mark.parametrize("d", [12, 16, 300])
def test_resolve_semantics_fuses_each_row_on_its_own(d):
    rng = np.random.default_rng(d)
    sem = ClassSemantics(range(5), list("abcde"), rng.normal(size=(5, d)), rng.normal(size=(5, d)))
    params = init_fusion(d, seed=1, alpha=0.7)
    fused = resolve_semantics(sem, params)
    assert fused.shape == (5, d)
    for i in range(5):
        assert fused[i].tobytes() == fuse(params, sem.e_c[i].copy(), sem.e_p[i].copy()).tobytes()


def test_class_semantics_sorts_rows_by_id_and_finds_them():
    sem = ClassSemantics([7, 2, 5], ["g", "b", "e"], [[7.0], [2.0], [5.0]], [[-7.0], [-2.0], [-5.0]])
    assert sem.ids.tolist() == [2, 5, 7] and sem.names == ["b", "e", "g"]
    assert sem.e_c[:, 0].tolist() == [2.0, 5.0, 7.0] and sem.d == 1
    assert sem.rows([7, 2, 7]).tolist() == [2, 0, 2]
    with pytest.raises(ManifestError, match=r"^classes without semantics: \[3, 9\]$"):
        sem.rows([9, 2, 3])


def test_class_semantics_refuses_bad_rows():
    with pytest.raises(ShapeError):
        ClassSemantics([0, 1], ["a", "b"], np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ContractError, match="duplicate class ids"):
        ClassSemantics([1, 1], ["a", "b"], np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ContractError):
        ClassSemantics([], [], np.zeros((0, 3)), np.zeros((0, 3)))


def test_fixed_variations_have_no_layers_to_train():
    for variation in ("only-class-name", "only-chatgpt"):
        fixed = init_fusion(4, seed=0, alpha=0.5, variation=variation)
        assert len(fixed.store) == 0
        assert fusion_grads(fixed, np.ones((2, 4)), np.ones((2, 4)), np.ones((2, 4))) == {}
    assert list(init_fusion(4, seed=0, alpha=0.5).store) == [
        "W_sigma", "b_sigma", "W_phi", "b_phi"
    ]


def test_bundle_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    names = ["bed", "night stand", "sofa"]
    sem = ClassSemantics(range(3), names, rng.normal(size=(3, 4)), rng.normal(size=(3, 4)))
    path = tmp_path / "bundles.csv"
    write_bundles(path, sem, "ours")
    loaded, variation = read_bundles(path)
    assert variation == "ours"
    assert loaded.names == ["bed", "night stand", "sofa"]
    assert loaded.ids.tolist() == [0, 1, 2]
    assert np.array_equal(sem.e_c, loaded.e_c)
    assert np.array_equal(sem.e_p, loaded.e_p)


def test_read_bundles_refuses_a_repeated_class(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("# bundles variation=ours d=1\nclass_id,name,ec_0,ep_0\n0,bed,1,2\n0,bed,3,4\n")
    with pytest.raises(FormatError, match="duplicate class ids"):
        read_bundles(path)


def test_read_bundles_rejects_missing_header(tmp_path):
    path = tmp_path / "noheader.csv"
    path.write_text("class_id,name,ec_0,ep_0\n0,bed,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_bundles(path)


def test_export_fused_csv(tmp_path):
    path = tmp_path / "fused.csv"
    export_fused_csv(path, np.array([0, 1]), np.array([[1.0, 2.0], [0.5, 1.5]]))
    assert path.read_text().splitlines() == ["class_id,v0,v1", "0,1,2", "1,0.5,1.5"]
