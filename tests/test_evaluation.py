import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semfuse.datasets import FeatureSet, SplitSpec
from semfuse.errors import ContractError, FormatError, ManifestError
from semfuse.evaluation import (
    EvalReport,
    borda_count,
    evaluate_run,
    format_report_table,
    harmonic_mean,
    per_class_top1,
    read_report_csv,
    write_report_csv,
)

from _reference_tables import block_metric_tables


def test_all_correct_is_100():
    assert per_class_top1([0, 1, 1], [0, 1, 1], {0, 1}) == 100.0


def test_per_class_mean_not_sample_mean():
    # one class fully correct (3 samples), one fully wrong (1 sample)
    preds = [0, 0, 0, 0]
    labels = [0, 0, 0, 1]
    assert per_class_top1(preds, labels, {0, 1}) == 50.0
    assert per_class_top1(preds, labels, {0, 1}, micro=True) == 75.0


def test_classes_without_samples_are_excluded():
    assert per_class_top1([0], [0], {0, 1, 2}) == 100.0


def test_all_classes_empty_is_contract_error():
    with pytest.raises(ContractError):
        per_class_top1([], [], {0, 1})


def test_label_outside_class_set_is_contract_error():
    with pytest.raises(ContractError):
        per_class_top1([0], [5], {0, 1})


@given(seed=st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_per_class_top1_matches_tally_oracle(seed):
    rng = np.random.default_rng(seed)
    classes = [0, 1, 2, 3]
    labels = rng.integers(0, 4, size=rng.integers(1, 40))
    preds = rng.integers(0, 4, size=labels.size)
    got = per_class_top1(preds, labels, classes)
    accs = []
    for c in classes:
        rows = [i for i, l in enumerate(labels) if l == c]
        if rows:
            accs.append(sum(preds[i] == c for i in rows) / len(rows))
    assert got == pytest.approx(100.0 * sum(accs) / len(accs))


@given(seed=st.integers(0, 400))
@settings(max_examples=40, deadline=None)
def test_per_class_top1_is_order_invariant(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=20)
    preds = rng.integers(0, 3, size=20)
    perm = rng.permutation(20)
    assert per_class_top1(preds, labels, {0, 1, 2}) == pytest.approx(
        per_class_top1(preds[perm], labels[perm], {0, 1, 2})
    )


def test_harmonic_mean_reference_value():
    assert harmonic_mean(89.48, 14.20) == pytest.approx(24.51, abs=0.01)


def test_harmonic_mean_of_equal_values_is_identity():
    for x in (0.0, 12.5, 100.0):
        assert harmonic_mean(x, x) == pytest.approx(x)


def test_harmonic_mean_zero_annihilates():
    assert harmonic_mean(0.0, 73.4) == 0.0
    assert harmonic_mean(0.0, 0.0) == 0.0


@given(
    a=st.floats(0, 100, allow_nan=False),
    b=st.floats(0, 100, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_harmonic_mean_bounded_by_twice_the_minimum(a, b):
    hm = harmonic_mean(a, b)
    assert hm <= 2 * min(a, b) + 1e-9
    assert hm <= max(a, b) + 1e-9
    if a == b:
        assert hm == pytest.approx(a)


def test_borda_count_published_blocks_reproduce_exactly():
    for (method, dataset), (metrics, expected) in block_metric_tables().items():
        assert borda_count(metrics) == expected, f"{method}/{dataset}"


def test_borda_ties_award_every_leader():
    reports = {
        "a": {"acc": 50.0, "hm_like": 10.0},
        "b": {"acc": 50.0, "hm_like": 10.0},
    }
    assert borda_count(reports) == {"a": 2, "b": 2}


def test_borda_rejects_inconsistent_metric_sets():
    with pytest.raises(ContractError):
        borda_count({"a": {"acc": 1.0}, "b": {"acc": 1.0, "hm": 2.0}})


def test_borda_refuses_a_list_that_repeats_a_variation():
    reports = [EvalReport("ours", "zsl", acc=50.0), EvalReport("ours", "zsl", acc=70.0),
               EvalReport("only-chatgpt", "zsl", acc=60.0)]
    with pytest.raises(ContractError, match=r"^variation 'ours' appears more than once$"):
        borda_count(reports)


def test_borda_needs_two_variations():
    with pytest.raises(ContractError):
        borda_count({"a": {"acc": 1.0}})


def stub(mapping):
    """A predict function: ``mapping(row)`` for each row when that id is
    a candidate, the lowest candidate id otherwise."""

    def predict(z, candidate_ids):
        allowed = set(candidate_ids)
        out = []
        for row in np.atleast_2d(z):
            want = mapping(row)
            out.append(want if want in allowed else min(allowed))
        return np.array(out)

    return predict


def eval_fixture():
    features = np.vstack([np.full((4, 2), float(c)) for c in range(4)])
    labels = np.repeat([0, 1, 2, 3], 4)
    fs = FeatureSet(features, labels, SplitSpec("toy", ["c0", "c1"], ["c2", "c3"]))
    return fs, np.arange(4)


def test_evaluate_run_perfect_stub():
    fs, semantic_ids = eval_fixture()
    perfect = stub(lambda row: int(row[0]))
    zsl = evaluate_run(perfect, "ours", fs, semantic_ids, "zsl")
    assert zsl.acc == 100.0 and zsl.acc_s is None and zsl.variation == "ours"
    gzsl = evaluate_run(perfect, "ours", fs, semantic_ids, "gzsl")
    assert (gzsl.acc_s, gzsl.acc_u, gzsl.hm) == (100.0, 100.0, 100.0)


def test_evaluate_run_passes_ascending_candidate_ids():
    fs, semantic_ids = eval_fixture()
    calls = []

    def recording(z, candidate_ids):
        calls.append(list(candidate_ids))
        return np.full(len(z), candidate_ids[0])

    evaluate_run(recording, "ours", fs, semantic_ids[::-1], "zsl")
    evaluate_run(recording, "ours", fs, semantic_ids[::-1], "gzsl")
    assert calls == [[2, 3], [0, 1, 2, 3], [0, 1, 2, 3]]


def test_evaluate_run_seen_biased_stub_has_zero_hm():
    fs, semantic_ids = eval_fixture()
    always_seen = stub(lambda row: 0)
    gzsl = evaluate_run(always_seen, "ours", fs, semantic_ids, "gzsl")
    assert gzsl.acc_u == 0.0 and gzsl.hm == 0.0


def test_evaluate_run_matches_prediction_log_retally():
    fs, semantic_ids = eval_fixture()
    rng = np.random.default_rng(3)
    noisy = stub(lambda row: int(rng.integers(0, 4)))
    report = evaluate_run(noisy, "ours", fs, semantic_ids, "gzsl")
    # re-tally from an explicit prediction log with a fresh rng stream
    rng = np.random.default_rng(3)
    log = []
    for subset_ids in (fs.split.seen_ids, fs.split.unseen_ids):
        rows = fs.rows_for(subset_ids)
        preds = noisy(rows.features, semantic_ids)
        log.append((preds, rows.labels, subset_ids))
    acc_s = per_class_top1(*log[0])
    acc_u = per_class_top1(*log[1])
    assert report.acc_s == pytest.approx(acc_s)
    assert report.acc_u == pytest.approx(acc_u)
    assert report.hm == pytest.approx(harmonic_mean(acc_s, acc_u))


def test_evaluate_run_missing_semantics_is_manifest_error():
    fs, semantic_ids = eval_fixture()
    with pytest.raises(ManifestError):
        evaluate_run(stub(lambda r: 0), "ours", fs, semantic_ids[:2], "zsl")


def test_evaluate_run_records_averaging_choice():
    fs, semantic_ids = eval_fixture()
    exact = stub(lambda row: int(row[0]))
    assert evaluate_run(exact, "ours", fs, semantic_ids, "zsl").averaging == "macro"
    assert evaluate_run(exact, "ours", fs, semantic_ids, "zsl", micro=True).averaging == "micro"


def test_report_requires_hm_only_with_both_sides():
    with pytest.raises(ContractError):
        EvalReport("ours", "gzsl", acc_s=50.0, acc_u=None, hm=10.0)
    with pytest.raises(ContractError):
        EvalReport("ours", "gzsl", acc_s=50.0, acc_u=40.0)


def test_report_csv_round_trip(tmp_path):
    reports = [
        EvalReport("ours", "gzsl", acc_s=88.5, acc_u=14.25, hm=24.55, borda=3),
        EvalReport("only-class-name", "zsl", acc=45.5),
    ]
    path = tmp_path / "report.csv"
    write_report_csv(path, reports)
    back = read_report_csv(path)
    assert back[0].acc_s == pytest.approx(88.5)
    assert back[0].borda == 3
    assert back[1].acc == pytest.approx(45.5)
    assert back[1].hm is None


def test_report_csv_refuses_a_borda_that_is_not_an_integer(tmp_path):
    path = tmp_path / "report.csv"
    write_report_csv(path, [EvalReport("ours", "zsl", acc=45.5)])
    path.write_text(path.read_text() + "only-chatgpt,zsl,macro,40.0,,,,1.5\n")
    with pytest.raises(FormatError, match=r"report.csv:3: column 'borda': invalid literal for int"):
        read_report_csv(path)


def test_format_report_table_shape():
    text = format_report_table(
        [EvalReport("ours", "gzsl", acc_s=88.5, acc_u=14.2, hm=24.5, borda=4)]
    )
    lines = text.splitlines()
    assert lines[0].split()[:2] == ["Variation", "Mode"]
    assert "88.50" in lines[2] and "4" in lines[2]
