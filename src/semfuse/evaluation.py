"""Metrics and reports: per-class top-1 accuracy, GZSL harmonic mean,
and Borda-count comparison across semantic variations."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .datasets import FeatureSet
from .errors import ContractError, FormatError, ManifestError

METRIC_ORDER = ("acc", "acc_s", "acc_u", "hm")

# report CSV columns in file order, each an `EvalReport` field, with its parser
REPORT_COLUMNS = {
    "variation": str, "mode": str, "averaging": str,
    "acc": float, "acc_s": float, "acc_u": float, "hm": float, "borda": int,
}


@dataclass
class EvalReport:
    """Metric row for one variation; accuracies are percentages."""

    variation: str
    mode: str  # "zsl" | "gzsl"
    averaging: str = "macro"  # macro (per-class) or micro (per-sample)
    acc: float | None = None
    acc_s: float | None = None
    acc_u: float | None = None
    hm: float | None = None
    borda: int | None = None

    def __post_init__(self) -> None:
        for name, value in self.metrics().items():
            if not 0.0 <= value <= 100.0:
                raise ContractError(f"{name} {value} outside [0, 100]")
        if (self.hm is not None) != (self.acc_s is not None and self.acc_u is not None):
            raise ContractError("hm must be present exactly when acc_s and acc_u are")

    def metrics(self) -> dict[str, float]:
        return {
            name: getattr(self, name)
            for name in METRIC_ORDER
            if getattr(self, name) is not None
        }


def per_class_top1(
    predictions: Sequence[int],
    labels: Sequence[int],
    class_ids,
    micro: bool = False,
) -> float:
    """Mean over classes of within-class top-1 accuracy, as a percent.

    Classes from ``class_ids`` without test samples are left out of the
    mean; with ``micro`` the plain per-sample accuracy is returned
    instead.
    """
    predictions = np.asarray(predictions, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if predictions.shape != labels.shape or predictions.ndim != 1:
        raise ContractError(
            f"predictions {predictions.shape} do not match labels {labels.shape}"
        )
    class_ids = sorted(set(int(c) for c in class_ids))
    unknown = set(labels.tolist()) - set(class_ids)
    if unknown:
        raise ContractError(f"labels {sorted(unknown)} missing from the class set")
    counts = {c: int((labels == c).sum()) for c in class_ids}
    populated = [c for c in class_ids if counts[c] > 0]
    if not populated:
        raise ContractError("no class in the set has test samples")
    if micro:
        return 100.0 * float((predictions == labels).mean())
    per_class = [
        float((predictions[labels == c] == c).mean()) for c in populated
    ]
    return 100.0 * float(np.mean(per_class))


def harmonic_mean(acc_s: float, acc_u: float) -> float:
    """2 * acc_s * acc_u / (acc_s + acc_u), with 0 when both are 0."""
    for value in (acc_s, acc_u):
        if not 0.0 <= value <= 100.0:
            raise ContractError(f"accuracy {value} outside [0, 100]")
    if acc_s + acc_u == 0.0:
        return 0.0
    return 2.0 * acc_s * acc_u / (acc_s + acc_u)


def borda_count(reports) -> dict[str, int]:
    """One point per metric to every variation achieving its maximum.

    Accepts a list of EvalReports or a mapping variation -> metrics.
    All variations must carry the same metric set; a list that repeats a
    variation is a ContractError naming it.
    """
    if isinstance(reports, Mapping):
        table = {name: dict(metrics) for name, metrics in reports.items()}
    else:
        table = {}
        for r in reports:
            if r.variation in table:
                raise ContractError(f"variation {r.variation!r} appears more than once")
            table[r.variation] = r.metrics()
    if len(table) < 2:
        raise ContractError("borda count needs at least 2 variations")
    names = list(table)
    metric_sets = [frozenset(table[name]) for name in names]
    if len(set(metric_sets)) != 1:
        raise ContractError("variations carry different metric sets")
    points = {name: 0 for name in names}
    known = {m: i for i, m in enumerate(METRIC_ORDER)}
    for metric in sorted(metric_sets[0], key=lambda m: (known.get(m, len(known)), m)):
        best = max(table[name][metric] for name in names)
        for name in names:
            if table[name][metric] == best:
                points[name] += 1
    return points


def merge_modes(reports: list[EvalReport]) -> EvalReport:
    """Collapse one variation's zsl/gzsl rows into a single metric row;
    rows of different averaging are a ContractError."""
    averaging = sorted({r.averaging for r in reports})
    if len(averaging) > 1:
        raise ContractError(
            f"rows of variation {reports[0].variation!r} mix averaging {averaging}"
        )
    merged: dict[str, float] = {}
    for r in reports:
        for name, value in r.metrics().items():
            if name in merged and merged[name] != value:
                raise ContractError(
                    f"conflicting {name} values for variation {r.variation!r}"
                )
            merged[name] = value
    return EvalReport(reports[0].variation, "combined", reports[0].averaging, **merged)


def evaluate_run(
    predict: Callable[[np.ndarray, list[int]], np.ndarray],
    variation: str,
    test_set: FeatureSet,
    semantic_ids,
    mode: str,
    micro: bool = False,
) -> EvalReport:
    """Score a trained model on a test set; ``predict(z, candidate_ids)``
    gives the class id of each feature row ``z`` among the candidate
    classes, those of the mode that are in ``semantic_ids``, ascending.

    Each class set of the mode, the unseen classes for ZSL and the seen
    then the unseen classes for GZSL, is scored the same way: its test
    rows are predicted among the mode's candidates, then scored by
    per-class top-1. GZSL adds the harmonic mean of the two.
    """
    if mode not in ("zsl", "gzsl"):
        raise ContractError(f"unknown mode {mode!r}")
    averaging = "micro" if micro else "macro"

    seen, unseen = test_set.split.seen_ids, test_set.split.unseen_ids
    if mode == "zsl":
        class_sets, empty = [unseen], "no unseen-class samples in the test set"
    else:
        class_sets, empty = [seen, unseen], "gzsl test set needs both seen and unseen samples"
    candidates = _candidates(semantic_ids, frozenset().union(*class_sets), test_set)
    subsets = [test_set.rows_for(ids) for ids in class_sets]
    if any(subset.n == 0 for subset in subsets):
        raise ManifestError(empty)
    accs = [
        per_class_top1(predict(subset.features, candidates), subset.labels, ids, micro)
        for subset, ids in zip(subsets, class_sets)
    ]
    if mode == "zsl":
        return EvalReport(variation, mode, averaging, acc=accs[0])
    acc_s, acc_u = accs
    return EvalReport(
        variation, mode, averaging, acc_s=acc_s, acc_u=acc_u, hm=harmonic_mean(acc_s, acc_u)
    )


def _candidates(semantic_ids, wanted_ids, test_set: FeatureSet) -> list[int]:
    present = set(int(c) for c in np.unique(test_set.labels))
    known = set(int(c) for c in semantic_ids)
    missing = sorted((set(wanted_ids) & present) - known)
    if missing:
        raise ManifestError(f"test classes without semantics: {missing}")
    out = sorted(set(wanted_ids) & known)
    if not out:
        raise ManifestError("no candidate classes with semantics")
    return out


# ---------------------------------------------------------------------------
# report output


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (str, int)):
        return str(value)
    return f"{value:.4f}"


def write_report_csv(path, reports: list[EvalReport]) -> None:
    """Deterministic CSV: fixed column order and float formatting."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(REPORT_COLUMNS))
        for r in reports:
            writer.writerow([_fmt(getattr(r, name)) for name in REPORT_COLUMNS])


def read_report_csv(path) -> list[EvalReport]:
    """Rows written by `write_report_csv`; a missing column, a value
    that does not parse or a row `EvalReport` refuses is a FormatError
    naming ``path:line`` and the column."""
    reports = []
    with Path(path).open(encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            where = f"{path}:{reader.line_num}"
            fields = {}
            for name, parse in REPORT_COLUMNS.items():
                value = row.get(name)
                if value is None:
                    raise FormatError(f"{where}: missing column {name!r}")
                try:  # an empty metric cell is an absent metric
                    fields[name] = parse(value) if value or parse is str else None
                except ValueError as exc:
                    raise FormatError(f"{where}: column {name!r}: {exc}") from None
            try:
                reports.append(EvalReport(**fields))
            except ContractError as exc:
                raise FormatError(f"{where}: {exc}") from None
    return reports


def format_report_table(reports: list[EvalReport]) -> str:
    """Aligned text block: one row per variation, one column per metric."""
    headers = ["Variation", "Mode", "Acc", "Acc_s", "Acc_u", "HM", "BC"]
    rows = [
        [r.variation, r.mode]
        + [_fmt_cell(getattr(r, name)) for name in METRIC_ORDER]
        + ["-" if r.borda is None else str(r.borda)]
        for r in reports
    ]
    widths = [max(len(h), *(len(row[i]) for row in rows)) for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt_cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"
