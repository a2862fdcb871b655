"""Evaluation metrics over (input, gold, predicted) query triples.

Accuracy is the exact-match rate over all records.  Recall is the rate of
misspelled inputs that were properly corrected; precision is the rate of
system-changed queries whose correction is correct.  Comparisons happen on
NFC-lowercased, whitespace-collapsed strings.  Undefined denominators are
reported as absent (None), never as zero.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass
from typing import Callable, Iterable

from .dictionary import iter_tsv
from .errors import LoadError


def normalize_query(text: str) -> str:
    return " ".join(unicodedata.normalize("NFC", text).lower().split())


@dataclass(frozen=True)
class EvalRecord:
    input: str
    gold: str
    predicted: str

    @property
    def input_was_misspelled(self) -> bool:
        return normalize_query(self.input) != normalize_query(self.gold)

    @property
    def system_changed(self) -> bool:
        return normalize_query(self.predicted) != normalize_query(self.input)

    @property
    def prediction_correct(self) -> bool:
        return normalize_query(self.predicted) == normalize_query(self.gold)


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    precision: float | None
    recall: float | None
    total: int
    misspelled: int
    changed: int

    def to_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "total": self.total,
            "misspelled": self.misspelled,
            "changed": self.changed,
        }


def evaluate(records: Iterable[EvalRecord]) -> EvalReport:
    """Compute accuracy / precision / recall over the records."""
    records = list(records)
    if not records:
        raise ValueError("evaluate() needs at least one record")
    correct = sum(r.prediction_correct for r in records)
    misspelled = [r for r in records if r.input_was_misspelled]
    changed = [r for r in records if r.system_changed]
    recall = (sum(r.prediction_correct for r in misspelled) / len(misspelled)
              if misspelled else None)
    precision = (sum(r.prediction_correct for r in changed) / len(changed)
                 if changed else None)
    return EvalReport(
        accuracy=correct / len(records),
        precision=precision,
        recall=recall,
        total=len(records),
        misspelled=len(misspelled),
        changed=len(changed),
    )


def load_eval_records(path, predictor: Callable[[str], str] | None = None
                      ) -> list[EvalRecord]:
    """Eval TSV: ``input<TAB>gold`` with an optional third ``predicted``
    column.  Rows without a prediction are filled by calling ``predictor``;
    it is an error to omit both."""
    rows: list[EvalRecord] = []
    for line_no, fields in iter_tsv(path, "input", "gold", "predicted", optional=1):
        if len(fields) == 2:
            if predictor is None:
                raise LoadError("no 'predicted' column and no correction system "
                                "supplied", path, line_no)
            fields.append(predictor(fields[0]))
        rows.append(EvalRecord(*fields))
    return rows


def format_report(report: EvalReport) -> str:
    def fmt(value: float | None) -> str:
        return "  n/a" if value is None else f"{value:.4f}"

    return "\n".join([
        f"records    {report.total:>7d}",
        f"misspelled {report.misspelled:>7d}",
        f"changed    {report.changed:>7d}",
        f"accuracy   {fmt(report.accuracy):>7}",
        f"precision  {fmt(report.precision):>7}",
        f"recall     {fmt(report.recall):>7}",
    ])
