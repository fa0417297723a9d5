"""Thresholding, labeling, and ranking metrics against exact-arithmetic oracles."""

import csv
import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocelad.ocel import DuplicateIdError
from ocelad.scoring import (
    DetectionReport,
    EmptyInputError,
    LengthMismatchError,
    NoPositivesError,
    SingleClassError,
    ThresholdResult,
    auc_pr,
    auc_roc,
    compute_metrics,
    f1_score,
    format_metrics_table,
    iqr_threshold,
    label_events,
    metrics_document,
    quantile,
    recall_at_k,
    report_from_json,
    report_to_csv,
    report_to_json,
)
from ocelad.numerics import make_rng
from ocelad.scoring import _descending_order, _midranks

from conftest import AWKWARD_CHARACTERS


def reference_report_document(report):
    """The document ``report_to_json`` lays out, as ``json.dumps(doc, indent=2)`` would."""
    events = []
    for index, event_id in enumerate(report.event_ids):
        entry = {
            "event_id": event_id,
            "score": float(report.scores[index]),
            "label": "anomalous" if report.labels[index] else "normal",
        }
        events.append(entry)
    doc = {
        "threshold": {
            "q1": report.threshold.q1,
            "q3": report.threshold.q3,
            "iqr": report.threshold.iqr,
            "tau": report.threshold.tau,
            "k_factor": report.threshold.k_factor,
        },
        "events": events,
    }
    return doc


report_texts = st.text(
    st.one_of(st.sampled_from(AWKWARD_CHARACTERS), st.characters(blacklist_categories=("Cs",))),
    max_size=6,
)
report_floats = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, 1e22, 1e16, 0.1])
)


@st.composite
def reports(draw):
    event_ids = tuple(draw(st.lists(report_texts, max_size=6, unique=True)))
    n = len(event_ids)
    scores = np.array(draw(st.lists(report_floats, min_size=n, max_size=n)), dtype=np.float64)
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    q1, q3, iqr, tau = (draw(report_floats) for _ in range(4))
    k_factor = draw(st.one_of(report_floats, st.integers(0, 3)))
    return DetectionReport(
        event_ids=event_ids,
        scores=scores,
        labels=labels,
        threshold=ThresholdResult(q1=q1, q3=q3, iqr=iqr, tau=tau, k_factor=k_factor),
    )


def auc_roc_pair_oracle(scores, truth) -> Fraction:
    """Exact pairwise-comparison oracle: P(score_pos > score_neg) + ties/2."""
    positives = [s for s, t in zip(scores, truth) if t]
    negatives = [s for s, t in zip(scores, truth) if not t]
    total = Fraction(0)
    for p in positives:
        for n in negatives:
            if p > n:
                total += 1
            elif p == n:
                total += Fraction(1, 2)
    return total / (len(positives) * len(negatives))


def auc_pr_oracle(scores, truth) -> Fraction:
    """Exact average precision: walk ranks descending, index breaks ties."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    n_pos = sum(truth)
    tp = 0
    total = Fraction(0)
    for rank, index in enumerate(order, start=1):
        if truth[index]:
            tp += 1
            total += Fraction(1, n_pos) * Fraction(tp, rank)
    return total


def recall_at_k_oracle(scores, truth, k) -> Fraction:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = sum(1 for i in order[:k] if truth[i])
    return Fraction(hits, sum(truth))



def loop_midranks(scores: np.ndarray) -> np.ndarray:
    """The per-group loop that ``_midranks`` replaced, kept as its oracle."""
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.float64)
    sorted_scores = scores[order]
    start = 0
    while start < scores.size:
        stop = start
        while stop + 1 < scores.size and sorted_scores[stop + 1] == sorted_scores[start]:
            stop += 1
        ranks[order[start : stop + 1]] = (start + stop) / 2.0 + 1.0
        start = stop + 1
    return ranks


def loop_auc_pr(scores: np.ndarray, truth: np.ndarray) -> float:
    """The running-sum loop that ``auc_pr`` replaced, kept as its oracle."""
    n_pos = int(truth.sum())
    true_positives = 0
    total = 0.0
    for rank, index in enumerate(_descending_order(scores), start=1):
        if truth[index]:
            true_positives += 1
            total += (1.0 / n_pos) * (true_positives / rank)
    return total


tie_prone_scores = st.lists(
    st.one_of(
        st.sampled_from([0.0, -0.0, 0.1, 0.3, 1.0, math.inf, -math.inf, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    max_size=40,
)

class TestQuantile:
    def test_single_value(self):
        for q in (0.0, 0.25, 0.5, 1.0):
            assert quantile([5.0], q) == 5.0

    def test_worked_quartiles(self):
        values = [1.0, 2.0, 3.0, 4.0, 100.0]
        assert quantile(values, 0.25) == 2.0
        assert quantile(values, 0.75) == 4.0

    def test_interpolated_median(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_matches_numpy_linear(self):
        rng = make_rng(14)
        for _ in range(100):
            values = rng.standard_normal(int(rng.integers(1, 30)))
            q = float(rng.random())
            assert abs(quantile(values, q) - float(np.quantile(values, q))) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            quantile([], 0.5)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


class TestIqrThreshold:
    def test_worked_example(self):
        result = iqr_threshold([1.0, 2.0, 3.0, 4.0, 100.0])
        assert (result.q1, result.q3, result.iqr, result.tau) == (2.0, 4.0, 2.0, 7.0)

    def test_constant_scores(self):
        result = iqr_threshold([3.0] * 10)
        assert result.iqr == 0.0
        assert result.tau == 3.0

    def test_zero_factor(self):
        result = iqr_threshold([1.0, 2.0, 3.0, 4.0, 100.0], k_factor=0.0)
        assert result.tau == result.q3

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            iqr_threshold([])

    @pytest.mark.parametrize("k_factor", [float("nan"), float("inf"), -0.5])
    def test_invalid_factor(self, k_factor):
        with pytest.raises(ValueError):
            iqr_threshold([1.0, 2.0, 3.0], k_factor=k_factor)


class TestLabeling:
    def test_worked_example(self):
        scores = [1.0, 2.0, 3.0, 4.0, 100.0]
        labels = label_events(scores, iqr_threshold(scores))
        assert list(labels) == [False, False, False, False, True]

    def test_constant_scores_no_anomalies(self):
        scores = [2.0] * 8
        labels = label_events(scores, iqr_threshold(scores))
        assert not labels.any()

    def test_tie_is_normal(self):
        threshold = ThresholdResult(q1=0.0, q3=1.0, iqr=1.0, tau=2.5, k_factor=1.5)
        labels = label_events([2.5, 2.5000001], threshold)
        assert list(labels) == [False, True]

    def test_monotone_in_k_factor(self):
        rng = make_rng(15)
        scores = rng.random(200)
        counts = [
            int(label_events(scores, iqr_threshold(scores, k)).sum())
            for k in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
        ]
        assert counts == sorted(counts, reverse=True)

    def test_scale_equivariance(self):
        rng = make_rng(16)
        scores = rng.random(100)
        base = label_events(scores, iqr_threshold(scores))
        for factor in (0.001, 3.0, 1e6):
            scaled = label_events(scores * factor, iqr_threshold(scores * factor))
            np.testing.assert_array_equal(scaled, base)


class TestF1:
    def test_perfect(self):
        truth = [True, False, True, False]
        assert f1_score(truth, truth) == 1.0

    def test_degenerate_zero(self):
        assert f1_score([False, False], [False, False]) == 0.0

    def test_hand_counts(self):
        # TP=2, FP=1, FN=1 -> precision = recall = 2/3 -> F1 = 2/3.
        pred = [True, True, True, False, False]
        truth = [True, True, False, True, False]
        assert abs(f1_score(pred, truth) - 2.0 / 3.0) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            f1_score([True], [True, False])


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.9, 0.8], [False, False, True, True]) == 1.0

    def test_all_tied_is_half(self):
        assert auc_roc([1.0] * 6, [True, False, True, False, False, False]) == 0.5

    def test_six_event_mixed_case(self):
        scores = [0.9, 0.1, 0.5, 0.5, 0.3, 0.7]
        truth = [True, False, True, False, False, False]
        assert auc_roc(scores, truth) == float(auc_roc_pair_oracle(scores, truth))

    def test_single_class(self):
        with pytest.raises(SingleClassError):
            auc_roc([1.0, 2.0], [True, True])

    def test_monotone_transform_invariance(self):
        rng = make_rng(18)
        scores = rng.standard_normal(50)
        truth = rng.random(50) < 0.3
        if not truth.any() or truth.all():
            truth[0], truth[1] = True, False
        base = auc_roc(scores, truth)
        assert auc_roc(np.exp(scores), truth) == base
        assert auc_roc(3.0 * scores + 7.0, truth) == base


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr([0.9, 0.8, 0.1, 0.2], [True, True, False, False]) == 1.0

    def test_single_positive_ranked_last(self):
        n = 8
        scores = list(range(n, 0, -1))
        truth = [False] * (n - 1) + [True]
        assert abs(auc_pr(scores, truth) - 1.0 / n) < 1e-12

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            auc_pr([1.0, 2.0], [False, False])


class TestRecallAtK:
    def test_perfect(self):
        assert recall_at_k([0.9, 0.8, 0.1], [True, True, False]) == 1.0

    def test_anomalies_below_cut(self):
        assert recall_at_k([0.9, 0.8, 0.1, 0.2], [False, False, True, True], k=2) == 0.0

    def test_k_equals_n(self):
        rng = make_rng(19)
        scores = rng.random(20)
        truth = rng.random(20) < 0.4
        truth[0] = True
        assert recall_at_k(scores, truth, k=20) == 1.0

    def test_default_k_is_positive_count(self):
        scores = [5.0, 4.0, 3.0, 2.0, 1.0]
        truth = [True, False, True, False, False]
        assert recall_at_k(scores, truth) == recall_at_k(scores, truth, k=2)

    def test_tie_broken_by_index(self):
        scores = [1.0, 1.0, 1.0, 0.0]
        truth = [False, True, False, False]
        assert recall_at_k(scores, truth, k=1) == 0.0
        assert recall_at_k(scores, truth, k=2) == 1.0

    def test_per_type_restriction_shape(self):
        scores = [0.9, 0.8, 0.7, 0.1, 0.05]
        types = ["a", "b", "a", "normal", "normal"]
        binary = [t != "normal" for t in types]
        k = sum(binary)
        type_a = [t == "a" for t in types]
        assert recall_at_k(scores, type_a, k=k) == 1.0

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            recall_at_k([1.0], [False], k=1)


class TestAgainstExactOracles:
    def test_thousand_random_instances(self):
        rng = make_rng(777)
        for trial in range(1000):
            n = int(rng.integers(2, 13))
            tie_free = trial % 2 == 0
            if tie_free:
                scores = list(rng.permutation(n).astype(float))
            else:
                scores = [float(x) for x in rng.integers(0, 4, size=n)]
            truth = [bool(b) for b in rng.random(n) < 0.4]
            if not any(truth):
                truth[int(rng.integers(0, n))] = True
            if all(truth):
                truth[int(rng.integers(0, n))] = False
            assert auc_roc(scores, truth) == float(auc_roc_pair_oracle(scores, truth))
            ap = auc_pr(scores, truth)
            assert abs(ap - float(auc_pr_oracle(scores, truth))) < 1e-12
            k = int(rng.integers(1, n + 1))
            assert recall_at_k(scores, truth, k=k) == float(
                recall_at_k_oracle(scores, truth, k)
            )

    @settings(deadline=None, max_examples=300)
    @given(scores=tie_prone_scores, data=st.data())
    def test_vectorized_ranks_and_ap_match_loops_bitwise(self, scores, data):
        n = len(scores)
        scores = np.array(scores, dtype=np.float64)
        assert _midranks(scores).tobytes() == loop_midranks(scores).tobytes()
        truth = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        if truth.any():
            assert auc_pr(scores, truth).hex() == loop_auc_pr(scores, truth).hex()


class TestReportSerialization:
    def build_report(self):
        scores = np.array([0.1, 0.12, 0.15, 0.2, 9.0])
        threshold = iqr_threshold(scores)
        return DetectionReport(
            event_ids=("e1", "e2", "e3", "e4", "e5"),
            scores=scores,
            labels=label_events(scores, threshold),
            threshold=threshold,
        )

    def test_json_round_trip(self):
        report = self.build_report()
        again = report_from_json(report_to_json(report))
        assert again.event_ids == report.event_ids
        np.testing.assert_array_equal(again.scores, report.scores)
        np.testing.assert_array_equal(again.labels, report.labels)
        assert again.threshold == report.threshold

    def test_json_deterministic(self):
        assert report_to_json(self.build_report()) == report_to_json(self.build_report())

    def test_csv_shape(self):
        text = report_to_csv(self.build_report())
        lines = text.strip().splitlines()
        assert lines[0] == "event_id,score,label"
        assert len(lines) == 6
        assert lines[5] == "e5,9.0,anomalous"

    def test_csv_quotes_special_ids(self):
        report = self.build_report()
        report.event_ids = ("a,b", 'q"x', "c\rd", "e4", "e5")
        rows = list(csv.reader(io.StringIO(report_to_csv(report), newline="")))
        assert [row[0] for row in rows[1:]] == list(report.event_ids)
        assert all(len(row) == 3 for row in rows)

    @settings(deadline=None)
    @given(reports())
    def test_csv_reads_back(self, report):
        expected = [
            [event_id, repr(float(score)), "anomalous" if label else "normal"]
            for event_id, score, label in zip(report.event_ids, report.scores, report.labels)
        ]
        rows = list(csv.reader(io.StringIO(report_to_csv(report), newline="")))
        assert rows[1:] == expected

    def test_csv_without_truth(self):
        # Ground truth lives in the log, not the report: no CSV column carries it.
        text = report_to_csv(self.build_report())
        assert text.splitlines()[0] == "event_id,score,label"
        assert "truth" not in text

    @settings(deadline=None)
    @given(reports())
    def test_json_matches_stdlib_layout(self, report):
        assert report_to_json(report) == json.dumps(reference_report_document(report), indent=2)

    def test_json_repeated_event_id_rejected(self):
        # One real anomaly listed twice would otherwise score k=2 with a
        # perfect F1, AUC and recall.
        doc = json.loads(report_to_json(self.build_report()))
        doc["events"][0]["event_id"] = "e5"
        with pytest.raises(DuplicateIdError):
            report_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("label", "Anomalous"),
            ("label", None),
            ("score", True),
            ("score", None),
            ("score", "0.5"),
            ("event_id", 7),
        ],
    )
    def test_json_misreadable_event_rejected(self, field, value):
        doc = json.loads(report_to_json(self.build_report()))
        doc["events"][2][field] = value
        with pytest.raises(ValueError, match="not a detection report"):
            report_from_json(json.dumps(doc))

    def test_json_non_finite_scores_read(self):
        report = self.build_report()
        report.scores = np.array([math.nan, math.inf, -math.inf, 0.2, 9.0])
        again = report_from_json(report_to_json(report))
        np.testing.assert_array_equal(again.scores, report.scores)

    def test_json_repeated_key_rejected(self):
        text = report_to_json(self.build_report())
        repeated = text.replace('"events": [', '"events": [], "events": [', 1)
        with pytest.raises(DuplicateIdError):
            report_from_json(repeated)


class TestComputeMetrics:
    def test_perfect_detector(self):
        scores = np.array([9.0, 8.0, 0.1, 0.2, 0.3, 0.1])
        labels = np.array([True, True, False, False, False, False])
        types = ("attr_swap", "random_activity", "normal", "normal", "normal", "normal")
        metrics = compute_metrics(scores, labels, types)
        assert metrics.f1 == 1.0
        assert metrics.auc_roc == 1.0
        assert metrics.auc_pr == 1.0
        assert metrics.recall_at_k == 1.0
        assert metrics.k == 2
        assert metrics.per_type_recall == {"attr_swap": 1.0, "random_activity": 1.0}

    def test_table_formatting(self):
        scores = np.array([9.0, 0.1, 0.2])
        labels = np.array([True, False, False])
        types = ("attr_swap", "normal", "normal")
        metrics = compute_metrics(scores, labels, types)
        single = format_metrics_table(metrics_document([("run1", metrics)]))
        assert "F1" in single and "run1" in single
        double = format_metrics_table(metrics_document([("run1", metrics), ("run2", metrics)]))
        assert "mean +/- std" in double
