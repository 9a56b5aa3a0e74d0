"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
failure output) so the suite doubles as a checklist.
"""

import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from maasar.analysis import analyse
from maasar.corpus import Decision, segment_sentences
from maasar.detect import choose_rule_based
from maasar.extraction import extract, try_decomposition
from maasar.lexicon import load_lexicon
from maasar.metrics import (
    ErrorCategory,
    cohen_kappa,
    detection_prf,
    error_category,
    evaluate_rule_based,
    extraction_f1_and_error,
    fleiss_kappa,
    selection_f1,
)
from maasar.numbers import TimeUnit, compose, detect_spans, render_number, span_months
from maasar.pipeline import choose_sentences, cross_validate, make_folds
from maasar.synthetic import generate_corpus
from maasar.tokens import stripped_tokens
from samples import (
    BEHAVIOR_SUITE,
    ERROR_EXAMPLES,
    TWENTY_YEAR_SENTENCE,
    UNIT_ONLY_SENTENCE,
    WORKED_EXAMPLE,
    WORKED_EXAMPLE_MONTHS,
)

FILLER = "בית המשפט שמע את טיעוני הצדדים בהרחבה."


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL — {description}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS — {description}")


def spans_of(text, numerals):
    """The number spans of the first sentence of ``text``."""
    return detect_spans(stripped_tokens(segment_sentences(text)[0].text), numerals)


@pytest.fixture(scope="module")
def lex():
    return load_lexicon()


@pytest.fixture(scope="module")
def gold_corpus(lex):
    return generate_corpus(lex.numerals, num_decisions=24, seed=7)


def test_01_worked_example_end_to_end(lex):
    with criterion(1, "worked example extracts 30 months via decomposition, < 1 s"):
        start = time.perf_counter()
        texts = [FILLER] * 20 + [WORKED_EXAMPLE] + [FILLER] * 3
        decision = Decision.from_text("worked", " ".join(texts))
        best = choose_rule_based(decision, lex)
        assert best.sentence_index == 20
        result = extract(decision, best.analysis, lex)
        assert result.months == WORKED_EXAMPLE_MONTHS
        assert result.method == "decomposition"
        assert time.perf_counter() - start < 1.0


def test_02_numeral_round_trip(lex):
    with criterion(2, "numeral round trip 1-999 plus all variants, < 5 s"):
        start = time.perf_counter()
        numerals = lex.numerals
        for n in range(1, 1000):
            for gender in ("feminine", "masculine"):
                words = render_number(n, numerals, gender)
                assert compose(words.split(), numerals) == n, (n, gender, words)
        for word, value in {**numerals.units_words, **numerals.tens_words}.items():
            assert compose([word], numerals) == value, word
        for phrase, value in {
            **numerals.teens_words,
            **numerals.hundreds_words,
        }.items():
            assert compose(phrase.split(), numerals) == value, phrase
        assert time.perf_counter() - start < 5.0


def test_03_unit_only_elimination(lex):
    with criterion(3, "unit-only elimination and the >20 singular-unit form"):
        numerals = lex.numerals
        spans = spans_of(UNIT_ONLY_SENTENCE, numerals)
        year_spans = [s for s in spans if s.attached_unit is TimeUnit.YEAR]
        assert len(year_spans) == 1
        assert year_spans[0].value == 1
        assert span_months(year_spans[0]) == 12

        month_spans = spans_of("חודש מאסר ירוצה בעבודות שירות.", numerals)
        month_values = [s.value for s in month_spans if s.attached_unit is TimeUnit.MONTH]
        assert month_values == [1]

        spans = spans_of(TWENTY_YEAR_SENTENCE, numerals)
        twenty = [s for s in spans if s.value == 20]
        assert twenty and twenty[0].attached_unit is TimeUnit.YEAR
        assert span_months(twenty[0]) == 240


def test_04_decomposition_heuristic(lex):
    with criterion(4, "decomposition returns X on 1000 valid triples, none on 1000 perturbed"):
        numerals = lex.numerals
        rng = random.Random(42)
        template = (
            "בית המשפט גוזר על הנאשם {total} חודשי מאסר, מהם ירצה הנאשם "
            "{actual} חודשי מאסר בפועל והיתרה {conditional} חודשים על תנאי."
        )
        for _ in range(1000):
            actual = rng.randint(1, 160)
            conditional = rng.randint(1, 80)
            text = template.format(
                total=actual + conditional, actual=actual, conditional=conditional
            )
            spans = spans_of(text, numerals)
            assert try_decomposition(spans) == actual
        for _ in range(1000):
            actual = rng.randint(1, 160)
            conditional = rng.randint(1, 80)
            delta = rng.choice([-1, 1]) * rng.randint(1, 24)
            text = template.format(
                total=actual + conditional + delta,
                actual=actual,
                conditional=conditional,
            )
            spans = spans_of(text, numerals)
            assert try_decomposition(spans) is None


def test_05_behavior_suite(lex):
    with criterion(5, "behavioral suite: confusers rejected, combined verdict yields 30"):
        outcomes = {}
        for name, (text, gold_months) in BEHAVIOR_SUITE.items():
            decision = Decision.from_text(name, " ".join([FILLER, text, FILLER]))
            best = choose_rule_based(decision, lex)
            if best is None:
                outcomes[name] = 0
            else:
                outcomes[name] = extract(decision, best.analysis, lex).months or 0
            assert outcomes[name] == gold_months, (name, outcomes[name])
        # all five rows in one decision: only the combined verdict is selected
        combined = Decision.from_text(
            "combined", " ".join(text for text, _ in BEHAVIOR_SUITE.values())
        )
        best = choose_rule_based(combined, lex)
        assert best.analysis.sentence.text == WORKED_EXAMPLE
        assert extract(combined, best.analysis, lex).months == WORKED_EXAMPLE_MONTHS


def test_06_synthetic_gold_corpus(lex, gold_corpus):
    with criterion(
        6,
        "rule-based selection >= 0.9 with perfect durations; supervised recall >= 0.9; < 30 s",
    ):
        start = time.perf_counter()
        assert len(gold_corpus.decisions) >= 20
        assert all(30 <= len(d.sentences) <= 80 for d in gold_corpus.decisions)
        report = evaluate_rule_based(gold_corpus.decisions, gold_corpus.annotations, lex)
        assert report.sentence_selection_f1 >= 0.9
        assert report.duration_accuracy_given_correct_sentence == 1.0
        for kind in ("svm", "rf"):
            cv = cross_validate(
                gold_corpus.decisions,
                gold_corpus.annotations,
                lex,
                kind,
                num_folds=5,
                seed=0,
            )
            assert cv.detection.recall >= 0.9, kind
        assert time.perf_counter() - start < 30.0


def test_07_metric_oracles(lex):
    with criterion(7, "metric fixtures incl. kappa 0.63 and manual Fleiss to 1e-9"):
        prf_fixtures = [
            ({("a", 1)}, {("a", 1)}, (1.0, 1.0, 1.0)),
            ({("a", 1), ("a", 2), ("b", 5)}, {("a", 1), ("b", 5), ("c", 9)}, (2 / 3, 2 / 3, 2 / 3)),
            (set(), {("a", 1)}, (0.0, 0.0, 0.0)),
            ({("a", 1)}, set(), (0.0, 0.0, 0.0)),
            ({("a", 1), ("b", 2)}, {("a", 1)}, (0.5, 1.0, 2 / 3)),
        ]
        for predicted, gold, expected in prf_fixtures:
            prf = detection_prf(predicted, gold)
            assert (prf.precision, prf.recall, prf.f1) == pytest.approx(expected)

        sel_fixtures = [
            ({f"c{i}": (5 if i < 68 else 9) for i in range(100)}, {f"c{i}": {5} for i in range(100)}, 0.68),
            ({"a": None, "b": None}, {"a": {1}, "b": {2}}, 0.0),
            ({"a": 1, "b": 2}, {"a": {1}, "b": {2}}, 1.0),
            ({"a": 1, "b": 3, "c": None}, {"a": {1}, "b": {2}, "c": {7}}, 1 / 3),
            ({"a": 4}, {"a": {4, 5}}, 1.0),
        ]
        for predictions, gold, expected in sel_fixtures:
            value = selection_f1(predictions, gold)
            assert value == pytest.approx(expected)
            # one prediction per case: precision equals recall equals the value
            hits = sum(
                (p is None and not gold.get(c)) or (p is not None and p in gold.get(c, set()))
                for c, p in predictions.items()
            )
            assert value == pytest.approx(hits / len(predictions))

        paper_row = {
            f"c{i}": (20 if i < 65 else 34 if i < 95 else 4) for i in range(100)
        }  # 65 exact, |errors| total 30*14 + 5*16 = 500 -> mean 5 months
        ext_fixtures = [
            ({"a": 30, "b": 12}, {"a": 30, "b": 24}, 0.5, 6.0),
            ({"a": 7}, {"a": 7}, 1.0, 0.0),
            ({"a": None}, {"a": 18}, 0.0, 18.0),
            (paper_row, {f"c{i}": 20 for i in range(100)}, 0.65, 5.0),
            ({"a": 0, "b": 10}, {"a": 0, "b": 13}, 0.5, 1.5),
        ]
        for predicted, gold, f1, err in ext_fixtures:
            score = extraction_f1_and_error(predicted, gold)
            assert score.extraction_f1 == pytest.approx(f1)
            assert score.avg_month_error == pytest.approx(err)

        ann4 = ["yes"] * 9 + ["yes"] * 3 + ["no"] * 3 + ["no"] * 22
        ann5 = ["yes"] * 9 + ["no"] * 3 + ["yes"] * 3 + ["no"] * 22
        assert round(cohen_kappa(ann4, ann5), 2) == 0.63

        ratings = [
            ["ind", "ind", "not", "cant", "ind"],
            ["not", "not", "not", "not", "ind"],
            ["cant", "ind", "ind", "ind", "ind"],
            ["not", "not", "cant", "not", "not"],
            ["ind", "ind", "ind", "ind", "ind"],
            ["cant", "cant", "not", "cant", "cant"],
        ]
        classes = ("ind", "not", "cant")
        counts = [[sum(1 for x in row if x == c) for c in classes] for row in ratings]
        n_items, n_raters = len(ratings), 5
        p_j = [sum(c[j] for c in counts) / (n_items * n_raters) for j in range(3)]
        p_e = sum(p * p for p in p_j)
        p_bar = sum(
            (sum(v * v for v in c) - n_raters) / (n_raters * (n_raters - 1))
            for c in counts
        ) / n_items
        manual = (p_bar - p_e) / (1 - p_e)
        assert abs(fleiss_kappa(ratings, num_classes=3) - manual) < 1e-9


def test_08_determinism_and_fold_hygiene(lex, gold_corpus, tmp_path):
    with criterion(8, "seeded train+eval byte-identical; folds partition with zero leakage"):
        from maasar.cli import run

        from maasar.synthetic import write_corpus

        paths = write_corpus(gold_corpus, tmp_path)
        outputs = []
        for tag in ("first", "second"):
            model_path = tmp_path / f"model_{tag}.json"
            report_path = tmp_path / f"report_{tag}.json"
            assert (
                run(
                    [
                        "train",
                        "--corpus", str(paths["corpus_dir"]),
                        "--annotations", str(paths["annotations"]),
                        "--model", "rf",
                        "--seed", "13",
                        "--out", str(model_path),
                    ]
                )
                == 0
            )
            assert (
                run(
                    [
                        "eval",
                        "--corpus", str(paths["corpus_dir"]),
                        "--annotations", str(paths["annotations"]),
                        "--model-kind", "rf",
                        "--folds", "5",
                        "--seed", "13",
                        "--out", str(report_path),
                    ]
                )
                == 0
            )
            outputs.append((model_path.read_bytes(), report_path.read_bytes()))
        assert outputs[0] == outputs[1]

        ids = [d.case_id for d in gold_corpus.decisions]
        folds = make_folds(ids, 5, seed=13)
        seen = [x for fold in folds for x in fold]
        assert sorted(seen) == sorted(ids)
        for i, fold in enumerate(folds):
            others = {x for j, f in enumerate(folds) if j != i for x in f}
            assert others.isdisjoint(fold)


def test_09_argmax_invariance(lex):
    with criterion(9, "argmax invariant under strictly monotone transforms, 100 trials"):
        texts = [
            "אני גוזר על הנאשם 10 חודשי מאסר בפועל.",
            FILLER,
            "נידון ל-12 חודשי מאסר בפועל.",
            "קנס בסך 5,000 ש\"ח או 30 ימי מאסר תמורתו.",
            "עוד הוטל עליו מאסר על תנאי של 6 חודשים.",
        ]
        decision = Decision.from_text("inv", " ".join(texts))

        class Stub:
            token_count_scale = 1

            def __init__(self, values):
                self.values = values

            def predict_proba(self, X):
                return np.asarray(self.values[: len(X)], dtype=float)

        rng = np.random.default_rng(99)
        for _ in range(100):
            probs = rng.random(4)
            [baseline] = choose_sentences([decision], lex, Stub(probs))
            scale = rng.uniform(0.05, 9.0)
            shift = rng.uniform(-5.0, 5.0)
            ranked = np.sort(rng.random(4))  # arbitrary order-preserving table
            order = np.argsort(np.argsort(probs))
            transforms = (probs * scale + shift, probs**3, np.tanh(probs), ranked[order])
            for transformed in transforms:
                assert list(choose_sentences([decision], lex, Stub(transformed))) == [baseline]


def test_10_error_taxonomy(lex):
    with criterion(10, "published error examples map to their categories exactly"):
        for expected, text in ERROR_EXAMPLES.items():
            got = error_category(analyse(segment_sentences(text)[0], lex))
            assert got is ErrorCategory(expected), (text, got)
