import pytest

from maasar import analysis as analysis_module
from maasar.analysis import analyse
from maasar.cli import _detect_one, _extract_one
from maasar.detect import choose_rule_based, filter_candidates
from maasar.extraction import DurationScoringConfig, extract, score_duration_candidates
from maasar.pipeline import evaluate_rule_based


def candidate_analyses(decisions, lexicon):
    return [(d, analyse(s, lexicon)) for d in decisions for s in filter_candidates(d, lexicon)]


class TestExtractionReadsTheAnalysis:
    """Passing the chosen sentence's analysis gives what passing its index gives."""

    def test_extract_and_duration_scoring(self, lexicon, synthetic):
        for decision, a in candidate_analyses(synthetic.decisions, lexicon):
            index = a.sentence.index
            assert extract(decision, a, lexicon) == extract(decision, index, lexicon)
            assert extract(decision, a, lexicon, include_half=False) == extract(
                decision, index, lexicon, include_half=False
            )
            spans = list(a.spans)
            assert score_duration_candidates(a, spans, lexicon) == score_duration_candidates(
                a.sentence, spans, lexicon
            )


@pytest.fixture
def span_calls(monkeypatch):
    calls = []
    original = analysis_module.detect_spans

    def counting(sentence, *args, **kwargs):
        calls.append((sentence.text, sentence.index))
        return original(sentence, *args, **kwargs)

    monkeypatch.setattr(analysis_module, "detect_spans", counting)
    return calls


class TestEachCandidateAnalysedOnce:
    def test_rule_based_evaluation(self, lexicon, synthetic, span_calls):
        evaluate_rule_based(synthetic.decisions, synthetic.annotations, lexicon)
        expected = sum(len(filter_candidates(d, lexicon)) for d in synthetic.decisions)
        assert len(span_calls) == expected

    def test_cli_rows(self, lexicon, synthetic, span_calls):
        decision = synthetic.decisions[0]
        candidates = len(filter_candidates(decision, lexicon))
        row = _extract_one((None, lexicon, DurationScoringConfig()), decision)
        assert len(span_calls) == candidates
        best = choose_rule_based(decision, lexicon)
        assert row["sentence_index"] == best.sentence_index
        span_calls.clear()
        detected = _detect_one(lexicon, decision)
        assert len(span_calls) == candidates
        assert detected["score"] == best.score
