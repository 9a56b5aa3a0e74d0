import json

import pytest

from maasar import analysis as analysis_module
from maasar.analysis import analyse
from maasar.cli import run
from maasar.detect import choose_rule_based, filter_candidates
from maasar.extraction import extract
from maasar.metrics import evaluate_rule_based
from maasar.models import save_model
from maasar.pipeline import PunishmentExtractor, train_on_decisions
from maasar.synthetic import SyntheticCorpus, write_corpus


def candidate_analyses(decisions, lexicon):
    return [(d, analyse(s, lexicon)) for d in decisions for s in filter_candidates(d, lexicon)]


class TestExtractionReadsTheAnalysis:
    """Passing the chosen sentence's analysis gives what passing its index gives."""

    def test_extract_and_duration_scoring(self, lexicon, synthetic):
        for decision, a in candidate_analyses(synthetic.decisions, lexicon):
            index = a.sentence.index
            assert extract(decision, a, lexicon) == extract(decision, index, lexicon)


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

    def test_cli_rows(self, lexicon, synthetic, span_calls, tmp_path):
        decisions = synthetic.decisions[:3]
        paths = write_corpus(SyntheticCorpus(decisions, [], {}), tmp_path)
        candidates = sum(len(filter_candidates(d, lexicon)) for d in decisions)
        best = [choose_rule_based(d, lexicon) for d in decisions]
        span_calls.clear()

        def rows(*argv):
            out = tmp_path / "rows.jsonl"
            assert run([*argv, "--corpus", str(paths["corpus_dir"]), "--out", str(out)]) == 0
            return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]

        extracted = rows("extract", "--rule-based")
        assert len(span_calls) == candidates
        assert [r["sentence_index"] for r in extracted] == [b.sentence_index for b in best]
        span_calls.clear()
        detected = rows("detect")
        assert len(span_calls) == candidates
        assert [r["score"] for r in detected] == [b.score for b in best]

    def test_supervised_cli_extract(self, lexicon, synthetic, span_calls, tmp_path):
        decisions = synthetic.decisions[:3]
        paths = write_corpus(SyntheticCorpus(decisions, [], {}), tmp_path)
        model = tmp_path / "model.json"
        fitted = train_on_decisions(synthetic.decisions, synthetic.annotations, lexicon, "rf")
        save_model(fitted, model)
        candidates = sum(len(filter_candidates(d, lexicon)) for d in decisions)
        span_calls.clear()
        argv = ["extract", "--model", str(model), "--corpus", str(paths["corpus_dir"])]
        assert run([*argv, "--out", str(tmp_path / "rows.jsonl")]) == 0
        assert len(span_calls) == candidates

    def test_supervised_cli_eval(self, lexicon, synthetic, span_calls, tmp_path):
        paths = write_corpus(synthetic, tmp_path)
        candidates = sum(len(filter_candidates(d, lexicon)) for d in synthetic.decisions)
        span_calls.clear()
        argv = ["eval", "--model-kind", "rf", "--corpus", str(paths["corpus_dir"])]
        argv += ["--annotations", str(paths["annotations"]), "--out", str(tmp_path / "r.json")]
        assert run(argv) == 0
        assert len(span_calls) == candidates

    def test_supervised_estimator_predict(self, lexicon, synthetic, span_calls):
        extractor = PunishmentExtractor(method="rf", lexicon=lexicon)
        extractor.fit(synthetic.decisions, synthetic.annotations)
        decisions = synthetic.decisions[:6]
        span_calls.clear()
        results = extractor.predict(decisions)
        assert len(span_calls) == sum(len(filter_candidates(d, lexicon)) for d in decisions)
        assert all(r.sentence_index is not None for r in results)
