import json

import pytest

from maasar import analysis as analysis_module
from maasar.cli import run
from maasar.corpus import Decision
from maasar.detect import choose_rule_based, filter_candidates, rule_based_choices, score_ceiling
from maasar.metrics import evaluate_rule_based
from maasar.models import save_model
from maasar.pipeline import choose_sentences, train_on_decisions
from maasar.synthetic import SyntheticCorpus, generate_corpus, write_corpus


@pytest.fixture
def span_calls(monkeypatch):
    calls = []
    original = analysis_module.detect_spans

    def counting(stripped, *args, **kwargs):
        calls.append(stripped)
        return original(stripped, *args, **kwargs)

    monkeypatch.setattr(analysis_module, "detect_spans", counting)
    return calls


def reaching(decisions, lexicon):
    """The stripped tokens of each keyword candidate whose ceiling reaches the
    threshold, in order, after checking that some candidate's does not."""
    candidates = [s for d in decisions for s in filter_candidates(d, lexicon)]
    scans = [analysis_module.scan(s, lexicon) for s in candidates]
    kept = [s.stripped for s in scans if score_ceiling(s, lexicon.structural) >= lexicon.threshold]
    assert 0 < len(kept) < len(scans)
    return kept


class TestEachCandidateAnalysedOnce:
    """The rule path parses the numerals of each candidate that can reach the
    threshold once, and of no other; the supervised path, of every candidate."""

    def test_rule_based_evaluation(self, lexicon, synthetic, span_calls):
        evaluate_rule_based(synthetic.decisions, synthetic.annotations, lexicon)
        assert span_calls == reaching(synthetic.decisions, lexicon)

    def test_cli_rows(self, lexicon, synthetic, span_calls, tmp_path):
        decisions = synthetic.decisions[:3]
        paths = write_corpus(SyntheticCorpus(decisions, [], {}), tmp_path)
        candidates = reaching(decisions, lexicon)
        best = [choose_rule_based(d, lexicon) for d in decisions]
        span_calls.clear()

        def rows(*argv):
            out = tmp_path / "rows.jsonl"
            assert run([*argv, "--corpus", str(paths["corpus_dir"]), "--out", str(out)]) == 0
            return [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]

        extracted = rows("extract", "--rule-based")
        assert span_calls == candidates
        assert [r["sentence_index"] for r in extracted] == [b.sentence_index for b in best]
        span_calls.clear()
        detected = rows("detect")
        assert span_calls == candidates
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


class TestSentencesBuiltForCandidatesOnly:
    """Selection builds a ``Sentence`` for each keyword candidate and for no
    other sentence, and never the decision's full ``sentences`` tuple."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        original = Decision.sentence

        def recording(decision, index):
            calls.append((decision.case_id, index))
            return original(decision, index)

        monkeypatch.setattr(Decision, "sentence", recording)
        return calls

    @pytest.mark.parametrize("route", ["rule_based_choices", "rf"])
    def test_selection(self, lexicon, synthetic, built, route):
        # a fresh corpus: the shared fixture's sentences may be built already
        decisions = generate_corpus(lexicon.numerals, num_decisions=12, seed=1).decisions
        if route == "rf":
            model = train_on_decisions(synthetic.decisions, synthetic.annotations, lexicon, "rf")
        built.clear()
        if route == "rule_based_choices":
            chosen = list(rule_based_choices(decisions, lexicon))
        else:
            chosen = list(choose_sentences(decisions, lexicon, model))
        assert all(analysis is not None for analysis in chosen)
        candidates = [
            (d.case_id, i) for d in decisions for i in lexicon.candidate_indices(d.texts)
        ]
        assert built == candidates
        assert len(candidates) < sum(len(d.texts) for d in decisions) / 4
