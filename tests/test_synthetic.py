from maasar.corpus import load_annotations, load_corpus
from maasar.synthetic import GOLD_FORMS, generate_corpus, write_corpus


class TestGenerator:
    def test_shape(self, synthetic):
        assert len(synthetic.decisions) == 24
        for decision in synthetic.decisions:
            assert 30 <= len(decision.sentences) <= 80

    def test_every_decision_has_one_gold(self, synthetic):
        for decision in synthetic.decisions:
            info = synthetic.gold[decision.case_id]
            positives = [
                a
                for a in synthetic.annotations
                if a.case_id == decision.case_id and a.is_punishment
            ]
            assert len(positives) == 1
            assert positives[0].sentence_index == info.sentence_index
            assert positives[0].months == info.months

    def test_all_gold_forms_used(self, synthetic):
        forms = {info.form for info in synthetic.gold.values()}
        assert forms == set(GOLD_FORMS)

    def test_deterministic(self, lexicon):
        a = generate_corpus(lexicon.numerals, num_decisions=5, seed=3)
        b = generate_corpus(lexicon.numerals, num_decisions=5, seed=3)
        assert a.decisions == b.decisions  # texts, case ids, years and courts

    def test_annotations_cover_keyword_sentences(self, synthetic):
        annotated = {(a.case_id, a.sentence_index) for a in synthetic.annotations}
        for decision in synthetic.decisions:
            for sentence in decision.sentences:
                if "מאסר" in sentence.text:
                    assert (decision.case_id, sentence.index) in annotated


class TestWriteCorpus:
    def test_round_trips_through_loaders(self, lexicon, tmp_path, synthetic):
        paths = write_corpus(synthetic, tmp_path)
        decisions, errors = load_corpus(paths["corpus_dir"])
        assert not errors
        assert len(decisions) == len(synthetic.decisions)
        reloaded = {d.case_id: d for d in decisions}
        for original in synthetic.decisions:
            assert reloaded[original.case_id] == original  # texts and metadata
            written = (paths["corpus_dir"] / f"{original.case_id}.txt").read_bytes()
            assert written == " ".join(original.texts).encode("utf-8")
        records, ann_errors = load_annotations(paths["annotations"])
        assert not ann_errors
        assert len(records) == len(synthetic.annotations)
