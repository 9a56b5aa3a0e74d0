import dataclasses

import pytest
from hypothesis import given, strategies as st

from maasar.corpus import Decision, segment_sentences
from maasar.detect import (
    filter_candidates,
    rule_score,
    select_sentence_rule_based,
)
from maasar.pipeline import PunishmentExtractor
from samples import (
    FINE_ROW,
    PRIOR_CASE_ROW,
    PROCEDURAL_ROW,
    REQUEST_ROW,
    SIMPLE_VERDICT,
    WORKED_EXAMPLE,
)

FILLER = "בית המשפט שמע את טיעוני הצדדים."


def sentence(text):
    return segment_sentences(text)[0]


class TestFilterCandidates:
    def test_three_of_many(self, lexicon):
        texts = [FILLER] * 37 + [WORKED_EXAMPLE, PRIOR_CASE_ROW, FINE_ROW]
        decision = Decision.from_text("c", " ".join(texts))
        assert len(decision.sentences) == 40
        candidates = filter_candidates(decision, lexicon)
        assert [s.index for s in candidates] == [37, 38, 39]

    def test_no_hits_empty(self, lexicon):
        decision = Decision.from_text("c", " ".join([FILLER] * 5))
        assert filter_candidates(decision, lexicon) == []

    def test_all_pass(self, lexicon):
        decision = Decision.from_text("c", " ".join([WORKED_EXAMPLE] * 3))
        assert len(filter_candidates(decision, lexicon)) == 3


class TestRuleScore:
    def test_verdict_scores_above_threshold(self, lexicon):
        scored = rule_score(sentence(SIMPLE_VERDICT.format(months=24)), lexicon)
        # one strong-positive verb plus the number+unit bonus, no negatives
        expected = (
            lexicon.tier_weights["strong_positive"]
            + lexicon.structural.number_with_unit_bonus
        )
        assert scored.score == expected
        assert scored.score >= lexicon.threshold
        assert scored.analysis.has_number and scored.analysis.has_time_unit

    def test_docket_past_tense_below_threshold(self, lexicon):
        scored = rule_score(sentence(PRIOR_CASE_ROW), lexicon)
        hits = scored.analysis.tier_hits
        expected = (
            hits.moderate_negative * lexicon.tier_weights["moderate_negative"]
            + lexicon.structural.number_with_unit_bonus
            + 2 * lexicon.structural.fine_marker_penalty
        )
        assert hits.moderate_negative >= 2  # slash and the past-tense verb at least
        assert scored.score == expected
        assert scored.score < lexicon.threshold

    def test_bare_number_gets_no_unit_penalty(self, lexicon):
        scored = rule_score(sentence(PROCEDURAL_ROW), lexicon)
        assert scored.analysis.has_number and not scored.analysis.has_time_unit
        assert scored.score == lexicon.structural.number_without_unit_penalty
        assert scored.score < lexicon.threshold

    def test_fine_markers_penalized(self, lexicon):
        scored = rule_score(sentence(FINE_ROW), lexicon)
        assert scored.score < lexicon.threshold

    def test_request_sentence_below_threshold(self, lexicon):
        scored = rule_score(sentence(REQUEST_ROW), lexicon)
        assert scored.score < lexicon.threshold

    def test_score_recomputable_from_fields(self, lexicon):
        scored = rule_score(sentence(WORKED_EXAMPLE), lexicon)
        structural = lexicon.structural
        analysis = scored.analysis
        rebuilt = analysis.tier_hits.weighted_sum()
        if analysis.has_number and analysis.has_time_unit:
            rebuilt += structural.number_with_unit_bonus
        elif analysis.has_number:
            rebuilt += structural.number_without_unit_penalty
        rebuilt += structural.fine_marker_penalty * len(
            lexicon.marker_positions(WORKED_EXAMPLE, lexicon.fine_markers)
        )
        assert scored.score == rebuilt


class TestSelect:
    def test_argmax(self, lexicon):
        decision = Decision.from_text(
            "c", " ".join([PRIOR_CASE_ROW, FILLER, WORKED_EXAMPLE])
        )
        assert select_sentence_rule_based(decision, lexicon) == 2

    def test_none_when_below_threshold(self, lexicon):
        decision = Decision.from_text("c", " ".join([PRIOR_CASE_ROW, FINE_ROW]))
        assert select_sentence_rule_based(decision, lexicon) is None

    def test_tie_breaks_toward_document_end(self, lexicon):
        verdict = SIMPLE_VERDICT.format(months=24)
        texts = [verdict] + [FILLER] * 27 + [verdict] + [FILLER] * 10
        decision = Decision.from_text("c", " ".join(texts))
        assert select_sentence_rule_based(decision, lexicon) == 28

    def test_selection_is_always_a_candidate(self, lexicon, synthetic):
        for decision in synthetic.decisions:
            chosen = select_sentence_rule_based(decision, lexicon)
            if chosen is not None:
                assert chosen in {s.index for s in filter_candidates(decision, lexicon)}

    def test_duplicating_sentence_elsewhere_keeps_scores(self, lexicon):
        base = Decision.from_text("c", " ".join([FILLER, WORKED_EXAMPLE]))
        extended = Decision.from_text("c", " ".join([WORKED_EXAMPLE, FILLER, WORKED_EXAMPLE]))
        score_base = rule_score(base.sentences[1], lexicon).score
        score_ext = rule_score(extended.sentences[2], lexicon).score
        assert score_base == score_ext


class TestMonotonicity:
    @given(st.sampled_from(["request", "prior", "fine", "plain"]), st.integers(0, 9))
    def test_adding_strong_positive_never_decreases(self, lexicon, base_kind, word_idx):
        base_text = {
            "request": REQUEST_ROW,
            "prior": PRIOR_CASE_ROW,
            "fine": FINE_ROW,
            "plain": SIMPLE_VERDICT.format(months=6),
        }[base_kind]
        words = sorted(lexicon.strong_positive)
        word = words[word_idx % len(words)]
        before = rule_score(sentence(base_text), lexicon).score
        after = rule_score(sentence(f"{word} {base_text}"), lexicon).score
        assert after >= before

    @given(st.sampled_from(["request", "prior", "fine", "plain"]), st.integers(0, 9))
    def test_adding_strong_negative_never_increases(self, lexicon, base_kind, word_idx):
        base_text = {
            "request": REQUEST_ROW,
            "prior": PRIOR_CASE_ROW,
            "fine": FINE_ROW,
            "plain": SIMPLE_VERDICT.format(months=6),
        }[base_kind]
        words = sorted(lexicon.strong_negative)
        word = words[word_idx % len(words)]
        before = rule_score(sentence(base_text), lexicon).score
        after = rule_score(sentence(f"{word} {base_text}"), lexicon).score
        assert after <= before


class TestEstimatorApi:
    def test_get_set_params(self, lexicon):
        selector = PunishmentExtractor(method="rule_based")
        assert selector.get_params()["lexicon"] is None
        selector.set_params(lexicon=lexicon)
        assert selector.get_params()["lexicon"] is lexicon
        with pytest.raises(ValueError, match="invalid parameter"):
            selector.set_params(bogus=1)

    def test_threshold_override_via_replace(self, lexicon):
        lenient = dataclasses.replace(lexicon, threshold=-10.0)
        decision = Decision.from_text("c", PRIOR_CASE_ROW)
        assert select_sentence_rule_based(decision, lenient) == 0
        assert select_sentence_rule_based(decision, lexicon) is None
