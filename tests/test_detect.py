import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from maasar.analysis import analyse, scan
from maasar.corpus import Decision, prelabel_negatives
from maasar.detect import (
    _scored,
    at_or_above,
    best_scored,
    choose_rule_based,
    filter_candidates,
    score_candidates,
    score_ceiling,
)
from maasar.lexicon import TIER_NAMES, StructuralWeights
from maasar.tokens import stripped_tokens
from samples import (
    FINE_ROW,
    PRIOR_CASE_ROW,
    PROCEDURAL_ROW,
    REQUEST_ROW,
    SIMPLE_VERDICT,
    UNIT_ONLY_SENTENCE,
    WORKED_EXAMPLE,
    tier_weight,
)

FILLER = "בית המשפט שמע את טיעוני הצדדים."


def sentence(text):
    return Decision.from_text("c", text).sentence(0)


def rule_score(sentence, lexicon):
    """Any sentence's exact rule score: ``score_candidates`` scores only the
    candidates whose ceiling reaches the threshold, and must agree with this
    on every one it keeps."""
    return _scored(analyse(sentence, lexicon), lexicon.structural)


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

    @pytest.mark.parametrize("text", ["", " \t\n\x1c"])
    def test_blank_sentence_is_no_candidate(self, lexicon, text):
        decision = Decision("c", 0, "", texts=(text, WORKED_EXAMPLE))
        assert [s.index for s in filter_candidates(decision, lexicon)] == [1]
        assert prelabel_negatives(decision, lexicon) == [(0, True), (1, False)]
        blank = Decision("c", 0, "", texts=(text,))
        assert filter_candidates(blank, lexicon) == []
        assert choose_rule_based(blank, lexicon) is None


class TestRuleScore:
    def test_verdict_scores_above_threshold(self, lexicon):
        scored = rule_score(sentence(SIMPLE_VERDICT.format(months=24)), lexicon)
        # one strong-positive verb plus the number+unit bonus, no negatives
        expected = (
            tier_weight(lexicon, "strong_positive")
            + lexicon.structural.number_with_unit_bonus
        )
        assert scored.score == expected
        assert scored.score >= lexicon.threshold
        assert scored.analysis.has_number and scored.analysis.has_time_unit

    def test_docket_past_tense_below_threshold(self, lexicon):
        scored = rule_score(sentence(PRIOR_CASE_ROW), lexicon)
        counts = scored.analysis.tier_hits.counts()
        moderate_negative = counts[TIER_NAMES.index("moderate_negative")]
        expected = (
            moderate_negative * tier_weight(lexicon, "moderate_negative")
            + lexicon.structural.number_with_unit_bonus
            + 2 * lexicon.structural.fine_marker_penalty
        )
        assert moderate_negative >= 2  # slash and the past-tense verb at least
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
        _, fine, _, _ = lexicon.scan(WORKED_EXAMPLE, stripped_tokens(WORKED_EXAMPLE))
        rebuilt += structural.fine_marker_penalty * len(fine)
        assert scored.score == rebuilt


class TestSelect:
    def test_argmax(self, lexicon):
        decision = Decision.from_text(
            "c", " ".join([PRIOR_CASE_ROW, FILLER, WORKED_EXAMPLE])
        )
        assert choose_rule_based(decision, lexicon).sentence_index == 2

    def test_none_when_below_threshold(self, lexicon):
        decision = Decision.from_text("c", " ".join([PRIOR_CASE_ROW, FINE_ROW]))
        assert choose_rule_based(decision, lexicon) is None

    def test_tie_breaks_toward_document_end(self, lexicon):
        verdict = SIMPLE_VERDICT.format(months=24)
        texts = [verdict] + [FILLER] * 27 + [verdict] + [FILLER] * 10
        decision = Decision.from_text("c", " ".join(texts))
        assert choose_rule_based(decision, lexicon).sentence_index == 28

    def test_selection_is_always_a_candidate(self, lexicon, synthetic):
        for decision in synthetic.decisions:
            chosen = choose_rule_based(decision, lexicon)
            if chosen is not None:
                candidates = filter_candidates(decision, lexicon)
                assert chosen.sentence_index in {s.index for s in candidates}

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
    def test_threshold_override_via_replace(self, lexicon):
        lenient = dataclasses.replace(lexicon, threshold=-10.0)
        decision = Decision.from_text("c", PRIOR_CASE_ROW)
        assert choose_rule_based(decision, lenient).sentence_index == 0
        assert choose_rule_based(decision, lexicon) is None


# Any finite weight of either sign: small ones that tie and sum exactly, and
# large ones whose sums overflow to +-inf (inf + -inf is NaN).
WEIGHT = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-10, 10),
    st.sampled_from([1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


def picked(candidates):
    return [(c.sentence_index, c.score.hex()) for c in candidates]


class TestScoreCeiling:
    """``score_candidates`` parses the numerals only of candidates whose
    ceiling reaches the threshold; selection and detection must come out as
    if every candidate had been scored exactly."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_pruning_matches_exact_scores(self, lexicon, synthetic, data):
        samples = [WORKED_EXAMPLE, PRIOR_CASE_ROW, PROCEDURAL_ROW, FINE_ROW, REQUEST_ROW]
        samples += [UNIT_ONLY_SENTENCE, f"{FINE_ROW[:-1]} {FINE_ROW}"]
        decisions = [*synthetic.decisions, Decision.from_text("samples", " ".join(samples))]
        tiers = {}
        for tier in TIER_NAMES:
            entries = lexicon.tier(tier)
            weights = data.draw(st.lists(WEIGHT, min_size=len(entries), max_size=len(entries)))
            tiers[tier] = dict(zip(entries, weights))
        structural = StructuralWeights(*data.draw(st.tuples(WEIGHT, WEIGHT, WEIGHT)))
        drawn = dataclasses.replace(lexicon, **tiers, structural=structural)
        exact = [[rule_score(s, drawn) for s in filter_candidates(d, drawn)] for d in decisions]
        scores = sorted({c.score for row in exact for c in row if math.isfinite(c.score)})
        # a threshold equal to some candidate's score is where rounding matters
        threshold = data.draw(st.one_of(WEIGHT, st.sampled_from(scores)) if scores else WEIGHT)
        drawn = dataclasses.replace(drawn, threshold=threshold)
        for decision, every in zip(decisions, exact):
            pruned = score_candidates(decision, drawn)
            assert picked(at_or_above(pruned, threshold)) == picked(at_or_above(every, threshold))
            best = best_scored(pruned, threshold)
            expected = best_scored(every, threshold)
            assert picked([best] if best else []) == picked([expected] if expected else [])

    def test_ceiling_adds_terms_in_the_scores_order(self, lexicon):
        # 1 + bonus rounds up to 1 + 2**-52, and the fine term then ties up to
        # 1 + 2**-51; added fine term first, the same terms reach 1 + 2**-52
        text = "אני גוזר על הנאשם 24 חודשי מאסר בפועל וכן קנס."
        bonus, fine = 2**-53 + 2**-60, 2**-53
        tuned = dataclasses.replace(
            lexicon,
            strong_positive={**lexicon.strong_positive, "גוזר": 1.0},
            structural=StructuralWeights(bonus, -1.0, fine),
        )
        scanned = scan(sentence(text), tuned)
        assert scanned.tier_hits.weighted_sum() == 1.0 and len(scanned.fine_positions) == 1
        score = rule_score(sentence(text), tuned).score
        assert score == 1 + 2**-51 > (1.0 + fine) + bonus
        assert score_ceiling(scanned, tuned.structural) == score
        at_score = dataclasses.replace(tuned, threshold=score)
        kept = score_candidates(Decision.from_text("c", text), at_score)
        assert picked(kept) == [(0, score.hex())]
