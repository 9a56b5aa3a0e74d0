"""Metamorphic properties of the rule-based pipeline (CheckList style,
Ribeiro et al., ACL 2020): rewrites of a seeded synthetic decision that must
leave its extracted months unchanged."""

import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from maasar.analysis import DOCKET_RE
from maasar.corpus import Decision
from maasar.detect import rule_based_choices
from maasar.extraction import extract
from maasar.numbers import render_number
from maasar.synthetic import FILLERS, _distractors, generate_corpus
from maasar.tokens import FORMAT_MARKS

NUM_DECISIONS = 60

# A standalone number of one to three digits (not part of a docket, date or amount).
SHORT_NUMBER_RE = re.compile(r"(?<!\S)\d{1,3}(?!\S)")


@pytest.fixture(scope="module")
def corpus(lexicon):
    return generate_corpus(lexicon.numerals, num_decisions=NUM_DECISIONS, seed=7)


def rule_based_months(decision, lexicon):
    [chosen] = rule_based_choices([decision], lexicon)
    return extract(decision, chosen, lexicon).months


def rebuilt(decision, texts):
    return Decision.from_text(decision.case_id, " ".join(texts), decision.year, decision.court)


decision_indices = st.integers(0, NUM_DECISIONS - 1)


@settings(max_examples=60, deadline=None)
@given(
    index=decision_indices,
    insertions=st.lists(
        st.tuples(st.floats(0, 1), st.sampled_from(FILLERS), st.integers(1, 99)),
        min_size=1,
        max_size=8,
    ),
)
def test_inserting_filler_sentences(lexicon, corpus, index, insertions):
    decision = corpus.decisions[index]
    texts = [s.text for s in decision.sentences]
    for where, filler, witness in insertions:
        texts.insert(round(where * len(texts)), filler.format(i=witness))
    expected = rule_based_months(decision, lexicon)
    assert rule_based_months(rebuilt(decision, texts), lexicon) == expected


@pytest.mark.parametrize("gender", ["masculine", "feminine"])
@settings(max_examples=40, deadline=None)
@given(index=decision_indices)
def test_rendering_gold_numbers_as_words(lexicon, corpus, gender, index):
    decision = corpus.decisions[index]
    gold = corpus.gold[decision.case_id].sentence_index
    texts = [s.text for s in decision.sentences]
    texts[gold] = SHORT_NUMBER_RE.sub(
        lambda m: render_number(int(m.group()), lexicon.numerals, gender), texts[gold]
    )
    expected = rule_based_months(decision, lexicon)
    assert rule_based_months(rebuilt(decision, texts), lexicon) == expected


def prior_case_confusers(seed):
    """The generator's confusers that cite a prior case by its docket number."""
    return [text for text in _distractors(random.Random(seed)) if DOCKET_RE.search(text)]


@settings(max_examples=60, deadline=None)
@given(
    index=decision_indices,
    insertions=st.lists(
        st.tuples(st.floats(0, 1), st.integers(0, 2**32 - 1), st.integers(0, 1)),
        min_size=1,
        max_size=6,
    ),
)
def test_inserting_prior_case_confusers_before_the_verdict(lexicon, corpus, index, insertions):
    decision = corpus.decisions[index]
    gold = corpus.gold[decision.case_id].sentence_index
    texts = [s.text for s in decision.sentences]
    for where, seed, pick in insertions:
        confusers = prior_case_confusers(seed)
        texts.insert(round(where * gold), confusers[pick % len(confusers)])
        gold += 1
    expected = rule_based_months(decision, lexicon)
    assert rule_based_months(rebuilt(decision, texts), lexicon) == expected


@settings(max_examples=60, deadline=None)
@given(index=decision_indices, where=st.floats(0, 1))
def test_moving_the_verdict_within_the_last_30_percent(lexicon, corpus, index, where):
    decision = corpus.decisions[index]
    texts = [s.text for s in decision.sentences]
    verdict = texts.pop(corpus.gold[decision.case_id].sentence_index)
    # where the generator places a verdict: after 70% of the other sentences
    start = int(len(texts) * 0.7)
    texts.insert(start + round(where * (len(texts) - start)), verdict)
    expected = rule_based_months(decision, lexicon)
    assert rule_based_months(rebuilt(decision, texts), lexicon) == expected


@settings(max_examples=60, deadline=None)
@given(
    index=decision_indices,
    insertions=st.lists(
        st.tuples(st.floats(0, 1), st.booleans(), st.sampled_from(FORMAT_MARKS)),
        min_size=1,
        max_size=8,
    ),
)
@example(index=33, insertions=[(1.0, False, "\u200b")])  # after the verdict's final period
def test_format_marks_at_token_edges_of_the_verdict(lexicon, corpus, index, insertions):
    decision = corpus.decisions[index]
    gold = corpus.gold[decision.case_id].sentence_index
    texts = [s.text for s in decision.sentences]
    tokens = texts[gold].split()
    for where, before, mark in insertions:
        at = round(where * (len(tokens) - 1))
        tokens[at] = mark + tokens[at] if before else tokens[at] + mark
    texts[gold] = " ".join(tokens)

    def outcome(decision):
        [chosen] = rule_based_choices([decision], lexicon)
        result = extract(decision, chosen, lexicon)
        return result.months, result.method, result.sentence_index

    assert outcome(rebuilt(decision, texts)) == outcome(decision)
