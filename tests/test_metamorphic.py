"""Metamorphic properties of the rule-based pipeline (CheckList style,
Ribeiro et al., ACL 2020): rewrites of a seeded synthetic decision that must
leave its extracted months unchanged."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maasar.corpus import Decision
from maasar.extraction import extract
from maasar.numbers import render_number
from maasar.pipeline import choose_sentence
from maasar.synthetic import FILLERS, generate_corpus

NUM_DECISIONS = 60

# A standalone number of one to three digits (not part of a docket, date or amount).
SHORT_NUMBER_RE = re.compile(r"(?<!\S)\d{1,3}(?!\S)")


@pytest.fixture(scope="module")
def corpus(lexicon):
    return generate_corpus(lexicon.numerals, num_decisions=NUM_DECISIONS, seed=7)


def rule_based_months(decision, lexicon):
    return extract(decision, choose_sentence(decision, lexicon), lexicon).months


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
