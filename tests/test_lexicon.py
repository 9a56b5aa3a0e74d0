import dataclasses
import json

import pytest
from hypothesis import given, strategies as st

from maasar.corpus import Decision
from maasar.lexicon import (
    LexiconError,
    TIER_NAMES,
    TierHit,
    default_lexicon_path,
    load_lexicon,
)
from maasar.numbers import TimeUnit
from maasar.tokens import EDGE_PUNCT, stripped_tokens


def sentence(text):
    return Decision.from_text("c", text).sentence(0)


def tier_hits(text, lexicon):
    return lexicon.scan(text, stripped_tokens(text))[0]


def default_doc():
    return json.loads(default_lexicon_path().read_text(encoding="utf-8"))


class TestLoad:
    def test_bundled_default_invariants(self, lexicon):
        tiers = [set(lexicon.tier(name)) for name in TIER_NAMES]
        for i, a in enumerate(tiers):
            for b in tiers[i + 1 :]:
                assert a.isdisjoint(b)
        weights = lexicon.tier_weights
        assert (
            weights["strong_positive"]
            > weights["moderate_positive"]
            > 0
            > weights["moderate_negative"]
            > weights["strong_negative"]
        )
        assert lexicon.filter_keywords
        assert lexicon.numerals.time_unit_words["חודשים"] is TimeUnit.MONTH
        assert lexicon.numerals.time_unit_words["שנות"] is TimeUnit.YEAR

    def test_overlapping_tiers_rejected(self, tmp_path):
        doc = default_doc()
        doc["strong_negative"].append({"surface": doc["strong_positive"][0]["surface"]})
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(LexiconError, match="disjoint"):
            load_lexicon(path)

    def test_missing_section_rejected(self, tmp_path):
        for section in (
            "time_units", "tier_weights", "threshold", "structural", "duration",
            "actual_markers", "fine_markers", "probation_markers", "unit_only", "dual_units",
        ):
            doc = default_doc()
            del doc[section]
            path = tmp_path / "lex.json"
            path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
            with pytest.raises(LexiconError, match=section):
                load_lexicon(path)

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("fine_markers", " "),
            ("actual_markers", ""),
            ("probation_markers", "\t"),
            ("strong_positive", {"surface": ""}),
            ("moderate_negative", " "),
        ],
    )
    def test_blank_marker_or_tier_entry_named(self, tmp_path, section, entry):
        doc = default_doc()
        position = len(doc[section])
        doc[section].append(entry)
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(LexiconError) as raised:
            load_lexicon(path)
        assert str(raised.value) == f"lexicon section {section!r} entry {position} is empty"

    def test_missing_numeral_section_rejected(self, tmp_path):
        for section in ("tens", "half"):
            doc = default_doc()
            del doc["numerals"][section]
            path = tmp_path / "lex.json"
            path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
            with pytest.raises(LexiconError, match=section):
                load_lexicon(path)


class TestMatchTiers:
    def test_strong_positive_with_time_unit(self, lexicon):
        verb = sorted(lexicon.strong_positive)[0]
        hits = tier_hits(sentence(f"השופט {verb} עונש של 10 חודשים.").text, lexicon)
        assert hits.strong_positive == 1

    def test_docket_slash_hits_moderate_negative(self, lexicon):
        hits = tier_hits(sentence("ראו תיק 1049/12 בעניין אחר.").text, lexicon)
        assert hits.moderate_negative >= 1
        assert any(h.surface == "/" for h in hits.hits)

    def test_empty_sentence_all_zero(self, lexicon):
        hits = tier_hits("", lexicon)
        assert (
            hits.strong_positive
            == hits.moderate_positive
            == hits.moderate_negative
            == hits.strong_negative
            == 0
        )

    def test_whitespace_insensitive(self, lexicon):
        verb = sorted(lexicon.strong_positive)[0]
        text = f"אני {verb} עונש."
        padded = f"   {text}  "
        assert tier_hits(sentence(text).text, lexicon).hits == tier_hits(padded, lexicon).hits

    def test_phrase_matching_is_token_anchored(self, lexicon):
        # a word embedded inside a longer token must not match a tier entry
        verb = sorted(lexicon.strong_positive)[0]
        embedded = f"מילה{verb}דבוקה"
        hits = tier_hits(embedded, lexicon)
        assert hits.strong_positive == 0

    @given(st.integers(0, 13))
    def test_removing_lexicon_words_zeroes_hits(self, lexicon, seed):
        words = sorted(lexicon.strong_positive) + sorted(lexicon.strong_negative)
        word = words[seed % len(words)]
        text = f"פתיח {word} ועוד 12/3 (סוגריים) סיום."
        hits = tier_hits(text, lexicon)
        assert hits.strong_positive + hits.strong_negative >= 1
        cleaned = " ".join(
            t for t in text.split() if t not in words
        ).replace("/", " ").replace("(", " ").replace(")", " ")
        cleaned_hits = tier_hits(cleaned, lexicon)
        assert cleaned_hits.strong_positive == cleaned_hits.strong_negative == 0
        assert cleaned_hits.moderate_negative == 0

    def test_marker_positions_phrases(self, lexicon):
        text = "הוטל עליו מאסר על תנאי למשך שנה."
        _, _, probation, _ = lexicon.scan(text, stripped_tokens(text))
        assert probation == (3,)

    def test_filter_keyword_substring(self, lexicon):
        texts = ["נגזר עליו עונש של מאסר בפועל", "הוא נידון למאסר ממושך", "אין כאן מילת מפתח"]
        assert list(lexicon.candidate_indices(texts)) == [0, 1]


# The per-entry loops that found tier hits and marker positions before the
# lexicon was compiled into one first-word index, kept as references for
# Lexicon.scan.
def reference_match_tiers(text, lexicon):
    stripped = [t.strip(EDGE_PUNCT) for t in text.split()]
    hits = []
    for tier_name in TIER_NAMES:
        for surface, weight in lexicon.tier(tier_name).items():
            if len(surface) == 1 and not surface.isalnum():
                start = 0
                while True:
                    pos = text.find(surface, start)
                    if pos < 0:
                        break
                    hits.append(TierHit(tier_name, surface, pos, weight))
                    start = pos + 1
            else:
                words = surface.split()
                span = len(words)
                for i in range(0, len(stripped) - span + 1):
                    if stripped[i : i + span] == words:
                        hits.append(TierHit(tier_name, surface, i, weight))
    hits.sort(key=lambda h: (h.tier, h.position, h.surface))
    return tuple(hits)


def reference_marker_positions(text, markers):
    stripped = [t.strip(EDGE_PUNCT) for t in text.split()]
    positions = []
    for marker in markers:
        words = marker.split()
        span = len(words)
        for i in range(0, len(stripped) - span + 1):
            if stripped[i : i + span] == words:
                positions.append(i)
    positions.sort()
    return positions


def phrase_lexicon(lexicon):
    """The default lexicon plus multi-word entries that share first words
    with single-word entries and with each other, and a character entry
    ("(") that two tiers list."""
    verb = sorted(lexicon.strong_positive)[0]
    return dataclasses.replace(
        lexicon,
        strong_positive={**lexicon.strong_positive, f"{verb} על": 4.0, "מאסר בפועל ממש": 2.5},
        moderate_positive={**lexicon.moderate_positive, "מאסר בפועל": 1.5, "-": 0.5},
        strong_negative={**lexicon.strong_negative, "על תנאי": -2.0, "(": -1.5},
        fine_markers=lexicon.fine_markers | {"קנס של", "קנס של כסף"},
        actual_markers=lexicon.actual_markers | {"מאסר בפועל"},
    )


def _vocabulary(lexicon):
    lexicon = phrase_lexicon(lexicon)
    words = {"מאסר", "12", "12/3", "x", "שנה", "-"}
    for entries in [*(lexicon.tier(t) for t in TIER_NAMES), lexicon.fine_markers,
                    lexicon.probation_markers, lexicon.actual_markers]:  # fmt: skip
        for surface in entries:
            words.add(surface)
            words.update(surface.split())
    return sorted(words)


_EDGES = ["", "", "", ".", ",", "(", ")", "[", "]", '"', "'", "׳", "«", "/", "\\"]
_WORDS = _vocabulary(load_lexicon())
_token = st.tuples(
    st.sampled_from(_EDGES), st.sampled_from(_WORDS), st.sampled_from(_EDGES)
).map("".join)
_texts = st.lists(
    st.tuples(_token, st.sampled_from([" ", " ", "  ", "\n", " ", "\t"])), max_size=24
).map(lambda parts: "".join(token + sep for token, sep in parts))


class TestCompiledIndexEquivalence:
    @given(_texts)
    def test_match_tiers_equals_reference(self, lexicon, text):
        for lex in (lexicon, phrase_lexicon(lexicon)):
            hits = tier_hits(text, lex)
            assert hits.hits == reference_match_tiers(text, lex)
            for tier in TIER_NAMES:
                assert getattr(hits, tier) == sum(h.tier == tier for h in hits.hits)

    @given(_texts)
    def test_one_pass_counts_equal_reference(self, lexicon, text):
        for lex in (lexicon, phrase_lexicon(lexicon)):
            reference = reference_match_tiers(text, lex)
            expected = tuple(sum(h.tier == tier for h in reference) for tier in TIER_NAMES)
            assert tier_hits(text, lex).counts() == expected

    @given(_texts)
    def test_marker_positions_equal_reference(self, lexicon, text):
        lex = phrase_lexicon(lexicon)
        lists = (lex.fine_markers, lex.probation_markers, lex.actual_markers)
        for markers, scanned in zip(lists, lex.scan(text, stripped_tokens(text))[1:]):
            assert list(scanned) == reference_marker_positions(text, markers)

    @given(
        st.sets(st.sampled_from(["מאסר", "מאסר בפועל", "a.b", "x|y", "(", "\\", ""]), max_size=3),
        st.lists(
            st.lists(
                st.sampled_from(["מאסר", "למאסר", "aab", "a.b", "x", "|y", "(", "\\", " "])
            ).map("".join),
            max_size=3,
        ),
    )
    def test_filter_keyword_search_equals_substring_test(self, lexicon, keywords, texts):
        lex = dataclasses.replace(lexicon, filter_keywords=frozenset(keywords))
        expected = [i for i, text in enumerate(texts) if any(k in text for k in keywords)]
        assert list(lex.candidate_indices(texts)) == expected

    def test_replace_recompiles(self, lexicon):
        verb = sorted(lexicon.strong_positive)[0]
        text = f"השופט {verb} על הנאשם."
        assert tier_hits(text, phrase_lexicon(lexicon)).strong_positive == 2
        assert tier_hits(text, lexicon).strong_positive == 1

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"threshold": float("nan")}, "'threshold'"),
            ({"tier_weights": {"strong_positive": float("inf")}}, "'tier_weights.strong_positive'"),
            (
                {"structural": {"fine_marker_penalty": float("-inf")}},
                "'structural.fine_marker_penalty'",
            ),
            ({"duration": {"probation_penalty": float("nan")}}, "'duration.probation_penalty'"),
        ],
    )
    def test_non_finite_override_rejected(self, overrides, named):
        with pytest.raises(LexiconError, match=named):
            load_lexicon(**overrides)

    @pytest.mark.parametrize(
        "overrides, named",
        [
            ({"tier_weights": {"strong_postive": 9.0}}, "'strong_postive'"),
            ({"structural": {"fine_marker_penaltyy": 9.0}}, "'fine_marker_penaltyy'"),
            ({"duration": {"probation_penaltyy": 9.0}}, "'probation_penaltyy'"),
        ],
    )
    def test_unknown_weight_override_rejected(self, overrides, named):
        with pytest.raises(LexiconError, match=named):
            load_lexicon(**overrides)

    def test_empty_entry_rejected(self, tmp_path):
        doc = default_doc()
        doc["strong_positive"].append({"surface": "  "})
        path = tmp_path / "lex.json"
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        with pytest.raises(LexiconError, match="empty"):
            load_lexicon(path)
