import dataclasses
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from maasar.corpus import (
    DEFAULT_ABBREVIATIONS,
    AnnotationRecord,
    Decision,
    Sentence,
    annotations_in_range,
    corpus_stats,
    load_annotations,
    load_corpus,
    prelabel_negatives,
    segment_sentences,
)
from maasar.synthetic import generate_corpus, write_corpus


class TestSegmentation:
    def test_plain_splitting(self):
        sentences = segment_sentences("A. B? C!")
        assert [s.text for s in sentences] == ["A.", "B?", "C!"]

    def test_docket_token_survives_and_terminal_period_splits(self):
        text = "הנאשם הופנה לתיק CrimC 1124/04. ההליך נמשך שנים."
        sentences = segment_sentences(text)
        assert len(sentences) == 2
        assert sentences[0].text.endswith("1124/04.")

    def test_hebrew_docket_inline(self):
        text = 'בע"פ 1049/12 נדחה הערעור. הדיון הסתיים.'
        assert len(segment_sentences(text)) == 2

    def test_no_terminal_punctuation(self):
        sentences = segment_sentences("טקסט ללא סימן סיום")
        assert len(sentences) == 1

    def test_empty_input(self):
        assert segment_sentences("") == []
        assert segment_sentences("   \n ") == []

    def test_decimal_and_date_not_split(self):
        assert len(segment_sentences("המדד עלה ב-3.5 אחוזים בשנה זו.")) == 1
        assert len(segment_sentences("המאסר יחל ביום 31.5.12 בבוקר.")) == 1

    def test_abbreviation_not_split(self):
        text = "ראו ת.פ. 1124/04 שם נקבע אחרת."
        assert len(segment_sentences(text)) == 1

    def test_configurable_abbreviations(self):
        text = "העד מ. כהן העיד בדיון."
        assert len(segment_sentences(text)) == 2
        assert len(segment_sentences(text, abbreviations={"מ"})) == 1

    @pytest.mark.parametrize("entry", ["בית", "בית."])
    def test_abbreviation_with_trailing_period(self, entry):
        texts = [s.text for s in segment_sentences("בית. x (בית. y. z", {entry})]
        assert texts == ["בית. x (בית. y.", "z"]

    def test_indices_and_positions(self):
        sentences = segment_sentences("א ב ג. ד ה. ו.")
        assert [s.index for s in sentences] == [0, 1, 2]
        assert sentences[0].relative_position == 0.0
        assert sentences[-1].relative_position == 1.0
        positions = [s.relative_position for s in sentences]
        assert positions == sorted(positions)

    def test_single_sentence_relative_position_zero(self):
        assert segment_sentences("משפט אחד.")[0].relative_position == 0.0

    def test_token_count(self):
        s = segment_sentences("אחת שתיים   שלוש.")[0]
        assert s.token_count == 3 == len(s.text.split())

    @given(
        st.text(
            alphabet="אבגדהוזחטיךכלםמןנסעףפץצקרשת .?!0123456789/\"'()-\n",
            max_size=300,
        )
    )
    def test_round_trip_preserves_non_whitespace(self, text):
        joined = " ".join(s.text for s in segment_sentences(text))
        assert re.sub(r"\s", "", joined) == re.sub(r"\s", "", text)



def reference_segment(raw_text, abbreviations=DEFAULT_ABBREVIATIONS):
    """The character-by-character splitter that segment_sentences replaced,
    with the documented abbreviation rule: an entry, less one trailing
    period, equals the non-empty word before a lone period, openers stripped."""
    abbrev = {a[:-1] if a.endswith(".") else a for a in abbreviations}
    chunks = []
    start = 0
    i = 0
    n = len(raw_text)
    while i < n:
        if raw_text[i] in ".?!":
            j = i
            while j + 1 < n and raw_text[j + 1] in ".?!":
                j += 1
            if j + 1 >= n or raw_text[j + 1].isspace():
                word_start = i
                while word_start > start and not raw_text[word_start - 1].isspace():
                    word_start -= 1
                word = raw_text[word_start:i].lstrip("([{\"'")
                if not (raw_text[i] == "." and i == j and word and word in abbrev):
                    chunks.append(raw_text[start : j + 1])
                    start = j + 1
            i = j + 1
        else:
            i += 1
    if start < n:
        chunks.append(raw_text[start:])
    texts = [t for t in (c.strip() for c in chunks) if t]
    return [
        Sentence(idx, text, len(text.split()), idx / (len(texts) - 1) if len(texts) > 1 else 0.0)
        for idx, text in enumerate(texts)
    ]


_WORDS = ["", "א", "בית", "x", "7", "3.5", "31.5.12", "ת.פ", "מס", "עמ", "בג.ץ", "ע.פ."]
_OPENS = ["", "", "(", "[", '"', "'", "(("]
_RUNS = ["", "", ".", ".", "..", "?", "!", "?!", ".?", "..."]
_GAPS = ["", " ", " ", "  ", "\n", "\t", "\x1c", "\u00a0", "\u2003", " \n "]
_texts = st.lists(
    st.tuples(*(st.sampled_from(pieces) for pieces in (_OPENS, _WORDS, _RUNS, _GAPS))),
    max_size=30,
).map(lambda parts: "".join("".join(part) for part in parts))


class TestRunBasedSplitterEquivalence:
    @given(_texts)
    @example("x ((ת.פ. 5 y. z")  # openers before a default abbreviation
    def test_default_abbreviations(self, text):
        assert segment_sentences(text) == reference_segment(text)

    @given(_texts, st.sets(st.sampled_from(["א", "x", "בית.", "(א", "7", "3", ""]), max_size=3))
    @example("(א. ב", {"(א"})  # openers are stripped from the word, so this splits
    @example("x (. y . z", {""})  # the empty entry matches no word
    @example("בית. x בית.. y", {"בית."})  # the entry's one trailing period is ignored
    def test_custom_abbreviations(self, text, abbreviations):
        expected = reference_segment(text, abbreviations)
        assert segment_sentences(text, abbreviations) == expected

    def test_synthetic_decisions(self, synthetic):
        for decision in synthetic.decisions:
            text = " ".join(decision.texts)  # the generated text
            assert segment_sentences(text) == reference_segment(text)


class TestSentencesOnDemand:
    def test_built_sentences_equal_segmentation(self, lexicon):
        decisions = generate_corpus(lexicon.numerals, num_decisions=200, seed=1).decisions
        for decision in decisions:
            text = " ".join(decision.texts)  # the generated text
            expected = reference_segment(text)
            assert segment_sentences(text) == expected
            assert decision.texts == tuple(s.text for s in expected)
            assert [decision.sentence(i) for i in range(len(decision.texts))] == expected
            assert list(decision.sentences) == expected
            assert decision.sentences == decision.sentences  # built anew, equal each time

    def test_a_decision_keeps_its_texts_and_metadata_only(self):
        names = ["case_id", "year", "court", "texts"]
        assert [f.name for f in dataclasses.fields(Decision)] == names
        decision = Decision.from_text("c1", "א ב. ג.", 2001, "שלום")
        assert decision.sentences and decision.sentence(0).token_count == 2
        # nothing is cached: no Sentence, no token scale and no raw text is kept
        assert set(vars(decision)) == set(names)

    def test_a_loaded_corpus_holds_little_beyond_its_texts(self, lexicon, tmp_path):
        """The texts are nearly all a loaded corpus holds: no raw text and no
        Sentence beside them (1.7 times the texts while the raw text was kept)."""
        paths = write_corpus(generate_corpus(lexicon.numerals, num_decisions=100, seed=1), tmp_path)
        tracemalloc.start()
        try:
            decisions, errors = load_corpus(paths["corpus_dir"])
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert not errors and len(decisions) == 100
        texts = sum(sys.getsizeof(text) for d in decisions for text in d.texts)
        assert held < 1.3 * texts

    def test_sentences_are_not_compared(self):
        decision = Decision.from_text("c1", "א ב. ג.")
        assert decision.sentences
        assert decision == Decision.from_text("c1", "א ב. ג.")


class TestLoadCorpus:
    def _write(self, directory, name, text):
        (directory / name).write_text(text, encoding="utf-8")

    def _write_meta(self, directory, entries):
        (directory / "metadata.json").write_text(
            json.dumps(entries, ensure_ascii=False), encoding="utf-8"
        )

    def test_two_valid_files_sorted(self, tmp_path):
        self._write(tmp_path, "b.txt", "משפט שני.")
        self._write(tmp_path, "a.txt", "משפט ראשון.")
        self._write_meta(
            tmp_path,
            [
                {"filename": "b.txt", "case_id": "z9", "year": 2001, "court": "שלום"},
                {"filename": "a.txt", "case_id": "a1", "year": 2002, "court": "מחוזי"},
            ],
        )
        decisions, errors = load_corpus(tmp_path)
        assert not errors
        assert [d.case_id for d in decisions] == ["a1", "z9"]
        assert decisions[0].year == 2002
        assert decisions[0].sentences[0].text == "משפט ראשון."

    def test_empty_directory(self, tmp_path):
        decisions, errors = load_corpus(tmp_path)
        assert decisions == [] and errors == []

    @pytest.mark.parametrize("files", [[], ["a.txt"]])
    def test_named_metadata_file_must_exist(self, tmp_path, capsys, files):
        from maasar.cli import run

        for name in files:
            self._write(tmp_path, name, "טקסט.")
        missing = tmp_path / "no" / "such.json"
        decisions, errors = load_corpus(tmp_path, missing)
        assert decisions == []
        assert [e.source for e in errors] == [str(missing)]
        assert run(["stats", "--corpus", str(tmp_path), "--metadata", str(missing)]) == 1
        assert f"{missing}: " in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["nowhere", "file.txt"])
    def test_path_that_is_not_a_directory_is_one_error(self, tmp_path, name):
        self._write(tmp_path, "file.txt", "טקסט.")
        decisions, errors = load_corpus(tmp_path / name)
        assert decisions == []
        assert [(e.source, e.message) for e in errors] == [
            (str(tmp_path / name), "corpus path is not a directory")
        ]

    def test_file_missing_from_metadata(self, tmp_path):
        self._write(tmp_path, "orphan.txt", "טקסט.")
        self._write_meta(tmp_path, [])
        decisions, errors = load_corpus(tmp_path)
        assert decisions == []
        assert any("orphan.txt" == e.source for e in errors)

    def test_non_utf8_reports_byte_offset(self, tmp_path):
        (tmp_path / "bad.txt").write_bytes("שלום".encode("utf-8")[:-1] + b"\xff\xfe")
        self._write_meta(tmp_path, [{"filename": "bad.txt", "case_id": "c1"}])
        decisions, errors = load_corpus(tmp_path)
        assert decisions == []
        assert any("byte offset" in e.message for e in errors)

    def test_duplicate_case_id(self, tmp_path):
        self._write(tmp_path, "a.txt", "א.")
        self._write(tmp_path, "b.txt", "ב.")
        self._write_meta(
            tmp_path,
            [
                {"filename": "a.txt", "case_id": "same"},
                {"filename": "b.txt", "case_id": "same"},
            ],
        )
        decisions, errors = load_corpus(tmp_path)
        assert len(decisions) == 1
        assert any("duplicate" in e.message for e in errors)

    def test_file_listed_twice_loads_nothing(self, tmp_path):
        self._write(tmp_path, "a.txt", "א.")
        self._write(tmp_path, "b.txt", "ב.")
        self._write_meta(
            tmp_path,
            [
                {"filename": "a.txt", "case_id": "x"},
                {"filename": "b.txt", "case_id": "b"},
                {"filename": "a.txt", "case_id": "y"},
                {"filename": "a.txt", "case_id": "x"},
            ],
        )
        decisions, errors = load_corpus(tmp_path)
        assert [d.case_id for d in decisions] == ["b"]
        meta = tmp_path / "metadata.json"
        assert [(e.source, e.message) for e in errors] == [
            (f"{meta}[2]", "filename 'a.txt' is already listed at [0]"),
            (f"{meta}[3]", "filename 'a.txt' is already listed at [0]"),
        ]

    def test_metadata_entry_without_file(self, tmp_path):
        self._write_meta(tmp_path, [{"filename": "ghost.txt", "case_id": "g"}])
        decisions, errors = load_corpus(tmp_path)
        assert any("ghost.txt" == e.source for e in errors)

    def test_metadata_entry_without_filename(self, tmp_path):
        self._write(tmp_path, "a.txt", "א.")
        self._write_meta(tmp_path, [{"case_id": "x"}, {"filename": "a.txt", "case_id": "a"}])
        decisions, errors = load_corpus(tmp_path)
        assert [d.case_id for d in decisions] == ["a"]
        assert [e.message for e in errors] == ["metadata entry has no filename string"]
        assert errors[0].source.endswith("metadata.json[0]")

    def test_metadata_entry_not_an_object(self, tmp_path):
        self._write(tmp_path, "a.txt", "א.")
        self._write_meta(tmp_path, ["a.txt", {"filename": "a.txt", "case_id": "a"}, 7])
        decisions, errors = load_corpus(tmp_path)
        assert [d.case_id for d in decisions] == ["a"]
        assert [e.message for e in errors] == ["metadata entry is not a JSON object"] * 2

    def test_metadata_not_an_array(self, tmp_path):
        self._write(tmp_path, "a.txt", "א.")
        self._write_meta(tmp_path, {"filename": "a.txt", "case_id": "a"})
        decisions, errors = load_corpus(tmp_path)
        assert decisions == []
        assert [e.message for e in errors] == ["metadata is not a JSON array"]

    def test_non_integer_year(self, tmp_path):
        for name in ("a", "b", "c", "d"):
            self._write(tmp_path, f"{name}.txt", "א.")
        self._write_meta(
            tmp_path,
            [
                {"filename": "a.txt", "case_id": "a", "year": "twenty"},
                {"filename": "b.txt", "case_id": "b", "year": 2001.5},
                {"filename": "c.txt", "case_id": "c", "year": True},
                {"filename": "d.txt", "case_id": "d", "year": 2003},
            ],
        )
        decisions, errors = load_corpus(tmp_path)
        assert [(d.case_id, d.year) for d in decisions] == [("d", 2003)]
        assert [e.source for e in errors] == ["a.txt", "b.txt", "c.txt"]
        assert all("field 'year' must be an integer" in e.message for e in errors)

    @pytest.mark.parametrize(
        "entry, named",
        [
            ({"case_id": None}, "field 'case_id' must be a Unicode string, got None"),
            ({"case_id": 12}, "field 'case_id' must be a Unicode string, got 12"),
            ({"case_id": "a\ud800"}, "field 'case_id' must be a Unicode string"),
            ({"case_id": "a", "court": ["x"]}, "field 'court' must be a Unicode string"),
            ({"case_id": "a", "court": None}, "field 'court' must be a Unicode string, got None"),
            ({}, "is missing the 'case_id' field"),
        ],
        ids=[
            "case-id-null",
            "case-id-int",
            "case-id-lone-surrogate",
            "court-list",
            "court-null",
            "case-id-missing",
        ],
    )
    def test_case_id_and_court_must_be_strings(self, tmp_path, entry, named):
        self._write(tmp_path, "a.txt", "א.")
        self._write(tmp_path, "b.txt", "ב.")
        meta = [{"filename": "a.txt", **entry}, {"filename": "b.txt", "case_id": "b"}]
        # ASCII JSON, so that a lone surrogate is written as its escape
        (tmp_path / "metadata.json").write_text(json.dumps(meta), encoding="utf-8")
        decisions, errors = load_corpus(tmp_path)
        assert [d.case_id for d in decisions] == ["b"]
        assert [e.source for e in errors] == ["a.txt"]
        assert named in errors[0].message

    def test_cli_reports_malformed_metadata_as_input_error(self, tmp_path, capsys):
        from maasar.cli import run

        self._write(tmp_path, "a.txt", "א.")
        self._write_meta(tmp_path, {"filename": "a.txt"})
        assert run(["stats", "--corpus", str(tmp_path)]) == 1
        assert "metadata is not a JSON array" in capsys.readouterr().err


class TestAnnotationsInRange:
    def test_record_past_the_last_sentence_dropped(self):
        decisions = [Decision("c1", 0, "", ("א.", "ב."))]
        records = [
            AnnotationRecord("c1", 1, True, 4),
            AnnotationRecord("c1", 2, True, 5),
            AnnotationRecord("c9", 40, False),  # not in the corpus: kept
        ]
        kept, errors = annotations_in_range(records, decisions, "ann.jsonl")
        assert kept == [records[0], records[2]]
        assert [e.source for e in errors] == ["ann.jsonl"]
        assert "case 'c1' sentence_index 2 is past its decision's 2 sentences" in errors[0].message


class TestLoadAnnotations:
    def _load(self, tmp_path, lines):
        path = tmp_path / "ann.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return load_annotations(path)

    def test_valid_punishment_record(self, tmp_path):
        records, errors = self._load(
            tmp_path,
            ['{"case_id":"c1","sentence_index":7,"is_punishment":true,"months":30}'],
        )
        assert not errors
        assert records == [AnnotationRecord("c1", 7, True, 30)]

    def test_valid_negative_record(self, tmp_path):
        records, errors = self._load(
            tmp_path, ['{"case_id":"c1","sentence_index":2,"is_punishment":false}']
        )
        assert not errors
        assert records[0].months is None

    def test_negative_with_months_rejected(self, tmp_path):
        records, errors = self._load(
            tmp_path,
            ['{"case_id":"c1","sentence_index":3,"is_punishment":false,"months":12}'],
        )
        assert records == []
        assert len(errors) == 1

    def test_negative_months_rejected(self, tmp_path):
        records, errors = self._load(
            tmp_path,
            ['{"case_id":"c1","sentence_index":3,"is_punishment":true,"months":-4}'],
        )
        assert records == []
        assert errors

    def test_negative_sentence_index_rejected(self, tmp_path):
        records, errors = self._load(
            tmp_path,
            [
                '{"case_id":"c1","sentence_index":-1,"is_punishment":true,"months":5}',
                '{"case_id":"c1","sentence_index":0,"is_punishment":false}',
            ],
        )
        assert records == [AnnotationRecord("c1", 0, False)]
        assert [e.source.rsplit(":", 1)[1] for e in errors] == ["1"]
        assert "sentence_index -1 is negative" in errors[0].message

    def test_string_boolean_rejected(self, tmp_path):
        records, errors = self._load(
            tmp_path, ['{"case_id":"c1","sentence_index":2,"is_punishment":"false"}']
        )
        assert records == []
        assert "field 'is_punishment' must be a boolean" in errors[0].message

    @pytest.mark.parametrize("months", ["1.9", '"12"', "true", "null"])
    def test_non_integer_months_rejected(self, tmp_path, months):
        line = '{"case_id":"c1","sentence_index":2,"is_punishment":true,"months":%s}' % months
        records, errors = self._load(tmp_path, [line])
        assert records == []
        assert "field 'months' must be an integer" in errors[0].message

    def test_non_integer_sentence_index_rejected(self, tmp_path):
        records, errors = self._load(
            tmp_path, ['{"case_id":"c1","sentence_index":"2","is_punishment":false}']
        )
        assert records == []
        assert "field 'sentence_index' must be an integer" in errors[0].message

    @pytest.mark.parametrize("case_id", ["null", "12", '["c1"]'])
    def test_non_string_case_id_rejected(self, tmp_path, case_id):
        line = '{"case_id":%s,"sentence_index":2,"is_punishment":false}' % case_id
        records, errors = self._load(tmp_path, [line])
        assert records == []
        assert "field 'case_id' must be a Unicode string" in errors[0].message

    def test_null_case_ids_label_nothing(self, tmp_path):
        # a null case id named neither a decision nor the annotation of one
        (tmp_path / "a.txt").write_text("א.", encoding="utf-8")
        meta = [{"filename": "a.txt", "case_id": None}]
        (tmp_path / "metadata.json").write_text(json.dumps(meta), encoding="utf-8")
        records, _ = self._load(
            tmp_path, ['{"case_id":null,"sentence_index":0,"is_punishment":true,"months":3}']
        )
        assert load_corpus(tmp_path).decisions == [] and records == []

    @pytest.mark.parametrize(
        "line, named",
        [
            ('{"sentence_index":2,"is_punishment":false}', "is missing the 'case_id' field"),
            ('["c1", 2, false]', "must be a JSON object"),
            ("[" * 100_000, "bad JSON"),
            ('{"sentence_index": %s}' % ("1" * 5000), "bad JSON"),
        ],
        ids=["case-id-missing", "not-an-object", "nested-too-deeply", "integer-too-long"],
    )
    def test_malformed_record_named(self, tmp_path, line, named):
        records, errors = self._load(tmp_path, [line])
        assert records == []
        assert named in errors[0].message

    def test_duplicate_last_wins_with_warning(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.WARNING):
            records, errors = self._load(
                tmp_path,
                [
                    '{"case_id":"c1","sentence_index":1,"is_punishment":true,"months":10}',
                    '{"case_id":"c1","sentence_index":1,"is_punishment":true,"months":20}',
                ],
            )
        assert not errors
        assert records == [AnnotationRecord("c1", 1, True, 20)]
        assert any("duplicate" in r.message for r in caplog.records)


class TestCorpusStats:
    def test_two_sentence_arithmetic(self):
        decision = Decision.from_text("c1", "אחת שתיים שלוש. אחת שתיים שלוש ארבע חמש.")
        stats = corpus_stats([decision])
        assert stats.sentence_length_mean == 4
        assert stats.sentence_length_min == 3
        assert stats.sentence_length_max == 5

    def test_empty_corpus(self):
        stats = corpus_stats([])
        assert stats.num_cases == 0
        assert stats.num_sentences == 0
        assert stats.num_words == 0

    def test_constant_lengths_zero_std(self):
        decision = Decision.from_text("c1", "א ב. ג ד. ה ו.")
        assert corpus_stats([decision]).sentence_length_std == 0

    def test_num_words_is_token_sum(self, synthetic):
        stats = corpus_stats(synthetic.decisions)
        assert stats.num_words == sum(
            s.token_count for d in synthetic.decisions for s in d.sentences
        )
        assert stats.sentence_length_min <= stats.sentence_length_mean <= stats.sentence_length_max


class TestPrelabel:
    def test_definitions(self, lexicon):
        decision = Decision.from_text(
            "c1", "אין כאן מילת מפתח. הנאשם נדון לעונש מאסר בפועל."
        )
        labels = dict(prelabel_negatives(decision, lexicon))
        assert labels[0] is True
        assert labels[1] is False

    def test_empty_sentence_is_auto_negative(self, lexicon):
        decision = Decision(case_id="c1", year=2001, court="", texts=("",))
        assert prelabel_negatives(decision, lexicon) == [(0, True)]

    def test_superset_of_never_selectable(self, lexicon, synthetic):
        from maasar.detect import filter_candidates

        for decision in synthetic.decisions[:5]:
            auto_negative = {i for i, neg in prelabel_negatives(decision, lexicon) if neg}
            candidates = {s.index for s in filter_candidates(decision, lexicon)}
            assert auto_negative.isdisjoint(candidates)
            assert auto_negative | candidates >= {
                s.index for s in decision.sentences if s.token_count > 0
            } - candidates
