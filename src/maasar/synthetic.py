"""Seeded generator of synthetic Hebrew sentencing decisions with gold labels.

Each generated decision mixes neutral narrative sentences with the classic
confusers (prior-case references with docket numbers, fine clauses with a
day-denominated substitute, probation clauses, procedural orders) around
exactly one gold punishment sentence of a known duration. The generator
re-segments its own output and asserts the sentence indices line up, so
gold indices are trustworthy by construction.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from .corpus import AnnotationRecord, Decision
from .lexicon import NumeralLexicon
from .numbers import render_number

FILLERS = [
    "הנאשם הורשע על פי הודאתו בעבירות שיוחסו לו בכתב האישום.",
    "שמעתי את טיעוני הצדדים לעונש ואת דברי הנאשם.",
    "המתלוננת תיארה בעדותה את האירועים ואת השפעתם על חייה.",
    "בית המשפט שקל את נסיבות ביצוע העבירה ואת נסיבותיו האישיות של הנאשם.",
    "הנאשם הביע חרטה על מעשיו במהלך הדיון.",
    "תסקיר שירות המבחן מציין כי הנאשם משתף פעולה עם גורמי הטיפול.",
    "הסניגור עמד על נסיבותיו האישיות הקשות של הנאשם ועל עברו הנקי.",
    "הצדדים הגיעו להסדר טיעון אשר הוצג בפני בית המשפט.",
    "נסיבות העניין מחייבות איזון בין שיקולי הגמול לשיקולי השיקום.",
    "הנאשם עבר הליך טיפולי ממושך מאז הגשת כתב האישום.",
    "לאחר ששקלתי את מכלול השיקולים הגעתי לכלל מסקנה.",
    "הפסיקה מלמדת כי יש להחמיר בעבירות מסוג זה.",
    "בחנתי את מדיניות הענישה הנוהגת בעבירות דומות.",
    "הערכת המסוכנות שנערכה לנאשם מצביעה על רמת סיכון בינונית.",
    "העד מספר {i} מסר גרסה מפורטת לאירועים.",
    "המומחית מטעם ההגנה הגישה חוות דעת בעניינו של הנאשם.",
]

COURTS = [
    "בית המשפט המחוזי בתל אביב",
    "בית המשפט המחוזי בחיפה",
    "בית משפט השלום בירושלים",
    "בית משפט השלום בבאר שבע",
]

# Sentences per generated decision, both bounds inclusive.
MIN_SENTENCES, MAX_SENTENCES = 30, 80

GOLD_FORMS = (
    "digits_months",
    "digits_years",
    "decomposition",
    "word_months",
    "unit_only_year",
    "dual_year",
    "year_and_half",
)


@dataclass(frozen=True)
class GoldInfo:
    sentence_index: int
    months: int
    form: str


@dataclass
class SyntheticCorpus:
    decisions: list[Decision]
    annotations: list[AnnotationRecord]
    gold: dict[str, GoldInfo]


def _docket(rng: random.Random) -> str:
    return f"{rng.randint(100, 9999)}/{rng.randint(0, 21):02d}"


def _distractors(rng: random.Random) -> list[str]:
    return [
        "לפיכך ביקשה התביעה להטיל על הנאשם עונש של מאסר בפועל ממושך, "
        "מאסר על תנאי ופיצוי משמעותי למתלוננת.",
        "הסניגור ביקש להסתפק בעונש מאסר על תנאי וקנס סמלי.",
        f"בע\"פ {_docket(rng)} נידון המערער ל-{rng.randint(6, 96)} חודשי "
        "מאסר בפועל וערעורו נדחה.",
        f"בת\"פ {_docket(rng)} (מחוזי חיפה) הוטלו על נאשם בנסיבות דומות "
        f"{rng.randint(2, 10)} שנות מאסר.",
        f"בנוסף, {rng.randint(4, 24)} חודשי מאסר על תנאי למשך שלוש שנים.",
        f"עוד הוטל על הנאשם מאסר על תנאי של {rng.randint(4, 24)} חודשים.",
        f"המאסר יחל ביום {rng.randint(1, 28)}.{rng.randint(1, 12)}."
        f"{rng.randint(10, 21)} עד השעה 09:00.",
        "מניין ימי המאסר יחל מיום מעצרו.",
        f"כמו כן ישלם הנאשם קנס בסך {rng.randint(1, 40) * 1000:,} ש\"ח "
        f"או {rng.choice([14, 21, 30, 45])} ימי מאסר תמורתו.",
    ]


def _gold_sentence(
    form: str, rng: random.Random, numerals: NumeralLexicon
) -> tuple[str, int]:
    if form == "digits_months":
        m = rng.randint(2, 120)
        return f"אני גוזר על הנאשם {m} חודשי מאסר בפועל.", m
    if form == "digits_years":
        y = rng.randint(1, 14)
        return f"בית המשפט גוזר על הנאשם {y} שנות מאסר בפועל.", y * 12
    if form == "decomposition":
        actual = rng.randint(6, 60)
        conditional = rng.randint(3, 36)
        total = actual + conditional
        return (
            f"אנו מטילים על הנאשם {total} חודשי מאסר, מהם ירצה הנאשם "
            f"{actual} חודשי מאסר בפועל והיתרה, {conditional} חודשים, מאסר על תנאי.",
            actual,
        )
    if form == "word_months":
        m = rng.randint(2, 30)
        words = render_number(m, numerals, "masculine")
        return f"אני גוזר על הנאשם {words} חודשי מאסר בפועל.", m
    if form == "unit_only_year":
        return "אני גוזר על הנאשם שנת מאסר בפועל.", 12
    if form == "dual_year":
        return "אני גוזר על הנאשם שנתיים מאסר בפועל.", 24
    if form == "year_and_half":
        return "אני גוזר על הנאשם שנה וחצי מאסר בפועל.", 18
    raise ValueError(f"unknown gold form {form!r}")


def generate_decision(
    case_id: str, numerals: NumeralLexicon, rng: random.Random, form: str
) -> tuple[Decision, GoldInfo]:
    n_sentences = rng.randint(MIN_SENTENCES, MAX_SENTENCES)
    gold_text, months = _gold_sentence(form, rng, numerals)

    distractors = _distractors(rng)
    rng.shuffle(distractors)
    n_distractors = rng.randint(3, min(len(distractors), 6))
    body: list[str] = []
    witness = 1
    while len(body) < n_sentences - 1 - n_distractors:
        template = rng.choice(FILLERS)
        body.append(template.format(i=witness))
        witness += 1

    # confusers spread through the document, verdict near the end
    for text in distractors[:n_distractors]:
        body.insert(rng.randint(0, len(body)), text)
    gold_at = rng.randint(int(len(body) * 0.7), len(body))
    body.insert(gold_at, gold_text)

    decision = Decision.from_text(
        case_id=case_id,
        raw_text=" ".join(body),
        year=rng.randint(1990, 2021),
        court=rng.choice(COURTS),
    )
    if list(decision.texts) != body:
        raise AssertionError(
            f"synthetic decision {case_id} did not re-segment to its own sentences"
        )
    return decision, GoldInfo(sentence_index=gold_at, months=months, form=form)


def generate_corpus(
    numerals: NumeralLexicon, num_decisions: int = 24, seed: int = 0
) -> SyntheticCorpus:
    rng = random.Random(seed)
    decisions = []
    annotations = []
    gold: dict[str, GoldInfo] = {}
    for i in range(num_decisions):
        case_id = f"c{i:03d}"
        decision, info = generate_decision(case_id, numerals, rng, GOLD_FORMS[i % len(GOLD_FORMS)])
        decisions.append(decision)
        gold[case_id] = info
        for index, text in enumerate(decision.texts):
            if "מאסר" not in text:
                continue
            if index == info.sentence_index:
                annotations.append(AnnotationRecord(case_id, index, True, info.months))
            else:
                annotations.append(AnnotationRecord(case_id, index, False))
    return SyntheticCorpus(decisions, annotations, gold)


def write_corpus(corpus: SyntheticCorpus, directory: str | Path) -> dict[str, Path]:
    """Materialize a synthetic corpus as corpus dir + metadata + annotations."""
    directory = Path(directory)
    corpus_dir = directory / "corpus"
    corpus_dir.mkdir(parents=True, exist_ok=True)
    metadata = []
    for decision in corpus.decisions:
        filename = f"{decision.case_id}.txt"
        # the generated text: generate_decision refuses texts that do not join to it
        (corpus_dir / filename).write_text(" ".join(decision.texts), encoding="utf-8")
        metadata.append(
            {
                "filename": filename,
                "case_id": decision.case_id,
                "year": decision.year,
                "court": decision.court,
            }
        )
    metadata_path = corpus_dir / "metadata.json"
    metadata_path.write_text(
        json.dumps(metadata, ensure_ascii=False, indent=2), encoding="utf-8"
    )
    annotations_path = directory / "annotations.jsonl"
    with open(annotations_path, "w", encoding="utf-8") as fh:
        for record in corpus.annotations:
            obj = {
                "case_id": record.case_id,
                "sentence_index": record.sentence_index,
                "is_punishment": record.is_punishment,
            }
            if record.months is not None:
                obj["months"] = record.months
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")
    return {
        "corpus_dir": corpus_dir,
        "metadata": metadata_path,
        "annotations": annotations_path,
    }
