"""Hebrew sentence fixtures shared across the test suite.

The verdict pattern: a total term of 48 months, of which 30 are served and
the remaining 18 are suspended; the served term (30) is the gold duration.
The confuser sentences cover the classic traps: a prosecution request, a
reference to a prior case with its docket number, a procedural order, and
a fine with a day-denominated substitute.

``word_run_value`` reads a sentence of number words as the pipeline does,
and ``tier_weight`` reads the one weight of a bundled tier's entries.
"""

from maasar.numbers import detect_spans
from maasar.tokens import stripped_tokens


def word_run_value(words, numerals):
    """The value ``detect_spans`` reads from a sentence that is one run of
    number words: a run that composes is one "words" span of its value, and
    one that does not is no span (None)."""
    spans = detect_spans(stripped_tokens(" ".join(words)), numerals)
    if not spans:
        return None
    (span,) = spans
    assert (span.start_token, span.end_token, span.source) == (0, len(words) - 1, "words")
    return span.value


def tier_weight(lexicon, tier):
    """The weight every entry of ``tier`` carries: the tier's default weight,
    as no entry of the bundled lexicon sets its own."""
    (weight,) = set(lexicon.tier(tier).values())
    return weight


# Combined verdict: total 48, actual 30, conditional 18.
WORKED_EXAMPLE = (
    "אנו מטילים על הנאשם את העונש הבא: 48 חודשי מאסר, מהם ירצה הנאשם "
    "30 חודשי מאסר בפועל והיתרה, 18 חודשים, תהא מאסר על תנאי."
)
WORKED_EXAMPLE_MONTHS = 30

REQUEST_ROW = (
    "לפיכך ביקשה התביעה להטיל על הנאשם עונש של מאסר בפועל ממושך, "
    "מאסר על תנאי ופיצוי משמעותי למתלוננת."
)
PRIOR_CASE_ROW = (
    "כך למשל בע\"פ 1049/12 פלוני נגד מדינת ישראל הורשע המערער במעשה מגונה "
    "ובגין כך נידון ל-12 חודשי מאסר בפועל, מאסר על תנאי וקנס של 40,000 ש\"ח."
)
PROCEDURAL_ROW = "המאסר בפועל יחל ביום 31."
FINE_ROW = "קנס בסך 5,000 ש\"ח או 30 ימי מאסר תמורתו."

# the confusers must not be selected; the combined verdict yields 30 months
BEHAVIOR_SUITE = {
    "request": (REQUEST_ROW, 0),
    "prior_case": (PRIOR_CASE_ROW, 0),
    "combined": (WORKED_EXAMPLE, WORKED_EXAMPLE_MONTHS),
    "procedural": (PROCEDURAL_ROW, 0),
    "fine": (FINE_ROW, 0),
}

# error-analysis examples and their published categories
ERROR_EXAMPLES = {
    "probation": "בנוסף, 18 חודשי מאסר על תנאי.",
    "prior_case_reference": "נידון ל-12 חודשי מאסר בפועל.",
    "fine": "קנס של 5,000 ש\"ח או 30 ימי מאסר תמורתו.",
    "procedural": "המאסר יחל ביום 31.",
}

UNIT_ONLY_SENTENCE = "אני גוזר על הנאשם שנת מאסר בפועל."
DUAL_YEAR_SENTENCE = "אני גוזר על הנאשם שנתיים מאסר בפועל."
YEAR_AND_HALF_SENTENCE = "אני גוזר על הנאשם שנה וחצי מאסר בפועל."
TWENTY_YEAR_SENTENCE = "הנאשם ירצה 20 שנה מאסר בפועל."

SIMPLE_VERDICT = "אני גוזר על הנאשם {months} חודשי מאסר בפועל."
