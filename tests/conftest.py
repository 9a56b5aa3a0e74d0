import os
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from maasar.corpus import Decision
from maasar.lexicon import load_lexicon
from maasar.synthetic import generate_corpus

sys.path.insert(0, str(Path(__file__).parent))

# CI runs with HYPOTHESIS_PROFILE=ci, which gives every property that does
# not set its own budget (the splitter and scanner equivalences among them)
# five times the default number of examples. The settings are spelled out
# because this profile replaces any "ci" profile Hypothesis registers itself:
# no per-example deadline on a shared runner, and a fixed seed. Without the
# variable no profile is loaded, and Hypothesis keeps its own choice.
settings.register_profile("ci", max_examples=500, deadline=None, derandomize=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def numerals(lexicon):
    return lexicon.numerals


@pytest.fixture(scope="session")
def synthetic(lexicon):
    return generate_corpus(lexicon.numerals, num_decisions=24, seed=7)


@pytest.fixture
def decision_of():
    def make(*sentences: str, case_id: str = "case") -> Decision:
        return Decision.from_text(case_id, " ".join(sentences))

    return make
