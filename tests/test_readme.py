"""Every Python example in README.md runs against the current package."""

import re
import shutil
from pathlib import Path

import pytest

from maasar.lexicon import load_lexicon
from maasar.synthetic import generate_corpus, write_corpus

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_example_runs(tmp_path, monkeypatch, index):
    """Each block runs on its own, in a directory holding the files the
    examples read: ``corpus/``, ``annotations.jsonl`` and ``decision.txt``."""
    corpus = generate_corpus(load_lexicon().numerals, num_decisions=12, seed=3)
    paths = write_corpus(corpus, tmp_path)
    first = paths["corpus_dir"] / f"{corpus.decisions[0].case_id}.txt"
    shutil.copy(first, tmp_path / "decision.txt")
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md example {index + 1}", "exec"), {})
