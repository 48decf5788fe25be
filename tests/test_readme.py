"""README's command-line examples on the demo network print what README shows."""

import re
from pathlib import Path

import pytest

from tgmenger import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def readme_examples() -> list:
    """``(command, printed lines)`` of every ``$ tgmenger ... -g demo ...``
    console example; the lines run up to the next blank line or fence."""
    lines = README.read_text(encoding="utf-8").splitlines()
    examples = []
    for i, line in enumerate(lines):
        if not (line.startswith("$ tgmenger ") and " -g demo" in line):
            continue
        shown = []
        for nxt in lines[i + 1 :]:
            if not nxt or nxt.startswith(("$ ", "```")):
                break
            shown.append(nxt)
        examples.append((line[len("$ tgmenger ") :], shown))
    return examples


def mask_timings(lines) -> list:
    return [re.sub(r"\b\d+\.\d{3}s\b", "N.NNNs", line) for line in lines]


EXAMPLES = readme_examples()


def test_readme_has_demo_examples():
    assert len(EXAMPLES) >= 4


@pytest.mark.parametrize("command, shown", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(capsys, command, shown):
    code = cli.main(command.split())
    out = capsys.readouterr().out
    assert code in (0, 1)
    assert mask_timings(out.splitlines()) == mask_timings(shown)
