"""The documents are held to the code.

A table that README, DESIGN or EXPERIMENTS quotes from
``benchmarks/results/`` sits in a fenced block directly after a marker
line ``<!-- results/<file> -->`` and is that file verbatim; every
table in EXPERIMENTS is quoted that way; and every ``DESIGN §N`` or
``EXPERIMENTS.md, <id>`` cited in the documents, the code or CI names
a heading that exists.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RESULTS = REPO / "benchmarks/results"
DOCUMENTS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: Pinned by their own CI drift steps; they are ledgers, not experiments.
LEDGERS = {"code_lines.txt", "surface.txt"}

MARKER = re.compile(r"^<!-- results/(\S+) -->$", re.M)
MARKED_BLOCK = re.compile(r"^<!-- results/(\S+) -->\n```\n(.*?)^```$", re.S | re.M)
FENCED_BLOCK = re.compile(r"^```(\w*)\n.*?^```$", re.S | re.M)


def read(name: str) -> str:
    return (REPO / name).read_text(encoding="utf-8")


def marked_blocks():
    return [
        (document, name, body)
        for document in DOCUMENTS
        for name, body in MARKED_BLOCK.findall(read(document))
    ]


BLOCKS = marked_blocks()


@pytest.mark.parametrize(
    "document,name,body", BLOCKS, ids=[f"{doc}:{name}" for doc, name, _ in BLOCKS]
)
def test_marked_block_is_its_file(document, name, body):
    path = RESULTS / name
    assert path.is_file(), f"{document} quotes {name}, which does not exist"
    assert body == path.read_text(encoding="utf-8"), f"{document}: {name} drifted"


@pytest.mark.parametrize("document", DOCUMENTS)
def test_every_marker_opens_a_block(document):
    text = read(document)
    assert MARKER.findall(text) == [name for name, _ in MARKED_BLOCK.findall(text)]


def test_every_experiment_table_is_marked():
    text = read("EXPERIMENTS.md")
    quoted = [name for name, _ in MARKED_BLOCK.findall(text)]
    assert sorted(quoted) == sorted(
        path.name for path in RESULTS.glob("*.txt") if path.name not in LEDGERS
    )
    # What is left are commands, and a command block names its language.
    assert all(FENCED_BLOCK.findall(MARKED_BLOCK.sub("", text)))


def cited_everywhere():
    texts = {name: read(name) for name in (*DOCUMENTS, ".github/workflows/ci.yml")}
    for tree in ("src", "tests", "benchmarks"):
        for path in sorted((REPO / tree).rglob("*.py")):
            texts[str(path.relative_to(REPO))] = path.read_text(encoding="utf-8")
    return texts


def test_section_citations_resolve():
    sections = set(re.findall(r"^## (\d+)\. ", read("DESIGN.md"), re.M))
    experiments = set(re.findall(r"^## ([A-Z]\d+) ", read("EXPERIMENTS.md"), re.M))
    dangling = []
    for where, text in cited_everywhere().items():
        dangling += [
            f"{where}: DESIGN §{number}"
            for number in re.findall(r"DESIGN\s+§(\d+)", text)
            if number not in sections
        ]
        dangling += [
            f"{where}: EXPERIMENTS.md, {exp}"
            for exp in re.findall(r"EXPERIMENTS\.md,\s+([A-Z]\d+)", text)
            if exp not in experiments
        ]
    assert dangling == []
