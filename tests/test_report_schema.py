"""Every subcommand's document has the keys docs/report-schema.md lists.

The key lists are read from the schema document itself, so a key added to,
renamed in or dropped from either the code or the document fails here.
"""

import io
import json
import pathlib
import re

import pytest

import twoclass.cli as cli

SCHEMA = pathlib.Path(__file__).resolve().parent.parent / "docs" / "report-schema.md"

# one small input per subcommand; classify verifies, so that its oracle
# section is present
ARGV = {
    "classify": ["classify", "1365", "--verify"],
    "enumerate": ["enumerate", "--max", "40"],
    "find-primes": ["find-primes", "--mod8", "5,3"],
    "verify": ["verify", "--max", "40"],
    "unit": ["unit", "5"],
    "classgroup": ["classgroup", "40"],
    "s1s2": ["s1s2", "40"],
}


def _sections():
    """The schema's text before the first heading, and each section by its
    heading."""
    head, *parts = re.split(r"^## ", SCHEMA.read_text(), flags=re.M)
    return head, dict(part.split("\n", 1) for part in parts)


def _braced_keys(text, start):
    """The keys of the first {...} at or after start: its items at depth 1,
    each up to its colon, unquoted."""
    i = text.index("{", start)
    items, depth, item = [], 0, ""
    for ch in text[i:]:
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
        if depth == 1 and ch in "{,":
            if ch == ",":
                items.append(item)
            item = ""
        elif depth == 0:
            items.append(item)
            break
        else:
            item += ch
    return [it.split(":")[0].strip().strip('"') for it in items]


def _results_keys(section):
    return _braced_keys(section, section.index("`results` is"))


def _documented(command, section):
    """{part of the document: key list} as the schema writes them."""
    if command == "classify":
        table = re.findall(r"^\| (`[^|]*`) \|", section, flags=re.M)
        report = [key for cell in table for key in re.findall(r"`(\w+)`", cell)]
        oracle = _braced_keys(section, section.index("`results.oracle`"))
        results = list(dict.fromkeys(re.findall(r"`results\.(\w+)`", section)))
        return {"results": results, "report": report, "oracle": oracle}
    if command == "enumerate":
        return {"row": _results_keys(section)}
    return {"results": _results_keys(section)}


def _observed(command, doc):
    results = doc["results"]
    if command == "classify":
        return {
            "results": list(results),
            "report": list(results["report"]),
            "oracle": list(results["oracle"]),
        }
    if command == "enumerate":
        (keys,) = {tuple(row) for row in results}
        return {"row": list(keys)}
    return {"results": list(results)}


def test_every_subcommand_has_a_schema_section():
    _, sections = _sections()
    assert set(sections) - {"Exit codes"} == set(ARGV)


@pytest.mark.parametrize("command", ARGV)
def test_document_keys_match_the_schema(command):
    head, sections = _sections()
    envelope = json.loads(re.search(r"```json\n(.*?)```", head, flags=re.S)[1])
    out = io.StringIO()
    assert cli.run(ARGV[command], out) == 0
    doc = json.loads(out.getvalue())
    assert list(doc) == list(envelope)
    assert doc["command"] == command
    assert _observed(command, doc) == _documented(command, sections[command])
