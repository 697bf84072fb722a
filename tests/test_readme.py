import itertools
import re
from pathlib import Path

from loramem.analysis import _BASE_FIELDS, _GRID_FIELDS
from loramem.servebench import _MERGE_FIELDS, _OP_FIELDS

README = Path(__file__).resolve().parent.parent / "README.md"
FIELD_TABLE_HEADER = "| field | accepted JSON | when absent |"


def field_tables() -> list[list[str]]:
    """The field named first in each row of each README field table."""
    tables = []
    text = README.read_text(encoding="utf-8")
    for block in text.split(FIELD_TABLE_HEADER)[1:]:
        rows = itertools.takewhile(lambda line: line.startswith("|"),
                                   block.splitlines()[2:])
        tables.append(sorted(re.match(r"\| `([^`]+)`", row).group(1)
                             for row in rows))
    return tables


def test_readme_field_tables_list_exactly_the_code_tables():
    registry = [name for fields in _OP_FIELDS.values() for name in fields]
    registry += [f"merge.{name}" for name in _MERGE_FIELDS]
    grid = list(_GRID_FIELDS) + [f"base.{name}" for name in _BASE_FIELDS]
    assert field_tables() == [sorted(registry), sorted(grid)]
