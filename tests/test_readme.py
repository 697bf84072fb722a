import itertools
import re
from pathlib import Path

import loramem
from loramem.analysis import _BASE_FIELDS, _GRID_FIELDS
from loramem.merge import MergeMethod
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


def test_readme_module_table_lists_exactly_the_package_modules():
    text = README.read_text(encoding="utf-8")
    listed = re.findall(r"^\| `loramem\.(\w+)` \|", text, re.MULTILINE)
    package = Path(loramem.__file__).parent
    modules = [path.stem for path in package.glob("*.py")
               if not path.stem.startswith("__")]
    assert sorted(listed) == sorted(modules)


def test_readme_method_lists_equal_the_merge_methods():
    text = README.read_text(encoding="utf-8")
    methods = [method.value for method in MergeMethod]
    comment = re.search(r"^# compose adapters \((.*)\)$", text, re.MULTILINE)
    assert comment.group(1).split(" | ") == methods
    row = re.search(r"^\| `merge\.method` \| one of (.*?) \|", text,
                    re.MULTILINE)
    assert re.findall(r"`([^`]+)`", row.group(1)) == methods
