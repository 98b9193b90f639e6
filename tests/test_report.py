"""The cell rule of docs/format.md, byte for byte, on values no golden file holds."""

from __future__ import annotations

import json
import math

import pytest

from anxarc.report import Table

JSON_TEMPLATE = """\
{
  "meta": {
    "r": %(j)s
  },
  "columns": [
    "x",
    "p"
  ],
  "rows": [
    {
      "x": %(j)s,
      "p": %(j)s
    }
  ]
}
"""


@pytest.mark.parametrize(
    "value,plain,p,j",
    [
        (None, "", "", "null"),
        (True, "true", "true", "true"),
        (False, "false", "false", "false"),
        (7, "7", "7", "7"),
        (0.1, "0.100000", "1.000000e-01", "0.1"),
        (math.inf, "inf", "inf", '"inf"'),
        (-math.inf, "-inf", "-inf", '"-inf"'),
        (math.nan, "nan", "nan", '"nan"'),
    ],
    ids=["None", "True", "False", "int", "0.1", "inf", "-inf", "nan"],
)
def test_one_cell_rule_for_csv_and_json(value, plain, p, j):
    # A column named "p" is scientific, any other float fixed 6-decimal; a
    # meta value is its str in CSV; JSON holds a non-finite float as its CSV text.
    table = Table(name="t", meta={"r": value}, columns=["x", "p"], rows=[[value, value]])
    assert table.to_csv() == f"# r={value}\nx,p\n{plain},{p}\n"
    assert table.to_json() == JSON_TEMPLATE % {"j": j}


def test_json_rejects_a_value_json_cannot_hold():
    # No report value is written as its str in JSON: a value of another
    # type is a fault of the program, not a report.
    table = Table(name="t", meta={"r": {1, 2}}, columns=["x"], rows=[[1]])
    with pytest.raises(TypeError):
        table.to_json()


def test_csv_meta_value_stays_on_its_line():
    # In CSV a meta value's backslashes are doubled and each str.splitlines
    # boundary is written as its Python escape, so a value such as a path
    # cannot split the meta header; JSON holds the value as it is.
    value = "a\\n" + "".join(c + "x" for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    table = Table(name="t", meta={"r": value, "s": "plain ü"}, columns=["x"], rows=[[1]])
    assert table.to_csv() == (
        r"# r=a\\n\nx\rx\x0bx\x0cx\x1cx\x1dx\x1ex\x85x\u2028x\u2029x" + "\n# s=plain ü\nx\n1\n")
    assert json.loads(table.to_json())["meta"]["r"] == value
