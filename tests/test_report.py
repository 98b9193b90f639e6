"""The cell rule of docs/format.md, byte for byte, on values no golden file holds."""

from __future__ import annotations

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
