import json

import pytest

from tables import EMPTY_DIVISOR_TABLE, TRIANGLE_TABLE


@pytest.fixture
def triangle_table_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(TRIANGLE_TABLE))
    return str(path)


@pytest.fixture
def empty_divisor_path(tmp_path):
    path = tmp_path / "empty_divisor.json"
    path.write_text(json.dumps(EMPTY_DIVISOR_TABLE))
    return str(path)
