"""tools/parity.py: a dump of this tree against itself and an edited copy."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "parity.py"
GROUPS = ("verify", "verify-records", "general", "sg-check", "sine-gordon", "coeffs-table",
          "elliptic", "demos")


@pytest.fixture(scope="module")
def parity():
    spec = importlib.util.spec_from_file_location("parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dumped(parity, tmp_path_factory):
    path = tmp_path_factory.mktemp("parity") / "tree.json"
    assert parity.main(["dump", str(path)]) == 0
    return path


def test_dump_against_itself(parity, dumped, capsys):
    assert parity.main(["diff", str(dumped), str(dumped)]) == 0
    out = capsys.readouterr().out
    outputs = json.loads(dumped.read_text())
    assert list(outputs) == list(GROUPS)
    for group, keys in outputs.items():
        assert f"{group}: 0 of {len(keys)} outputs differ ({len(keys)} in base)\n" in out
    records = json.loads(outputs["verify"]["verify --scope all"][1])["results"]
    assert len(outputs["verify-records"]) == len(records) > 0
    assert len(outputs["sg-check"]) == 144 and len(outputs["demos"]) == 5
    tally = re.search(r"sg-check exit codes 0/1/2 in base: (\d+)/(\d+)/(\d+)\n", out)
    assert sum(map(int, tally.groups())) == 144


def test_edited_copy(parity, dumped, tmp_path, capsys):
    outputs = json.loads(dumped.read_text())
    records, cells = len(outputs["verify-records"]), len(outputs["sg-check"])
    record = next(iter(outputs["verify-records"]))
    outputs["verify-records"][record]["max_abs"] *= 2.0
    cell = next(iter(outputs["sg-check"]))
    del outputs["sg-check"][cell]
    demo = next(iter(outputs["demos"]))
    outputs["demos"][demo][1] += "one more line\n"
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(outputs))
    assert parity.main(["diff", str(dumped), str(edited)]) == 1
    out = capsys.readouterr().out
    assert (f"verify-records: 1 of {records} outputs differ ({records} in base)\n"
            f"  {record}\n") in out
    assert f"sg-check: 1 of {cells - 1} outputs differ ({cells} in base)\n  {cell}\n" in out
    assert f"demos: 1 of 5 outputs differ (5 in base)\n  {demo}\n" in out
    for group in GROUPS:
        if group not in ("verify-records", "sg-check", "demos"):
            assert f"{group}: 0 of" in out

