"""The verdicts of tools/same_outputs.py on pairs of output texts."""

import importlib.util
import pathlib

import pytest

TOOL = (pathlib.Path(__file__).resolve().parent.parent / "tools"
        / "same_outputs.py")
spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


@pytest.mark.parametrize("base, head, verdict", [
    ("t,w\n1,0.5\n", "t,w\n1,0.5\n", "identical"),
    ("t,w\n1,0.5\n2,0.25\n", "t,w\n1,0.5\n2,0.3\n",
     "1 of 3 lines differ; max abs dev 0.05, max rel dev 0.167"),
    ("step,ev_1\n1,-inf\n", "step,ev_1\n1,-1e308\n",
     "1 of 2 lines differ; max abs dev inf, max rel dev inf"),
    ("run 1 failed: nan\n", "run 1 ok: nan\n",
     "1 of 1 lines differ; max abs dev 0, max rel dev 0; text differs"),
    ("a\nb\n", "a\nb\nc\n",
     "1 of 3 lines differ; 3 lines against 2; max abs dev 0, max rel dev 0"),
], ids=["same", "number", "infinity", "text", "longer"])
def test_compare_reports_how_two_outputs_differ(base, head, verdict):
    assert same_outputs.compare(base, head) == verdict


def test_numbers_inside_names_are_text():
    # the digit of a column name such as w1_avg is not a value
    assert same_outputs.NUMBER.findall("w1_avg,ev_2,3.5e-1,-inf,nan") == [
        "3.5e-1", "-inf", "nan"]
