"""Every narrative script must keep running as the API evolves."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).parent.parent / "demos"


@pytest.mark.parametrize("name", [
    "01_tokens_and_vocabulary.py",
    "02_classic_transforms.py",
    "03_growing_set_masks.py",
    "04_training_forests.py",
    "05_bitmask_inference.py",
    "06_evaluation_protocol.py",
])
def test_demo_runs(name, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", [name])
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
