import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parent.parent / "tools" / "equivariance_stress.py"
_SPEC = importlib.util.spec_from_file_location("equivariance_stress", _PATH)
stress = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(stress)


def test_two_draws_pass_and_report_the_worst_parting(capsys):
    assert stress.main(["--draws", "2", "--seed", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("0 of 2 draws failed; worst parting ")
    assert float(lines[0].rsplit(" ", 1)[1]) <= stress.PARTING_TOL


def test_a_failing_draw_is_printed_and_fails_the_run(capsys, monkeypatch):
    monkeypatch.setattr(stress, "check", lambda **params: (2e-10, ["row modulation: parting 2.00e-10"]))
    assert stress.main(["--draws", "1", "--seed", "3"]) == 1
    first, last = capsys.readouterr().out.strip().splitlines()
    assert first.startswith("draw 0 {'seed': ") and first.endswith("row modulation: parting 2.00e-10")
    assert last == "1 of 1 draws failed; worst parting 2.00e-10"


def test_draws_depend_only_on_the_seed():
    first = [stress.draw(np.random.default_rng(7)) for _ in range(2)]
    assert first[0] == first[1]
    params = first[0]
    assert 8 <= params["n"] <= 24 and 1 <= params["l"] <= 3 and 0.0 <= params["f0"] < 1.0
