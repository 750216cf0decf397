import importlib.util
from pathlib import Path

from sinespikes import solver

_PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_SPEC = importlib.util.spec_from_file_location("parity", _PATH)
parity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(parity)


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)


def test_compare_dirs_names_every_file_that_is_missing_or_differs(tmp_path):
    write_tree(tmp_path / "base", {"a/out/report.json": b"1.0", "a/config.json": b"{}",
                                   "b/out/trace.csv": b"f\n", "b/out/old.csv": b""})
    write_tree(tmp_path / "change", {"a/out/report.json": b"1.0 ", "a/config.json": b"{}",
                                     "b/out/trace.csv": b"f\n", "c/out/new.csv": b""})
    assert parity.compare_dirs(tmp_path / "base", tmp_path / "change") == [
        "b/out/old.csv: only in base",
        "c/out/new.csv: only in change",
        "a/out/report.json: bytes differ",
    ]


def test_compare_dirs_of_identical_trees_is_empty(tmp_path):
    files = {"synth/out/instance.json": b'{"n_sensors": 32}', "empty.txt": b""}
    write_tree(tmp_path / "base", files)
    write_tree(tmp_path / "change", files)
    assert parity.compare_dirs(tmp_path / "base", tmp_path / "change") == []


def test_compare_runs_names_the_call_and_the_stream():
    base = {"synth": (0, "wrote out/instance.json\n", ""), "demix": (0, "gap 1e-5\n", "")}
    change = {"synth": (0, "wrote out/instance.json\n", ""), "demix": (2, "gap 1e-5\n", "warn")}
    assert parity.compare_runs(base, change) == [
        "demix: exit code differs: base 0, change 2",
        "demix: stderr differs: base '', change 'warn'",
    ]


def test_one_capped_demix_call_ends_off_the_gap_check_schedule():
    # the solve's last check then is not a scheduled one
    caps = {name: config["solver"]["max_iterations"] for name, config, _ in parity.CALLS
            if "solver" in config}
    assert sorted(caps) == ["demix-capped", "demix-capped-60"]
    assert caps["demix-capped"] % solver._GAP_EVERY == 0
    assert caps["demix-capped-60"] % solver._GAP_EVERY
