"""Golden-bytes tests of the command-line output.

Each case runs one ``cumica`` command in-process and compares its stdout
byte for byte with a file under ``tests/golden/``.  The files were
written by the code before the method registry, alpha check and CSV
writer were merged into one place each, so a refactor that changes any
banner, CSV cell or unmixing matrix fails here.  The emitted data set is
pinned by its SHA-256 digest instead of a 150 kB file.

Regenerate the files (only for an intended output change) with::

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import os
import tempfile
import warnings
from pathlib import Path

import pytest

from cumica.cli import main

GOLDEN = Path(__file__).with_name("golden")
SOURCES = "gamma:1,gamma:2,gamma:4"
EMIT = ["simulate", "--sources", SOURCES, "--n", "2500", "--seed", "11",
        "--mixing", "random", "--emit-data"]
EMIT_SHA256 = \
    "5239f7b63fbf9b9ccc1e8cfaf2db2dc7931fc8eb58c040c53d2f59807c7db519"

CASES = {
    "asv_symmetric": ["asv", "--method", "symmetric", "--alpha", "1.0",
                      "--sources", SOURCES],
    "asv_fobi": ["asv", "--method", "fobi", "--alpha", "0.5",
                 "--sources", SOURCES],
    "contour": ["contour", "--family-x", "gamma", "--range-x", "0.5:8",
                "--family-y", "gamma", "--range-y", "0.5:8", "--method",
                "compound", "--alpha", "0.5", "--steps", "3"],
    "optimal_alpha": ["optimal-alpha", "--pi", "0.3", "--mu", "5"],
    "check_assumptions": ["check-assumptions", "--sources", SOURCES,
                          "--method", "compound", "--alpha", "0.5"],
    "simulate_mc": ["simulate", "--sources", SOURCES, "--method", "jade",
                    "--alpha", "0.8", "--n", "1200", "--reps", "8",
                    "--seed", "4", "--threads", "1"],
}
ESTIMATE_METHODS = ("deflation", "symmetric", "compound", "jade", "fobi")


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _estimate_argv(method):
    # a relative --in path keeps the echoed banner independent of the cwd
    return ["estimate", "--in", "data.csv", "--method", method,
            "--alpha", "0.8", "--seed", "3"]


def _golden(name):
    return (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_stdout(name):
    assert _stdout(CASES[name]) == _golden(name)


def test_emit_data_digest():
    text = _stdout(EMIT)
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_SHA256


@pytest.mark.filterwarnings("ignore::cumica.errors.CumicaWarning")
@pytest.mark.parametrize("method", ESTIMATE_METHODS)
def test_estimate_stdout(method, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(_stdout(EMIT))
    assert _stdout(_estimate_argv(method)) == _golden(f"estimate_{method}")


def _regenerate(workdir):
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / f"{name}.txt").write_text(_stdout(argv))
    data = _stdout(EMIT)
    print("EMIT_SHA256 =", hashlib.sha256(data.encode()).hexdigest())
    os.chdir(workdir)
    Path("data.csv").write_text(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method in ESTIMATE_METHODS:
            (GOLDEN / f"estimate_{method}.txt").write_text(
                _stdout(_estimate_argv(method)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(tmp)
