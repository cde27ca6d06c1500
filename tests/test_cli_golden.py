"""Golden-bytes tests of the command-line output.

Each case runs one ``cumica`` command in-process and compares its stdout
byte for byte with a file under ``tests/golden/``.  The files were
written by the code before the method registry, alpha check and CSV
writer were merged into one place each, so a refactor that changes any
banner, CSV cell or unmixing matrix fails here.  The emitted data set is
pinned by its SHA-256 digest instead of a 150 kB file.

Regenerate the files (only for an intended output change) with::

    PYTHONPATH=src python3 tests/test_cli_golden.py

It prints one line per file it rewrites: "unchanged", or the worst
relative change of any floating-point number in the file followed by
each banner (``#``) line that differs, old and new.
"""

import contextlib
import hashlib
import io
import os
import re
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
    # one block of 10, a worker's whole share, in one lockstep ascent
    "simulate_mc_symmetric": ["simulate", "--sources", SOURCES, "--method",
                              "symmetric", "--alpha", "0.8", "--n", "1200",
                              "--reps", "10", "--seed", "4",
                              "--threads", "1"],
}
# golden name suffix -> (method, alpha); the weight endpoints pin the
# single-stack branches of the diagonalization methods
ESTIMATES = {method: (method, "0.8") for method in
             ("deflation", "symmetric", "compound", "jade", "fobi")}
ESTIMATES.update(compound_alpha1=("compound", "1"), jade_alpha0=("jade", "0"),
                 jade_alpha1=("jade", "1"))


def _stdout(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def _estimate_argv(name):
    method, alpha = ESTIMATES[name]
    # a relative --in path keeps the echoed banner independent of the cwd
    return ["estimate", "--in", "data.csv", "--method", method,
            "--alpha", alpha, "--seed", "3"]


def _golden(name):
    return (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_stdout(name):
    assert _stdout(CASES[name]) == _golden(name)


def test_emit_data_digest():
    text = _stdout(EMIT)
    assert hashlib.sha256(text.encode()).hexdigest() == EMIT_SHA256


@pytest.mark.filterwarnings("ignore::cumica.errors.CumicaWarning")
@pytest.mark.parametrize("name", ESTIMATES)
def test_estimate_stdout(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "data.csv").write_text(_stdout(EMIT))
    assert _stdout(_estimate_argv(name)) == _golden(f"estimate_{name}")


# a number with a fraction or an exponent, or a nan/inf cell
_FLOAT = re.compile(r"[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)"
                    r"|\b(?:nan|inf)\b")


def _drift(old, new):
    """How a golden file's text moved: the report line's lines."""
    if old == new:
        return ["unchanged"]
    a, b = _FLOAT.findall(old), _FLOAT.findall(new)
    if len(a) != len(b):
        lines = [f"layout changed ({len(a)} -> {len(b)} numbers)"]
    else:
        worst = 0.0
        for x, y in zip(map(float, a), map(float, b)):
            if x == y or (x != x and y != y):
                continue
            rel = abs(x - y) / max(abs(x), abs(y))
            # a cell that became or stopped being nan or inf
            worst = max(worst, rel) if rel == rel else float("inf")
        lines = [f"worst relative change {worst:.1e}"]
    old_b = [ln for ln in old.splitlines() if ln.startswith("#")]
    new_b = [ln for ln in new.splitlines() if ln.startswith("#")]
    for x, y in zip(old_b, new_b):
        if x != y:
            lines += [f"  - {x}", f"  + {y}"]
    if len(old_b) != len(new_b):
        lines.append(f"  banner lines {len(old_b)} -> {len(new_b)}")
    return lines


def _write_golden(name, text):
    path = GOLDEN / f"{name}.txt"
    old = path.read_text() if path.exists() else None
    path.write_text(text)
    lines = ["new file"] if old is None else _drift(old, text)
    print(f"{path.name}: {lines[0]}")
    for line in lines[1:]:
        print(line)


def _regenerate(workdir):
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        _write_golden(name, _stdout(argv))
    data = _stdout(EMIT)
    digest = hashlib.sha256(data.encode()).hexdigest()
    print("EMIT_SHA256:", "unchanged" if digest == EMIT_SHA256
          else f"changed, now {digest}")
    os.chdir(workdir)
    Path("data.csv").write_text(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name in ESTIMATES:
            _write_golden(f"estimate_{name}", _stdout(_estimate_argv(name)))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(tmp)
