"""Golden stdout of every subcommand at fixed arguments, compared byte for byte.

The files under ``tests/golden/`` pin the CLI output, so a refactor of the
formulas or the option handling shows any change in what a user sees.  In
``verify`` only the figures after ``max deviation`` and ``max ZNZD drift``
and the ``max_error`` and ``max_drift`` metrics are masked: they are
floating-point round-off (bounded here by 1e-12) and move with any change in
the order of the arithmetic.

Regenerate with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import re
from pathlib import Path

import pytest

from seqmeas.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "probs.json": ["probs"],
    "probs.csv": ["probs", "--format", "csv"],
    "probs_second.json": [
        "probs", "--alpha", "100", "--phi", "200", "--theta", "50", "--varphi", "300",
        "--kappa", "0.3", "--degrees",
    ],
    "estimate.json": ["estimate", "--trials", "1000000", "--seed", "42"],
    "estimate_second.csv": [
        "estimate", "--alpha", "1.1", "--phi", "0.4", "--theta", "2.0", "--varphi", "1.3",
        "--gamma", "0.8", "--trials", "300001", "--seed", "7", "--workers", "2",
        "--format", "csv",
    ],
    "tradeoff.json": ["tradeoff", "--grid", "100"],
    "tradeoff.csv": [
        "tradeoff", "--theta", "1.0471975511965976", "--grid", "1000", "--format", "csv",
    ],
    "znzd.json": [
        "znzd", "--alpha", "0.7853981633974483", "--phi", "1.5707963267948966",
        "--theta", "1.5707963267948966", "--varphi", "0",
    ],
    "znzd_scan.csv": ["znzd", "--scan", "--scan-points", "180", "--format", "csv"],
    "znzd_scan.json": ["znzd", "--scan", "--scan-points", "180"],
    "verify.json": ["verify", "--seed", "42"],
}

# Round-off figures in the verify details; masked, then bounded.
_ROUND_OFF = re.compile(r'(max deviation|max ZNZD drift|"max_error":|"max_drift":) ([-+0-9.e]+)')
ROUND_OFF_BOUND = 1e-12


def _mask(text: str) -> tuple[str, list[float]]:
    values = [float(m.group(2)) for m in _ROUND_OFF.finditer(text)]
    return _ROUND_OFF.sub(r"\1 <round-off>", text), values


def _stdout(capsys, argv: list[str]) -> str:
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, f"{argv} exited {code}"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(capsys, name):
    expected = (GOLDEN_DIR / name).read_text(encoding="utf-8")
    actual = _stdout(capsys, CASES[name])
    if name.startswith("verify"):
        expected, _ = _mask(expected)
        actual, round_off = _mask(actual)
        assert len(round_off) == 6
        assert all(0.0 <= v <= ROUND_OFF_BOUND for v in round_off), round_off
    assert actual == expected


if __name__ == "__main__":
    import contextlib
    import io

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0, argv
        (GOLDEN_DIR / name).write_text(buffer.getvalue(), encoding="utf-8")
