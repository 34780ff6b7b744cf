"""CLI outputs and Hamiltonian terms compared with committed goldens.

The files in tests/golden/ were written by an earlier version of the
code and are never regenerated: a refactor that changes a result must
show up here.  ``terms_sha256.json`` pins the sector terms themselves:
the sha256 and dtype of every array of ``real_terms`` and
``momentum_terms`` over a set of sectors, so any change to a single bit
of a term build fails before it reaches a solve.

CSV floats are compared to one unit of the 12th printed
significant digit rather than as strings, because a rounding-level
change in a matrix can flip that last digit.  The comparison is made on
the printed decimals exactly, as ``decimal.Decimal``: one unit passes,
two fail, whatever the binary rounding of the two strings.
"""

import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from ehub.cli import main
from ehub.fock import Sector, enumerate_sector
from ehub.hamiltonian import real_terms
from ehub.momentum import momentum_terms

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "sweep_L6.csv": ["sweep", "--L", "6", "--l", "1,2,3",
                     "--grid-u", "-4:4:1", "--grid-v", "-2:2:0.5"],
    "sweep_L8.csv": ["sweep", "--L", "8", "--l", "3",
                     "--grid-u", "-4:4:1", "--grid-v", "-2:2:0.5"],
    "momentum_L8.csv": ["momentum", "--L", "8", "--k", "1.1780972451",
                        "--U", "-2", "--grid-v", "-1:0.5:0.1"],
    "sizescan_L6_L8.csv": ["sizescan", "--l", "2", "--L", "6,8", "--axis", "U",
                           "--grid-u", "-4:4:2", "--V", "1"],
    "derivative_L8.csv": ["derivative", "--L", "8", "--l", "4", "--U", "-2",
                          "--grid-v", "-0.6:0.2:0.1", "--h", "0.05"],
    "scaling_L10.csv": ["scaling", "--L", "10", "--U", "-2", "--V", "-1"],
    "local_L6.csv": ["local", "--L", "6", "--U", "4", "--V", "0.5", "--site", "3",
                     "--t", "1.5"],
    "entropy_L6.csv": ["entropy", "--L", "6", "--U", "-2", "--V", "-0.5", "--l", "1,2,3",
                       "--bc", "antiperiodic", "--t", "1.5"],
}

# Columns compared as strings; every other column is a float.
EXACT = ("L", "l", "U", "V", "bc", "degenerate", "dominant")
DEGENERATE_GAP_ATOL = 1e-8


def within_last_digit(got: str, want: str) -> bool:
    """True when two printed floats differ by at most one unit of the 12th
    significant digit of the larger one; non-finite values must match."""
    a, b = Decimal(got), Decimal(want)
    if not (a.is_finite() and b.is_finite()):
        return got == want
    if a == b:
        return True
    exponent = max(d.adjusted() for d in (a, b) if d != 0)
    return abs(a - b) <= Decimal(1).scaleb(exponent - 11)


def _read(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="ascii") as handle:
        return list(csv.DictReader(handle))


def _assert_matches_golden(name: str, out: Path) -> None:
    want = _read(GOLDEN / name)
    got = _read(out)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        where = f"{name} row {i + 1}"
        assert g.keys() == w.keys(), f"{where}: columns {list(g)} != {list(w)}"
        for key in w:
            if key in EXACT:
                assert g[key] == w[key], f"{where}: {key} {g[key]} != {w[key]}"
                continue
            if key == "gap" and w["degenerate"] == "1":
                ok = abs(float(g[key]) - float(w[key])) <= DEGENERATE_GAP_ATOL
            else:
                ok = within_last_digit(g[key], w[key])
            assert ok, f"{where}: {key} {g[key]} vs golden {w[key]}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    capsys.readouterr()
    _assert_matches_golden(name, out)


def test_sweep_golden_with_one_blas_thread(tmp_path):
    """At U = V = 0 the largest amplitudes of sweep_L6.csv tie in exact
    arithmetic; the ``dominant`` label must not follow the rounding that
    the BLAS thread count picks."""
    name = "sweep_L6.csv"
    out = tmp_path / name
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
    cmd = [sys.executable, "-m", "ehub.cli", *CASES[name], "--out", str(out)]
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=600)
    _assert_matches_golden(name, out)


@pytest.mark.parametrize("got, want, ok", [
    ("0.652010991706", "0.652010991707", True),  # 1.0000889e-12 apart in binary
    ("0.652010991706", "0.652010991708", False),
    ("-12.3456789012", "-12.3456789013", True),
    ("-12.3456789012", "-12.3456789014", False),
    ("9.99999999999", "10.0000000000", True),  # one unit of the larger value's digit
    ("1e-05", "1.00000000001e-05", True),
    ("1e-05", "1.00000000002e-05", False),
    ("0", "0", True),
    ("0", "1e-300", False),
    ("inf", "inf", True),
    ("nan", "nan", True),
    ("nan", "0.5", False),
])
def test_within_last_digit(got, want, ok):
    assert within_last_digit(got, want) is ok
    assert within_last_digit(want, got) is ok


# (terms builder, L, nup, ndn): half filling at every size, plus a
# one-up-two-down and a no-up sector while the sector is small
TERM_SECTORS = (
    *((real_terms, L, L // 2, L // 2) for L in (4, 6, 8, 10)),
    *((momentum_terms, L, L // 2, L // 2) for L in (4, 6, 8)),
    *((build, L, nup, ndn) for build in (real_terms, momentum_terms) for L in (4, 6)
      for nup, ndn in ((1, 2), (0, L // 2))),
)


def _digest(array: np.ndarray) -> str:
    return f"{array.dtype.str} {hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()}"


def term_digests() -> dict[str, dict[str, str]]:
    """dtype and sha256 of every array of the terms in ``TERM_SECTORS``, both boundaries."""
    out = {}
    for build, L, nup, ndn in TERM_SECTORS:
        basis = enumerate_sector(Sector(L, nup, ndn))
        for bc in ("periodic", "antiperiodic"):
            terms = build(basis, bc)
            arrays = {f"pattern.{f.name}": getattr(terms.pattern, f.name)
                      for f in dataclasses.fields(terms.pattern)}
            arrays.update((f.name, getattr(terms, f.name))
                          for f in dataclasses.fields(terms) if f.name != "pattern")
            key = f"{build.__name__} L={L} ({nup},{ndn}) {bc}"
            out[key] = {name: _digest(a) for name, a in arrays.items()}
    return out


def test_term_digests_match_golden():
    want = json.loads((GOLDEN / "terms_sha256.json").read_text(encoding="ascii"))
    got = term_digests()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
