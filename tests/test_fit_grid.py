"""The fit grid, run in-process: `fit --scheme S --level L --samples 2,3,4
--holdout 5 --format json` for each pinned (S, L), checked by exit code and
the sha256 of its stdout, so any change to what a grid fit prints fails here."""

import contextlib
import hashlib
import io

import pytest

import repzoo.cli
from repzoo.harness import CACHE_ENV

# (scheme, level), exit code, sha256 of the JSON stdout
GRID = [
    (("GL2", 1), 0, "d571b36e5afcc60f583a6ccec164b1eac3689232bcc6868e3780db2cb3555cb9"),
    (("U2", 1), 0, "09f5e119d8d6c4e67c8be827ca0bda8f1b820de71b160a9d89547cdd7507724d"),
    (("U3", 1), 0, "4865d6f1b90556fc8645104817e31fcbdcfeb650b812dcc7526e195841b1fd30"),
    (("U3", 2), 0, "4c09349d698d72dafc055919b5e5566747513284be2cc7e675027fab91c04068"),
    (("B2", 1), 0, "ce9725ff9289e4fd5afaa5b07503226c3d7191b276055c2136c9e667554e0cf3"),
    (("B2", 2), 0, "62de853065f904467327a4ad6622a4203e30ff5904b843df680a80c8c3f6be09"),
    (("T2", 1), 0, "10097a3316798cd9f91668ee652b311d576d7029dd41c456629118416816bab9"),
    (("T2", 2), 0, "146cff0d9969c996ce05479c997e2c1e2fd9a328d63e67a2f2ffd9ad8fad7981"),
    (("T2", 3), 0, "8e6a806b3a5767c925d9f033139b9eae8b4875b7f61783e98ef952a82a37ef46"),
    (("GL1", 2), 0, "b0cae45007da20751380d0d4dc2cb3be983d21f40654afa6e91f238039a47cef"),
    (("U2", 3), 0, "5e55a44b29909d0699c89503ac5a909257811b11b01a04935616d60e255e5ed1"),
    # SL2 over mixed characteristics: no fit, and the witness is printed
    (("SL2", 1), 1, "6d085b1c77cbd313594a9cd19f8205a6b43b7d8bc396fee4f29d21537c1d4ab9"),
    (("SL2", 2), 1, "bd71c2cc58d11dbd9562416bf5074c055c4fe037cd7e7d0a63c50ee3270c60f4"),
]


@pytest.mark.parametrize("case,code,digest", GRID, ids=[f"{s}-level{l}" for (s, l), _, _ in GRID])
def test_grid_fit_prints_its_pinned_bytes(case, code, digest, tmp_path, monkeypatch):
    scheme, level = case
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    argv = ["fit", "--scheme", scheme, "--level", str(level),
            "--samples", "2,3,4", "--holdout", "5", "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert repzoo.cli.main(argv) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
