import ast
import hashlib
import importlib
import itertools
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repzoo
from repzoo import harness
from repzoo.characters import DegreeMultiset
from repzoo.cli import main as cli_main
from repzoo.groups import BudgetExceededError, GroupScheme, predicted_order
from repzoo.harness import (
    AlignmentError,
    ExperimentConfig,
    FitReport,
    compare_rings,
    compute_clifford_report,
    compute_degrees,
    fit_polynomials,
    render_fit,
    render_fit_markdown,
    run_dimirr,
    _solve_linear,
)
from repzoo.localring import RingSpec
from repzoo.polynomials import RationalPoly

GL2 = GroupScheme("GL", 2)
x = RationalPoly.x()
half = Fraction(1, 2)


def field_samples(qs):
    return {
        q: compute_degrees(GL2, RingSpec("unramified", q, 1, 1), "chardeg")
        for q in qs
    }


def test_run_dimirr_fields_match_known_rows(tmp_path):
    config = ExperimentConfig(
        GL2,
        tuple(RingSpec("unramified", p, 1, 1) for p in (2, 3, 5)),
        engine="chardeg",
        cache_dir=str(tmp_path),
    )
    results = run_dimirr(config)
    assert results["unram:2,1,1"]["degrees"] == [[1, 2], [2, 1]]
    assert results["unram:3,1,1"]["degrees"] == [[1, 2], [2, 3], [3, 2], [4, 1]]
    assert results["unram:5,1,1"]["degrees"] == [[1, 4], [4, 10], [5, 4], [6, 6]]


def test_cache_determinism(tmp_path):
    config = ExperimentConfig(
        GL2,
        (RingSpec("unramified", 2, 1, 2),),
        engine="both",
        cache_dir=str(tmp_path),
    )
    run_dimirr(config)
    blobs1 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    run_dimirr(config)
    blobs2 = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert blobs1 == blobs2 and blobs1


def test_run_dimirr_budget_error_entry(tmp_path):
    config = ExperimentConfig(
        GroupScheme("GL", 3),
        (RingSpec("unramified", 5, 1, 2),),
        engine="chardeg",
        budget=10**4,
        cache_dir=str(tmp_path),
    )
    results = run_dimirr(config)
    payload = results["unram:5,1,2"]
    assert "error" in payload and payload["predicted"] > 10**4


def test_run_dimirr_budget_error_is_not_cached(tmp_path):
    # a budget error must not be cached on disk, so the second run computes;
    # the key leaves out the budget, so the third run must not read the cache
    def run(budget):
        config = ExperimentConfig(
            GroupScheme("B", 1), (RingSpec("unramified", 3, 1, 1),), budget=budget,
            cache_dir=str(tmp_path),
        )
        return run_dimirr(config)["unram:3,1,1"]

    assert "error" in run(1)
    assert run(10**7)["degrees"] == [[1, 2]]
    assert "error" in run(1)


def test_run_dimirr_refuses_over_budget_before_building_the_key(tmp_path, monkeypatch):
    # the key's ring json finds the default modulus, which is slow for a large f
    def refuse(p, f):
        raise AssertionError("default_modulus called for an over-budget ring")

    monkeypatch.setattr(repzoo.localring, "default_modulus", refuse)
    config = ExperimentConfig(
        GL2, (RingSpec("unramified", 2, 120, 1),), engine="chardeg", cache_dir=str(tmp_path)
    )
    payload = run_dimirr(config)["unram:2,120,1"]
    assert set(payload) == {"error", "predicted"} and "exceeds budget" in payload["error"]
    assert not list(tmp_path.glob("*.json"))


def test_clifford_report_budget_is_checked_after_the_report_is_built():
    spec = RingSpec("unramified", 2, 1, 2)
    assert compute_clifford_report(GL2, spec).degrees.sum_of_squares == 96
    with pytest.raises(BudgetExceededError):
        compute_clifford_report(GL2, spec, budget=1)


@pytest.mark.parametrize(
    "engine, level, corrupt",
    [
        ("chardeg", 1, lambda text: text[: len(text) // 2]),
        (
            "chardeg",
            1,
            lambda text: text.replace('"degrees":[[1,2],[2,1]]', '"degrees":[[1,2],[2,2]]'),
        ),
        ("chardeg", 1, lambda text: text.replace('"engine":"chardeg"', '"engine":"both"')),
        # each of these leaves the degrees valid, so only the cross-checks catch it
        ("both", 2, lambda text: text.replace('"order":96', '"order":97')),
        ("both", 2, lambda text: text.replace('"n_irr":14', '"n_irr":15')),
        ("both", 2, lambda text: text.replace('"dual_order":16', '"dual_order":17')),
        ("both", 2, lambda text: text.replace('"nu":1,"sigma":6', '"nu":2,"sigma":6')),
    ],
    ids=["truncated", "wrong_degrees", "foreign_key", "order", "n_irr", "dual_order", "nu"],
)
def test_run_dimirr_recomputes_a_bad_cache_entry(tmp_path, engine, level, corrupt):
    spec = RingSpec("unramified", 2, 1, level)
    config = ExperimentConfig(GL2, (spec,), engine=engine, cache_dir=str(tmp_path))
    good = run_dimirr(config)[spec.label()]
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    bad = corrupt(text)
    assert bad != text
    path.write_text(bad)
    assert run_dimirr(config)[spec.label()] == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    assert path.read_text() == text


def test_solve_linear_particular_and_kernel():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    particular, kernel = _solve_linear(rows, [Fraction(4)])
    assert particular == [4, 0, 0]
    assert kernel == [[-2, 1, 0], [-3, 0, 1]]
    assert _solve_linear([[Fraction(1), Fraction(1)]] * 2, [Fraction(1), Fraction(2)]) is None


def test_compare_rings_equal_and_self():
    rep = compare_rings(GL2, RingSpec("unramified", 3, 1, 2), RingSpec("eqchar", 3, 1, 2))
    assert rep.equal and rep.diff == ()
    same = compare_rings(GL2, RingSpec("unramified", 2, 1, 2), RingSpec("unramified", 2, 1, 2))
    assert same.equal


def test_compare_rings_eisenstein_equals_eqchar():
    rep = compare_rings(GL2, RingSpec("eisenstein", 3, 1, 2, 2), RingSpec("eqchar", 3, 1, 2))
    assert rep.equal


def _truncation_cases(bound=2000):
    """(scheme, eis:p,f,e,r, eqchar:p,f,r) with e >= r, every family, n <= 3,
    r <= 3 and predicted order <= bound."""
    cases = []
    families = ("GL", "SL", "U", "B", "T")
    grid = itertools.product(families, (1, 2, 3), (2, 3, 5), (1, 2), (1, 2, 3), (2, 3))
    for fam, n, p, f, r, e in grid:
        if e < r or e % p == 0:
            continue
        scheme, eis = GroupScheme(fam, n), RingSpec("eisenstein", p, f, r, e)
        if predicted_order(scheme, eis) <= bound:
            cases.append((scheme, eis, RingSpec("eqchar", p, f, r)))
    return cases


@settings(derandomize=True, deadline=None, max_examples=15)
@given(st.sampled_from(_truncation_cases()))
def test_compare_rings_eisenstein_with_e_at_least_r_equals_eqchar(case):
    # o_E/pi^r = F_q[pi]/pi^r once e >= r, so the multisets must agree
    assert compare_rings(*case).equal


def test_fields_fit_reproduces_known_table():
    rep = fit_polynomials(GL2, 1, field_samples((2, 3, 5)))
    rows = sorted(((r.dim.coeffs, r.mult.coeffs) for r in rep.rows))
    expected = sorted(
        (
            (RationalPoly.one().coeffs, (x - 1).coeffs),
            ((x - 1).coeffs, (half * x * (x - 1)).coeffs),
            (x.coeffs, (x - 1).coeffs),
            ((x + 1).coeffs, (half * (x - 1) * (x - 2)).coeffs),
        )
    )
    assert rows == expected


def test_gl1_constant_family():
    gl1 = GroupScheme("GL", 1)
    samples = {
        q: compute_degrees(gl1, RingSpec("unramified", q, 1, 1), "chardeg")
        for q in (2, 3, 5)
    }
    rep = fit_polynomials(gl1, 1, samples)
    assert rep.k == 1
    assert rep.rows[0].dim == RationalPoly.one()
    assert rep.rows[0].mult == x - 1


def test_fit_needs_three_samples():
    with pytest.raises(AlignmentError):
        fit_polynomials(GL2, 1, field_samples((2, 3)))


def test_fit_report_round_trip():
    rep = fit_polynomials(GL2, 1, field_samples((2, 3, 5)))
    assert json.loads(render_fit(rep, "json")) == rep.to_json()
    assert "| i | d_i(x) | m_i(x) |" in render_fit(rep, "markdown")
    assert render_fit(rep, "csv").splitlines()[1:] == [
        f'{i},"{r.dim.pretty()}","{r.mult.pretty()}"' for i, r in enumerate(rep.rows, 1)
    ]
    with pytest.raises(ValueError):
        render_fit(rep, "html")


def test_fit_markdown_renders_example_table():
    rep = fit_polynomials(GL2, 1, field_samples((2, 3, 5)))
    md = render_fit_markdown(rep)
    assert md.count("\n| ") >= 5  # header separator plus four rows


def test_markdown_empty_rows_renders_header_only():
    empty = FitReport("GL2", 1, 0, (), (2, 3, 5), 0)
    md = render_fit_markdown(empty)
    assert "| i | d_i(x) | m_i(x) |" in md
    assert md.rstrip().endswith("|---|--------|--------|")  # no data rows


def test_stratified_fit_level2_small():
    reports = {
        q: compute_clifford_report(GL2, RingSpec("unramified", q, 1, 2))
        for q in (2, 3)
    }
    reports[4] = compute_clifford_report(GL2, RingSpec("unramified", 2, 2, 2))
    rep = fit_polynomials(GL2, 2, reports)
    assert rep.k == 7
    dim_set = {r.dim.coeffs for r in rep.rows}
    for target in (RationalPoly.one(), x - 1, x, x + 1, x * x - 1, x * x - x, x * x + x):
        assert target.coeffs in dim_set


def test_cli_compare_exit_codes(capsys):
    assert cli_main(["compare", "--scheme", "GL2", "--a", "unram:2,1,2", "--b", "eqchar:2,1,2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["equal"] is True


def test_cli_dimirr(capsys, tmp_path):
    code = cli_main(
        [
            "--cache-dir", str(tmp_path),
            "dimirr", "--scheme", "GL2", "--ring", "unram:3,1,1", "--engine", "chardeg",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["unram:3,1,1"]["degrees"] == [[1, 2], [2, 3], [3, 2], [4, 1]]


def test_cli_lietype_verify(capsys):
    assert cli_main(["lietype", "--family", "GL2", "--twist", "split", "--verify", "2,3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert all(r["contained"] for r in out["containment"]["results"])


def test_cli_config_error_exit_2(capsys):
    assert cli_main(["dimirr", "--scheme", "GL2", "--ring", "bogus:1"]) == 2


@pytest.mark.parametrize("scheme", ["GLx", "SL"])
def test_cli_scheme_without_a_size_is_a_config_error(capsys, scheme):
    assert cli_main(["dimirr", "--scheme", scheme, "--ring", "unram:2,1,1"]) == 2
    err = capsys.readouterr().err
    assert f"cannot parse scheme {scheme!r}" in err and "invalid literal" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["--samples", "2,3,6"],
        ["--samples", "2,3,4", "--holdout", "6"],
        ["--samples", "2,3,4", "--holdout", "x"],
        ["--samples", "2,3,9", "--budget", "200"],
        # every fit reproduces its samples, so a sample holds nothing out
        ["--samples", "2,3,4", "--holdout", "3"],
    ],
    ids=["sample", "holdout", "holdout-not-int", "budget", "holdout-among-samples"],
)
def test_cli_fit_rejects_a_bad_later_argument_before_any_oracle(args, monkeypatch, capsys):
    # GL2(F_9) has 5 760 elements, and GL2(o_2) at q = 9 lists 17 280 in the
    # Clifford engine: both over the budget, while q = 2 and 3 are within it
    calls = []

    def oracle(*args):
        calls.append(args)
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(repzoo.cli, "compute_degrees", oracle)
    monkeypatch.setattr(repzoo.cli, "compute_clifford_report", oracle)
    for level in ("1", "2"):
        assert cli_main(["fit", "--scheme", "GL2", "--level", level, *args]) == 2
        assert "configuration error" in capsys.readouterr().err
    assert calls == []


FIT_L1 = ["fit", "--scheme", "GL2", "--level", "1", "--samples", "2,3,5"]


@pytest.mark.parametrize("fmt", ["markdown", "json", "csv"])
def test_cli_fit_out_file_equals_stdout(fmt, capsys, tmp_path):
    out = tmp_path / f"fit.{fmt}"
    assert cli_main([*FIT_L1, "--format", fmt, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert out.read_text() == stdout
    first = {"markdown": "# Dimension/multiplicity fit", "json": "{", "csv": "i,d_i,m_i\n"}[fmt]
    assert stdout.startswith(first)


def test_cli_fit_markdown_and_json_stdout_are_pinned(capsys):
    # the bytes these printed before --out and stdout shared one renderer
    assert cli_main(FIT_L1) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "5b2cf0a119cc101cfdc5f0fbe4a8b6d57faa7c266016ecaf83f3e33fe39b4aee"
    assert cli_main([*FIT_L1, "--holdout", "7", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "e352b4fc7b130a3eaa2c3b05b916ae9dcf776f304056aec40a5ed154d1fbb35e"


@pytest.mark.parametrize(
    "scheme,ring,digest",
    [
        ("U3", "unram:3,1,1", "11275aa1b8024532fa28a5f8480a87d6baecfd608b6c62ef9143df08f16aadae"),
        ("U4", "unram:2,1,1", "3c5f331603bf0df283d89c11e7a7344e90b2166da93dac6a72b819dcfda34857"),
        ("B3", "unram:2,1,1", "6000f68e0fa41620e123ca1b2c5395f6d62f8ff2b6793e0359d9944b7f0607f3"),
    ],
)
def test_cli_dimirr_both_over_the_center_is_pinned(scheme, ring, digest, capsys, tmp_path):
    # at r = 1 a p-group's Clifford N is its center, the classes of size 1
    argv = ["--cache-dir", str(tmp_path), "dimirr", "--engine", "both", "--scheme", scheme, "--ring", ring]
    assert cli_main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_run_dimirr_cache_file_name_is_pinned(tmp_path):
    # the key still carries the ring's modulus, so existing caches stay readable
    spec = RingSpec.parse("unram:3,1,2")
    run_dimirr(ExperimentConfig(GL2, (spec,), engine="chardeg", cache_dir=str(tmp_path)))
    (path,) = tmp_path.iterdir()
    assert path.name == "b207cd89ac59acb2fef6e3309e74581a2a35c99887b17e72fba990004c3dff91.json"


def test_cli_fit_rejects_non_prime_power_samples(capsys):
    assert cli_main(["fit", "--scheme", "GL2", "--level", "1", "--samples", "1,2,3"]) == 2
    assert "1 is not a prime power" in capsys.readouterr().err


@pytest.mark.parametrize("q", ["100000000000000000039", "1000000016000000063"])
def test_cli_fit_rejects_a_huge_sample_quickly(q):
    # a prime near 10^20 is over budget, a semiprime near 10^18 is no prime
    # power; neither answer may wait on trial division up to sqrt(q)
    argv = [sys.executable, "-m", "repzoo.cli", "fit", "--scheme", "GL2", "--level", "1", "--samples", f"2,3,{q}"]
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=20)
    assert proc.returncode == 2
    assert ("exceeds budget" if q.endswith("39") else "not a prime power") in proc.stderr


@pytest.mark.parametrize("samples", ["2,3", "2,2,3"])
def test_cli_fit_rejects_fewer_than_three_distinct_samples_before_any_oracle(
    samples, monkeypatch, capsys
):
    def oracle(*args):
        raise AssertionError("an oracle ran")

    monkeypatch.setattr(repzoo.cli, "compute_degrees", oracle)
    monkeypatch.setattr(repzoo.cli, "compute_clifford_report", oracle)
    for level in ("1", "2"):
        argv = ["fit", "--scheme", "GL2", "--level", level, "--samples", samples]
        assert cli_main(argv) == 2
        assert "need at least 3 distinct sample values" in capsys.readouterr().err


def test_cli_fit_level1_with_holdout(capsys):
    code = cli_main(
        ["fit", "--scheme", "GL2", "--level", "1",
         "--samples", "2,3,5", "--holdout", "7", "--format", "json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holdout"]["match"] is True
    assert out["holdout"]["oracle"] == [[1, 6], [6, 21], [7, 6], [8, 15]]


def test_run_dimirr_does_not_serve_an_entry_of_another_schema(tmp_path, monkeypatch):
    config = ExperimentConfig(
        GL2, (RingSpec("unramified", 2, 1, 1),), engine="chardeg", cache_dir=str(tmp_path)
    )
    monkeypatch.setattr(harness, "CACHE_SCHEMA", harness.CACHE_SCHEMA + 1)
    run_dimirr(config)
    (path,) = tmp_path.iterdir()
    # a marked but otherwise valid entry for the same key
    payload = json.loads(path.read_text())
    path.write_text(json.dumps({**payload, "stale": True}))
    assert run_dimirr(config)["unram:2,1,1"]["stale"] is True
    monkeypatch.undo()
    assert "stale" not in run_dimirr(config)["unram:2,1,1"]
    assert len(list(tmp_path.iterdir())) == 2


def test_run_dimirr_leaves_no_temporary_file_when_the_rename_fails(tmp_path, monkeypatch):
    config = ExperimentConfig(
        GL2, (RingSpec("unramified", 2, 1, 1),), engine="chardeg", cache_dir=str(tmp_path)
    )

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        run_dimirr(config)
    assert list(tmp_path.iterdir()) == []


def _fit_samples(scheme, level, qs, kind):
    if kind == "stratified":
        return {q: compute_clifford_report(scheme, RingSpec.for_q(q, level)) for q in qs}
    return {q: compute_degrees(scheme, RingSpec.for_q(q, level), "chardeg") for q in qs}


# (scheme, level, samples, kind), score, rows (d, m) as ascending coefficients
PINNED_FITS = [
    (("GL2", 1, (2, 3, 4), "flat"), 9, [
        (["1/1"], ["-1/1", "1/1"]),
        (["-1/1", "1/1"], ["0/1", "-1/2", "1/2"]),
        (["0/1", "1/1"], ["-1/1", "1/1"]),
        (["1/1", "1/1"], ["1/1", "-3/2", "1/2"]),
    ]),
    (("U3", 1, (2, 3, 5), "flat"), 4, [
        (["1/1"], ["0/1", "0/1", "1/1"]),
        (["0/1", "1/1"], ["-1/1", "1/1"]),
    ]),
    (("B2", 1, (2, 3, 5), "flat"), 4, [
        (["1/1"], ["1/1", "-2/1", "1/1"]),
        (["-1/1", "1/1"], ["-1/1", "1/1"]),
    ]),
    (("T2", 1, (2, 3, 5), "flat"), 2, [
        (["1/1"], ["1/1", "-2/1", "1/1"]),
    ]),
    (("GL1", 1, (2, 3, 5), "flat"), 1, [
        (["1/1"], ["-1/1", "1/1"]),
    ]),
    (("B2", 2, (2, 3, 4), "stratified"), 10, [
        (["1/1"], ["0/1", "0/1", "1/1", "-2/1", "1/1"]),
        (["-1/1", "1/1"], ["0/1", "0/1", "-1/1", "1/1"]),
        (["0/1", "-1/1", "1/1"], ["0/1", "-1/1", "1/1"]),
    ]),
    (("T2", 2, (2, 3, 4), "stratified"), 4, [
        (["1/1"], ["0/1", "0/1", "1/1", "-2/1", "1/1"]),
    ]),
    # the stratum's count needs a residual: x^4 (x - 1)^2 through three samples
    (("T2", 3, (2, 3, 4), "stratified"), 6, [
        (["1/1"], ["0/1", "0/1", "0/1", "0/1", "1/1", "-2/1", "1/1"]),
    ]),
    (("GL1", 2, (2, 3, 4), "stratified"), 2, [
        (["1/1"], ["0/1", "-1/1", "1/1"]),
    ]),
    (("U2", 3, (2, 3, 4), "stratified"), 3, [
        (["1/1"], ["0/1", "0/1", "0/1", "1/1"]),
    ]),
    (("U2", 1, (2, 3, 4), "flat"), 1, [
        (["1/1"], ["0/1", "1/1"]),
    ]),
    (("U3", 1, (2, 3, 4), "flat"), 4, [
        (["1/1"], ["0/1", "0/1", "1/1"]),
        (["0/1", "1/1"], ["-1/1", "1/1"]),
    ]),
    (("U3", 2, (2, 3, 4), "stratified"), 10, [
        (["1/1"], ["0/1", "0/1", "0/1", "0/1", "1/1"]),
        (["0/1", "1/1"], ["0/1", "0/1", "-1/1", "1/1"]),
        (["0/1", "0/1", "1/1"], ["0/1", "-1/1", "1/1"]),
    ]),
    (("GL2", 2, (2, 3, 4), "stratified"), 27, [
        (["1/1"], ["0/1", "-1/1", "1/1"]),
        (["-1/1", "1/1"], ["0/1", "0/1", "-1/2", "1/2"]),
        (["0/1", "1/1"], ["0/1", "-1/1", "1/1"]),
        (["1/1", "1/1"], ["0/1", "1/1", "-3/2", "1/2"]),
        (["-1/1", "0/1", "1/1"], ["0/1", "0/1", "-1/1", "1/1"]),
        (["0/1", "-1/1", "1/1"], ["0/1", "1/2", "-1/2", "-1/2", "1/2"]),
        (["0/1", "1/1", "1/1"], ["0/1", "-1/2", "3/2", "-3/2", "1/2"]),
    ]),
    # SL2(F_q), q odd: degrees (q -+ 1)/2 with counts 2 (Fulton-Harris 5.2)
    (("SL2", 1, (3, 9, 27), "flat"), 7, [
        (["1/1"], ["1/1"]),
        (["-1/2", "1/2"], ["2/1"]),
        (["1/2", "1/2"], ["2/1"]),
        (["-1/1", "1/1"], ["-1/2", "1/2"]),
        (["0/1", "1/1"], ["1/1"]),
        (["1/1", "1/1"], ["-3/2", "1/2"]),
    ]),
    (("SL2", 1, (5, 7, 9), "flat"), 7, [
        (["1/1"], ["1/1"]),
        (["-1/2", "1/2"], ["2/1"]),
        (["1/2", "1/2"], ["2/1"]),
        (["-1/1", "1/1"], ["-1/2", "1/2"]),
        (["0/1", "1/1"], ["1/1"]),
        (["1/1", "1/1"], ["-3/2", "1/2"]),
    ]),
    # SL2(F_q), q even: no (q -+ 1)/2 rows
    (("SL2", 1, (2, 4, 8), "flat"), 5, [
        (["1/1"], ["1/1"]),
        (["-1/1", "1/1"], ["0/1", "1/2"]),
        (["0/1", "1/1"], ["1/1"]),
        (["1/1", "1/1"], ["-1/1", "1/2"]),
    ]),
    (("SL2", 2, (3, 5, 7), "stratified"), 18, [
        (["1/1"], ["1/1"]),
        (["-1/1", "1/1"], ["-1/2", "1/2"]),
        (["-1/2", "1/2"], ["2/1"]),
        (["0/1", "1/1"], ["1/1"]),
        (["1/2", "1/2"], ["2/1"]),
        (["1/1", "1/1"], ["-3/2", "1/2"]),
        (["-1/2", "0/1", "1/2"], ["0/1", "4/1"]),
        (["0/1", "-1/1", "1/1"], ["-1/2", "0/1", "1/2"]),
        (["0/1", "1/1", "1/1"], ["1/2", "-1/1", "1/2"]),
    ]),
]

# the notes of a pinned fit, each with the number of times it is given; no
# pinned fit gives any, since the order-identity bound rules out the profiles
# that left a residual family unpinned
PINNED_NOTES = {}


def _pinned_ids():
    # scheme, level and kind, plus the samples where that repeats an earlier id
    ids = []
    for (name, level, qs, kind), _, _ in PINNED_FITS:
        base = f"{name}-level{level}-{kind}"
        ids.append(f"{base}-q{''.join(map(str, qs))}" if base in ids else base)
    return ids


@pytest.mark.parametrize("case,score,rows", PINNED_FITS, ids=_pinned_ids())
def test_fit_report_is_pinned(case, score, rows):
    name, level, qs, kind = case
    scheme = GroupScheme.parse(name)
    rep = fit_polynomials(scheme, level, _fit_samples(scheme, level, qs, kind)).to_json()
    assert Counter(rep.pop("notes")) == Counter(PINNED_NOTES.get(case, {}))
    assert rep == {
        "scheme": name,
        "level": level,
        "k": len(rows),
        "samples": list(qs),
        "rows": [{"d": d, "m": m} for d, m in rows],
        "score": score,
        "holdout": None,
    }


def test_sl2_level2_stratified_fit_is_refused():
    sl2 = GroupScheme("SL", 2)
    with pytest.raises(AlignmentError):
        fit_polynomials(sl2, 2, _fit_samples(sl2, 2, (2, 3, 4), "stratified"))


def _reference_slot_assignments(entries, k):
    """Every way to spread the (key, count) entries of one sample over k ordered
    slots, as the fitter listed them before it placed rows one at a time."""
    out = []
    n = len(entries)

    def rec(idx, taken, slots):
        filled = len(slots)
        if filled == k:
            if idx == n:
                out.append(tuple(slots))
            return
        if k - filled - 1 >= n - idx:
            slots.append((None, 0))
            rec(idx, taken, slots)
            slots.pop()
        if idx < n:
            d, m = entries[idx]
            left = m - taken
            for take in range(1, left + 1):
                slots.append((d, take))
                if take < left:
                    rec(idx, taken + take, slots)
                else:
                    rec(idx + 1, 0, slots)
                slots.pop()

    rec(0, 0, [])
    return out


def _reference_alignments(qs, entries_by_q):
    # the full product of the per-sample slot assignments
    k = max(len(entries_by_q[q]) for q in qs)
    per_sample = [_reference_slot_assignments(entries_by_q[q], k) for q in qs]
    for combo in itertools.product(*per_sample):
        yield [dict(zip(qs, row)) for row in zip(*combo)]


def _alignment_counts(alignments):
    return Counter(tuple(tuple(sorted(row.items())) for row in rows) for rows in alignments)


@st.composite
def _slot_tables(draw):
    # ascending keys with counts up to 3, so colliding values split over
    # adjacent slots; smaller q may have fewer entries, so rows go absent there
    qs = (2, 3, 4)[: draw(st.integers(1, 3))]
    k = draw(st.integers(1, 3))
    sizes = sorted(draw(st.lists(st.integers(1, k), min_size=len(qs) - 1, max_size=len(qs) - 1)))
    tables = {}
    for q, n in zip(qs, [*sizes, k]):
        keys = sorted(draw(st.sets(st.integers(1, 9), min_size=n, max_size=n)))
        counts = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        tables[q] = tuple(zip(keys, counts))
    return qs, tables


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_slot_tables(), st.sets(st.tuples(st.sampled_from((2, 3, 4)), st.integers(0, 9))))
def test_alignments_match_the_per_sample_product(case, refused):
    qs, tables = case
    reference = list(_reference_alignments(qs, tables))
    accepted = list(harness._alignments(qs, tables, lambda row: row))
    assert _alignment_counts(rows for rows, _ in accepted) == _alignment_counts(reference)
    assert all(list(rows) == list(fits) for rows, fits in accepted)
    # a refused row drops exactly the alignments that contain it
    def fit_row(row):
        return None if any((q, key or 0) in refused for q, (key, _) in row.items()) else row

    pruned = [rows for rows, _ in harness._alignments(qs, tables, fit_row)]
    kept = [rows for rows in reference if all(fit_row(row) for row in rows)]
    assert _alignment_counts(pruned) == _alignment_counts(kept)


SL2 = GroupScheme("SL", 2)


def _sl2_samples(qs):
    return {q: compute_degrees(SL2, RingSpec.for_q(q, 1), "chardeg") for q in qs}


def test_alignments_match_the_per_sample_product_on_sl2():
    qs = (2, 3, 4, 5)
    tables = {q: dm.entries for q, dm in _sl2_samples(qs).items()}
    reference = _alignment_counts(_reference_alignments(qs, tables))
    assert sum(reference.values()) == 88_200
    accepted = harness._alignments(qs, tables, lambda row: row)
    assert _alignment_counts(rows for rows, _ in accepted) == reference


def test_sl2_level1_fit_fails_fast(monkeypatch):
    # each row is interpolated once under the rows above it, not once per
    # alignment: the per-sample product took 10 118 calls to fail here
    calls = []
    real = harness.interpolate

    def counting(points):
        calls.append(points)
        return real(points)

    samples = _sl2_samples((2, 3, 5))
    monkeypatch.setattr(harness, "interpolate", counting)
    with pytest.raises(AlignmentError, match="no consistent fit for slot counts"):
        fit_polynomials(SL2, 1, samples)
    assert 0 < len(calls) <= 1000


def test_sl2_level1_fit_fails_after_few_profile_solves(monkeypatch):
    # only the residual profiles the order identity allows are solved: the
    # search over guessed residual degrees made 1 472 solves here
    calls = []
    real = harness._fit_mults_for_profile

    def counting(*args):
        calls.append(args)
        return real(*args)

    samples = _sl2_samples((2, 3, 5))
    monkeypatch.setattr(harness, "_fit_mults_for_profile", counting)
    with pytest.raises(AlignmentError, match="no consistent fit for slot counts"):
        fit_polynomials(SL2, 1, samples)
    assert 0 < len(calls) <= 200


def test_fit_mults_for_profile_refuses_a_two_dimensional_residual_family():
    # three rows of degree 1 share one residual equation c_0 + c_1 + c_2 = 1,
    # so the constant residuals form a 2-dimensional family
    sroot = (x - 2) * (x - 3) * (x - 4)
    one = RationalPoly.one()
    with pytest.raises(harness._ProfileAmbiguous, match="2-dimensional residual family"):
        harness._fit_mults_for_profile([one] * 3, [one] * 3, sroot, sroot, (0, 0, 0), 2, 3)


def test_cli_fit_sl2_level1_exits_1_with_its_witness(capsys):
    argv = ["fit", "--scheme", "SL2", "--level", "1", "--samples", "2,3,5"]
    assert cli_main(argv) == 1
    out = capsys.readouterr().out
    assert json.loads(out) == {
        "assertion_failure": "no consistent fit for slot counts {2: 2, 3: 3, 5: 6}"
    }


def test_cli_fit_sl2_level1_on_powers_of_3_matches_its_holdout(capsys):
    argv = ["fit", "--scheme", "SL2", "--level", "1", "--samples", "3,9,27",
            "--holdout", "5", "--format", "json"]
    assert cli_main(argv) == 0
    assert json.loads(capsys.readouterr().out)["holdout"]["match"] is True


def test_cli_fit_non_integer_prediction_names_q_row_and_value(capsys):
    # d = (q - 1)/2 is 3/2 at the even holdout q = 4
    argv = ["fit", "--scheme", "SL2", "--level", "1", "--samples", "3,9,27",
            "--holdout", "4", "--format", "json"]
    assert cli_main(argv) == 1
    assert json.loads(capsys.readouterr().out) == {
        "assertion_failure": "('non-integer prediction at q = 4: row 2 has d = 3/2, m = 2',)"
    }


@pytest.mark.parametrize(
    "p,qs,accepted",
    [
        ((x - 3) * half, (), True),  # an SL2 count, not an integer at even x
        ((x - 1) * half, (3, 5, 7), True),
        (x * Fraction(1, 3), (), False),  # 3 does not divide 2!
        ((x - 1) * half, (4,), False),  # 3/2 at a sample
        ((x - 3) * half, (3,), False),  # 0 at a sample
        (x**4, (), False),  # above the cap
        (-x, (), False),
    ],
)
def test_row_poly_boundaries_at_n_2(p, qs, accepted):
    # cap 3 = deg |SL2(F_q)|, denominators dividing 2! = 2
    assert harness._is_row_poly(p, 3, 2, qs) is accepted


def test_cli_fit_holdout_mismatch_exits_1_with_the_diff(monkeypatch, capsys):
    real = repzoo.cli.compute_degrees
    # GL2(F_7) has 15 irreducibles of degree 8; the wrong oracle says 14
    wrong = DegreeMultiset(((1, 6), (6, 21), (7, 6), (8, 14)))

    def oracle(scheme, spec, engine, budget):
        return wrong if spec.q == 7 else real(scheme, spec, engine, budget)

    monkeypatch.setattr(repzoo.cli, "compute_degrees", oracle)
    assert cli_main([*FIT_L1, "--holdout", "7", "--format", "json"]) == 1
    *report, last = capsys.readouterr().out.splitlines()
    holdout = json.loads("\n".join(report))["holdout"]
    assert holdout["match"] is False and holdout["oracle"] == [list(p) for p in wrong.entries]
    assert json.loads(last) == {"holdout_diff": [[8, 15, 14]]}


@pytest.mark.parametrize("scheme", ["GL1", "T1"])
def test_cli_fit_level3_rank_one(capsys, scheme):
    # a multiplicity may reach the degree of |G| = (x - 1) x^2
    argv = ["fit", "--scheme", scheme, "--level", "3", "--samples", "2,3,4", "--format", "json"]
    assert cli_main(argv) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["rows"] == [{"d": RationalPoly.one().to_json(), "m": (x**3 - x**2).to_json()}]


def _run(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(repzoo.__file__).parents[1])}
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def test_predicted_multiset_refuses_a_negative_multiplicity_under_optimize():
    # python -O strips assert statements; the check must still raise
    code = (
        "from repzoo.harness import FitReport, FitRow\n"
        "from repzoo.polynomials import RationalPoly\n"
        "row = FitRow(RationalPoly.one(), RationalPoly((-1,)))\n"
        "FitReport('GL1', 1, 1, (row,), (2, 3, 5), 0).predicted_multiset(2)"
    )
    proc = _run([sys.executable, "-O", "-c", code])
    assert proc.returncode != 0
    assert "negative multiplicity prediction" in proc.stderr


def test_reproduce_gl2_table_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_gl2_table.py"
    proc = _run([sys.executable, str(script)])
    assert proc.returncode == 0, proc.stderr
    assert "prediction matches the oracle multiset" in proc.stdout


SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_imports_from_repzoo_resolve(script):
    # only one script is run above, so a deleted name must not break the others
    for node in ast.walk(ast.parse(script.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repzoo":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{script.name}: {node.module}.{alias.name}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repzoo":
                    importlib.import_module(alias.name)


Q9_LEVEL2 = ["dimirr", "--scheme", "GL2", "--ring", "unram:3,2,2"]


def test_cli_dimirr_clifford_reaches_gl2_of_level_2_over_f9(capsys, tmp_path):
    # |GL2(o_2)| = 37.8 M at q = 9; the Clifford engine lists GL2(F_9), N and
    # stabilizer quotients of at most 17 280 elements, under the default budget.
    # The degrees are the level-2 rows fitted on q = 2, 3, 4, evaluated at 9.
    assert cli_main(["--cache-dir", str(tmp_path), *Q9_LEVEL2, "--engine", "clifford"]) == 0
    out = json.loads(capsys.readouterr().out)["unram:3,2,2"]
    assert out["degrees"] == [
        [1, 72], [8, 324], [9, 72], [10, 252], [72, 2880], [80, 648], [90, 2304]
    ]
    assert out["order"] == predicted_order(GL2, RingSpec("unramified", 3, 2, 2)) == 37_791_360


def test_cli_dimirr_chardeg_of_level_2_over_f9_is_over_budget(capsys, tmp_path):
    assert cli_main(["--cache-dir", str(tmp_path), *Q9_LEVEL2, "--engine", "chardeg"]) == 1
    out = json.loads(capsys.readouterr().out)["unram:3,2,2"]
    assert out["predicted"] == 37_791_360 and "exceeds budget" in out["error"]
    assert not list(tmp_path.glob("*.json"))


def test_cli_dimirr_clifford_budget_of_u1_is_its_one_element(capsys, tmp_path):
    # the pre-check and compute_clifford_report bound the same count: U1 at
    # level 2 is one element, which build_group lists
    argv = ["--cache-dir", str(tmp_path), "dimirr", "--scheme", "U1", "--ring", "unram:2,1,2"]
    assert cli_main([*argv, "--engine", "clifford", "--budget", "1"]) == 0
    out = json.loads(capsys.readouterr().out)["unram:2,1,2"]
    assert out["order"] == 1 and "error" not in out


def test_cli_fit_clifford_budget_error_says_what_it_counts(capsys):
    # |GL2(Z/4)| = 96, but what the budget bounds at level 2 is clifford_size,
    # here the 16 elements of N = K^1, so the message must not call 16 the order
    argv = ["fit", "--scheme", "GL2", "--level", "2", "--samples", "2,3,4", "--budget", "10"]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "GL2(unram:2,1,2)" in err and "up to 16 elements" in err and "exceeds budget 10" in err
    assert "| = 16" not in err
