import ast
import importlib
import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repzoo
from repzoo import harness
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
    render_fit_markdown,
    run_dimirr,
    write_report,
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


def test_clifford_report_budget_is_checked_after_the_report_is_built():
    spec = RingSpec("unramified", 2, 1, 2)
    assert compute_clifford_report(GL2, spec).degrees.sum_of_squares == 96
    with pytest.raises(BudgetExceededError):
        compute_clifford_report(GL2, spec, budget=1)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda text: text[: len(text) // 2],
        lambda text: text.replace('"degrees":[[1,2],[2,1]]', '"degrees":[[1,2],[2,2]]'),
        lambda text: text.replace('"engine":"chardeg"', '"engine":"both"'),
    ],
    ids=["truncated", "wrong_degrees", "foreign_key"],
)
def test_run_dimirr_recomputes_a_bad_cache_entry(tmp_path, corrupt):
    config = ExperimentConfig(
        GL2, (RingSpec("unramified", 2, 1, 1),), engine="chardeg", cache_dir=str(tmp_path)
    )
    good = run_dimirr(config)["unram:2,1,1"]
    (path,) = tmp_path.iterdir()
    text = path.read_text()
    bad = corrupt(text)
    assert bad != text
    path.write_text(bad)
    assert run_dimirr(config)["unram:2,1,1"] == good
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


def test_fit_report_round_trip(tmp_path):
    rep = fit_polynomials(GL2, 1, field_samples((2, 3, 5)))
    path = write_report(rep, "json", tmp_path / "fit.json")
    back = json.loads(path.read_text())
    assert back == rep.to_json()
    md = render_fit_markdown(rep)
    assert "| i | d_i(x) | m_i(x) |" in md
    write_report(rep, "markdown", tmp_path / "fit.md")
    write_report(rep, "csv", tmp_path / "fit.csv")
    assert (tmp_path / "fit.md").exists() and (tmp_path / "fit.csv").exists()


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


def test_cli_fit_rejects_non_prime_power_samples(capsys):
    assert cli_main(["fit", "--scheme", "GL2", "--level", "1", "--samples", "1,2,3"]) == 2
    assert "1 is not a prime power" in capsys.readouterr().err


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
    (("GL1", 2, (2, 3, 4), "stratified"), 2, [
        (["1/1"], ["0/1", "-1/1", "1/1"]),
    ]),
    (("U2", 3, (2, 3, 4), "stratified"), 3, [
        (["1/1"], ["0/1", "0/1", "0/1", "1/1"]),
    ]),
]


@pytest.mark.parametrize(
    "case,score,rows",
    PINNED_FITS,
    ids=[f"{name}-level{level}-{kind}" for (name, level, _, kind), _, _ in PINNED_FITS],
)
def test_fit_report_is_pinned(case, score, rows):
    name, level, qs, kind = case
    scheme = GroupScheme.parse(name)
    rep = fit_polynomials(scheme, level, _fit_samples(scheme, level, qs, kind))
    assert rep.to_json() == {
        "scheme": name,
        "level": level,
        "k": len(rows),
        "samples": list(qs),
        "rows": [{"d": d, "m": m} for d, m in rows],
        "score": score,
        "notes": [],
        "holdout": None,
    }


def test_sl2_level2_stratified_fit_is_refused():
    sl2 = GroupScheme("SL", 2)
    with pytest.raises(AlignmentError):
        fit_polynomials(sl2, 2, _fit_samples(sl2, 2, (2, 3, 4), "stratified"))


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
