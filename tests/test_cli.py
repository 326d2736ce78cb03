"""Command line behavior: exit codes, formats, and value round-trips.

main() is called in-process so capsys sees exactly what a user would.
"""

import csv
import io
import json

import pytest
from mpmath import mp, mpf

from stieltjes import catalog
from stieltjes import functions as F
from stieltjes import series
from stieltjes.cli import main
from stieltjes.precision import NonConvergenceError

GAMMA_STR = "0.5772156649015328606065120900824024310421593359399"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

class TestCompute:
    def test_digamma_half_text(self, capsys):
        code, out, err = run(capsys, ["compute", "digamma", "--u", "0.5"])
        assert code == 0
        line = out.splitlines()[0]
        assert line.startswith("digamma(u=0.5) = ")
        printed = line.split(" = ")[1]
        with mp.workdps(60):
            ref = -mpf(GAMMA_STR) - 2 * mp.log(2)
            assert abs(mpf(printed) - ref) < mpf(10) ** -27
        assert "route: digamma_bose" in out

    def test_json_payload_round_trips(self, capsys):
        code, out, _ = run(capsys, [
            "compute", "gamma_n", "--n", "1", "--u", "1",
            "--digits", "20", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["context"]["digits"] == 20
        assert payload["function"] == "gamma_n"
        assert payload["route"] == "limit_euler_maclaurin"
        assert payload["value"] == "-0.072815845483676724861"

    def test_method_alias_reaches_dispatch(self, capsys):
        code, out, _ = run(capsys, [
            "compute", "gamma_n", "--n", "2", "--u", "1",
            "--method", "coffey", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["route"] == "coffey_integral"
        with mp.workdps(60):
            ref = mpf("-0.0096903631928723184845303860352")
            assert abs(mpf(payload["value"]) - ref) < mpf(10) ** -25

    def test_hasse_exhaustion_maps_to_exit_3(self, capsys):
        # at 20 digits the hasse route's tail estimate for n = 60 is ~0.14
        # against a tolerance of 1e-15 (it agrees with mp.stieltjes to only
        # 7 digits), so it must refuse
        code, out, err = run(capsys, [
            "compute", "gamma_n", "--n", "60", "--u", "1",
            "--method", "hasse", "--digits", "20"])
        assert code == 3
        assert "precision exhausted" in err

    def test_bad_domain_maps_to_exit_2(self, capsys):
        # non-finite numbers are refused before any route starts: a stalled
        # quadrature would exit 3, not 2; so is a route flag that the
        # function does not read, which would otherwise run the default
        for argv in (["gamma_n", "--n", "1", "--u", "-1"],
                     ["gamma_n", "--u", "nan", "--digits", "15"],
                     ["gamma_n", "--u", "inf", "--digits", "15"],
                     ["hurwitz_zeta", "--s", "nan", "--digits", "15"],
                     ["barnes_g", "--t", "inf", "--digits", "15"],
                     ["digamma", "--method", "hasse"],
                     ["gamma_n", "--route", "bose"],
                     ["hurwitz_zeta", "--route", "nonsense"],
                     ["digamma", "--s", "3"],
                     ["hurwitz_zeta", "--t", "5"],
                     ["gamma_n", "--order", "2"],
                     ["log_gamma", "--n", "4"],
                     ["barnes_g", "--u", "5", "--digits", "15"]):
            code, _, err = run(capsys, ["compute"] + argv)
            assert code == 2, argv
            assert err.startswith("error: "), argv

    def test_laplace_serves_u_1e_50_by_the_recurrence(self, capsys):
        # psi(u) = psi(u + 1) - 1/u: the rule runs at u + 1, which rounds
        # to 1, and the record says so.  The rule's own refusal past its
        # table stays pinned by test_table_end_refuses in the quadrature
        # tests, the exit-3 mapping by test_non_convergence_maps_to_exit_3
        code, out, err = run(capsys, ["compute", "digamma", "--u", "1e-50",
                                      "--route", "laplace", "--digits", "15",
                                      "--format", "json"])
        assert code == 0, err
        payload = json.loads(out)
        assert payload["diagnostics"]["recurrence_steps"] == 1
        assert payload["diagnostics"]["laplace_nodes"] <= 140
        with mp.workdps(60):
            ref = mp.psi(0, mpf("1e-50"))
            assert abs(mpf(payload["value"]) - ref) <= abs(ref) * 10 ** -14

    def test_non_convergence_maps_to_exit_3(self, capsys, monkeypatch):
        def stall(*args, **kwargs):
            raise NonConvergenceError("quadrature stalled: forced")
        monkeypatch.setattr(F, "digamma", stall)
        code, out, err = run(capsys, ["compute", "digamma", "--u", "2"])
        assert code == 3
        assert out == ""
        assert "quadrature stalled: forced" in err

    @pytest.mark.parametrize("argv", [
        ["gamma_n", "--method", m] for m in F.STIELTJES_METHODS] + [
        ["log_gamma", "--route", r] for r in F.LOG_GAMMA_ROUTES] + [
        ["barnes_g", "--route", r] for r in F.BARNES_G_ROUTES] + [
        ["digamma", "--route", "bose"], ["digamma", "--route", "laplace"],
        ["hurwitz_zeta"], ["zeta_sderiv", "--order", "1"],
        ["zeta_sderiv", "--order", "2"]] + [
        argv + ["--route", "hermite"] for argv in (
            ["hurwitz_zeta"], ["zeta_sderiv", "--order", "1"],
            ["zeta_sderiv", "--order", "2"])], ids=" ".join)
    def test_every_route_reports_a_flat_record(self, capsys, argv):
        code, out, err = run(capsys, ["compute"] + argv + [
            "--digits", "15", "--format", "json"])
        assert code == 0, err
        diag = json.loads(out)["diagnostics"]
        assert diag
        for v in diag.values():
            assert type(v) in (int, float), diag

    def test_weierstrass_barnes_g_is_right_at_120_digits(self, capsys):
        # one Euler-Maclaurin closure of the product's tail at K = 60
        code, out, err = run(capsys, [
            "compute", "barnes_g", "--route", "weierstrass_6_5", "--t",
            "0.37", "--digits", "120", "--format", "json"])
        assert code == 0, err
        with mp.workdps(150):
            ref = mp.log(mp.barnesg(1 + mpf("0.37")))
            err = abs(mpf(json.loads(out)["value"]) - ref)
            assert err <= mpf(10) ** -115 * abs(ref)

    def test_unknown_method_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, [
            "compute", "gamma_n", "--n", "1", "--method", "bogus"])
        assert code == 2

    def test_digits_out_of_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "digamma", "--u", "1", "--digits", "5"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_function_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compute", "frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

class TestTable:
    def test_csv_first_three(self, capsys):
        code, out, _ = run(capsys, [
            "table", "--first", "3", "--format", "csv", "--digits", "15"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value", "routes_agreeing_digits"]
        assert len(rows) == 4
        assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
        with mp.workdps(40):
            assert abs(mpf(rows[1][1]) - mpf(GAMMA_STR)) < mpf(10) ** -15
        for r in rows[1:]:
            assert int(r[2]) >= 15

    def test_first_beyond_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, ["table", "--first", "26"])
        assert code == 2
        assert err.strip()

    def test_each_route_runs_once_for_the_whole_table(self, capsys,
                                                      monkeypatch):
        # one oracle pass (a correction at N and at 2N per order) and one
        # alternating-zeta pass for every moment; asking row by row makes
        # 20 corrections and 4 passes
        counts = {"correction": 0, "altzeta": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapped
        monkeypatch.setattr(series, "_ORACLE_CACHE", {})
        monkeypatch.setattr(series, "_oracle_correction",
                            counting("correction", series._oracle_correction))
        monkeypatch.setattr(series, "alt_zeta_hasse",
                            counting("altzeta", series.alt_zeta_hasse))
        code, _, _ = run(capsys, ["table", "--first", "4", "--digits", "15"])
        assert code == 0
        assert counts == {"correction": 8, "altzeta": 1}

    @pytest.mark.parametrize("digits", [120, 200])
    def test_high_digit_table_matches_mpmath(self, capsys, digits):
        code, out, err = run(capsys, [
            "table", "--first", "6", "--digits", str(digits),
            "--format", "csv"])
        assert code == 0, err
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert len(rows) == 6
        with mp.workdps(digits + 5):
            for n, value, _ in rows:
                err = abs(mpf(value) - mp.stieltjes(int(n)))
                assert err <= mpf(10) ** -digits, (n, err)

    def test_routes_disagreeing_maps_to_exit_3(self, capsys, monkeypatch):
        table = series.stieltjes_altzeta_table

        def shifted(n_max, ctx):
            rows = table(n_max, ctx)
            rows[2] += mpf("1e-10")
            return rows
        monkeypatch.setattr(series, "stieltjes_altzeta_table", shifted)
        code, out, err = run(capsys, [
            "table", "--first", "3", "--digits", "15", "--format", "csv"])
        assert code == 3
        assert len(out.splitlines()) == 4
        assert "rows below 15 agreed digits: [2]" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

class TestVerify:
    def test_single_id_json_schema(self, capsys):
        code, out, _ = run(capsys, [
            "verify", "--id", "I-6.21", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"context", "entries", "summary"}
        assert payload["context"] == {"digits": 30}
        assert payload["summary"] == {"total": 1, "passed": 1, "failed": 0}
        entry = payload["entries"][0]
        assert set(entry) == {"id", "paper_anchor", "lhs", "rhs",
                              "abs_error", "tolerance", "pass",
                              "elapsed_ms", "lhs_engines", "rhs_engines",
                              "lhs_levels", "rhs_levels", "margin_digits"}
        assert entry["id"] == "I-6.21"
        assert entry["pass"] is True
        assert entry["lhs_engines"] == ["bose"]
        assert entry["rhs_engines"] == []
        # the quadrature levels per engine: rhs is a closed form
        assert entry["lhs_levels"] == {"bose": 3}
        assert entry["rhs_levels"] == {}
        with mp.workdps(40):
            assert abs(mpf(entry["lhs"]) - mpf(1) / 24) < mpf(10) ** -28
            assert mpf(entry["abs_error"]) <= mpf(entry["tolerance"])
            # err floored at 10^-50, the working digits
            margin = mp.log10(mpf(entry["tolerance"])
                              / max(mpf(entry["abs_error"]), mpf(10) ** -50))
            assert abs(entry["margin_digits"] - margin) < mpf("0.01")

    def test_verify_values_are_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, [
                "verify", "--id", "I-6.21", "--format", "json"])
            assert code == 0
            outs.append(json.loads(out))
        for payload in outs:
            payload["entries"][0].pop("elapsed_ms")
        assert outs[0] == outs[1]

    def test_failing_entry_sets_exit_1(self, capsys, monkeypatch):
        # a deliberately false entry, 1 = 2, registered for this test only;
        # the registry is built first so the patch cannot swallow it
        catalog.all_entries()
        wrong = catalog.IdentityEntry(
            id="X-false", description="deliberately false: 1 = 2",
            paper_anchor="X-false", lhs=lambda ctx: mpf(1),
            rhs=lambda ctx: mpf(2),
            tags=frozenset({"series"}))
        monkeypatch.setattr(catalog, "_REGISTRY",
                            catalog._REGISTRY + [wrong])
        code, out, _ = run(capsys, [
            "verify", "--id", "X-false", "--format", "csv"])
        assert code == 1
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["id", "paper_anchor", "lhs", "rhs",
                           "abs_error", "tolerance", "pass", "elapsed_ms"]
        assert rows[1][0] == "X-false"
        assert rows[1][6] == "False"

    def test_unknown_tag_or_id_maps_to_exit_2(self, capsys):
        code, _, err = run(capsys, ["verify", "--id", "nonsense"])
        assert code == 2
        assert err.strip()

    def test_all_and_id_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--all", "--id", "I-6.21"])
        assert exc.value.code == 2
        capsys.readouterr()

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, [
            "verify", "--id", "I-6.21", "--format", "json",
            "--out", str(target)])
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["summary"]["passed"] == 1


# ---------------------------------------------------------------------------
# cross-format consistency
# ---------------------------------------------------------------------------

def test_compute_value_identical_across_formats(capsys):
    values = {}
    for fmt in ("text", "json", "csv"):
        code = main(["compute", "gamma_n", "--n", "0", "--format", fmt])
        out = capsys.readouterr().out
        assert code == 0
        if fmt == "json":
            values[fmt] = json.loads(out)["value"]
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(out)))
            values[fmt] = rows[1][rows[0].index("value")]
        else:
            values[fmt] = out.splitlines()[0].split(" = ")[1]
    assert values["text"] == values["json"] == values["csv"]
    with mp.workdps(40):
        assert abs(mpf(values["json"]) - mpf(GAMMA_STR)) < mpf(10) ** -28
