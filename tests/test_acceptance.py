"""Acceptance checks, one test per criterion.

Each test prints a single "[ACCEPTANCE] <name>: PASS/FAIL" line. Table
cells are held to the audit rule of ``pibench.goldens``: a cell that is not
flagged divergent must equal its published string; a flagged cell must
equal its frozen recomputation. A flag is earned only by a published cell
that exact arithmetic refutes, so for every flagged cell read here the
frozen recomputation must equal an independent mpmath oracle and the
published string must not. Breaches are reported cell by cell.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from conftest import (
    exact,
    leibniz_mp,
    mp_string,
    pct_err_mp,
    pow_int,
    viete_mp,
    wallis_mp,
)
from pibench.fixedpoint import (
    BigFixed,
    PrecisionCtx,
    fx_nth_root,
    fx_sqrt,
    fx_to_string,
)
from pibench.goldens import load as load_goldens
from pibench.harness import (
    ERR_DP,
    TABLE_PRESETS,
    Schedule,
    digits_correct,
    pct_error,
    reference_pi,
    run,
)
from pibench.methods import MethodId, approximant, euler_cf_convergent, make_state


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    else:
        print(f"[ACCEPTANCE] {name}: PASS")


def _cell(row, method, column):
    """(published, frozen recomputation or None) of one goldens cell; the
    cell is flagged divergent iff the recomputation is not None."""
    flag = row["flags"].get(method, {})
    return row[column + "s"][method], flag.get(f"recomputed_{column}")


def _row(table, n):
    return next(row for row in table["rows"] if row["n"] == n)


def _table_mismatches(records, tid, oracle=None, dps=80, check_values=True,
                      check_errs=True, value_ns=None, err_ns=None):
    """Cells of single-method table ``tid`` that break the audit rule, one
    line each.

    ``oracle(n)`` gives the exact table value under mpmath at ``dps``
    digits; the error column's truth is ``pct_err_mp`` of it.
    """
    preset = TABLE_PRESETS[tid]
    (method,) = (m.value for m in preset.methods)
    by_n = {r.n: r for r in records}
    bad = []
    for row in load_goldens()[str(tid)]["rows"]:
        n = row["n"]
        rec = by_n[n]
        cells = []
        if check_values and (value_ns is None or n in value_ns):
            cells.append(("value", rec.value_str(preset.working_dp),
                          preset.working_dp, lambda: oracle(n)))
        if check_errs and (err_ns is None or n in err_ns):
            cells.append(("err", fx_to_string(rec.abs_err_pct, ERR_DP),
                          ERR_DP, lambda: pct_err_mp(oracle(n))))
        for col, got, dp, exact in cells:
            published, frozen = _cell(row, method, col)
            if frozen is None:
                if got != published:
                    bad.append(f"n={n} {col} computed={got} published={published}")
                continue
            if got != frozen:
                bad.append(f"n={n} {col} computed={got} frozen={frozen}")
            truth = mp_string(exact, dp, dps)
            if frozen != truth:
                bad.append(f"n={n} {col} frozen={frozen} oracle={truth}")
            if published == truth:
                bad.append(f"n={n} {col} flagged divergent but published={published}"
                           " matches the oracle")
    return bad


def test_criterion_1_wallis_table(table_runs):
    with criterion("Table 1: published cells, flagged cells at their audited recomputation"):
        records = table_runs[1]
        by_n = {r.n: r for r in records}
        assert by_n[5].value_str(15) == "3.002175954556907"
        assert by_n[10 ** 7].value_str(15) == "3.141592575049982"
        assert fx_to_string(by_n[5].abs_err_pct, 5) == "4.43777"
        assert table_runs["table1_seconds"] <= 120.0
        bad = _table_mismatches(records, 1, wallis_mp)
        assert not bad, "cells breaking the audit rule: " + "; ".join(bad)
        # The source prints 0.00001; the exact error is 0.0000025 %.
        assert fx_to_string(by_n[10 ** 7].abs_err_pct, 5) == "0.00000"


def test_criterion_2_leibniz_table(table_runs):
    with criterion("Table 2: published cells, flagged cells at their audited recomputation"):
        table = load_goldens()["2"]
        records = table_runs[2]
        # rows n = 1e6, 1e7 must be flagged as divergent duplicates that
        # violate the alternating remainder bound |S_n - pi| >= 4/(4n+6)
        ref = reference_pi(TABLE_PRESETS[2].ctx)
        pi_ref = Fraction(
            fx_to_string(ref.value, 25).replace(".", "")
        ) / 10 ** 25
        for row in table["rows"]:
            if row["n"] in (10 ** 6, 10 ** 7):
                value, frozen = _cell(row, "leibniz", "value")
                assert frozen is not None, f"n={row['n']} not flagged"
                remainder = Fraction(4, 4 * row["n"] + 6)
                published = Fraction(value.replace(".", "")) / 10 ** 15
                # published value sits closer to pi than the bound allows
                assert abs(published - pi_ref) < remainder
        # row-shifted error cells at n >= 80 are documented divergences
        shifted = [
            row["n"] for row in table["rows"]
            if _cell(row, "leibniz", "err")[1] is not None and row["n"] >= 80
        ]
        assert shifted, "no documented row-shift divergences at n >= 80"
        bad = _table_mismatches(records, 2, leibniz_mp)
        assert not bad, "cells breaking the audit rule: " + "; ".join(bad)


def test_criterion_3_newton_table(table_runs):
    with criterion("Table 3 reproduction + 15 digits from n=25 on"):
        records = table_runs[3]
        bad = _table_mismatches(records, 3, value_ns={5, 10, 15, 20},
                                err_ns={5, 10, 15, 20})
        assert not bad, "; ".join(bad)
        by_n = {r.n: r for r in records}
        ctx = TABLE_PRESETS[3].ctx
        ref = reference_pi(ctx)
        assert digits_correct(approximant(MethodId.NEWTON_ARCSINE, 25, ctx), ref) >= 15
        for r in records:
            if r.n > 25:
                assert r.digits_correct >= 15, f"n={r.n}"


def test_criterion_4_continued_fraction(table_runs):
    with criterion("Table 4 d=1 exact; d>=2 flagged; series equivalence"):
        table = load_goldens()["4"]
        records = table_runs[4]
        by_n = {r.n: r for r in records}
        assert by_n[1].value_str(15) == "2.666666666666667"
        assert _cell(_row(table, 1), "eulercf", "value") == ("2.666666666666667", None)
        for row in table["rows"]:
            if row["n"] >= 2:
                _, frozen = _cell(row, "eulercf", "value")
                assert frozen is not None, f"d={row['n']} not flagged"
                # the flag carries the recomputed convergent and we match it
                assert by_n[row["n"]].value_str(15) == frozen
        ctx = PrecisionCtx(15, 12)
        for d in range(1, 21):
            series = sum(Fraction(4 * (-1) ** k, 2 * k + 1) for k in range(d + 1))
            assert euler_cf_convergent(d) == series
        one_ulp = Fraction(1, 10 ** 15)
        for d in range(1, 101):
            cf = approximant(MethodId.EULER_CF, d, ctx)
            diff = exact(cf) - exact(approximant(MethodId.LEIBNIZ, d, ctx))
            assert abs(diff) <= one_ulp, f"d={d}"


def test_criterion_5_viete_table(table_runs):
    with criterion("Table 5: published values, flagged values at their audited recomputation"):
        records = table_runs[5]
        by_n = {r.n: r for r in records}
        # saturation from n=25 onward
        for r in records:
            if r.n >= 25:
                assert r.value_str(15) == "3.141592653589793", f"n={r.n}"
        # viete_mp cancels about 0.6n digits; 160 dps covers n <= 100.
        bad = _table_mismatches(records, 5, viete_mp, dps=160, check_errs=False)
        assert not bad, "cells breaking the audit rule: " + "; ".join(bad)
        # The source prints ...921242, a float cancellation artifact.
        assert by_n[1].value_str(15) == "3.061467458920718"


def test_criterion_6_zeta_tables(table_runs):
    with criterion("Tables 6-7: zeta values at 14 dp + error ordering"):
        zeta_runs = table_runs[6]
        for row in load_goldens()["6"]["rows"]:
            for method in TABLE_PRESETS[6].methods:
                rec = next(r for r in zeta_runs[method] if r.n == row["n"])
                got = rec.value_str(14)
                published, frozen = _cell(row, method.value, "value")
                if method is MethodId.ZETA2 and row["n"] == 5:
                    assert frozen.startswith("2.96338")
                    assert got == frozen
                else:
                    assert got == published, f"n={row['n']} {method.value}"
        # Table 7 pattern on recomputed full-precision errors
        for n in TABLE_PRESETS[6].schedule:
            errs = [
                next(r for r in zeta_runs[m] if r.n == n).abs_err_pct
                for m in (MethodId.ZETA2, MethodId.ZETA4, MethodId.ZETA6, MethodId.ZETA8)
            ]
            assert errs[0] > errs[1] > errs[2] > errs[3] > BigFixed(0), f"n={n}"


def test_criterion_7_property_suite():
    with criterion("Property suite (monotonicity, rates, ulp bounds)"):
        suite_start = time.perf_counter()
        hi = PrecisionCtx(140, 12)
        ref_hi = reference_pi(hi)
        for method in (
            MethodId.WALLIS,
            MethodId.NEWTON_ARCSINE,
            MethodId.VIETE,
            MethodId.ZETA2,
            MethodId.ZETA4,
            MethodId.ZETA6,
            MethodId.ZETA8,
        ):
            state = make_state(method, hi)
            state.step()
            prev = state.value()
            for _ in range(200):
                state.step()
                cur = state.value()
                assert prev < cur < ref_hi.value, f"{method.value} n={state.n}"
                prev = cur

        ctx = PrecisionCtx(15, 12)
        ref = reference_pi(ctx)
        state = make_state(MethodId.LEIBNIZ, ctx)
        assert state.value() > ref.value
        for n in range(1, 201):
            state.step()
            assert (state.value() > ref.value) == (n % 2 == 0), f"n={n}"

        # Wallis rate: n * |1 - w(n)/pi| in [0.24, 0.26] for n in 50..500
        lo, hi_bound = Fraction("0.24"), Fraction("0.26")
        pi = exact(ref.value)
        state = make_state(MethodId.WALLIS, ctx)
        for _ in range(49):
            state.step()
        for n in range(50, 501):
            if state.n < n:
                state.step()
            scaled = n * abs(1 - exact(state.value()) / pi)
            assert lo <= scaled <= hi_bound, f"n={n} rate={float(scaled):.6f}"

        # Viete rate: err(n)/err(n+1) in [3.8, 4.2] for n in 1..20
        rlo, rhi = Fraction("3.8"), Fraction("4.2")
        errs = [pi - exact(approximant(MethodId.VIETE, n, ctx)) for n in range(1, 22)]
        for i in range(20):
            ratio = errs[i] / errs[i + 1]
            assert rlo <= ratio <= rhi, f"n={i + 1} ratio={float(ratio):.4f}"

        # sqrt / nth-root ulp bounds on 1000 random inputs
        rng = random.Random(20240815)
        root_ctx = PrecisionCtx(12, 0)
        for _ in range(500):
            sig = rng.randrange(0, 10 * 10 ** 12)
            x = BigFixed(sig, 12)
            r = fx_sqrt(x, root_ctx)
            lo_sig = max(r.significand - 1, 0)
            hi_sig = r.significand + 1
            scaled_x = sig * 10 ** 12
            assert lo_sig * lo_sig <= scaled_x <= hi_sig * hi_sig
        for _ in range(500):
            sig = rng.randrange(10 ** 12, 10 * 10 ** 12)  # x in [1, 10]
            r_ord = rng.choice((2, 4, 6, 8))
            x = BigFixed(sig, 12)
            y = fx_nth_root(pow_int(x, r_ord, root_ctx), r_ord, root_ctx)
            assert abs(exact(y) - exact(x)) <= Fraction(1, 10 ** root_ctx.scale)

        # reference integrity
        assert fx_to_string(ref.value, 15) == "3.141592653589793"
        with pytest.raises(Exception):
            reference_pi(ctx, "3.241592653589793")

        assert time.perf_counter() - suite_start <= 300.0


def _error_ratio_bounds(a, b):
    """Bounds on (pi - a) / (pi - b) for decimal strings a, b below pi,
    each exact to half a unit in its last place; pi from mpmath."""
    pi = Fraction(mp_string(lambda: mpmath.pi, 40))

    def err_range(s):
        half = Fraction(1, 2 * 10 ** len(s.partition(".")[2]))
        return pi - Fraction(s) - half, pi - Fraction(s) + half

    (a_lo, a_hi), (b_lo, b_hi) = err_range(a), err_range(b)
    return a_lo / b_hi, a_hi / b_lo


def test_criterion_8_comparison_presets():
    with criterion("Comparison presets (Newton/Leibniz, Viete/CF, zeta8/Newton)"):
        tables = load_goldens()
        ctx = PrecisionCtx(15, 12)
        ref = reference_pi(ctx)
        # Table 3 saturates at n = 25; Table 2's n = 30 value has one digit.
        newton = run(MethodId.NEWTON_ARCSINE, Schedule(tuple(range(1, 101))), ctx, ref)
        first = next((r.n for r in newton if r.digits_correct >= 15), None)
        assert first is not None and first <= 25
        assert digits_correct(approximant(MethodId.LEIBNIZ, 30, ctx), ref) <= 2

        # The depth-25 convergent is the n = 25 Leibniz sum (criterion 4),
        # so its error is Table 2's published, non-divergent n = 25 cell.
        _, viete2_err = pct_error(approximant(MethodId.VIETE, 2, ctx), ref)
        _, cf25_err = pct_error(approximant(MethodId.EULER_CF, 25, ctx), ref)
        assert viete2_err < cf25_err
        leibniz25_err, frozen = _cell(_row(tables["2"], 25), "leibniz", "err")
        assert frozen is None
        assert fx_to_string(cf25_err, 5) == leibniz25_err

        _, newton5_err = pct_error(approximant(MethodId.NEWTON_ARCSINE, 5, ctx), ref)
        zeta_ctx = PrecisionCtx(15, 12)
        _, zeta8_err = pct_error(approximant(MethodId.ZETA8, 5, zeta_ctx), ref)
        assert zeta8_err < newton5_err
        factor = exact(newton5_err) / exact(zeta8_err)
        # The factor the published, non-divergent n = 5 cells of Tables 3
        # and 6 give, within their rounding.
        newton5, frozen = _cell(_row(tables["3"], 5), "newton", "value")
        zeta5 = _row(tables["6"], 5)
        assert frozen is None and "zeta8" not in zeta5["flags"]
        lo, hi = _error_ratio_bounds(newton5, zeta5["values"]["zeta8"])
        assert lo <= factor <= hi, (
            f"error factor at n=5 is {float(factor):.9f},"
            f" published cells give {float(lo):.9f}..{float(hi):.9f}"
        )
