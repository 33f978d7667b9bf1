import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pibench.fixedpoint import BigFixed, fx_to_string
from pibench.harness import ERR_DP, TABLE_PRESETS, RunRecord, Schedule, run
from pibench.methods import MethodId
from pibench.report import (
    CSV_HEADER,
    ReportShapeError,
    TableSpec,
    csv_line,
    render_csv,
    render_markdown,
    render_plot_data,
)


@pytest.fixture(scope="module")
def wallis_records(ctx15, ref15):
    return list(run(MethodId.WALLIS, Schedule((5, 10, 15)), ctx15, ref15))


@pytest.fixture(scope="module")
def zeta_records(ctx14, ref14):
    recs = []
    for m in (MethodId.ZETA2, MethodId.ZETA4, MethodId.ZETA6, MethodId.ZETA8):
        recs.extend(run(m, Schedule((95, 100)), ctx14, ref14))
    return recs


class TestMarkdown:
    def test_table1_row(self, wallis_records):
        text = render_markdown(wallis_records, TableSpec.for_table(1))
        assert "| 5 | 3.002175954556907 | 4.43777 |" in text.splitlines()

    def test_table6_row(self, zeta_records):
        text = render_markdown(zeta_records, TableSpec.for_table(6))
        row = next(ln for ln in text.splitlines() if ln.startswith("| 100 |"))
        assert "3.14159265358979" in row

    def test_table7_errors(self, zeta_records):
        text = render_markdown(zeta_records, TableSpec.for_table(7))
        row = next(ln for ln in text.splitlines() if ln.startswith("| 100 |"))
        # four error cells at 5 dp
        cells = [c.strip() for c in row.split("|")[2:-1]]
        assert len(cells) == 4
        assert all("." in c and len(c.split(".")[1]) == 5 for c in cells)

    def test_empty_records(self):
        with pytest.raises(ReportShapeError):
            render_markdown([], TableSpec(None, 15))

    def test_single_method_table_rejects_multi(self, zeta_records):
        with pytest.raises(ReportShapeError):
            render_markdown(zeta_records, TableSpec.for_table(1))

    def test_zeta_table_rejects_single(self, wallis_records):
        with pytest.raises(ReportShapeError):
            render_markdown(wallis_records, TableSpec.for_table(6))

    def test_for_table_reads_registry(self):
        for tid, preset in TABLE_PRESETS.items():
            spec = TableSpec.for_table(tid)
            assert (spec.table_id, spec.value_dp) == (tid, preset.working_dp)

    def test_unknown_table_id(self):
        with pytest.raises(ReportShapeError):
            TableSpec.for_table(8)

    def test_custom_layout(self, wallis_records):
        text = render_markdown(wallis_records, TableSpec(None, 15))
        assert text.splitlines()[0] == "| n | wallis | wallis err (%) |"


class TestCsv:
    def test_header_only(self):
        assert render_csv([]) == CSV_HEADER + "\n"

    def test_wallis_row(self, wallis_records):
        lines = render_csv(wallis_records).splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("wallis,5,3.002175954556907,")

    def test_leibniz_signed(self, ctx15, ref15):
        recs = run(MethodId.LEIBNIZ, Schedule((10,)), ctx15, ref15)
        row = render_csv(recs).splitlines()[1]
        fields = row.split(",")
        assert fields[3] == "-2.88781"
        assert fields[4] == "2.88781"

    def test_lf_endings(self, wallis_records):
        text = render_csv(wallis_records)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_round_trip(self, wallis_records):
        # Each row gives back its record's fields at the printed precision.
        lines = render_csv(wallis_records).splitlines()
        assert len(lines) == 1 + len(wallis_records)
        for r, line in zip(wallis_records, lines[1:]):
            assert line.split(",") == [
                r.method.value, str(r.n), r.value_str(15),
                fx_to_string(r.signed_err_pct, 5), fx_to_string(r.abs_err_pct, 5),
                str(r.digits_correct), str(r.elapsed_ns),
            ]


class TestPlotData:
    def test_empty(self):
        assert render_plot_data([]) == ""

    def test_viete_pairs(self, ctx15, ref15):
        recs = run(MethodId.VIETE, Schedule(tuple(range(1, 11))), ctx15, ref15)
        text = render_plot_data(recs)
        blocks = text.strip().split("\n\n")
        value_block = next(b for b in blocks if b.startswith("# viete value"))
        assert len(value_block.splitlines()) == 11
        assert value_block.splitlines()[1].startswith("1 3.061467458920718")

    def test_leibniz_signed_alternates(self, ctx15, ref15):
        recs = run(MethodId.LEIBNIZ, Schedule(tuple(range(0, 21))), ctx15, ref15)
        text = render_plot_data(recs)
        blocks = text.strip().split("\n\n")
        signed = next(b for b in blocks if b.startswith("# leibniz signed_err_pct"))
        signs = [ln.split()[1].startswith("-") for ln in signed.splitlines()[1:]]
        assert signs == [i % 2 == 0 for i in range(21)]  # even n overshoots


@st.composite
def _to_print(draw, dp=None):
    """(x, dp): x at a scale below, equal to or above dp, and a third of the
    time exactly half-way between two printed values."""
    if dp is None:
        dp = draw(st.integers(0, 25))
    scale = draw(st.integers(max(dp - 3, 0), dp + 15))
    if scale > dp and draw(st.integers(0, 2)) == 0:
        sig = (2 * draw(st.integers(-10**12, 10**12)) + 1) * 5 * 10**(scale - dp - 1)
    else:
        sig = draw(st.integers(-10**25, 10**25))
    return BigFixed(sig, scale), dp


@given(_to_print(), _to_print(ERR_DP))
@example((BigFixed(25, 2), 1), (BigFixed(-35, 6), ERR_DP))  # ties to even
@example((BigFixed(-35, 2), 1), (BigFixed(25, 6), ERR_DP))
@example((BigFixed(314, 2), 2), (BigFixed(1, 5), ERR_DP))  # scale == dp
@example((BigFixed(314, 2), 5), (BigFixed(1, 4), ERR_DP))  # scale < dp
@example((BigFixed(25, 1), 0), (BigFixed(0, 9), ERR_DP))  # dp 0, zero error
def test_csv_cells_are_fx_to_string(value, err):
    # csv_line prints its value and error cells from one division each; they
    # must be exactly what fx_to_string prints.
    (v, dp), (e, _) = value, err
    record = RunRecord(MethodId.NEWTON_ARCSINE, 7, v, e, abs(e), 3, 11, dp)
    assert csv_line(record) == (
        f"newton,7,{fx_to_string(v, dp)},{fx_to_string(e, ERR_DP)},"
        f"{fx_to_string(abs(e), ERR_DP)},3,11\n"
    )


@given(sig=st.integers(-10**9, 10**9), scale=st.integers(0, 12))
@example(sig=-5, scale=6)  # -0.000005: a tie that rounds to zero from below
@example(sig=-4, scale=6)
@example(sig=-15, scale=6)  # a tie that rounds away from zero
@example(sig=-1, scale=12)
def test_error_cells_round_once(sig, scale):
    # The abs cell is the signed cell without its '-': exact, because
    # half-even rounding is symmetric about zero.
    x = BigFixed(sig, scale)
    record = RunRecord(MethodId.LEIBNIZ, 1, BigFixed(3), x, abs(x), 0, 0, 15)
    signed, absolute = fx_to_string(x, ERR_DP), fx_to_string(abs(x), ERR_DP)
    assert csv_line(record).split(",")[3:5] == [signed, absolute]
    blocks = render_plot_data([record]).split("\n\n")
    assert blocks[1:] == [f"# leibniz abs_err_pct\n1 {absolute}",
                          f"# leibniz signed_err_pct\n1 {signed}\n"]
