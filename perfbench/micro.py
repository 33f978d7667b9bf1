"""Kernel micro-suite: median ns per call of pibench kernels on fixed inputs.

Each item is timed as a batch of calls, the batch is repeated, and the
median per-call time is reported. An item whose entry point no longer
exists is left out of the result rather than failing the suite.
"""

from __future__ import annotations

import statistics
import time

REPEATS = 7

# Contexts: the table scales (Tables 1-3: 15+17 = 32 digits, Tables 4-5:
# 15+12 = 27, Tables 6-7: 14+12 = 26) and a high one, 150+12 = 162 digits.
TABLE_CTX = {
    "wallis": (15, 17),
    "leibniz": (15, 17),
    "newton": (15, 17),
    "eulercf": (15, 12),
    "viete": (15, 12),
    "zeta2": (14, 12),
    "zeta4": (14, 12),
    "zeta6": (14, 12),
    "zeta8": (14, 12),
}
HIGH_CTX = (150, 12)
VALUE_METHODS = ("eulercf", "viete", "zeta2", "zeta4", "zeta6", "zeta8")
STEPS_PER_BATCH = 1000
VALUE_AT_N = 50

# pi**s to 20 digits: the radicands the zeta methods take roots of.
PI_POWERS = {4: "97.40909103400243723644", 6: "961.38919357530443703022",
             8: "9488.53101607057401285532"}


def _median_ns(batch, calls: int) -> float:
    """Median over REPEATS of the per-call time of batch(), which makes `calls` calls."""
    samples = []
    for _ in range(REPEATS):
        t0 = time.perf_counter_ns()
        batch()
        samples.append((time.perf_counter_ns() - t0) / calls)
    return statistics.median(samples)


def _repeat(fn, calls: int):
    def batch():
        for _ in range(calls):
            fn()
    return batch


def run_suite(pb) -> dict[str, float]:
    """Time every kernel in the pibench modules of namespace `pb`."""
    fp, methods, harness, report = pb.fixedpoint, pb.methods, pb.harness, pb.report
    out: dict[str, float] = {}

    def item(name, build):
        try:
            batch, calls = build()
        except AttributeError:
            return  # entry point gone: metric absent
        out[name] = _median_ns(batch, calls)

    def ctx(spec):
        return fp.PrecisionCtx(*spec)

    for m, table in TABLE_CTX.items():
        for label, spec in (("table", table), ("dp150", HIGH_CTX)):
            def steps(m=m, spec=spec):
                c = ctx(spec)

                def batch():
                    state = methods.make_state(m, c)
                    for _ in range(STEPS_PER_BATCH):
                        state.step()
                return batch, STEPS_PER_BATCH
            item(f"methods.step_ns.{m}.{label}", steps)

    for m in VALUE_METHODS:
        for label, spec in (("table", TABLE_CTX[m]), ("dp150", HIGH_CTX)):
            def value(m=m, spec=spec):
                state = methods.make_state(m, ctx(spec))
                for _ in range(VALUE_AT_N):
                    state.step()
                calls = 5 if m == "viete" and label == "dp150" else 20
                return _repeat(state.value, calls), calls
            item(f"methods.value_ns.{m}.{label}", value)

    for s in (32, 162):
        def div(s=s):
            num, den = 22 * 10 ** (2 * s) // 7, 355 * 10 ** s // 113
            return _repeat(lambda: fp._div_half_even(num, den), 2000), 2000
        item(f"fixedpoint.div_half_even_ns.s{s}", div)

    def sqrt():
        c, two = ctx(HIGH_CTX), fp.BigFixed(2)
        return _repeat(lambda: fp.fx_sqrt(two, c), 200), 200
    item("fixedpoint.sqrt_ns.s162", sqrt)

    for r, radicand in PI_POWERS.items():
        def root(r=r, radicand=radicand):
            c, x = ctx(HIGH_CTX), fp.fx_parse(radicand)
            return _repeat(lambda: fp.fx_nth_root(x, r, c), 50), 50
        item(f"fixedpoint.nth_root_ns.r{r}.s162", root)

    def to_string():
        x = fp.BigFixed(355 * 10 ** 32 // 113, 32)
        return _repeat(lambda: fp.fx_to_string(x, 15), 2000), 2000
    item("fixedpoint.to_string_ns.s32", to_string)

    for s, spec in ((32, (15, 17)), (162, HIGH_CTX)):
        for metric in ("pct_error", "digits_correct"):
            def error_metric(s=s, spec=spec, metric=metric):
                fn = getattr(harness, metric)
                ref = harness.reference_pi(ctx(spec))
                x = fp.BigFixed(355 * 10 ** s // 113, s)
                return _repeat(lambda: fn(x, ref), 500), 500
            item(f"harness.{metric}_ns.s{s}", error_metric)

    try:
        c = ctx((15, 13))
        records = list(harness.run("leibniz", harness.Schedule(tuple(range(1, 1001))), c))
        spec = report.TableSpec(None, 15)
    except AttributeError:
        return out
    item("report.csv_ns_per_record",
         lambda: ((lambda: report.render_csv(records)), len(records)))
    item("report.markdown_ns_per_record",
         lambda: ((lambda: report.render_markdown(records, spec)), len(records)))
    return out
