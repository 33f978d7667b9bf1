import mpmath

from conftest import mp_string


def test_mp_string_rounds_half_even_with_sign():
    # Dyadic inputs, so each tie is exact in mpmath's binary floats.
    cases = [
        ("3.14159", 2, "3.14"),
        ("-3.14159", 2, "-3.14"),
        ("-0.25", 2, "-0.25"),
        ("-0.0026", 3, "-0.003"),
        ("0.125", 2, "0.12"),
        ("-0.125", 2, "-0.12"),
        ("0.375", 2, "0.38"),
        ("-0.375", 2, "-0.38"),
        ("-0.75", 1, "-0.8"),
        ("2.5", 0, "2"),
        ("-3.5", 0, "-4"),
    ]
    for literal, dp, want in cases:
        assert mp_string(lambda: mpmath.mpf(literal), dp) == want, literal
