"""Unit helpers: formatting, parsing, physical constants."""


import pytest

from repro.core import units


class TestConstants:
    def test_prefix_values(self):
        assert units.pA == 1e-12
        assert units.nA == 1e-9
        assert units.fF == 1e-15
        assert units.um == 1e-6
        assert units.MHz == 1e6

    def test_thermal_voltage_at_room_temperature(self):
        vt = units.thermal_voltage(300.0)
        assert 0.0258 < vt < 0.0259

    def test_thermal_voltage_scales_linearly(self):
        assert units.thermal_voltage(600.0) == pytest.approx(2 * units.thermal_voltage(300.0))

    def test_thermal_voltage_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.thermal_voltage(0.0)

    def test_faraday_and_avogadro_consistent(self):
        assert units.FARADAY == pytest.approx(
            units.ELEMENTARY_CHARGE * units.AVOGADRO, rel=1e-6
        )


class TestSiFormat:
    def test_nanoamp(self):
        assert units.si_format(2.35e-9, "A") == "2.35 nA"

    def test_picoamp(self):
        assert units.si_format(1e-12, "A") == "1 pA"

    def test_megahertz(self):
        assert units.si_format(32e6, "Hz") == "32 MHz"

    def test_unity(self):
        assert units.si_format(5.0, "V") == "5 V"

    def test_zero(self):
        assert units.si_format(0.0, "A") == "0 A"

    def test_negative_value_keeps_sign(self):
        assert units.si_format(-3e-3, "V") == "-3 mV"

    def test_no_unit(self):
        assert units.si_format(1500.0) == "1.5 k"

    def test_digits_control(self):
        assert units.si_format(1.23456e-9, "A", digits=5) == "1.2346 nA"

    def test_very_small_value_uses_atto(self):
        assert "a" in units.si_format(3e-18, "A")

    def test_infinity_passthrough(self):
        assert "inf" in units.si_format(float("inf"), "A")


class TestSiParse:
    def test_parse_nanoamp(self):
        assert units.si_parse("100 nA") == pytest.approx(100e-9)

    def test_parse_no_space(self):
        assert units.si_parse("1.5pF") == pytest.approx(1.5e-12)

    def test_parse_plain_number(self):
        assert units.si_parse("42") == 42.0

    def test_parse_micro_sign(self):
        assert units.si_parse("3 µV") == pytest.approx(3e-6)

    def test_parse_bare_meter_is_unit_not_milli(self):
        assert units.si_parse("5 m") == 5.0

    def test_parse_milli_with_unit(self):
        assert units.si_parse("5 mV") == pytest.approx(5e-3)

    def test_parse_empty_raises(self):
        with pytest.raises(ValueError):
            units.si_parse("")

    def test_parse_garbage_raises(self):
        with pytest.raises(ValueError):
            units.si_parse("abc")

    def test_roundtrip(self):
        for value in (1e-12, 3.3e-9, 4.7e-6, 2.2e-3, 1.0, 5e3, 32e6):
            formatted = units.si_format(value, "X", digits=9)
            assert units.si_parse(formatted) == pytest.approx(value, rel=1e-6)


class TestDecibels:
    def test_db_of_ten(self):
        assert units.db(10.0) == pytest.approx(10.0)

    def test_db20_of_ten(self):
        assert units.db20(10.0) == pytest.approx(20.0)

    def test_from_db_inverse(self):
        assert units.from_db(units.db(123.0)) == pytest.approx(123.0)

    def test_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.db(0.0)

    def test_decades(self):
        assert units.decades(1e-12, 1e-7) == pytest.approx(5.0)

    def test_decades_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            units.decades(0.0, 1.0)
