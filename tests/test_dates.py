import pytest

from dingotk.dates import PartialDate, compare_partial_dates, parse_partial_date, read_partial_date


def test_parse_precisions():
    assert parse_partial_date("2019") == PartialDate(2019)
    assert parse_partial_date("2019-03") == PartialDate(2019, 3)
    assert parse_partial_date("2019-03-31") == PartialDate(2019, 3, 31)
    assert parse_partial_date("2019-03-31T12:00:00Z") == PartialDate(2019, 3, 31)


def test_parse_rejects_garbage():
    for bad in ["03/04/2019", "2019-13", "2019-02-30", "19-01-01", "soon", "", "2019-3-1"]:
        assert parse_partial_date(bad) is None
    # XSD dates are written in the digits 0-9; Arabic-Indic and full-width
    # digits are Unicode decimals but not XSD ones
    for bad in ["\u0662\u0660\u0661\u0669-\u0660\u0665", "\u0662\u0660\u0661\u0669", "2019-\uff10\uff15"]:
        assert parse_partial_date(bad) is None


def test_parse_reads_no_surrounding_space_or_line_break():
    for bad in [" 2019", "2019\n", "2019-03\r\n", "\t2019-03-31", "2019-03 "]:
        assert parse_partial_date(bad) is None


def test_a_time_part_follows_a_full_date_only():
    assert parse_partial_date("2019-03-31T") == PartialDate(2019, 3, 31)
    for bad in ["2019T12:00", "2019-03T12:00", "T12:00", "2019-02-30T00:00"]:
        assert parse_partial_date(bad) is None


@pytest.mark.parametrize(
    "lexical, reason",
    [
        ("2019-13-01", "month out of range: '2019-13-01'"),
        ("2019-00", "month out of range: '2019-00'"),
        ("2019-02-30", "day out of range: '2019-02-30'"),
        ("2019-04-00", "day out of range: '2019-04-00'"),
        ("2019-03-31T12:00", "not an ISO date: '2019-03-31T12:00'"),
        ("2019\n", "not an ISO date: '2019\\n'"),
    ],
)
def test_read_names_the_fault(lexical, reason):
    with pytest.raises(ValueError) as err:
        read_partial_date(lexical)
    assert str(err.value) == reason


def test_year_zero_is_a_leap_year_at_every_precision():
    assert parse_partial_date("0000") == PartialDate(0)
    assert parse_partial_date("0000-05") == PartialDate(0, 5)
    assert read_partial_date("0000-01-01") == PartialDate(0, 1, 1)
    assert read_partial_date("0000-02-29") == PartialDate(0, 2, 29)


def test_comparison_at_coarser_precision():
    year = parse_partial_date("2019")
    month = parse_partial_date("2019-03")
    day = parse_partial_date("2019-03-15")
    later = parse_partial_date("2019-04")
    assert compare_partial_dates(year, month) == 0  # tie at year precision
    assert compare_partial_dates(year, later) == 0
    assert compare_partial_dates(month, later) == -1
    assert compare_partial_dates(later, day) == 1
    assert compare_partial_dates(day, day) == 0


def test_full_date_ordering():
    a = parse_partial_date("2018-12-31")
    b = parse_partial_date("2019-01-01")
    assert compare_partial_dates(a, b) == -1
    assert compare_partial_dates(b, a) == 1
