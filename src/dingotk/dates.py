"""Partial ISO-8601 dates as found in funding data.

Reads the year, year-month and full-date form of `terms.LEXICAL_FORMS`
exactly: no surrounding space or line break. `parse_partial_date` also
tolerates and ignores a time part after a full date. Two dates compare at
the coarser of their two precisions, so 2019 vs 2019-03 is a tie. Year 0000
is a year like any other, 1 BCE as in XSD 1.1, and a leap year.
"""

from __future__ import annotations

import calendar
from dataclasses import dataclass
from typing import Optional

from .terms import LEXICAL_FORMS, XSD_DATE


@dataclass(frozen=True)
class PartialDate:
    year: int
    month: Optional[int] = None
    day: Optional[int] = None

    @property
    def precision(self) -> int:
        """1 = year, 2 = year-month, 3 = full date."""
        if self.day is not None:
            return 3
        if self.month is not None:
            return 2
        return 1

    def truncated(self, precision: int) -> tuple:
        parts = (self.year, self.month, self.day)
        return parts[:precision]


def read_partial_date(lexical: str) -> PartialDate:
    """The PartialDate that a YYYY[-MM[-DD]] lexical form names.

    ValueError, naming the lexical form, if it is not one or its month or
    day is out of range.
    """
    match = LEXICAL_FORMS[XSD_DATE].fullmatch(lexical)
    if not match:
        raise ValueError(f"not an ISO date: {lexical!r}")
    year, month, day = (None if group is None else int(group) for group in match.groups())
    if month is not None and not 1 <= month <= 12:
        raise ValueError(f"month out of range: {lexical!r}")
    if day is not None and not 1 <= day <= calendar.monthrange(year, month)[1]:
        raise ValueError(f"day out of range: {lexical!r}")
    return PartialDate(year, month, day)


def parse_partial_date(lexical: str) -> Optional[PartialDate]:
    """PartialDate for a valid lexical form, None otherwise.

    A full date may go on with "T" and a time part, which is not read.
    """
    date, sep, _ = lexical.partition("T")
    try:
        parsed = read_partial_date(date)
    except ValueError:
        return None
    return None if sep and parsed.day is None else parsed


def compare_partial_dates(a: PartialDate, b: PartialDate) -> int:
    """-1, 0 or 1 comparing at the coarser of the two precisions."""
    precision = min(a.precision, b.precision)
    left = a.truncated(precision)
    right = b.truncated(precision)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0
