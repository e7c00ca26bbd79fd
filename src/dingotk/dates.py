"""Partial ISO-8601 dates as found in funding data.

Accepts year, year-month and full-date lexical forms (a trailing time part
is tolerated and ignored). Two dates compare at the coarser of their two
precisions, so 2019 vs 2019-03 is a tie.
"""

from __future__ import annotations

import calendar
import re
from dataclasses import dataclass
from typing import Optional

_DATE_RE = re.compile(r"^([0-9]{4})(?:-([0-9]{2})(?:-([0-9]{2})(?:T.*)?)?)?$")


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


def parse_partial_date(lexical: str) -> Optional[PartialDate]:
    """PartialDate for a valid lexical form, None otherwise."""
    match = _DATE_RE.match(lexical.strip())
    if not match:
        return None
    year = int(match.group(1))
    month = int(match.group(2)) if match.group(2) else None
    day = int(match.group(3)) if match.group(3) else None
    if month is not None and not 1 <= month <= 12:
        return None
    if day is not None and not 1 <= day <= calendar.monthrange(year, month)[1]:
        return None
    return PartialDate(year, month, day)


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
