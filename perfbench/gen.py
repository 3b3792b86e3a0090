"""Seeded inputs and their ground truth, made without the program under test.

Keys are upper-case letter codes and values are pseudo-words built from
syllables, all unique per column and digit-free: example strings then
share no substrings with many cells, which keeps every learn bounded
(see NOTES.md for the shape that does not finish).
"""

from __future__ import annotations

import datetime
import json
import random
from typing import List, Optional, Sequence

UPPER = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
#: Two syllable sets with no two-letter substring in common, so a word
#: made from one never occurs inside a word made from the other.
SYLLABLES = [c + v for c in "klmnprstvz" for v in "aeiou"]
NAME_SYLLABLES = [c + v for c in "bdfghj" for v in "aeiou"]


def unique_codes(rng: random.Random, count: int, length: int,
                 taken: Optional[set] = None) -> List[str]:
    """``count`` distinct letter codes, none of them in ``taken``."""
    seen = set(taken or ())
    out: List[str] = []
    while len(out) < count:
        code = "".join(rng.choices(UPPER, k=length))
        if code not in seen:
            seen.add(code)
            out.append(code)
    return out


def unique_words(rng: random.Random, count: int, syllables: int = 4,
                 taken: Optional[set] = None, alphabet=SYLLABLES) -> List[str]:
    """``count`` distinct capitalised pseudo-words from ``alphabet``."""
    seen = set(taken or ())
    out: List[str] = []
    while len(out) < count:
        word = "".join(rng.choices(alphabet, k=syllables)).capitalize()
        if word not in seen:
            seen.add(word)
            out.append(word)
    return out


class PeopleData:
    """``People(Code, Name, Acct)`` and ``Owners(Acct, Owner)``, one-to-one.

    Ground truth for the transformations the workloads learn:

    * Lu lookup-plus-slice: ``Code -> last word of People.Name``;
    * Lt two-table join: ``Code -> Owners.Owner`` through ``Acct``.
    """

    def __init__(self, rng: random.Random, rows: int, syllables: int = 4,
                 owner_words: int = 2) -> None:
        self.codes = unique_codes(rng, rows, 6)
        self.accts = unique_codes(rng, rows, 7, taken=set(self.codes))
        firsts = unique_words(rng, rows, syllables)
        lasts = unique_words(rng, rows, syllables, taken=set(firsts))
        self.names = [f"{first} {last}" for first, last in zip(firsts, lasts)]
        self.firsts = firsts
        self.lasts = lasts
        taken = set(firsts) | set(lasts)
        parts = []
        for _ in range(owner_words):
            parts.append(unique_words(rng, rows, syllables, taken=taken))
            taken |= set(parts[-1])
        self.owners = [" ".join(words) for words in zip(*parts)]
        order = list(range(rows))
        rng.shuffle(order)
        self.owner_order = order
        self.absent = unique_codes(
            rng, max(16, rows // 100), 6, taken=set(self.codes) | set(self.accts)
        )

    def __len__(self) -> int:
        return len(self.codes)

    def people_rows(self, start: int = 0, stop: Optional[int] = None):
        stop = len(self) if stop is None else stop
        return [
            (self.codes[i], self.names[i], self.accts[i]) for i in range(start, stop)
        ]

    def owner_rows(self, indices: Optional[Sequence[int]] = None):
        indices = self.owner_order if indices is None else indices
        return [(self.accts[i], self.owners[i]) for i in indices]

    def last_word(self, index: int) -> str:
        return self.lasts[index]


def iso_date(rng: random.Random) -> str:
    day = datetime.date(1950, 1, 1) + datetime.timedelta(days=rng.randrange(36500))
    return day.isoformat()


def reformat_date(text: str) -> str:
    year, month, day = text.split("-")
    return f"{day}/{month}/{year}"


def zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def ndjson_rows(rows: Sequence[Sequence[str]]) -> bytes:
    return b"".join(
        json.dumps(list(row), ensure_ascii=False).encode("utf-8") + b"\n"
        for row in rows
    )


def ndjson_outputs(outputs: Sequence[Optional[str]]) -> bytes:
    """The expected ``/fill/stream`` body: one JSON string or ``null`` a line."""
    return b"".join(
        b"null\n" if value is None
        else json.dumps(value, ensure_ascii=False).encode("utf-8") + b"\n"
        for value in outputs
    )
