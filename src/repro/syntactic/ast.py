"""Concrete AST of the syntactic language Ls (paper §5).

Grammar (paper §5, with the Lu extension of SubStr over arbitrary
expressions):

    e_s := Concatenate(f_1, ..., f_n) | f
    f   := ConstStr(s) | e_t | SubStr(e_t, p_1, p_2)
    p   := k (CPos) | pos(r_1, r_2, c)

In pure Ls, ``e_t`` inside an atomic expression is just an input variable;
in Lu it may be any lookup expression -- the AST is shared, only what the
``source`` sub-expression is allowed to be differs.

Evaluation follows the paper: a string with ``l`` characters has ``l + 1``
positions numbered 0..l; negative constant positions count from the right
(``k`` denotes position ``l + 1 + k``); ``pos`` failures and out-of-range
positions yield ⊥ (Python ``None``), which propagates through ``SubStr``
and ``Concatenate``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Union

from repro.core.base import EvalResult, Expression, InputState
from repro.syntactic.regex import EPSILON, Regex, evaluate_pos, regex_name
from repro.syntactic.tokens import token_by_name

if TYPE_CHECKING:  # pragma: no cover
    from repro.tables.catalog import Catalog


class Position:
    """Base class for position expressions; evaluates against a subject string."""

    __slots__ = ()

    def position_in(self, text: str) -> Optional[int]:
        raise NotImplementedError

    def _key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self._key() == other._key()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._key()))

    def __repr__(self) -> str:  # pragma: no cover
        return str(self)


class CPos(Position):
    """Constant position ``k``; negative ``k`` counts from the right.

    ``CPos(0)`` is the start; ``CPos(-1)`` is the end (position l+1+(-1)=l).
    """

    __slots__ = ("k",)

    def __init__(self, k: int) -> None:
        self.k = k

    def position_in(self, text: str) -> Optional[int]:
        length = len(text)
        position = self.k if self.k >= 0 else length + 1 + self.k
        if 0 <= position <= length:
            return position
        return None

    def _key(self) -> tuple:
        return (self.k,)

    def __str__(self) -> str:
        return f"CPos({self.k})"


class Pos(Position):
    """``pos(r1, r2, c)``: the c-th boundary between an r1 and an r2 match."""

    __slots__ = ("r1", "r2", "c")

    def __init__(self, r1: Regex, r2: Regex, c: int) -> None:
        if c == 0:
            raise ValueError("occurrence index c must be non-zero")
        self.r1 = tuple(r1)
        self.r2 = tuple(r2)
        self.c = c

    def position_in(self, text: str) -> Optional[int]:
        return evaluate_pos(text, self.r1, self.r2, self.c)

    def _key(self) -> tuple:
        return (self.r1, self.r2, self.c)

    def __str__(self) -> str:
        return f"pos({regex_name(self.r1)}, {regex_name(self.r2)}, {self.c})"


class ConstStr(Expression):
    """The constant string expression."""

    __slots__ = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text

    def evaluate(self, state: InputState, catalog: "Catalog | None" = None) -> EvalResult:
        return self.text

    def _key(self) -> tuple:
        return (self.text,)

    def size(self) -> int:
        return 1

    def __str__(self) -> str:
        return f'ConstStr("{self.text}")'


class SubStr(Expression):
    """``SubStr(source, p1, p2)``: substring of the source's value.

    ``source`` is an input variable in pure Ls and may be any lookup
    expression in Lu (§5.1).
    """

    __slots__ = ("source", "p1", "p2")

    def __init__(self, source: Expression, p1: Position, p2: Position) -> None:
        self.source = source
        self.p1 = p1
        self.p2 = p2

    def evaluate(self, state: InputState, catalog: "Catalog | None" = None) -> EvalResult:
        value = self.source.evaluate(state, catalog)
        if value is None:
            return None
        start = self.p1.position_in(value)
        end = self.p2.position_in(value)
        if start is None or end is None or start > end:
            return None
        return value[start:end]

    def _key(self) -> tuple:
        return (self.source, self.p1, self.p2)

    def size(self) -> int:
        return 1 + self.source.size()

    def depth(self) -> int:
        return self.source.depth()

    def __str__(self) -> str:
        return f"SubStr({self.source}, {self.p1}, {self.p2})"


class Concatenate(Expression):
    """``Concatenate(f1, ..., fn)``; ⊥ in any part makes the whole ⊥."""

    __slots__ = ("parts",)

    def __init__(self, parts: Sequence[Expression]) -> None:
        if not parts:
            raise ValueError("Concatenate needs at least one part")
        self.parts = tuple(parts)

    def evaluate(self, state: InputState, catalog: "Catalog | None" = None) -> EvalResult:
        pieces = []
        for part in self.parts:
            value = part.evaluate(state, catalog)
            if value is None:
                return None
            pieces.append(value)
        return "".join(pieces)

    def _key(self) -> tuple:
        return (self.parts,)

    def size(self) -> int:
        return 1 + sum(part.size() for part in self.parts)

    def depth(self) -> int:
        return max(part.depth() for part in self.parts)

    def __str__(self) -> str:
        return "Concatenate({})".format(", ".join(str(p) for p in self.parts))


def assemble_concatenation(parts: Sequence[Expression]) -> Expression:
    """Top-level expression from chosen atomic parts (es := Concatenate | f)."""
    if not parts:
        return ConstStr("")
    if len(parts) == 1:
        return parts[0]
    return Concatenate(parts)


def substr2(source: Expression, token_name: str, c: int) -> SubStr:
    """The paper's ``SubStr2(e, τ, c)`` sugar: the c-th occurrence of τ.

    Expands to ``SubStr(e, pos(ε, τ, c), pos(τ, ε, c))``.
    """
    token = token_by_name(token_name)
    regex: Regex = (token.ident,)
    return SubStr(source, Pos(EPSILON, regex, c), Pos(regex, EPSILON, c))
