"""Structured synthesis inputs and outputs for the engine API.

A :class:`SynthesisTask` is one independent learning problem (its
examples); a :class:`SynthesisResult` is everything a caller needs to
serve the answer: ranked candidate programs with ranking provenance,
the Figure 11 version-space metrics, wall-clock timing and an ambiguity
flag -- so nothing has to be recomputed (or re-synthesized) downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import log10
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.formalism import Example

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.program import Program

#: How a candidate earned its score (the answer-provenance of the ranking).
PROVENANCE_BEST = "extract-best"  # the language's own best-path extraction
PROVENANCE_TOP_K = "top-k"  # the language's ranked top-k extraction
PROVENANCE_ENUMERATED = "enumerated"  # enumerated, scored by the shared cost model


def count_log10(value: int) -> float:
    """log10 of a (possibly astronomically large) expression count.

    Counts beyond float range keep their top 900 bits: ``log10`` of those
    plus the shifted-out bits' exact contribution.
    """
    if value <= 0:
        return float("-inf")
    shift = max(value.bit_length() - 900, 0)
    return log10(value >> shift) + shift * log10(2)


class DeferredCount:
    """A version space's Figure 11(a) count, left uncomputed until read.

    Holds the backend and the structure it learned; the exact count is a
    bignum walk that most callers never read.  ``more_than_one`` answers
    :attr:`SynthesisResult.ambiguous` through the backend's optional
    ``is_ambiguous`` (a count capped at 2) when it has one.
    """

    __slots__ = ("backend", "structure")

    def __init__(self, backend: Any, structure: Any) -> None:
        self.backend = backend
        self.structure = structure

    def exact(self) -> int:
        return self.backend.count_expressions(self.structure)

    def more_than_one(self) -> bool:
        is_ambiguous = getattr(self.backend, "is_ambiguous", None)
        if is_ambiguous is None:
            return self.exact() > 1
        return is_ambiguous(self.structure)


def as_task(task: "SynthesisTask | Sequence[Tuple[Sequence[str], str]]") -> "SynthesisTask":
    """Coerce raw ``(inputs, output)`` pairs into a :class:`SynthesisTask`."""
    if isinstance(task, SynthesisTask):
        return task
    return SynthesisTask(examples=tuple(task))


@dataclass(frozen=True)
class SynthesisTask:
    """One independent synthesis problem: its examples, optionally named."""

    examples: Tuple[Example, ...]
    name: Optional[str] = None

    def __post_init__(self) -> None:
        normalized = tuple(
            (tuple(inputs), output) for inputs, output in self.examples
        )
        object.__setattr__(self, "examples", normalized)

    @property
    def num_inputs(self) -> int:
        if not self.examples:
            return 0
        return len(self.examples[0][0])

    def signature(self) -> str:
        """A stable rendering of the normalized examples.

        Two tasks with the same examples (whatever sequence types the
        caller used; the task name is deliberately excluded) signature
        identically -- the service request cache keys on this together
        with the catalog fingerprint and config signature.
        """
        import json

        return json.dumps(
            [[list(inputs), output] for inputs, output in self.examples],
            ensure_ascii=False,
            separators=(",", ":"),
        )


@dataclass(frozen=True)
class RankedProgram:
    """One candidate with its rank, cost score and ranking provenance.

    ``score`` is the cost under :class:`repro.config.RankingWeights` --
    lower is better, rank 1 is the program :meth:`SynthesisResult.program`
    returns.

    ``confidence`` is the min matcher confidence over the program's
    lookups (``repro.matching``): 1.0 when every binding is exact -- the
    only value the default matcher spec produces -- and lower when some
    predicate was resolved canonically / fuzzily / by alias.  Exact
    candidates always rank strictly ahead of approximate ones.
    """

    rank: int
    score: float
    program: "Program"
    provenance: str = PROVENANCE_ENUMERATED
    confidence: float = 1.0

    @property
    def approximate(self) -> bool:
        """True when some lookup was bound by an approximate matcher."""
        return self.confidence < 1.0

    def __iter__(self):
        """Unpack as ``(score, program)`` for tuple-style consumers."""
        yield self.score
        yield self.program


@dataclass(frozen=True, init=False)
class SynthesisResult:
    """Everything :meth:`repro.api.Synthesizer.synthesize` learned.

    Attributes:
        task: the task that was solved.
        language: canonical backend name ("semantic", "lookup", "syntactic").
        programs: ranked candidates, best first (never empty).
        consistent_count: number of consistent expressions (Figure 11(a)),
            computed on first read: it can be a bignum of millions of bits
            that the learn loop never needs.  ``consistent_count=`` takes
            the int or a :class:`DeferredCount`; after the first read the
            result keeps only the int, not the version space.
        structure_size: version-space structure size (Figure 11(b)).
        elapsed_seconds: wall-clock time of the synthesize call.
        phase_seconds: wall-clock per phase -- ``"generate"`` (GenerateStr
            over every example), ``"intersect"`` (the smallest-first fold),
            ``"rank"`` (candidate extraction) and ``"measure"`` (the
            structure size; the count is not taken here).
            ``repro learn --profile`` prints it.
    """

    task: SynthesisTask
    language: str
    programs: Tuple[RankedProgram, ...]
    structure_size: int
    elapsed_seconds: float
    phase_seconds: Optional[Dict[str, float]] = None
    _count: Union[int, DeferredCount] = field(default=0, repr=False, compare=False)

    def __init__(
        self,
        task: SynthesisTask,
        language: str,
        programs: Tuple[RankedProgram, ...],
        consistent_count: Union[int, DeferredCount],
        structure_size: int,
        elapsed_seconds: float,
        phase_seconds: Optional[Dict[str, float]] = None,
    ) -> None:
        set_field = object.__setattr__
        set_field(self, "task", task)
        set_field(self, "language", language)
        set_field(self, "programs", programs)
        set_field(self, "structure_size", structure_size)
        set_field(self, "elapsed_seconds", elapsed_seconds)
        set_field(self, "phase_seconds", phase_seconds)
        set_field(self, "_count", consistent_count)

    @property
    def consistent_count(self) -> int:
        """Number of consistent expressions (Figure 11(a)), on first read."""
        count = self._count
        if isinstance(count, DeferredCount):
            count = count.exact()
            object.__setattr__(self, "_count", count)
        return count

    def __reduce__(self):
        """Pickle with the exact count, never the version space."""
        return (
            SynthesisResult,
            (
                self.task,
                self.language,
                self.programs,
                self.consistent_count,
                self.structure_size,
                self.elapsed_seconds,
                self.phase_seconds,
            ),
        )

    # ------------------------------------------------------------------
    @property
    def best(self) -> RankedProgram:
        """The rank-1 candidate."""
        return self.programs[0]

    @property
    def program(self) -> "Program":
        """The top-ranked program (what ``SynthesisSession.learn`` returned)."""
        return self.programs[0].program

    @property
    def ambiguous(self) -> bool:
        """More than one expression is still consistent with the examples.

        When true, §3.2's interaction model suggests showing the user a
        distinguishing input (see :meth:`ambiguous_rows`).  Never runs the
        exact count: a count capped at 2 answers it.
        """
        count = self._count
        if isinstance(count, DeferredCount):
            return count.more_than_one()
        return count > 1

    # ------------------------------------------------------------------
    def fill(self, rows: Sequence[Sequence[str]]) -> List[Optional[str]]:
        """Run the top-ranked program over ``rows``."""
        return self.program.fill(rows)

    def ambiguous_rows(
        self, rows: Sequence[Sequence[str]]
    ) -> List[Tuple[Tuple[str, ...], List[str]]]:
        """Rows on which the ranked candidates disagree (§3.2's highlight).

        Returns the rows with at least two distinct defined outputs among
        ``self.programs``, together with those outputs.
        """
        flagged: List[Tuple[Tuple[str, ...], List[str]]] = []
        for row in rows:
            state = tuple(row)
            outputs: List[str] = []
            seen: Set[str] = set()
            for candidate in self.programs:
                value = candidate.program.run(state)
                if value is not None and value not in seen:
                    seen.add(value)
                    outputs.append(value)
            if len(outputs) >= 2:
                flagged.append((state, outputs))
        return flagged

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly summary: serialized candidates plus the metrics.

        ``consistent_count`` can exceed 10^1000 (Figure 11(a)); the exact
        integer is emitted only when it is JSON-number safe, with a log10
        rendition alongside for the astronomical cases.
        """
        exact = self.consistent_count
        return {
            "task": {"name": self.task.name, "examples": [
                [list(inputs), output] for inputs, output in self.task.examples
            ]},
            "language": self.language,
            "programs": [
                {
                    "rank": candidate.rank,
                    "score": candidate.score,
                    "provenance": candidate.provenance,
                    "program": candidate.program.to_dict(),
                    # Emitted only for approximate candidates so exact
                    # artifacts stay byte-identical to prior releases.
                    **(
                        {"confidence": candidate.confidence}
                        if candidate.confidence < 1.0
                        else {}
                    ),
                }
                for candidate in self.programs
            ],
            "consistent_count": exact if exact.bit_length() <= 53 else None,
            "consistent_count_log10": round(count_log10(exact), 3),
            "structure_size": self.structure_size,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": self.phase_seconds,
            "ambiguous": self.ambiguous,
        }
