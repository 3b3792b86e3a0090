"""Pluggable language backends (the engine's dispatch layer).

A *backend* packages one transformation language for the engine: its
GenerateStr/Intersect pair (via :meth:`adapter`), its ranking-based
extraction, and its version-space measures.  The three paper languages --
Ls (:class:`repro.syntactic.language.SyntacticLanguage`), Lt
(:class:`repro.lookup.language.LookupLanguage`) and Lu
(:class:`repro.semantic.language.SemanticLanguage`) -- register themselves
here; external code can add more with :func:`register_backend`::

    @register_backend("mylang", "Lx")
    class MyLanguage:
        name = "Lx"
        requires_catalog = False
        def __init__(self, config): ...
        def adapter(self): ...
        ...

The engine and the session resolve names through :func:`create_backend`
instead of hard-coding an ``if/elif`` over the built-in languages.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    Optional,
    Protocol,
    Tuple,
    Type,
    runtime_checkable,
)

from repro.config import DEFAULT_CONFIG, SynthesisConfig
from repro.exceptions import UnknownBackendError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import Expression
    from repro.core.formalism import LanguageAdapter
    from repro.tables.catalog import Catalog


@runtime_checkable
class LanguageBackend(Protocol):
    """What a pluggable transformation language must provide.

    ``name`` is the paper-style short name ("Ls", "Lt", "Lu", ...);
    ``requires_catalog`` says whether the constructor takes a
    :class:`~repro.tables.catalog.Catalog` as its first argument.
    Backends may additionally offer ``top_programs(structure, k)``
    returning ranked ``(cost, expression)`` pairs; the engine uses it for
    top-k results when present.  They may also offer
    ``is_ambiguous(structure)`` -- whether more than one expression is
    consistent -- which ``SynthesisResult.ambiguous`` uses instead of the
    exact count.
    """

    name: str
    requires_catalog: bool

    def adapter(self) -> "LanguageAdapter":
        """The GenerateStr/Intersect bundle driving §3.1's Synthesize."""
        ...

    def best_program(self, structure) -> "Optional[Expression]":
        """The top-ranked consistent expression, or ``None`` when empty."""
        ...

    def enumerate_programs(self, structure, limit: int = 1000) -> "Iterator[Expression]":
        """Up to ``limit`` concrete consistent expressions."""
        ...

    def count_expressions(self, structure) -> int:
        """Number of consistent expressions (Figure 11(a))."""
        ...

    def structure_size(self, structure) -> int:
        """Terminal-symbol size of the version-space structure (Figure 11(b))."""
        ...


_BACKENDS: Dict[str, Type] = {}
_ALIASES: Dict[str, str] = {}


def register_backend(name: str, *aliases: str) -> Callable[[Type], Type]:
    """Class decorator registering a backend under ``name`` (plus aliases).

    >>> @register_backend("semantic", "Lu")      # doctest: +SKIP
    ... class SemanticLanguage: ...
    """

    def wrap(cls: Type) -> Type:
        if name in _BACKENDS:
            raise ValueError(f"backend {name!r} is already registered")
        _BACKENDS[name] = cls
        for alias in (name,) + aliases:
            key = alias.casefold()
            if key in _ALIASES and _ALIASES[key] != name:
                raise ValueError(
                    f"alias {alias!r} already names backend {_ALIASES[key]!r}"
                )
            _ALIASES[key] = name
        return cls

    return wrap


def _ensure_builtin_backends() -> None:
    """Import the built-in language modules so they self-register."""
    if "semantic" in _BACKENDS:
        return
    from repro.lookup import language as _lookup  # noqa: F401
    from repro.semantic import language as _semantic  # noqa: F401
    from repro.syntactic import language as _syntactic  # noqa: F401


def available_backends() -> Tuple[str, ...]:
    """Canonical names of every registered backend, sorted."""
    _ensure_builtin_backends()
    return tuple(sorted(_BACKENDS))


def resolve_backend_name(name: str) -> str:
    """Canonical backend name for ``name`` (accepts aliases like ``"Lu"``).

    Raises:
        UnknownBackendError: when no backend answers to ``name``.
    """
    _ensure_builtin_backends()
    try:
        return _ALIASES[name.casefold()]
    except (KeyError, AttributeError):
        raise UnknownBackendError(str(name), available_backends()) from None


def backend_class(name: str) -> Type:
    """The registered class for ``name`` (canonical or alias)."""
    return _BACKENDS[resolve_backend_name(name)]


def create_backend(
    name: str,
    catalog: "Optional[Catalog]" = None,
    config: SynthesisConfig = DEFAULT_CONFIG,
) -> LanguageBackend:
    """Instantiate the backend registered under ``name``.

    Catalog-backed languages receive ``catalog`` (an empty catalog when
    ``None``); purely syntactic ones are constructed from ``config`` alone.
    """
    cls = backend_class(name)
    if getattr(cls, "requires_catalog", True):
        if catalog is None:
            from repro.tables.catalog import Catalog

            catalog = Catalog([])
        return cls(catalog, config)
    return cls(config)
