"""JSON HTTP front ends over :class:`SynthesisService`.

Two transports share one routing/validation/error-mapping core
(:class:`ServiceApi`):

* :class:`SynthesisHTTPServer` -- the stdlib ``ThreadingHTTPServer``
  (one thread per connection), built by :func:`create_server`;
* :class:`~repro.service.async_http.AsyncSynthesisServer` -- the asyncio
  front end that routes requests by cost (cheap lane in-process, learn
  lane toward the worker pool), built by
  :func:`~repro.service.async_http.create_async_server`.

The endpoints::

    POST /learn     {"examples": [[["in1", ...], "out"], ...],
                     "k"?: int, "save"?: "name", "metadata"?: {...},
                     "catalog"?: "name",
                     "matchers"?: ["canonical", "fuzzy"] | "canonical,fuzzy"}
                 -> SynthesisResult.to_dict() + {"cache": "hit"|"miss",
                                                 "catalog": {...},
                                                 "saved"?: {...}}
    POST /fill      {"program": "name" | "name@version" | <payload dict>,
                     "rows": [[...], ...], "catalog"?: "name",
                     "matchers"?: [names] | "names,..."}
                 -> {"outputs": [...], "rows": N}
    GET  /catalogs  -> {"catalogs": [{"name", "loaded", ...}]}
    GET  /catalogs/<name>          -> tables, fingerprint, entries
    PUT  /catalogs/<name>          {"tables": [table spec, ...]}
                 -> register/replace the whole catalog
    POST /catalogs/<name>/tables   <table spec JSON>  |  raw CSV body
                                   (Content-Type: text/csv, ?name=T)
                 -> copy-on-write: add one table
    POST /catalogs/<name>/rows     {"table": "T", "rows": [[...], ...]}
                 -> copy-on-write: append rows (incremental reindex)
    GET  /catalogs/<name>/changes?since=SEQ[&wait=SECONDS][&limit=N]
                 -> {"catalog", "since", "head", "events": [...]}
                    the versioned changefeed (every mutation above
                    records one event); ``wait`` long-polls up to 30s
                    for events past ``since``; ``sse=1`` (or Accept:
                    text/event-stream) switches to an SSE stream
    GET  /programs  -> {"programs": [store listing]}
    GET  /healthz   -> {"status": "ok", ...}; 503 {"status": "degraded"}
                       when an attached worker pool has zero live workers
    GET  /stats     -> SynthesisService.stats() (incl. the "workers"
                       pool section when a pool is attached)

A *table spec* is ``{"name": "T", "columns": [...], "rows": [[...]],
"keys"?: [[col, ...], ...]}`` or ``{"name": "T", "csv": "a,b\\n1,2\\n"}``.

Error mapping: malformed requests -> 400, unknown routes / programs /
catalogs -> 404, duplicate tables and stale stored programs -> 409,
synthesis failures (no consistent program, empty examples, empty
catalog...) -> 422, a saturated worker pool -> 503 (back off and
retry), a worker crash that survived its retries -> 500, everything
unexpected -> 500.  Every error body is ``{"error": message}`` plus
structured fields when the exception carries them (offending ``table``
/ ``column`` / header ``positions`` / ``missing`` names / staleness
``changes``).  Responses are UTF-8 JSON with Content-Length, so
HTTP/1.1 keep-alive works for benchmark clients.
"""

from __future__ import annotations

import json
import traceback
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import __version__
from repro.exceptions import (
    ChangefeedRangeError,
    DuplicateTableError,
    PoolBusyError,
    ProgramStoreError,
    ReproError,
    SerializationError,
    ServiceError,
    StaleProgramError,
    SynthesisError,
    TableError,
    UnknownCatalogError,
    UnknownProgramError,
    WorkerCrashedError,
)
from repro.service.service import SynthesisService
from repro.tables.io import table_from_csv_text
from repro.tables.table import Table

#: Upper bound on request bodies (spreadsheet columns, not uploads).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Exception attributes copied into error bodies when present -- the
#: structured half of the error contract (message + machine-readable
#: fields naming exactly what went wrong).
_ERROR_FIELDS = (
    "table",
    "column",
    "positions",
    "missing",
    "changes",
    "program",
    "since",
    "head",
)

#: Dispatch lanes (see :meth:`ServiceApi.classify`).
LANE_LEARN = "learn"
LANE_CHEAP = "cheap"

#: A zero-argument callable producing the raw request body.  Transports
#: pass their own reader so body-size/framing errors surface inside the
#: API's error mapping (as 400s) instead of killing the connection.
BodyReader = Callable[[], bytes]


class BadRequest(ServiceError):
    """A request body failed validation (-> HTTP 400)."""


def _require(body: Dict[str, Any], key: str) -> Any:
    if key not in body:
        raise BadRequest(f"request body is missing the {key!r} field")
    return body[key]


def _parse_examples(raw: Any) -> Tuple[Tuple[Tuple[str, ...], str], ...]:
    if not isinstance(raw, list) or not raw:
        raise BadRequest(
            'examples must be a non-empty list of [["input", ...], "output"] pairs'
        )
    examples = []
    for index, item in enumerate(raw, start=1):
        ok = (
            isinstance(item, (list, tuple))
            and len(item) == 2
            and isinstance(item[0], (list, tuple))
            and all(isinstance(cell, str) for cell in item[0])
            and isinstance(item[1], str)
        )
        if not ok:
            raise BadRequest(
                f"example {index} must be [[input strings...], output string]"
            )
        examples.append((tuple(item[0]), item[1]))
    return tuple(examples)


def _parse_rows(raw: Any, what: str = "row") -> list:
    if not isinstance(raw, list):
        raise BadRequest("rows must be a list of rows (each a list of strings)")
    rows = []
    for index, row in enumerate(raw, start=1):
        if not isinstance(row, (list, tuple)) or not all(
            isinstance(cell, str) for cell in row
        ):
            raise BadRequest(f"{what} {index} must be a list of strings")
        rows.append(list(row))
    return rows


def _parse_catalog_field(body: Dict[str, Any]) -> Optional[str]:
    catalog = body.get("catalog")
    if catalog is not None and not isinstance(catalog, str):
        raise BadRequest("catalog must be a catalog name string")
    return catalog


def _parse_matchers_field(body: Dict[str, Any]) -> Optional[List[str]]:
    """The optional ``matchers`` field: a list of strategy names or one
    comma-separated string.  Unknown names surface later as
    :class:`~repro.exceptions.UnknownMatcherError` (-> 400)."""
    matchers = body.get("matchers")
    if matchers is None:
        return None
    if isinstance(matchers, str):
        matchers = [name for name in matchers.split(",") if name.strip()]
    if not isinstance(matchers, list) or not all(
        isinstance(name, str) for name in matchers
    ):
        raise BadRequest(
            "matchers must be a list of strategy names or a "
            'comma-separated string (e.g. "canonical,fuzzy")'
        )
    if not matchers:
        raise BadRequest("matchers, when given, must name at least one strategy")
    return matchers


def _parse_table_spec(spec: Any) -> Table:
    """Build a :class:`Table` from a JSON table spec (see module doc)."""
    if not isinstance(spec, dict):
        raise BadRequest(
            "table spec must be an object with name + columns/rows or csv"
        )
    name = spec.get("name")
    if not isinstance(name, str) or not name:
        raise BadRequest("table spec needs a non-empty 'name' string")
    keys = spec.get("keys")
    if keys is not None:
        keys = _parse_rows(keys, what="key")
        if not keys:
            raise BadRequest("keys, when given, must be a non-empty list")
    csv_text = spec.get("csv")
    if csv_text is not None:
        if not isinstance(csv_text, str):
            raise BadRequest("csv must be a string of CSV text")
        if "columns" in spec or "rows" in spec:
            raise BadRequest("give either csv or columns+rows, not both")
        return table_from_csv_text(name, csv_text, keys=keys)
    columns = spec.get("columns")
    if not isinstance(columns, list) or not all(
        isinstance(column, str) for column in columns
    ):
        raise BadRequest("table spec needs 'columns': a list of strings")
    rows = _parse_rows(_require(spec, "rows"))
    return Table(name, columns, rows, keys=keys)


#: The streaming fill endpoint, special-cased by both transports (its
#: body is a row *stream*, not a JSON document -- see ``streamfill``).
STREAM_PATH = "/fill/stream"

#: Ceiling on requested stream chunk sizes: the point of streaming is
#: bounded memory, so a client cannot ask for million-row chunks.
MAX_STREAM_CHUNK_ROWS = 65536

#: Default rows per streamed fill chunk.
DEFAULT_STREAM_CHUNK_ROWS = 1024


class StreamSpec:
    """The parsed header line of a ``POST /fill/stream`` body.

    The first line of the request body is a one-line JSON object --
    ``{"program": <ref or payload>, "catalog"?: name, "format"?:
    "ndjson"|"csv", "chunk"?: rows, "matchers"?: [names]}`` -- and
    every following byte is
    the row stream in ``format``.  Putting the envelope in-band keeps
    the transport framing trivial (no multipart, no query-encoded
    program payloads) and works identically under Content-Length and
    chunked request bodies.
    """

    __slots__ = ("program", "catalog", "format", "chunk_rows", "matchers")

    def __init__(
        self,
        program: Any,
        catalog: Optional[str],
        format: str,  # noqa: A002 -- mirrors the wire field name
        chunk_rows: int,
        matchers: Optional[List[str]] = None,
    ) -> None:
        self.program = program
        self.catalog = catalog
        self.format = format
        self.chunk_rows = chunk_rows
        self.matchers = matchers


def parse_stream_header(line: bytes) -> StreamSpec:
    """Parse (and validate) the stream header line (-> 400 on nonsense)."""
    try:
        header = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest(
            f"stream header (first body line) is not valid JSON: {error}"
        ) from None
    if not isinstance(header, dict):
        raise BadRequest("stream header must be a JSON object")
    program = _require(header, "program")
    if not isinstance(program, (str, dict)):
        raise BadRequest(
            "program must be a store reference string or a payload object"
        )
    catalog = _parse_catalog_field(header)
    format_name = header.get("format", "ndjson")
    if format_name not in ("ndjson", "csv"):
        raise BadRequest(
            f"format must be 'ndjson' or 'csv', got {format_name!r}"
        )
    chunk_rows = header.get("chunk", DEFAULT_STREAM_CHUNK_ROWS)
    if not isinstance(chunk_rows, int) or chunk_rows < 1:
        raise BadRequest("chunk must be a positive integer")
    matchers = _parse_matchers_field(header)
    return StreamSpec(
        program,
        catalog,
        format_name,
        min(chunk_rows, MAX_STREAM_CHUNK_ROWS),
        matchers=matchers,
    )


#: Path suffix of the changefeed endpoint (``/catalogs/<name>/changes``).
CHANGES_SUFFIX = "/changes"

#: Ceiling on ``?wait=`` long-poll durations: a subscriber wanting more
#: than this should loop (or use SSE) -- unbounded parked connections
#: are a resource-exhaustion footgun on the thread-per-connection server.
MAX_CHANGES_WAIT = 30.0

#: How often an idle SSE stream emits a keepalive comment: bounds both
#: proxy idle timeouts and how long a dead client ties up a handler.
SSE_KEEPALIVE_SECONDS = 15.0


def changes_catalog(path: str) -> Optional[str]:
    """The catalog name of a ``/catalogs/<name>/changes`` path, or None."""
    path = path.rstrip("/") or "/"
    if path.startswith("/catalogs/") and path.endswith(CHANGES_SUFFIX):
        name = path[len("/catalogs/") : -len(CHANGES_SUFFIX)]
        if name and "/" not in name:
            return name
    return None


class ChangesSpec:
    """Parsed query of a changefeed subscription request."""

    __slots__ = ("since", "wait", "sse", "limit")

    def __init__(
        self, since: int, wait: float, sse: bool, limit: Optional[int]
    ) -> None:
        self.since = since
        self.wait = wait
        self.sse = sse
        self.limit = limit


def parse_changes_query(query: Dict[str, str]) -> ChangesSpec:
    """Validate ``since`` / ``wait`` / ``sse`` / ``limit`` (-> 400)."""
    try:
        since = int(query.get("since", "0"))
    except ValueError:
        raise BadRequest("since must be a non-negative integer") from None
    if since < 0:
        raise BadRequest("since must be a non-negative integer")
    wait = 0.0
    raw_wait = query.get("wait")
    if raw_wait is not None:
        try:
            wait = float(raw_wait)
        except ValueError:
            raise BadRequest("wait must be a number of seconds") from None
        if wait < 0:
            raise BadRequest("wait must be a number of seconds >= 0")
        wait = min(wait, MAX_CHANGES_WAIT)
    limit = None
    raw_limit = query.get("limit")
    if raw_limit is not None:
        try:
            limit = int(raw_limit)
        except ValueError:
            raise BadRequest("limit must be a positive integer") from None
        if limit < 1:
            raise BadRequest("limit must be a positive integer")
    sse = query.get("sse", "").lower() in ("1", "true", "yes")
    return ChangesSpec(since, wait, sse, limit)


def wants_sse(query: Dict[str, str], accept: Optional[str]) -> bool:
    """Whether a changes request asked for the SSE variant."""
    if query.get("sse", "").lower() in ("1", "true", "yes"):
        return True
    return "text/event-stream" in (accept or "").lower()


def _json_body(read_body: BodyReader) -> Dict[str, Any]:
    raw = read_body()
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BadRequest(f"invalid JSON body: {error}") from None
    if not isinstance(body, dict):
        raise BadRequest("JSON body must be an object")
    return body


def _text_body(read_body: BodyReader) -> str:
    try:
        return read_body().decode("utf-8")
    except UnicodeDecodeError as error:
        raise BadRequest(f"body is not valid UTF-8: {error}") from None


def error_payload(
    message: str, error: Optional[BaseException] = None
) -> Dict[str, Any]:
    """The structured ``{"error": ...}`` body for ``error``."""
    payload: Dict[str, Any] = {"error": message}
    if error is not None:
        for field in _ERROR_FIELDS:
            value = getattr(error, field, None)
            if value is None:
                continue
            payload[field] = list(value) if isinstance(value, tuple) else value
        if isinstance(error, UnknownCatalogError):
            payload["catalog"] = error.name
        elif isinstance(
            error, (ChangefeedRangeError, DuplicateTableError, StaleProgramError)
        ):
            if error.catalog is not None:
                payload["catalog"] = error.catalog
    return payload


def map_exception(error: BaseException) -> Tuple[int, Dict[str, Any]]:
    """One exception -> ``(status, body)`` under the full error contract.

    The single source of the mapping documented in the module doc;
    :meth:`ServiceApi.route` and the streaming endpoints (which commit
    their status *before* running rows) both go through here.
    """
    if isinstance(error, BadRequest):
        return 400, error_payload(str(error), error)
    if isinstance(error, (UnknownProgramError, UnknownCatalogError)):
        return 404, error_payload(str(error), error)
    if isinstance(error, (DuplicateTableError, StaleProgramError)):
        return 409, error_payload(str(error), error)
    if isinstance(error, ChangefeedRangeError):
        # The body carries the current head so the client can resubscribe.
        return 416, error_payload(str(error), error)
    if isinstance(error, PoolBusyError):
        return 503, error_payload(str(error), error)
    if isinstance(error, WorkerCrashedError):
        return 500, error_payload(str(error), error)
    if isinstance(error, SynthesisError):
        return 422, error_payload(str(error), error)
    if isinstance(
        error,
        (TableError, ProgramStoreError, SerializationError, ServiceError, ReproError),
    ):
        return 400, error_payload(str(error), error)
    traceback.print_exc()
    return 500, error_payload(f"internal error: {error}")


class ServiceApi:
    """Transport-independent routing + validation + error mapping.

    Both HTTP front ends delegate here: :meth:`resolve` finds the
    endpoint, :meth:`route` runs it under the full error contract (it
    never raises), and :meth:`classify` names the dispatch lane --
    ``"learn"`` for requests that may pay CPU-bound synthesis (and
    should ride the worker pool), ``"cheap"`` for everything answered
    from in-process dicts and indexes (fills, stats, catalog CRUD).
    """

    def __init__(self, service: SynthesisService) -> None:
        self.service = service

    # -- routing -------------------------------------------------------
    @staticmethod
    def split_target(target: str) -> Tuple[str, Dict[str, str]]:
        """``"/path?a=b"`` -> (normalized path, last-wins query dict)."""
        parsed = urllib.parse.urlsplit(target)
        query = {
            key: values[-1]
            for key, values in urllib.parse.parse_qs(parsed.query).items()
        }
        return parsed.path.rstrip("/") or "/", query

    def resolve(self, method: str, path: str):
        """The endpoint for ``method path``: a callable taking
        ``(query, content_type, read_body)``, or ``None`` (-> 404)."""
        path = path.rstrip("/") or "/"
        if method == "GET":
            if path == "/healthz":
                return lambda q, ct, rb: self.healthz()
            if path == "/stats":
                return lambda q, ct, rb: (200, self.service.stats())
            if path == "/programs":
                return lambda q, ct, rb: (
                    200,
                    {"programs": self.service.list_programs()},
                )
            if path == "/catalogs":
                return lambda q, ct, rb: self.list_catalogs()
            changes_name = changes_catalog(path)
            if changes_name is not None:
                return lambda q, ct, rb: self.catalog_changes(changes_name, q)
            if path.startswith("/catalogs/"):
                name = path[len("/catalogs/") :]
                if "/" not in name:
                    return lambda q, ct, rb: (
                        200,
                        self.service.registry.describe(name),
                    )
            return None
        if method == "POST":
            if path == "/learn":
                return lambda q, ct, rb: self.learn(rb)
            if path == "/fill":
                return lambda q, ct, rb: self.fill(rb)
            if path.startswith("/catalogs/") and path.endswith("/tables"):
                name = path[len("/catalogs/") : -len("/tables")]
                return lambda q, ct, rb: self.add_table(name, q, ct, rb)
            if path.startswith("/catalogs/") and path.endswith("/rows"):
                name = path[len("/catalogs/") : -len("/rows")]
                return lambda q, ct, rb: self.append_rows(name, rb)
            return None
        if method == "PUT":
            if path.startswith("/catalogs/") and "/" not in path[len("/catalogs/") :]:
                name = path[len("/catalogs/") :]
                return lambda q, ct, rb: self.put_catalog(name, rb)
        return None

    def classify(self, method: str, path: str) -> str:
        """Dispatch lane: ``"learn"`` may block on synthesis, the rest
        is ``"cheap"`` (pure lookups / incremental index patches)."""
        if method == "POST" and (path.rstrip("/") or "/") == "/learn":
            return LANE_LEARN
        return LANE_CHEAP

    def route(
        self,
        method: str,
        path: str,
        query: Dict[str, str],
        content_type: Optional[str],
        read_body: BodyReader,
    ) -> Tuple[int, Dict[str, Any]]:
        """Run one request end to end; always returns ``(status, body)``."""
        endpoint = self.resolve(method, path)
        if endpoint is None:
            return 404, {"error": f"no such endpoint: {method} {path}"}
        try:
            return endpoint(query, content_type, read_body)
        except Exception as error:  # noqa: BLE001 -- the server must not die
            return map_exception(error)

    # -- endpoints -----------------------------------------------------
    def healthz(self) -> Tuple[int, Dict[str, Any]]:
        service = self.service
        healthy = service.healthy()
        payload: Dict[str, Any] = {
            "status": "ok" if healthy else "degraded",
            "version": __version__,
            "language": service.engine.language,
            "tables": service.engine.catalog.table_names(),
            "default_catalog": service.default_catalog,
            "catalogs": service.registry.names(),
            "store": service.store is not None,
        }
        if service.pool is not None:
            payload["workers"] = {
                "size": service.pool.size,
                "alive": service.pool.alive_count(),
            }
        if not healthy:
            payload["reason"] = (
                "worker pool has zero live workers; learns are degraded "
                "to in-process synthesis"
            )
            return 503, payload
        return 200, payload

    def list_catalogs(self) -> Tuple[int, Dict[str, Any]]:
        registry = self.service.registry
        loaded = set(registry.loaded_names())
        catalogs: List[Dict[str, Any]] = []
        for name in registry.names():
            if name in loaded:
                entry = dict(registry.describe(name))
                # The listing stays cheap: table summaries live under
                # GET /catalogs/<name>.
                entry["tables"] = [table["name"] for table in entry["tables"]]
                entry["loaded"] = True
            else:
                entry = {"name": name, "loaded": False}
            catalogs.append(entry)
        return 200, {"catalogs": catalogs}

    def put_catalog(
        self, name: str, read_body: BodyReader
    ) -> Tuple[int, Dict[str, Any]]:
        body = _json_body(read_body)
        specs = _require(body, "tables")
        if not isinstance(specs, list):
            raise BadRequest("tables must be a list of table specs")
        tables = [_parse_table_spec(spec) for spec in specs]
        registry = self.service.registry
        existed = name in registry
        registry.register(name, tables)
        payload = registry.describe(name)
        payload["created"] = not existed
        return 200, payload

    def add_table(
        self,
        name: str,
        query: Dict[str, str],
        content_type: Optional[str],
        read_body: BodyReader,
    ) -> Tuple[int, Dict[str, Any]]:
        if "csv" in (content_type or "").lower():
            table_name = query.get("name") or query.get("table")
            if not table_name:
                raise BadRequest(
                    "CSV table uploads need the table name in the query "
                    "string: POST /catalogs/<catalog>/tables?name=<table>"
                )
            table = table_from_csv_text(table_name, _text_body(read_body))
        else:
            table = _parse_table_spec(_json_body(read_body))
        registry = self.service.registry
        registry.add_table(name, table)
        payload = registry.describe(name)
        payload["added"] = table.name
        return 200, payload

    def append_rows(
        self, name: str, read_body: BodyReader
    ) -> Tuple[int, Dict[str, Any]]:
        body = _json_body(read_body)
        table_name = _require(body, "table")
        if not isinstance(table_name, str):
            raise BadRequest("table must be a table name string")
        rows = _parse_rows(_require(body, "rows"))
        if not rows:
            raise BadRequest("rows must be a non-empty list of rows")
        registry = self.service.registry
        registry.append_rows(name, table_name, rows)
        payload = registry.describe(name)
        payload["appended"] = {"table": table_name, "rows": len(rows)}
        return 200, payload

    def catalog_changes(
        self, name: str, query: Dict[str, str]
    ) -> Tuple[int, Dict[str, Any]]:
        """``GET /catalogs/<name>/changes``: the plain/long-poll variant.

        ``wait`` blocks (up to :data:`MAX_CHANGES_WAIT` seconds) for
        events past ``since`` -- fine on the thread-per-connection
        server; the async transport long-polls on its event loop
        instead of through here.  ``since`` beyond the head raises
        :class:`~repro.exceptions.ChangefeedRangeError` (-> 416 with
        the current head).
        """
        registry = self.service.registry
        registry.get(name)  # unknown catalog -> 404 before range checks
        spec = parse_changes_query(query)
        feed = registry.feed
        if spec.wait > 0:
            head, events = feed.wait(name, spec.since, timeout=spec.wait)
        else:
            head, events = feed.events_since(name, spec.since)
        if spec.limit is not None:
            events = events[: spec.limit]
        return 200, {
            "catalog": name,
            "since": spec.since,
            "head": head,
            "events": events,
        }

    def learn(self, read_body: BodyReader) -> Tuple[int, Dict[str, Any]]:
        body = _json_body(read_body)
        examples = _parse_examples(_require(body, "examples"))
        k = body.get("k", 1)
        if not isinstance(k, int) or k < 1:
            raise BadRequest("k must be a positive integer")
        save_as = body.get("save")
        if save_as is not None and not isinstance(save_as, str):
            raise BadRequest("save must be a program name string")
        metadata = body.get("metadata")
        if metadata is not None and not isinstance(metadata, dict):
            raise BadRequest("metadata must be an object")
        catalog = _parse_catalog_field(body)
        matchers = _parse_matchers_field(body)
        reply = self.service.learn(
            examples,
            k=k,
            save_as=save_as,
            metadata=metadata,
            catalog=catalog,
            matchers=matchers,
        )
        payload = reply.result.to_dict()
        payload["cache"] = reply.cache_status
        # The exact snapshot this request ran against: the consistency
        # witness under concurrent catalog updates.
        payload["catalog"] = {
            "name": reply.catalog_name,
            "fingerprint": reply.catalog_fingerprint,
        }
        if reply.stored is not None:
            # The exact version this request saved (or deduped onto) --
            # under concurrent saves, not necessarily the store's newest.
            payload["saved"] = {
                "name": reply.stored.name,
                "version": reply.stored.version,
            }
        return 200, payload

    def fill(self, read_body: BodyReader) -> Tuple[int, Dict[str, Any]]:
        body = _json_body(read_body)
        program = _require(body, "program")
        if not isinstance(program, (str, dict)):
            raise BadRequest(
                "program must be a store reference string or a payload object"
            )
        rows = _parse_rows(_require(body, "rows"))
        catalog = _parse_catalog_field(body)
        matchers = _parse_matchers_field(body)
        outputs = self.service.fill(program, rows, catalog=catalog, matchers=matchers)
        return 200, {"outputs": outputs, "rows": len(outputs)}


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Thin socket transport over the server's :class:`ServiceApi`."""

    server_version = f"repro-serve/{__version__}"
    protocol_version = "HTTP/1.1"
    #: Socket timeout (socketserver honors it): a client stalling
    #: mid-request must not tie up a handler thread forever.
    timeout = 60
    #: TCP_NODELAY on every accepted connection.  A reply goes out as two
    #: sends (headers, then body); with Nagle's algorithm on, the body
    #: waits for the client's delayed ACK, about 40 ms per keep-alive reply.
    disable_nagle_algorithm = True

    # The server instance carries the service + api (see create_server).
    @property
    def service(self) -> SynthesisService:
        return self.server.service  # type: ignore[attr-defined]

    @property
    def api(self) -> ServiceApi:
        return self.server.api  # type: ignore[attr-defined]

    # -- plumbing ------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if getattr(self.server, "quiet", True):
            return
        super().log_message(format, *args)

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            # Tell the client too (set when a request body went unread).
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_bytes(self) -> bytes:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            self.close_connection = True  # body length unknown: can't drain
            raise BadRequest("Content-Length header must be an integer") from None
        if length <= 0 or length > MAX_BODY_BYTES:
            # Rejecting a request whose body we will not read leaves the
            # unread bytes on the socket; under HTTP/1.1 keep-alive the
            # handler would parse them as the next request line.  Drop
            # the connection after responding.
            self.close_connection = True
            if length <= 0:
                raise BadRequest("request needs a body (Content-Length missing)")
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    # -- streaming fill ------------------------------------------------
    def _body_chunks(self):
        """Yield raw request-body chunks (Content-Length or chunked TE).

        Unlike :meth:`_read_bytes` this never materializes the body;
        it is the request half of the constant-memory streaming path.
        Framing errors raise :class:`BadRequest`.
        """
        transfer = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in transfer:
            while True:
                size_line = self.rfile.readline(1024)
                try:
                    size = int(size_line.split(b";")[0].strip() or b"", 16)
                except ValueError:
                    raise BadRequest(
                        f"malformed chunk-size line {size_line!r}"
                    ) from None
                if size == 0:
                    # Consume optional trailers up to the blank line.
                    while self.rfile.readline(1024) not in (b"\r\n", b"\n", b""):
                        pass
                    return
                remaining = size
                while remaining:
                    data = self.rfile.read(min(remaining, 65536))
                    if not data:
                        raise BadRequest("request body ended mid-chunk")
                    remaining -= len(data)
                    yield data
                self.rfile.read(2)  # the CRLF closing this chunk
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            raise BadRequest("Content-Length header must be an integer") from None
        if length <= 0:
            raise BadRequest(
                "request needs a body (Content-Length or chunked "
                "Transfer-Encoding)"
            )
        remaining = length
        while remaining:
            data = self.rfile.read(min(remaining, 65536))
            if not data:
                raise BadRequest("request body ended early")
            remaining -= len(data)
            yield data

    def _write_stream_chunk(self, data: bytes) -> None:
        if not data:
            return  # a zero-size chunk would terminate the response
        self.wfile.write(f"{len(data):x}\r\n".encode("latin-1"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _handle_fill_stream(self) -> None:
        """``POST /fill/stream``: rows in, NDJSON out, bounded memory.

        The program is resolved (and its plan compiled) *before* the
        status line commits, so bad references / stale programs /
        missing tables still get their proper HTTP status.  After the
        200 commits, a failure (ragged row, undecodable line) ends the
        stream with one JSON-object error line; an early client
        disconnect just abandons the fill.
        """
        from repro.service.streamfill import (
            encode_outputs,
            error_line,
            make_reader,
        )

        # One logical stream per connection: response framing is
        # chunked and the request body may be too; keep-alive re-sync
        # is not worth the bookkeeping.
        self.close_connection = True
        try:
            chunks = self._body_chunks()
            buffered = b""
            for data in chunks:
                buffered += data
                if b"\n" in buffered:
                    break
            header_line, _, remainder = buffered.partition(b"\n")
            spec = parse_stream_header(header_line)
            reader = make_reader(spec.format)
            session = self.service.fill_session(
                spec.program, catalog=spec.catalog, matchers=spec.matchers
            )
        except Exception as error:  # noqa: BLE001 -- mapped, never fatal
            status, payload = map_exception(error)
            self._send_json(status, payload)
            return

        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson; charset=utf-8")
        self.send_header("Transfer-Encoding", "chunked")
        self.send_header("Connection", "close")
        self.end_headers()

        rows: List[List[str]] = []
        start = 1

        def drain() -> None:
            nonlocal rows, start
            while len(rows) >= spec.chunk_rows:
                batch, rows = rows[: spec.chunk_rows], rows[spec.chunk_rows :]
                self._write_stream_chunk(
                    encode_outputs(session.fill_chunk(batch, start=start))
                )
                start += len(batch)

        try:
            try:
                if remainder:
                    rows.extend(reader.feed(remainder))
                    drain()
                for data in chunks:
                    rows.extend(reader.feed(data))
                    drain()
                rows.extend(reader.finish())
                while rows:
                    batch, rows = rows[: spec.chunk_rows], rows[spec.chunk_rows :]
                    self._write_stream_chunk(
                        encode_outputs(session.fill_chunk(batch, start=start))
                    )
                    start += len(batch)
            except (ValueError, ServiceError) as error:
                self._write_stream_chunk(error_line(str(error)))
            self.wfile.write(b"0\r\n\r\n")
            self.wfile.flush()
        except (BrokenPipeError, ConnectionError, OSError):
            return  # client went away mid-stream; abandon the fill

    def _handle_changes_sse(self, name: str, query: Dict[str, str]) -> None:
        """``GET /catalogs/<name>/changes`` as an SSE stream.

        Validation errors (unknown catalog, bad/over-head ``since``)
        still map to their JSON statuses -- the event stream only
        starts once the subscription is known good.  Each event goes
        out as ``id: <seq>`` + ``event: change`` + one ``data:`` line;
        idle periods emit comment keepalives.  ``limit=N`` closes the
        stream after N events (handy for scripted consumers and tests);
        otherwise the stream runs until the client disconnects.
        """
        from repro.service.streamfill import sse_event

        self.close_connection = True
        registry = self.service.registry
        try:
            registry.get(name)
            spec = parse_changes_query(query)
            head, events = registry.feed.events_since(name, spec.since)
        except Exception as error:  # noqa: BLE001 -- mapped, never fatal
            status, payload = map_exception(error)
            self._send_json(status, payload)
            return
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream; charset=utf-8")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        last = spec.since
        sent = 0
        try:
            while True:
                for event in events:
                    self.wfile.write(
                        sse_event(event, event="change", id=event["seq"])
                    )
                    last = int(event["seq"])
                    sent += 1
                    if spec.limit is not None and sent >= spec.limit:
                        self.wfile.flush()
                        return
                self.wfile.flush()
                _, events = registry.feed.wait(
                    name, last, timeout=SSE_KEEPALIVE_SECONDS
                )
                if not events:
                    # Keepalive comment: detects dead clients and keeps
                    # intermediaries from timing the stream out.
                    self.wfile.write(b": keepalive\n\n")
                    self.wfile.flush()
        except (BrokenPipeError, ConnectionError, OSError):
            return  # client went away; abandon the stream

    def _handle(self, method: str) -> None:
        path, query = ServiceApi.split_target(self.path)
        if method == "POST" and path == STREAM_PATH:
            self._handle_fill_stream()
            return
        if method == "GET":
            changes_name = changes_catalog(path)
            if changes_name is not None and wants_sse(
                query, self.headers.get("Accept")
            ):
                self._handle_changes_sse(changes_name, query)
                return
        if method in ("POST", "PUT") and self.api.resolve(method, path) is None:
            # The request body is never read on this branch; keep-alive
            # would parse it as the next request line (see _read_bytes).
            self.close_connection = True
            self._send_json(
                404, {"error": f"no such endpoint: {method} {path}"}
            )
            return
        status, payload = self.api.route(
            method,
            path,
            query,
            self.headers.get("Content-Type"),
            self._read_bytes,
        )
        self._send_json(status, payload)

    def do_GET(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
        self._handle("POST")

    def do_PUT(self) -> None:  # noqa: N802 -- BaseHTTPRequestHandler API
        self._handle("PUT")


class SynthesisHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server that owns one :class:`SynthesisService`."""

    daemon_threads = True

    def __init__(
        self,
        address: Tuple[str, int],
        service: SynthesisService,
        quiet: bool = True,
    ) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.api = ServiceApi(service)
        self.quiet = quiet


def create_server(
    service: SynthesisService,
    host: str = "127.0.0.1",
    port: int = 8765,
    quiet: bool = True,
) -> SynthesisHTTPServer:
    """Bind (but do not start) the service's threaded HTTP server.

    ``port=0`` binds an ephemeral port; read the actual one from
    ``server.server_address[1]``.  Call ``serve_forever()`` to run, from
    this thread or a daemon thread (the handler pool is already
    per-connection threads either way).  For the asyncio front end see
    :func:`repro.service.async_http.create_async_server`.
    """
    return SynthesisHTTPServer((host, port), service, quiet=quiet)
