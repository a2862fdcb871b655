"""HTTP JSON service and artifact-directory handling.

Single-process server over an atomic artifact snapshot: many concurrent
correction requests, refresh serialized off to the side.  Endpoints:

    POST /v1/correct   {"query": ..., "locale"?: ..., "application"?: ...}
    GET  /v1/health

Artifact directory layout (all TSV formats documented in the README):
dictionary.tsv (required), stats.tsv, model.json (required), mwe.tsv,
boost.tsv, and manifest.json, which records the dictionary locale and the
fixed index parameters.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .dictionary import load_dictionary_dir
from .errors import ConfigError, LoadError, SpellerError
from .features import RequestContext
from .mwe import load_mwe_map
from .pipeline import (DEFAULT_MIN_NEW_TERM_COUNT, DEFAULT_TAU, ArtifactSet,
                       ArtifactStore, BoostConfig, correct_query, load_boost_config,
                       refresh_behavioral_stats)
from .ranker import load_model

MAX_QUERY_LENGTH = 512
MAX_BODY_BYTES = 64 * 1024
# Seconds a connection may stay silent before the server closes it, so a
# slow or stalled client cannot hold a handler thread forever.
SOCKET_TIMEOUT_S = 10.0

ENV_LISTEN = "SPELLER_LISTEN"
ENV_ARTIFACTS = "SPELLER_ARTIFACTS"


@dataclass
class ServiceConfig:
    artifact_dir: Path
    listen: str = "127.0.0.1:8090"
    locale: str = "en"
    application: str = "stock"
    tau: float | None = None
    refresh_log: Path | None = None
    refresh_interval: float | None = None
    min_new_term_count: int = DEFAULT_MIN_NEW_TERM_COUNT

    @property
    def host_port(self) -> tuple[str, int]:
        host, _, port = self.listen.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigError(f"bad listen address {self.listen!r}; want host:port")
        return host, int(port)


CONFIG_KEYS = frozenset({"artifacts", "listen", "locale", "application", "tau",
                         "refresh_log", "refresh_interval", "min_new_term_count"})


def load_config(path=None, artifact_dir=None, listen=None) -> ServiceConfig:
    """Key=value config file, overridable by SPELLER_LISTEN / SPELLER_ARTIFACTS
    environment variables and explicit arguments (strongest).  Keys outside
    CONFIG_KEYS are rejected; the index parameters live in the artifact's
    manifest, not here."""
    values: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise LoadError(str(exc), path) from exc
        for line_no, line in enumerate(text.splitlines(), start=1):
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if "=" not in line:
                raise LoadError("expected key=value", path, line_no)
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
            values[key] = value.strip()

    env_listen = os.environ.get(ENV_LISTEN)
    env_artifacts = os.environ.get(ENV_ARTIFACTS)
    raw_dir = artifact_dir or env_artifacts or values.get("artifacts")
    if not raw_dir:
        raise ConfigError("no artifact directory configured "
                          f"(config 'artifacts', ${ENV_ARTIFACTS}, or --artifacts)")
    base = Path(path).parent if path is not None else Path.cwd()
    config = ServiceConfig(artifact_dir=(base / raw_dir).resolve()
                           if not Path(raw_dir).is_absolute() else Path(raw_dir))
    config.listen = listen or env_listen or values.get("listen", config.listen)
    config.locale = values.get("locale", config.locale)
    config.application = values.get("application", config.application)
    if "tau" in values:
        config.tau = float(values["tau"])
    if "refresh_log" in values:
        config.refresh_log = (config.artifact_dir / values["refresh_log"]).resolve() \
            if not Path(values["refresh_log"]).is_absolute() else Path(values["refresh_log"])
    if "refresh_interval" in values:
        config.refresh_interval = float(values["refresh_interval"])
    if "min_new_term_count" in values:
        config.min_new_term_count = int(values["min_new_term_count"])
    return config


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def load_artifacts(config: ServiceConfig) -> ArtifactSet:
    """Load the artifact set from the configured directory; it must hold a
    ``model.json``."""
    directory = config.artifact_dir
    dictionary, index, build = load_dictionary_dir(directory)
    model_path = directory / "model.json"
    if not model_path.exists():
        raise ConfigError(f"missing model artifact: {model_path}")
    model = load_model(model_path)
    mwe_path = directory / "mwe.tsv"
    mwe_map = load_mwe_map(mwe_path) if mwe_path.exists() else None
    boost_path = directory / "boost.tsv"
    tau = config.tau if config.tau is not None else DEFAULT_TAU
    boost = (load_boost_config(boost_path, tau) if boost_path.exists()
             else BoostConfig(tau=tau))
    stats = directory / "stats.tsv"
    manifest = {
        "dictionary_sha": _sha256(directory / "dictionary.tsv"),
        "stats_sha": _sha256(stats) if stats.exists() else None,
        "model_sha": _sha256(model_path),
        "terms": len(dictionary),
    }
    if build:
        manifest["build"] = build
    return ArtifactSet(dictionary, index, model, mwe_map, boost, manifest)


class SpellerService:
    """Request handlers over an atomically swappable artifact snapshot."""

    def __init__(self, config: ServiceConfig, artifacts: ArtifactSet | None = None):
        self.config = config
        self.store = ArtifactStore(artifacts or load_artifacts(config))
        self._refresh_lock = threading.Lock()
        # Outcome of the last refresh, for /v1/health; None before the first.
        self.last_refresh: dict | None = None

    def handle_correct(self, payload) -> tuple[int, dict]:
        if not isinstance(payload, dict):
            return 400, {"error": "body must be a JSON object"}
        query = payload.get("query")
        if not isinstance(query, str) or not query.strip():
            return 400, {"error": "missing or empty 'query'"}
        if len(query) > MAX_QUERY_LENGTH:
            return 400, {"error": f"query longer than {MAX_QUERY_LENGTH} characters"}
        locale = payload.get("locale", self.config.locale)
        application = payload.get("application", self.config.application)
        artifacts = self.store.snapshot()
        context = RequestContext(locale, application)
        try:
            artifacts.model.feature_schema.validate_context(context)
        except ConfigError as exc:
            return 400, {"error": str(exc)}
        try:
            result = correct_query(query, context, artifacts)
        except SpellerError as exc:
            return 503, {"error": str(exc)}
        return 200, {
            "original": result.original,
            "corrected": result.corrected,
            "tokens": [
                {
                    "input": tc.input,
                    "output": tc.output,
                    "changed": tc.changed,
                    "confidence": tc.confidence,
                    "candidates": [
                        {"term": c.term, "score": c.score,
                         "edit_distance": c.edit_distance}
                        for c in tc.candidates
                    ],
                }
                for tc in result.tokens
            ],
            "latency_ms": result.elapsed * 1000.0,
        }

    def handle_health(self) -> tuple[int, dict]:
        artifacts = self.store.snapshot()
        return 200, {
            "status": "ok",
            "snapshot_timestamp": self.store.timestamp,
            "artifacts": {
                "dictionary": {"terms": len(artifacts.dictionary),
                               "locale": artifacts.dictionary.locale},
                "index": {"variants": len(artifacts.index)},
                "model": {"layer_dims": artifacts.model.layer_dims},
                "mwe_entries": len(artifacts.mwe_map) if artifacts.mwe_map else 0,
                "versions": artifacts.manifest,
            },
            "last_refresh": self.last_refresh,
        }

    def refresh(self) -> bool:
        """Fold the configured query log into dictionary + index and swap.
        At most one refresh runs at a time.  Its outcome is kept in
        ``last_refresh``; a refresh that fails keeps the old snapshot and
        re-raises.  The refreshed dictionary matches no file on disk, so its
        versions name the query log instead of the dictionary files."""
        log = self.config.refresh_log
        if log is None:
            raise ConfigError("no refresh_log configured")
        with self._refresh_lock:
            start = time.perf_counter()
            try:
                old = self.store.snapshot()
                new_dict, new_index = refresh_behavioral_stats(
                    log, old.dictionary, old.index,
                    min_new_term_count=self.config.min_new_term_count)
                log_sha = _sha256(log)
            except Exception as exc:
                self.last_refresh = _refresh_outcome(start, exc)
                raise
            manifest = dict(old.manifest, terms=len(new_dict), dictionary_sha=None,
                            stats_sha=None, refresh_log_sha=log_sha)
            self.store.swap(ArtifactSet(new_dict, new_index, old.model,
                                        old.mwe_map, old.boost, manifest))
            self.last_refresh = _refresh_outcome(start)
        return True


def _refresh_outcome(start: float, error: Exception | None = None) -> dict:
    """What /v1/health reports about a refresh that began at ``start``
    (a ``perf_counter`` reading) and ends now."""
    return {"time": time.time(), "result": "ok" if error is None else "failed",
            "error": None if error is None else str(error) or repr(error),
            "duration_s": round(time.perf_counter() - start, 6)}


class _Handler(BaseHTTPRequestHandler):
    server_version = "queryspell"
    timeout = SOCKET_TIMEOUT_S

    def _send(self, status: int, doc: dict) -> None:
        body = json.dumps(doc).encode("utf-8")
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        except (ConnectionResetError, BrokenPipeError):
            # The client has gone: nobody is left to read the answer, and
            # the connection can serve no further request.
            self.close_connection = True

    def do_GET(self):
        if self.path == "/v1/health":
            status, doc = self.server.service.handle_health()
            self._send(status, doc)
        else:
            self._send(404, {"error": "not found"})

    def do_POST(self):
        if self.path != "/v1/correct":
            self._send(404, {"error": "not found"})
            return
        # Checked before reading: rfile.read(-1) would wait for the client
        # to close the connection.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            self._send(400, {"error": "Content-Length must be a non-negative integer"})
            return
        if length > MAX_BODY_BYTES:
            self._send(413, {"error": f"body larger than {MAX_BODY_BYTES} bytes"})
            return
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            self._send(400, {"error": "body is not valid JSON"})
            return
        status, doc = self.server.service.handle_correct(payload)
        self._send(status, doc)

    def log_message(self, fmt, *args):  # quiet by default
        pass


class SpellerServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, service: SpellerService):
        self.service = service
        super().__init__(service.config.host_port, _Handler)


def run_server(config: ServiceConfig) -> None:
    """Blocking server loop; optional periodic refresh in a daemon thread."""
    service = SpellerService(config)
    server = SpellerServer(service)
    if config.refresh_interval and config.refresh_log:
        def _periodic():
            while True:
                time.sleep(config.refresh_interval)
                try:
                    service.refresh()
                except SpellerError:
                    pass  # recorded in last_refresh; the old snapshot stays
        threading.Thread(target=_periodic, daemon=True).start()
    host, port = config.host_port
    print(f"speller listening on {host}:{port} "
          f"({len(service.store.snapshot().dictionary)} terms)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
