import hashlib
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from queryspell import ArtifactSet, ConfigError, LoadError
from queryspell import service as service_module
from queryspell.service import (ENV_ARTIFACTS, ENV_LISTEN, SpellerServer,
                                SpellerService, ServiceConfig, load_artifacts,
                                load_config)


@pytest.fixture()
def service(artifact_dir):
    config = ServiceConfig(artifact_dir=artifact_dir, listen="127.0.0.1:0")
    return SpellerService(config)


class TestHandleCorrect:
    def test_mwe_compound_through_api(self, service):
        status, doc = service.handle_correct({"query": "creativecloud"})
        assert status == 200
        assert doc["corrected"] == "creative cloud"
        assert doc["latency_ms"] > 0

    def test_in_dictionary_query_unchanged(self, service):
        status, doc = service.handle_correct({"query": "museum"})
        assert status == 200
        assert doc["corrected"] == "museum"
        assert all(not tok["changed"] for tok in doc["tokens"])

    def test_correction_payload_shape(self, service):
        status, doc = service.handle_correct({"query": ",edal icon"})
        assert status == 200
        assert doc["original"] == ",edal icon"
        assert doc["corrected"] == "medal icon"
        tok = doc["tokens"][0]
        assert tok["changed"] is True
        assert 0.0 < tok["confidence"] <= 1.0
        assert len(tok["candidates"]) <= 5
        assert {"term", "score", "edit_distance"} <= set(tok["candidates"][0])

    def test_empty_query_rejected(self, service):
        assert service.handle_correct({"query": ""})[0] == 400
        assert service.handle_correct({"query": "   "})[0] == 400

    def test_missing_query_rejected(self, service):
        assert service.handle_correct({})[0] == 400
        assert service.handle_correct("not a dict")[0] == 400

    def test_oversize_query_rejected(self, service):
        assert service.handle_correct({"query": "x" * 513})[0] == 400

    def test_unknown_locale_rejected(self, service):
        status, doc = service.handle_correct({"query": "museum", "locale": "xx"})
        assert status == 400
        assert "locale" in doc["error"]

    def test_unknown_application_rejected(self, service):
        assert service.handle_correct(
            {"query": "museum", "application": "nope"})[0] == 400

    def test_locale_fallback_to_default(self, service):
        status, doc = service.handle_correct({"query": "muzeem", "locale": "fr"})
        assert status == 200

    def test_missing_model_gives_503(self, service):
        snap = service.store.snapshot()
        service.store.swap(ArtifactSet(snap.dictionary, snap.index))
        assert service.handle_correct({"query": "museum"})[0] == 503


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=4)),
    max_leaves=10)
_payloads = _json | st.fixed_dictionaries({}, optional={
    "query": _json | st.text(max_size=60)
    | st.sampled_from(["museum", "creativecloud", ",edal icon", "musuem prak"]),
    "locale": _json | st.sampled_from(["en", "fr", "de"]),
    "application": _json | st.sampled_from(["stock", "express"]),
})


@given(payload=_payloads)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_handle_correct_answers_any_json(service, payload):
    status, doc = service.handle_correct(payload)
    assert status in (200, 400, 503)
    json.dumps(doc, allow_nan=False)


class TestHandleHealth:
    def test_reports_artifact_versions(self, service):
        status, doc = service.handle_health()
        assert status == 200
        assert doc["status"] == "ok"
        artifacts = doc["artifacts"]
        assert artifacts["dictionary"]["terms"] > 0
        assert artifacts["model"]["layer_dims"][-1] == 1
        assert artifacts["versions"]["dictionary_sha"]
        assert doc["snapshot_timestamp"] > 0

    def test_snapshot_timestamp_increases_after_swap(self, service):
        t0 = service.handle_health()[1]["snapshot_timestamp"]
        service.store.swap(service.store.snapshot())
        t1 = service.handle_health()[1]["snapshot_timestamp"]
        assert t1 > t0

    def test_concurrent_health_and_correct(self, service):
        errors = []

        def health():
            for _ in range(50):
                if service.handle_health()[0] != 200:
                    errors.append("health")

        def correct():
            for _ in range(50):
                if service.handle_correct({"query": "muzeem icon"})[0] != 200:
                    errors.append("correct")

        threads = [threading.Thread(target=f) for f in (health, correct, correct)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []


class TestRefresh:
    def test_refresh_swaps_snapshot(self, artifact_dir):
        log = artifact_dir / "queries.tsv"
        log.write_text("blockchain\t1000\n", encoding="utf-8")
        config = ServiceConfig(artifact_dir=artifact_dir, refresh_log=log,
                               min_new_term_count=100)
        service = SpellerService(config)
        t0 = service.store.timestamp
        before = service.store.snapshot()
        assert not before.dictionary.contains("blockchain")
        service.refresh()
        after = service.store.snapshot()
        assert after.dictionary.contains("blockchain")
        assert service.store.timestamp > t0
        assert before.dictionary is not after.dictionary

    def test_refresh_updates_reported_term_count(self, artifact_dir):
        log = artifact_dir / "queries.tsv"
        log.write_text("blockchain\t1000\n", encoding="utf-8")
        service = SpellerService(ServiceConfig(artifact_dir=artifact_dir,
                                               refresh_log=log))
        assert service.handle_health()[1]["artifacts"]["versions"]["terms"] == 40
        service.refresh()
        artifacts = service.handle_health()[1]["artifacts"]
        assert artifacts["dictionary"]["terms"] == 41
        assert artifacts["versions"]["terms"] == 41

    def test_refresh_without_log_is_config_error(self, service):
        with pytest.raises(ConfigError):
            service.refresh()

    def test_refresh_replaces_file_versions_with_log_version(self, artifact_dir):
        log = artifact_dir / "queries.tsv"
        log.write_text("blockchain\t1000\n", encoding="utf-8")
        service = SpellerService(ServiceConfig(artifact_dir=artifact_dir,
                                               refresh_log=log))
        before = service.handle_health()[1]
        assert before["artifacts"]["versions"]["dictionary_sha"]
        assert before["artifacts"]["versions"]["stats_sha"]
        assert "refresh_log_sha" not in before["artifacts"]["versions"]
        assert before["last_refresh"] is None
        service.refresh()
        after = service.handle_health()[1]
        versions = after["artifacts"]["versions"]
        # The served dictionary no longer matches the files on disk.
        assert versions["dictionary_sha"] is None
        assert versions["stats_sha"] is None
        assert versions["refresh_log_sha"] == hashlib.sha256(
            log.read_bytes()).hexdigest()[:16]
        assert versions["model_sha"] == before["artifacts"]["versions"]["model_sha"]
        assert versions["terms"] == 41
        outcome = after["last_refresh"]
        assert outcome["result"] == "ok" and outcome["error"] is None
        assert outcome["duration_s"] >= 0 and outcome["time"] > 0

    def test_failed_refresh_keeps_snapshot_and_reports_error(self, artifact_dir):
        log = artifact_dir / "queries.tsv"
        log.write_text("blockchain\t1000\nnft\tmany\n", encoding="utf-8")
        service = SpellerService(ServiceConfig(artifact_dir=artifact_dir,
                                               refresh_log=log))
        before = service.store.snapshot()
        with pytest.raises(LoadError):
            service.refresh()
        assert service.store.snapshot() is before
        doc = service.handle_health()[1]
        assert doc["artifacts"]["dictionary"]["terms"] == 40
        assert doc["artifacts"]["versions"]["terms"] == 40
        assert doc["artifacts"]["versions"]["dictionary_sha"]
        outcome = doc["last_refresh"]
        assert outcome["result"] == "failed"
        assert "queries.tsv:2" in outcome["error"] and "many" in outcome["error"]
        json.dumps(doc)  # still a valid response body


class _GoneWriter:
    """A response stream whose client has closed the connection."""

    def __init__(self, error):
        self.error = error

    def write(self, data):
        raise self.error


@pytest.mark.parametrize("error", [ConnectionResetError(104, "reset by peer"),
                                   BrokenPipeError(32, "broken pipe")])
def test_reply_to_departed_client_is_dropped(error):
    handler = service_module._Handler.__new__(service_module._Handler)
    handler.request_version = "HTTP/1.1"
    handler.requestline = "GET /v1/health HTTP/1.1"
    handler.command = "GET"
    handler.close_connection = False
    handler.wfile = _GoneWriter(error)
    handler._send(200, {"status": "ok"})  # must not raise
    assert handler.close_connection


class TestHttp:
    @pytest.fixture()
    def server(self, service):
        srv = SpellerServer(service)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        yield f"http://127.0.0.1:{srv.server_address[1]}"
        srv.shutdown()
        srv.server_close()

    def _post(self, base, path, payload):
        req = urllib.request.Request(
            base + path, data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=10) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            return err.code, json.loads(err.read())

    def test_correct_endpoint(self, server):
        status, doc = self._post(server, "/v1/correct", {"query": "creativecloud"})
        assert status == 200
        assert doc["corrected"] == "creative cloud"

    def test_decompounding_through_service(self, server):
        status, doc = self._post(server, "/v1/correct",
                                 {"query": "photo shop express"})
        assert status == 200
        assert doc["corrected"] == "photoshop express"

    def test_health_endpoint(self, server):
        with urllib.request.urlopen(server + "/v1/health", timeout=10) as resp:
            assert resp.status == 200
            doc = json.loads(resp.read())
        assert doc["status"] == "ok"

    def test_invalid_json_body(self, server):
        req = urllib.request.Request(server + "/v1/correct", data=b"{nope",
                                     headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400

    @staticmethod
    def _raw_post(base, content_length):
        """Status of a POST sent with the given Content-Length header and a
        short body; raises socket.timeout when the server does not answer."""
        port = int(base.rsplit(":", 1)[1])
        with socket.create_connection(("127.0.0.1", port), timeout=3) as sock:
            sock.sendall(b"POST /v1/correct HTTP/1.1\r\nHost: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: " + content_length + b"\r\n\r\n"
                         b'{"query": "museum"}')
            head = sock.recv(64)
        return int(head.split()[1])

    @pytest.mark.parametrize("content_length, status", [
        (b"-1", 400), (b"abc", 400), (b"1000000000", 413)])
    def test_bad_content_length_answered_without_reading(self, server,
                                                         content_length, status):
        assert self._raw_post(server, content_length) == status

    def test_stalled_client_is_disconnected(self, service, monkeypatch):
        assert service_module._Handler.timeout == service_module.SOCKET_TIMEOUT_S
        monkeypatch.setattr(service_module._Handler, "timeout", 0.3)
        srv = SpellerServer(service)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        try:
            with socket.create_connection(srv.server_address, timeout=5) as sock:
                sock.sendall(b"POST /v1/corr")  # half a request line, then silence
                started = time.monotonic()
                assert sock.recv(64) == b""     # the server closed the connection
                assert time.monotonic() - started < 4
        finally:
            srv.shutdown()
            srv.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server + "/nope", timeout=10)
        assert err.value.code == 404


class TestConfig:
    def test_config_file_parsing(self, tmp_path, artifact_dir):
        cfg = tmp_path / "speller.conf"
        cfg.write_text(
            f"artifacts={artifact_dir}\nlisten=0.0.0.0:9000\nlocale=de\n"
            "tau=0.7\nrefresh_interval=30\n# comment\n", encoding="utf-8")
        config = load_config(cfg)
        assert config.artifact_dir == artifact_dir
        assert config.listen == "0.0.0.0:9000"
        assert config.locale == "de"
        assert config.tau == 0.7
        assert config.refresh_interval == 30.0

    def test_env_overrides(self, tmp_path, artifact_dir, monkeypatch):
        cfg = tmp_path / "speller.conf"
        cfg.write_text(f"artifacts={artifact_dir}\nlisten=127.0.0.1:1111\n",
                       encoding="utf-8")
        monkeypatch.setenv(ENV_LISTEN, "127.0.0.1:2222")
        assert load_config(cfg).listen == "127.0.0.1:2222"
        monkeypatch.setenv(ENV_ARTIFACTS, str(artifact_dir))
        assert load_config(None).artifact_dir == artifact_dir

    def test_explicit_args_strongest(self, tmp_path, artifact_dir, monkeypatch):
        monkeypatch.setenv(ENV_LISTEN, "127.0.0.1:2222")
        config = load_config(None, artifact_dir=str(artifact_dir),
                             listen="127.0.0.1:3333")
        assert config.listen == "127.0.0.1:3333"

    def test_missing_artifacts_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None)

    def test_bad_listen_rejected(self, artifact_dir):
        config = ServiceConfig(artifact_dir=artifact_dir, listen="nonsense")
        with pytest.raises(ConfigError):
            config.host_port

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "speller.conf"
        cfg.write_text("just words\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_config(cfg)

    @pytest.mark.parametrize("key", ["prefix_length", "max_edit_distance", "nonsense"])
    def test_unknown_key_rejected(self, tmp_path, artifact_dir, key):
        cfg = tmp_path / "speller.conf"
        cfg.write_text(f"artifacts={artifact_dir}\n{key} = 5\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=key):
            load_config(cfg)

    def test_corrupt_manifest_is_load_error(self, artifact_dir):
        (artifact_dir / "manifest.json").write_text("{truncated", encoding="utf-8")
        with pytest.raises(LoadError):
            load_artifacts(ServiceConfig(artifact_dir=artifact_dir))

    def test_missing_dictionary_artifact(self, tmp_path):
        config = ServiceConfig(artifact_dir=tmp_path)
        with pytest.raises(ConfigError):
            load_artifacts(config)
