"""The stdlib HTTP/1.1 front end: routing, status codes, keep-alive, limits.

Everything here drives a real socket (via :class:`BackgroundServer` running
the full stack on its own thread, or :class:`HttpServeClient` for in-loop
keep-alive checks) — the serving logic itself is covered in-process by the
other suites; this file pins the wire behaviour.
"""

import asyncio
import json
import socket

import pytest

from repro.serve import BackgroundServer, HttpServeClient, ReproServer

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def bg_server():
    with BackgroundServer(seed=0, max_inflight=2, queue_limit=8) as bg:
        yield bg


class TestRoutes:
    def test_simulate_roundtrip(self, bg_server):
        status, response = bg_server.request(
            {"circuit": "ghz_8", "backend": "statevector", "tenant": "http"}
        )
        assert status == 200
        assert response["status"] == "ok"
        assert response["tenant"] == "http"
        assert response["result"]["value"] == pytest.approx(0.5)

    def test_stats_document(self, bg_server):
        bg_server.request({"circuit": "ghz_8", "backend": "statevector"})
        stats = bg_server.stats()
        assert set(stats) == {"server", "admission", "tenants", "plan_cache"}
        assert stats["server"]["requests_total"] >= 1
        assert "p99_ms" in stats["server"]["latency_ms"]
        assert "coalesced" in stats["plan_cache"]

    def test_healthz(self, bg_server):
        status, payload = bg_server._sync_round_trip("GET", "/healthz", None, 10.0)
        assert status == 200
        assert payload["status"] == "ok"

    def test_unknown_route_404(self, bg_server):
        status, payload = bg_server._sync_round_trip("GET", "/nope", None, 10.0)
        assert status == 404
        assert payload["error"]["kind"] == "http_error"

    def test_wrong_method_405(self, bg_server):
        status, _ = bg_server._sync_round_trip("GET", "/simulate", None, 10.0)
        assert status == 405
        status, _ = bg_server._sync_round_trip("POST", "/stats", {}, 10.0)
        assert status == 405


class TestErrorsOnTheWire:
    def test_bad_json_400(self, bg_server):
        import http.client

        connection = http.client.HTTPConnection(
            bg_server.host, bg_server.port, timeout=10
        )
        try:
            connection.request(
                "POST", "/simulate", body=b"{not json",
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "JSON" in payload["error"]["message"]

    def test_protocol_error_400(self, bg_server):
        status, payload = bg_server.request({"circuit": "ghz_8", "shots": 5})
        assert status == 400
        assert payload["status"] == "invalid"
        assert payload["retryable"] is False

    def test_unknown_backend_400(self, bg_server):
        status, payload = bg_server.request(
            {"circuit": "ghz_8", "backend": "quantum_annealer"}
        )
        assert status == 400
        assert payload["error"]["kind"] == "validation_error"

    @pytest.mark.parametrize(
        "noise",
        [
            {"count": "x"},
            {"count": 2.7},
            {"count": 1, "parameter": "p"},
            {"count": 1, "seed": "abc"},
            {"count": 1, "seed": 1.5},
        ],
        ids=["count-str", "count-fraction", "parameter-str", "seed-str", "seed-fraction"],
    )
    def test_malformed_noise_400(self, bg_server, noise):
        status, payload = bg_server.request(
            {"circuit": "ghz_8", "backend": "tn", "noise": noise}
        )
        assert status == 400
        assert payload["status"] == "invalid"
        assert payload["error"]["kind"] == "validation_error"

    def test_timeout_504(self, bg_server):
        status, payload = bg_server.request(
            {"circuit": "qft_10", "backend": "tn", "timeout": 1e-6}
        )
        assert status == 504
        assert payload["status"] == "timeout"

    @staticmethod
    def _status_for_content_length(bg_server, content_length: str) -> int:
        """Send only a POST's headers and return the status the server answers.

        The server judges Content-Length from the header alone and closes the
        connection, so no body is sent: a client still streaming a large body
        when the server hangs up would see a reset instead of the 413.
        """
        head = (
            "POST /simulate HTTP/1.1\r\n"
            f"Host: {bg_server.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n"
        ).encode("latin1")
        with socket.create_connection((bg_server.host, bg_server.port), timeout=10) as sock:
            sock.sendall(head)
            response = b""
            while b"\r\n" not in response:
                chunk = sock.recv(4096)
                if not chunk:
                    break
                response += chunk
        return int(response.split(b" ", 2)[1])

    def test_oversized_body_413(self, bg_server):
        too_long = str(ReproServer.MAX_BODY_BYTES + 1)
        assert self._status_for_content_length(bg_server, too_long) == 413

    @pytest.mark.parametrize("content_length", ["-1", "lots"])
    def test_invalid_content_length_413(self, bg_server, content_length):
        assert self._status_for_content_length(bg_server, content_length) == 413


class TestKeepAlive:
    def test_one_connection_many_requests(self, bg_server):
        async def scenario():
            client = HttpServeClient(bg_server.host, bg_server.port)
            try:
                statuses = []
                for _ in range(3):
                    status, response = await client.request(
                        {"circuit": "ghz_8", "backend": "statevector"}
                    )
                    statuses.append((status, response["status"]))
                # The connection object was reused throughout (no reconnect).
                assert client._writer is not None
                stats_status, _ = await client.get("/stats")
            finally:
                await client.aclose()
            return statuses, stats_status

        statuses, stats_status = asyncio.run(scenario())
        assert statuses == [(200, "ok")] * 3
        assert stats_status == 200


class TestLifecycle:
    def test_max_requests_drains_server(self, run_async):
        async def scenario():
            server = ReproServer(seed=0, max_inflight=1, max_requests=2)
            client_payload = {"circuit": "ghz_6", "backend": "statevector"}
            first = await server.handle(client_payload)
            second = await server.handle(client_payload)
            # The drain threshold flipped the server to closing: further
            # requests are refused as overloaded/shutting_down.
            third = await server.handle(client_payload)
            await server.aclose()
            return first, second, third

        first, second, third = run_async(scenario())
        assert first["status"] == "ok"
        assert second["status"] == "ok"
        assert third["status"] == "overloaded"
        assert third["error"]["kind"] == "shutting_down"

    def test_background_server_context_shuts_down(self):
        with BackgroundServer(seed=1, max_inflight=1) as bg:
            status, response = bg.request(
                {"circuit": "ghz_6", "backend": "statevector"}
            )
            assert status == 200 and response["status"] == "ok"
            port = bg.port
        # After the context exits, the socket is gone.
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=2)
        with pytest.raises(OSError):
            connection.request("GET", "/healthz")
            connection.getresponse()
