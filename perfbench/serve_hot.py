"""serve_hot: a closed HTTP loop against ``repro serve`` in its own process.

One asyncio client keeps 2 keep-alive connections busy; each sends its next
request only after the previous response (a closed loop).  The server runs
``python -m repro.cli serve --port 0 --max-inflight 2``.  Requests come in
seeded shuffles of six configurations with pinned noise seeds, so after
warm-up every request is a plan-cache hit.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    SETUP_REPEATS,
    WORK_DIR,
    Outcome,
    check_anchors,
    derive_seed,
    median,
    process_peak_rss_mb,
    rng,
    stochastic_ok,
    timing,
)
from workloads import DEPOLARIZING, PINNED_NOISE_SEED

CONNECTIONS = 2
#: Requests of the traced phase: a fixed list (50 per config), so its counts
#: repeat exactly.
TRACE_REQUESTS = 300
#: Trajectory responses re-run in-process with their seed (bit-identical check).
REPLAYS = 48
STOCHASTIC = "trajectories_tn"


def configs() -> List[Dict[str, Any]]:
    """The six request configurations, noise seeds pinned (tenant added per request)."""
    noise = {**DEPOLARIZING, "seed": PINNED_NOISE_SEED}
    base = {"circuit_seed": 3, "native_gates": False}
    return [
        {**base, "circuit": "qaoa_9", "backend": "tn", "noise": noise},
        {**base, "circuit": "qaoa_9", "backend": "approximation", "level": 1, "noise": noise},
        {**base, "circuit": "hf_6", "backend": "tn", "noise": noise},
        {**base, "circuit": "inst_2x3_6", "backend": "tn", "noise": noise},
        {**base, "circuit": "ghz_10", "backend": "statevector"},
        {**base, "circuit": "qaoa_6", "backend": STOCHASTIC, "samples": 64, "noise": noise},
    ]


class Reference:
    """In-process Session values each response must match."""

    def __init__(self, cfgs: List[Dict[str, Any]]) -> None:
        from repro.api import Session
        from repro.circuits.library import benchmark_circuit

        self.session = Session(seed=0)
        self.values, self.stochastic = [], {}
        for index, cfg in enumerate(cfgs):
            circuit = benchmark_circuit(cfg["circuit"], seed=cfg["circuit_seed"],
                                        native_gates=cfg["native_gates"])
            exact_backend = "tn" if cfg["backend"] == STOCHASTIC else cfg["backend"]
            self.values.append(self.session.run(
                circuit, exact_backend, noise=cfg.get("noise"), level=cfg.get("level")
            ).value)
            if cfg["backend"] == STOCHASTIC:
                self.stochastic[index] = self.session.compile(
                    circuit, STOCHASTIC, noise=cfg["noise"], samples=cfg["samples"]
                )

    def check(self, outcome: Outcome, results, replay: bool) -> None:
        replays = 0
        for index, _, response in results:
            result = response.get("result") or {}
            value = result.get("value")
            what = f"config {index}: {response.get('status')} {value!r}"
            ok = response.get("status") == "ok"
            if ok and index in self.stochastic:
                ok = stochastic_ok(value, result["standard_error"], result["num_samples"],
                                   self.values[index])
                if ok and replay and replays < REPLAYS:
                    replays += 1
                    again = self.stochastic[index].run(seed=response["seed"]).value
                    ok = abs(again - value) <= 1e-9
            elif ok:
                ok = abs(value - self.values[index]) <= 1e-9
            outcome.check(ok, what)

    def close(self) -> None:
        self.session.close()


class Server:
    """``repro serve`` in a child process (traced through the launcher when asked)."""

    def __init__(self, root: Path, seed: int, span_path: Path | None = None) -> None:
        args = ["--port", "0", "--max-inflight", str(CONNECTIONS), "--seed", str(seed)]
        if span_path is None:
            command = [sys.executable, "-u", "-m", "repro.cli", "serve", *args]
        else:
            command = [sys.executable, "-u", "perfbench/serve_launcher.py", str(span_path), *args]
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
        with open(WORK_DIR / "server.log", "ab") as log:
            self.process = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=log,
                                            env=env, cwd=root, text=True)
        try:
            self.address = self._wait_ready(60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self, timeout: float) -> Tuple[str, int]:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.process.stdout], [], [], 0.5)
            if ready:
                line = self.process.stdout.readline()
                match = re.search(r"http://([\d.]+):(\d+)", line)
                if match:
                    return match.group(1), int(match.group(2))
                if not line:
                    break
            if self.process.poll() is not None:
                break
        raise RuntimeError(f"server did not start (see {WORK_DIR / 'server.log'})")

    def stop(self) -> float:
        """Stop the server; returns its peak RSS in MB (0 if it already exited)."""
        rss = 0.0
        if self.process.poll() is None:
            rss = process_peak_rss_mb(self.process.pid)
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        return rss


# ----------------------------------------------------------------------
# Client
# ----------------------------------------------------------------------
class Connection:
    """One keep-alive HTTP/1.1 connection."""

    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, address) -> "Connection":
        return cls(*await asyncio.open_connection(*address))

    async def request(self, method: str, path: str, payload: Any = None) -> Dict[str, Any]:
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
                f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
        self.writer.write(head.encode("latin1") + body)
        await self.writer.drain()
        await self.reader.readline()  # status line; the body carries the status
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return json.loads(await self.reader.readexactly(length))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


class Requests:
    """The seeded request stream: a config index and a rotating tenant each.

    Without a fixed ``order``, every block of ``len(cfgs)`` requests is a
    seeded shuffle of all configs, so any seed sends the same mix.
    """

    def __init__(self, seed: int, cfgs, limit: int | None = None, order=None) -> None:
        self.rng = rng(seed, "serve", "requests")
        self.cfgs, self.limit, self.order, self.count = cfgs, limit, order, 0
        self.block: List[int] = []

    def __call__(self):
        if self.limit is not None and self.count >= self.limit:
            return None
        i = self.count
        self.count += 1
        if self.order is not None:
            index = self.order[i]
        else:
            if not self.block:
                self.block = self.rng.sample(range(len(self.cfgs)), len(self.cfgs))
            index = self.block.pop()
        return index, {**self.cfgs[index], "tenant": f"tenant{i % 3}"}


async def closed_loop(address, requests: Requests, seconds: float | None = None):
    """Drive ``CONNECTIONS`` closed loops; returns [(config, latency_ms, response)]."""
    connections = [await Connection.open(address) for _ in range(CONNECTIONS)]
    results = []
    deadline = None if seconds is None else time.perf_counter() + seconds

    async def loop(connection: Connection) -> None:
        while deadline is None or time.perf_counter() < deadline:
            item = requests()
            if item is None:
                return
            index, payload = item
            start = time.perf_counter()
            response = await connection.request("POST", "/simulate", payload)
            results.append((index, (time.perf_counter() - start) * 1e3, response))

    try:
        await asyncio.gather(*(loop(connection) for connection in connections))
    finally:
        for connection in connections:
            await connection.close()
    return results


async def plan_cache(address) -> Dict[str, int]:
    connection = await Connection.open(address)
    try:
        return (await connection.request("GET", "/stats"))["plan_cache"]
    finally:
        await connection.close()


def warm(server: Server, seed: int, cfgs, outcome: Outcome) -> None:
    """Every config three times: compiles, then hits on both worker threads."""
    order = [index for _ in range(3) for index in range(len(cfgs))]
    results = asyncio.run(closed_loop(server.address, Requests(seed, cfgs, len(order), order)))
    for index, _, response in results:
        if response.get("status") != "ok":
            outcome.problems.append(f"warm-up config {index}: {response.get('status')}")


def measured(server: Server, requests: Requests, seconds: float | None):
    """A measured window: responses, wall time, plan-cache counter deltas."""

    async def window():
        before = await plan_cache(server.address)
        start = time.perf_counter()
        results = await closed_loop(server.address, requests, seconds)
        elapsed = time.perf_counter() - start
        after = await plan_cache(server.address)
        return results, elapsed, {key: after[key] - before[key] for key in ("hits", "misses", "coalesced")}

    return asyncio.run(window())


def latency_report(results, elapsed: float) -> Dict[str, Any]:
    ok = [latency for _, latency, response in results if response.get("status") == "ok"]
    by_config: Dict[int, List[float]] = {}
    for index, latency, _ in results:
        by_config.setdefault(index, []).append(latency)
    return {
        "serve_req_per_s": len(ok) / elapsed,
        "serve_latency": timing(ok),
        "per_config_p50_ms": {str(k): median(v) for k, v in sorted(by_config.items())},
        "shed": sum(1 for _, _, r in results if r.get("status") == "overloaded"),
    }


def run(seed: int, seconds: float, trace: bool, import_s: float, root: Path) -> Outcome:
    outcome = Outcome()
    cfgs = configs()
    server_seed = derive_seed(seed, "serve", "server")
    start = time.perf_counter()
    reference = Reference(cfgs)
    reference_s = time.perf_counter() - start
    durations, server = [], None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            begin = time.perf_counter()
            server = Server(root, server_seed)
            warm(server, seed, cfgs, outcome)
            durations.append(time.perf_counter() - begin)
        setup = {"import_s": import_s, "reference_s": reference_s, "repeats_s": durations}
        if not trace:
            results, elapsed, cache = measured(server, Requests(seed, cfgs), seconds)
            reference.check(outcome, results, replay=True)
            report = latency_report(results, elapsed)
            outcome.metrics = {
                "setup_s": import_s + reference_s + median(durations),
                "peak_rss_mb": server.stop(),
                "op_p50_ms": report["serve_latency"]["p50_ms"],
                "ops_per_s": report["serve_req_per_s"],
            }
            outcome.report.update(report, setup=setup, plan_cache=cache, measured_s=elapsed)
            return outcome
        results, elapsed, _ = measured(server, Requests(seed, cfgs), seconds / 2)
        reference.check(outcome, results, replay=False)
        untraced_p50 = latency_report(results, elapsed)["serve_latency"]["p50_ms"]
        server.stop()
        outcome.metrics, report = traced_run(root, seed, server_seed, cfgs, reference, outcome)
        outcome.metrics["trace.overhead_frac"] = report["traced_op_p50_ms"] / untraced_p50 - 1.0
        outcome.report.update(report, setup=setup, untraced_op_p50_ms=untraced_p50)
        return outcome
    finally:
        if server is not None:
            server.stop()
        reference.close()


def traced_run(root: Path, seed: int, server_seed: int, cfgs, reference: Reference, outcome: Outcome):
    """A fixed request list against the traced server; spans come back at exit."""
    from tracer import anchor_counts, layer_metrics, load_spans, span_table

    span_path = WORK_DIR / "server_spans.json"
    span_path.unlink(missing_ok=True)
    server = Server(root, server_seed, span_path)
    try:
        warm(server, seed, cfgs, outcome)
        window_start = time.perf_counter_ns()
        results, elapsed, cache = measured(server, Requests(seed, cfgs, TRACE_REQUESTS), None)
    finally:
        server.stop()
    reference.check(outcome, results, replay=False)
    spans = load_spans(span_path)
    span_path.unlink()
    window = [span for span in spans if span[1] >= window_start]
    report = latency_report(results, elapsed)
    compiles = sum(cache.values())
    hit_ratio = (cache["hits"] + cache["coalesced"]) / compiles if compiles else 0.0
    metrics = layer_metrics(
        window,
        ops=len(results),
        hit_ratio=hit_ratio,
        client_p50_ms=report["serve_latency"]["p50_ms"],
        shed_frac=report["shed"] / len(results),
    )
    # Plans are compiled during warm-up, before the window.
    peaks = [span[4] for span in spans if span[0] == "api.compile" and span[4]]
    metrics["tn.peak_entries"] = float(max(peaks, default=0))
    metrics["failed_frac"] = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    anchors = check_anchors([anchor_counts(window, len(results), hit_ratio)], outcome,
                            "serve_hot", seed, root)
    return metrics, {
        "spans": span_table(window),
        "anchors": anchors,
        "traced_op_p50_ms": report["serve_latency"]["p50_ms"],
        "traced_requests": len(results),
        "traced_req_per_s": report["serve_req_per_s"],
    }
