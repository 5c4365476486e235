"""Command-line interface.

Provides a small reproducibility tool around the library's main entry points::

    python -m repro.cli simulate      --circuit qaoa_9 --noises 6 --level 1
    python -m repro.cli compare       --circuit hf_6   --noises 4 --backends all
    python -m repro.cli list-backends
    python -m repro.cli verify        --families all --cases 200 --seed 7
    python -m repro.cli sweep run     benchmarks/specs/table3.yaml
    python -m repro.cli sweep run     benchmarks/specs/table3_large.yaml --shards 4
    python -m repro.cli sweep run     spec.yaml --shard 2/4 --out part2.jsonl
    python -m repro.cli sweep merge   merged.jsonl part1.jsonl part2.jsonl
    python -m repro.cli sweep digest  merged.jsonl
    python -m repro.cli sweep list
    python -m repro.cli sweep report  sweep_results/table3.jsonl
    python -m repro.cli sweep report  part1.jsonl part2.jsonl
    python -m repro.cli replay        verify_artifacts/<artifact>.json
    python -m repro.cli decompose     --channel depolarizing --parameter 0.01
    python -m repro.cli bound         --noises 20 --rate 0.001 --level 1
    python -m repro.cli serve         --port 8780 --max-inflight 4
    python -m repro.cli serve         --smoke 5

``simulate`` runs the approximation algorithm on a benchmark circuit with the
paper's fault model, ``compare`` batch-dispatches the selected registered
backends on the same instance through one :class:`repro.api.Session`,
``list-backends`` prints the registry's capability table, ``verify`` runs
the differential conformance harness (:mod:`repro.verify`) and ``replay``
re-checks one of its failure artifacts, ``sweep`` runs/lists/reports
declarative experiment grids (:mod:`repro.sweeps`), ``decompose`` prints the
SVD decomposition of a noise channel, ``bound`` evaluates the Theorem-1
formulas without any simulation, and ``serve`` runs the multi-tenant HTTP
serving layer (:mod:`repro.serve`; ``--smoke SECONDS`` self-drives a short
load drill and exits nonzero on any hard error).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.api import Session, apply_noise
from repro.backends import capability_table, get_backend, resolve_backends
from repro.circuits.library import benchmark_circuit
from repro.core import contraction_count, decompose_noise, theorem1_error_bound
from repro.noise import CHANNEL_FACTORIES as _CHANNEL_FACTORIES
from repro.noise import SYCAMORE_LIKE_SPEC

__all__ = ["main", "build_parser"]


def _make_noisy_circuit(args) -> object:
    circuit = benchmark_circuit(
        args.circuit,
        seed=args.seed,
        native_gates=not args.composite_gates,
        parametric=getattr(args, "parametric", False),
    )
    if args.noises <= 0:
        return circuit
    return apply_noise(
        circuit,
        {
            "channel": args.channel,
            "parameter": args.parameter,
            "count": args.noises,
            "seed": args.seed,
        },
    )


def _resolve_binding(circuit, args) -> dict:
    """Parse ``--param name=value`` flags and check them against the circuit.

    Fails fast (before any compile) when parameters are missing or the flags
    are malformed, so both ``simulate`` and ``compare`` report one clear
    error instead of a per-backend failure table.
    """
    from repro.circuits.parameters import circuit_parameters
    from repro.utils.validation import ValidationError

    binding = {}
    for entry in getattr(args, "param", None) or []:
        name, sep, value = entry.partition("=")
        if not sep or not name:
            raise ValidationError(f"--param expects NAME=VALUE, got {entry!r}")
        try:
            binding[name] = float(value)
        except ValueError as exc:
            raise ValidationError(f"--param {name}: invalid value {value!r}") from exc
    free = sorted(circuit_parameters(circuit))
    if binding and not free:
        raise ValidationError(
            "--param given but the circuit has no free parameters "
            "(use --parametric with a qaoa_N or hf_N benchmark)"
        )
    missing = sorted(set(free) - set(binding))
    if missing:
        raise ValidationError(
            f"circuit has free parameters {free}; bind them with "
            f"--param name=value (missing: {', '.join(missing)})"
        )
    return binding


def _cmd_simulate(args) -> int:
    import time

    circuit = _make_noisy_circuit(args)
    binding = _resolve_binding(circuit, args)
    print(circuit.summary())
    passes = not args.no_passes
    with Session(passes=passes) as session:
        start = time.perf_counter()
        executable = session.compile(circuit, backend="approximation", level=args.level)
        if binding:
            # Structure-dependent work is done; bind swaps in the values.
            executable = executable.bind(binding)
        compile_seconds = time.perf_counter() - start
        pass_info = executable.describe().get("passes") or {}
        stats = pass_info.get("stats")
        if stats:
            print(
                f"passes           = fused {stats['gates_fused']}, "
                f"folded {stats['channels_folded']}, pruned {stats['sites_pruned']} "
                f"({stats['gates_before']}g/{stats['noises_before']}n -> "
                f"{stats['gates_after']}g/{stats['noises_after']}n, "
                f"{pass_info['seconds']:.3f} s)"
            )
        elif not passes:
            print("passes           = disabled (--no-passes)")
        result = executable.run()
        print(f"A({result.metadata['level']})            = {result.value:.10f}")
        print(f"Theorem-1 bound  = {result.error_bound:.3e}")
        print(f"contractions     = {result.num_contractions}")
        print(f"compile          = {compile_seconds:.3f} s (one-time)")
        print(f"elapsed          = {result.elapsed_seconds:.3f} s")
        if args.repeat > 1:
            # Hot path: the compiled executable serves every further request.
            cached_start = time.perf_counter()
            for _ in range(args.repeat - 1):
                repeat = executable.run()
                assert repeat.value == result.value  # bit-identical serving
            cached = (time.perf_counter() - cached_start) / (args.repeat - 1)
            # Cold path: what each request costs when every call recompiles.
            if binding:
                from repro.circuits.parameters import substitute

                cold_circuit = substitute(circuit, binding)
            else:
                cold_circuit = circuit
            with Session(plan_cache_size=0, passes=passes) as cold:
                uncached_start = time.perf_counter()
                for _ in range(args.repeat - 1):
                    cold.run(cold_circuit, backend="approximation", level=args.level)
                uncached = (time.perf_counter() - uncached_start) / (args.repeat - 1)
            print(f"\nrepeated execution x{args.repeat} (compile once, then run):")
            print(f"  per call, compiled   = {cached:.4f} s")
            print(f"  per call, recompiled = {uncached:.4f} s")
            print(f"  amortised speedup    = {uncached / max(cached, 1e-12):.1f}x")
    return 0


def _cmd_compare(args) -> int:
    circuit = _make_noisy_circuit(args)
    binding = _resolve_binding(circuit, args)
    print(circuit.summary())
    names = resolve_backends(args.backends, circuit)
    if not names:
        print("error: no backends selected (see 'list-backends' for the registry)",
              file=sys.stderr)
        return 2
    rows = []
    # max_parallel=1 keeps the Time(s) column meaningful: each backend is
    # timed alone (as the old sequential loop did), while the submit() batch
    # still exercises the session's async front door end to end.
    with Session(workers=args.workers, max_parallel=1, passes=not args.no_passes) as session:
        futures = []
        for name in names:
            stochastic = get_backend(name).capabilities.stochastic
            try:
                # Compile eagerly (fail-fast, one plan per backend shared with
                # any later dispatch of the same configuration), execute async.
                executable = session.compile(
                    circuit,
                    backend=name,
                    level=args.level,
                    samples=args.samples,
                    seed=args.seed,
                    workers=args.workers,
                )
                if binding:
                    executable = executable.bind(binding)
                future = executable.submit()
            except Exception as exc:  # noqa: BLE001 - report and continue
                futures.append((name, stochastic, None, None, exc))
                continue
            futures.append((name, stochastic, executable, future, None))
        for name, stochastic, executable, future, error in futures:
            if future is not None:
                try:
                    result = future.result()
                except Exception as exc:  # noqa: BLE001 - report and continue
                    error = exc
            if error is not None:
                rows.append([name, f"failed ({type(error).__name__})", None, None])
                continue
            stderr = result.standard_error if stochastic else None
            # One-shot timing (the old sequential-loop semantics): the
            # backend's compile share counts toward its Time(s) column.
            elapsed = result.elapsed_seconds + executable.compile_seconds
            rows.append([name, result.value, stderr, elapsed])
    print(
        format_table(
            ["Backend", "Fidelity", "Std. error", "Time (s)"],
            rows,
            title="Backend comparison (registry dispatch)",
        )
    )
    return 0


def _cmd_list_backends(args) -> int:
    print(
        format_table(
            ["Backend", "Noisy", "Exact", "Stochastic", "Max qubits", "Product states only"],
            capability_table(),
            title="Registered simulation backends",
        )
    )
    return 0


def _cmd_verify(args) -> int:
    from repro.verify import ConformanceRunner

    runner = ConformanceRunner(
        families=args.families,
        cases=args.cases,
        seed=args.seed,
        samples=args.samples,
        level=args.level,
        workers=args.workers,
        artifact_dir=args.artifacts,
        shrink=not args.no_shrink,
        passes=not args.no_passes,
    )
    report = runner.run(progress=print if not args.quiet else None)
    print(report.summary_table())
    if report.violations:
        print(f"\n{len(report.violations)} violation(s); artifacts:", file=sys.stderr)
        for path in report.artifacts:
            print(f"  {path}", file=sys.stderr)
        return 1
    print(f"\nall {report.checks} checks passed ({report.skipped} skipped)")
    return 0


def _cmd_replay(args) -> int:
    from repro.verify import load_artifact, replay_artifact

    failing = 0
    for path in args.artifacts:
        artifact = load_artifact(path)
        still = replay_artifact(artifact)
        status = "STILL FAILING" if still else "fixed"
        print(f"{path}: {artifact['oracle']} {artifact['family']}#{artifact['case_index']} "
              f"-> {status}")
        failing += int(still)
    return 1 if failing else 0


#: Directories ``sweep list`` searches when no paths are given.
_DEFAULT_SPEC_DIRS = ("benchmarks/specs", "examples/specs")


def _parse_inject_crash(entries) -> dict:
    """Parse repeated ``--inject-crash SHARD:AFTER`` flags (testing hook)."""
    from repro.utils.validation import ValidationError

    inject = {}
    for entry in entries or []:
        shard, sep, after = str(entry).partition(":")
        if not sep:
            raise ValidationError(f"--inject-crash expects SHARD:AFTER, got {entry!r}")
        try:
            inject[int(shard)] = int(after)
        except ValueError as exc:
            raise ValidationError(f"--inject-crash expects integers, got {entry!r}") from exc
    return inject


def _cmd_sweep_run(args) -> int:
    from repro.sweeps import load_spec, pivot_table, summary_table, SweepRunner

    if args.shards is not None:
        return _sweep_run_sharded(args)
    spec = load_spec(args.spec)
    out = Path(args.out) if args.out else Path("sweep_results") / f"{spec.name}.jsonl"
    runner = SweepRunner(
        spec,
        out_path=out,
        workers=args.workers,
        resume=not args.fresh,
        max_cells=args.max_cells,
        shard=args.shard,
        crash_after=args.crash_after,
    )
    if args.shard is not None:
        print(f"sweep {spec.name!r} shard {runner.shard}: "
              f"{len(runner.cells())}/{len(spec.cells())} cells -> {out}")
    else:
        print(f"sweep {spec.name!r}: {len(spec.cells())} cells -> {out}")
    result = runner.run(progress=print)
    print()
    print(
        summary_table(
            result.records,
            reference=spec.reference,
            title=f"Sweep {spec.name}: {spec.description or 'summary'}",
        )
    )
    if spec.reference is not None:
        print()
        print(
            pivot_table(
                result.records,
                metric="precision",
                reference=spec.reference,
                title=f"Precision (TVD vs {spec.reference})",
            )
        )
    print(f"\nrecords: {result.path} ({result.executed} executed, {result.skipped} resumed)")
    if result.plan_cache:
        print(
            f"plan cache: {result.plan_cache['hits']} hits, "
            f"{result.plan_cache['misses']} misses, "
            f"{result.plan_cache['evictions']} evictions"
        )
    failed = [record for record in result.records if record.get("status") == "failed"]
    if failed:
        print(f"error: {len(failed)} cell(s) failed; re-running 'sweep run' retries them",
              file=sys.stderr)
        return 1
    return 0


def _sweep_run_sharded(args) -> int:
    """Coordinator mode: dispatch N shard workers, re-dispatch crashes, merge."""
    from repro.dist import DistCoordinator, DistError
    from repro.sweeps import load_spec, summary_table

    spec = load_spec(args.spec)
    out = Path(args.out) if args.out else Path("sweep_results") / f"{spec.name}.jsonl"
    if args.fresh:
        for stale in out.parent.glob(f"{out.stem}.shard-*-of-{args.shards}.jsonl"):
            stale.unlink()
    coordinator = DistCoordinator(
        args.spec,
        args.shards,
        out_path=out,
        workers_per_shard=args.workers,
        max_rounds=args.max_rounds,
        inject_crash=_parse_inject_crash(args.inject_crash),
    )
    print(f"sweep {spec.name!r}: {len(spec.cells())} cells as {args.shards} shards -> {out}")
    try:
        result = coordinator.run(progress=print)
    except DistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print()
    print(
        summary_table(
            list(result.records.values()),
            reference=spec.reference,
            title=f"Sweep {spec.name}: {spec.description or 'summary'}",
        )
    )
    attempts = {str(state.shard): state.attempts for state in result.shards}
    print(f"\nrecords: {result.out_path} ({result.rounds} round(s), "
          f"attempts per shard: {attempts})")
    failed = [r for r in result.records.values() if r.get("status") == "failed"]
    if failed:
        print(f"error: {len(failed)} cell(s) failed after {args.max_rounds} round(s)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_sweep_merge(args) -> int:
    from repro.dist import merge_records

    result = merge_records(args.inputs, args.out)
    print(f"merged {len(result.cells)} record(s) from {len(args.inputs)} file(s) "
          f"-> {result.path}")
    if result.duplicates:
        print(f"deduplicated {len(result.duplicates)} identical duplicate record(s)")
    if result.missing:
        print(f"note: {len(result.missing)} cell(s) of the grid not recorded yet "
              "(merge again with more shard files, or 'sweep run' the merged "
              "file to fill them in)")
    return 0


def _cmd_sweep_digest(args) -> int:
    from repro.dist import records_digest

    for path in args.records:
        print(f"{records_digest(path)}  {path}")
    return 0


def _spec_files(directory: Path) -> list:
    return sorted(
        path for suffix in ("*.yaml", "*.yml", "*.json") for path in directory.glob(suffix)
    )


def _cmd_sweep_list(args) -> int:
    from repro.sweeps import load_spec

    paths = []
    if args.paths:
        for entry in args.paths:
            path = Path(entry)
            if path.is_dir():
                paths.extend(_spec_files(path))
            else:
                paths.append(path)
    else:
        for directory in _DEFAULT_SPEC_DIRS:
            path = Path(directory)
            if path.is_dir():
                paths.extend(_spec_files(path))
    if not paths:
        print("no sweep specs found (searched: " + ", ".join(_DEFAULT_SPEC_DIRS) + ")",
              file=sys.stderr)
        return 2
    rows = []
    invalid = 0
    for path in paths:
        try:
            spec = load_spec(path)
        except Exception as exc:  # noqa: BLE001 - a broken spec should not hide the rest
            rows.append([str(path), "-", "-", f"invalid: {exc}"])
            invalid += 1
            continue
        rows.append([str(path), spec.name, len(spec.cells()), spec.description])
    print(format_table(["Spec", "Name", "Cells", "Description"], rows,
                       title="Sweep specifications"))
    return 1 if invalid else 0


def _cmd_sweep_report(args) -> int:
    from repro.dist.merge import combine_scans
    from repro.sweeps import pivot_table, scan_records, shard_table, summary_table

    # One or many record files (shard parts, a merged file, or any mix of the
    # same spec): combine with the merge layer's validation, so mismatched
    # specs or conflicting duplicates fail here instead of rendering nonsense.
    scans = [scan_records(path) for path in args.records]
    spec, cells, _ = combine_scans(scans)
    records = list(cells.values())
    reference = spec.reference
    print(
        summary_table(
            records,
            reference=reference,
            title=f"Sweep {spec.name}: {spec.description or 'summary'}",
        )
    )
    print()
    print(
        pivot_table(
            records,
            metric=args.pivot,
            reference=reference,
            title=f"Per-backend {args.pivot}",
        )
    )
    sharded = any(record.get("shard") for record in records) or any(
        scan.header.get("shard") for scan in scans
    )
    if sharded:
        print()
        print(shard_table(spec, records))
    for scan in scans:
        if scan.torn_offset is not None:
            print(f"\nnote: {scan.path} has a torn final line (crashed worker); "
                  "its cell re-runs on resume")
    missing = len(spec.cells()) - len(records)
    if missing > 0:
        print(f"\nnote: {missing} cell(s) not recorded yet (run 'sweep run' to resume)")
    return 0


def _cmd_decompose(args) -> int:
    if args.channel == "superconducting":
        channel = SYCAMORE_LIKE_SPEC.gate_noise(1, rng=args.seed)
    else:
        channel = _CHANNEL_FACTORIES[args.channel](args.parameter)
    decomposition = decompose_noise(channel)
    print(f"channel          : {channel.name}")
    print(f"noise rate       : {decomposition.noise_rate:.6e}")
    print(f"singular values  : {[f'{v:.6f}' for v in decomposition.singular_values]}")
    print(f"dominant error   : {decomposition.dominant_error():.6e}  (Lemma-2 bound "
          f"{4 * decomposition.noise_rate:.6e})")
    if args.verbose:
        for index, (u, v) in enumerate(decomposition.terms):
            print(f"-- term {index}: U =\n{np.round(u, 6)}\nV =\n{np.round(v, 6)}")
    return 0


def _cmd_bound(args) -> int:
    rows = []
    for level in range(args.max_level + 1):
        rows.append(
            [
                level,
                theorem1_error_bound(args.noises, args.rate, level),
                contraction_count(args.noises, level),
            ]
        )
    print(
        format_table(
            ["Level", "Theorem-1 bound", "Contractions"],
            rows,
            title=f"N = {args.noises} noises, rate p = {args.rate:g}",
        )
    )
    return 0


def _serve_smoke(args) -> int:
    import concurrent.futures
    import threading
    import time

    from repro.serve import BackgroundServer

    duration = args.smoke
    clients = args.smoke_clients
    counts: dict = {}
    lock = threading.Lock()
    with BackgroundServer(
        host=args.host,
        port=args.port,
        seed=args.seed,
        workers=args.workers,
        max_inflight=args.max_inflight,
        queue_limit=args.queue_limit,
        default_timeout=args.timeout,
        plan_cache_size=args.plan_cache_size,
    ) as bg:
        print(f"smoke: {clients} client(s) x {duration:g}s against {bg.url}")
        deadline = time.perf_counter() + duration

        def drive(index: int) -> int:
            sent = 0
            payload = {
                "circuit": args.smoke_circuit,
                "backend": "statevector",
                "tenant": f"smoke-{index}",
            }
            while time.perf_counter() < deadline:
                _, response = bg.request(payload)
                with lock:
                    status = response.get("status", "error")
                    counts[status] = counts.get(status, 0) + 1
                sent += 1
            return sent

        with concurrent.futures.ThreadPoolExecutor(max_workers=clients) as pool:
            total = sum(pool.map(drive, range(clients)))
        stats = bg.stats()
    ok = counts.get("ok", 0)
    errors = total - ok
    latency = stats["server"]["latency_ms"]
    cache = stats["plan_cache"]
    print(f"requests         = {total} ({counts})")
    print(f"throughput       = {ok / duration:.1f} ok req/s")
    print(f"latency          = p50 {latency['p50_ms']:.2f} ms, "
          f"p99 {latency['p99_ms']:.2f} ms")
    print(f"plan cache       = {cache['hits']} hits, {cache['misses']} misses, "
          f"{cache['coalesced']} coalesced")
    if ok == 0 or errors:
        print(f"error: smoke failed ({ok} ok, {errors} non-ok)", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve import ReproServer

    if args.smoke is not None:
        return _serve_smoke(args)

    async def _run() -> None:
        server = ReproServer(
            seed=args.seed,
            workers=args.workers,
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_timeout=args.timeout,
            plan_cache_size=args.plan_cache_size,
            max_requests=args.max_requests,
        )
        host, port = await server.start_http(args.host, args.port)
        print(f"serving on http://{host}:{port} "
              f"(POST /simulate, GET /stats, GET /healthz)")
        await server.serve_forever()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        print("\nshutdown requested")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_circuit_options(sub):
        sub.add_argument("--circuit", default="qaoa_9",
                         help="benchmark name: qaoa_N, hf_N, inst_RxC_D, ghz_N, qft_N")
        sub.add_argument("--noises", type=int, default=6, help="number of injected noises")
        sub.add_argument("--channel", default="superconducting",
                         choices=sorted(_CHANNEL_FACTORIES) + ["superconducting"])
        sub.add_argument("--parameter", type=float, default=0.001,
                         help="channel parameter (ignored for the superconducting model)")
        sub.add_argument("--seed", type=int, default=7)
        sub.add_argument("--no-passes", action="store_true",
                         help="skip the optimizing compiler passes (fusion, "
                              "noise folding, lightcone pruning)")
        sub.add_argument("--composite-gates", action="store_true",
                         help="use composite gates (ZZ/Givens) instead of the native decomposition")
        sub.add_argument("--parametric", action="store_true",
                         help="build the benchmark with symbolic parameters "
                              "(qaoa_N / hf_N); bind them with --param")
        sub.add_argument("--param", action="append", metavar="NAME=VALUE",
                         help="bind one parameter of a --parametric circuit "
                              "(repeatable, e.g. --param gamma0=0.3)")

    simulate = subparsers.add_parser("simulate", help="run the approximation algorithm")
    add_circuit_options(simulate)
    simulate.add_argument("--level", type=int, default=1)
    simulate.add_argument("--repeat", type=int, default=1,
                          help="run the compiled instance N times and report "
                               "compile-once vs recompile-per-call timings")
    simulate.set_defaults(func=_cmd_simulate)

    compare = subparsers.add_parser(
        "compare", help="run registered backends on the same instance"
    )
    add_circuit_options(compare)
    compare.add_argument("--level", type=int, default=1,
                         help="approximation level for the 'approximation' backend")
    compare.add_argument("--backends", default="all",
                         help="comma-separated registry names, or 'all' for every "
                              "backend applicable to the circuit")
    compare.add_argument("--samples", type=int, default=1000,
                         help="trajectory count for the stochastic backends")
    compare.add_argument("--workers", type=int, default=None,
                         help="process count for the batched trajectory engine")
    compare.set_defaults(func=_cmd_compare)

    list_backends = subparsers.add_parser(
        "list-backends", help="print the backend registry's capability table"
    )
    list_backends.set_defaults(func=_cmd_list_backends)

    verify = subparsers.add_parser(
        "verify", help="run the differential conformance harness (repro.verify)"
    )
    verify.add_argument("--families", default="all",
                        help="comma-separated workload families, or 'all' "
                             "(brickwork, clifford_t, qaoa_like, ghz_ladder, "
                             "deep_narrow, wide_shallow)")
    verify.add_argument("--cases", type=int, default=50,
                        help="number of generated workloads (round-robin over families)")
    verify.add_argument("--seed", type=int, default=7,
                        help="base seed; the whole run is reproducible from it")
    verify.add_argument("--samples", type=int, default=320,
                        help="trajectory count for the stochastic checks")
    verify.add_argument("--level", type=int, default=1,
                        help="approximation level for the approximation backend")
    verify.add_argument("--workers", type=int, default=2,
                        help="shared process-pool size (>= 2; also the alternate "
                             "worker count of the determinism oracle)")
    verify.add_argument("--artifacts", default="verify_artifacts",
                        help="directory for failure artifacts (created on demand)")
    verify.add_argument("--no-shrink", action="store_true",
                        help="skip minimising failing circuits")
    verify.add_argument("--no-passes", action="store_true",
                        help="run the oracles against the raw (unoptimized) pipeline")
    verify.add_argument("--quiet", action="store_true",
                        help="suppress per-case progress lines")
    verify.set_defaults(func=_cmd_verify)

    replay = subparsers.add_parser(
        "replay", help="re-check conformance failure artifacts"
    )
    replay.add_argument("artifacts", nargs="+", help="artifact JSON file(s)")
    replay.set_defaults(func=_cmd_replay)

    sweep = subparsers.add_parser(
        "sweep", help="run/list/report declarative experiment sweeps (repro.sweeps)"
    )
    sweep_sub = sweep.add_subparsers(dest="sweep_command", required=True)

    sweep_run = sweep_sub.add_parser("run", help="execute a sweep spec (YAML/JSON)")
    sweep_run.add_argument("spec", help="path to the sweep spec file")
    sweep_run.add_argument("--out", default=None,
                           help="JSONL record file (default: sweep_results/<name>.jsonl)")
    sweep_run.add_argument("--workers", type=int, default=None,
                           help="shared process-pool size for the stochastic backends "
                                "(values are identical for every setting)")
    sweep_run.add_argument("--fresh", action="store_true",
                           help="ignore existing records and start over")
    sweep_run.add_argument("--max-cells", type=int, default=None,
                           help="stop after this many pending cells (smoke runs)")
    sharding = sweep_run.add_mutually_exclusive_group()
    sharding.add_argument("--shard", default=None, metavar="K/N",
                          help="worker mode: execute only shard K of an N-way "
                               "deterministic partition of the grid (combine "
                               "the partial files with 'sweep merge')")
    sharding.add_argument("--shards", type=int, default=None, metavar="N",
                          help="coordinator mode: run the grid as N local "
                               "worker processes with crash-safe re-dispatch, "
                               "then merge into --out")
    sweep_run.add_argument("--max-rounds", type=int, default=3,
                           help="dispatch rounds before --shards gives up on a "
                                "crashing shard (default: 3)")
    # Fault-injection hooks for the crash-safety drills (tests, CI smoke).
    sweep_run.add_argument("--crash-after", type=int, default=None,
                           help=argparse.SUPPRESS)
    sweep_run.add_argument("--inject-crash", action="append", metavar="SHARD:AFTER",
                           help=argparse.SUPPRESS)
    sweep_run.set_defaults(func=_cmd_sweep_run)

    sweep_list = sweep_sub.add_parser("list", help="list available sweep specs")
    sweep_list.add_argument("paths", nargs="*",
                            help="spec files or directories (default: "
                                 + ", ".join(_DEFAULT_SPEC_DIRS) + ")")
    sweep_list.set_defaults(func=_cmd_sweep_list)

    sweep_report = sweep_sub.add_parser(
        "report", help="summarise a sweep's JSONL records"
    )
    sweep_report.add_argument("records", nargs="+",
                              help="JSONL record file(s): one sweep output, or "
                                   "several shard/partial files of one spec")
    sweep_report.add_argument("--pivot", choices=("runtime", "precision"), default="runtime",
                              help="metric of the per-backend pivot table")
    sweep_report.set_defaults(func=_cmd_sweep_report)

    sweep_merge = sweep_sub.add_parser(
        "merge", help="merge shard/partial record files into one canonical file"
    )
    sweep_merge.add_argument("out", help="merged JSONL output file")
    sweep_merge.add_argument("inputs", nargs="+",
                             help="partial record files (shard outputs, resumed "
                                  "partials, or previously merged files)")
    sweep_merge.set_defaults(func=_cmd_sweep_merge)

    sweep_digest = sweep_sub.add_parser(
        "digest", help="content digest of record files (volatile fields stripped)"
    )
    sweep_digest.add_argument("records", nargs="+", help="JSONL record file(s)")
    sweep_digest.set_defaults(func=_cmd_sweep_digest)

    decompose = subparsers.add_parser("decompose", help="SVD-decompose a noise channel")
    decompose.add_argument("--channel", default="depolarizing",
                           choices=sorted(_CHANNEL_FACTORIES) + ["superconducting"])
    decompose.add_argument("--parameter", type=float, default=0.01)
    decompose.add_argument("--seed", type=int, default=7)
    decompose.add_argument("--verbose", action="store_true")
    decompose.set_defaults(func=_cmd_decompose)

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant HTTP serving layer (repro.serve)"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8780,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--seed", type=int, default=0,
                       help="server seed: root of every tenant's deterministic "
                            "seed stream")
    serve.add_argument("--workers", type=int, default=None,
                       help="process-pool size for the stochastic backends")
    serve.add_argument("--max-inflight", type=int, default=4,
                       help="concurrent executions (worker thread count)")
    serve.add_argument("--queue-limit", type=int, default=16,
                       help="admitted requests held beyond --max-inflight before "
                            "shedding with 'overloaded'")
    serve.add_argument("--timeout", type=float, default=30.0,
                       help="default per-request budget in seconds")
    serve.add_argument("--plan-cache-size", type=int, default=128)
    serve.add_argument("--max-requests", type=int, default=None,
                       help="shut down after this many responses (drills)")
    serve.add_argument("--smoke", type=float, default=None, metavar="SECONDS",
                       help="instead of serving, self-drive a load drill for "
                            "SECONDS and exit nonzero on any non-ok response")
    serve.add_argument("--smoke-clients", type=int, default=4,
                       help="concurrent clients of the --smoke drill")
    serve.add_argument("--smoke-circuit", default="ghz_10",
                       help="benchmark circuit of the --smoke drill")
    serve.set_defaults(func=_cmd_serve)

    bound = subparsers.add_parser("bound", help="evaluate the Theorem-1 bound")
    bound.add_argument("--noises", type=int, required=True)
    bound.add_argument("--rate", type=float, required=True)
    bound.add_argument("--max-level", type=int, default=3)
    bound.set_defaults(func=_cmd_bound)
    return parser


def main(argv=None) -> int:
    """CLI entry point."""
    from repro.utils.validation import ValidationError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # e.g. `... | head`: exit quietly like other CLIs
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
