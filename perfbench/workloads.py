"""The benchmark pipeline and its two workloads.

Every run drives the same owner/provider pipeline through the public entry
points (``repro.api``), in four phases:

1. **set-up**, ``SETUP_REPS`` times: a ``MiningServer`` with one ``sqlite``
   tenant whose service authenticates its onions and journals its streams;
   registration encrypts the database, and one pass over the serving pool
   settles the onion adjustments;
2. **serve**: two clients in a closed loop of single-query SQL requests;
3. **stream**: a prefix of the log streamed in batches through
   ``ServiceSession.stream`` into ``journaled_miner()``, then
   ``recover_miner()`` rebuilds the miner from the journal;
4. **mine**: the owner encrypts the whole log with ``TokenDpeScheme`` and
   the provider mines it exactly.

The two workloads differ only in how much work their queries share: on
``distinct`` nearly every query is new, on ``templated`` the queries cycle
through 64 generated ones.  Every phase checks its outputs against an
oracle computed outside the timed region.  With ``trace=True`` the same
pipeline runs with the layer boundaries wrapped by a
:class:`~tracing.Tracer`, and the outcome carries per-layer metrics only.

A workload that stops testing what it was chosen for raises
:class:`GuardError` instead of returning numbers.
"""

from __future__ import annotations

import dataclasses
import os
import random
import resource
import statistics
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import repro.api.service as service_module
import repro.reliability.journal as journal_module
from repro.api import (
    ApiError,
    BackendConfig,
    CryptoConfig,
    EncryptedMiningService,
    LogContext,
    MiningConfig,
    MiningServer,
    QueryLog,
    QueryLogGenerator,
    ReliabilityConfig,
    ServerConfig,
    ServiceConfig,
    StreamingQueryLog,
    StreamJournal,
    TenantHandle,
    TokenDistance,
    TokenDpeScheme,
    WorkloadMix,
    parse_query,
    populate_database,
    webshop_profile,
)
from repro.cryptdb.rewriter import QueryRewriter
from repro.db import create_backend
from repro.db.differential import result_difference
from repro.db.executor import ResultSet
from repro.db.sqlite_backend import SQLiteBackend
from tracing import Tracer

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Mining parameters of every phase.  The defaults (eps 0.5, p/d 0.95/0.9)
#: give one cluster and no outliers on these logs.  A templated log holds
#: each query ~62 times, so p above 0.95 leaves it without outliers.
MINING = MiningConfig(
    workers=1, dbscan_eps=0.3, dbscan_min_points=5, outlier_p=0.95, outlier_d=0.5
)
MINE_N = 4000
TEMPLATES = 64
ENCRYPT_REPS = 3
MIN_DISTINCT_FRACTION = 0.9
#: The database and the serving pool come from this generator seed, not
#: from ``--seed``: a few analytical queries decrypt hundreds of Paillier
#: sums, and pools drawn per seed moved throughput by a tenth between seeds.
DATA_SEED = 0
SERVE_POOL = 512
CLIENTS = 2
STREAM_N = 2000
STREAM_BATCH = 50
SNAPSHOT_EVERY = 10
TENANT = "shop"
#: Shares of ``--seconds`` measured by the serve, stream and mine phases.
#: Serving ends on a whole pass over the pool; stream and mine run at
#: least ``MIN_CYCLES`` full cycles or passes.
SHARES = {"serve": 0.6, "stream": 0.2, "mine": 0.2}
MIN_CYCLES = 2


class GuardError(RuntimeError):
    """The workload no longer exercises what it was chosen for."""


@dataclass
class Outcome:
    """Metrics, checked-operation counts and the provenance details of a run."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    record: dict[str, object] = field(default_factory=dict)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def _guard(condition: bool, message: str) -> None:
    if not condition:
        raise GuardError(message)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _log(seed: int, size: int, templated: bool) -> QueryLog:
    """A webshop ``mixed`` log, or ``TEMPLATES`` generated queries repeated.

    The templates come from :data:`DATA_SEED` and ``seed`` only shuffles
    their order: 64 templates drawn per seed moved encryption time by a
    tenth between seeds.
    """
    if not templated:
        return QueryLogGenerator(webshop_profile(), WorkloadMix(), seed=seed).generate(size)
    base = QueryLogGenerator(webshop_profile(), WorkloadMix(), seed=DATA_SEED).generate(TEMPLATES)
    queries = [base.queries[i % TEMPLATES] for i in range(size)]
    random.Random(f"perfbench/templated/{seed}").shuffle(queries)
    return QueryLog.from_queries(queries)


def _repeat(seconds: float, body, *, minimum: int = 1) -> None:
    """Call ``body`` until ``seconds`` have passed, at least ``minimum`` times."""
    start = perf_counter()
    done = 0
    while done < minimum or perf_counter() - start < seconds:
        body()
        done += 1


def _same_artefacts(mined, reference) -> bool:
    """Definition 1 on the mining output: labels, outliers and kNN lists."""
    return (
        mined.clusters.labels == reference.clusters.labels
        and mined.outliers.outliers == reference.outliers.outliers
        and mined.knn == reference.knn
    )


def _guard_mining(clusters, outliers, what: str) -> None:
    _guard(
        clusters.n_clusters > 1 and len(outliers.outliers) > 0,
        f"{what}: mining parameters give {clusters.n_clusters} clusters and "
        f"{len(outliers.outliers)} outliers; need more than one cluster and some outliers",
    )


#: Spans of the traced set-up: service construction and database encryption.
SETUP_SPANS = (
    (EncryptedMiningService, "__init__", "api.construct"),
    (EncryptedMiningService, "encrypt", "cryptdb.encrypt_db"),
)


def run(seed: int, seconds: float, trace: bool, *, templated: bool, workdir: Path) -> Outcome:
    """Set up, serve, stream and mine one seeded log; see the module doc.

    The process is pinned to one CPU first.  Two clients and two server
    workers are four threads sharing one interpreter lock; across two cores
    its hand-off swings throughput by a fifth for seconds at a time, on one
    core it is cheap and steady.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    outcome = Outcome()
    log = _log(seed, MINE_N, templated)
    measure = TokenDistance()
    groups = len(set(map(measure.characteristic_key, measure.prepare(LogContext(log=log)))))
    distinct_fraction = len(set(log.statements)) / len(log)
    outcome.record.update(
        n=len(log), groups=groups, distinct_fraction=distinct_fraction,
        serve_pool=SERVE_POOL, clients=CLIENTS, stream_n=STREAM_N, batch=STREAM_BATCH,
    )
    if templated:
        _guard(groups <= TEMPLATES, f"templated log has {groups} groups, more than {TEMPLATES}")
    else:
        _guard(
            distinct_fraction >= MIN_DISTINCT_FRACTION,
            f"distinct log has distinct fraction {distinct_fraction:.3f} < {MIN_DISTINCT_FRACTION}",
        )

    database = populate_database(webshop_profile(), seed=DATA_SEED)
    pool = _log(DATA_SEED, SERVE_POOL, templated).statements
    config = ServiceConfig(
        crypto=CryptoConfig(passphrase=f"perfbench/{seed}", authenticate=True),
        backend=BackendConfig(name="sqlite"),
        mining=MINING,
        reliability=ReliabilityConfig(snapshot_every=SNAPSHOT_EVERY),
    )
    tracer = Tracer()
    setup_times = []
    tracer.phase = "setup"
    with tracer.patched(SETUP_SPANS if trace else ()):
        for rep in range(SETUP_REPS):
            start = perf_counter()
            server = MiningServer(ServerConfig(workers=2, max_pending=4))
            server.add_tenant(
                TENANT, config, database=database, join_groups=webshop_profile().join_groups()
            )
            warm = server.run_workload(TENANT, pool)
            setup_times.append(perf_counter() - start)
            if rep < SETUP_REPS - 1:
                server.close()
    hom_queries = {
        sql for sql, result in zip(pool, warm.results) if "HOMSUM" in result.encrypted_sql
    }
    service = server.tenant(TENANT).service
    coverage = {}
    try:
        coverage["serve"] = _serve(
            server, pool, hom_queries, database, seed, seconds * SHARES["serve"],
            trace, tracer, outcome,
        )
        coverage["stream"] = _stream(
            service, log.statements[:STREAM_N], workdir, seconds * SHARES["stream"],
            trace, tracer, outcome,
        )
    finally:
        server.close()
    on_demand = service.crypto_stats()["paillier"]["noise_pool"]["served_on_demand"]
    coverage["mine"] = _mine(
        service, config, log, seconds * SHARES["mine"], trace, tracer, outcome
    )

    if not trace:
        outcome.put("setup_s", statistics.median(setup_times), "s")
        outcome.put("peak_rss_mb", _peak_rss_mb(), "MB")
        return outcome
    total = tracer.total
    outcome.put("api.construct_s", total["setup:api.construct"] / SETUP_REPS, "s")
    outcome.put("cryptdb.encrypt_db_s", total["setup:cryptdb.encrypt_db"] / SETUP_REPS, "s")
    outcome.put("crypto.paillier_on_demand", on_demand, "count")
    outcome.put("mining.groups", groups, "count")
    outcome.record["coverage"] = coverage
    outcome.put("trace.coverage", min(coverage.values()), "ratio")
    return outcome


# --------------------------------------------------------------------- #
# serve


def _sql_value(value: object) -> object:
    # SQL compares 312 and 312.0 as equal, and Paillier sums are exact in
    # fixed point (10^-6) where a plaintext float sum accumulates rounding.
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return round(float(value), 6)
    return value


def _normalized(result: ResultSet) -> ResultSet:
    return ResultSet(
        result.columns, tuple(tuple(_sql_value(v) for v in row) for row in result.rows)
    )


def _serve(server, pool, hom_queries, database, seed, seconds, trace, tracer, outcome) -> float:
    """Closed loop of single-query requests; returns the trace coverage.

    Both clients walk seeded shuffles of the pool in turn, and the first
    request due after ``seconds`` that would start a new pass ends the
    loop, so every run serves whole passes: the same mix of requests,
    whatever the seed.  A request ends when the tenant's service has
    decrypted its rows.
    """
    oracle = create_backend("memory", database)
    expected = {sql: _normalized(oracle.execute(parse_query(sql))) for sql in set(pool)}
    oracle.close()
    service = server.tenant(TENANT).service
    schedule = list(pool)
    order = random.Random(f"perfbench/serve/{seed}")
    draw_lock = threading.Lock()
    issued = 0
    stop_at = 0.0
    samples: list[list[tuple]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def draw() -> str | None:
        # Each pass walks a fresh seeded shuffle, so a run averages over
        # orders instead of repeating one (two heavy queries in a row wait
        # on each other).
        nonlocal issued
        with draw_lock:
            if issued % len(schedule) == 0:
                if issued and perf_counter() >= stop_at:
                    return None
                order.shuffle(schedule)
            issued += 1
            return schedule[(issued - 1) % len(schedule)]

    def client(index: int) -> None:
        local = samples[index]
        try:
            while (sql := draw()) is not None:
                start = perf_counter()
                try:
                    result = server.submit(TENANT, [sql], wait=False).result()
                except ApiError:  # ServerOverloaded included
                    local.append((sql, None, 0.0, 0.0, 0.0))
                    continue
                decrypt_start = perf_counter()
                rows = [service.decrypt(item) for item in result.results]
                end = perf_counter()
                local.append((sql, rows, end - start, result.elapsed_seconds, end - decrypt_start))
        except BaseException as error:  # re-raised on the main thread
            errors.append(error)

    stages = [
        (service_module, "parse_query", "sql.parse"),
        (QueryRewriter, "rewrite", "cryptdb.rewrite"),
        (SQLiteBackend, "execute", "db.execute"),
        (EncryptedMiningService, "decrypt", "cryptdb.decrypt"),
        (TenantHandle, "run_workload", "server.tenant_run"),
    ]
    tracer.phase = "serve"
    with tracer.patched(stages if trace else ()):
        start = perf_counter()
        stop_at = start + seconds
        threads = [threading.Thread(target=client, args=(index,)) for index in range(CLIENTS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = perf_counter() - start
    if errors:
        raise errors[0]

    requests = [sample for client_samples in samples for sample in client_samples]
    served = [sample for sample in requests if sample[1] is not None]
    hom_served = 0
    for sql, rows, *_ in requests:
        ok = rows is not None and len(rows) == 1 and result_difference(
            parse_query(sql), expected[sql], _normalized(rows[0])
        ) is None
        outcome.check(ok)
        hom_served += ok and sql in hom_queries
    _guard(hom_served > 0, "serve served no HOM aggregate")
    latencies = sorted(sample[2] for sample in served)
    outcome.record.update(requests=len(requests), latency_samples=len(latencies), hom_requests=hom_served)

    if not trace:
        quantiles = statistics.quantiles(latencies, n=100)
        outcome.put("serve_qps", len(served) / window, "1/s")
        outcome.put("query_p50_ms", quantiles[49] * 1e3, "ms")
        outcome.put("query_p99_ms", quantiles[98] * 1e3, "ms")
        return 1.0

    total = tracer.total
    count = len(served)
    per_request_ms = 1e3 / count
    cells = sum(len(rows[0].rows) * len(rows[0].columns) for _, rows, *_ in served)
    overheads = [latency - elapsed - decrypt for *_, latency, elapsed, decrypt in served]
    latency_total = sum(latencies)
    # Admission queue wait and hand-off: latency outside the worker's call
    # and outside the client's decryption.
    dispatch = latency_total - total["serve:server.tenant_run"] - total["serve:cryptdb.decrypt"]
    covered = sum(
        total[f"serve:{name}"]
        for name in ("sql.parse", "cryptdb.rewrite", "db.execute", "cryptdb.decrypt")
    )
    outcome.put("sql.parse_ms", total["serve:sql.parse"] * per_request_ms, "ms")
    outcome.put("cryptdb.rewrite_ms", total["serve:cryptdb.rewrite"] * per_request_ms, "ms")
    outcome.put("db.execute_ms", total["serve:db.execute"] * per_request_ms, "ms")
    outcome.put("cryptdb.decrypt_ms", total["serve:cryptdb.decrypt"] * per_request_ms, "ms")
    outcome.put("crypto.cells_decrypted", cells / count, "count")
    outcome.put("server.overhead_ms", statistics.median(overheads) * 1e3, "ms")
    outcome.put("server.queue_high_water", server.stats().queue.high_water, "count")
    return (covered + dispatch) / latency_total


# --------------------------------------------------------------------- #
# stream


def _stream(service, statements, workdir, seconds, trace, tracer, outcome) -> float:
    """Batches through ``ServiceSession.stream`` into a journaled miner, then
    crash recovery; returns the trace coverage."""
    batches = [statements[i : i + STREAM_BATCH] for i in range(0, len(statements), STREAM_BATCH)]
    ingest_times: list[float] = []
    recover_times: list[float] = []
    journal_bytes: list[int] = []
    cycles = 0

    def one_cycle() -> None:
        nonlocal cycles
        path = workdir / f"journal-{cycles}.jsonl"
        cycles += 1
        matrix, journal = service.journaled_miner(path=str(path))
        encrypted = []
        with service.open_session() as session:
            tracer.phase = "ingest"
            start = perf_counter()
            for batch in batches:
                encrypted.extend(session.stream(batch, into=matrix))
            ingest_times.append(perf_counter() - start)
            tracer.phase = "stream"
            session.verify_stream(matrix)
        journal.close()
        journal_bytes.append(path.stat().st_size)
        tracer.phase = "recover"
        start = perf_counter()
        recovered, report = service.recover_miner(path=str(path))
        recover_times.append(perf_counter() - start)
        tracer.phase = "stream"

        batch_mined = service.mine(encrypted)
        _guard_mining(batch_mined.clusters, batch_mined.outliers, "stream")
        live = (matrix.dbscan(), matrix.outliers(), matrix.knn_all())
        outcome.check(
            len(encrypted) == len(statements)
            and live[0].labels == batch_mined.clusters.labels
            and live[1].outliers == batch_mined.outliers.outliers
            and live[2] == batch_mined.knn
        )
        outcome.check(
            report.entries_replayed == len(statements)
            and recovered.stream.chain_head == matrix.stream.chain_head
            and recovered.dbscan().labels == live[0].labels
            and recovered.outliers().outliers == live[1].outliers
            and recovered.knn_all() == live[2]
        )

    stages = [
        (service_module, "parse_query", "sql.parse"),
        (QueryRewriter, "rewrite", "cryptdb.rewrite"),
        (StreamingQueryLog, "append", "mining.incremental.append"),
        (StreamJournal, "record", "reliability.journal_append"),
        (StreamingQueryLog, "checkpoint", "crypto.integrity.checkpoint"),
        (journal_module, "read_journal", "reliability.read_journal"),
    ]
    tracer.phase = "stream"
    with tracer.patched(stages if trace else ()):
        _repeat(seconds, one_cycle, minimum=MIN_CYCLES)
    outcome.record["stream_cycles"] = cycles

    if not trace:
        outcome.put("ingest_qps", len(statements) / statistics.median(ingest_times), "1/s")
        outcome.put("recover_s", statistics.median(recover_times), "s")
        return 1.0

    # Recovery replays through the same append path, so spans are filed per
    # phase; the per-batch figures count ingest batches only.
    total, self_time = tracer.total, tracer.self_time
    per_batch_ms = 1e3 / (cycles * len(batches))
    covered = sum(
        self_time[f"{phase}:{name}"] for phase in ("ingest", "recover") for _, _, name in stages
    )
    outcome.put(
        "mining.incremental.append_ms",
        self_time["ingest:mining.incremental.append"] * per_batch_ms,
        "ms",
    )
    outcome.put(
        "reliability.journal_append_ms",
        total["ingest:reliability.journal_append"] * per_batch_ms,
        "ms",
    )
    outcome.put(
        "reliability.journal_bytes_per_query",
        statistics.median(journal_bytes) / len(statements),
        "B",
    )
    outcome.put(
        "crypto.integrity.checkpoint_ms",
        total["ingest:crypto.integrity.checkpoint"] * per_batch_ms,
        "ms",
    )
    return covered / (sum(ingest_times) + sum(recover_times))


# --------------------------------------------------------------------- #
# mine


def _mine(service, config, log, seconds, trace, tracer, outcome) -> float:
    """Owner encrypts the log with the token scheme; provider mines it
    exactly.  Returns the trace coverage."""
    scheme = TokenDpeScheme(service.keychain)
    reference = service.mine(log)
    _guard_mining(reference.clusters, reference.outliers, "mine")
    outcome.record.update(
        clusters=reference.clusters.n_clusters, outliers=len(reference.outliers.outliers)
    )

    if not trace:
        encrypt_times: list[float] = []
        mine_times: list[float] = []

        def one_pass() -> None:
            # Encryption is a tenth of a pass, so it is timed several times.
            for _ in range(ENCRYPT_REPS):
                start = perf_counter()
                encrypted = scheme.encrypt_log(log)
                encrypt_times.append(perf_counter() - start)
            start = perf_counter()
            mined = service.mine(encrypted)
            mine_times.append(perf_counter() - start)
            outcome.check(_same_artefacts(mined, reference))

        _repeat(seconds, one_pass, minimum=MIN_CYCLES)
        outcome.record["mine_passes"] = len(mine_times)
        outcome.put("encrypt_log_s", statistics.median(encrypt_times), "s")
        outcome.put("mine_s", statistics.median(mine_times), "s")
        return 1.0

    encrypted = scheme.encrypt_log(log)
    stages = [
        (TokenDistance, "characteristics", "core.measures.characterise"),
        (TokenDistance, "condensed_distances", "core.measures.distance"),
        (service_module, "dbscan", "mining.dbscan"),
        (service_module, "distance_based_outliers", "mining.outliers"),
        (service_module, "k_nearest_neighbors", "mining.knn"),
    ]
    tracer.phase = "mine"
    with tracer.patched(stages):
        start = perf_counter()
        mined = service.mine(encrypted)
        mine_s = perf_counter() - start
    outcome.check(_same_artefacts(mined, reference))
    total = tracer.total
    outcome.put("core.measures.characterise_s", total["mine:core.measures.characterise"], "s")
    outcome.put("core.measures.distance_s", total["mine:core.measures.distance"], "s")
    outcome.put("mining.knn_s", total["mine:mining.knn"], "s")
    outcome.put("mining.dbscan_s", total["mine:mining.dbscan"], "s")
    outcome.put("mining.outliers_s", total["mine:mining.outliers"], "s")
    coverage = sum(total[f"mine:{name}"] for _, _, name in stages) / mine_s

    # The pivot path is measured only while the config still offers it;
    # without it the exact path stands in: every pair exact, certified.
    if "approx" not in {f.name for f in dataclasses.fields(MiningConfig)}:
        outcome.put("mining.approx_s", mine_s, "s")
        outcome.put("mining.approx_exact_frac", 1.0, "ratio")
        outcome.put("mining.approx_certified", 1.0, "bool")
        return coverage
    approx_config = dataclasses.replace(config, mining=dataclasses.replace(MINING, approx=True))
    approx_service = EncryptedMiningService(approx_config)
    start = perf_counter()
    approx = approx_service.mine(encrypted)
    approx_s = perf_counter() - start
    stats = approx.candidate_stats
    if stats.certified_complete:
        outcome.check(_same_artefacts(approx, reference))
    outcome.put("mining.approx_s", approx_s, "s")
    outcome.put(
        "mining.approx_exact_frac",
        stats.exact_distances / max(1, stats.group_pairs_examined),
        "ratio",
    )
    outcome.put("mining.approx_certified", float(stats.certified_complete), "bool")
    return coverage
