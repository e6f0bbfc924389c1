"""The ``serve`` workload: a ``repro serve`` daemon under open-loop load.

Set-up learns the registry's wrappers in this process, writes them to a
file registry and starts the daemon in its own process (one worker,
learn-on-miss armed).  This process is then the load generator: one
connection carries ``apply`` requests for fresh pages of known sites,
a second carries ``apply`` requests for never-seen sites, which the
daemon learns on miss.  Requests go out on a fixed schedule whatever
the replies do (open loop); each is timed from the moment it was due.

A run is a *nominal* step, whose latencies are the headline, and a
ladder of higher fixed rates from which the highest sustainable rate
is read.  Every reply is checked: known sites must be answered through
the registry's site-name index (``source == "site"``) with exactly the
nodes and texts the serial in-process apply returns, never-seen sites
through ``"learned"``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import socket
import subprocess
import sys
import threading
import time

from repro.service import WrapperRegistry
from repro.service.protocol import decode_frame, encode_frame, iter_lines
from repro.site import sources_fingerprint

from fresh import pairs_to_ids, macro_f1, salt
from inproc import FreshGuard, Tally, apply_plain, apply_traced
from spans import Tracer
from stats import median, percentile, speed_scale, tail

NOW = time.perf_counter


class Daemon:
    """One ``repro serve`` process, started and stopped by the benchmark."""

    def __init__(self, root: str, out_dir: str, registry_dir: str, seed: int,
                 cfg: dict, tag: str, trace_log: str | None = None) -> None:
        self.log_path = os.path.join(out_dir, f"daemon-{tag}.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        arena_dir = os.path.join(out_dir, "arena")
        os.makedirs(arena_dir, exist_ok=True)
        env["REPRO_ARENA_DIR"] = arena_dir
        command = [
            sys.executable, "-m", "repro", "serve",
            "--registry", registry_dir,
            "--workers", str(cfg["workers"]),
            "--host", "127.0.0.1", "--port", "0",
            "--dataset", "dealers",
            "--sites", str(cfg["daemon_fit_sites"]),
            "--pages", str(cfg["pool"]["learn_pages"]),
            "--seed", str(seed),
        ]
        if trace_log:
            command += ["--trace-log", trace_log]
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL,
        )
        self.address = self._wait_ready(cfg["start_timeout_s"])

    def _wait_ready(self, timeout: float) -> tuple[str, int]:
        deadline = NOW() + timeout
        while NOW() < deadline:
            if self.proc.poll() is not None:
                break
            with open(self.log_path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith("serving on "):
                        host, port = line.split()[-1].rsplit(":", 1)
                        return host, int(port)
            time.sleep(0.01)
        self.close()
        raise RuntimeError(f"daemon did not start; see {self.log_path}")

    def pss_mb(self) -> float:
        """PSS of the daemon and every descendant, in MB."""
        total_kb = 0
        for pid in _descendants(self.proc.pid):
            try:
                with open(f"/proc/{pid}/smaps_rollup", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("Pss:"):
                            total_kb += int(line.split()[1])
                            break
            except OSError:
                continue  # the process exited since it was listed
        return total_kb / 1024.0

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _descendants(root_pid: int) -> list[int]:
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # the process exited since it was listed
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found, frontier = [root_pid], [root_pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


class Connection:
    """One NDJSON connection; a reader thread stamps every reply."""

    def __init__(self, address, done: threading.Condition) -> None:
        self.sock = socket.create_connection(address, timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.replies: dict = {}
        #: Shared by every connection of one generator: notified per reply.
        self.done = done
        self.error: BaseException | None = None
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        try:
            for line in iter_lines(self.sock):
                stamp = NOW()
                record = decode_frame(line)
                with self.done:
                    self.replies[record.get("id")] = (stamp, record)
                    self.done.notify_all()
        except OSError as error:
            self.error = error
        with self.done:
            self.done.notify_all()

    def send(self, frame: bytes) -> None:
        self.sock.sendall(frame)

    def request(self, record: dict, timeout: float = 60.0) -> dict:
        self.send(encode_frame(record))
        return self.wait([record["id"]], timeout)[record["id"]][1]

    def wait(self, ids, timeout: float) -> dict:
        deadline = NOW() + timeout
        with self.done:
            while True:
                missing = [i for i in ids if i not in self.replies]
                if not missing or self.error is not None:
                    break
                left = deadline - NOW()
                if left <= 0:
                    break
                self.done.wait(left)
            return {i: self.replies[i] for i in ids if i in self.replies}

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.reader.join(timeout=10)


# -- schedule ------------------------------------------------------------------


class Step:
    """One fixed-rate open-loop step: every request pre-encoded."""

    def __init__(self, name: str, rate: float, seconds: float) -> None:
        self.name = name
        self.rate = rate
        self.seconds = seconds
        #: (due offset, connection index, id, frame, meta)
        self.requests: list = []


def build_step(name: str, rate: float, seconds: float, setup, seed: int,
               cfg: dict, cursor: dict, guard: FreshGuard) -> Step:
    """Requests for one step; ``cursor`` carries the batch rotation and
    the never-seen-site counter across steps so no input repeats."""
    step = Step(name, rate, seconds)
    count = max(1, int(round(rate * seconds)))
    unseen = list(setup.unseen.items())
    for slot in range(count):
        cursor["id"] += 1
        request_id = cursor["id"]
        token = f"{seed}.{request_id}"
        if slot % cfg["learn_every"] == cfg["learn_every"] - 1:
            base_name, sources = unseen[cursor["unseen"] % len(unseen)]
            site = f"unseen-{seed}-{cursor['unseen']}"
            cursor["unseen"] += 1
            meta = {"kind": "learn", "site": site, "base": base_name}
            connection = 1
        else:
            batch = setup.batches[cursor["batch"] % len(setup.batches)]
            cursor["batch"] += 1
            site, sources = batch.site, batch.sources
            meta = {"kind": "apply", "site": site, "batch": batch}
            connection = 0
        pages = [salt(html, token) for html in sources]
        guard.check(pages)
        meta["pages"] = pages
        frame = encode_frame({
            "op": "apply", "id": request_id, "site": site, "pages": pages,
            "texts": True,
        })
        step.requests.append((slot / rate, connection, request_id, frame, meta))
    return step


def run_step(step: Step, connections, drain_timeout: float) -> dict:
    """Send ``step`` on schedule; return per-request timings and replies.

    A send that starts late because the previous one was still blocked
    in the socket (the daemon's TCP backpressure) is the system's delay,
    not the generator's: generator lag is measured from the later of
    the due time and the end of the previous send.
    """
    lags = []
    sends = []
    half = step.seconds / 2.0
    backlog_mid = None
    start = NOW() + 0.02
    free_at = start
    for offset, connection, request_id, frame, _ in step.requests:
        due = start + offset
        left = due - NOW()
        if left > 0:
            time.sleep(left)
        began = NOW()
        connections[connection].send(frame)
        lags.append(began - max(due, free_at))
        free_at = NOW()
        sends.append((request_id, connection, due))
        if backlog_mid is None and offset >= half:
            backlog_mid = _outstanding(sends, connections)
    window_end = start + step.seconds
    while NOW() < window_end:
        time.sleep(min(0.005, max(0.0, window_end - NOW())))
    backlog_end = _outstanding(sends, connections)
    return {
        "sends": sends,
        "replies": _collect(sends, connections, drain_timeout),
        "lags": lags,
        "backlog_mid": backlog_mid or 0,
        "backlog_end": backlog_end,
    }


def run_saturation(step: Step, connections, depth: int, drain_timeout: float) -> dict:
    """Closed loop at ``depth`` requests in flight for ``step.seconds``:
    the daemon never idles, so completions per second is its capacity.
    Each request is timed from its own send."""
    sends, done = [], connections[0].done
    pending = iter(step.requests)
    start = NOW()
    window_end = start + step.seconds

    def send_next() -> bool:
        item = next(pending, None)
        if item is None:
            return False
        _, connection, request_id, frame, _ = item
        sends.append((request_id, connection, NOW()))
        connections[connection].send(frame)
        return True

    for _ in range(depth):
        send_next()
    seen = 0
    while NOW() < window_end:
        with done:
            done.wait(0.05)
        answered = sum(1 for rid, conn, _ in sends if rid in connections[conn].replies)
        for _ in range(answered - seen):
            if not send_next():
                break
        seen = answered
    warm = start + step.seconds * 0.2
    pages = {rid: len(meta["pages"]) for _, _, rid, _, meta in step.requests}
    counted = [
        (connections[conn].replies[rid][0], pages[rid])
        for rid, conn, _ in sends
        if rid in connections[conn].replies
    ]
    in_window = [size for stamp, size in counted if warm <= stamp <= window_end]
    return {
        "sends": sends,
        "replies": _collect(sends, connections, drain_timeout),
        "lags": [],
        "backlog_mid": 0,
        "backlog_end": 0,
        "throughput_rps": len(in_window) / (window_end - warm),
        "pages_per_s": sum(in_window) / (window_end - warm),
    }


def _collect(sends, connections, drain_timeout: float) -> dict:
    replies = {}
    for index, connection in enumerate(connections):
        ids = [rid for rid, conn, _ in sends if conn == index]
        replies.update(connection.wait(ids, drain_timeout))
    return replies


def _outstanding(sends, connections) -> int:
    return sum(
        1 for rid, conn, _ in sends if rid not in connections[conn].replies
    )


def judge_step(step: Step, outcome: dict, tally: Tally, cfg: dict) -> dict:
    """Check every reply of a step and summarise its latencies."""
    apply_ms, learn_ms, served = [], [], []
    missed = 0
    metas = {rid: meta for _, _, rid, _, meta in step.requests}
    for request_id, _, due in outcome["sends"]:
        meta = metas[request_id]
        reply = outcome["replies"].get(request_id)
        if reply is None:
            tally.fail("no reply")
            missed += 1
            continue
        stamp, record = reply
        latency_ms = (stamp - due) * 1e3
        if not record.get("ok"):
            tally.fail(f"refused: {record.get('code') or record.get('error')}")
            missed += 1
            continue
        if meta["kind"] == "learn":
            tally.op(record.get("source") == "learned", "unseen site not learned")
            learn_ms.append(latency_ms)
            continue
        batch = meta["batch"]
        pairs = tuple(tuple(node) for node in record.get("nodes", ()))
        texts = tuple(record.get("texts", ()))
        want_pairs, want_texts = batch.expected["xpath"]
        tally.op(record.get("source") == "site", "known site not served by site index")
        tally.op(pairs == want_pairs and texts == want_texts, "wrong extraction")
        apply_ms.append(latency_ms)
        served.append((meta, pairs, texts))
    lags_ms = sorted(lag * 1e3 for lag in outcome["lags"])
    lag_p95 = percentile(lags_ms, 95.0) if lags_ms else 0.0
    p, tail_ms = tail(apply_ms, cfg["tail_percentile"]) if apply_ms else (100.0, math.inf)
    grows = outcome["backlog_end"] > outcome["backlog_mid"] + cfg["backlog_slack"]
    summary = {
        "rate": step.rate,
        "requests": len(step.requests),
        "apply_p50_ms": median(apply_ms) if apply_ms else math.inf,
        "apply_tail_ms": tail_ms,
        "tail_percentile": p,
        "learn_p50_ms": median(learn_ms) if learn_ms else None,
        "apply_samples": len(apply_ms),
        "apply_ms": [round(value, 3) for value in apply_ms],
        "generator_lag_p95_ms": lag_p95,
        "backlog_mid": outcome["backlog_mid"],
        "backlog_end": outcome["backlog_end"],
        "valid": lag_p95 <= cfg["max_generator_lag_ms"],
        "backlog_grows": grows,
        "missed": missed,
    }
    # A failed or refused request misses any latency limit.
    summary["passes"] = (
        summary["valid"] and not grows and not missed
        and tail_ms <= cfg["latency_limit_ms"]
    )
    return summary, served


def max_rate(ladder: list[dict], limit_ms: float) -> float:
    """Highest sustainable rate: the last passing ladder rate, raised
    towards the first failing one by log-linear interpolation of the
    tail across the limit.  Invalid steps are skipped, not judged."""
    steps = [s for s in ladder if s["valid"]]
    best = None
    for index, step in enumerate(steps):
        if not step["passes"]:
            if best is None:
                return step["rate"] * min(1.0, limit_ms / step["apply_tail_ms"])
            low, high = steps[index - 1], step
            if high["backlog_grows"] or not math.isfinite(high["apply_tail_ms"]):
                return low["rate"]
            span = math.log(high["apply_tail_ms"]) - math.log(low["apply_tail_ms"])
            share = (math.log(limit_ms) - math.log(low["apply_tail_ms"])) / span if span > 0 else 0.0
            return low["rate"] + (high["rate"] - low["rate"]) * min(1.0, max(0.0, share))
        best = step["rate"]
    return best if best is not None else 0.0


def _metric_deltas(before: dict, after: dict) -> dict:
    """Counter and histogram-sum deltas between two metrics snapshots."""
    out = {}
    for name, family in after.items():
        for key, value in family.get("values", {}).items():
            old = before.get(name, {}).get("values", {}).get(key)
            if isinstance(value, dict):
                count = value["count"] - (old["count"] if old else 0)
                total = value["sum"] - (old["sum"] if old else 0.0)
                out[(name, key)] = (count, total)
            else:
                out[(name, key)] = value - (old or 0)
    return out


# -- the workload ----------------------------------------------------------------


class ServeSetup:
    def __init__(self, root, out_dir, seed, cfg, tag, trace_log=None) -> None:
        from fresh import build_apply_setup

        self.apply = build_apply_setup(
            seed, cfg["pool"], ("xpath",), unseen_sites=cfg["unseen_sites"]
        )
        registry_dir = os.path.join(out_dir, f"registry-{tag}")
        registry = WrapperRegistry(registry_dir)
        for name, artifact in self.apply.artifacts["xpath"].items():
            registry.put(sources_fingerprint(self.apply.learn_sources[name]), artifact)
        self.daemon = Daemon(root, out_dir, registry_dir, seed, cfg, tag, trace_log)


def run_serve(root: str, out_dir: str, seed: int, seconds: float, traced: bool,
              cfg: dict, setup: ServeSetup) -> dict:
    """Drive ``setup``'s daemon (and, when tracing, a second, traced
    daemon) and summarise the run."""
    tally = Tally()
    guard = FreshGuard(tally)
    cursor = {"id": 0, "batch": 0, "unseen": 0}
    result: dict = {"tally": tally}

    def drive(daemon, steps_plan):
        done = threading.Condition()
        connections = [Connection(daemon.address, done), Connection(daemon.address, done)]
        try:
            warm = build_step("warm", cfg["nominal_rps"], cfg["warmup_s"],
                              setup.apply, seed, cfg, cursor, guard)
            run_step(warm, connections, cfg["drain_timeout_s"])
            before = _snapshot(connections[1], cursor)
            summaries, served_all, pss = [], [], 0.0
            for name, rate, length in steps_plan:
                step = build_step(name, rate, length, setup.apply, seed, cfg,
                                  cursor, guard)
                scale = speed_scale()
                if name == "saturation":
                    outcome = run_saturation(step, connections, cfg["saturation_depth"],
                                             cfg["drain_timeout_s"])
                else:
                    outcome = run_step(step, connections, cfg["drain_timeout_s"])
                summary, served = judge_step(step, outcome, tally, cfg)
                summary["name"] = name
                summary["speed_scale"] = scale
                if name == "saturation":
                    summary["rate"] = outcome["throughput_rps"]
                    summary["pages_per_s"] = outcome["pages_per_s"]
                summaries.append(summary)
                served_all.append((step, outcome, served))
                pss = max(pss, daemon.pss_mb())
                if name == "nominal":
                    after = _snapshot(connections[1], cursor)
            return summaries, served_all, pss, before, after
        finally:
            for connection in connections:
                connection.close()

    nominal_s = seconds * cfg["nominal_share"]
    saturation_s = seconds * cfg["saturation_share"]
    ladder = cfg["ladder_rps"]
    each = (seconds - nominal_s - saturation_s) / len(ladder)
    plan = [
        ("nominal", cfg["nominal_rps"], nominal_s),
        ("saturation", cfg["saturation_max_rps"], saturation_s),
    ] + [(f"ladder-{rate:g}", rate, each) for rate in ladder]
    summaries, served_all, pss, before, after = drive(setup.daemon, plan)
    nominal = summaries[0]
    if not nominal["valid"]:
        tally.fail("generator fell behind in the nominal step")
    result["steps"] = summaries
    result["mem_mb"] = pss
    saturation = summaries[1]
    result["raw"] = {
        "pages_per_s": saturation["pages_per_s"],
        "latency_p50_ms": nominal["apply_p50_ms"],
        "latency_tail_ms": nominal["apply_tail_ms"],
    }
    result["scaled"] = {
        "pages_per_s": saturation["pages_per_s"] / saturation["speed_scale"],
        "latency_p50_ms": nominal["apply_p50_ms"] * nominal["speed_scale"],
        "latency_tail_ms": nominal["apply_tail_ms"] * nominal["speed_scale"],
    }
    result["tail_percentile"] = nominal["tail_percentile"]
    result["samples"] = nominal["apply_samples"]
    result["learn_p50_ms"] = nominal["learn_p50_ms"]
    result["generator_lag_ms"] = nominal["generator_lag_p95_ms"]
    result["backlog_end"] = nominal["backlog_end"]
    result["max_rps"] = max_rate(summaries[2:], cfg["latency_limit_ms"])

    # Serial gate and F1: replay every nominal-step apply in-process.
    step, outcome, served = served_all[0]
    serial_tracer = result["apply_tracer"] = Tracer()
    serial_counts = result["apply_counts"] = {}
    outputs, expected = [], []
    if traced:
        serial_tracer.watch_gc("apply")
    for meta, pairs, texts in served:
        batch = meta["batch"]
        artifact = setup.apply.artifacts["xpath"][batch.site]
        if traced:
            _, want_pairs, want_texts = apply_traced(
                serial_tracer, serial_counts, "xpath", artifact, batch.site,
                batch.key, meta["pages"],
            )
        else:
            _, want_pairs, want_texts = apply_plain(artifact, batch.site, meta["pages"])
        tally.op(pairs == want_pairs and texts == want_texts,
                 "serve apply differs from serial apply")
        outputs.append((pairs_to_ids(pairs), batch.gold))
        expected.append((pairs_to_ids(batch.expected["xpath"][0]), batch.gold))
    serial_tracer.unwatch_gc()
    fixed = macro_f1(expected)
    measured = macro_f1(outputs)
    if measured != fixed:
        tally.fail("F1 differs from set-up")
    result["f1"] = measured
    result["server"] = _server_layers(before, after, outcome, step)

    if traced:
        trace_log = os.path.join(out_dir, f"serve-trace-{seed}.ndjson")
        traced_setup = ServeSetup(root, out_dir, seed, cfg, "traced", trace_log)
        try:
            t_summaries, t_served, _, t_before, t_after = drive(
                traced_setup.daemon, [("nominal", cfg["nominal_rps"], nominal_s)]
            )
        finally:
            traced_setup.daemon.close()
        t_step, t_outcome, _ = t_served[0]
        result["overhead_frac"] = (
            t_summaries[0]["apply_p50_ms"] / nominal["apply_p50_ms"] - 1.0
        )
        result["server"] = _server_layers(t_before, t_after, t_outcome, t_step)
        result["coverage_frac"] = _trace_coverage(trace_log, t_step, t_outcome)
    result["fresh_inputs"] = len(guard.seen)
    return result


def _snapshot(connection: Connection, cursor: dict) -> dict:
    """The daemon's ``metrics`` and ``stats`` replies, taken together."""
    replies = {}
    for op in ("metrics", "stats"):
        cursor["id"] += 1
        replies[op] = connection.request({"op": op, "id": cursor["id"]})
    return replies


def _server_layers(before, after, outcome, step) -> dict:
    """Per-layer service numbers from two ``metrics``/``stats`` snapshots."""
    deltas = _metric_deltas(before["metrics"]["metrics"], after["metrics"]["metrics"])
    out = {}
    for stage in ("admission_wait", "resolve", "queue_wait", "hydrate",
                  "extract", "result_flush"):
        count, total = deltas.get(("server.stage_s", f"stage={stage}"), (0, 0.0))
        out[f"service.stage.{stage}_ms"] = total / count * 1e3 if count else 0.0
    count, total = deltas.get(("server.apply_latency_s", ""), (0, 0.0))
    server_apply_ms = total / count * 1e3 if count else 0.0
    metas = {rid: meta for _, _, rid, _, meta in step.requests}
    client = [
        (outcome["replies"][rid][0] - due) * 1e3
        for rid, _, due in outcome["sends"]
        if rid in outcome["replies"] and metas[rid]["kind"] == "apply"
    ]
    out["service.client_gap_ms"] = (
        sum(client) / len(client) - server_apply_ms if client and count else 0.0
    )
    ship_count, ship_total = deltas.get(("scheduler.ship_s", ""), (0, 0.0))
    out["scheduler.ship_ms"] = ship_total / ship_count * 1e3 if ship_count else 0.0
    out["registry.resolve_site_hits"] = deltas.get(("registry.resolve_hits", "source=site"), 0)
    out["registry.resolve_misses"] = deltas.get(("registry.resolve_misses", ""), 0)
    out["arena.rebuild_fallbacks"] = deltas.get(("arena.rebuild_fallbacks", ""), 0)
    out["ingest.submitted"] = sum(
        value for (name, _), value in deltas.items() if name == "ingest.submitted"
    )
    out["ingest.failed_results"] = deltas.get(("ingest.results", "ok=false"), 0)
    stats_before, stats_after = before["stats"], after["stats"]
    out["registry.learned"] = (
        stats_after["registry"]["learned"] - stats_before["registry"]["learned"]
    )
    out["scheduler.worker_deaths"] = (
        stats_after["server"]["worker_deaths"] - stats_before["server"]["worker_deaths"]
    )
    return out


def _trace_coverage(trace_log: str, step: Step, outcome: dict):
    """Share of client-side apply latency covered by the daemon's traced
    stages, over the nominal step's requests."""
    ids = {rid for _, _, rid, _, meta in step.requests if meta["kind"] == "apply"}
    staged = {}
    with open(trace_log, encoding="utf-8") as handle:
        for line in handle:
            event = json.loads(line)
            if event.get("event") == "trace" and event.get("id") in ids:
                staged[event["id"]] = event
    client_total = stage_total = 0.0
    for rid, _, due in outcome["sends"]:
        event = staged.get(rid)
        if event is None or rid not in outcome["replies"]:
            continue
        client_total += outcome["replies"][rid][0] - due
        stage_total += sum(stage["dur_s"] for stage in event["stages"])
    return stage_total / client_total if client_total else 0.0
