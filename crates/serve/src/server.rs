//! The dmac-serve server: admission control, dependency-aware
//! scheduling, plan cache, shared store, graceful drain.
//!
//! # Threading model
//!
//! * One **accept loop** (the thread [`Server::start`] spawns) polls a
//!   non-blocking listener and hands each connection to a thread.
//! * **Connection threads** read frames, decode requests, and either
//!   answer inline (explain / fetch / stats / shutdown — all read-only
//!   or instantaneous) or *admit* a `submit` into the bounded job
//!   queue. A full queue rejects with `busy` — backpressure, not
//!   unbounded buffering.
//! * A fixed **executor pool** pops admitted jobs and runs them. The
//!   worker that finishes a job writes the response directly to the
//!   client socket (a per-connection write mutex keeps frames intact).
//!   A job whose body panics ends like a failed one (writes released,
//!   out of the running set, a typed `exec` error) and its session, its
//!   state unknown, is replaced; the executor carries on.
//!
//! # Determinism under concurrency
//!
//! Executing programs concurrently must not change any result a
//! serialized replay of the same request log would produce. Two rules
//! deliver that:
//!
//! 1. **Conflicting jobs run in admission order.** A queued job is
//!    runnable only when its *name set* (load names + store names +
//!    its session id) is disjoint from every running job **and** every
//!    job admitted before it that is still queued. Jobs that touch the
//!    same matrix — or belong to the same session, whose cluster state
//!    is order-sensitive — therefore execute exactly as a serial
//!    replay would.
//! 2. **Disjoint jobs commute.** A program's results depend only on
//!    its script, its session's history, and the store entries it
//!    names; programs with disjoint name sets in different sessions
//!    cannot observe each other, so any interleaving is bit-identical
//!    to the serial order. (Byte-budget displacement is the one
//!    exception — under capacity pressure which entry goes depends on
//!    timing. A job in flight is safe from it: the matrices it was
//!    handed share their tiles by `Arc`, so displacing an entry takes
//!    nothing from a reader. It costs a later job a reload — with no
//!    disk tier a typed `unbound` — never a wrong result; and the
//!    smoke/bench configs leave the store unbounded.)
//!
//! Store-name collisions between in-flight programs are additionally
//! *rejected* (error code `conflict`) via the store's write-intent
//! claims: first writer wins, the loser retries — two concurrent
//! writers to one name is almost always a client bug, and rejecting
//! beats silently serializing surprise overwrites.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use dmac_analyze::{lint_script, Diagnostic};
use dmac_cluster::jsonin::Json;
use dmac_cluster::SocketOptions;
use dmac_core::json::{arr_of, escape, JsonObj};
use dmac_core::{CoreError, Session, SharedStore};
use dmac_lang::normalize::fnv1a;
use dmac_lang::program::MatrixOrigin;
use dmac_lang::Program;

use crate::cache::{cache_key, PlanCache};
use crate::protocol::{
    code, read_frame, write_frame, ProgramResult, Request, Response, WireDiagnostic,
};
use crate::{lock, wait};

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Simulated cluster workers per session.
    pub workers: usize,
    /// Run each session's cluster on real `dmac-workerd` processes over
    /// local TCP sockets instead of the in-process simulator. Results
    /// are proven byte-identical either way; this trades session-build
    /// latency (process launch) for a live conformance check on every
    /// operation. Each session launches `workers` `dmac-workerd`
    /// processes when it is first used and keeps them until the server
    /// shuts down — the session map drops an entry only after a job
    /// panics — so a server that has seen `S` sessions holds up to
    /// `S × workers` worker processes.
    pub real_cluster: bool,
    /// Local compute threads per session's cluster.
    pub local_threads: usize,
    /// Block size for every session.
    pub block_size: usize,
    /// Data seed shared by all sessions — identical scripts produce
    /// identical matrices regardless of which session runs them.
    pub seed: u64,
    /// Executor pool size (concurrent program executions).
    pub pool: usize,
    /// Admission queue bound; a full queue rejects with `busy`.
    pub queue_cap: usize,
    /// Shared-store byte budget (`None` = unbounded). Leave unbounded
    /// when replay determinism matters — see the module docs.
    pub store_capacity: Option<u64>,
    /// Plan cache entry bound.
    pub plan_cache_cap: usize,
    /// Durable data directory (`None` = in-memory only). With a
    /// directory, the store spills under capacity pressure instead of
    /// dropping, every completed `store` is checkpointed, submitted
    /// scripts are persisted, and a restarted server recovers its named
    /// matrices and re-warms its plan cache from disk.
    pub data_dir: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            real_cluster: false,
            local_threads: 2,
            block_size: 16,
            seed: 7,
            pool: 4,
            queue_cap: 64,
            store_capacity: None,
            plan_cache_cap: 128,
            data_dir: None,
        }
    }
}

/// One admitted `submit`.
struct Job {
    id: u64,
    session: String,
    program: Program,
    /// Original script text, persisted to the disk tier on plan-cache
    /// misses so a restarted server can re-warm the cache.
    script: String,
    /// Ordering footprint: load + store names, plus a session marker so
    /// same-session jobs never reorder.
    names: BTreeSet<String>,
    /// Store names claimed at admission; released when the job ends.
    store_names: Vec<String>,
    deadline: Option<Instant>,
    out: Arc<Mutex<TcpStream>>,
}

#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Name sets of currently executing jobs.
    running: Vec<(u64, BTreeSet<String>)>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    submitted: u64,
    completed: u64,
    exec_errors: u64,
    rejected_parse: u64,
    rejected_lint: u64,
    rejected_busy: u64,
    rejected_conflict: u64,
    rejected_deadline: u64,
    rejected_shutdown: u64,
    rejected_memory: u64,
}

/// Startup-recovery facts and runtime durability counters, reported by
/// the `stats` request.
#[derive(Debug, Default)]
struct DurabilityInfo {
    /// Store entries recovered from the latest valid snapshot.
    recovered: usize,
    /// Plans re-prepared from persisted scripts at startup.
    plans_warmed: usize,
    /// Snapshots published for completed `store` jobs (also the phase
    /// counter those snapshots are tagged with).
    checkpoints: AtomicU64,
    /// Checkpoint or script-persist failures (the job itself still
    /// succeeds — durability degrades, results don't).
    persist_errors: AtomicU64,
}

struct State {
    cfg: ServerConfig,
    store: SharedStore,
    cache: PlanCache,
    durability: DurabilityInfo,
    sessions: Mutex<HashMap<String, Arc<Mutex<Session>>>>,
    queue: Mutex<Queue>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    next_id: AtomicU64,
    counters: Mutex<Counters>,
    /// Rolling per-request trace (raw JSON objects, newest last).
    recent: Mutex<VecDeque<String>>,
    /// `ExecReport::to_json` of the most recently completed run.
    last_report: Mutex<Option<String>>,
    /// `Conformance::to_json` rows of the most recently completed run.
    last_conformance: Mutex<Option<String>>,
    started: Instant,
    /// Test hook, read under `cfg!(test)` only: the next job panics.
    panic_next_job: AtomicBool,
}

const RECENT_CAP: usize = 64;

impl State {
    /// `id`'s session, built on first use. One whose lock a panic
    /// poisoned is in an unknown state: it is replaced, never handed out.
    fn session(&self, id: &str) -> Result<Arc<Mutex<Session>>, CoreError> {
        let mut g = lock(&self.sessions);
        if let Some(s) = g.get(id).filter(|s| !s.is_poisoned()) {
            return Ok(Arc::clone(s));
        }
        let mut b = Session::builder()
            .workers(self.cfg.workers)
            .local_threads(self.cfg.local_threads)
            .block_size(self.cfg.block_size)
            .seed(self.cfg.seed)
            .store(self.store.clone());
        if self.cfg.real_cluster {
            b = b.socket_transport(SocketOptions::default());
        }
        // Launching worker processes can fail; surface it as this
        // request's error instead of poisoning the session map.
        let s = Arc::new(Mutex::new(b.try_build()?));
        g.insert(id.to_string(), Arc::clone(&s));
        Ok(s)
    }

    fn push_recent(&self, entry: String) {
        let mut g = lock(&self.recent);
        if g.len() == RECENT_CAP {
            g.pop_front();
        }
        g.push_back(entry);
    }
}

/// A running server. Dropping the handle does **not** stop it; send a
/// `shutdown` request (or call [`Server::shutdown_now`]) and then
/// [`Server::wait`].
pub struct Server {
    addr: SocketAddr,
    state: Arc<State>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind, spawn the accept loop and the executor pool, return.
    pub fn start(cfg: ServerConfig) -> std::io::Result<Server> {
        // Debug builds re-verify every plan the sessions produce.
        dmac_analyze::install_session_verifier();
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let durable = |e: CoreError| std::io::Error::other(e.to_string());
        let store = match (&cfg.data_dir, cfg.store_capacity) {
            (Some(dir), Some(b)) => SharedStore::with_capacity_and_disk(b, dir).map_err(durable)?,
            (Some(dir), None) => SharedStore::with_disk(dir).map_err(durable)?,
            (None, Some(b)) => SharedStore::with_capacity(b),
            (None, None) => SharedStore::new(),
        };
        // Restart recovery: named tenant matrices come back as spilled
        // stubs from the latest valid snapshot (torn or corrupt files
        // fall back to an older snapshot, or to an empty store); the
        // plan cache is re-warmed from the persisted scripts against
        // the recovered placements.
        let mut durability = DurabilityInfo::default();
        let cache = PlanCache::new(cfg.plan_cache_cap);
        if let Some(disk) = store.disk() {
            durability.recovered = store.recover().map_err(durable)?.len();
            let warm = Session::builder()
                .workers(cfg.workers)
                .local_threads(cfg.local_threads)
                .block_size(cfg.block_size)
                .seed(cfg.seed)
                .store(store.clone())
                .build();
            for script in disk.list_plans().map_err(durable)? {
                let Ok(parsed) = dmac_lang::parse_script(&script) else {
                    continue;
                };
                let key = cache_key(&parsed.program, &store);
                if let Ok(p) = warm.prepare(&parsed.program) {
                    cache.insert(key, Arc::new(p));
                    durability.plans_warmed += 1;
                }
            }
        }
        let state = Arc::new(State {
            cache,
            store,
            durability,
            sessions: Mutex::new(HashMap::new()),
            queue: Mutex::new(Queue::default()),
            queue_cv: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            counters: Mutex::new(Counters::default()),
            recent: Mutex::new(VecDeque::new()),
            last_report: Mutex::new(None),
            last_conformance: Mutex::new(None),
            started: Instant::now(),
            panic_next_job: AtomicBool::new(false),
            cfg,
        });

        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("dmac-serve-accept".into())
            .spawn(move || accept_loop(listener, accept_state))?;

        Ok(Server {
            addr,
            state,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger the same drain a `shutdown` request would.
    pub fn shutdown_now(&self) {
        begin_shutdown(&self.state);
    }

    /// Block until the server has drained and every thread exited.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn begin_shutdown(state: &State) {
    // Flag flips under the queue lock: admission re-checks it under
    // the same lock, so once the drain loop sees an empty queue no
    // further job can slip in.
    let _g = lock(&state.queue);
    state.shutting_down.store(true, Ordering::SeqCst);
    state.queue_cv.notify_all();
}

fn accept_loop(listener: TcpListener, state: Arc<State>) {
    let mut workers = Vec::new();
    for i in 0..state.cfg.pool.max(1) {
        let s = Arc::clone(&state);
        workers.push(
            std::thread::Builder::new()
                .name(format!("dmac-serve-exec-{i}"))
                .spawn(move || executor_loop(s))
                .expect("spawn executor"),
        );
    }

    let mut conns: Vec<(TcpStream, std::thread::JoinHandle<()>)> = Vec::new();
    while !state.shutting_down.load(Ordering::SeqCst) {
        // Reap finished connections: dropping the kept clone closes the
        // socket's last fd, so a long-lived server holds one fd and one
        // handle per *live* client, not per client ever served.
        conns.retain(|(_, h)| !h.is_finished());
        match listener.accept() {
            Ok((stream, _peer)) => {
                let reader = match stream.try_clone() {
                    Ok(r) => r,
                    Err(_) => continue,
                };
                let s = Arc::clone(&state);
                let out = Arc::new(Mutex::new(stream));
                let keep = lock(&out).try_clone();
                let h = std::thread::Builder::new()
                    .name("dmac-serve-conn".into())
                    .spawn(move || connection_loop(reader, out, s))
                    .expect("spawn connection");
                if let Ok(k) = keep {
                    conns.push((k, h));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }

    // Drain: wait until nothing is queued or running.
    {
        let mut q = lock(&state.queue);
        while !(q.jobs.is_empty() && q.running.is_empty()) {
            q = wait(&state.queue_cv, q);
        }
        state.queue_cv.notify_all(); // wake executors so they can exit
    }
    for h in workers {
        let _ = h.join();
    }
    // Parting snapshot: the drained store's final state is what a
    // restarted server recovers.
    checkpoint_store(&state);
    // Unblock connection readers and join them.
    for (stream, _) in &conns {
        let _ = stream.shutdown(std::net::Shutdown::Both);
    }
    for (_, h) in conns {
        let _ = h.join();
    }
}

fn executor_loop(state: Arc<State>) {
    loop {
        let job = {
            let mut q = lock(&state.queue);
            loop {
                if let Some(idx) = runnable_index(&q) {
                    let job = q.jobs.remove(idx).unwrap();
                    q.running.push((job.id, job.names.clone()));
                    break job;
                }
                if state.shutting_down.load(Ordering::SeqCst)
                    && q.jobs.is_empty()
                    && q.running.is_empty()
                {
                    return;
                }
                q = wait(&state.queue_cv, q);
            }
        };
        let _running = Running(&state, job.id);
        if catch_unwind(AssertUnwindSafe(|| execute_job(&state, &job))).is_err() {
            abandon_job(&state, &job);
        }
    }
}

/// Takes its job out of the running set when dropped: on every way out
/// of the executor's turn, an unwinding one included.
struct Running<'a>(&'a State, u64);

impl Drop for Running<'_> {
    fn drop(&mut self) {
        lock(&self.0.queue).running.retain(|(id, _)| *id != self.1);
        self.0.queue_cv.notify_all();
    }
}

/// First queued job whose name set is disjoint from every running job
/// and every earlier queued job — see the module docs.
fn runnable_index(q: &Queue) -> Option<usize> {
    'jobs: for (i, job) in q.jobs.iter().enumerate() {
        for (_, names) in &q.running {
            if !job.names.is_disjoint(names) {
                continue 'jobs;
            }
        }
        for earlier in q.jobs.iter().take(i) {
            if !job.names.is_disjoint(&earlier.names) {
                continue 'jobs;
            }
        }
        return Some(i);
    }
    None
}

fn send(out: &Arc<Mutex<TcpStream>>, resp: &Response) {
    let payload = resp.to_json();
    let _ = write_frame(&mut *lock(out), &payload);
}

/// An error response.
fn error(code: &str, message: impl Into<String>) -> Response {
    let (code, message) = (code.into(), message.into());
    Response::Error { code, message }
}

/// Diagnostics as they travel.
fn wire(diags: &[Diagnostic]) -> Vec<WireDiagnostic> {
    diags.iter().map(WireDiagnostic::from).collect()
}

/// Human-readable one-liner for an error response: the error-severity
/// headlines, semicolon-joined (falls back to everything when a caller
/// passes only warnings).
fn lint_summary(diags: &[Diagnostic]) -> String {
    let errors: Vec<String> = diags
        .iter()
        .filter(|d| d.severity == dmac_analyze::Severity::Error)
        .map(Diagnostic::headline)
        .collect();
    if errors.is_empty() {
        diags
            .iter()
            .map(Diagnostic::headline)
            .collect::<Vec<_>>()
            .join("; ")
    } else {
        errors.join("; ")
    }
}

fn err_code(e: &CoreError) -> &'static str {
    match e {
        CoreError::Unbound(_) => code::UNBOUND,
        CoreError::StoreConflict(_) => code::CONFLICT,
        _ => code::EXEC,
    }
}

fn recent_entry(id: u64, session: &str, fp: u64, plan_cached: bool, outcome: &str) -> String {
    JsonObj::new()
        .u64("request_id", id)
        .str("session", session)
        .str("fingerprint", &format!("{fp:016x}"))
        .bool("plan_cached", plan_cached)
        .str("outcome", outcome)
        .build()
}

/// `Some((peak, capacity))` when the prepared plan's memory certificate
/// breaks a bounded store's byte budget; `None` on unbounded stores or
/// plans that fit.
fn over_budget(state: &State, prep: &dmac_core::session::PreparedProgram) -> Option<(u64, u64)> {
    let cap = state.cfg.store_capacity?;
    let peak = prep.certificate().peak;
    (peak > cap).then_some((peak, cap))
}

/// Typed memory rejection (mirrors the deadline reject path).
fn reject_memory(state: &State, job: &Job, fp: u64, plan_cached: bool, peak: u64, cap: u64) {
    state.store.release_writes(job.id);
    lock(&state.counters).rejected_memory += 1;
    state.push_recent(recent_entry(
        job.id,
        &job.session,
        fp,
        plan_cached,
        "memory",
    ));
    send(
        &job.out,
        &error(
            code::MEMORY,
            format!(
                "request {}: certified peak resident {peak} bytes exceeds \
                 the store's {cap}-byte budget",
                job.id
            ),
        ),
    );
}

fn execute_job(state: &State, job: &Job) {
    let fp = job.program.fingerprint();
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            // Same error envelope as an execution fault (the PR-1
            // recovery machinery reports through CoreError too), with
            // its own code so clients can tell timeout from failure.
            state.store.release_writes(job.id);
            lock(&state.counters).rejected_deadline += 1;
            state.push_recent(recent_entry(job.id, &job.session, fp, false, "deadline"));
            send(
                &job.out,
                &error(
                    code::DEADLINE,
                    format!("request {} missed its deadline while queued", job.id),
                ),
            );
            return;
        }
    }

    let session = match state.session(&job.session) {
        Ok(s) => s,
        Err(e) => {
            finish_err(state, job, fp, err_code(&e), &e.to_string());
            return;
        }
    };
    let Ok(mut sess) = session.lock() else {
        let message = format!("request {}: its session was lost to a panic", job.id);
        finish_err(state, job, fp, code::EXEC, &message);
        return;
    };
    if cfg!(test) && state.panic_next_job.swap(false, Ordering::SeqCst) {
        panic!("request {}: injected panic", job.id);
    }

    let key = cache_key(&job.program, sess.shared_store());
    // One plan-or-replan path, walked at most twice: the cached plan, or
    // on a miss a fresh one (cached, its script persisted), through the
    // admission-time memory gate — with a bounded store, a plan whose
    // certified peak resident bytes exceed the byte budget is rejected
    // *before* execution, as a typed `memory` diagnostic carrying the
    // certified peak and the budget it breaks — and then run. A *cached*
    // plan whose placement assumptions no longer hold (a conflicting job
    // between key computation and execution is impossible by the ordering
    // rule, but belt-and-braces) is invalidated and the job goes round
    // once more with a fresh plan, which may certify a different peak and
    // so meets the gate again; a fresh plan's error is the job's.
    let mut cached = state.cache.lookup(&key);
    let outcome = loop {
        let plan_cached = cached.is_some();
        let prep = match cached.take() {
            Some(p) => p,
            None => match sess.prepare(&job.program) {
                Ok(p) => {
                    let p = Arc::new(p);
                    state.cache.insert(key.clone(), Arc::clone(&p));
                    persist_script(state, fp, &job.script);
                    p
                }
                Err(e) => break Err(e),
            },
        };
        if let Some((peak, cap)) = over_budget(state, &prep) {
            drop(sess);
            reject_memory(state, job, fp, plan_cached, peak, cap);
            return;
        }
        match sess.run_prepared(&prep) {
            Err(CoreError::StalePlan { .. }) if plan_cached => state.cache.invalidate(&key),
            ran => break ran.map(|report| (prep, plan_cached, report)),
        }
    };
    drop(sess);
    let (prep, plan_cached, report) = match outcome {
        Ok(done) => done,
        Err(e) => {
            finish_err(state, job, fp, err_code(&e), &e.to_string());
            return;
        }
    };

    let report_json = report.to_json();
    let conf = arr_of(report.trace.conformance().iter().map(|c| c.to_json()));
    let result = ProgramResult {
        request_id: job.id,
        plan_cached,
        stored: job.store_names.clone(),
        golden_fnv: fnv1a(&report.trace.golden_summary()),
        sim_sec: report.sim.total_sec(),
        certified_peak: Some(prep.certificate().peak),
        report: Json::parse(&report_json).expect("an ExecReport renders as JSON"),
    };
    *lock(&state.last_report) = Some(report_json);
    *lock(&state.last_conformance) = Some(conf);

    state.store.release_writes(job.id);
    if !job.store_names.is_empty() {
        checkpoint_store(state);
    }
    lock(&state.counters).completed += 1;
    state.push_recent(recent_entry(job.id, &job.session, fp, plan_cached, "ok"));
    send(&job.out, &Response::Result(result));
}

/// Persist a submitted script alongside its plan-cache insert so a
/// restarted server can re-warm the cache. Failure degrades durability,
/// never the job.
fn persist_script(state: &State, fp: u64, script: &str) {
    if let Some(disk) = state.store.disk() {
        if disk.put_plan(fp, script).is_err() {
            state
                .durability
                .persist_errors
                .fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Publish a durable snapshot of every named store entry (content
/// addressing makes unchanged entries free). Called after each job that
/// stored matrices, and once more at drain.
fn checkpoint_store(state: &State) {
    if state.store.disk().is_none() {
        return;
    }
    let names = state.store.names();
    if names.is_empty() {
        return;
    }
    let phase = state.durability.checkpoints.fetch_add(1, Ordering::SeqCst) + 1;
    if state.store.checkpoint(&names, phase).is_err() {
        state
            .durability
            .persist_errors
            .fetch_add(1, Ordering::Relaxed);
    }
}

fn finish_err(state: &State, job: &Job, fp: u64, code: &str, message: &str) {
    state.store.release_writes(job.id);
    lock(&state.counters).exec_errors += 1;
    state.push_recent(recent_entry(job.id, &job.session, fp, false, "error"));
    send(&job.out, &error(code, message));
}

/// A job whose body panicked ends as a failed one. Its session goes: what
/// state the panic left it in is unknown, so the next job builds a fresh one.
fn abandon_job(state: &State, job: &Job) {
    lock(&state.sessions).remove(&job.session);
    let message = format!("request {}: execution panicked", job.id);
    finish_err(state, job, job.program.fingerprint(), code::EXEC, &message);
}

fn connection_loop(mut reader: TcpStream, out: Arc<Mutex<TcpStream>>, state: Arc<State>) {
    loop {
        let payload = match read_frame(&mut reader) {
            Ok(Some(p)) => p,
            Ok(None) | Err(_) => return,
        };
        let req = match Request::from_json(&payload) {
            Ok(r) => r,
            Err(e) => {
                send(&out, &error(code::PROTO, e));
                continue;
            }
        };
        match req {
            Request::Submit {
                session,
                script,
                deadline_ms,
            } => handle_submit(&state, &out, session, &script, deadline_ms),
            Request::Explain { session, script } => {
                let report = lint_script(&script);
                let resp = match (&report.parsed, report.has_errors()) {
                    (None, _) => error(code::PARSE, lint_summary(&report.diagnostics)),
                    (Some(_), true) => error(code::LINT, lint_summary(&report.diagnostics)),
                    (Some(parsed), false) => match state.session(&session) {
                        Err(e) => error(err_code(&e), e.to_string()),
                        Ok(sess) => match sess.lock().map(|s| s.explain(&parsed.program)) {
                            // Warnings and infos ride along with the plan.
                            Ok(Ok(text)) => Response::Explain {
                                text,
                                diagnostics: wire(&report.diagnostics),
                            },
                            Ok(Err(e)) => error(err_code(&e), e.to_string()),
                            Err(_) => error(code::EXEC, "session lost to a panic"),
                        },
                    },
                };
                send(&out, &resp);
            }
            Request::Lint { script } => {
                let report = lint_script(&script);
                let ok = !report.has_errors();
                let diagnostics = wire(&report.diagnostics);
                send(&out, &Response::Lint { ok, diagnostics });
            }
            Request::FetchMatrix { name } => {
                let resp = match state.store.get(&name) {
                    Some(dist) => match dist.to_blocked() {
                        Ok(m) => {
                            let dense = m.to_dense();
                            let bits = dense.data().iter().map(|v| v.to_bits()).collect();
                            let (rows, cols) = (m.rows(), m.cols());
                            Response::Matrix {
                                name,
                                rows,
                                cols,
                                bits,
                            }
                        }
                        Err(e) => error(code::EXEC, e.to_string()),
                    },
                    None => error(
                        code::UNBOUND,
                        format!("matrix '{name}' is not in the store"),
                    ),
                };
                send(&out, &resp);
            }
            Request::Stats => send(&out, &Response::Stats(stats_doc(&state))),
            Request::Shutdown => {
                // Ack before flipping the flag: once the drain starts it
                // closes lingering connections, which can race ahead of a
                // not-yet-written reply and the client then sees a bare
                // connection close instead of its Ok.
                send(&out, &Response::Ok);
                begin_shutdown(&state);
            }
        }
    }
}

fn handle_submit(
    state: &Arc<State>,
    out: &Arc<Mutex<TcpStream>>,
    session: String,
    script: &str,
    deadline_ms: Option<u64>,
) {
    // Admission lint: parse failures keep their dedicated code; any
    // other error-severity diagnostic rejects before planning. Warnings
    // and infos never block a submit.
    let report = lint_script(script);
    let parsed = match (report.parsed, report.diagnostics) {
        (None, diags) => {
            lock(&state.counters).rejected_parse += 1;
            send(out, &error(code::PARSE, lint_summary(&diags)));
            return;
        }
        (Some(_), diags) if dmac_analyze::has_errors(&diags) => {
            lock(&state.counters).rejected_lint += 1;
            send(out, &error(code::LINT, lint_summary(&diags)));
            return;
        }
        (Some(p), _) => p,
    };
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);

    let mut names: BTreeSet<String> = BTreeSet::new();
    let mut store_names = Vec::new();
    for decl in parsed.program.matrices() {
        if matches!(decl.origin, MatrixOrigin::Load) {
            names.insert(decl.name.clone());
        }
    }
    for (_, stored) in parsed.program.outputs() {
        if let Some(n) = stored {
            names.insert(n.clone());
            store_names.push(n.clone());
        }
    }
    store_names.sort();
    store_names.dedup();
    // Session marker: `\n` cannot appear in a matrix name (the script
    // grammar forbids it), so this can never collide.
    names.insert(format!("\nsession:{session}"));

    if let Err(e) = state.store.claim_writes(&store_names, id) {
        lock(&state.counters).rejected_conflict += 1;
        send(out, &error(code::CONFLICT, e.to_string()));
        return;
    }

    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let job = Job {
        id,
        session,
        program: parsed.program,
        script: script.to_string(),
        names,
        store_names,
        deadline,
        out: Arc::clone(out),
    };

    let mut q = lock(&state.queue);
    if state.shutting_down.load(Ordering::SeqCst) {
        drop(q);
        state.store.release_writes(id);
        lock(&state.counters).rejected_shutdown += 1;
        send(out, &error(code::SHUTTING_DOWN, "server is draining"));
        return;
    }
    if q.jobs.len() >= state.cfg.queue_cap {
        let depth = q.jobs.len();
        drop(q);
        state.store.release_writes(id);
        lock(&state.counters).rejected_busy += 1;
        send(
            out,
            &error(code::BUSY, format!("queue full ({depth} queued)")),
        );
        return;
    }
    q.jobs.push_back(job);
    state.queue_cv.notify_all();
    drop(q);
    lock(&state.counters).submitted += 1;
}

/// The stats document: the members of a `stats` response.
fn stats_doc(state: &State) -> Json {
    let (depth, active) = {
        let q = lock(&state.queue);
        (q.jobs.len(), q.running.len())
    };
    let c = *lock(&state.counters);
    let cache = state.cache.stats();
    let store = state.store.stats();
    let sessions = lock(&state.sessions).len();
    let recent = {
        let g = lock(&state.recent);
        arr_of(g.iter().cloned())
    };
    let last_report = lock(&state.last_report).clone();
    let last_report = last_report.unwrap_or_else(|| "null".into());
    let last_conf = lock(&state.last_conformance).clone();
    let last_conf = last_conf.unwrap_or_else(|| "null".into());

    let counters = JsonObj::new()
        .u64("submitted", c.submitted)
        .u64("completed", c.completed)
        .u64("exec_errors", c.exec_errors)
        .u64("rejected_parse", c.rejected_parse)
        .u64("rejected_lint", c.rejected_lint)
        .u64("rejected_busy", c.rejected_busy)
        .u64("rejected_conflict", c.rejected_conflict)
        .u64("rejected_deadline", c.rejected_deadline)
        .u64("rejected_shutdown", c.rejected_shutdown)
        .u64("rejected_memory", c.rejected_memory)
        .build();
    let plan_cache = JsonObj::new()
        .u64("hits", cache.hits)
        .u64("misses", cache.misses)
        .u64("evictions", cache.evictions)
        .u64("entries", cache.entries as u64)
        .f64("hit_rate", cache.hit_rate())
        .build();
    let store_obj = {
        let mut o = JsonObj::new()
            .u64("entries", store.entries as u64)
            .u64("bytes", store.bytes)
            .u64("inserts", store.inserts)
            .u64("replaced", store.replaced)
            .u64("evictions", store.evictions)
            .u64("dropped", store.dropped)
            .u64("conflicts", store.conflicts)
            .u64("spilled", store.spilled as u64)
            .u64("spilled_bytes", store.spilled_bytes)
            .u64("spills", store.spills)
            .u64("spill_bytes", store.spill_bytes)
            .u64("loads", store.loads)
            .u64("load_bytes", store.load_bytes)
            .u64("load_failures", store.load_failures)
            .u64("snapshots", store.snapshots);
        o = match store.capacity {
            Some(cap) => o.u64("capacity", cap),
            None => o.raw("capacity", "null"),
        };
        let names = arr_of(state.store.names().iter().map(|n| escape(n)));
        o.raw("names", &names).build()
    };
    let durability = match &state.cfg.data_dir {
        Some(dir) => {
            let mut o = JsonObj::new()
                .bool("enabled", true)
                .str("data_dir", dir)
                .u64("recovered", state.durability.recovered as u64)
                .u64("plans_warmed", state.durability.plans_warmed as u64)
                .u64(
                    "checkpoints",
                    state.durability.checkpoints.load(Ordering::Relaxed),
                )
                .u64(
                    "persist_errors",
                    state.durability.persist_errors.load(Ordering::Relaxed),
                );
            o = match state.store.latest_snapshot() {
                Some((seq, phase)) => o.u64("snapshot_seq", seq).u64("snapshot_phase", phase),
                None => o.raw("snapshot_seq", "null").raw("snapshot_phase", "null"),
            };
            o.build()
        }
        None => JsonObj::new().bool("enabled", false).build(),
    };

    let doc = JsonObj::new()
        .f64("uptime_sec", state.started.elapsed().as_secs_f64())
        .bool("shutting_down", state.shutting_down.load(Ordering::SeqCst))
        .u64("queue_depth", depth as u64)
        .u64("active", active as u64)
        .u64("sessions", sessions as u64)
        .u64("pool", state.cfg.pool as u64)
        .u64("queue_cap", state.cfg.queue_cap as u64)
        .raw("counters", &counters)
        .raw("plan_cache", &plan_cache)
        .raw("store", &store_obj)
        .raw("durability", &durability)
        .raw("recent", &recent)
        .raw("last_report", &last_report)
        .raw("last_conformance", &last_conf)
        .build();
    Json::parse(&doc).expect("the stats document renders as JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};

    /// A job whose body panics wedges nothing: its client gets a typed
    /// `exec` error, `stats` still answers and counts it, the next job on
    /// the same names — in the same session — runs, and `shutdown` drains.
    /// The conversation runs on its own thread, so a server that wedges
    /// fails the test at the deadline instead of hanging it.
    #[test]
    fn a_panicking_job_wedges_nothing() {
        let cfg = ServerConfig {
            pool: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(cfg).expect("server starts");
        server.state.panic_next_job.store(true, Ordering::SeqCst);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut client = Client::connect(server.addr()).unwrap();
            let script = "B = random(B, 32, 32)\nC = B %*% B\nstore(C)\n";
            match client.submit("s", script, None) {
                Err(ClientError::Server {
                    code: kind,
                    message,
                }) => {
                    assert_eq!(kind, code::EXEC);
                    assert!(message.contains("execution panicked"), "{message}");
                }
                other => panic!("a panicking job must answer a typed error: {other:?}"),
            }
            let stats = client.stats().expect("stats answers after a panic");
            let field = |path: &[&str]| {
                let leaf = path.iter().try_fold(&stats, |j, name| j.get(name));
                leaf.and_then(Json::as_u64)
            };
            assert_eq!(field(&["counters", "exec_errors"]), Some(1));
            assert_eq!(field(&["sessions"]), Some(0), "its session was dropped");

            // Same session, same names: runnable only if the panicked job
            // left the running set.
            let done = client.submit("s", script, None).expect("the next job runs");
            assert_eq!(done.stored, ["C"]);
            client.shutdown().unwrap();
            server.wait();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(60))
            .expect("answered, ran the next job and drained");
    }
}
