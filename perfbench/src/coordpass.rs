//! One coordinated pass: an in-process `Coordinator` on a loopback
//! `CoordServer`, two single-threaded `run_worker` clients over
//! `TcpTransport`, each wrapped in a timing [`Transport`].

use crate::pass::{outcome_digest, Pass};
use crate::workloads::Workload;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xsched_core::{
    run_worker, CoordConfig, CoordServer, Coordinator, Response, SweepExecutor, SweepObs,
    TcpTransport, Transport, WorkerConfig,
};

/// Worker clients per coordinated pass.
pub const WORKERS: usize = 2;

/// Seconds the server keeps answering after the last outcome lands, so
/// workers polling for `done` are not met with a closed port. Not part
/// of the pass's wall time.
const LINGER_S: f64 = 0.5;

/// The request kinds of the coordinator protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpcKind {
    /// Handshake.
    Hello,
    /// Ask for a task.
    Claim,
    /// Lease extension (sent from the worker's side thread).
    Heartbeat,
    /// Hand an outcome back.
    Record,
    /// Sign-off.
    Bye,
}

/// One timed round trip.
#[derive(Debug, Clone, Copy)]
pub struct Rpc {
    /// Request kind.
    pub kind: RpcKind,
    /// Seconds since the pass started, at send.
    pub start: f64,
    /// Seconds since the pass started, at reply (or failure).
    pub end: f64,
    /// The task a `claim` was leased, or a `record` carried.
    pub task: Option<usize>,
}

/// A [`Transport`] that times every call of the transport it wraps and
/// notes which task each lease and record concerns.
pub struct TimedTransport<T> {
    inner: T,
    origin: Instant,
    log: Mutex<Vec<Rpc>>,
}

impl<T: Transport> TimedTransport<T> {
    /// Wrap `inner`; times are seconds since `origin`.
    pub fn new(inner: T, origin: Instant) -> TimedTransport<T> {
        TimedTransport {
            inner,
            origin,
            log: Mutex::new(Vec::with_capacity(512)),
        }
    }

    /// The calls made so far, in the order each thread sent them.
    pub fn into_log(self) -> Vec<Rpc> {
        self.log.into_inner().expect("rpc log lock poisoned")
    }
}

fn kind_of(line: &str) -> Option<RpcKind> {
    Some(match line.split_whitespace().next()? {
        "hello" => RpcKind::Hello,
        "claim" => RpcKind::Claim,
        "heartbeat" => RpcKind::Heartbeat,
        "record" => RpcKind::Record,
        "bye" => RpcKind::Bye,
        _ => return None,
    })
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn call_raw(&self, line: &str) -> Result<String, String> {
        let start = self.origin.elapsed().as_secs_f64();
        let result = self.inner.call_raw(line);
        let end = self.origin.elapsed().as_secs_f64();
        let kind = kind_of(line).expect("the worker only sends protocol requests");
        let task = match (kind, &result) {
            (RpcKind::Claim, Ok(resp)) => match Response::decode(resp.trim_end()) {
                Ok(Response::Lease { task }) => Some(task),
                _ => None,
            },
            (RpcKind::Record, _) => line.split_whitespace().nth(3).and_then(|t| t.parse().ok()),
            _ => None,
        };
        self.log.lock().expect("rpc log lock poisoned").push(Rpc {
            kind,
            start,
            end,
            task,
        });
        result
    }
}

/// A coordinated pass: the shared [`Pass`] view plus the wire record.
#[derive(Debug, Clone)]
pub struct CoordPass {
    /// Outcomes, cell times (lease → record), set-up and wall time.
    pub pass: Pass,
    /// Every worker's timed calls.
    pub rpcs: Vec<Vec<Rpc>>,
    /// Client-side reconnects summed over workers.
    pub reconnects: u64,
    /// `coord.leases_expired` from the coordinator's counters.
    pub leases_expired: u64,
    /// Worker errors, if any (each fails the pass's missing cells).
    pub errors: Vec<String>,
}

/// Serve `w`'s plan once to two loopback workers. Set-up runs from the
/// plan build to the first lease a worker receives; the pass runs from
/// there until both workers have signed off.
pub fn coord_pass(w: Workload, seed: u64, epoch: u64) -> CoordPass {
    let t0 = Instant::now();
    let plan = w.plan(seed);
    let n = plan.task_count();
    let server = CoordServer::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = server
        .local_addr()
        .expect("bound socket has an address")
        .to_string();
    let obs = Arc::new(SweepObs::new());
    let mut coord =
        Coordinator::new(epoch, &plan, CoordConfig::default()).with_obs(Arc::clone(&obs));
    let transports: Vec<TimedTransport<TcpTransport>> = (0..WORKERS)
        .map(|_| TimedTransport::new(TcpTransport::new(&addr, Duration::from_secs(5)), t0))
        .collect();

    let (results, served) = std::thread::scope(|s| {
        let server_thread = s.spawn(|| server.serve_sweep(&mut coord, LINGER_S));
        let workers: Vec<_> = transports
            .iter()
            .enumerate()
            .map(|(i, transport)| {
                let plan = &plan;
                s.spawn(move || {
                    let exec = SweepExecutor::serial();
                    let config = WorkerConfig::new(&format!("bench-w{i}"));
                    let r = run_worker(plan, epoch, &exec, transport, &config);
                    (r, t0.elapsed().as_secs_f64())
                })
            })
            .collect();
        let results: Vec<_> = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect();
        (
            results,
            server_thread.join().expect("server thread panicked"),
        )
    });

    let mut errors: Vec<String> = Vec::new();
    if let Err(e) = served {
        errors.push(format!("server: {e}"));
    }
    let mut reconnects = 0;
    let mut done_at: f64 = 0.0;
    for (r, at) in &results {
        done_at = done_at.max(*at);
        match r {
            Ok(summary) => reconnects += summary.reconnects,
            Err(e) => errors.push(e.to_string()),
        }
    }
    let rpcs: Vec<Vec<Rpc>> = transports
        .into_iter()
        .map(TimedTransport::into_log)
        .collect();
    let first_lease = rpcs
        .iter()
        .flatten()
        .filter(|r| r.kind == RpcKind::Claim && r.task.is_some())
        .map(|r| r.end)
        .fold(f64::INFINITY, f64::min);
    let first_lease = if first_lease.is_finite() {
        first_lease
    } else {
        done_at
    };

    let shard = coord.into_shard_result();
    let mut pass = Pass::empty(n, first_lease, done_at - first_lease);
    for (t, o) in shard.entries {
        pass.digests[t] = Some(outcome_digest(&o));
        pass.outcomes[t] = Some(o);
    }
    for log in &rpcs {
        for (t, s) in cell_spans(log) {
            pass.cell_s[t] = s.1 - s.0;
        }
    }
    CoordPass {
        pass,
        rpcs,
        reconnects,
        leases_expired: obs.registry().counter("coord.leases_expired"),
        errors,
    }
}

/// A worker's cells as `(task, (start, end))`: from the reply that leased
/// the task to the send of the record that returned it.
pub fn cell_spans(log: &[Rpc]) -> Vec<(usize, (f64, f64))> {
    let mut out = Vec::new();
    let mut open: Option<(usize, f64)> = None;
    for r in log {
        match r.kind {
            RpcKind::Claim => {
                if let Some(t) = r.task {
                    open = Some((t, r.end));
                }
            }
            RpcKind::Record => {
                if let (Some((t, start)), Some(rt)) = (open, r.task) {
                    if t == rt {
                        out.push((t, (start, r.start)));
                        open = None;
                    }
                }
            }
            _ => {}
        }
    }
    out
}

/// Check the RPC floor: every task costs at least a claim and a record,
/// and every worker at least a hello and a bye. Returns the shortfall
/// message when the log has fewer calls than that.
pub fn rpc_floor_error(cp: &CoordPass) -> Option<String> {
    let tasks = cp.pass.digests.len();
    let total: usize = cp.rpcs.iter().map(Vec::len).sum();
    let floor = 2 * tasks + 2 * cp.rpcs.len();
    (total < floor).then(|| format!("only {total} rpcs for {tasks} tasks (floor {floor})"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsched_core::Request;

    #[test]
    fn request_kinds_parse_from_wire_lines() {
        let hello = Request::Hello {
            worker: "w".into(),
            epoch: 0,
            fingerprint: 1,
            task_count: 1,
        };
        assert_eq!(kind_of(&hello.encode()), Some(RpcKind::Hello));
        assert_eq!(kind_of("garbage"), None);
    }

    #[test]
    fn cells_run_from_lease_reply_to_record_send() {
        let rpc = |kind, start, end, task| Rpc {
            kind,
            start,
            end,
            task,
        };
        let log = [
            rpc(RpcKind::Hello, 0.0, 0.1, None),
            rpc(RpcKind::Claim, 0.1, 0.2, Some(4)),
            rpc(RpcKind::Heartbeat, 0.5, 0.6, None),
            rpc(RpcKind::Record, 1.0, 1.1, Some(4)),
            rpc(RpcKind::Claim, 1.1, 1.2, None),
        ];
        assert_eq!(cell_spans(&log), vec![(4, (0.2, 1.0))]);
    }
}
