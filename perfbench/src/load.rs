//! Open-loop load over at most two connections.
//!
//! Each stream sends its requests on its own connection on a fixed
//! clock: request `k` is due at `start + first_due + k·interval`,
//! whether or not earlier answers came back, and its latency runs from
//! that due time to its answer, so time a request spends queued behind
//! a stall is charged to the daemon (no coordinated omission). The
//! daemon answers each connection in order, so the `k`-th line read on
//! a connection answers its `k`-th request.
//!
//! Two threads: this one sends on schedule and records how late each
//! send was; a reader thread multiplexes both connections on one
//! `Poller`, timestamps each answer as it arrives and checks it.

use polling::{Event, Events, Poller};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How one answer was judged.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// Answered, but not a success: an error line or a degraded answer.
    Failed(String),
    /// A success that differs from the expected bytes.
    Wrong(String),
}

/// Judge an answer. Arguments: request index within its stream, the
/// answer line, and how many write requests (ingests) had been sent
/// when the answer arrived.
pub type Check<'a> = Box<dyn Fn(usize, &str, usize) -> Verdict + Sync + 'a>;

/// One periodic request stream on its own connection.
pub struct Stream<'a> {
    pub first_due: Duration,
    pub interval: Duration,
    pub count: usize,
    /// The request line for index `k`.
    pub line: Box<dyn Fn(usize) -> &'a str + Sync + 'a>,
    pub check: Check<'a>,
    /// Writes (ingests) bump a shared counter before they are sent, so
    /// the reader can tell which model generation an answer may reflect.
    pub is_write: bool,
}

impl Stream<'_> {
    fn due(&self, start: Instant, k: usize) -> Instant {
        start + self.first_due + self.interval * k as u32
    }
}

/// Per-stream outcome.
#[derive(Debug, Default)]
pub struct StreamResult {
    /// Due time to answer, ms, in request order; NaN when unanswered.
    pub latency_ms: Vec<f64>,
    /// Send time minus due time, ms, in request order.
    pub lag_ms: Vec<f64>,
    pub failed: usize,
    pub wrong: usize,
    pub unanswered: usize,
    pub first_problem: Option<String>,
}

impl StreamResult {
    /// Latencies of answered requests, in request order.
    pub fn answered_ms(&self) -> Vec<f64> {
        self.latency_ms
            .iter()
            .copied()
            .filter(|v| !v.is_nan())
            .collect()
    }

    /// Append the outcome of a later run of the same stream.
    pub fn append(&mut self, later: StreamResult) {
        self.latency_ms.extend(later.latency_ms);
        self.lag_ms.extend(later.lag_ms);
        self.failed += later.failed;
        self.wrong += later.wrong;
        self.unanswered += later.unanswered;
        if self.first_problem.is_none() {
            self.first_problem = later.first_problem;
        }
    }
}

/// The outcome of one load run.
pub struct LoadResult {
    pub streams: Vec<StreamResult>,
    pub start: Instant,
    /// This process's CPU seconds over the run (both threads).
    pub gen_cpu_s: f64,
}

/// How long the reader waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(10);

/// Run `streams` (at most two) against the daemon at `addr`.
pub fn run(addr: &str, streams: &[Stream<'_>]) -> Result<LoadResult, String> {
    assert!(streams.len() <= 2, "the load uses at most two connections");
    let conns: Vec<TcpStream> = streams
        .iter()
        .map(|_| {
            let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            s.set_nodelay(true).ok();
            s.set_nonblocking(true).map_err(|e| e.to_string())?;
            Ok(s)
        })
        .collect::<Result<_, String>>()?;
    let readers: Vec<TcpStream> = conns
        .iter()
        .map(|s| s.try_clone().map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    let writes = AtomicUsize::new(0);
    let cpu0 = crate::procfs::cpu_s(std::process::id()).unwrap_or(0.0);
    let start = Instant::now() + Duration::from_millis(20);

    let (lags, results) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_answers(readers, streams, start, &writes));
        let lags = send_on_schedule(conns, streams, start, &writes);
        (lags, reader.join())
    });
    let mut results = results.map_err(|_| "load reader panicked".to_string())??;
    for (r, lag) in results.iter_mut().zip(lags?) {
        r.lag_ms = lag;
    }
    let cpu1 = crate::procfs::cpu_s(std::process::id()).unwrap_or(cpu0);
    Ok(LoadResult {
        streams: results,
        start,
        gen_cpu_s: cpu1 - cpu0,
    })
}

/// The sender: sleep until the next request is due, then send every
/// request that is due, one write per connection.
fn send_on_schedule(
    mut conns: Vec<TcpStream>,
    streams: &[Stream<'_>],
    start: Instant,
    writes: &AtomicUsize,
) -> Result<Vec<Vec<f64>>, String> {
    let mut next = vec![0usize; streams.len()];
    let mut lags: Vec<Vec<f64>> = streams.iter().map(|s| vec![f64::NAN; s.count]).collect();
    let mut buf = String::new();
    loop {
        let earliest = streams
            .iter()
            .enumerate()
            .filter(|(i, s)| next[*i] < s.count)
            .map(|(i, s)| s.due(start, next[i]))
            .min();
        let Some(due) = earliest else { break };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let now = Instant::now();
        for (i, s) in streams.iter().enumerate() {
            buf.clear();
            let first = next[i];
            while next[i] < s.count && s.due(start, next[i]) <= now {
                if s.is_write {
                    writes.fetch_add(1, Ordering::SeqCst);
                }
                buf.push_str((s.line)(next[i]));
                buf.push('\n');
                next[i] += 1;
            }
            if first == next[i] {
                continue;
            }
            write_all(&mut conns[i], buf.as_bytes())?;
            let sent = Instant::now();
            for (k, lag) in lags[i].iter_mut().enumerate().take(next[i]).skip(first) {
                *lag = sent
                    .saturating_duration_since(s.due(start, k))
                    .as_secs_f64()
                    * 1e3;
            }
        }
    }
    Ok(lags)
}

/// `write_all` on a nonblocking socket: retry while the kernel's send
/// buffer is full.
fn write_all(conn: &mut TcpStream, mut bytes: &[u8]) -> Result<(), String> {
    while !bytes.is_empty() {
        match conn.write(bytes) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("send: {e}")),
        }
    }
    Ok(())
}

/// The reader: time and judge every answer until all arrived or the
/// drain deadline passed.
fn read_answers(
    mut conns: Vec<TcpStream>,
    streams: &[Stream<'_>],
    start: Instant,
    writes: &AtomicUsize,
) -> Result<Vec<StreamResult>, String> {
    let poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    for (i, c) in conns.iter().enumerate() {
        poller
            .add(c, Event::readable(i))
            .map_err(|e| format!("poller add: {e}"))?;
    }
    let mut results: Vec<StreamResult> = streams
        .iter()
        .map(|s| StreamResult {
            latency_ms: vec![f64::NAN; s.count],
            ..StreamResult::default()
        })
        .collect();
    let mut got = vec![0usize; streams.len()];
    let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); streams.len()];
    let last_due = streams
        .iter()
        .filter(|s| s.count > 0)
        .map(|s| s.due(start, s.count - 1))
        .max()
        .unwrap_or(start);
    let deadline = last_due + DRAIN;
    let mut events = Events::new();
    let mut chunk = vec![0u8; 64 * 1024];
    while streams.iter().zip(&got).any(|(s, &g)| g < s.count) && Instant::now() < deadline {
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .map_err(|e| format!("poll: {e}"))?;
        for ev in events.iter() {
            let i = ev.key;
            let closed = loop {
                match conns[i].read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(n) => bufs[i].extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            };
            let now = Instant::now();
            let seen_writes = writes.load(Ordering::SeqCst);
            let mut from = 0;
            while let Some(nl) = bufs[i][from..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&bufs[i][from..from + nl]);
                from += nl + 1;
                let k = got[i];
                got[i] += 1;
                let r = &mut results[i];
                if k >= streams[i].count {
                    note(r, format!("unsolicited line: {line}"));
                    r.wrong += 1;
                    continue;
                }
                r.latency_ms[k] = now
                    .saturating_duration_since(streams[i].due(start, k))
                    .as_secs_f64()
                    * 1e3;
                match (streams[i].check)(k, &line, seen_writes) {
                    Verdict::Ok => {}
                    Verdict::Failed(why) => {
                        r.failed += 1;
                        note(r, why);
                    }
                    Verdict::Wrong(why) => {
                        r.wrong += 1;
                        note(r, why);
                    }
                }
            }
            bufs[i].drain(..from);
            if closed {
                let _ = poller.delete(&conns[i]);
                if got[i] < streams[i].count {
                    note(&mut results[i], "daemon closed the connection".into());
                }
            }
        }
    }
    for (r, (s, &g)) in results.iter_mut().zip(streams.iter().zip(&got)) {
        r.unanswered = s.count.saturating_sub(g);
        if r.unanswered > 0 {
            note(r, format!("{} requests never answered", r.unanswered));
        }
    }
    for c in &conns {
        let _ = poller.delete(c);
    }
    conns.clear();
    Ok(results)
}

fn note(r: &mut StreamResult, why: String) {
    if r.first_problem.is_none() {
        r.first_problem = Some(why);
    }
}

/// The verdict for an answer that should equal `expected` exactly.
pub fn exact(answer: &str, expected: &str) -> Verdict {
    if answer == expected {
        Verdict::Ok
    } else {
        match shape(answer) {
            Verdict::Ok => {
                Verdict::Wrong(format!("answer {answer} differs from expected {expected}"))
            }
            failed => failed,
        }
    }
}

/// The verdict for a success whose exact bytes are unknown: an error
/// line or a degraded answer fails, anything else is accepted.
pub fn shape(answer: &str) -> Verdict {
    if answer.starts_with(r#"{"ok":false"#) {
        Verdict::Failed(format!("error answer: {answer}"))
    } else if answer.contains(r#""degraded":true"#) {
        Verdict::Failed(format!("degraded answer: {answer}"))
    } else if !answer.starts_with(r#"{"ok":true"#) {
        Verdict::Wrong(format!("malformed answer: {answer}"))
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_lines_fail_and_flipped_bytes_are_wrong() {
        let good = r#"{"ok":true,"degraded":false,"recs":[{"item":3}]}"#;
        assert_eq!(exact(good, good), Verdict::Ok);
        let err = r#"{"ok":false,"error":"overloaded"}"#;
        assert!(matches!(exact(err, good), Verdict::Failed(_)));
        let degraded = r#"{"ok":true,"degraded":true,"reason":"deadline","recs":[]}"#;
        assert!(matches!(exact(degraded, good), Verdict::Failed(_)));
        let mut flipped = good.as_bytes().to_vec();
        let at = flipped.iter().position(|&b| b == b'3').unwrap();
        flipped[at] = b'4';
        let flipped = String::from_utf8(flipped).unwrap();
        assert!(matches!(exact(&flipped, good), Verdict::Wrong(_)));
        assert!(matches!(shape("garbage"), Verdict::Wrong(_)));
    }
}
