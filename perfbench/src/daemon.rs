//! The daemon child process and a blocking line client.
//!
//! The daemon is this executable re-invoked with [`DAEMON_ARG`]: the
//! child runs `profit-mining serve <flags>` through the CLI library, so
//! it takes exactly the code path of the real command, in a process of
//! its own whose CPU and memory the benchmark reads from `/proc`.

use crate::procfs;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// First argument that turns this executable into the daemon child.
pub const DAEMON_ARG: &str = "__daemon";

/// Prefix of the child's last stderr line, which gives its `VmHWM`.
const PEAK_RSS_TAG: &str = "peak_rss_mb=";

/// Entry point of the daemon child: `argv` is a `profit-mining` command
/// line. Returns the process exit code.
pub fn child_main(argv: &[String]) -> i32 {
    match pm_cli::run(argv) {
        Ok(summary) => {
            eprintln!("{summary}");
            if let Some(mb) = procfs::peak_rss_mb(std::process::id()) {
                eprintln!("{PEAK_RSS_TAG}{mb}");
            }
            0
        }
        Err(e) => {
            eprintln!("daemon: {e}");
            1
        }
    }
}

/// The serving flags every daemon runs with: 2 compute workers, 1
/// reactor thread, batches of 32, and no idle reaping during a run.
const SERVE_FLAGS: [&str; 13] = [
    "serve",
    "--addr",
    "127.0.0.1:0",
    "--workers",
    "2",
    "--io-threads",
    "1",
    "--batch",
    "32",
    "--queue",
    "8",
    "--read-timeout-ms",
    "300000",
];

pub const PING: &str = r#"{"op":"ping"}"#;

/// Run the `profit-mining` command line `argv` to completion in a child
/// process and return the child's peak resident set size, MB.
pub fn peak_rss_of(argv: &[String]) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg(DAEMON_ARG)
        .args(argv)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("spawn child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!("child {argv:?} failed ({}): {stderr}", out.status));
    }
    stderr
        .lines()
        .find_map(|l| l.strip_prefix(PEAK_RSS_TAG)?.parse().ok())
        .ok_or_else(|| format!("child {argv:?} reported no peak: {stderr}"))
}

/// A running daemon child. Dropping it kills the process and waits.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    log: PathBuf,
}

impl Daemon {
    /// Start `profit-mining serve <SERVE_FLAGS> <flags>` with its address
    /// file and log in `dir`, and wait for the answer to its first
    /// `ping`, which is returned with a connected client.
    pub fn start(dir: &Path, flags: &[String]) -> Result<(Daemon, Client, String), String> {
        let addr_file = dir.join("addr");
        let mut argv: Vec<String> = SERVE_FLAGS.map(String::from).to_vec();
        argv.push("--addr-file".into());
        argv.push(addr_file.display().to_string());
        argv.extend_from_slice(flags);
        let d = Daemon::spawn(&argv, &addr_file, &dir.join("daemon.log"))?;
        let mut c = Client::connect(&d.addr)?;
        let pong = c.call(PING)?;
        Ok((d, c, pong))
    }

    /// Spawn `profit-mining <argv>` and wait until it publishes its
    /// address in `addr_file` (which `argv` must name).
    fn spawn(argv: &[String], addr_file: &Path, log: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(addr_file);
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let child = Command::new(exe)
            .arg(DAEMON_ARG)
            .args(argv)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut d = Daemon {
            child: Some(child),
            addr: String::new(),
            log: log.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Ok(text) = std::fs::read_to_string(addr_file) {
                if text.ends_with('\n') {
                    d.addr = text.trim().to_string();
                    return Ok(d);
                }
            }
            let child = d.child.as_mut().expect("child is set until drop");
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!(
                    "daemon exited at startup ({status}): {}",
                    d.log_text()
                ));
            }
            if Instant::now() > deadline {
                return Err("daemon never published its address".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        procfs::peak_rss_mb(self.pid())
    }

    pub fn cpu_s(&self) -> Option<f64> {
        procfs::cpu_s(self.pid())
    }

    fn log_text(&self) -> String {
        std::fs::read_to_string(&self.log).unwrap_or_default()
    }

    /// Ask the daemon to stop over `client`, wait for it, and check it
    /// exited cleanly without a panic.
    pub fn shutdown(mut self, client: &mut Client) -> Result<(), String> {
        let bye = client.call(r#"{"op":"shutdown"}"#)?;
        if !bye.starts_with(r#"{"ok":true"#) {
            return Err(format!("shutdown answered {bye}"));
        }
        let mut child = self.child.take().expect("child is set until drop");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(s)) => break s,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit after shutdown".into());
                }
            }
        };
        let log = self.log_text();
        if !status.success() || log.contains("panicked") {
            return Err(format!("daemon exited dirty ({status}): {log}"));
        }
        Ok(())
    }

    /// SIGKILL the daemon and reap it.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One blocking request/response connection.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn connect(addr: &str) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Client {
            reader,
            writer: stream,
        })
    }

    /// Send one request line and read its answer (without the newline).
    pub fn call(&mut self, line: &str) -> Result<String, String> {
        Ok(self.pipeline(&[line])?.remove(0))
    }

    /// Send the lines back to back, then read one answer per line.
    pub fn pipeline<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<Vec<String>, String> {
        let mut out = Vec::with_capacity(lines.len());
        // Bounded chunks keep both directions inside the socket buffers.
        for chunk in lines.chunks(32) {
            let mut buf = String::new();
            for l in chunk {
                buf.push_str(l.as_ref());
                buf.push('\n');
            }
            self.writer
                .write_all(buf.as_bytes())
                .map_err(|e| format!("send: {e}"))?;
            for _ in chunk {
                let mut answer = String::new();
                match self.reader.read_line(&mut answer) {
                    Ok(0) => return Err("daemon closed the connection".into()),
                    Ok(_) => out.push(answer.trim_end_matches('\n').to_string()),
                    Err(e) => return Err(format!("receive: {e}")),
                }
            }
        }
        Ok(out)
    }
}
