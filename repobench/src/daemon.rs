//! The `fetch-serve` daemon as a separate process: start it on a
//! per-run socket and a fresh store directory, talk to it over one
//! persistent connection, read its peak memory and CPU time from
//! `/proc/<pid>`, and shut it down cleanly.

use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long the daemon may take to start listening or to exit.
const START_TIMEOUT: Duration = Duration::from_secs(30);
/// A reply slower than this means the daemon is wedged: the run fails
/// instead of hanging.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemon worker threads. A connection holds its worker until it closes:
/// one worker serves the load generator's connection, the other the
/// fresh connections of the connect probe. Two is at most the CPU count
/// of any machine this benchmark is sized for, and below the daemon's
/// default of 4.
const JOBS: usize = 2;
/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, 100/s.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU time (user + system) of process `pid`, in milliseconds.
pub fn cpu_ms(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // Fields after the parenthesized command name; utime and stime are
    // the 14th and 15th fields of the whole line.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or_else(|| io::Error::other("malformed /proc stat"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .map(|v| v as f64)
            .ok_or_else(|| io::Error::other("malformed /proc stat"))
    };
    Ok((tick(11)? + tick(12)?) * 1000.0 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// One client connection: request lines out, reply lines back.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, stream),
        })
    }

    /// Sends `line` (which must end in `\n`) and reads one reply line
    /// into `reply`. A closed connection is an error, never a hang.
    pub fn call(&mut self, line: &[u8], reply: &mut String) -> io::Result<()> {
        self.writer.write_all(line)?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        Ok(())
    }
}

/// A running daemon plus the connection the load generator holds.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    pub conn: Conn,
}

impl Daemon {
    /// Starts `bin` on `<dir>/d.sock` with the store in `<dir>/store`
    /// and waits until it accepts a connection. `dir` must be fresh.
    pub fn start(bin: &Path, dir: &Path, cache_capacity: usize) -> io::Result<Daemon> {
        std::fs::create_dir_all(dir)?;
        let socket = dir.join("d.sock");
        let log = std::fs::File::create(dir.join("daemon.log"))?;
        let mut child = Command::new(bin)
            .arg("daemon")
            .arg("--socket")
            .arg(&socket)
            .arg("--store")
            .arg(dir.join("store"))
            .arg("--cache-capacity")
            .arg(cache_capacity.to_string())
            .arg("--jobs")
            .arg(JOBS.to_string())
            .arg("--log-level")
            .arg("warn")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()?;
        let t0 = Instant::now();
        let conn = loop {
            match Conn::connect(&socket) {
                Ok(conn) => break conn,
                Err(e) => {
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::other(format!(
                            "daemon exited during start-up ({status})"
                        )));
                    }
                    if t0.elapsed() > START_TIMEOUT {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("daemon never listened: {e}"),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        };
        Ok(Daemon {
            child,
            socket,
            conn,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// Sends `shutdown` and waits for the process to exit with success.
    pub fn shutdown(&mut self) -> io::Result<()> {
        let mut reply = String::new();
        self.conn.call(b"{\"cmd\":\"shutdown\"}\n", &mut reply)?;
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            if t0.elapsed() > START_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not exit after shutdown",
                ));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
}

impl Drop for Daemon {
    /// A daemon left running by an error path is killed and reaped.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
