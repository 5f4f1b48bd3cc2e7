//! Every measured run executes in a child process under a watchdog.
//!
//! Sizing this benchmark found that a pool-mode run can — about once
//! in forty `tune_small` runs on the 2-thread reference box — die of
//! SIGSEGV or block forever with every thread parked: memory
//! unsafety somewhere under `pb_runtime::pool`'s raw-pointer batch
//! state (a finished batch's stack frame is still touched by the
//! worker that ran its last job). That is a defect for a later issue;
//! a benchmark that sometimes never returns cannot gate anything in
//! the meantime. So a run that crashes or overruns its deadline is
//! killed, reported on stderr, and started again; the result line
//! always comes from one complete, uninterrupted run.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The flag that marks the measuring child.
pub const IN_PROCESS: &str = "--in-process";

const MAX_ATTEMPTS: u32 = 3;
/// No new attempt starts later than this after the first one did, so
/// the whole command stays under three minutes.
const LAST_START: Duration = Duration::from_secs(100);

/// What a supervised run printed, and what it took to get it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supervised {
    pub stdout: String,
    /// Attempts that crashed or hung before the one that completed.
    pub casualties: Vec<String>,
}

/// How long one attempt may take: a healthy run needs about
/// `2 × seconds` (set-up, warm-up, timed pass, checks).
fn deadline(seconds: f64) -> Duration {
    Duration::from_secs_f64(45.0 + 2.0 * seconds.max(0.0))
}

/// Runs this executable with `args` (plus [`IN_PROCESS`]) until one
/// attempt exits on its own with a status of 0 or 1 — a verdict, as
/// opposed to a signal or a hang.
///
/// # Errors
///
/// Every attempt crashed or hung, or the executable cannot be started.
pub fn run(args: &[String], seconds: f64) -> Result<Supervised, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let begun = Instant::now();
    let mut casualties = Vec::new();
    for attempt in 1..=MAX_ATTEMPTS {
        if attempt > 1 && begun.elapsed() > LAST_START {
            break;
        }
        let mut child = Command::new(&exe)
            .args(args)
            .arg(IN_PROCESS)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut pipe = child.stdout.take().expect("stdout was piped");
        // Drain stdout as it comes so a long report can never fill the
        // pipe and stall the child.
        let reader = std::thread::spawn(move || {
            let mut text = String::new();
            let _ = pipe.read_to_string(&mut text);
            text
        });
        let started = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if started.elapsed() > deadline(seconds) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break None;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(50)),
                Err(e) => return Err(format!("cannot wait for the measuring process: {e}")),
            }
        };
        let stdout = reader.join().unwrap_or_default();
        let casualty = match status {
            Some(status) if matches!(status.code(), Some(0 | 1)) => {
                return Ok(Supervised { stdout, casualties });
            }
            Some(status) => format!("attempt {attempt} died: {status}"),
            None => format!(
                "attempt {attempt} hung: killed after {:.0} s",
                deadline(seconds).as_secs_f64()
            ),
        };
        eprintln!("pb_ledger: {casualty}; running it again");
        casualties.push(casualty);
    }
    Err(format!("no attempt completed: {}", casualties.join("; ")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadlines_leave_room_for_a_second_attempt() {
        // The default run: a hang is detected in time for another
        // attempt to start and finish within three minutes.
        let d = deadline(15.0);
        assert_eq!(d, Duration::from_secs(75));
        assert!(d <= LAST_START);
        assert!(LAST_START + d <= Duration::from_secs(180));
        assert_eq!(deadline(-1.0), Duration::from_secs(45));
    }
}
