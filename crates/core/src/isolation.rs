//! The process-isolation tier: run one application simulation per child
//! process so that *nothing* a worker does — `abort()`, SIGKILL, a stack
//! overflow, a non-cooperative infinite loop — can take the suite down.
//!
//! The in-process supervisor (see [`crate::engine`]) contains panics with
//! `catch_unwind` and long runs with a cooperative watchdog, but both only
//! work when the failure unwinds politely. This tier adds the hard
//! boundary: the harness binary re-execs itself (`<exe> worker --app <name>
//! --fingerprint <fp>`) via [`std::env::current_exe`], sends the job over
//! the child's stdin as one checksummed [`crate::wire`] frame, and reads a
//! single reply frame back from its stdout. The parent enforces a *hard*
//! wall-clock deadline with [`std::process::Child::kill`] and classifies
//! every way a child can die — signal, non-zero exit, corrupt or missing
//! reply frame, deadline overrun — into the [`FailureKind`] taxonomy.
//!
//! Tier selection is `RESTUNE_ISOLATION`:
//!
//! * `thread` (default) — the in-process path; bit-identical to PR 2.
//! * `process` — child processes; warns and falls back in-process when
//!   no worker entry is installed (the binary never called
//!   [`maybe_run_worker`]) or a spawn fails.
//!
//! Children are always spawned with `RESTUNE_ISOLATION=thread` so a worker
//! can never recursively spawn grandchildren.
//!
//! The module also owns graceful shutdown: [`install_signal_handlers`]
//! arms SIGINT/SIGTERM to set a process-wide flag (checked by the engine's
//! worker pool, which stops claiming apps and records `interrupted` slots)
//! and re-arms the default disposition so a second signal force-kills.

use std::io::{Read as _, Write as _};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use workloads::{registry, WorkloadProfile};

use crate::fault::{FailureKind, FaultSpec};
use crate::sim::{run_supervised, InstrumentedRun, SimConfig, Technique};
use crate::wire;

/// The hidden argv\[1\] that turns any harness binary into a worker.
pub const WORKER_SUBCOMMAND: &str = "worker";

/// Set once a binary has called [`maybe_run_worker`]; `process` isolation
/// only spawns children when the child would actually answer as a worker.
static WORKER_INSTALLED: AtomicBool = AtomicBool::new(false);

/// Set by the SIGINT/SIGTERM handler; sticky for the process lifetime.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// One-shot latches for the warnings this module rate-limits.
static WARNED_BAD_MODE: AtomicBool = AtomicBool::new(false);
static WARNED_NO_WORKER: AtomicBool = AtomicBool::new(false);
static WARNED_SPAWN: AtomicBool = AtomicBool::new(false);

/// Which execution tier an attempt runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-process: `catch_unwind` + cooperative watchdog (the default).
    Thread,
    /// One child process per application attempt.
    Process,
}

fn warn_once(latch: &AtomicBool, message: &str) {
    if !latch.swap(true, Ordering::Relaxed) {
        crate::obs::warn("isolation", message);
    }
}

/// `true` when spawning `current_exe() worker ...` would reach a worker
/// entry. `RESTUNE_WORKER_ARGV` (a test hook, see [`process_attempt`])
/// counts: the spawned argv is then caller-supplied.
fn worker_available() -> bool {
    WORKER_INSTALLED.load(Ordering::Relaxed) || std::env::var_os("RESTUNE_WORKER_ARGV").is_some()
}

/// Resolves `RESTUNE_ISOLATION` to the tier this attempt should use.
/// Invalid values and `process` without a worker entry warn once per
/// process and fall back to [`IsolationMode::Thread`].
pub fn isolation_mode() -> IsolationMode {
    match std::env::var("RESTUNE_ISOLATION") {
        Err(_) => IsolationMode::Thread,
        Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
            "" | "thread" => IsolationMode::Thread,
            "process" => {
                if worker_available() {
                    IsolationMode::Process
                } else {
                    warn_once(
                        &WARNED_NO_WORKER,
                        "RESTUNE_ISOLATION=process but this binary has no worker entry \
                         (harness never called maybe_run_worker); running in-process",
                    );
                    IsolationMode::Thread
                }
            }
            other => {
                warn_once(
                    &WARNED_BAD_MODE,
                    &format!(
                        "invalid RESTUNE_ISOLATION='{other}' \
                         (expected process or thread); running in-process"
                    ),
                );
                IsolationMode::Thread
            }
        },
    }
}

/// `true` once SIGINT or SIGTERM was received; the engine stops claiming
/// new applications and the pollers kill their children.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::Relaxed)
}

#[cfg(test)]
pub(crate) fn set_shutdown_for_test(v: bool) {
    SHUTDOWN.store(v, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Signals (raw glibc, no libc crate: the workspace is offline)
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod sys {
    use std::os::raw::c_int;

    // Minimal glibc surface. `signal` is the historical interface; for a
    // flag-setting handler with re-arm-to-default semantics it is exactly
    // what we need, and it avoids depending on the `libc` crate.
    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
        fn kill(pid: c_int, sig: c_int) -> c_int;
        fn getpid() -> c_int;
    }

    pub(super) const SIGINT: c_int = 2;
    pub(super) const SIGKILL: c_int = 9;
    pub(super) const SIGTERM: c_int = 15;
    const SIG_DFL: usize = 0;

    extern "C" fn on_signal(sig: c_int) {
        super::SHUTDOWN.store(true, std::sync::atomic::Ordering::Relaxed);
        // Restore the default disposition: a second Ctrl-C kills the
        // process outright instead of waiting for a graceful drain.
        unsafe {
            signal(sig, SIG_DFL);
        }
    }

    pub(super) fn install() {
        let handler = on_signal as extern "C" fn(c_int) as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }

    /// Delivers SIGKILL to the calling process — the injected
    /// `worker-kill` fault, indistinguishable from the OOM killer.
    pub(super) fn kill_self() {
        unsafe {
            kill(getpid(), SIGKILL);
        }
    }
}

/// Arms SIGINT/SIGTERM for graceful shutdown: the first signal sets the
/// [`shutdown_requested`] flag (the suite drains: running children are
/// killed, unclaimed apps become `interrupted` failures, the checkpoint
/// keeps every completed row), the second force-kills. No-op off unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    sys::install();
}

/// Kills the calling process with SIGKILL (the `worker-kill` injected
/// fault). Falls back to `abort` off unix.
pub(crate) fn kill_self() {
    #[cfg(unix)]
    sys::kill_self();
    #[allow(unreachable_code)]
    {
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// Installs this binary's worker entry and, when invoked as
/// `<exe> worker ...`, serves the job and never returns. Harness `main`s
/// call this before argument parsing; under any other argv it only flips
/// the "worker available" latch and returns.
pub fn maybe_run_worker() {
    WORKER_INSTALLED.store(true, Ordering::Relaxed);
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) != Some(WORKER_SUBCOMMAND) {
        return;
    }
    let mut app = None;
    let mut fingerprint = None;
    let mut it = args[2..].iter();
    while let Some(flag) = it.next() {
        match (flag.as_str(), it.next()) {
            ("--app", Some(v)) => app = Some(v.clone()),
            ("--fingerprint", Some(v)) => fingerprint = u64::from_str_radix(v, 16).ok(),
            _ => {}
        }
    }
    std::process::exit(serve_worker(app.as_deref(), fingerprint));
}

/// The worker loop body: reads one job frame from stdin, runs it, writes
/// one reply frame to stdout. Public (but hidden) so the test-suite shim —
/// a libtest test spawned as the child — can serve jobs too.
///
/// Exit/return code 0 means "a reply frame was written" (including
/// classified-failure replies); non-zero means the parent gets no frame and
/// must classify from the exit status alone.
#[doc(hidden)]
pub fn serve_worker(expected_app: Option<&str>, argv_fingerprint: Option<u64>) -> i32 {
    crate::fault::install_signal_quieting_hook();

    let mut input = Vec::new();
    if std::io::stdin().lock().read_to_end(&mut input).is_err() {
        return 3;
    }
    let Some((wire::KIND_JOB, payload)) = wire::scan_frame(&input) else {
        return 3;
    };

    let failure_frame = |kind: FailureKind, message: &str| {
        wire::encode_frame(wire::KIND_FAILURE, &wire::encode_failure(kind, message))
    };
    let frame = match wire::decode_job(payload) {
        None => failure_frame(FailureKind::Transport, "job frame failed to decode"),
        Some(job) => {
            // The codec-drift tripwire: the fingerprint of the *decoded*
            // values must match what the parent stamped on the frame (and
            // on argv). Any lossy field fails here, loudly.
            let decoded_fp =
                wire::job_fingerprint(&job.profile, &job.technique, &job.sim, &job.specs);
            if decoded_fp != job.fingerprint || argv_fingerprint.is_some_and(|f| f != decoded_fp) {
                failure_frame(
                    FailureKind::Transport,
                    &format!(
                        "job fingerprint mismatch (frame {:016x}, decoded {decoded_fp:016x}): \
                         wire codec drift",
                        job.fingerprint
                    ),
                )
            } else if expected_app.is_some_and(|a| a != job.profile.name) {
                failure_frame(
                    FailureKind::Transport,
                    &format!(
                        "argv names app '{}' but the job frame carries '{}'",
                        expected_app.unwrap_or_default(),
                        job.profile.name
                    ),
                )
            } else {
                let deadline = job.deadline.map(|d| Instant::now() + d);
                match catch_unwind(AssertUnwindSafe(|| {
                    run_supervised(&job.profile, &job.technique, &job.sim, &job.specs, deadline)
                })) {
                    Ok(inst) => wire::encode_frame(wire::KIND_RESULT, &wire::encode_result(&inst)),
                    Err(panic_payload) => {
                        let (kind, message) = crate::engine::classify_payload(panic_payload);
                        failure_frame(kind, &message)
                    }
                }
            }
        }
    };

    // When the parent asked for observability forwarding (it spawned us
    // with RESTUNE_TRACE=wire), ship the buffered trace lines and the
    // counter registry home as an obs frame ahead of the reply, so the
    // process tier's trace matches the thread tier's.
    let mut out = Vec::new();
    if let Some((counters, lines)) = crate::obs::take_forwarded() {
        if !counters.is_empty() || !lines.is_empty() {
            out.extend_from_slice(&wire::encode_frame(
                wire::KIND_OBS,
                &wire::encode_obs(&counters, &lines),
            ));
        }
    }
    out.extend_from_slice(&frame);

    // Raw handle writes bypass libtest's output capture, so the shim test
    // can serve frames even when spawned as a captured test process.
    let mut stdout = std::io::stdout().lock();
    if stdout
        .write_all(&out)
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return 3;
    }
    0
}

// ---------------------------------------------------------------------------
// Parent side
// ---------------------------------------------------------------------------

/// How much wall-clock slack the parent grants beyond the cooperative
/// deadline before hard-killing the child. Generous on purpose: the
/// in-child watchdog should fire first, the hard kill is the backstop for
/// non-cooperative hangs.
fn hard_kill_grace(timeout: Duration) -> Duration {
    timeout.max(Duration::from_secs(2))
}

/// Runs one application attempt in a child process. Returns `None` when
/// the attempt is not eligible for process isolation (mode, non-registry
/// profile, non-`isca04` machine, spawn failure) — the caller then uses the
/// in-process path. `Some(Err)` carries the classified failure.
pub(crate) fn process_attempt(
    profile: &WorkloadProfile,
    technique: &Technique,
    sim: &SimConfig,
    specs: &[FaultSpec],
    timeout: Option<Duration>,
) -> Option<Result<InstrumentedRun, (FailureKind, String)>> {
    if isolation_mode() != IsolationMode::Process {
        return None;
    }
    // Eligibility: the wire codec sends the profile by *name* and the
    // machine by *instruction budget*, so the child can only reconstruct
    // jobs whose profile is the registry entry and whose SimConfig is the
    // isca04 preset. Anything else runs in-process. The fingerprint check
    // in the worker backstops this gate.
    if registry::by_name(profile.name) != Some(*profile)
        || *sim != SimConfig::isca04(sim.instructions)
    {
        return None;
    }

    let fingerprint = wire::job_fingerprint(profile, technique, sim, specs);
    let payload = wire::encode_job(profile, technique, sim, specs, timeout, fingerprint);
    let frame = wire::encode_frame(wire::KIND_JOB, &payload);

    let Ok(exe) = std::env::current_exe() else {
        warn_once(
            &WARNED_SPAWN,
            "cannot resolve current_exe(); process isolation unavailable, running in-process",
        );
        return None;
    };
    let mut cmd = Command::new(exe);
    match std::env::var("RESTUNE_WORKER_ARGV") {
        // Test hook: reroute the spawn through arbitrary argv (a libtest
        // filter selecting the worker-shim test). The job frame still
        // carries everything; --app/--fingerprint are then unchecked.
        Ok(raw) => {
            cmd.args(raw.split_whitespace());
        }
        Err(_) => {
            cmd.args([
                WORKER_SUBCOMMAND,
                "--app",
                profile.name,
                "--fingerprint",
                &format!("{fingerprint:016x}"),
            ]);
        }
    }
    cmd.env("RESTUNE_ISOLATION", "thread") // children never spawn grandchildren
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if crate::obs::trace_enabled() {
        // The child buffers its events and forwards them home in an obs
        // frame rather than opening the parent's trace file itself.
        cmd.env("RESTUNE_TRACE", "wire");
    } else {
        cmd.env_remove("RESTUNE_TRACE");
    }

    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => {
            warn_once(
                &WARNED_SPAWN,
                &format!("worker spawn failed ({e}); running in-process"),
            );
            return None;
        }
    };

    // Deliver the job and close stdin so the child sees EOF. A write
    // error (EPIPE from an instantly-dead child) is not fatal here: the
    // exit-status classification below tells the real story.
    if let Some(mut stdin) = child.stdin.take() {
        let _ = stdin.write_all(&frame);
        let _ = stdin.flush();
    }

    // Drain the child's stdout concurrently with the exit poll below. An
    // observability frame can exceed the OS pipe buffer (waveform windows
    // are kilobytes each), so reading only after exit would deadlock: the
    // child blocks in write, the parent polls forever.
    let stdout_pipe = child.stdout.take();
    let drain = std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(mut pipe) = stdout_pipe {
            let _ = pipe.read_to_end(&mut buf);
        }
        buf
    });

    let hard_deadline = timeout.map(|t| Instant::now() + t + hard_kill_grace(t));
    let status = loop {
        if shutdown_requested() {
            let _ = child.kill();
            let _ = child.wait();
            return Some(Err((
                FailureKind::Interrupted,
                "shutdown signal received; worker killed".to_string(),
            )));
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                if hard_deadline.is_some_and(|d| Instant::now() >= d) {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Some(Err((
                        FailureKind::Timeout,
                        format!(
                            "worker exceeded the hard wall-clock deadline \
                             ({:?} + grace) and was killed",
                            timeout.unwrap_or_default()
                        ),
                    )));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = child.kill();
                return Some(Err((
                    FailureKind::Crash,
                    format!("waiting on the worker failed: {e}"),
                )));
            }
        }
    };

    // The child has exited, so its side of the pipe is closed and the
    // drain thread reaches EOF promptly.
    let output = drain.join().unwrap_or_default();

    // The child may write an observability frame ahead of its reply:
    // absorb obs frames into this process's sink/registry, then classify
    // from the first reply frame.
    let mut reply = None;
    for (kind, payload) in wire::scan_frames(&output) {
        match kind {
            wire::KIND_OBS => {
                if let Some((counters, lines)) = wire::decode_obs(payload) {
                    crate::obs::counter_add("wire.obs_frames", 1);
                    crate::obs::absorb_forwarded(&counters, &lines);
                }
            }
            wire::KIND_RESULT | wire::KIND_FAILURE if reply.is_none() => {
                reply = Some((kind, payload));
            }
            _ => {}
        }
    }

    Some(match reply {
        Some((wire::KIND_RESULT, payload)) => match wire::decode_result(payload) {
            Some(inst) if inst.result.app == profile.name => Ok(inst),
            Some(inst) => Err((
                FailureKind::Transport,
                format!(
                    "worker replied for app '{}' but '{}' was asked",
                    inst.result.app, profile.name
                ),
            )),
            None => Err((
                FailureKind::Transport,
                "worker result frame failed to decode".to_string(),
            )),
        },
        Some((wire::KIND_FAILURE, payload)) => match wire::decode_failure(payload) {
            Some((kind, message)) => Err((kind, message)),
            None => Err((
                FailureKind::Transport,
                "worker failure frame failed to decode".to_string(),
            )),
        },
        _ => Err(classify_frameless_exit(&status)),
    })
}

/// Classifies a child that exited without producing an intact reply frame.
fn classify_frameless_exit(status: &std::process::ExitStatus) -> (FailureKind, String) {
    #[cfg(unix)]
    {
        use std::os::unix::process::ExitStatusExt as _;
        if let Some(sig) = status.signal() {
            let label = match sig {
                sys::SIGKILL => " (SIGKILL)",
                6 => " (SIGABRT)",
                11 => " (SIGSEGV)",
                _ => "",
            };
            return (
                FailureKind::Crash,
                format!("worker killed by signal {sig}{label}"),
            );
        }
    }
    if !status.success() {
        return (FailureKind::Crash, format!("worker exited with {status}"));
    }
    (
        FailureKind::Transport,
        "worker exited cleanly without a reply frame".to_string(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testenv::with_env;

    #[test]
    fn isolation_mode_resolves_and_falls_back() {
        // No worker entry is installed in the unit-test binary unless a
        // test hook says otherwise.
        let cases: [(&str, Option<&str>, IsolationMode); 6] = [
            ("RESTUNE_ISOLATION", None, IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("thread"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("auto"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("process"), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("Process "), IsolationMode::Thread),
            ("RESTUNE_ISOLATION", Some("bogus"), IsolationMode::Thread),
        ];
        for (key, value, expected) in cases {
            let got = with_env(
                &[(key, value), ("RESTUNE_WORKER_ARGV", None)],
                isolation_mode,
            );
            assert_eq!(got, expected, "RESTUNE_ISOLATION={value:?}");
        }

        // With a worker argv hook, `process` resolves to Process; any other
        // value, `auto` included, falls back to Thread.
        for (value, expected) in [
            ("process", IsolationMode::Process),
            ("PROCESS", IsolationMode::Process),
            ("auto", IsolationMode::Thread),
        ] {
            let got = with_env(
                &[
                    ("RESTUNE_ISOLATION", Some(value)),
                    ("RESTUNE_WORKER_ARGV", Some("worker_shim --exact")),
                ],
                isolation_mode,
            );
            assert_eq!(got, expected, "RESTUNE_ISOLATION={value}");
        }
    }

    #[test]
    fn hard_kill_grace_is_generous() {
        assert_eq!(
            hard_kill_grace(Duration::from_millis(100)),
            Duration::from_secs(2)
        );
        assert_eq!(
            hard_kill_grace(Duration::from_secs(30)),
            Duration::from_secs(30)
        );
    }

    #[test]
    fn shutdown_flag_round_trips() {
        assert!(!shutdown_requested());
        set_shutdown_for_test(true);
        assert!(shutdown_requested());
        set_shutdown_for_test(false);
        assert!(!shutdown_requested());
    }
}
