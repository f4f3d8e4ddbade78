//! Time Warp cluster worker: the child half of
//! [`dvs_sim::timewarp::Transport::Process`] and
//! [`dvs_sim::timewarp::Transport::Tcp`].
//!
//! Two modes:
//!
//! * `--socket <path>` — the supervisor spawned this worker and owns the
//!   per-cluster Unix-domain socket; connect back and serve.
//! * `--connect <host:port> --cluster <id> [--token <tok>]` — dial a TCP
//!   supervisor (retrying refused connections with deterministically
//!   jittered exponential backoff — seeded from the run token and cluster
//!   id, so retry schedules are reproducible yet decorrelated across
//!   workers — for the 10 s connect window) and serve cluster `<id>`. The
//!   run token may also come from `DVS_TW_TOKEN`; it scopes the dial-in to
//!   one supervisor run, so a stray or stale worker cannot disturb
//!   somebody else's simulation.
//!
//! All simulation state lives here, which is what makes a `SIGKILL` of
//! this process — or a dropped TCP connection — a true crash-stop fault
//! for the recovery supervisor to handle.

use std::ffi::OsString;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: tw_worker --socket <path> | --connect <host:port> --cluster <id> [--token <tok>]";

enum Mode {
    Unix {
        socket: PathBuf,
    },
    Tcp {
        addr: String,
        cluster: u32,
        token: String,
    },
}

fn parse_args(args: Vec<OsString>) -> Result<Mode, String> {
    let mut socket: Option<PathBuf> = None;
    let mut addr: Option<String> = None;
    let mut cluster: Option<u32> = None;
    let mut token: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = |it: &mut dyn Iterator<Item = OsString>| {
            it.next()
                .ok_or_else(|| format!("{} needs a value", flag.to_string_lossy()))
        };
        match flag.to_str() {
            Some("--socket") => socket = Some(PathBuf::from(value(&mut it)?)),
            Some("--connect") => {
                addr = Some(
                    value(&mut it)?
                        .into_string()
                        .map_err(|_| "--connect address is not UTF-8".to_string())?,
                )
            }
            Some("--cluster") => {
                let v = value(&mut it)?;
                let v = v.to_string_lossy();
                cluster = Some(
                    v.parse::<u32>()
                        .map_err(|e| format!("--cluster {v}: {e}"))?,
                );
            }
            Some("--token") => {
                token = Some(
                    value(&mut it)?
                        .into_string()
                        .map_err(|_| "--token is not UTF-8".to_string())?,
                )
            }
            other => {
                return Err(format!(
                    "unknown argument {:?}",
                    other.unwrap_or("<non-UTF-8>")
                ))
            }
        }
    }
    match (socket, addr) {
        (Some(socket), None) => {
            if cluster.is_some() || token.is_some() {
                return Err("--cluster/--token only apply to --connect".to_string());
            }
            Ok(Mode::Unix { socket })
        }
        (None, Some(addr)) => {
            let cluster = cluster.ok_or_else(|| "--connect requires --cluster".to_string())?;
            let token = token
                .or_else(|| std::env::var("DVS_TW_TOKEN").ok())
                .unwrap_or_default();
            Ok(Mode::Tcp {
                addr,
                cluster,
                token,
            })
        }
        _ => Err("exactly one of --socket or --connect is required".to_string()),
    }
}

fn main() -> ExitCode {
    let mode = match parse_args(std::env::args_os().skip(1).collect()) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("tw_worker: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let served = match mode {
        Mode::Unix { socket } => dvs_sim::timewarp::serve_worker(&socket),
        Mode::Tcp {
            addr,
            cluster,
            token,
        } => dvs_sim::timewarp::serve_worker_tcp(&addr, cluster, &token),
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tw_worker: {e}");
            ExitCode::FAILURE
        }
    }
}
