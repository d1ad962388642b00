//! `wsflowd` — the multi-tenant deployment service daemon: serves
//! `wsflow-proto/1` requests on TCP from a weighted-fair worker pool.
//! See `wsflow submit` for the client, DESIGN.md §14 for the protocol,
//! and `wsflowd --help` for the flags (`wsflow::flags::WSFLOWD`).

use wsflow::flags::{self, WSFLOWD};
use wsflow_svc::config::TOTAL_QUEUE_FACTOR;
use wsflow_svc::{daemon, DaemonConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprint!("{}", flags::wsflowd_usage());
        return;
    }
    if let Err(msg) = serve(&args) {
        eprintln!("wsflowd: {msg}");
        std::process::exit(2);
    }
}

/// Start the daemon `args` describe, write its port to `--port-file`,
/// and serve until killed.
fn serve(args: &[String]) -> Result<(), String> {
    let f = flags::parse(&WSFLOWD, args)
        .map_err(|e| format!("usage error: {e}\n\n{}", flags::wsflowd_usage()))?;
    let mut cfg = DaemonConfig::default();
    cfg.port = f.int("--port").map_or(cfg.port, |port| port as u16);
    cfg.svc.workers = f.int("--workers").map_or(cfg.svc.workers, |n| n as usize);
    if let Some(queue) = f.int("--queue") {
        cfg.svc.queue_cap = queue as usize;
        cfg.svc.total_cap = cfg.svc.queue_cap.saturating_mul(TOTAL_QUEUE_FACTOR);
    }
    let handle = daemon::spawn(cfg).map_err(|e| format!("bind failed: {e}"))?;
    eprintln!("wsflowd listening on {}", handle.addr());
    if let Some(path) = f.text("--port-file") {
        std::fs::write(path, format!("{}\n", handle.addr().port()))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    loop {
        std::thread::park();
    }
}
