//! `wsflowd` — the multi-tenant deployment service daemon.
//!
//! Listens for `wsflow-proto/1` requests on TCP (default port 7407,
//! `--port 0` for an ephemeral one) and serves them from a
//! weighted-fair worker pool. See `wsflow submit` for the matching
//! client and DESIGN.md §14 for the protocol.
//!
//! ```text
//! wsflowd [--port P] [--port-file FILE] [--workers N] [--queue N]
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!(
            "usage: wsflowd [--port P] [--port-file FILE] [--workers N] [--queue N]\n\
             \n\
             The port defaults to WSFLOW_SVC_PORT, else 7407; --port 0 binds\n\
             an ephemeral port (written to --port-file if given). --workers\n\
             defaults to min(4, cores), --queue (per tenant) to 64."
        );
        return;
    }
    if let Err(msg) = wsflow_svc::daemon::run_from_args(&args) {
        eprintln!("wsflowd: {msg}");
        std::process::exit(2);
    }
}
