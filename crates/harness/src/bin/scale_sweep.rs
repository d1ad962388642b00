//! Runs the scale sweep, then the evaluator-throughput micro-benchmark,
//! writing `BENCH_scale.json` next to the experiment CSVs.

use std::io::Write as _;

fn main() {
    let opts = wsflow_harness::cli::parse_or_exit();
    wsflow_harness::cli::run_one(&opts, wsflow_harness::scale_sweep::run);

    let bench = wsflow_harness::scale_sweep::bench(&opts.params);
    let doc = serde_json::to_string_pretty(&bench).expect("bench results serialize");
    let path = std::path::Path::new(&opts.out_dir).join("BENCH_scale.json");
    match std::fs::File::create(&path).and_then(|mut f| writeln!(f, "{doc}")) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    println!(
        "eval throughput on {}x{}: reference {:.0} ns/eval, flat {:.0} ns/eval ({:.2}x)",
        bench.ops,
        bench.servers,
        bench.legacy_ns_per_eval,
        bench.flat_batch_ns_per_eval,
        bench.speedup
    );
}
