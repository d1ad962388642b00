//! `wsflowd`'s command line, through the real binary: a `--queue` far
//! past its bound is a usage error (exit 2), never an overflow panic or
//! a daemon that starts serving.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn queue_past_its_bound_exits_with_a_usage_error() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_wsflowd"))
        .args(["--port", "0", "--queue", "18446744073709551615"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("start wsflowd");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll wsflowd") {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("wsflowd was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(2), "{status}");
}
