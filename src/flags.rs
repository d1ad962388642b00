//! The command lines of `wsflow` and `wsflowd`: a table of flags per
//! command, one [`parse`] for every table, and usage text built from
//! them. A value that does not parse or breaks its row's bounds, a flag
//! given twice, a required flag left out and a flag the table lacks are
//! usage errors; no input panics. Server pool values only have to
//! parse: a pool that cannot exist is `Network::new`'s to reject, as
//! invalid input.

use wsflow_core::registry;
use wsflow_svc::daemon::{MAX_QUEUE, MAX_WORKERS};
use Absent::*;
use Kind::*;

/// What a flag's value must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Kind {
    /// No value: the flag is on when given.
    Switch,
    /// An integer in `min..=max`.
    Int(u64, u64),
    /// A number in `lo..=hi`, never NaN.
    Num(f64, f64),
    /// A server pool's number, which only has to parse.
    PoolNum,
    /// Comma-separated server pool numbers, which only have to parse.
    PoolList,
    /// Any text.
    Text,
}

/// What an absent flag means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Absent {
    /// The flag has no value.
    Omit,
    /// The command line is a usage error.
    Required,
    /// The flag has this value, read as if it were given.
    Use(&'static str),
    /// The flag has no value and the command picks the one described.
    Computed(&'static str),
}

/// One row of a command's table.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Flag {
    /// The flag itself, `--` included.
    pub(crate) name: &'static str,
    /// The value's placeholder in the usage text; empty for a switch.
    pub(crate) value: &'static str,
    /// What the value must be.
    pub(crate) kind: Kind,
    /// What an absent flag means.
    pub(crate) absent: Absent,
    /// One line of help.
    pub(crate) help: &'static str,
}

/// A row; a table is a list of these calls, one per line.
#[rustfmt::skip]
const fn flag(name: &'static str, value: &'static str, kind: Kind, absent: Absent, help: &'static str) -> Flag {
    Flag { name, value, kind, absent, help }
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    flag(name, "", Switch, Omit, help)
}

/// A command and its table.
#[derive(Debug)]
pub struct Command {
    /// The command's name.
    pub(crate) name: &'static str,
    /// The operands before its flags, as the usage text shows them.
    pub(crate) operands: &'static str,
    /// Every flag the command takes.
    pub(crate) flags: &'static [Flag],
}

/// A count of at least one; it fits a `usize`, so `as usize` is exact.
const COUNT: Kind = Int(1, usize::MAX as u64);
const ANY_U64: Kind = Int(0, u64::MAX);
const WORKFLOW: &str = "<workflow.wsf>";
#[rustfmt::skip]
const SERVERS: Flag = flag("--servers", "GHZ[,GHZ…]", PoolList, Required, "one server per rating, in GHz");
#[rustfmt::skip]
const BUS: Flag = flag("--bus", "MBPS", PoolNum, Use("100"), "bus speed in Mbps");
const ALGO: Flag = flag("--algo", "NAME", Text, Use("holm"), "algorithm");

// The tables, kept one row a line.

/// `wsflow generate`.
#[rustfmt::skip]
pub(crate) const GENERATE: Command = Command { name: "generate", operands: "", flags: &[
    flag("--ops",   "N",     COUNT,   Use("19"),   "operations"),
    flag("--shape", "SHAPE", Text,    Use("line"), "line, bushy, lengthy or hybrid"),
    flag("--seed",  "S",     ANY_U64, Use("0"),    "generator seed"),
]};
/// `wsflow deploy`.
#[rustfmt::skip]
pub(crate) const DEPLOY: Command = Command { name: "deploy", operands: WORKFLOW, flags: &[
    SERVERS, BUS, ALGO,
    switch("--dot", "print the deployment as Graphviz"),
]};
/// `wsflow simulate`.
#[rustfmt::skip]
pub(crate) const SIMULATE: Command = Command { name: "simulate", operands: WORKFLOW, flags: &[
    SERVERS, BUS, ALGO,
    flag("--trials", "K", COUNT, Use("1000"), "Monte Carlo trials"),
    switch("--contended", "servers and bus serve one request at a time"),
]};
/// `wsflow explain`.
#[rustfmt::skip]
pub(crate) const EXPLAIN: Command = Command { name: "explain", operands: WORKFLOW, flags: &[SERVERS, BUS, ALGO] };
/// `wsflow submit`.
#[rustfmt::skip]
pub(crate) const SUBMIT: Command = Command { name: "submit", operands: WORKFLOW, flags: &[
    SERVERS, BUS,
    flag("--algo",        "NAME",      Text,    Use("portfolio"), "algorithm"),
    flag("--budget",      "N",         ANY_U64, Omit,             "solver step budget"),
    flag("--deadline-ms", "N",         ANY_U64, Omit,             "solve deadline in ms"),
    flag("--tenant",      "T",         Text,    Use("cli"),       "fair-queueing tenant"),
    flag("--addr",        "HOST:PORT", Text,    Computed("127.0.0.1:WSFLOW_SVC_PORT, else :7407"),
         "the daemon's address"),
]};
/// `wsflow run`.
#[rustfmt::skip]
pub(crate) const RUN: Command = Command { name: "run", operands: "<experiment> | all | --list", flags: &[
    switch("--quick", "seconds-scale sizes instead of the paper's"),
    flag("--seeds", "N",   COUNT, Omit,           "scenarios per configuration"),
    flag("--ops",   "M",   COUNT, Omit,           "workflow size"),
    flag("--out",   "DIR", Text,  Use("results"), "output directory"),
]};
/// `wsflow trace`.
#[rustfmt::skip]
pub(crate) const TRACE: Command = Command { name: "trace", operands: "<spans.ndjson | results-dir>", flags: &[
    switch("--wall", "wall-clock times and thread tracks"),
    flag("--out", "FILE", Text, Computed("trace.json beside the spans"), "output file"),
]};
/// `wsflow bench`.
#[rustfmt::skip]
pub(crate) const BENCH: Command = Command { name: "bench", operands: "", flags: &[
    switch("--quick", "small sizes"),
    flag("--out",       "FILE",     Text,               Omit,     "write the results here"),
    flag("--compare",   "BASELINE", Text,               Omit,     "fail on a slower bench"),
    flag("--tolerance", "T",        Num(0.0, f64::MAX), Use("1"), "allowed slowdown fraction"),
]};
/// `wsflowd`.
#[rustfmt::skip]
pub const WSFLOWD: Command = Command { name: "wsflowd", operands: "", flags: &[
    flag("--port", "P", Int(0, u16::MAX as u64), Computed("WSFLOW_SVC_PORT, else 7407"),
         "port on 127.0.0.1, 0 for an ephemeral one"),
    flag("--port-file", "FILE", Text, Omit, "write the bound port here"),
    flag("--workers", "N", Int(1, MAX_WORKERS as u64), Computed("min(4, cores)"), "solver threads"),
    flag("--queue", "N", Int(1, MAX_QUEUE as u64), Computed("64"),
         "queued requests per tenant, 8× that in all"),
]};

/// Every `wsflow` command, in usage order.
#[rustfmt::skip]
pub(crate) const WSFLOW: &[Command] = &[
    Command { name: "validate", operands: WORKFLOW, flags: &[] },
    Command { name: "stats", operands: WORKFLOW, flags: &[] },
    Command { name: "dot", operands: WORKFLOW, flags: &[] },
    GENERATE, DEPLOY, SIMULATE, EXPLAIN, SUBMIT, RUN,
    Command { name: "report", operands: "<manifest.json | results-dir>", flags: &[] },
    TRACE, BENCH,
];

/// A command line read against its table: the given flags and the
/// defaults of the absent ones, each value checked against its row.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed(Vec<(&'static str, String)>);

impl Parsed {
    /// The text of flag `name`, given or defaulted; empty for a switch.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether switch `name` was given.
    pub fn on(&self, name: &str) -> bool {
        self.text(name).is_some()
    }

    /// Integer flag `name`.
    pub fn int(&self, name: &str) -> Option<u64> {
        self.text(name)?.parse().ok()
    }

    /// Number flag `name`.
    pub fn num(&self, name: &str) -> Option<f64> {
        self.text(name)?.parse().ok()
    }

    /// Number-list flag `name`.
    pub fn nums(&self, name: &str) -> Option<Vec<f64>> {
        self.text(name)?
            .split(',')
            .map(|x| x.parse().ok())
            .collect()
    }
}

/// Read `args` against `cmd`'s table. The error is a usage message.
pub fn parse(cmd: &Command, args: &[String]) -> Result<Parsed, String> {
    let mut values: Vec<(&'static str, String)> = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        let Some(row) = cmd.flags.iter().find(|f| f.name == arg) else {
            let all = WSFLOW.iter().chain([&WSFLOWD]).flat_map(|c| c.flags);
            return Err(match all.map(|f| f.name).any(|name| name == arg) {
                true => format!("{} does not take {arg}", cmd.name),
                false => format!("unknown flag {arg:?}"),
            });
        };
        if values.iter().any(|(name, _)| *name == arg) {
            return Err(format!("{arg} is given twice"));
        }
        let value = match row.kind {
            Switch => "",
            _ => args.next().ok_or_else(|| format!("{arg} needs a value"))?,
        };
        values.push((row.name, row.check(value)?));
    }
    for row in cmd.flags {
        if values.iter().all(|(name, _)| *name != row.name) {
            match row.absent {
                Omit | Computed(_) => {}
                Required => return Err(format!("{} is required", row.name)),
                Use(default) => values.push((row.name, row.check(default)?)),
            }
        }
    }
    Ok(Parsed(values))
}

impl Flag {
    /// `raw` as this flag's value, if it parses within the bounds.
    fn check(&self, raw: &str) -> Result<String, String> {
        let ok = match self.kind {
            Switch | Text => true,
            Int(min, max) => raw.parse().is_ok_and(|n| (min..=max).contains(&n)),
            Num(lo, hi) => raw.parse().is_ok_and(|x| (lo..=hi).contains(&x)),
            PoolNum => raw.parse::<f64>().is_ok(),
            PoolList => raw.split(',').all(|x| x.parse::<f64>().is_ok()),
        };
        let bounds = self.bounds().map(|b| format!(" ({b})")).unwrap_or_default();
        match ok {
            true => Ok(raw.to_string()),
            false => Err(format!(
                "bad {} value {raw:?}; expected {}{bounds}",
                self.name, self.value
            )),
        }
    }

    /// The bounds of the value, when narrower than its type's.
    fn bounds(&self) -> Option<String> {
        match self.kind {
            Int(min, max) if max == u64::MAX || max == usize::MAX as u64 => {
                (min > 0).then(|| format!("≥ {min}"))
            }
            Int(min, max) => Some(format!("{min} to {max}")),
            Num(lo, hi) if hi == f64::MAX => Some(format!("≥ {lo}")),
            Num(lo, hi) => Some(format!("{lo} to {hi}")),
            _ => None,
        }
    }

    /// `--name VALUE`, or `--name` for a switch.
    fn usage(&self) -> String {
        format!("{} {}", self.name, self.value)
            .trim_end()
            .to_string()
    }

    /// The flag's help line(s): its help, bounds and default.
    fn help_line(&self) -> String {
        let default = match self.absent {
            Required => Some("required".to_string()),
            Use(default) | Computed(default) => Some(format!("default {default}")),
            Omit => None,
        };
        let notes: Vec<String> = self.bounds().into_iter().chain(default).collect();
        let mut help = self.help.to_string();
        if !notes.is_empty() {
            help.push_str(&format!(" ({})", notes.join("; ")));
        }
        wrap(&format!("    {:<22}", self.usage()), help.split(' '))
    }
}

/// `head` followed by `words`, wrapped before column 80; continuation
/// lines are indented to the width of `head`.
fn wrap<W: AsRef<str>>(head: &str, words: impl IntoIterator<Item = W>) -> String {
    let indent = head.chars().count();
    let mut out = head.to_string();
    let mut column = indent;
    for word in words {
        let word = word.as_ref();
        let width = word.chars().count();
        if column > indent && column + 1 + width > 80 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            column = indent;
        }
        if column > 0 {
            out.push(' ');
            column += 1;
        }
        out.push_str(word);
        column += width;
    }
    out.push('\n');
    out
}

/// One command's synopsis line(s) under `program`.
fn synopsis(program: &str, cmd: &Command) -> String {
    let operands = cmd.operands.split(' ').filter(|w| !w.is_empty());
    let flags = cmd.flags.iter().map(|f| match f.absent {
        Required => f.usage(),
        _ => format!("[{}]", f.usage()),
    });
    let words = operands.map(str::to_string).chain(flags);
    wrap(&format!("  {program}"), words)
}

/// `wsflow`'s synopsis lines: what a usage error shows.
pub(crate) fn wsflow_synopses() -> String {
    let mut out = String::from("USAGE:\n");
    for cmd in WSFLOW {
        out.push_str(&synopsis(&format!("wsflow {:<8}", cmd.name), cmd));
    }
    out
}

/// `wsflow help`: the synopses, every command's flags and the notes.
pub(crate) fn wsflow_usage() -> String {
    let mut out = format!(
        "wsflow — deploy web service workflows onto servers\n\n{}\nFLAGS:\n",
        wsflow_synopses()
    );
    for cmd in WSFLOW.iter().filter(|c| !c.flags.is_empty()) {
        out.push_str(&format!("  {}\n", cmd.name));
        out.extend(cmd.flags.iter().map(Flag::help_line));
    }
    let notes = format!(
        "Workflow files use the line-oriented text format (see `wsflow::model::dsl`). \
         Algorithms: {}; `deploy` also takes all (the paper's five greedies). \
         `submit` sends the request to a running `wsflowd`. `run` runs one \
         experiment, or all, writing CSVs and a manifest; `run --list` names them. \
         --obs (global) appends the metrics the command records as NDJSON; \
         WSFLOW_OBS=1 records them without appending. Exit codes: 0 success, 1 \
         invalid input, 2 usage error (a repeated flag is one) or unreadable artefact.",
        registry::NAMES.join(", ")
    );
    out.push('\n');
    out.push_str(&wrap("", notes.split(' ')));
    out
}

/// `wsflowd --help`.
pub fn wsflowd_usage() -> String {
    let mut out = String::from(
        "wsflowd — serve wsflow-proto/1 deployment requests (see `wsflow submit`)\n\nUSAGE:\n",
    );
    out.push_str(&synopsis("wsflowd", &WSFLOWD));
    out.push_str("\nFLAGS:\n");
    out.extend(WSFLOWD.flags.iter().map(Flag::help_line));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// Every command, `wsflowd` included.
    fn commands() -> impl Iterator<Item = &'static Command> {
        WSFLOW.iter().chain([&WSFLOWD])
    }

    /// `cmd`'s required flags other than `except`, each given `1`.
    fn required(cmd: &Command, except: &str) -> Vec<String> {
        (cmd.flags.iter())
            .filter(|f| f.absent == Absent::Required && f.name != except)
            .flat_map(|f| [f.name, "1"])
            .map(str::to_string)
            .collect()
    }

    /// `parsed` holds a value of `row` within the row's bounds, or none
    /// if the row may be absent.
    fn within_bounds(row: &Flag, parsed: &Parsed) -> bool {
        let name = row.name;
        match (row.kind, parsed.text(name)) {
            (_, None) => matches!(row.absent, Omit | Computed(_)),
            (Switch, Some(value)) => value.is_empty(),
            (Int(min, max), _) => parsed.int(name).is_some_and(|n| (min..=max).contains(&n)),
            (Num(lo, hi), _) => parsed.num(name).is_some_and(|x| (lo..=hi).contains(&x)),
            (PoolNum, _) => parsed.num(name).is_some(),
            (PoolList, _) => parsed.nums(name).is_some_and(|xs| !xs.is_empty()),
            (Text, _) => true,
        }
    }

    /// The table walk: every flag of every command, fed each probe
    /// value, parses to a value within its row's bounds or is a usage
    /// error, and given twice is always one. Only the parser runs, so
    /// no value starts a daemon, a solve or a thread.
    #[test]
    fn every_flag_parses_within_bounds_or_is_a_usage_error() {
        for cmd in commands() {
            let defaults = parse(cmd, &required(cmd, ""));
            let defaults = defaults.unwrap_or_else(|e| panic!("{}: {e}", cmd.name));
            let foreign = (commands().flat_map(|c| c.flags))
                .find(|f| cmd.flags.iter().all(|g| g.name != f.name))
                .expect("another command has a flag this one lacks");
            let err = parse(cmd, &[foreign.name.to_string()]).unwrap_err();
            assert_eq!(err, format!("{} does not take {}", cmd.name, foreign.name));
            for row in cmd.flags {
                assert!(within_bounds(row, &defaults), "{} {}", cmd.name, row.name);
                for probe in [
                    None,
                    Some("0"),
                    Some("-1"),
                    Some("NaN"),
                    Some("inf"),
                    Some("18446744073709551615"),
                    Some("18446744073709551616"),
                    Some(foreign.name),
                ] {
                    let given: Vec<String> = [Some(row.name), probe]
                        .into_iter()
                        .flatten()
                        .map(str::to_string)
                        .collect();
                    let mut args = required(cmd, row.name);
                    args.extend(given.iter().cloned());
                    let Ok(parsed) = parse(cmd, &args) else {
                        continue;
                    };
                    assert!(within_bounds(row, &parsed), "{} {args:?}", cmd.name);
                    args.extend(given);
                    let err = parse(cmd, &args).unwrap_err();
                    assert_eq!(err, format!("{} is given twice", row.name));
                }
            }
        }
    }

    #[test]
    fn daemon_bounds_show_in_errors_and_help() {
        let err = parse(&WSFLOWD, &strs(&["--queue", "18446744073709551615"])).unwrap_err();
        assert!(err.contains(&format!("(1 to {MAX_QUEUE})")), "{err}");
        for zero in ["--workers", "--queue"] {
            assert!(parse(&WSFLOWD, &strs(&[zero, "0"])).is_err(), "{zero}");
        }
        let max = MAX_WORKERS.to_string();
        assert!(parse(&WSFLOWD, &strs(&["--workers", &max])).is_ok());
        // svcbench's command line.
        let svcbench = strs(&["--port", "0", "--workers", "1", "--port-file", "f"]);
        assert!(parse(&WSFLOWD, &svcbench).is_ok());
        assert!(wsflowd_usage().contains(&format!("(1 to {MAX_WORKERS};")));
    }

    #[test]
    fn usage_lists_every_command_and_flag() {
        let usage = wsflow_usage();
        for cmd in WSFLOW {
            assert!(
                usage.contains(&format!("wsflow {}", cmd.name)),
                "{}",
                cmd.name
            );
            for row in cmd.flags {
                assert!(usage.contains(row.help), "{}", row.name);
            }
        }
        for usage in [usage, wsflowd_usage()] {
            assert!(usage.lines().all(|l| l.chars().count() <= 80), "{usage}");
        }
    }
}
