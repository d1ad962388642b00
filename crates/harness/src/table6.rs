//! Table 6: the class-C experimental configuration, regenerated from
//! the workload crate's definitions (a self-check that the code matches
//! the paper, and a reference printout).

use wsflow_workload::ExperimentClass;

use crate::output::ExperimentOutput;
use crate::table::Table;

/// Render Table 6 from the live distributions.
pub fn run() -> ExperimentOutput {
    let c = ExperimentClass::class_c();
    let mut t = Table::new(
        "Table 6 — experimental configuration for Class C",
        &["parameter", "value", "probability"],
    );
    let probs = c.msg_size.probabilities();
    for (v, p) in c.msg_size.values().zip(&probs) {
        t.push_row(vec![
            "MsgSize(Oi,Oi+1)".into(),
            format!("{} Mbit", v.value()),
            format!("{:.0}%", p * 100.0),
        ]);
    }
    let probs = c.line_speed.probabilities();
    for (v, p) in c.line_speed.values().zip(&probs) {
        t.push_row(vec![
            "Line_Speed(Si,Si+1)".into(),
            format!("{} Mbps", v.value()),
            format!("{:.0}%", p * 100.0),
        ]);
    }
    let probs = c.op_cycles.probabilities();
    for (v, p) in c.op_cycles.values().zip(&probs) {
        t.push_row(vec![
            "C(Oi)".into(),
            format!("{} Mcycles", v.value()),
            format!("{:.0}%", p * 100.0),
        ]);
    }
    let probs = c.power_ghz.probabilities();
    for (v, p) in c.power_ghz.values().zip(&probs) {
        t.push_row(vec![
            "P(Si)".into(),
            format!("{v} GHz"),
            format!("{:.0}%", p * 100.0),
        ]);
    }
    let mut out = ExperimentOutput::new("table6");
    out.tables.push(t);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_rows_three_per_parameter() {
        let out = run();
        assert_eq!(out.tables.len(), 1);
        assert_eq!(out.tables[0].num_rows(), 12);
        let rendered = out.render();
        assert!(rendered.contains("0.00666 Mbit"));
        assert!(rendered.contains("1000 Mbps"));
        assert!(rendered.contains("30 Mcycles"));
        assert!(rendered.contains("3 GHz"));
        assert!(rendered.contains("50%"));
    }

    /// The fields of one CSV record (RFC 4180 quoting, no line breaks
    /// inside fields).
    fn fields(line: &str) -> Vec<String> {
        let mut fields = vec![String::new()];
        let mut quoted = false;
        let mut chars = line.chars().peekable();
        while let Some(c) = chars.next() {
            match (c, quoted) {
                ('"', true) if chars.peek() == Some(&'"') => {
                    chars.next();
                    fields.last_mut().unwrap().push('"');
                }
                ('"', _) => quoted = !quoted,
                (',', false) => fields.push(String::new()),
                (c, _) => fields.last_mut().unwrap().push(c),
            }
        }
        fields
    }

    #[test]
    fn csv_reads_back_three_fields_per_row() {
        let csv = run().tables[0].to_csv();
        let rows: Vec<Vec<String>> = csv.lines().map(fields).collect();
        assert_eq!(rows.len(), 13);
        assert_eq!(rows[0], ["parameter", "value", "probability"]);
        assert!(rows.iter().all(|r| r.len() == 3), "{csv}");
        assert_eq!(rows[1][0], "MsgSize(Oi,Oi+1)");
        assert_eq!(rows[4][0], "Line_Speed(Si,Si+1)");
    }
}
