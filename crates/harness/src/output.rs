//! Experiment output: tables to stdout, raw records and tables to CSV
//! files under `results/`.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::runner::Record;
use crate::table::Table;

/// The bundle an experiment produces.
#[derive(Debug, Clone, Default)]
pub struct ExperimentOutput {
    /// Experiment id, used as the file-name stem (`fig6`, `quality`, …).
    pub id: String,
    /// Rendered summary tables, in display order.
    pub tables: Vec<Table>,
    /// Raw per-run records (the "scatter points" behind the figures).
    pub records: Vec<Record>,
    /// Extra fully-formed CSV files: `(file name, contents)`.
    /// Experiments whose rows don't fit the [`Record`] schema (e.g.
    /// `dyn_policies`) emit their own files here.
    pub extra_csvs: Vec<(String, String)>,
    /// Observability side-channel CSVs: `(file name, contents)`.
    /// *Excluded* from determinism comparisons — these may contain
    /// wall-clock values (e.g. `trajectory.csv`) and are only emitted
    /// when observability is on. [`write_csv`](Self::write_csv) skips
    /// them; `cli::run_one` writes each under its own name and an
    /// `<id>_` copy, so a suite keeps every experiment's.
    pub obs_csvs: Vec<(String, String)>,
}

impl ExperimentOutput {
    /// New, empty output bundle.
    pub fn new(id: impl Into<String>) -> Self {
        Self {
            id: id.into(),
            tables: Vec::new(),
            records: Vec::new(),
            extra_csvs: Vec::new(),
            obs_csvs: Vec::new(),
        }
    }

    /// Render every table, separated by blank lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }

    /// Write tables (one CSV each), raw records and the extra CSVs into
    /// `dir`. Returns the written paths.
    pub fn write_csv(&self, dir: impl AsRef<Path>) -> std::io::Result<Vec<PathBuf>> {
        let dir = dir.as_ref();
        fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (i, t) in self.tables.iter().enumerate() {
            let path = dir.join(format!("{}_{i}.csv", self.id));
            fs::write(&path, t.to_csv())?;
            written.push(path);
        }
        if !self.records.is_empty() {
            let path = dir.join(format!("{}_records.csv", self.id));
            let mut f = fs::File::create(&path)?;
            writeln!(
                f,
                "algorithm,scenario,seed,execution_s,penalty_s,combined_s,traffic_mbits,runtime_us"
            )?;
            for r in &self.records {
                writeln!(
                    f,
                    "{},{},{},{},{},{},{},{}",
                    r.algorithm.replace(',', ";"),
                    r.scenario.replace(',', ";"),
                    r.seed,
                    r.execution,
                    r.penalty,
                    r.combined,
                    r.traffic_mbits,
                    r.runtime_micros
                )?;
            }
            written.push(path);
        }
        for (name, contents) in &self.extra_csvs {
            let path = dir.join(name);
            fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csvs() {
        let mut out = ExperimentOutput::new("demo");
        let mut t = Table::new("t", &["a"]);
        t.push_row(vec!["1".into()]);
        out.tables.push(t);
        out.records.push(Record {
            algorithm: "X".into(),
            scenario: "s, with comma".into(),
            seed: 1,
            execution: 0.5,
            penalty: 0.1,
            combined: 0.6,
            traffic_mbits: 2.0,
            runtime_micros: 42,
        });
        let dir = std::env::temp_dir().join(format!("wsflow-test-{}", std::process::id()));
        let written = out.write_csv(&dir).unwrap();
        assert_eq!(written.len(), 2);
        let records = std::fs::read_to_string(&written[1]).unwrap();
        assert!(records.contains("s; with comma"));
        assert!(records.contains("0.5"));
        std::fs::remove_dir_all(&dir).ok();
        assert!(out.render().contains("## t"));
    }
}
