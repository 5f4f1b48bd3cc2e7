//! What a finished run prints and writes.

use crate::json::{self, int, num, obj, text, Value};
use crate::run::{out_dir, Report, Settings};

/// The result object the last stdout line carries.
pub fn result_line(report: &Report) -> Value {
    let metrics = report.metrics.rows().map(|(def, value)| {
        (
            def.name,
            obj([("value", num(value)), ("unit", text(def.unit))]),
        )
    });
    obj([
        ("correct", Value::Bool(report.correct)),
        ("attempted", int(report.attempted as u64)),
        ("failed", int(report.failed as u64)),
        ("metrics", obj(metrics)),
    ])
}

/// Prints every metric by name with its unit.
pub fn print_table(settings: Settings, trace: bool, report: &Report) {
    println!(
        "# {} seed {:#x} trace {} ({} ops attempted, {} failed)",
        settings.workload.name(),
        settings.seed,
        u8::from(trace),
        report.attempted,
        report.failed
    );
    for (def, value) in report.metrics.rows() {
        println!("{:<34} {value:>18.6} {}", def.name, def.unit);
    }
}

/// Writes `ledger/out/<workload>[.trace].json`.
///
/// # Errors
///
/// The file or its directory cannot be written.
pub fn write_file(settings: Settings, trace: bool, report: &Report) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let name = settings.workload.name();
    let file = dir.join(format!("{name}{}.json", if trace { ".trace" } else { "" }));
    let body = obj([
        ("workload", text(name)),
        ("seed", int(settings.seed)),
        ("smoke", Value::Bool(settings.smoke)),
        ("result", result_line(report)),
        ("detail", report.detail.clone()),
    ]);
    std::fs::write(&file, json::pretty(body))
        .map_err(|e| format!("cannot write {}: {e}", file.display()))
}

/// The table, the file, and the result line as the last line of
/// standard output.
///
/// # Errors
///
/// See [`write_file`].
pub fn emit(settings: Settings, trace: bool, report: &Report) -> Result<(), String> {
    print_table(settings, trace, report);
    write_file(settings, trace, report)?;
    println!("{}", json::line(result_line(report)));
    Ok(())
}

/// A run's result line, parsed back (plus what the watchdog saw).
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in emission order.
    pub metrics: Vec<(String, f64)>,
    /// Attempts the watchdog had to kill or found dead before this one.
    pub casualties: u64,
}

impl Outcome {
    /// What `report`'s result line would parse back to.
    pub fn of(report: &Report) -> Outcome {
        Outcome {
            correct: report.correct,
            attempted: report.attempted as u64,
            failed: report.failed as u64,
            metrics: report
                .metrics
                .rows()
                .map(|(def, value)| (def.name.to_string(), value))
                .collect(),
            casualties: 0,
        }
    }

    /// Parses a result line.
    ///
    /// # Errors
    ///
    /// The line is not a result object.
    pub fn parse(line: &str) -> Result<Outcome, String> {
        let value = json::parse(line)?;
        let count = |key: &str| {
            value
                .get(key)
                .and_then(Value::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or_else(|| format!("result line has no `{key}`"))
        };
        let metrics = match value.get("metrics") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .map(|(name, m)| {
                    let v = m.get("value").and_then(Value::as_f64);
                    v.map(|v| (name.clone(), v))
                        .ok_or_else(|| format!("metric `{name}` has no value"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err("result line has no `metrics`".into()),
        };
        Ok(Outcome {
            correct: value.get("correct") == Some(&Value::Bool(true)),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
            casualties: 0,
        })
    }

    /// The value reported for `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// `{name: value}` of every metric.
    pub fn to_json(&self) -> Value {
        obj(self.metrics.iter().map(|(n, v)| (n.clone(), num(*v))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_parse_back() {
        let line = r#"{"correct":true,"attempted":12,"failed":0,"metrics":{"wall_s":{"value":3.25,"unit":"s"},"setup_s":{"value":5,"unit":"s"}}}"#;
        let outcome = Outcome::parse(line).unwrap();
        assert!(outcome.correct);
        assert_eq!((outcome.attempted, outcome.failed), (12, 0));
        assert_eq!(outcome.metric("wall_s"), Some(3.25));
        assert_eq!(outcome.metric("setup_s"), Some(5.0));
        assert_eq!(outcome.metric("nope"), None);
        assert!(Outcome::parse("not json").is_err());
        assert!(Outcome::parse(r#"{"correct":true}"#).is_err());
    }
}
