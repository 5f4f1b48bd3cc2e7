//! Tuned programs: the autotuner's output artifact.
//!
//! Training produces, for each accuracy bin, the fastest configuration
//! that meets the bin's target (§5.5.4). A [`TunedProgram`] stores those
//! per-bin configurations plus the observed statistics, and supports the
//! runtime lookup described in §4.2: "If a user wishes to call a
//! transform with an unknown accuracy level, we support dynamically
//! looking up the correct bin that will obtain a requested accuracy."

use pb_config::{AccuracyBins, Config};

/// The trained configuration for one accuracy bin.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedEntry {
    /// The bin's accuracy target.
    pub target: f64,
    /// The winning configuration for this bin.
    pub config: Config,
    /// Mean accuracy observed during training.
    pub observed_accuracy: f64,
    /// Mean cost observed during training (per the tuner's cost model).
    pub observed_time: f64,
}

serde::json_object!(TunedEntry {
    target,
    config,
    observed_accuracy,
    observed_time,
});

/// A fully trained variable-accuracy program: one configuration per
/// accuracy bin.
///
/// # Examples
///
/// ```
/// use pb_config::{AccuracyBins, Schema};
/// use pb_runtime::{TunedEntry, TunedProgram};
///
/// let mut schema = Schema::new("demo");
/// schema.add_accuracy_variable("iters", 1, 100);
/// let bins = AccuracyBins::new(vec![0.5, 0.9]);
/// let entries = vec![
///     TunedEntry { target: 0.5, config: schema.default_config(),
///                  observed_accuracy: 0.6, observed_time: 1.0 },
///     TunedEntry { target: 0.9, config: schema.default_config(),
///                  observed_accuracy: 0.95, observed_time: 3.0 },
/// ];
/// let tuned = TunedProgram::new("demo", bins, entries);
/// // A request for accuracy 0.7 is served by the 0.9 bin.
/// assert_eq!(tuned.entry_meeting(0.7).unwrap().target, 0.9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TunedProgram {
    transform: String,
    bins: AccuracyBins,
    entries: Vec<TunedEntry>,
}

serde::json_object!(TunedProgram {
    transform,
    bins,
    entries
});

impl TunedProgram {
    /// Assembles a tuned program.
    ///
    /// # Panics
    ///
    /// Panics if the entries do not line up one-to-one (same order) with
    /// the bins' targets.
    pub fn new(transform: impl Into<String>, bins: AccuracyBins, entries: Vec<TunedEntry>) -> Self {
        let program = TunedProgram {
            transform: transform.into(),
            bins,
            entries,
        };
        if let Err(e) = program.check() {
            panic!("{e}");
        }
        program
    }

    /// The invariants every lookup relies on: non-empty, ascending,
    /// distinct bin targets, and one entry per bin carrying its target.
    fn check(&self) -> Result<(), String> {
        let targets = self.bins.targets();
        if targets.is_empty() || !targets.windows(2).all(|w| w[0] < w[1]) {
            return Err("accuracy bin targets must be non-empty, sorted and distinct".into());
        }
        if targets.len() != self.entries.len() {
            return Err("one tuned entry is required per accuracy bin".into());
        }
        for (i, (entry, &target)) in self.entries.iter().zip(targets).enumerate() {
            if entry.target != target {
                return Err(format!("entry {i} target does not match its bin"));
            }
        }
        Ok(())
    }

    /// Name of the transform this program was trained for.
    pub fn transform(&self) -> &str {
        &self.transform
    }

    /// The accuracy bins the program was trained over.
    pub fn bins(&self) -> &AccuracyBins {
        &self.bins
    }

    /// All per-bin entries, in ascending accuracy-target order.
    pub fn entries(&self) -> &[TunedEntry] {
        &self.entries
    }

    /// The entry for bin `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn entry(&self, index: usize) -> &TunedEntry {
        &self.entries[index]
    }

    /// The cheapest entry whose bin target meets `required` accuracy, or
    /// `None` if the program was not trained that high.
    pub fn entry_meeting(&self, required: f64) -> Option<&TunedEntry> {
        let idx = self.bins.bin_meeting(required)?;
        Some(&self.entries[idx])
    }

    /// The index of the cheapest bin meeting `required`, for callers
    /// that need to escalate to higher bins on verification failure.
    pub fn bin_meeting(&self, required: f64) -> Option<usize> {
        self.bins.bin_meeting(required)
    }

    /// Serializes the program to a JSON config-file body.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("TunedProgram serialization cannot fail")
    }

    /// Parses a tuned program from JSON.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message, or the broken
    /// invariant [`TunedProgram::new`] would have panicked on.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let program: TunedProgram = serde_json::from_str(json).map_err(|e| e.to_string())?;
        program.check()?;
        Ok(program)
    }

    /// Writes the program to a config file on disk — the paper's
    /// "choice configuration file" artifact, consumed directly by the
    /// output binary on later runs.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn save_to(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Loads a program from a config file written by
    /// [`TunedProgram::save_to`].
    ///
    /// # Errors
    ///
    /// Returns I/O errors, or `InvalidData` for malformed JSON or an
    /// inconsistent program.
    pub fn load_from(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pb_config::{Schema, Value};

    /// The persisted form of a two-bin program. Tuned programs already
    /// on disk are in this form, so it may not move by a byte.
    const GOLDEN: &str = r#"{
  "transform": "golden",
  "bins": {
    "targets": [
      0.5,
      0.95
    ]
  },
  "entries": [
    {
      "target": 0.5,
      "config": {
        "transform": "golden",
        "values": [
          {
            "Int": 7
          }
        ]
      },
      "observed_accuracy": 0.625,
      "observed_time": 1.0
    },
    {
      "target": 0.95,
      "config": {
        "transform": "golden",
        "values": [
          {
            "Int": 1
          }
        ]
      },
      "observed_accuracy": 0.96875,
      "observed_time": 0.00000015
    }
  ]
}"#;

    #[test]
    fn json_form_is_pinned() {
        let mut schema = Schema::new("golden");
        schema.add_accuracy_variable("iters", 1, 100);
        let mut fast = schema.default_config();
        fast.set_by_name(&schema, "iters", Value::Int(7)).unwrap();
        let entry = |target, config, observed_accuracy, observed_time| TunedEntry {
            target,
            config,
            observed_accuracy,
            observed_time,
        };
        let entries = vec![
            entry(0.5, fast, 0.625, 1.0),
            entry(0.95, schema.default_config(), 0.96875, 1.5e-7),
        ];
        let program = TunedProgram::new("golden", AccuracyBins::new(vec![0.5, 0.95]), entries);
        assert_eq!(program.to_json(), GOLDEN);
        assert_eq!(TunedProgram::from_json(GOLDEN).unwrap(), program);
    }

    fn demo_program() -> TunedProgram {
        let mut schema = Schema::new("demo");
        schema.add_accuracy_variable("iters", 1, 100);
        let bins = AccuracyBins::new(vec![0.2, 0.5, 0.9]);
        let entries = bins
            .targets()
            .iter()
            .map(|&t| TunedEntry {
                target: t,
                config: schema.default_config(),
                observed_accuracy: t,
                observed_time: 1.0,
            })
            .collect();
        TunedProgram::new("demo", bins, entries)
    }

    #[test]
    fn entry_meeting_selects_cheapest_sufficient_bin() {
        let p = demo_program();
        assert_eq!(p.entry_meeting(0.1).unwrap().target, 0.2);
        assert_eq!(p.entry_meeting(0.2).unwrap().target, 0.2);
        assert_eq!(p.entry_meeting(0.3).unwrap().target, 0.5);
        assert_eq!(p.entry_meeting(0.9).unwrap().target, 0.9);
        assert!(p.entry_meeting(0.95).is_none());
    }

    #[test]
    fn json_round_trip() {
        let p = demo_program();
        let back = TunedProgram::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn save_and_load_config_file() {
        let p = demo_program();
        let dir = std::env::temp_dir().join(format!("pb_tuned_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.cfg.json");
        p.save_to(&path).unwrap();
        let back = TunedProgram::load_from(&path).unwrap();
        assert_eq!(p, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_from_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("pb_tuned_bad_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.cfg.json");
        // Well-formed programs `new` would reject: no entries for three
        // bins, and bins (with matching entries) in descending order.
        let mut unsorted = demo_program();
        unsorted.entries.reverse();
        unsorted.bins = serde_json::from_str(r#"{"targets": [0.9, 0.5, 0.2]}"#).unwrap();
        for body in [
            "not json".to_string(),
            r#"{"transform": "d", "bins": {"targets": [0.2, 0.5, 0.9]}, "entries": []}"#
                .to_string(),
            unsorted.to_json(),
        ] {
            std::fs::write(&path, &body).unwrap();
            let err = TunedProgram::load_from(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{body}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "one tuned entry is required per accuracy bin")]
    fn mismatched_entry_count_rejected() {
        let bins = AccuracyBins::new(vec![0.5, 0.9]);
        TunedProgram::new("x", bins, vec![]);
    }

    #[test]
    #[should_panic(expected = "does not match its bin")]
    fn mismatched_targets_rejected() {
        let mut schema = Schema::new("x");
        schema.add_accuracy_variable("v", 1, 2);
        let bins = AccuracyBins::new(vec![0.5]);
        let entries = vec![TunedEntry {
            target: 0.7,
            config: schema.default_config(),
            observed_accuracy: 0.7,
            observed_time: 1.0,
        }];
        TunedProgram::new("x", bins, entries);
    }
}
