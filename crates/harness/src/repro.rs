//! Self-contained reproducer files: scenario + shrunk action trace +
//! the violation they reproduce, as JSON. A reproducer replays with
//! `harness replay <file>` — no generator, seed stream, or version
//! coupling; the file carries the full schema, servlets, fault plan, and
//! every action verbatim.

use crate::actions::Action;
use crate::gen::Scenario;
use crate::runner::{run_scenario, RunOutcome};
use crate::shrink::shrink;
use serde::{Deserialize, Serialize};

/// Format version (bump on any incompatible field change).
pub const REPRO_VERSION: u32 = 1;

/// Everything needed to replay a failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reproducer {
    /// Format version.
    pub version: u32,
    /// The full scenario (schema, servlets, policy, fault plan).
    pub scenario: Scenario,
    /// The (shrunk) action trace.
    pub actions: Vec<Action>,
    /// Violation this trace reproduced when it was captured.
    pub violation: String,
}

impl Reproducer {
    /// Capture a failing run: shrink the trace and package it. Panics if
    /// the trace does not actually fail (a reproducer must reproduce).
    pub fn capture(sc: &Scenario, actions: &[Action]) -> Reproducer {
        let shrunk = shrink(sc, actions);
        let outcome = run_scenario(sc, &shrunk);
        let violation = outcome
            .violation
            .expect("capture() requires a failing trace")
            .to_string();
        Reproducer {
            version: REPRO_VERSION,
            scenario: sc.clone(),
            actions: shrunk,
            violation,
        }
    }

    /// Replay the trace and return the outcome.
    pub fn replay(&self) -> RunOutcome {
        run_scenario(&self.scenario, &self.actions)
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reproducer serializes")
    }

    /// Parse from JSON, validating the format version.
    pub fn from_json(s: &str) -> Result<Reproducer, String> {
        let r: Reproducer = serde_json::from_str(s).map_err(|e| format!("bad reproducer: {e:?}"))?;
        if r.version != REPRO_VERSION {
            return Err(format!(
                "reproducer version {} unsupported (expected {REPRO_VERSION})",
                r.version
            ));
        }
        Ok(r)
    }

    /// Write to `path`.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Load from `path`.
    pub fn load(path: &std::path::Path) -> Result<Reproducer, String> {
        let s = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
        Reproducer::from_json(&s)
    }
}
