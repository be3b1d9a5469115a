//! Generative differential fuzz harness for the CachePortal safety
//! contract.
//!
//! The paper's value proposition is one invariant — **after every
//! synchronization point, no cached page differs from a fresh
//! regeneration** (§4, Example 4.1) — and this crate exists to attack it:
//!
//! - [`gen`] generates random schemas (1–5 tables, mixed column types,
//!   optional maintained indexes), random query types (selects,
//!   projections, joins, multi-conjunct predicates, aggregates) and the
//!   servlets serving them.
//! - [`actions`] generates the interleaved action stream: requests,
//!   mutations, multi-statement transactions, sync points, and policy
//!   flips.
//! - [`runner`] drives the stream through a full [`CachePortal`] while
//!   the shadow always-recompute oracle
//!   ([`CachePortal::stale_pages`]) checks zero staleness after every sync
//!   point, and the observability surfaces are cross-checked for
//!   coherence.
//! - [`faults`] sweeps the fault taxonomy through the `FaultPlan` hooks —
//!   sniffer record loss/duplication/reordering, polling errors/timeouts,
//!   mid-stream transaction aborts — asserting the system degrades
//!   *conservatively*: faults may only over-invalidate, never leave a
//!   stale page.
//! - [`shrink`](mod@shrink) + [`repro`] turn a failing run into a self-contained,
//!   shrunk reproducer file replayable with `harness replay <file>`.
//! - [`sweep`](mod@sweep) is the smoke/soak matrix CI runs.
//!
//! [`CachePortal`]: cacheportal::CachePortal
//! [`CachePortal::stale_pages`]: cacheportal::CachePortal::stale_pages

pub mod actions;
pub mod faults;
pub mod gen;
pub mod repro;
pub mod runner;
pub mod shrink;
pub mod sweep;

pub use actions::{gen_actions, Action, Stmt};
pub use faults::{FaultClass, ALL_CLASSES};
pub use gen::{Scenario, ServletGen, ServletKind, TableGen};
pub use repro::Reproducer;
pub use runner::{run_scenario, run_scenario_on, RunOutcome, RunStats, Violation};
pub use shrink::shrink;
pub use sweep::{cell_lines, markdown_table, sweep, sweep_scenario, SweepConfig, SweepOutcome};
