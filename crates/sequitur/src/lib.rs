//! SEQUITUR grammar inference and temporal-stream opportunity analysis.
//!
//! This crate implements the offline analysis machinery of *Temporal
//! Instruction Fetch Streaming* (Ferdman et al., MICRO 2008), Section 4:
//!
//! * [`Sequitur`] — the SEQUITUR hierarchical grammar-compression algorithm
//!   (Nevill-Manning & Witten), used by the paper to identify recurring
//!   subsequences ("temporal instruction streams") in L1-I miss traces.
//! * [`categorize`](categorize::categorize) — classifies every miss in a trace
//!   as `Opportunity`, `Head`, `New`, or `NonRepetitive` (paper Figure 3/4).
//! * [`streams`] — extracts recurring stream lengths and their
//!   cumulative distribution (paper Figure 5).
//! * [`heuristics`] — replays the stream lookup heuristics
//!   `First`, `Digram`, `Recent`, `Longest` against the `Opportunity` bound
//!   (paper Figure 6).
//! * [`suffix`] — a suffix array / LCP / range-minimum toolkit giving
//!   longest-common-extension queries over a trace, used by the
//!   heuristic replay and as an independent cross-check on SEQUITUR.
//!
//! The crate is generic over the meaning of a symbol: traces are slices of
//! `u64` (in TIFS, cache-block addresses).
//!
//! # Example
//!
//! ```
//! use tifs_sequitur::{Sequitur, categorize::{categorize, MissClass}};
//!
//! // The paper's Figure 4 trace: p q r s  w x y z  w x y z  w x y z
//! let trace: Vec<u64> = vec![1, 2, 3, 4, 10, 11, 12, 13, 10, 11, 12, 13, 10, 11, 12, 13];
//! let mut seq = Sequitur::new();
//! seq.extend(trace.iter().copied());
//! let grammar = seq.into_grammar();
//! assert_eq!(grammar.expand(), trace);
//!
//! let classes = categorize(&trace);
//! // p q r s never repeat:
//! assert!(classes[..4].iter().all(|c| *c == MissClass::NonRepetitive));
//! ```

#![forbid(unsafe_code)]

pub mod categorize;
pub mod grammar;
pub mod heuristics;
pub mod streaming;
pub mod streams;
pub mod suffix;

pub use categorize::{categorize, CategoryCounts, MissClass};
pub use grammar::{Grammar, GrammarStats, Rule, Sequitur, Sym};
pub use heuristics::{evaluate_heuristic, Heuristic, HeuristicConfig, HeuristicOutcome};
pub use streaming::{StreamingSequitur, GRAMMAR_NODE_BYTES};
pub use streams::{stream_occurrences, walk_grammar, GrammarWalk, LengthCdf, StreamOccurrence};
pub use suffix::LceIndex;
