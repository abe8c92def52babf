//! Property-based tests for the SEQUITUR grammar, suffix toolkit, and the
//! opportunity analyses built on them.

use proptest::prelude::*;
use tifs_sequitur::categorize::{categorize, CategoryCounts, MissClass};
use tifs_sequitur::grammar::Sequitur;
use tifs_sequitur::heuristics::{evaluate_all, evaluate_heuristic, Heuristic, HeuristicConfig};
use tifs_sequitur::streams::stream_occurrences;
use tifs_sequitur::suffix::{suffix_array, LceIndex};

/// Small-alphabet traces force heavy repetition, the regime SEQUITUR targets.
fn small_alphabet_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..6, 0..300)
}

/// Wider-alphabet traces exercise the sparse-repetition paths.
fn wide_alphabet_trace() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec(0u64..1000, 0..200)
}

prop_compose! {
    /// All-distinct symbols in scrambled order: the initial rank sort
    /// already separates every suffix.
    fn distinct_trace(len: std::ops::Range<usize>)(n in len.clone(), salt in any::<u64>()) -> Vec<u64> {
        // Multiplying by an odd constant and xoring a salt are both
        // bijections on u64, so the symbols stay distinct.
        (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt).collect()
    }
}

prop_compose! {
    /// One symbol repeated: every suffix is a prefix of the next longer
    /// one, so prefix doubling needs all of its log n rounds.
    fn run_trace(len: std::ops::Range<usize>)(n in len.clone(), sym in any::<u64>()) -> Vec<u64> {
        vec![sym; n]
    }
}

/// Traces shaped for the suffix toolkit: a small alphabet `0..alphabet`,
/// full-range `u64` symbols with the extremes mixed in, all-distinct
/// symbols, and single-symbol runs.
fn suffix_trace(alphabet: u64, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u64>> {
    let full_range = prop_oneof![any::<u64>(), Just(u64::MAX), Just(u64::MAX - 1), Just(0u64)];
    prop_oneof![
        prop::collection::vec(0u64..alphabet, len.clone()),
        prop::collection::vec(full_range, len.clone()),
        distinct_trace(len.clone()),
        run_trace(len),
    ]
}

proptest! {
    #[test]
    fn grammar_roundtrips_small_alphabet(trace in small_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        s.assert_invariants();
        let g = s.into_grammar();
        prop_assert_eq!(g.expand(), trace);
    }

    #[test]
    fn grammar_roundtrips_wide_alphabet(trace in wide_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        s.assert_invariants();
        let g = s.into_grammar();
        prop_assert_eq!(g.expand(), trace);
    }

    #[test]
    fn grammar_invariants_hold_incrementally(trace in prop::collection::vec(0u64..4, 0..80)) {
        let mut s = Sequitur::new();
        for x in trace {
            s.push(x);
            s.assert_invariants();
        }
    }

    #[test]
    fn grammar_never_larger_than_input(trace in small_alphabet_trace()) {
        let mut s = Sequitur::new();
        s.extend(trace.iter().copied());
        let g = s.into_grammar();
        // Grammar size counts all rule bodies; it can exceed the input only
        // by bounded overhead, and for n >= 1 SEQUITUR never inflates.
        prop_assert!(g.stats().grammar_size <= trace.len().max(1));
    }

    #[test]
    fn suffix_array_matches_naive(trace in suffix_trace(8, 0..120)) {
        let sa = suffix_array(&trace);
        let mut naive: Vec<u32> = (0..trace.len() as u32).collect();
        naive.sort_by(|&a, &b| trace[a as usize..].cmp(&trace[b as usize..]));
        prop_assert_eq!(sa, naive);
    }

    #[test]
    fn lce_matches_naive(
        trace in suffix_trace(5, 1..150),
        picks in prop::collection::vec((0usize..150, 0usize..150), 1..20),
    ) {
        let idx = LceIndex::new(&trace);
        for (a, b) in picks {
            let i = a % trace.len();
            let j = b % trace.len();
            let mut k = 0;
            while i + k < trace.len() && j + k < trace.len() && trace[i + k] == trace[j + k] {
                k += 1;
            }
            prop_assert_eq!(idx.lce(i, j), k, "lce({}, {})", i, j);
        }
    }

    #[test]
    fn categorize_partitions_trace(trace in small_alphabet_trace()) {
        let classes = categorize(&trace);
        prop_assert_eq!(classes.len(), trace.len());
        let counts = CategoryCounts::from_classes(&classes);
        prop_assert_eq!(counts.total(), trace.len());
    }

    #[test]
    fn first_occurrence_of_each_symbol_is_never_opportunity(trace in small_alphabet_trace()) {
        // A symbol's very first appearance in the trace cannot repeat a
        // prior stream; it must be New or NonRepetitive.
        let classes = categorize(&trace);
        let mut seen = std::collections::HashSet::new();
        for (i, &sym) in trace.iter().enumerate() {
            if seen.insert(sym) {
                prop_assert!(
                    classes[i] == MissClass::New || classes[i] == MissClass::NonRepetitive,
                    "position {} (first occurrence of {}) classified {:?}",
                    i, sym, classes[i]
                );
            }
        }
    }

    #[test]
    fn recurrences_are_disjoint_and_in_bounds(trace in small_alphabet_trace()) {
        let occs = stream_occurrences(&trace);
        let mut last_end = 0usize;
        for o in occs.iter().filter(|o| o.occurrence >= 2) {
            prop_assert!(o.start >= last_end);
            prop_assert!(o.start + o.len <= trace.len());
            prop_assert!(o.len >= 2, "rules expand to >= 2 terminals");
            last_end = o.start + o.len;
        }
    }

    #[test]
    fn heuristic_accounting_is_consistent(
        trace in prop::collection::vec(0u64..10, 0..200),
    ) {
        for h in Heuristic::ALL {
            let out = evaluate_heuristic(&trace, &HeuristicConfig::new(h));
            prop_assert_eq!(out.total_misses, trace.len());
            prop_assert!(out.eliminated <= trace.len());
            prop_assert!(out.failed_lookups <= out.lookups);
            if h == Heuristic::Digram {
                prop_assert!(out.eliminated + out.lookups <= out.total_misses + out.lookups);
            } else {
                // Every miss is either a lookup head or eliminated.
                prop_assert_eq!(out.eliminated + out.lookups, out.total_misses);
            }
            prop_assert!(out.coverage() <= 1.0);
        }
    }

    #[test]
    fn evaluate_all_matches_single_policy_replays(
        trace in prop_oneof![small_alphabet_trace(), wide_alphabet_trace()],
        k in 1usize..=16,
    ) {
        // One shared suffix index must give every policy exactly the
        // outcome of its own index.
        let all = evaluate_all(&trace, k);
        prop_assert_eq!(all.len(), Heuristic::ALL.len());
        for (&h, &(got_h, got)) in Heuristic::ALL.iter().zip(&all) {
            let want = evaluate_heuristic(&trace, &HeuristicConfig { heuristic: h, max_candidates: k });
            prop_assert_eq!(got_h, h);
            prop_assert_eq!(got.total_misses, want.total_misses, "{:?} total_misses", h);
            prop_assert_eq!(got.eliminated, want.eliminated, "{:?} eliminated", h);
            prop_assert_eq!(got.lookups, want.lookups, "{:?} lookups", h);
            prop_assert_eq!(got.failed_lookups, want.failed_lookups, "{:?} failed_lookups", h);
        }
    }

    #[test]
    fn opportunity_dominates_with_shared_candidate_memory(
        trace in prop::collection::vec(0u64..6, 0..250),
    ) {
        // With identical candidate memory, the per-lookup oracle must be at
        // least as good as Recent and Digram (First may exceed it only if
        // the first occurrence fell out of the bounded candidate window, so
        // it is excluded here; Longest uses historic rather than actual
        // match lengths and is likewise excluded).
        let k = 64; // effectively unbounded for these sizes
        let opp = evaluate_heuristic(
            &trace,
            &HeuristicConfig { heuristic: Heuristic::Opportunity, max_candidates: k },
        );
        for h in [Heuristic::Recent, Heuristic::Digram, Heuristic::First, Heuristic::Longest] {
            let out = evaluate_heuristic(
                &trace,
                &HeuristicConfig { heuristic: h, max_candidates: k },
            );
            prop_assert!(
                opp.eliminated >= out.eliminated,
                "{:?} eliminated {} > oracle {}",
                h, out.eliminated, opp.eliminated
            );
        }
    }
}
