//! Functional (timing-free) TIFS model for coverage sweeps.
//!
//! Paper Figure 11 measures TIFS predictor coverage as a function of IML
//! storage capacity assuming a perfect, dedicated Index Table. That study
//! needs no timing: this model consumes an L1-I miss trace directly and
//! replays the TIFS logic — log at every miss, look up the most recent
//! occurrence, follow the stream through a small lookahead window (the
//! SVB's reorder tolerance).
//!
//! # Capacity lanes
//!
//! In this model only two things depend on the IML capacity:
//!
//! * **retention** — whether an absolute log position `pos` is still held,
//!   i.e. `pos + capacity >= appended` for the owning core's log;
//! * **stream contexts** — the per-core follow state the coverage
//!   decisions steer.
//!
//! Everything else is capacity-independent: every miss is appended to its
//! core's log at the next absolute position, and the dedicated, unbounded
//! Index Table is pointed at it, whatever was covered. So one engine
//! serves any number of capacities at once ([`FunctionalTifs::with_capacities`]):
//! one plain block log per core and one [`IndexTable`] shared by all
//! lanes, and per lane only its stream contexts and its
//! [`FunctionalReport`]. A lane gives exactly the results a one-capacity
//! run would.
//!
//! Cost per miss: one index lookup, one index update and one log append,
//! plus `lanes × stream_contexts × window` block compares over slices of
//! the shared logs (no allocation). The logs keep every miss, at 8 bytes
//! each, rather than a ring per capacity; retention is a position test,
//! not an eviction.

use tifs_trace::BlockAddr;

use crate::index::{ImlPtr, IndexKind, IndexTable};

/// Configuration of the functional model.
#[derive(Clone, Copy, Debug)]
pub struct FunctionalConfig {
    /// IML entries retained per core (`None` = unbounded).
    pub iml_entries_per_core: Option<usize>,
    /// Concurrent streams per core.
    pub stream_contexts: usize,
    /// Lookahead window per stream (models the SVB's rate-matching depth
    /// plus its associative slack).
    pub window: usize,
}

impl Default for FunctionalConfig {
    fn default() -> Self {
        FunctionalConfig {
            iml_entries_per_core: Some(8192),
            stream_contexts: 4,
            window: 8,
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct FStream {
    active: bool,
    src_core: usize,
    pos: u64,
    last_use: u64,
}

/// Coverage outcome of a functional run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FunctionalReport {
    /// Misses processed.
    pub misses: u64,
    /// Misses covered by stream following.
    pub covered: u64,
    /// Lookups with no valid pointer.
    pub failed_lookups: u64,
}

impl FunctionalReport {
    /// Covered fraction of all misses.
    pub fn coverage(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.covered as f64 / self.misses as f64
        }
    }
}

/// The state one IML capacity owns.
#[derive(Clone, Debug)]
struct Lane {
    /// Entries retained per core (`u64::MAX` = unbounded).
    capacity: u64,
    /// `stream_contexts` streams per core, core-major.
    streams: Vec<FStream>,
    /// Whether the most recent miss was covered in this lane.
    last_covered: bool,
}

/// Whether a log retaining `capacity` entries that has seen `appended`
/// misses still holds position `pos`.
#[inline]
fn retains(capacity: u64, pos: u64, appended: u64) -> bool {
    pos < appended && appended - pos <= capacity
}

/// The functional TIFS model: one shared miss log and Index Table, and
/// one lane of stream state per IML capacity.
#[derive(Clone, Debug)]
pub struct FunctionalTifs {
    stream_contexts: usize,
    window: usize,
    /// Every miss of each core, at its absolute log position.
    logs: Vec<Vec<BlockAddr>>,
    index: IndexTable,
    lanes: Vec<Lane>,
    reports: Vec<FunctionalReport>,
    clock: u64,
}

impl FunctionalTifs {
    /// Creates the model for `num_cores` cores (one lane, at
    /// `cfg.iml_entries_per_core`).
    pub fn new(num_cores: usize, cfg: FunctionalConfig) -> FunctionalTifs {
        FunctionalTifs::with_capacities(num_cores, cfg, &[cfg.iml_entries_per_core])
    }

    /// Creates the model with one lane per entry of `capacities` (IML
    /// entries per core, `None` = unbounded); every lane uses `cfg`'s
    /// stream contexts and window, and `cfg.iml_entries_per_core` is
    /// not read.
    pub fn with_capacities(
        num_cores: usize,
        cfg: FunctionalConfig,
        capacities: &[Option<usize>],
    ) -> FunctionalTifs {
        assert!(!capacities.is_empty(), "at least one lane");
        let lanes = capacities
            .iter()
            .map(|&cap| {
                if let Some(c) = cap {
                    assert!(c >= 1, "capacity too small: {c}");
                }
                Lane {
                    capacity: cap.map_or(u64::MAX, |c| c as u64),
                    streams: vec![FStream::default(); num_cores * cfg.stream_contexts],
                    last_covered: false,
                }
            })
            .collect();
        FunctionalTifs {
            stream_contexts: cfg.stream_contexts,
            window: cfg.window,
            logs: vec![Vec::new(); num_cores],
            index: IndexTable::new(IndexKind::Dedicated),
            lanes,
            reports: vec![FunctionalReport::default(); capacities.len()],
            clock: 0,
        }
    }

    /// Processes one miss of `core`'s trace in every lane; returns `true`
    /// if the first lane covered it (see [`lane_covered`](Self::lane_covered)
    /// for the others).
    pub fn process(&mut self, core: usize, block: BlockAddr) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let ctxs = core * self.stream_contexts..(core + 1) * self.stream_contexts;
        // The Recent lookup is the same in every lane; only its validity
        // (retention) is per lane.
        let found = self.index.lookup(block);
        for (lane, report) in self.lanes.iter_mut().zip(&mut self.reports) {
            report.misses += 1;
            let capacity = lane.capacity;
            let streams = &mut lane.streams[ctxs.clone()];

            // Try every active stream's lookahead window.
            let mut matched: Option<(usize, u64)> = None;
            for (sid, s) in streams.iter().enumerate() {
                let log = &self.logs[s.src_core];
                let appended = log.len() as u64;
                if !s.active || !retains(capacity, s.pos, appended) {
                    continue;
                }
                let end = (s.pos + self.window as u64).min(appended);
                if let Some(off) = log[s.pos as usize..end as usize]
                    .iter()
                    .position(|&b| b == block)
                {
                    matched = Some((sid, s.pos + off as u64 + 1));
                    break;
                }
            }

            lane.last_covered = if let Some((sid, new_pos)) = matched {
                let s = &mut streams[sid];
                s.pos = new_pos;
                s.last_use = clock;
                report.covered += 1;
                true
            } else {
                match found {
                    Some(ImlPtr { core: src, pos })
                        if retains(capacity, pos, self.logs[src as usize].len() as u64) =>
                    {
                        let victim = streams
                            .iter_mut()
                            .min_by_key(|s| (s.active, s.last_use))
                            .expect("contexts exist");
                        *victim = FStream {
                            active: true,
                            src_core: src as usize,
                            pos: pos + 1,
                            last_use: clock,
                        };
                    }
                    _ => report.failed_lookups += 1,
                }
                false
            };
        }

        // Log the miss and point the index at it (every lane sees the
        // same log and table).
        let log = &mut self.logs[core];
        let pos = log.len() as u64;
        log.push(block);
        self.index.update(
            block,
            ImlPtr {
                core: core as u8,
                pos,
            },
            true,
        );
        self.lanes[0].last_covered
    }

    /// Whether the most recent [`process`](Self::process) call was
    /// covered in lane `lane` (in [`with_capacities`](Self::with_capacities)
    /// order).
    pub fn lane_covered(&self, lane: usize) -> bool {
        self.lanes[lane].last_covered
    }

    /// Processes per-core miss traces, interleaving cores round-robin (the
    /// traces are causally independent; interleaving exercises the shared
    /// index as the CMP would).
    pub fn process_interleaved(&mut self, traces: &[Vec<BlockAddr>]) {
        assert_eq!(traces.len(), self.logs.len(), "one trace per core");
        let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for (core, trace) in traces.iter().enumerate() {
                if let Some(&block) = trace.get(i) {
                    self.process(core, block);
                }
            }
        }
    }

    /// The first lane's coverage report (the only lane of a model built
    /// by [`new`](Self::new)).
    pub fn report(&self) -> FunctionalReport {
        self.reports[0]
    }

    /// Every lane's coverage report, in
    /// [`with_capacities`](Self::with_capacities) order.
    pub fn reports(&self) -> &[FunctionalReport] {
        &self.reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(v: &[u64]) -> Vec<BlockAddr> {
        v.iter().map(|&b| BlockAddr(b)).collect()
    }

    #[test]
    fn repeating_stream_is_covered() {
        let mut f = FunctionalTifs::new(1, FunctionalConfig::default());
        let stream: Vec<u64> = (100..130).collect();
        let mut covered_last_pass = 0;
        for pass in 0..4 {
            covered_last_pass = 0;
            for &b in &stream {
                if f.process(0, BlockAddr(b)) {
                    covered_last_pass += 1;
                }
            }
            if pass == 0 {
                assert_eq!(covered_last_pass, 0, "first pass trains");
            }
        }
        // All but the head should be covered on later passes.
        assert!(
            covered_last_pass >= stream.len() - 2,
            "covered {covered_last_pass}/{}",
            stream.len()
        );
    }

    #[test]
    fn random_trace_covers_nothing() {
        let mut f = FunctionalTifs::new(1, FunctionalConfig::default());
        for b in 0..500u64 {
            assert!(!f.process(0, BlockAddr(b * 7919)));
        }
        assert_eq!(f.report().covered, 0);
    }

    #[test]
    fn window_tolerates_small_deviations() {
        let mut f = FunctionalTifs::new(1, FunctionalConfig::default());
        let a = blocks(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        // Train.
        for &b in &a {
            f.process(0, b);
        }
        // Replay with one block (4) skipped: the window must re-sync.
        let mut covered = 0;
        for &b in a.iter().filter(|b| b.0 != 4) {
            if f.process(0, b) {
                covered += 1;
            }
        }
        assert!(covered >= a.len() - 3, "resync failed: {covered}");
    }

    #[test]
    fn tiny_iml_kills_coverage() {
        // With a log far smaller than the working loop, pointers die before
        // reuse and coverage collapses.
        let tiny = FunctionalConfig {
            iml_entries_per_core: Some(16),
            ..FunctionalConfig::default()
        };
        let big = FunctionalConfig {
            iml_entries_per_core: Some(4096),
            ..FunctionalConfig::default()
        };
        let loop_trace: Vec<BlockAddr> = (0..200u64).map(BlockAddr).collect();
        let run = |cfg: FunctionalConfig| {
            let mut f = FunctionalTifs::new(1, cfg);
            for _ in 0..5 {
                for &b in &loop_trace {
                    f.process(0, b);
                }
            }
            f.report().coverage()
        };
        let (small_cov, big_cov) = (run(tiny), run(big));
        assert!(
            big_cov > small_cov + 0.3,
            "capacity must matter: {small_cov} vs {big_cov}"
        );
    }

    #[test]
    fn lanes_split_at_their_own_capacity() {
        // The same loop as above, as two lanes of one engine.
        let loop_trace: Vec<BlockAddr> = (0..200u64).map(BlockAddr).collect();
        let mut f = FunctionalTifs::with_capacities(
            1,
            FunctionalConfig::default(),
            &[Some(16), Some(4096)],
        );
        for _ in 0..5 {
            for &b in &loop_trace {
                f.process(0, b);
            }
        }
        let [small, big] = f.reports() else {
            panic!("two lanes")
        };
        assert_eq!(small.misses, 1000);
        assert_eq!(big.misses, 1000);
        assert!(big.coverage() > small.coverage() + 0.3);
        assert_eq!(f.report(), *small, "report() is the first lane");
    }

    #[test]
    fn cross_core_stream_following() {
        // Core 0 trains a stream; core 1's first traversal follows core 0's
        // IML through the shared index.
        let mut f = FunctionalTifs::new(2, FunctionalConfig::default());
        let stream: Vec<u64> = (500..540).collect();
        for &b in &stream {
            f.process(0, BlockAddr(b));
        }
        let mut covered = 0;
        for &b in &stream {
            if f.process(1, BlockAddr(b)) {
                covered += 1;
            }
        }
        assert!(
            covered >= stream.len() - 2,
            "cross-core coverage {covered}/{}",
            stream.len()
        );
    }

    #[test]
    fn interleaved_processing_consumes_all() {
        let mut f = FunctionalTifs::new(2, FunctionalConfig::default());
        let t0 = blocks(&[1, 2, 3, 1, 2, 3]);
        let t1 = blocks(&[9, 8, 9, 8]);
        f.process_interleaved(&[t0, t1]);
        assert_eq!(f.report().misses, 10);
    }
}
