//! Lane-engine equivalence for the functional TIFS model: every capacity
//! lane of [`FunctionalTifs`] must report exactly what the model it
//! replaced reports at that capacity — per miss (`covered`) and in total
//! (misses, covered, failed lookups). The replaced model, which keeps one
//! ring-buffer `Iml` per core per capacity, is frozen below as the oracle.
//!
//! Block values avoid `u64::MAX` itself: the Index Table's `BlockMap`
//! reserves it as its empty-slot sentinel (no block address, an
//! instruction address divided by 64, can reach it), so the widest values
//! drawn are `u64::MAX - 1` and the rest of the full range.

use proptest::prelude::*;
use tifs_core::functional::{FunctionalConfig, FunctionalReport, FunctionalTifs};
use tifs_trace::BlockAddr;

/// The functional model before capacity lanes, verbatim: one `Iml` per
/// core at a single capacity, one Index Table, one set of streams.
mod oracle {
    use tifs_core::functional::{FunctionalConfig, FunctionalReport};
    use tifs_core::iml::Iml;
    use tifs_core::index::{ImlPtr, IndexKind, IndexTable};
    use tifs_trace::BlockAddr;

    #[derive(Clone, Debug)]
    struct FStream {
        active: bool,
        src_core: usize,
        pos: u64,
        last_use: u64,
    }

    /// The functional TIFS model.
    #[derive(Clone, Debug)]
    pub struct FunctionalTifs {
        cfg: FunctionalConfig,
        imls: Vec<Iml>,
        index: IndexTable,
        streams: Vec<Vec<FStream>>,
        clock: u64,
        report: FunctionalReport,
    }

    impl FunctionalTifs {
        /// Creates the model for `num_cores` cores.
        pub fn new(num_cores: usize, cfg: FunctionalConfig) -> FunctionalTifs {
            FunctionalTifs {
                cfg,
                imls: (0..num_cores)
                    .map(|_| Iml::new(cfg.iml_entries_per_core))
                    .collect(),
                index: IndexTable::new(IndexKind::Dedicated),
                streams: (0..num_cores)
                    .map(|_| {
                        (0..cfg.stream_contexts)
                            .map(|_| FStream {
                                active: false,
                                src_core: 0,
                                pos: 0,
                                last_use: 0,
                            })
                            .collect()
                    })
                    .collect(),
                clock: 0,
                report: FunctionalReport::default(),
            }
        }

        /// Processes one miss of `core`'s trace; returns `true` if covered.
        pub fn process(&mut self, core: usize, block: BlockAddr) -> bool {
            self.clock += 1;
            self.report.misses += 1;

            // Try every active stream's lookahead window.
            let mut matched: Option<(usize, u64)> = None;
            for (sid, s) in self.streams[core].iter().enumerate() {
                if !s.active {
                    continue;
                }
                let window = self.imls[s.src_core].read_group(s.pos, self.cfg.window);
                if let Some(off) = window.iter().position(|e| e.block == block) {
                    matched = Some((sid, s.pos + off as u64 + 1));
                    break;
                }
            }

            let covered = if let Some((sid, new_pos)) = matched {
                let s = &mut self.streams[core][sid];
                s.pos = new_pos;
                s.last_use = self.clock;
                self.report.covered += 1;
                true
            } else {
                // Stream lookup (Recent heuristic via the shared index).
                match self.index.lookup(block) {
                    Some(ImlPtr { core: src, pos }) if self.imls[src as usize].is_valid(pos) => {
                        let clock = self.clock;
                        let victim = self.streams[core]
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
                    _ => self.report.failed_lookups += 1,
                }
                false
            };

            // Log the miss (SVB hits are logged too) and point the index at it.
            let pos = self.imls[core].append(block, covered);
            self.index.update(
                block,
                ImlPtr {
                    core: core as u8,
                    pos,
                },
                true,
            );
            covered
        }

        /// Processes per-core miss traces, interleaving cores round-robin (the
        /// traces are causally independent; interleaving exercises the shared
        /// index as the CMP would).
        pub fn process_interleaved(&mut self, traces: &[Vec<BlockAddr>]) {
            assert_eq!(traces.len(), self.streams.len(), "one trace per core");
            let mut cursors = vec![0usize; traces.len()];
            loop {
                let mut progressed = false;
                for (core, trace) in traces.iter().enumerate() {
                    if cursors[core] < trace.len() {
                        self.process(core, trace[cursors[core]]);
                        cursors[core] += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }

        /// The coverage report.
        pub fn report(&self) -> FunctionalReport {
            self.report
        }
    }
}

/// The capacities every lane test covers: below the window of 8, one
/// virtualized group, the default, and unbounded.
const CAPACITIES: [Option<usize>; 6] = [Some(1), Some(2), Some(7), Some(12), Some(8192), None];

/// Deterministic trace generator (splitmix-style).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn config(window: usize, stream_contexts: usize) -> FunctionalConfig {
    FunctionalConfig {
        window,
        stream_contexts,
        ..FunctionalConfig::default()
    }
}

/// The `(core, block)` order `process_interleaved` visits: round-robin
/// over cores, each core's trace in order, shorter traces dropping out.
fn interleave(traces: &[Vec<BlockAddr>]) -> Vec<(usize, BlockAddr)> {
    let longest = traces.iter().map(Vec::len).max().unwrap_or(0);
    (0..longest)
        .flat_map(|i| {
            traces
                .iter()
                .enumerate()
                .filter_map(move |(c, t)| t.get(i).map(|&b| (c, b)))
        })
        .collect()
}

/// Replays `traces` miss by miss through one lane engine and one
/// reference per lane, requiring identical `covered` on every miss and
/// identical reports at the end.
fn assert_lanes_match<R>(
    traces: &[Vec<BlockAddr>],
    cfg: FunctionalConfig,
    capacities: &[Option<usize>],
    mut references: Vec<R>,
    step: impl Fn(&mut R, usize, BlockAddr) -> bool,
    report: impl Fn(&R) -> FunctionalReport,
) -> Result<(), proptest::TestCaseError> {
    let mut engine = FunctionalTifs::with_capacities(traces.len(), cfg, capacities);
    for (i, (core, block)) in interleave(traces).into_iter().enumerate() {
        let first = engine.process(core, block);
        prop_assert_eq!(first, engine.lane_covered(0));
        for (lane, r) in references.iter_mut().enumerate() {
            let expected = step(r, core, block);
            prop_assert!(
                engine.lane_covered(lane) == expected,
                "miss {i} (core {core}, {block:?}), capacity {:?}: lane covered {}, reference {expected}",
                capacities[lane],
                engine.lane_covered(lane)
            );
        }
    }
    let expected: Vec<FunctionalReport> = references.iter().map(report).collect();
    prop_assert_eq!(engine.reports(), &expected[..]);
    Ok(())
}

fn oracles(
    cores: usize,
    cfg: FunctionalConfig,
    capacities: &[Option<usize>],
) -> Vec<oracle::FunctionalTifs> {
    capacities
        .iter()
        .map(|&cap| {
            oracle::FunctionalTifs::new(
                cores,
                FunctionalConfig {
                    iml_entries_per_core: cap,
                    ..cfg
                },
            )
        })
        .collect()
}

prop_compose! {
    /// 1–4 cores of unequal length, over a small alphabet (heavy reuse,
    /// cross-core following) or a small palette of wide values
    /// (`u64::MAX - 1`, 0 and the full range mixed in).
    fn core_traces()(
        cores in 1usize..5,
        wide in any::<bool>(),
        alphabet in 2u64..12,
        palette in prop::collection::vec(
            prop_oneof![0u64..u64::MAX, Just(u64::MAX - 1), Just(0u64), Just(u64::MAX >> 6)],
            12..13,
        ),
        lens in prop::collection::vec(0usize..240, 4..5),
        seed in any::<u64>(),
    ) -> Vec<Vec<BlockAddr>> {
        let mut rng = Rng(seed);
        (0..cores)
            .map(|c| {
                (0..lens[c])
                    .map(|_| {
                        let i = rng.next() % alphabet;
                        BlockAddr(if wide { palette[i as usize] } else { i })
                    })
                    .collect()
            })
            .collect()
    }
}

proptest! {
    #[test]
    fn every_lane_matches_the_oracle_per_miss(
        traces in core_traces(),
        window in 1usize..10,
        contexts in 1usize..6,
    ) {
        let cfg = config(window, contexts);
        assert_lanes_match(
            &traces,
            cfg,
            &CAPACITIES,
            oracles(traces.len(), cfg, &CAPACITIES),
            |o, core, block| o.process(core, block),
            |o| o.report(),
        )?;
    }

    #[test]
    fn default_config_lanes_match_the_oracle_interleaved(traces in core_traces()) {
        let cfg = FunctionalConfig::default();
        let mut engine = FunctionalTifs::with_capacities(traces.len(), cfg, &CAPACITIES);
        engine.process_interleaved(&traces);
        for (lane, mut o) in oracles(traces.len(), cfg, &CAPACITIES).into_iter().enumerate() {
            o.process_interleaved(&traces);
            prop_assert_eq!(engine.reports()[lane], o.report());
        }
    }

    #[test]
    fn k_lanes_equal_k_one_lane_engines(
        traces in core_traces(),
        capacities in prop::collection::vec(prop::option::of(1usize..40), 1..9),
    ) {
        let cfg = FunctionalConfig::default();
        let singles = capacities
            .iter()
            .map(|&cap| {
                FunctionalTifs::new(
                    traces.len(),
                    FunctionalConfig {
                        iml_entries_per_core: cap,
                        ..cfg
                    },
                )
            })
            .collect();
        assert_lanes_match(
            &traces,
            cfg,
            &capacities,
            singles,
            |f, core, block| f.process(core, block),
            FunctionalTifs::report,
        )?;
    }
}

#[test]
fn figure11_budgets_match_the_oracle_on_long_looping_traces() {
    // Four cores walking overlapping loops with random detours, long
    // enough that every Figure 11-sized log wraps many times.
    let capacities: Vec<Option<usize>> = [12, 64, 300, 1024, 2048, 4096, 8192, 13_000]
        .into_iter()
        .map(Some)
        .collect();
    let mut rng = Rng(11);
    let traces: Vec<Vec<BlockAddr>> = (0..4u64)
        .map(|c| {
            let mut t = Vec::new();
            while t.len() < 20_000 {
                let start = rng.next() % 6000 + c * 500;
                let len = rng.next() % 400 + 20;
                t.extend(
                    (start..start + len)
                        .filter(|_| rng.next() % 16 != 0)
                        .map(BlockAddr),
                );
                if rng.next() % 4 == 0 {
                    t.push(BlockAddr(rng.next() >> 8));
                }
            }
            t
        })
        .collect();
    let cfg = FunctionalConfig::default();
    assert_lanes_match(
        &traces,
        cfg,
        &capacities,
        oracles(4, cfg, &capacities),
        |o, core, block| o.process(core, block),
        |o| o.report(),
    )
    .unwrap();
}
