//! Fixture: a miniature stats.rs for schema-drift tests. The test
//! lints it under the virtual path `crates/sim/src/stats.rs` and
//! mutates copies of it to simulate drift.

pub struct CoreStats {
    pub retired: u64,
    pub cycles: u64,
}

pub struct SimReport {
    pub cores: Vec<CoreStats>,
    pub cycles: u64,
    pub prefetcher: Vec<(String, f64)>,
}

pub const SIM_REPORT_LAYOUT_VERSION: u32 = 1;
