//! Output checks. Every output an iteration produces (a timing cell's
//! canonical `SimReport`, an analysis's canonical JSON) is one attempted
//! operation; it fails if any check on it fails. Store-level and
//! tracing-level expectations count as operations of their own.

use tifs_trace::Fingerprint;

use crate::workloads::{Budgets, CellOut, Outputs};

/// The seed whose outputs are pinned — the seed the Table I workload
/// bands were calibrated with. A run at any other seed checks its own
/// outputs by the cross-checks only; every run also checks the pinned
/// reference ([`SMOKE_PINS`]) before it measures.
pub const PINNED_SEED: u64 = 42;

/// `(label, digest)`: a timing cell by `<workload>/<system>`, an
/// analysis by figure.
type Pin = (&'static str, &'static str);

/// Digests of every output at [`PINNED_SEED`] and [`Budgets::SMOKE`]: the
/// pinned reference every run checks.
pub const SMOKE_PINS: &[Pin] = &[
    ("OLTP Oracle/Next-line", "1b15af1c35690724605aedcb485cc7a1"),
    ("OLTP Oracle/FDIP", "2d7dd0849e6411d05cd9bf5d0dd0e887"),
    (
        "OLTP Oracle/Discontinuity",
        "5faeea9a986a40365833a6f939d48d7e",
    ),
    (
        "OLTP Oracle/TIFS-unbounded",
        "76e828314bf3e63731792ad828e18b5e",
    ),
    (
        "OLTP Oracle/TIFS-dedicated",
        "3e3c86abc9b500f0dec6bcb7c5d8ec3d",
    ),
    (
        "OLTP Oracle/TIFS-virtualized",
        "699b016672c7b636e755b1b3d17a03d4",
    ),
    ("OLTP Oracle/Perfect", "5ea859c5632d719f09dc27187ebdf374"),
    ("Web Apache/Next-line", "6f1e84a7b104301f770b72c2ad80dc40"),
    ("Web Apache/FDIP", "7fb164ca0264be8c518f5b0e88d9eabd"),
    (
        "Web Apache/Discontinuity",
        "d20cea173877027ad21fa77980108d95",
    ),
    (
        "Web Apache/TIFS-unbounded",
        "ab34e8def41acee009c729940092fec2",
    ),
    (
        "Web Apache/TIFS-dedicated",
        "83ce3b1c0c19e1a4d468c0bb4cd0b1ba",
    ),
    (
        "Web Apache/TIFS-virtualized",
        "a282e648f50ed6b6b14a983abd505312",
    ),
    ("Web Apache/Perfect", "11af3167c378a66eefd4a34b7f69756b"),
    ("fig03", "1464003fcf897ba77ba573ec514a9f42"),
    ("fig05", "7c1f80c4ab8abe1e73b1f2459556d929"),
    ("fig06", "85de8cece6fc56bafe9e8994caea3c44"),
    ("fig10", "a4cccce06fdb2fe1ad7b68b2fd9fdea0"),
    ("fig11", "b847df23fc068ec0f749ad6c3e3745ac"),
];

/// Digests of every output at [`PINNED_SEED`] and [`Budgets::BENCH`].
const BENCH_PINS: &[Pin] = &[
    ("OLTP Oracle/Next-line", "b5811f6904ea2fd7789065c3b776ad68"),
    ("OLTP Oracle/FDIP", "d1ab1805aee4c1925044bebfe3b40664"),
    (
        "OLTP Oracle/Discontinuity",
        "1f360d3894c3c8eb7e6c2eb592cb6b08",
    ),
    (
        "OLTP Oracle/TIFS-unbounded",
        "cbdde8757f30fbbfdf0b11133ebe0a32",
    ),
    (
        "OLTP Oracle/TIFS-dedicated",
        "5e7015cbb2c013c5d8aaacaf5f8a011f",
    ),
    (
        "OLTP Oracle/TIFS-virtualized",
        "7da09c6a0fe56842b10ff57f01d1bfd8",
    ),
    ("OLTP Oracle/Perfect", "ee5dac4b1e0db693b169a0463c22abd2"),
    ("Web Apache/Next-line", "3a5c7d5d97395132c5486cc380051f49"),
    ("Web Apache/FDIP", "0b563239da60ea25188d02ddd72a495f"),
    (
        "Web Apache/Discontinuity",
        "d51a476a9979c4818200cde7fa01df18",
    ),
    (
        "Web Apache/TIFS-unbounded",
        "59cc69b0f28e3a155d8b9c5b6b33b636",
    ),
    (
        "Web Apache/TIFS-dedicated",
        "9f21bf000cc58eb79e54983b01a290f3",
    ),
    (
        "Web Apache/TIFS-virtualized",
        "751ed9d47d5da209955b58582002d226",
    ),
    ("Web Apache/Perfect", "bfea2c4d73b50e06a676d729d11f39e5"),
    ("fig03", "81a8d4ad8dfbf2fd23061aab30aefee6"),
    ("fig05", "99beb62adf1eb8878e6a9406a4d0c92a"),
    ("fig06", "9a9dfb26c4ede9ceaf2c4bfede767355"),
    ("fig10", "2230f53810abad679b234c3ed0ce3a1f"),
    ("fig11", "ba96c5251a34afa04e2b514b22864254"),
];

/// 128-bit content digest of an output, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = Fingerprint::new();
    h.bytes(bytes);
    format!("{:032x}", h.finish())
}

/// Tallies operations and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Checker {
    pins: Option<&'static [Pin]>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

const KEPT_PROBLEMS: usize = 20;

impl Checker {
    pub fn new(seed: u64, budgets: Budgets) -> Checker {
        let pins = match budgets {
            _ if seed != PINNED_SEED => None,
            Budgets::SMOKE => Some(SMOKE_PINS),
            Budgets::BENCH => Some(BENCH_PINS),
            _ => None,
        };
        Checker {
            pins,
            ..Checker::default()
        }
    }

    /// Whether the run's own outputs are compared against pinned digests.
    pub fn pinned(&self) -> bool {
        self.pins.is_some()
    }

    /// Records one operation that failed for each of `problems`' reasons
    /// (or succeeded when it is empty).
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                if self.problems.len() < KEPT_PROBLEMS {
                    self.problems.push(p);
                }
            }
        }
    }

    /// A single yes/no operation.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.op(if ok { Vec::new() } else { vec![what()] });
    }

    fn pin_problem(pins: Option<&[Pin]>, label: &str, bytes: &[u8]) -> Option<String> {
        match pins?.iter().find(|(l, _)| *l == label) {
            Some((_, pin)) if *pin == digest(bytes) => None,
            Some((_, pin)) => Some(format!("{label}: digest {} != pinned {pin}", digest(bytes))),
            None => Some(format!("{label}: no pinned digest")),
        }
    }

    /// Checks every output of an iteration: retired-instruction totals,
    /// the pinned digests, and byte equality with `reference` (another
    /// iteration of the same run, the untraced twin of a traced
    /// iteration, or the cold outputs a warm rerun must reproduce).
    pub fn outputs(
        &mut self,
        out: &Outputs,
        reference: Option<&Outputs>,
        retired: u64,
        what: &str,
    ) {
        self.check(self.pins, out, reference, retired, what);
    }

    /// Checks the pinned reference's outputs ([`Budgets::SMOKE`] at
    /// [`PINNED_SEED`]) against [`SMOKE_PINS`], and that it produced one
    /// output for every pin.
    pub fn reference(&mut self, out: &Outputs, retired: u64) {
        self.check(Some(SMOKE_PINS), out, None, retired, "reference");
        let mut labels: Vec<String> = out
            .cells
            .iter()
            .map(CellOut::label)
            .chain(out.figures.iter().map(|(f, _)| f.to_string()))
            .collect();
        let mut pinned: Vec<&str> = SMOKE_PINS.iter().map(|(l, _)| *l).collect();
        labels.sort();
        pinned.sort_unstable();
        self.expect(labels == pinned, || {
            format!("reference outputs {labels:?} are not the pinned {pinned:?}")
        });
    }

    fn check(
        &mut self,
        pins: Option<&[Pin]>,
        out: &Outputs,
        reference: Option<&Outputs>,
        retired: u64,
        what: &str,
    ) {
        if let Some(r) = reference {
            self.expect(
                r.cells.len() == out.cells.len() && r.figures.len() == out.figures.len(),
                || format!("{what}: output count differs from the reference"),
            );
        }
        for (i, cell) in out.cells.iter().enumerate() {
            let label = cell.label();
            let mut problems = Vec::new();
            if cell.report.total_retired() != retired {
                problems.push(format!(
                    "{label}: retired {} != cores x budget {retired}",
                    cell.report.total_retired()
                ));
            }
            problems.extend(Self::pin_problem(pins, &label, &cell.bytes));
            if let Some(r) = reference.and_then(|r| r.cells.get(i)) {
                if r.label() != label || r.bytes != cell.bytes {
                    problems.push(format!("{label}: {what} report bytes differ"));
                }
            }
            self.op(problems);
        }
        for (i, (fig, json)) in out.figures.iter().enumerate() {
            let mut problems = Vec::new();
            problems.extend(Self::pin_problem(pins, fig, json.as_bytes()));
            if let Some(r) = reference.and_then(|r| r.figures.get(i)) {
                if r.0 != *fig || r.1 != *json {
                    problems.push(format!("{fig}: {what} output differs"));
                }
            }
            self.op(problems);
        }
    }
}

/// `("<label>", "<digest>")` lines for every output, the form the pin
/// tables take — printed by the benchmark when a pin is missing.
pub fn pin_lines(cells: &[CellOut], figures: &[(&'static str, String)]) -> Vec<String> {
    cells
        .iter()
        .map(|c| format!("(\"{}\", \"{}\"),", c.label(), digest(&c.bytes)))
        .chain(
            figures
                .iter()
                .map(|(f, j)| format!("(\"{f}\", \"{}\"),", digest(j.as_bytes()))),
        )
        .collect()
}
