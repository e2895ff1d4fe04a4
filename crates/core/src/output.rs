//! Report rendering: fixed-width tables, CSV, JSON.
//!
//! The bench harness prints every figure's series through these helpers so
//! the output is uniform and machine-extractable.

use astra_des::Time;
use astra_workload::{FaultImpact, TrainingReport};
use std::fmt::Write as _;

/// A simple fixed-width text table.
///
/// # Example
///
/// ```
/// use astra_core::output::Table;
/// let mut t = Table::new(vec!["size".into(), "cycles".into()]);
/// t.row(vec!["1MB".into(), "42".into()]);
/// let s = t.render();
/// assert!(s.contains("size") && s.contains("42"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let emit = |out: &mut String, cells: &[String]| {
            for (c, cell) in cells.iter().enumerate() {
                let _ = write!(out, "{:>width$}  ", cell, width = widths[c]);
            }
            out.push('\n');
        };
        emit(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            emit(&mut out, row);
        }
        out
    }

    /// Renders as CSV (no quoting — callers use plain numeric/identifier
    /// cells).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a cycle count in engineering units (cycles == ns at 1 GHz).
pub fn fmt_time(t: Time) -> String {
    let c = t.cycles() as f64;
    if c >= 1e9 {
        format!("{:.2}s", c / 1e9)
    } else if c >= 1e6 {
        format!("{:.2}ms", c / 1e6)
    } else if c >= 1e3 {
        format!("{:.2}us", c / 1e3)
    } else {
        format!("{}ns", t.cycles())
    }
}

/// Formats a byte count.
pub fn fmt_bytes(b: u64) -> String {
    const KB: u64 = 1 << 10;
    const MB: u64 = 1 << 20;
    if b >= MB && b.is_multiple_of(MB) {
        format!("{}MB", b / MB)
    } else if b >= KB && b.is_multiple_of(KB) {
        format!("{}KB", b / KB)
    } else {
        format!("{b}B")
    }
}

/// Converts recorded phase spans into Chrome trace-viewer JSON
/// (`chrome://tracing` / Perfetto): one process per NPU, one thread per
/// chunk, one duration event per phase. Timestamps are simulation cycles
/// reported as microseconds.
///
/// # Example
///
/// ```
/// use astra_core::output::chrome_trace;
/// use astra_core::system::PhaseSpan;
/// use astra_core::des::Time;
/// let spans = [PhaseSpan {
///     npu: 0, coll: 1, chunk: 2, phase: 0,
///     start: Time::from_cycles(10), end: Time::from_cycles(60),
/// }];
/// let json = chrome_trace(&spans);
/// assert!(json.contains("\"ph\":\"X\""));
/// ```
pub fn chrome_trace(spans: &[astra_system::PhaseSpan]) -> String {
    let events: Vec<serde_json::Value> = spans
        .iter()
        .map(|s| {
            serde_json::json!({
                "name": format!("coll{} phase{}", s.coll, s.phase),
                "cat": "collective",
                "ph": "X",
                "ts": s.start.cycles(),
                "dur": (s.end - s.start).cycles(),
                "pid": s.npu,
                "tid": s.chunk,
                "args": { "coll": s.coll, "chunk": s.chunk, "phase": s.phase }
            })
        })
        .collect();
    serde_json::to_string(&serde_json::json!({ "traceEvents": events })).expect("trace serializes")
}

/// Renders a training report's layer-wise breakdown as a table (the Fig
/// 14/15 view).
pub fn training_table(report: &TrainingReport) -> Table {
    let mut t = Table::new(
        [
            "layer", "compute", "fwd_comm", "ig_comm", "wg_comm", "exposed",
        ]
        .map(String::from)
        .to_vec(),
    );
    for l in &report.layers {
        t.row(vec![
            l.name.clone(),
            fmt_time(l.compute),
            fmt_time(l.fwd_comm),
            fmt_time(l.ig_comm),
            fmt_time(l.wg_comm),
            fmt_time(l.exposed),
        ]);
    }
    t
}

/// Renders a run's fault-recovery counters as a one-row table (append its
/// CSV next to the figure series when sweeping fault plans).
pub fn fault_table(impact: &FaultImpact) -> Table {
    let mut t = Table::new(
        ["drops", "retransmits", "reroutes", "fault_stall_cycles"]
            .map(String::from)
            .to_vec(),
    );
    t.row(vec![
        impact.drops.to_string(),
        impact.retransmits.to_string(),
        impact.reroutes.to_string(),
        impact.fault_stall_cycles.to_string(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["a".into(), "bbbb".into()]);
        t.row(vec!["12345".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
        assert!(t.to_csv().starts_with("a,bbbb\n12345,1\n"));
    }

    #[test]
    #[should_panic(expected = "width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn time_formatting() {
        assert_eq!(fmt_time(Time::from_cycles(500)), "500ns");
        assert_eq!(fmt_time(Time::from_cycles(1_500)), "1.50us");
        assert_eq!(fmt_time(Time::from_cycles(2_000_000)), "2.00ms");
        assert_eq!(fmt_time(Time::from_cycles(3_100_000_000)), "3.10s");
    }

    #[test]
    fn chrome_trace_emits_complete_spans() {
        use astra_system::{BackendKind, CollectiveRequest, SystemConfig, SystemSim};
        use astra_topology::LogicalTopology;
        let topo = LogicalTopology::torus(2, 2, 1, 1, 1, 1).unwrap();
        let mut sim = SystemSim::new(
            topo,
            SystemConfig {
                set_splits: 2,
                ..SystemConfig::default()
            },
            &astra_network::NetworkConfig::default(),
            BackendKind::Analytical,
        );
        sim.enable_tracing();
        sim.issue_collective(CollectiveRequest::all_reduce(1 << 16))
            .unwrap();
        sim.run_until_idle().unwrap();
        let spans = sim.trace().unwrap();
        // 4 NPUs x 2 chunks x 2 phases (local + horizontal).
        assert_eq!(spans.len(), 4 * 2 * 2);
        assert!(spans.iter().all(|s| s.end >= s.start));
        let json = chrome_trace(spans);
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["traceEvents"].as_array().unwrap().len(), spans.len());
    }

    #[test]
    fn fault_table_round_trips_counters() {
        let t = fault_table(&FaultImpact {
            drops: 3,
            retransmits: 3,
            reroutes: 1,
            fault_stall_cycles: 90,
        });
        let csv = t.to_csv();
        assert!(csv.starts_with("drops,retransmits,reroutes,fault_stall_cycles\n"));
        assert!(csv.contains("3,3,1,90"));
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(4096), "4KB");
        assert_eq!(fmt_bytes(1 << 22), "4MB");
        assert_eq!(fmt_bytes(1025), "1025B");
    }
}
