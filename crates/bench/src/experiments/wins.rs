//! Tables II and III: the single-threaded format evaluation.
//!
//! One full sweep per matrix and precision feeds both tables: Table II
//! counts, for each of the four configuration columns (dp, dp-simd, sp,
//! sp-simd), how many matrices each format wins; Table III reports each
//! format's min/avg/max speedup over CSR per matrix for the
//! double-precision scalar configuration.

use crate::report::{f2, Table};
use crate::sweep::{build_both, column_label, ExpOpts, MatrixSweep, SpeedupStats, COLUMNS};
use spmv_formats::FormatKind;
use spmv_gen::{suite, Geometry};
use spmv_kernels::KernelImpl;
use std::collections::BTreeMap;

/// Per-matrix sweep outcome.
#[derive(Debug, Clone)]
pub struct MatrixOutcome {
    /// Paper id.
    pub id: usize,
    /// Matrix name.
    pub name: &'static str,
    /// Geometry class (specials are excluded from win counts).
    pub geometry: Geometry,
    /// Winner format of each configuration column, in [`COLUMNS`] order.
    pub winners: [FormatKind; 4],
    /// Per-format speedups over CSR, dp scalar (Table III).
    pub speedups: Vec<(FormatKind, SpeedupStats)>,
}

/// The complete Tables II/III dataset.
#[derive(Debug, Clone)]
pub struct WinsResult {
    /// One outcome per measured matrix.
    pub outcomes: Vec<MatrixOutcome>,
}

/// Runs the single-threaded evaluation sweep over the selected suite.
pub fn run(opts: &ExpOpts) -> WinsResult {
    let mut outcomes = Vec::new();
    for entry in suite(opts.scale) {
        if !opts.selects(entry.id) {
            continue;
        }
        let (m64, m32) = build_both(&entry, opts.seed);
        let sweep64 = MatrixSweep::run(&m64, opts);
        let sweep32 = MatrixSweep::run(&m32, opts);
        let winners = [
            sweep64.column_winner(false).0.kind(),
            sweep64.column_winner(true).0.kind(),
            sweep32.column_winner(false).0.kind(),
            sweep32.column_winner(true).0.kind(),
        ];
        let speedups = FormatKind::EVALUATED
            .into_iter()
            .filter(|&k| k != FormatKind::Csr)
            .filter_map(|k| {
                sweep64
                    .speedups_over_csr(k, KernelImpl::Scalar)
                    .map(|s| (k, s))
            })
            .collect();
        outcomes.push(MatrixOutcome {
            id: entry.id,
            name: entry.name,
            geometry: entry.geometry,
            winners,
            speedups,
        });
    }
    WinsResult { outcomes }
}

impl WinsResult {
    /// Win counts per format per configuration column, specials excluded
    /// (Table II ignores the dense and random matrices).
    pub fn win_counts(&self) -> BTreeMap<FormatKind, [usize; 4]> {
        let mut counts: BTreeMap<FormatKind, [usize; 4]> = FormatKind::EVALUATED
            .into_iter()
            .map(|k| (k, [0; 4]))
            .collect();
        for o in &self.outcomes {
            if o.geometry == Geometry::Special {
                continue;
            }
            for (col, &winner) in o.winners.iter().enumerate() {
                counts.entry(winner).or_insert([0; 4])[col] += 1;
            }
        }
        counts
    }
}

/// Renders Table II.
pub fn render_table2(result: &WinsResult) -> Table {
    let mut headers = vec!["Method/Configuration".to_string()];
    headers.extend(COLUMNS.iter().map(|&(p, s)| column_label(p, s)));
    let mut t = Table::new(headers)
        .title("Table II: matrices won per format and configuration (specials excluded)");
    let counts = result.win_counts();
    for kind in FormatKind::EVALUATED {
        let c = counts.get(&kind).copied().unwrap_or([0; 4]);
        let cell = |col: usize| {
            // The paper does not run 1D-VBL in the SIMD columns.
            if kind == FormatKind::Vbl && COLUMNS[col].1 {
                "-".to_string()
            } else {
                c[col].to_string()
            }
        };
        t.add_row(vec![
            kind.label().to_string(),
            cell(0),
            cell(1),
            cell(2),
            cell(3),
        ]);
    }
    t
}

/// Renders Table III (dp scalar speedups over CSR, min/avg/max per
/// format, with the suite average as the final row).
pub fn render_table3(result: &WinsResult) -> Table {
    let kinds: Vec<FormatKind> = FormatKind::EVALUATED
        .into_iter()
        .filter(|&k| k != FormatKind::Csr)
        .collect();
    let mut headers = vec!["Matrix".to_string()];
    for k in &kinds {
        if *k == FormatKind::Vbl {
            headers.push(k.label().to_string());
        } else {
            headers.push(format!("{} min", k.label()));
            headers.push(format!("{} avg", k.label()));
            headers.push(format!("{} max", k.label()));
        }
    }
    let mut t = Table::new(headers)
        .title("Table III: speedups over CSR per matrix (double precision, scalar kernels)");

    let mut sums: BTreeMap<FormatKind, (f64, f64, f64)> = BTreeMap::new();
    for o in &result.outcomes {
        let mut row = vec![format!("{:02}.{}", o.id, o.name)];
        for k in &kinds {
            match o.speedups.iter().find(|(kk, _)| kk == k) {
                Some((_, s)) => {
                    let e = sums.entry(*k).or_insert((0.0, 0.0, 0.0));
                    e.0 += s.min;
                    e.1 += s.avg;
                    e.2 += s.max;
                    if *k == FormatKind::Vbl {
                        row.push(f2(s.avg));
                    } else {
                        row.push(f2(s.min));
                        row.push(f2(s.avg));
                        row.push(f2(s.max));
                    }
                }
                None => {
                    let cells = if *k == FormatKind::Vbl { 1 } else { 3 };
                    row.extend(std::iter::repeat_n("-".to_string(), cells));
                }
            }
        }
        t.add_row(row);
    }
    // Suite average row, as in the paper.
    let n = result.outcomes.len().max(1) as f64;
    let mut avg_row = vec!["Average".to_string()];
    for k in &kinds {
        let (mn, av, mx) = sums.get(k).copied().unwrap_or((0.0, 0.0, 0.0));
        if *k == FormatKind::Vbl {
            avg_row.push(f2(av / n));
        } else {
            avg_row.push(f2(mn / n));
            avg_row.push(f2(av / n));
            avg_row.push(f2(mx / n));
        }
    }
    t.add_row(avg_row);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_opts(ids: Vec<usize>) -> ExpOpts {
        ExpOpts {
            scale: 0.02,
            seed: 3,
            min_time: 5e-5,
            batches: 1,
            matrices: Some(ids),
            calib_bytes: None,
        }
    }

    #[test]
    fn produces_winners_and_speedups() {
        let res = run(&quick_opts(vec![1, 4, 21]));
        assert_eq!(res.outcomes.len(), 3);
        for o in &res.outcomes {
            assert_eq!(o.speedups.len(), 5); // all non-CSR formats present
            for (_, s) in &o.speedups {
                assert!(s.min <= s.avg && s.avg <= s.max);
            }
        }
    }

    #[test]
    fn specials_excluded_from_win_counts() {
        let res = run(&quick_opts(vec![1, 2]));
        let counts = res.win_counts();
        let total: usize = counts.values().map(|c| c.iter().sum::<usize>()).sum();
        assert_eq!(total, 0, "special matrices must not contribute wins");
    }

    #[test]
    fn win_totals_match_matrix_count() {
        let res = run(&quick_opts(vec![4, 20]));
        let counts = res.win_counts();
        for col in 0..4 {
            let total: usize = counts.values().map(|c| c[col]).sum();
            assert_eq!(total, 2, "each column awards exactly one win per matrix");
        }
    }

    #[test]
    fn tables_render() {
        let res = run(&quick_opts(vec![4]));
        let t2 = render_table2(&res);
        assert_eq!(t2.n_rows(), 6);
        let t3 = render_table3(&res);
        assert_eq!(t3.n_rows(), 2); // one matrix + average
        let s = t3.to_string();
        assert!(s.contains("Average"));
    }
}
