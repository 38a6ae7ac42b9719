//! Figs. 9–11: TLP vs TLP_R with R swept over [0, 1] in steps of 0.1.

use crate::report::{write_csv, TextTable};
use crate::{ExperimentContext, HarnessError, PARTITION_COUNTS};
use tlp_core::{
    EdgePartitioner, PartitionMetrics, StageSwitch, TlpConfig, TwoStageLocalPartitioner,
};

/// The 11 sweep values of `R` used by the paper.
pub fn sweep_ratios() -> Vec<f64> {
    (0..=10).map(|i| i as f64 / 10.0).collect()
}

/// One (dataset, p) sweep series.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSeries {
    /// Dataset notation.
    pub dataset: String,
    /// Number of partitions.
    pub p: usize,
    /// `(R, RF)` pairs for TLP_R.
    pub tlp_r: Vec<(f64, f64)>,
    /// RF of the modularity-switched TLP (the horizontal line in the plots).
    pub tlp: f64,
}

impl SweepSeries {
    /// RF of the best interior configuration (`0 < R < 1`).
    pub fn best_interior(&self) -> f64 {
        self.tlp_r
            .iter()
            .filter(|(r, _)| *r > 0.0 && *r < 1.0)
            .map(|&(_, rf)| rf)
            .fold(f64::INFINITY, f64::min)
    }

    /// RF of the worse extreme (`R = 0` or `R = 1`).
    pub fn worst_extreme(&self) -> f64 {
        self.tlp_r
            .iter()
            .filter(|(r, _)| *r == 0.0 || *r == 1.0)
            .map(|&(_, rf)| rf)
            .fold(0.0, f64::max)
    }
}

/// Runs the full sweep (Figs. 9, 10, 11 correspond to p = 10, 15, 20).
///
/// # Errors
///
/// [`HarnessError`] when a dataset fails to load, a partitioner run fails,
/// or the CSV fails to write.
pub fn run(ctx: &ExperimentContext) -> Result<Vec<SweepSeries>, HarnessError> {
    let mut series = Vec::new();
    let ratios = sweep_ratios();
    for &id in &ctx.datasets {
        let (graph, _, scale) = ctx.load(id)?;
        eprintln!("tlp_r sweep: {id} at scale {scale:.4}");
        for &p in &PARTITION_COUNTS {
            let tlp = TwoStageLocalPartitioner::new(TlpConfig::new().seed(ctx.seed));
            let partition = tlp
                .partition(&graph, p)
                .map_err(|e| HarnessError::partition(format!("TLP on {id} p={p}"), e))?;
            let tlp_rf = PartitionMetrics::compute(&graph, &partition).replication_factor;

            let mut curve = Vec::with_capacity(ratios.len());
            for &r in &ratios {
                let config = TlpConfig::new()
                    .seed(ctx.seed)
                    .stage_switch(StageSwitch::EdgeRatio(r));
                let part = TwoStageLocalPartitioner::new(config)
                    .partition(&graph, p)
                    .map_err(|e| {
                        HarnessError::partition(format!("TLP_R R={r} on {id} p={p}"), e)
                    })?;
                let rf = PartitionMetrics::compute(&graph, &part).replication_factor;
                curve.push((r, rf));
            }
            eprintln!(
                "  p={p:2}: TLP RF = {tlp_rf:.3}, TLP_R best interior = {:.3}, extremes = {:.3}",
                curve
                    .iter()
                    .filter(|(r, _)| *r > 0.0 && *r < 1.0)
                    .map(|&(_, rf)| rf)
                    .fold(f64::INFINITY, f64::min),
                curve
                    .iter()
                    .filter(|(r, _)| *r == 0.0 || *r == 1.0)
                    .map(|&(_, rf)| rf)
                    .fold(0.0, f64::max),
            );
            series.push(SweepSeries {
                dataset: id.to_string(),
                p,
                tlp_r: curve,
                tlp: tlp_rf,
            });
        }
    }

    for &p in &PARTITION_COUNTS {
        println!("{}", render_figure(&series, p));
    }

    let mut csv_rows = Vec::new();
    for s in &series {
        for &(r, rf) in &s.tlp_r {
            csv_rows.push(vec![
                s.dataset.clone(),
                s.p.to_string(),
                format!("{r}"),
                format!("{rf}"),
                "TLP_R".to_string(),
            ]);
        }
        csv_rows.push(vec![
            s.dataset.clone(),
            s.p.to_string(),
            String::new(),
            format!("{}", s.tlp),
            "TLP".to_string(),
        ]);
    }
    write_csv(
        ctx.out_path("fig9_10_11.csv")?,
        &["dataset", "p", "r", "rf", "algorithm"],
        &csv_rows,
    )
    .map_err(|e| HarnessError::io("write fig9_10_11.csv", e))?;
    Ok(series)
}

/// Renders one figure (fixed `p`): datasets as rows, R values as columns,
/// with the TLP reference in the last column.
pub fn render_figure(series: &[SweepSeries], p: usize) -> String {
    let figure_no = match p {
        10 => "9",
        15 => "10",
        20 => "11",
        _ => "?",
    };
    let mut table = TextTable::new();
    let mut header = vec!["dataset".to_string()];
    for r in sweep_ratios() {
        header.push(format!("R={r:.1}"));
    }
    header.push("TLP".to_string());
    table.row(header);
    for s in series.iter().filter(|s| s.p == p) {
        let mut row = vec![s.dataset.clone()];
        for &(_, rf) in &s.tlp_r {
            row.push(format!("{rf:.3}"));
        }
        row.push(format!("{:.3}", s.tlp));
        table.row(row);
    }
    format!(
        "Fig. {figure_no} — TLP_R sweep (RF by R) vs TLP, p = {p}\n{}",
        table.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_ratio_grid_matches_paper() {
        let r = sweep_ratios();
        assert_eq!(r.len(), 11);
        assert_eq!(r[0], 0.0);
        assert_eq!(r[10], 1.0);
        assert!((r[3] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn series_extrema_helpers() {
        let s = SweepSeries {
            dataset: "G1".into(),
            p: 10,
            tlp_r: vec![(0.0, 2.0), (0.5, 1.4), (1.0, 2.5)],
            tlp: 1.45,
        };
        assert_eq!(s.best_interior(), 1.4);
        assert_eq!(s.worst_extreme(), 2.5);
    }

    #[test]
    fn render_names_the_right_figure() {
        let s = vec![SweepSeries {
            dataset: "G1".into(),
            p: 15,
            tlp_r: sweep_ratios().into_iter().map(|r| (r, 1.0)).collect(),
            tlp: 1.0,
        }];
        let out = render_figure(&s, 15);
        assert!(out.contains("Fig. 10"));
        assert!(out.contains("R=0.7"));
    }
}
