//! Selection traces for the Table VI stage-degree analysis.

use serde::{Deserialize, Serialize};

/// Which of the two heuristic stages selected a vertex.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Stage I: closeness x degree criterion (`mu_s1`, Eq. 7).
    One,
    /// Stage II: modularity-gain criterion (`mu_s2`, Eq. 9).
    Two,
}

/// One vertex selection made by a local partitioning round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SelectionRecord {
    /// Partition being grown (`0..p`).
    pub partition: u32,
    /// Step index within the round (0 = first selection after the seed).
    pub step: u32,
    /// The selected vertex.
    pub vertex: tlp_graph::VertexId,
    /// Static degree of the vertex in the input graph.
    pub degree: u32,
    /// Stage whose criterion made the selection.
    pub stage: Stage,
}

/// Average selected-vertex degree per stage (Table VI row).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct StageDegreeSummary {
    /// Number of Stage I selections.
    pub stage1_count: usize,
    /// Mean static degree of Stage I selections (`NaN`-free: 0 when empty).
    pub stage1_avg_degree: f64,
    /// Number of Stage II selections.
    pub stage2_count: usize,
    /// Mean static degree of Stage II selections (0 when empty).
    pub stage2_avg_degree: f64,
}

/// The complete selection log of one partitioning run.
///
/// Produced by [`crate::TwoStageLocalPartitioner::partition_with_trace`].
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<SelectionRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one selection.
    pub fn push(&mut self, record: SelectionRecord) {
        self.records.push(record);
    }

    /// All selections in order.
    pub fn records(&self) -> &[SelectionRecord] {
        &self.records
    }

    /// Number of selections recorded.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no selection was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Computes the Table VI statistic: average selected-vertex degree per
    /// stage.
    ///
    /// # Example
    ///
    /// ```
    /// use tlp_core::{SelectionRecord, Stage, Trace};
    ///
    /// let mut trace = Trace::new();
    /// trace.push(SelectionRecord { partition: 0, step: 0, vertex: 1, degree: 40, stage: Stage::One });
    /// trace.push(SelectionRecord { partition: 0, step: 1, vertex: 2, degree: 4, stage: Stage::Two });
    /// trace.push(SelectionRecord { partition: 0, step: 2, vertex: 3, degree: 6, stage: Stage::Two });
    /// let s = trace.stage_degree_summary();
    /// assert_eq!(s.stage1_count, 1);
    /// assert_eq!(s.stage1_avg_degree, 40.0);
    /// assert_eq!(s.stage2_avg_degree, 5.0);
    /// ```
    pub fn stage_degree_summary(&self) -> StageDegreeSummary {
        let mut c1 = 0usize;
        let mut d1 = 0u64;
        let mut c2 = 0usize;
        let mut d2 = 0u64;
        for r in &self.records {
            match r.stage {
                Stage::One => {
                    c1 += 1;
                    d1 += u64::from(r.degree);
                }
                Stage::Two => {
                    c2 += 1;
                    d2 += u64::from(r.degree);
                }
            }
        }
        StageDegreeSummary {
            stage1_count: c1,
            stage1_avg_degree: if c1 == 0 { 0.0 } else { d1 as f64 / c1 as f64 },
            stage2_count: c2,
            stage2_avg_degree: if c2 == 0 { 0.0 } else { d2 as f64 / c2 as f64 },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(stage: Stage, degree: u32) -> SelectionRecord {
        SelectionRecord {
            partition: 0,
            step: 0,
            vertex: 0,
            degree,
            stage,
        }
    }

    #[test]
    fn empty_trace_summary_has_zeroes() {
        let t = Trace::new();
        assert!(t.is_empty());
        let s = t.stage_degree_summary();
        assert_eq!(s.stage1_count, 0);
        assert_eq!(s.stage1_avg_degree, 0.0);
        assert_eq!(s.stage2_count, 0);
    }

    #[test]
    fn summary_averages_by_stage() {
        let mut t = Trace::new();
        t.push(rec(Stage::One, 10));
        t.push(rec(Stage::One, 30));
        t.push(rec(Stage::Two, 2));
        assert_eq!(t.len(), 3);
        let s = t.stage_degree_summary();
        assert_eq!(s.stage1_count, 2);
        assert_eq!(s.stage1_avg_degree, 20.0);
        assert_eq!(s.stage2_count, 1);
        assert_eq!(s.stage2_avg_degree, 2.0);
    }
}
