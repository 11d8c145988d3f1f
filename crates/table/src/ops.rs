//! The aggregate functions a regional feature or target query applies
//! (§3.2, §4.2). The CUBE kernel of `bellwether-cube` computes them; the
//! paper's Table 1 operators that define them live on as that kernel's
//! test oracle (`crates/cube/tests/relalg`).

/// Aggregate function kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Sum of a numeric column.
    Sum,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean of a numeric column.
    Avg,
    /// Count of non-NULL values.
    Count,
    /// Count of distinct non-NULL values.
    CountDistinct,
}

impl AggFunc {
    /// Name used in error messages.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
            AggFunc::Count => "count",
            AggFunc::CountDistinct => "count_distinct",
        }
    }
}
