//! Latency matrices: client↔region (`L`) and inter-region (`L^R`).
//!
//! All latencies are expected **one-way** delivery times in milliseconds
//! (paper §III.C). Entry `L[C][R]` holds the latency between client `C` and
//! region `R` in either direction; `L^R[Ri][Rj]` holds the latency between
//! two cloud regions, with a zero diagonal.

use crate::error::Error;
use crate::ids::RegionId;
use serde::{Deserialize, Serialize};

/// Validates that a slice of latencies has the expected width and that all
/// entries are finite and non-negative.
pub(crate) fn validate_latency_row(row: &[f64], expected: usize) -> Result<(), Error> {
    if row.len() != expected {
        return Err(Error::LatencyDimension { expected, got: row.len() });
    }
    for &value in row {
        if !value.is_finite() || value < 0.0 {
            return Err(Error::InvalidLatency { value });
        }
    }
    Ok(())
}

/// One-way latencies between every pair of cloud regions (`L^R`).
///
/// The matrix does not need to be symmetric (routes can be asymmetric), but
/// the diagonal must be zero: a region reaches itself instantly.
///
/// ```
/// use multipub_core::latency::InterRegionMatrix;
/// use multipub_core::ids::RegionId;
/// # fn main() -> Result<(), multipub_core::Error> {
/// let m = InterRegionMatrix::from_rows(vec![
///     vec![0.0, 40.0],
///     vec![42.0, 0.0],
/// ])?;
/// assert_eq!(m.latency(RegionId(0), RegionId(1)), 40.0);
/// assert_eq!(m.latency(RegionId(1), RegionId(0)), 42.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InterRegionMatrix {
    n: usize,
    /// Row-major `n × n` matrix.
    values: Vec<f64>,
}

impl InterRegionMatrix {
    /// Builds the matrix from square row data.
    ///
    /// # Errors
    ///
    /// * [`Error::RegionCount`] if there are no rows or more than 32.
    /// * [`Error::NotSquare`] if any row length differs from the row count.
    /// * [`Error::InvalidLatency`] for negative/NaN/infinite entries.
    /// * [`Error::NonZeroDiagonal`] if `rows[i][i] != 0`.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, Error> {
        let n = rows.len();
        if n == 0 || n > crate::region::MAX_REGIONS {
            return Err(Error::RegionCount { got: n });
        }
        let mut values = Vec::with_capacity(n * n);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != n {
                return Err(Error::NotSquare { rows: n, row_len: row.len() });
            }
            validate_latency_row(row, n)?;
            // lint:allow(indexing) validate_latency_row just confirmed row.len() == n and i enumerates 0..n
            if row[i] != 0.0 {
                // lint:allow(indexing) same bounds as the check one line up: row.len() == n and i < n
                return Err(Error::NonZeroDiagonal { region: i, value: row[i] });
            }
            values.extend_from_slice(row);
        }
        Ok(InterRegionMatrix { n, values })
    }

    /// A zero matrix for `n` regions — useful when modelling a single
    /// data-centre deployment or in tests.
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionCount`] for `n == 0` or `n > 32`.
    pub fn zeros(n: usize) -> Result<Self, Error> {
        if n == 0 || n > crate::region::MAX_REGIONS {
            return Err(Error::RegionCount { got: n });
        }
        Ok(InterRegionMatrix { n, values: vec![0.0; n * n] })
    }

    /// Number of regions covered by the matrix.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always `false` for a constructed matrix; provided for completeness.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// One-way latency in milliseconds from region `from` to region `to`.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of bounds.
    pub fn latency(&self, from: RegionId, to: RegionId) -> f64 {
        assert!(from.index() < self.n && to.index() < self.n, "region id out of bounds");
        // lint:allow(indexing) the assert above is the documented bounds check; values holds n*n entries
        self.values[from.index() * self.n + to.index()]
    }

    /// The full row of latencies out of `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of bounds.
    pub fn row(&self, from: RegionId) -> &[f64] {
        // lint:allow(indexing) values holds n*n entries, so rows below the asserted bound always slice cleanly
        &self.values[from.index() * self.n..(from.index() + 1) * self.n]
    }

    /// Restricts the matrix to a subset of regions, renumbering them in the
    /// order given. Used by the pruning heuristics of [`crate::scaling`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::RegionCount`] if `keep` is empty, and
    /// [`Error::InvalidAssignment`] if an id is out of bounds.
    pub fn restrict(&self, keep: &[RegionId]) -> Result<Self, Error> {
        if keep.is_empty() {
            return Err(Error::RegionCount { got: 0 });
        }
        for id in keep {
            if id.index() >= self.n {
                let mask = crate::assignment::bit(*id).unwrap_or(0);
                return Err(Error::InvalidAssignment { mask, n_regions: self.n });
            }
        }
        let m = keep.len();
        let mut values = Vec::with_capacity(m * m);
        for &from in keep {
            for &to in keep {
                values.push(self.latency(from, to));
            }
        }
        Ok(InterRegionMatrix { n: m, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> InterRegionMatrix {
        InterRegionMatrix::from_rows(vec![
            vec![0.0, 40.0, 90.0],
            vec![40.0, 0.0, 120.0],
            vec![90.0, 120.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn lookup_matches_rows() {
        let m = sample();
        assert_eq!(m.latency(RegionId(0), RegionId(2)), 90.0);
        assert_eq!(m.row(RegionId(1)), &[40.0, 0.0, 120.0]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn rejects_non_square() {
        let err = InterRegionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0]]);
        assert_eq!(err, Err(Error::NotSquare { rows: 2, row_len: 1 }));
    }

    #[test]
    fn rejects_nonzero_diagonal() {
        let err = InterRegionMatrix::from_rows(vec![vec![0.0, 1.0], vec![1.0, 0.5]]);
        assert_eq!(err, Err(Error::NonZeroDiagonal { region: 1, value: 0.5 }));
    }

    #[test]
    fn rejects_negative_latency() {
        let err = InterRegionMatrix::from_rows(vec![vec![0.0, -1.0], vec![1.0, 0.0]]);
        assert_eq!(err, Err(Error::InvalidLatency { value: -1.0 }));
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(InterRegionMatrix::from_rows(vec![]), Err(Error::RegionCount { got: 0 }));
    }

    #[test]
    fn asymmetric_routes_are_allowed() {
        let m = InterRegionMatrix::from_rows(vec![vec![0.0, 10.0], vec![30.0, 0.0]]).unwrap();
        assert_eq!(m.latency(RegionId(0), RegionId(1)), 10.0);
        assert_eq!(m.latency(RegionId(1), RegionId(0)), 30.0);
    }

    #[test]
    fn zeros_matrix() {
        let m = InterRegionMatrix::zeros(4).unwrap();
        assert_eq!(m.latency(RegionId(3), RegionId(0)), 0.0);
    }

    #[test]
    fn restrict_renumbers() {
        let m = sample();
        let r = m.restrict(&[RegionId(2), RegionId(0)]).unwrap();
        assert_eq!(r.len(), 2);
        // New region 0 is old region 2.
        assert_eq!(r.latency(RegionId(0), RegionId(1)), 90.0);
        assert_eq!(r.latency(RegionId(0), RegionId(0)), 0.0);
    }

    #[test]
    fn restrict_rejects_out_of_bounds() {
        let m = sample();
        assert!(m.restrict(&[RegionId(9)]).is_err());
        // An id no mask can hold is an error too, not a shift overflow.
        assert!(m.restrict(&[RegionId(32)]).is_err());
        assert!(m.restrict(&[]).is_err());
    }
}
