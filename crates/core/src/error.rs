//! Error type for model construction and validation.

use std::fmt;

/// Errors produced when constructing or validating MultiPub model objects.
///
/// All constructors in this crate validate their inputs (dimensions,
/// ranges, non-emptiness) and report violations through this type rather
/// than panicking.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A latency vector or matrix row had the wrong number of columns.
    LatencyDimension {
        /// Number of regions the model expects.
        expected: usize,
        /// Number of entries actually provided.
        got: usize,
    },
    /// A latency value was negative, NaN or infinite.
    InvalidLatency {
        /// The offending value.
        value: f64,
    },
    /// An inter-region matrix had a non-zero diagonal entry
    /// (`L^R[i][i]` must be 0).
    NonZeroDiagonal {
        /// The region index with the non-zero self-latency.
        region: usize,
        /// The offending value.
        value: f64,
    },
    /// An inter-region matrix was not square.
    NotSquare {
        /// Number of rows provided.
        rows: usize,
        /// Length of the offending row.
        row_len: usize,
    },
    /// A region set was empty or exceeded the 32-region limit imposed by
    /// the bitmask representation of assignment vectors.
    RegionCount {
        /// Number of regions provided.
        got: usize,
    },
    /// A cost rate (per-GB price) was negative, NaN or infinite.
    InvalidCostRate {
        /// The offending value.
        value: f64,
    },
    /// A delivery-constraint ratio was outside `(0, 100]`.
    InvalidRatio {
        /// The offending ratio (percent).
        value: f64,
    },
    /// A delivery-constraint bound was not a positive finite number.
    InvalidBound {
        /// The offending bound (milliseconds).
        value: f64,
    },
    /// An observation interval was not a positive finite number of
    /// seconds.
    InvalidInterval {
        /// The offending interval (seconds).
        value: f64,
    },
    /// A publication rate was negative, NaN or infinite, or so large that
    /// an interval's message, byte or delivery totals overflow `u64`.
    InvalidRate {
        /// The offending rate (messages per second).
        value: f64,
    },
    /// A client id appears twice in the same role of one topic workload.
    DuplicateClient {
        /// The duplicated client id.
        id: u64,
    },
    /// An assignment vector was empty (at least one region must serve a
    /// topic) or referenced regions outside the region set.
    InvalidAssignment {
        /// The offending bitmask.
        mask: u32,
        /// Number of regions in the model.
        n_regions: usize,
    },
    /// A subscriber weight of zero was provided (weights count the number
    /// of real subscribers a virtual subscriber stands for).
    ZeroWeight,
    /// The workload has no publishers or no subscribers, so there is
    /// nothing to optimize.
    EmptyWorkload,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::LatencyDimension { expected, got } => {
                write!(f, "latency vector has {got} entries, expected {expected}")
            }
            Error::InvalidLatency { value } => {
                write!(f, "latency must be finite and non-negative, got {value}")
            }
            Error::NonZeroDiagonal { region, value } => {
                write!(f, "inter-region latency L^R[{region}][{region}] must be 0, got {value}")
            }
            Error::NotSquare { rows, row_len } => {
                write!(f, "inter-region matrix with {rows} rows has a row of length {row_len}")
            }
            Error::RegionCount { got } => {
                write!(f, "region set must contain between 1 and 32 regions, got {got}")
            }
            Error::InvalidCostRate { value } => {
                write!(f, "cost rate must be finite and non-negative, got {value}")
            }
            Error::InvalidRatio { value } => {
                write!(f, "delivery ratio must be within (0, 100], got {value}")
            }
            Error::InvalidBound { value } => {
                write!(f, "delivery bound must be positive and finite, got {value}")
            }
            Error::InvalidInterval { value } => {
                write!(f, "observation interval must be positive and finite, got {value} s")
            }
            Error::InvalidRate { value } => write!(
                f,
                "publication rate must be finite, non-negative and small enough to count, \
                 got {value}/s"
            ),
            Error::DuplicateClient { id } => {
                write!(f, "client C{id} appears twice in the same role")
            }
            Error::InvalidAssignment { mask, n_regions } => {
                write!(
                    f,
                    "assignment mask {mask:#b} is empty or references regions outside 0..{n_regions}"
                )
            }
            Error::ZeroWeight => write!(f, "subscriber weight must be at least 1"),
            Error::EmptyWorkload => {
                write!(f, "workload needs at least one publisher and one subscriber")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = Error::LatencyDimension { expected: 10, got: 9 };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains('9'));
        assert!(s.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn std::error::Error> = Box::new(Error::ZeroWeight);
        assert!(!e.to_string().is_empty());
    }
}
