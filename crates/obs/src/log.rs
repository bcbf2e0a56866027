//! Leveled, structured logging to stderr with `MULTIPUB_LOG`
//! target filtering. Use the [`crate::event!`] macro; the functions
//! here are its runtime.
//!
//! `MULTIPUB_LOG` is a comma-separated list of directives, each either
//! a bare level (`error`, `warn`, `info`, `debug`, `trace`, `off`)
//! setting the default, or `target=level` overriding it for targets
//! with that prefix (the longest matching prefix wins):
//!
//! ```text
//! MULTIPUB_LOG=info                    # everything at info and above
//! MULTIPUB_LOG=broker=debug,warn       # broker* at debug, rest at warn
//! MULTIPUB_LOG=off                     # silence everything
//! ```
//!
//! When unset, the default is `warn`. Events render as single
//! `key=value` lines:
//!
//! ```text
//! ts=1754480000.123456 level=INFO target=broker msg="client connected" client_id=7
//! ```

use std::fmt;
use std::io::Write as _;
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Event severity, ordered from most to least severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The operation failed.
    Error,
    /// Something surprising that does not stop the operation.
    Warn,
    /// High-level lifecycle events.
    Info,
    /// Per-operation detail.
    Debug,
    /// Everything, including hot-path chatter.
    Trace,
}

impl Level {
    /// The uppercase name used in log lines.
    fn as_str(&self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// `None` means "off": nothing passes.
fn parse_level(text: &str) -> Option<Option<Level>> {
    match text.trim().to_ascii_lowercase().as_str() {
        "error" => Some(Some(Level::Error)),
        "warn" | "warning" => Some(Some(Level::Warn)),
        "info" => Some(Some(Level::Info)),
        "debug" => Some(Some(Level::Debug)),
        "trace" => Some(Some(Level::Trace)),
        "off" | "none" => Some(None),
        _ => None,
    }
}

/// A parsed `MULTIPUB_LOG` filter: a default maximum level plus
/// per-target-prefix overrides.
#[derive(Debug, Clone)]
struct LogFilter {
    default: Option<Level>,
    /// Sorted longest-prefix-first so the most specific directive wins.
    directives: Vec<(String, Option<Level>)>,
}

impl LogFilter {
    /// Parses a filter specification (see the module docs). Unknown
    /// levels and empty segments are ignored; an empty spec yields the
    /// `warn` default.
    fn parse(spec: &str) -> LogFilter {
        let mut default = Some(Level::Warn);
        let mut directives = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                Some((target, level)) => {
                    if let Some(level) = parse_level(level) {
                        directives.push((target.trim().to_string(), level));
                    }
                }
                None => {
                    if let Some(level) = parse_level(part) {
                        default = level;
                    }
                }
            }
        }
        directives.sort_by_key(|d| std::cmp::Reverse(d.0.len()));
        LogFilter { default, directives }
    }

    /// Whether an event at `level` for `target` passes the filter.
    fn enabled(&self, level: Level, target: &str) -> bool {
        for (prefix, max) in &self.directives {
            if target.starts_with(prefix.as_str()) {
                return max.is_some_and(|max| level <= max);
            }
        }
        self.default.is_some_and(|max| level <= max)
    }
}

fn global_filter() -> &'static LogFilter {
    static FILTER: OnceLock<LogFilter> = OnceLock::new();
    FILTER.get_or_init(|| LogFilter::parse(&std::env::var("MULTIPUB_LOG").unwrap_or_default()))
}

/// Whether an event would be emitted. Called by [`crate::event!`]
/// before formatting any fields, so disabled events cost one prefix
/// scan and no allocation.
pub fn log_enabled(level: Level, target: &str) -> bool {
    global_filter().enabled(level, target)
}

/// Formats and writes one event line to stderr. Called by
/// [`crate::event!`] after [`log_enabled`] passed.
pub fn log_emit(level: Level, target: &str, fields: &[(&str, String)]) {
    use std::fmt::Write as _;
    let ts = SystemTime::now().duration_since(UNIX_EPOCH).unwrap_or_default();
    let mut line = format!(
        "ts={}.{:06} level={} target={}",
        ts.as_secs(),
        ts.subsec_micros(),
        level.as_str(),
        target
    );
    for (key, value) in fields {
        if value.is_empty() || value.chars().any(|c| c.is_whitespace() || c == '"') {
            let _ = write!(line, " {key}={value:?}");
        } else {
            let _ = write!(line, " {key}={value}");
        }
    }
    line.push('\n');
    // One write call keeps concurrent events on separate lines.
    let _ = std::io::stderr().write_all(line.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_filter_is_warn() {
        let filter = LogFilter::parse("");
        assert!(filter.enabled(Level::Error, "broker"));
        assert!(filter.enabled(Level::Warn, "broker"));
        assert!(!filter.enabled(Level::Info, "broker"));
    }

    #[test]
    fn bare_level_sets_default() {
        let filter = LogFilter::parse("debug");
        assert!(filter.enabled(Level::Debug, "anything"));
        assert!(!filter.enabled(Level::Trace, "anything"));
    }

    #[test]
    fn target_directive_overrides_default() {
        let filter = LogFilter::parse("broker=trace,info");
        assert!(filter.enabled(Level::Trace, "broker"));
        assert!(filter.enabled(Level::Trace, "broker_codec"));
        assert!(!filter.enabled(Level::Trace, "controller"));
        assert!(filter.enabled(Level::Info, "controller"));
    }

    #[test]
    fn longest_prefix_wins() {
        let filter = LogFilter::parse("broker=error,broker_codec=trace");
        assert!(filter.enabled(Level::Trace, "broker_codec"));
        assert!(!filter.enabled(Level::Warn, "broker"));
    }

    #[test]
    fn off_silences() {
        let filter = LogFilter::parse("off");
        assert!(!filter.enabled(Level::Error, "broker"));
        let filter = LogFilter::parse("warn,broker=off");
        assert!(!filter.enabled(Level::Error, "broker"));
        assert!(filter.enabled(Level::Warn, "controller"));
    }

    #[test]
    fn garbage_is_ignored() {
        let filter = LogFilter::parse("wibble,broker=nope,,=,warn");
        assert!(filter.enabled(Level::Warn, "broker"));
        assert!(!filter.enabled(Level::Info, "broker"));
    }

    #[test]
    fn levels_order_by_severity() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert!(Level::Debug < Level::Trace);
        assert_eq!(Level::Info.to_string(), "INFO");
    }
}
