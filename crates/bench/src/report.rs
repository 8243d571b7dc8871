//! Tiny reporting helpers: every experiment binary prints both a
//! human-readable table and one JSON object per row (machine-readable,
//! so EXPERIMENTS.md numbers can be regenerated and diffed);
//! [`write_json_file`] lands a collected document where CI and
//! EXPERIMENTS.md expect it.

use serde::Serialize;
use std::path::Path;

/// Print one experiment row as JSON on stdout, prefixed so tables and
/// JSON can be separated with grep.
pub fn emit<T: Serialize>(experiment: &str, row: &T) {
    let json = serde_json::to_string(row).expect("row serializes");
    println!("JSON {experiment} {json}");
}

/// Write `doc` to `path` as pretty-printed JSON with a trailing
/// newline. Panics on I/O failure — an experiment that cannot land its
/// report must not exit 0.
pub fn write_json_file<T: Serialize>(path: &Path, doc: &T) {
    let compact = serde_json::to_string(doc).expect("document serializes");
    let mut json = pretty(&compact);
    json.push('\n');
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Re-indent a compact JSON string (two-space indent). The vendored
/// `serde_json` only emits compact output; benchmark reports are meant
/// to be read and diffed, so they get line structure here.
fn pretty(compact: &str) -> String {
    let mut out = String::with_capacity(compact.len() * 2);
    let mut depth = 0usize;
    let mut in_str = false;
    let mut escaped = false;
    let indent = |out: &mut String, depth: usize| {
        out.push('\n');
        for _ in 0..depth {
            out.push_str("  ");
        }
    };
    for ch in compact.chars() {
        if in_str {
            out.push(ch);
            if escaped {
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                in_str = false;
            }
            continue;
        }
        match ch {
            '"' => {
                in_str = true;
                out.push(ch);
            }
            '{' | '[' => {
                out.push(ch);
                depth += 1;
                indent(&mut out, depth);
            }
            '}' | ']' => {
                depth = depth.saturating_sub(1);
                indent(&mut out, depth);
                out.push(ch);
            }
            ',' => {
                out.push(ch);
                indent(&mut out, depth);
            }
            ':' => out.push_str(": "),
            _ => out.push(ch),
        }
    }
    out
}

/// A labelled numeric series for quick textual plots.
#[derive(Debug, Default)]
pub struct Series {
    points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Render the y-values as a unicode sparkline — a one-line shape
    /// check printed under each experiment table.
    #[must_use]
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        if self.points.is_empty() {
            return String::new();
        }
        let lo = self
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .points
            .iter()
            .map(|p| p.1)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = (hi - lo).max(f64::MIN_POSITIVE);
        self.points
            .iter()
            .map(|p| {
                let t = ((p.1 - lo) / span * 7.0).round() as usize;
                BARS[t.min(7)]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_shapes() {
        let mut s = Series::new();
        for (i, y) in [1.0, 2.0, 4.0, 8.0].iter().enumerate() {
            s.push(i as f64, *y);
        }
        let line = s.sparkline();
        assert_eq!(line.chars().count(), 4);
        assert!(line.starts_with('▁'));
        assert!(line.ends_with('█'));
        assert!(Series::new().sparkline().is_empty());
        // A flat series renders without NaN panics.
        let mut flat = Series::new();
        flat.push(0.0, 5.0);
        flat.push(1.0, 5.0);
        assert_eq!(flat.sparkline().chars().count(), 2);
    }

    #[test]
    fn pretty_preserves_json_and_strings() {
        let compact = r#"{"a":[1,2],"s":"br{ace,s} and \"quo:tes\"","n":null}"#;
        let p = pretty(compact);
        // Stripping the added whitespace outside strings must give
        // back the compact form: the formatter may not touch content.
        let mut stripped = String::new();
        let (mut in_str, mut escaped) = (false, false);
        for ch in p.chars() {
            if in_str {
                stripped.push(ch);
                if escaped {
                    escaped = false;
                } else if ch == '\\' {
                    escaped = true;
                } else if ch == '"' {
                    in_str = false;
                }
            } else if !ch.is_whitespace() {
                if ch == '"' {
                    in_str = true;
                }
                stripped.push(ch);
            }
        }
        assert_eq!(stripped, compact);
        assert!(p.contains("\n  \"a\": [\n"));
        assert!(p.contains(r#"br{ace,s} and \"quo:tes\""#));
    }
}
