//! Reporting helpers for the E18 sweep: [`emit`] prints one JSON
//! object per row beside its human-readable table, and
//! [`write_json_file`] lands the collected document where CI and
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

#[cfg(test)]
mod tests {
    use super::*;

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
