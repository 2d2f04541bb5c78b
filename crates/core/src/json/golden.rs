//! Golden-file checks for JSON tables, shared by the crates that declare
//! them: this crate's tests include it as `json::golden`, and a dependent
//! crate's tests include the same file by path.
//!
//! A golden file holds one `name compact-json` line per record and per
//! enum variant. [`Golden`] collects those lines from values and holds
//! each value that reads back to the read contract; [`Golden::check`]
//! compares the lines with the file and fails on any table with no line.

use smarth_core::error::DfsError;
use smarth_core::json::{parse, Json, ToJson, Value};
use std::fmt::Debug;
use std::path::Path;

/// One crate's golden lines, in file order.
#[derive(Default)]
pub struct Golden {
    lines: Vec<String>,
}

impl Golden {
    /// The line of a write-only value.
    pub fn write(&mut self, name: &str, value: &impl ToJson) {
        self.lines
            .push(format!("{name} {}", value.to_json().to_string_compact()));
    }

    /// The line of a value that reads back. The line must read back to
    /// the value, and every malformed form of it must be a `Codec` error,
    /// never a panic and never a value: each strict prefix that still
    /// parses, and each form [`malformed`] makes.
    pub fn read<T: Json + PartialEq + Debug>(&mut self, name: &str, value: &T) {
        let text = value.to_json().to_string_compact();
        let parsed = parse(&text).expect("a written line parses");
        assert_eq!(
            &T::from_json(&parsed).expect("a written line reads"),
            value,
            "{name}"
        );
        let prefixes = (0..text.len())
            .filter(|&end| text.is_char_boundary(end))
            .filter_map(|end| parse(&text[..end]).ok());
        for bad in prefixes.chain(malformed(&parsed)) {
            match T::from_json(&bad) {
                Err(DfsError::Codec(_)) => {}
                other => panic!("{name}: {} read as {other:?}", bad.to_string_compact()),
            }
        }
        self.write(name, value);
    }

    /// Compares the lines with `expected`, the golden file's text, then
    /// fails on any table in the sources under `src` that no line names:
    /// a `json_struct!` record `Name` needs a line `Name` or `Name.case`,
    /// and each variant of a `json_enum!` one a line `Name::Variant`.
    pub fn check(&self, expected: &str, src: &Path) {
        let expected: Vec<&str> = expected.lines().collect();
        for (i, line) in self.lines.iter().enumerate() {
            assert_eq!(
                Some(line.as_str()),
                expected.get(i).copied(),
                "line {} of json.txt",
                i + 1
            );
        }
        assert_eq!(
            self.lines.len(),
            expected.len(),
            "json.txt has lines no value accounts for"
        );
        let named = |table: &String| {
            let mut rests = self
                .lines
                .iter()
                .filter_map(|l| l.strip_prefix(table.as_str()));
            rests.any(|rest| rest.starts_with([' ', '.']))
        };
        let unpinned: Vec<String> = tables(src).into_iter().filter(|t| !named(t)).collect();
        assert!(
            unpinned.is_empty(),
            "tables with no golden line: {unpinned:?}"
        );
    }
}

/// Every copy of `v` with one key removed or one value replaced by one
/// of the wrong type, at every depth (the root included).
fn malformed(v: &Value) -> Vec<Value> {
    // A string where there was none, a number for a string, and for
    // `null` an object, which no `Option` field of a table reads.
    let wrong_type = match v {
        Value::String(_) => Value::Number(0.0),
        Value::Null => Value::Object(Vec::new()),
        _ => Value::String("x".into()),
    };
    let mut out = vec![wrong_type];
    match v {
        Value::Object(fields) => {
            for (i, (_, field)) in fields.iter().enumerate() {
                let mut without = fields.clone();
                without.remove(i);
                out.push(Value::Object(without));
                for bad in malformed(field) {
                    let mut with = fields.clone();
                    with[i].1 = bad;
                    out.push(Value::Object(with));
                }
            }
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                for bad in malformed(item) {
                    let mut with = items.clone();
                    with[i] = bad;
                    out.push(Value::Array(with));
                }
            }
        }
        _ => {}
    }
    out
}

/// The tables declared in the `.rs` files under `dir`, as [`Golden::check`]
/// names them.
fn tables(dir: &Path) -> Vec<String> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            out.extend(tables(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.extend(tables_in(
                &std::fs::read_to_string(&path).expect("a source file"),
            ));
        }
    }
    out
}

/// The tables of one source file, read from its text: an invocation is
/// the macro's name, `(impl`, the trait, `for` and the type's name, and
/// an enum's variants are the capitalised names after each `=>` of its
/// table.
fn tables_in(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    for mac in ["json_struct!(impl ", "json_enum!(impl "] {
        for (at, _) in src.match_indices(mac) {
            let Some((_, rest)) = src[at + mac.len()..].split_once(" for ") else {
                continue;
            };
            let name: String = rest.chars().take_while(|c| c.is_alphanumeric()).collect();
            if name.is_empty() {
                continue; // the macros' own recursion: `for $name`
            }
            if mac.starts_with("json_struct") {
                out.push(name);
                continue;
            }
            let table = &rest[rest.find('{').expect("a table")..];
            let mut depth = 0;
            let end = table
                .char_indices()
                .find_map(|(i, c)| {
                    depth += match c {
                        '{' => 1,
                        '}' => -1,
                        _ => 0,
                    };
                    (depth == 0).then_some(i)
                })
                .expect("a closed table");
            for (i, _) in table[..end].match_indices("=> ") {
                let variant: String = table[i + 3..]
                    .chars()
                    .take_while(|c| c.is_alphanumeric())
                    .collect();
                if variant.starts_with(char::is_uppercase) {
                    out.push(format!("{name}::{variant}"));
                }
            }
        }
    }
    out
}
