//! The one writer of the committed `BENCH_*.json` measurements.
//!
//! Every `bench_*` binary reads its [`Profile`] here, measures the shapes
//! the profile picks, checks every measurement, and hands its rows to
//! [`finish`]. Only the full profile writes a file, so a `--smoke` run on
//! a shared CI runner can never overwrite a committed measurement with
//! noise.
//!
//! Every file shares one envelope: `bench`, `definition`, `host.cores`,
//! then the bench's own top-level fields, then `rows`.

use std::fmt::Write as _;

/// Which shapes a bench binary measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// `--smoke`: small shapes, every correctness check, no file written.
    Smoke,
    /// The default: the committed shapes and repetitions.
    Full,
}

impl Profile {
    /// [`Profile::Smoke`] when the command line carries `--smoke`, else
    /// [`Profile::Full`].
    #[must_use]
    pub fn from_args() -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            Profile::Smoke
        } else {
            Profile::Full
        }
    }

    /// `smoke` under the smoke profile, `full` under the full one.
    pub fn pick<T>(self, smoke: T, full: T) -> T {
        match self {
            Profile::Smoke => smoke,
            Profile::Full => full,
        }
    }
}

/// A JSON value. Object keys keep their insertion order.
#[derive(Debug)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A number, encoded in Rust's shortest round-trip form (integers are
    /// exact up to 2^53); a non-finite value encodes as `null`.
    Num(f64),
    /// A string, escaped on encoding.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(&'static str, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(fields.into_iter().collect())
    }

    /// The value as indented JSON text.
    fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out, 0);
        out
    }

    fn encode_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("String write"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => encode_block(out, depth, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                encode_block(out, depth, "{}", fields.iter().map(|(k, v)| (Some(*k), v)))
            }
        }
    }
}

/// One array or object, one entry per line, indented two spaces a level.
fn encode_block<'a>(
    out: &mut String,
    depth: usize,
    brackets: &str,
    entries: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let empty = entries.len() == 0;
    out.push_str(&brackets[..1]);
    for (i, (key, value)) in entries.enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        value.encode_into(out, depth + 1);
    }
    if !empty {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push_str(&brackets[1..]);
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c < ' ' => write!(out, "\\u{:04x}", u32::from(c)).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! json_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Self {
                Json::Num(n as f64)
            }
        }
    )*};
}
json_num!(u64, u32, usize);

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_owned())
    }
}

/// The shared envelope around one bench's rows.
fn envelope(
    bench: &str,
    definition: &str,
    fields: Vec<(&'static str, Json)>,
    rows: Vec<Json>,
) -> Json {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut all = vec![
        ("bench", bench.into()),
        ("definition", definition.into()),
        ("host", Json::obj([("cores", cores.into())])),
    ];
    all.extend(fields);
    all.push(("rows", Json::Arr(rows)));
    Json::Obj(all)
}

/// Ends a bench run. The full profile writes `BENCH_<bench>.json` into the
/// working directory: the shared envelope around `definition`, the
/// bench-specific top-level `fields` and `rows`. The smoke profile writes
/// nothing and prints the smoke verdict.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn finish(
    profile: Profile,
    bench: &str,
    definition: &str,
    fields: Vec<(&'static str, Json)>,
    rows: Vec<Json>,
) {
    let path = format!("BENCH_{bench}.json");
    match profile {
        Profile::Smoke => println!("smoke OK (correctness only; no {path} written)"),
        Profile::Full => {
            let text = envelope(bench, definition, fields, rows).encode() + "\n";
            std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {path}: {e}"));
            println!("wrote {path}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_escapes_strings_nulls_non_finite_and_orders_the_envelope() {
        let doc = envelope(
            "demo",
            "a \"quoted\" \\ path\n\u{1}",
            vec![("extra", f64::NAN.into())],
            vec![Json::obj([
                ("x", 0.1.into()),
                ("n", 524_288u64.into()),
                ("inf", f64::INFINITY.into()),
                ("ok", true.into()),
                ("none", Json::Arr(Vec::new())),
            ])],
        );
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(
            doc.encode(),
            format!(
                "{{\n  \"bench\": \"demo\",\n  \
                 \"definition\": \"a \\\"quoted\\\" \\\\ path\\u000a\\u0001\",\n  \
                 \"host\": {{\n    \"cores\": {cores}\n  }},\n  \"extra\": null,\n  \
                 \"rows\": [\n    {{\n      \"x\": 0.1,\n      \"n\": 524288,\n      \
                 \"inf\": null,\n      \"ok\": true,\n      \"none\": []\n    }}\n  ]\n}}"
            )
        );
    }
}
