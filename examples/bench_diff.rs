//! Compare two bench-metrics JSON files and print a regression table.
//!
//! ```text
//! cargo run --release --example bench_diff -- BENCH_PR6.json target/bench_head.json
//! cargo run --release --example bench_diff -- BENCH_PR10.json head_enum.json fig_enum_delay
//! ```
//!
//! Walks both documents, matches numeric leaves by their `a.b.c` path, and
//! prints baseline vs head with the relative change — the CI bench job
//! runs it against the committed `BENCH_PR*.json` baseline so regressions
//! are visible in the job log next to the raw bench output. The optional
//! third argument restricts the comparison to metric paths starting with
//! that prefix, so one combined baseline file (benches namespaced under
//! their own top-level key) can be diffed against each bench's individual
//! head emission. Informational by design: machine-dependent numbers gate
//! inside the benches (where arming can depend on core count), not here.
//!
//! The JSON subset parsed here (objects, arrays, strings, numbers, bools,
//! null) covers the bench files; the parser is ~80 lines because the
//! offline build environment has no serde.

use std::collections::BTreeMap;

#[derive(Debug)]
// The bool/string payloads are parsed for well-formedness but only
// numeric leaves are compared; Debug keeps them printable in errors.
#[allow(dead_code)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            s: s.as_bytes(),
            i: 0,
        }
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.s
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_owned())
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek()? == b {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                b as char, self.i, self.s[self.i] as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                if self.peek()? == b'}' {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    let key = match self.value()? {
                        Json::Str(k) => k,
                        other => return Err(format!("object key must be a string, got {other:?}")),
                    };
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    match self.peek()? {
                        b',' => self.i += 1,
                        b'}' => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        c => {
                            return Err(format!(
                                "expected , or }} in object, found {:?}",
                                c as char
                            ))
                        }
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                if self.peek()? == b']' {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    match self.peek()? {
                        b',' => self.i += 1,
                        b']' => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        c => {
                            return Err(format!("expected , or ] in array, found {:?}", c as char))
                        }
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s.get(self.i).copied().ok_or("unterminated string")? {
                        b'"' => {
                            self.i += 1;
                            return Ok(Json::Str(out));
                        }
                        b'\\' => {
                            self.i += 1;
                            let e = self.s.get(self.i).copied().ok_or("unterminated escape")?;
                            out.push(match e {
                                b'n' => '\n',
                                b't' => '\t',
                                b'r' => '\r',
                                b'u' => {
                                    // Skip 4 hex digits; escaped non-ASCII
                                    // never occurs in our bench files.
                                    self.i += 4;
                                    '\u{FFFD}'
                                }
                                c => c as char,
                            });
                            self.i += 1;
                        }
                        c => {
                            out.push(c as char);
                            self.i += 1;
                        }
                    }
                }
            }
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i])
                    .ok()
                    .and_then(|t| t.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("malformed number at byte {start}"))
            }
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("malformed literal at byte {}", self.i))
        }
    }
}

fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.ws();
    if p.i != p.s.len() {
        return Err(format!("trailing garbage at byte {}", p.i));
    }
    Ok(v)
}

/// Flattens every numeric leaf into `path -> value`.
fn numeric_leaves(v: &Json, prefix: &str, out: &mut BTreeMap<String, f64>) {
    match v {
        Json::Num(n) => {
            out.insert(prefix.to_owned(), *n);
        }
        Json::Obj(fields) => {
            for (k, v) in fields {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                numeric_leaves(v, &path, out);
            }
        }
        Json::Arr(items) => {
            for (i, v) in items.iter().enumerate() {
                numeric_leaves(v, &format!("{prefix}[{i}]"), out);
            }
        }
        _ => {}
    }
}

fn load(path: &str) -> BTreeMap<String, f64> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let json = parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let mut out = BTreeMap::new();
    numeric_leaves(&json, "", &mut out);
    out
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (baseline_path, head_path, prefix) = match args.as_slice() {
        [b, h] => (b, h, ""),
        [b, h, p] => (b, h, p.as_str()),
        _ => die("usage: bench_diff <baseline.json> <head.json> [prefix]"),
    };
    let keep = |m: &BTreeMap<String, f64>| -> BTreeMap<String, f64> {
        m.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    };
    let baseline = keep(&load(baseline_path));
    let head = keep(&load(head_path));

    if prefix.is_empty() {
        println!("# bench_diff: {baseline_path} (baseline) vs {head_path} (head)");
    } else {
        println!(
            "# bench_diff: {baseline_path} (baseline) vs {head_path} (head), prefix `{prefix}`"
        );
    }
    println!(
        "{:<44} {:>14} {:>14} {:>9}",
        "metric", "baseline", "head", "change"
    );
    let mut compared = 0;
    for (path, b) in &baseline {
        let Some(h) = head.get(path) else { continue };
        compared += 1;
        let change = if *b == 0.0 {
            "n/a".to_owned()
        } else {
            format!("{:+.1}%", (h - b) / b * 100.0)
        };
        println!("{path:<44} {b:>14.2} {h:>14.2} {change:>9}");
    }
    let only_base: Vec<&String> = baseline.keys().filter(|k| !head.contains_key(*k)).collect();
    let only_head: Vec<&String> = head.keys().filter(|k| !baseline.contains_key(*k)).collect();
    if !only_base.is_empty() {
        println!("# only in baseline: {only_base:?}");
    }
    if !only_head.is_empty() {
        println!("# only in head: {only_head:?}");
    }
    if compared == 0 {
        die("no common numeric metrics — wrong files?");
    }
    println!("# {compared} metrics compared (informational; hard gates assert inside the benches)");
}
