//! The recursive-descent parser for the supported TOML subset.

use crate::error::Error;
use crate::value::{Spanned, Table, Value};
use crate::MAX_DEPTH;
use std::collections::HashSet;

pub(crate) fn parse(input: &str) -> Result<Table, Error> {
    let mut p = Parser::new(input);
    let mut root = Table::new(0);
    // Path of the table currently receiving `key = value` pairs.
    let mut current: Vec<Spanned<String>> = Vec::new();
    // Explicitly defined `[headers]`, to reject duplicates.
    let mut defined: HashSet<String> = HashSet::new();

    loop {
        p.skip_trivia();
        let Some(c) = p.peek() else { break };
        if c == '[' {
            current = p.header(&mut root, &mut defined)?;
        } else {
            let line = p.line;
            let key = p.key()?;
            p.skip_ws();
            if p.peek() == Some('.') {
                return Err(Error::new(line, "dotted keys are not supported"));
            }
            if p.peek() != Some('=') {
                return Err(Error::new(line, format!("expected `=` after key {:?}", key.value)));
            }
            p.bump();
            p.skip_ws();
            let value = p.value(0)?;
            p.end_of_line()?;
            navigate(&mut root, &current)?.insert(key, value)?;
        }
    }
    Ok(root)
}

/// Walks `path` from `root`, creating implicit tables and descending into
/// the last element of arrays of tables, TOML-style.
fn navigate<'t>(mut table: &'t mut Table, path: &[Spanned<String>]) -> Result<&'t mut Table, Error> {
    for seg in path {
        if table.get(&seg.value).is_none() {
            let sub = Value::Table(Table::new(seg.line));
            table.insert(seg.clone(), Spanned::new(sub, seg.line))?;
        }
        let entry = table.get_mut(&seg.value).expect("just ensured");
        table = match &mut entry.value {
            Value::Table(sub) => sub,
            Value::Array(items) => match items.last_mut() {
                Some(Spanned {
                    value: Value::Table(sub),
                    ..
                }) => sub,
                _ => {
                    return Err(seg.error(format!(
                        "key {:?} is a plain array, not an array of tables",
                        seg.value
                    )))
                }
            },
            _ => {
                return Err(seg.error(format!(
                    "key {:?} is a value, not a table",
                    seg.value
                )))
            }
        };
    }
    Ok(table)
}

struct Parser {
    chars: Vec<char>,
    pos: usize,
    line: u32,
}

impl Parser {
    fn new(input: &str) -> Self {
        Self {
            chars: input.chars().collect(),
            pos: 0,
            line: 1,
        }
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    /// Skips spaces and tabs.
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\r')) {
            self.bump();
        }
    }

    /// Skips whitespace, comments and newlines.
    fn skip_trivia(&mut self) {
        loop {
            self.skip_ws();
            match self.peek() {
                Some('\n') => {
                    self.bump();
                }
                Some('#') => {
                    while !matches!(self.peek(), None | Some('\n')) {
                        self.bump();
                    }
                }
                _ => return,
            }
        }
    }

    /// Consumes trailing whitespace and an optional comment, then a
    /// newline or end of input.
    fn end_of_line(&mut self) -> Result<(), Error> {
        self.skip_ws();
        if self.peek() == Some('#') {
            while !matches!(self.peek(), None | Some('\n')) {
                self.bump();
            }
        }
        match self.peek() {
            None => Ok(()),
            Some('\n') => {
                self.bump();
                Ok(())
            }
            Some(c) => Err(Error::new(
                self.line,
                format!("unexpected {c:?} after value (one `key = value` per line)"),
            )),
        }
    }

    /// Parses a `[header]` or `[[header]]` line and registers the table
    /// it opens; returns the new current path.
    fn header(
        &mut self,
        root: &mut Table,
        defined: &mut HashSet<String>,
    ) -> Result<Vec<Spanned<String>>, Error> {
        let line = self.line;
        self.bump(); // '['
        let is_array = self.peek() == Some('[');
        if is_array {
            self.bump();
        }
        let mut path = Vec::new();
        loop {
            self.skip_ws();
            path.push(self.key()?);
            if path.len() > MAX_DEPTH {
                return Err(Error::new(
                    line,
                    format!("table header nests more than {MAX_DEPTH} keys deep"),
                ));
            }
            self.skip_ws();
            match self.peek() {
                Some('.') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    break;
                }
                _ => return Err(Error::new(line, "expected `.` or `]` in table header")),
            }
        }
        if is_array {
            if self.peek() != Some(']') {
                return Err(Error::new(line, "array-of-tables header must end with `]]`"));
            }
            self.bump();
        }
        self.end_of_line()?;

        let dotted = path
            .iter()
            .map(|s| s.value.as_str())
            .collect::<Vec<_>>()
            .join(".");
        let (last, parents) = path.split_last().expect("header has at least one key");
        let parent = navigate(root, parents)?;
        if is_array {
            // A fresh element opens a fresh header scope beneath it:
            // [a.sub] under the second [[a]] is not a redefinition of
            // [a.sub] under the first.
            let prefix = format!("{dotted}.");
            defined.retain(|d| !d.starts_with(&prefix));
            match parent.get_mut(&last.value) {
                None => {
                    let table = Spanned::new(Value::Table(Table::new(line)), line);
                    let arr = Value::Array(vec![table]);
                    parent.insert(last.clone(), Spanned::new(arr, line))?;
                }
                Some(entry) => match &mut entry.value {
                    Value::Array(items)
                        if matches!(
                            items.last(),
                            Some(Spanned {
                                value: Value::Table(_),
                                ..
                            })
                        ) =>
                    {
                        items.push(Spanned::new(Value::Table(Table::new(line)), line));
                    }
                    _ => {
                        return Err(Error::new(
                            line,
                            format!("[[{dotted}]] conflicts with an earlier definition"),
                        ))
                    }
                },
            }
        } else {
            if !defined.insert(dotted.clone()) {
                return Err(Error::new(line, format!("table [{dotted}] defined twice")));
            }
            match parent.get(&last.value) {
                Some(Spanned {
                    value: Value::Table(_),
                    ..
                }) => {} // re-use the implicitly created table
                Some(Spanned {
                    value: Value::Array(_),
                    ..
                }) => {
                    return Err(Error::new(
                        line,
                        format!("[{dotted}] conflicts with the array of tables [[{dotted}]]"),
                    ));
                }
                Some(_) => {
                    return Err(Error::new(
                        line,
                        format!("[{dotted}] conflicts with an earlier value"),
                    ));
                }
                None => {
                    let seg = Spanned::new(last.value.clone(), line);
                    navigate(parent, std::slice::from_ref(&seg))?;
                }
            }
        }
        Ok(path)
    }

    /// Parses a bare or quoted key.
    fn key(&mut self) -> Result<Spanned<String>, Error> {
        let line = self.line;
        match self.peek() {
            Some('"') | Some('\'') => {
                let v = self.string()?;
                let Value::Str(s) = v.value else { unreachable!() };
                Ok(Spanned::new(s, line))
            }
            Some(c) if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut s = String::new();
                while let Some(c) = self.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                        s.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                Ok(Spanned::new(s, line))
            }
            Some(c) => Err(Error::new(line, format!("expected a key, found {c:?}"))),
            None => Err(Error::new(line, "expected a key, found end of input")),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Spanned<Value>, Error> {
        let line = self.line;
        match self.peek() {
            Some('"') | Some('\'') => self.string(),
            Some('[') => self.array(depth + 1),
            Some('{') => Err(Error::new(line, "inline tables are not supported")),
            Some('t') | Some('f') => self.boolean(),
            Some(c) if c.is_ascii_digit() || c == '+' || c == '-' || c == '.' => self.number(),
            Some(c) => Err(Error::new(line, format!("expected a value, found {c:?}"))),
            None => Err(Error::new(line, "expected a value, found end of input")),
        }
    }

    fn string(&mut self) -> Result<Spanned<Value>, Error> {
        let line = self.line;
        let quote = self.bump().expect("caller saw a quote");
        if self.peek() == Some(quote) && self.peek2() == Some(quote) {
            return Err(Error::new(line, "multi-line strings are not supported"));
        }
        let mut s = String::new();
        loop {
            match self.bump() {
                None | Some('\n') => {
                    return Err(Error::new(line, "unterminated string"));
                }
                Some(c) if c == quote => break,
                Some('\\') if quote == '"' => match self.bump() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some('r') => s.push('\r'),
                    Some('"') => s.push('"'),
                    Some('\\') => s.push('\\'),
                    Some('u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or_else(|| {
                                    Error::new(line, "\\u escape needs 4 hex digits")
                                })?;
                            code = code * 16 + d;
                        }
                        s.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::new(line, "invalid \\u escape"))?,
                        );
                    }
                    Some(c) => {
                        return Err(Error::new(line, format!("unknown escape \\{c}")));
                    }
                    None => return Err(Error::new(line, "unterminated string")),
                },
                Some(c) => s.push(c),
            }
        }
        Ok(Spanned::new(Value::Str(s), line))
    }

    fn array(&mut self, depth: usize) -> Result<Spanned<Value>, Error> {
        let line = self.line;
        if depth > MAX_DEPTH {
            return Err(Error::new(
                line,
                format!("arrays nest more than {MAX_DEPTH} levels deep"),
            ));
        }
        self.bump(); // '['
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            match self.peek() {
                None => return Err(Error::new(line, "unterminated array")),
                Some(']') => {
                    self.bump();
                    break;
                }
                _ => {}
            }
            items.push(self.value(depth)?);
            self.skip_trivia();
            match self.peek() {
                Some(',') => {
                    self.bump();
                }
                Some(']') => {
                    self.bump();
                    break;
                }
                _ => {
                    return Err(Error::new(
                        self.line,
                        "expected `,` or `]` after array element",
                    ))
                }
            }
        }
        Ok(Spanned::new(Value::Array(items), line))
    }

    fn boolean(&mut self) -> Result<Spanned<Value>, Error> {
        let line = self.line;
        let word = self.word();
        match word.as_str() {
            "true" => Ok(Spanned::new(Value::Bool(true), line)),
            "false" => Ok(Spanned::new(Value::Bool(false), line)),
            other => Err(Error::new(line, format!("expected a value, found {other:?}"))),
        }
    }

    fn number(&mut self) -> Result<Spanned<Value>, Error> {
        let line = self.line;
        let token = self.word();
        let clean: String = token.chars().filter(|&c| c != '_').collect();
        let (sign, digits) = match clean.strip_prefix('-') {
            Some(rest) => (-1i64, rest),
            None => (1i64, clean.strip_prefix('+').unwrap_or(&clean)),
        };
        let radix = match digits.get(..2) {
            Some("0x") | Some("0X") => Some(16),
            Some("0o") | Some("0O") => Some(8),
            Some("0b") | Some("0B") => Some(2),
            _ => None,
        };
        if let Some(radix) = radix {
            return i64::from_str_radix(&digits[2..], radix)
                .map(|v| Spanned::new(Value::Int(sign * v), line))
                .map_err(|_| Error::new(line, format!("invalid integer {token:?}")));
        }
        if clean.contains(['.', 'e', 'E']) {
            return clean
                .parse::<f64>()
                .map(|v| Spanned::new(Value::Float(v), line))
                .map_err(|_| Error::new(line, format!("invalid float {token:?}")));
        }
        clean.parse::<i64>().map(|v| Spanned::new(Value::Int(v), line)).map_err(|_| {
            if digits.contains('-') || digits.contains(':') {
                Error::new(line, format!("invalid number {token:?} (dates are not supported)"))
            } else {
                Error::new(line, format!("invalid number {token:?}"))
            }
        })
    }

    /// Consumes a run of token characters (used by numbers and booleans).
    fn word(&mut self) -> String {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '+' | '-' | '.' | ':') {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn array_elements_reopen_subtable_scope() {
        let doc = parse(
            "[[run]]\n[run.engine]\nx = 1\n[[run]]\n[run.engine]\nx = 2\n",
        )
        .unwrap();
        let runs = doc.table_array("run").unwrap();
        assert_eq!(runs.len(), 2);
        let x = |t: &Table| {
            t.opt_table("engine").unwrap().unwrap().req_usize("x").unwrap()
        };
        assert_eq!(x(runs[0]), 1);
        assert_eq!(x(runs[1]), 2);
        // Within ONE element it is still a duplicate.
        assert!(parse("[[run]]\n[run.engine]\nx = 1\n[run.engine]\ny = 2\n").is_err());
    }

    #[test]
    fn headers_nesting_and_arrays_of_tables() {
        let doc = parse(
            r#"
top = 1
[a]
x = 2
[a.b]
y = 3
[[runs]]
n = 1
[[runs]]
n = 2
[runs-meta]
z = 4
"#,
        )
        .unwrap();
        assert_eq!(doc.req_usize("top").unwrap(), 1);
        let a = doc.opt_table("a").unwrap().unwrap();
        assert_eq!(a.req_usize("x").unwrap(), 2);
        assert_eq!(a.opt_table("b").unwrap().unwrap().req_usize("y").unwrap(), 3);
        let runs = doc.table_array("runs").unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].req_usize("n").unwrap(), 1);
        assert_eq!(runs[1].req_usize("n").unwrap(), 2);
        assert_eq!(runs[1].line(), 9, "array-of-tables entry carries its header line");
    }

    #[test]
    fn numbers_in_all_radixes() {
        let doc = parse(
            "a = 42\nb = -17\nc = 0xFEED_5EED\nd = 0o17\ne = 0b1010\nf = 1_000_000\ng = +5",
        )
        .unwrap();
        assert_eq!(doc.opt_i64("a").unwrap(), Some(42));
        assert_eq!(doc.opt_i64("b").unwrap(), Some(-17));
        assert_eq!(doc.opt_u64("c").unwrap(), Some(0xFEED_5EED));
        assert_eq!(doc.opt_i64("d").unwrap(), Some(0o17));
        assert_eq!(doc.opt_i64("e").unwrap(), Some(0b1010));
        assert_eq!(doc.opt_i64("f").unwrap(), Some(1_000_000));
        assert_eq!(doc.opt_i64("g").unwrap(), Some(5));
    }

    #[test]
    fn floats_and_bools() {
        let doc = parse("a = 0.5\nb = -1.25e2\nc = true\nd = false").unwrap();
        assert_eq!(doc.opt_f64("a").unwrap(), Some(0.5));
        assert_eq!(doc.opt_f64("b").unwrap(), Some(-125.0));
        assert_eq!(doc.opt_bool("c").unwrap(), Some(true));
        assert_eq!(doc.opt_bool("d").unwrap(), Some(false));
    }

    #[test]
    fn strings_with_escapes_and_literals() {
        let doc = parse(r#"a = "tab\there \"q\" A"
b = 'no \escapes'
"quoted key" = 1"#)
        .unwrap();
        assert_eq!(doc.opt_str("a").unwrap(), Some("tab\there \"q\" A"));
        assert_eq!(doc.opt_str("b").unwrap(), Some(r"no \escapes"));
        assert_eq!(doc.opt_i64("quoted key").unwrap(), Some(1));
    }

    #[test]
    fn multiline_arrays_with_comments() {
        let doc = parse(
            "seeds = [\n  1, # first\n  2,\n  3, # trailing comma is fine\n]\nafter = 9",
        )
        .unwrap();
        assert_eq!(doc.opt_u64_array("seeds").unwrap().unwrap(), vec![1, 2, 3]);
        assert_eq!(doc.opt_i64("after").unwrap(), Some(9));
        assert_eq!(doc.key_line("after"), 6);
    }

    #[test]
    fn nested_arrays() {
        let doc = parse("m = [[1, 2], [3]]").unwrap();
        let rows = doc.opt_array("m").unwrap().unwrap();
        assert_eq!(rows.len(), 2);
        assert!(matches!(rows[0].value, Value::Array(ref v) if v.len() == 2));
    }

    #[test]
    fn error_lines_are_exact() {
        assert_eq!(parse("a = 1\nb = ").unwrap_err().line(), 2);
        assert_eq!(parse("a = 1\n\nb = \"open").unwrap_err().line(), 3);
        assert_eq!(parse("a = 1 2").unwrap_err().line(), 1);
        assert_eq!(parse("[t]\nx = 1\n[t]\n").unwrap_err().line(), 3);
        assert_eq!(parse("a = 1\na = 2").unwrap_err().line(), 2);
    }

    #[test]
    fn pointed_rejections_for_unsupported_syntax() {
        assert!(parse("a = {x = 1}").unwrap_err().to_string().contains("inline tables"));
        assert!(parse("a.b = 1").unwrap_err().to_string().contains("dotted keys"));
        assert!(parse("a = \"\"\"x\"\"\"").unwrap_err().to_string().contains("multi-line"));
        assert!(parse("a = 2009-05-01").unwrap_err().to_string().contains("dates"));
    }

    #[test]
    fn header_value_conflicts_are_errors() {
        assert!(parse("a = 1\n[a]\n").is_err());
        assert!(parse("[[a]]\n[a]\nx = 1").is_err(), "array then plain header");
        assert!(parse("a = [1]\n[[a]]\n").is_err(), "plain array then [[a]]");
    }

    #[test]
    fn nesting_is_bounded_with_a_line_numbered_error() {
        let nested = |n: usize| format!("a = 1\nx = {}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("nest"), "{err}");
        // Far past the bound (an unterminated hostile run of `[`): a typed
        // error, not a stack overflow.
        let err = parse(&format!("x = {}", "[".repeat(500_000))).unwrap_err();
        assert_eq!(err.line(), 1);

        let header = |n: usize| format!("\n[{}]\ny = 1", vec!["k"; n].join("."));
        assert!(parse(&header(MAX_DEPTH)).is_ok());
        let err = parse(&header(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.line(), 2);
        assert!(err.message().contains("nest"), "{err}");
        assert!(parse(&header(300_000)).is_err());
    }

    #[test]
    fn empty_and_comment_only_documents() {
        assert!(parse("").unwrap().is_empty());
        assert!(parse("# just a comment\n\n").unwrap().is_empty());
    }
}
