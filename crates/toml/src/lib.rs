//! # resim-toml
//!
//! A minimal, dependency-free TOML reader for ReSim's declarative
//! scenario files, in the spirit of the offline shims under `vendor/`:
//! just enough of the language for configuration documents, with
//! **line-numbered diagnostics** so a mistyped scenario key surfaces as
//! `scenario.toml:12: unknown key "widht"` rather than a Rust compile
//! error or a silent default.
//!
//! The supported subset (see `docs/guide.md` for the scenario-file
//! reference built on top of it):
//!
//! * `[table]` and `[nested.table]` headers, `[[array.of.tables]]`;
//! * `key = value` pairs with bare (`a-zA-Z0-9_-`) or quoted keys;
//! * basic `"strings"` (with `\n \t \r \\ \" \u00XX` escapes) and
//!   literal `'strings'`;
//! * integers (decimal with `_` separators, `0x`/`0o`/`0b` prefixes),
//!   floats, booleans;
//! * arrays, which may span lines and carry a trailing comma;
//!   arrays and table headers nest at most [`MAX_DEPTH`] deep;
//! * `#` comments.
//!
//! Unsupported on purpose (a scenario file needs none of them): dates,
//! multi-line strings, dotted keys and inline tables — each is rejected
//! with a pointed error instead of being misparsed.
//!
//! Every parsed [`Value`] is wrapped in a [`Spanned`] carrying its
//! source line, and every [`Table`] accessor returns an [`Error`]
//! pointing at the offending line, so configuration code built on this
//! crate (the `from_table` constructors across the `resim-*` crates)
//! reports schema problems with the same precision as syntax problems.
//!
//! ## Example
//!
//! ```
//! let doc = resim_toml::parse(r#"
//! [engine]
//! width = 4
//! pipeline = "optimized"
//!
//! [[sweep.config]]
//! name = "a"
//! "#).unwrap();
//!
//! let engine = doc.opt_table("engine").unwrap().expect("engine present");
//! assert_eq!(engine.req_usize("width").unwrap(), 4);
//! assert_eq!(engine.req_str("pipeline").unwrap(), "optimized");
//!
//! let sweep = doc.opt_table("sweep").unwrap().unwrap();
//! assert_eq!(sweep.table_array("config").unwrap().len(), 1);
//!
//! // Errors carry the source line of the offending construct.
//! let err = engine.req_str("width").unwrap_err();
//! assert_eq!(err.line(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod json;
mod parser;
mod value;

pub use error::Error;
pub use value::{Spanned, Table, Value};

/// Nesting bound of the TOML parser: arrays nested deeper, or table
/// headers with more keys, are rejected with a line-numbered [`Error`]
/// rather than recursed into (a hostile scenario must not overflow the
/// stack).
pub const MAX_DEPTH: usize = 64;

/// Parses a TOML document into its root [`Table`].
///
/// # Errors
///
/// Returns a line-numbered [`Error`] on the first syntax problem.
pub fn parse(input: &str) -> Result<Table, Error> {
    parser::parse(input)
}
