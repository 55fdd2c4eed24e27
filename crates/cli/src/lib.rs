//! `ivme-cli` — a line-oriented shell around the IVM^ε engine.
//!
//! [`proto::HELP`] lists the command language; the `ivme` binary wires
//! [`shell::Shell`] to stdin/stdout (`ivme`) or to a TCP connection against
//! an `ivme-server` (`ivme client <addr>`). The command grammar and the wire
//! framing live in [`proto`], what a command does in [`session`], and the
//! read replies in [`render`] — all three shared with the server crate.

pub mod proto;
pub mod render;
pub mod session;
pub mod shell;

pub use proto::{parse_command, parse_tuple, read_response, write_err, write_ok, Command};
pub use render::{render_count, render_get, render_list, render_page, render_stats};
pub use shell::Shell;
